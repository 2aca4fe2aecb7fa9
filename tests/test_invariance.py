"""Deterministic augmentations and linear CKA feature-stability reports."""

import numpy as np
import pytest

from cfs_curate import encoder, formats, invariance, pipeline, stems
from cfs_curate.errors import ConfigError, DegenerateFeatureError, DimensionError, RangeError

from conftest import (assert_bitwise_equal, fancy_index_resize_bilinear, single_image_augment,
                      single_image_resize_bilinear)


def sample_images(seed=0, n=6, h=16, w=16):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 0.9, size=(n, h, w, 3))


def small_model(seed=0):
    stem = stems.StemConfig("patchify", embed_dim=16, patch_stride=8)
    config = encoder.ViTConfig(depth=1, heads=2, embed_dim=16, stem=stem,
                               image_size=(16, 16))
    return config, encoder.init_params(seed, config)


class TestAugmentationSpec:
    def test_known_kinds(self):
        for kind in invariance.AUGMENTATION_KINDS:
            invariance.AugmentationSpec(kind, invariance.DEFAULT_MAGNITUDES[kind])

    def test_unknown_kind(self):
        with pytest.raises(RangeError):
            invariance.AugmentationSpec("rotate", 0.5)

    def test_resample_fraction_bounds(self):
        for kind in ("crop", "scale"):
            with pytest.raises(RangeError):
                invariance.AugmentationSpec(kind, 1.0)
            with pytest.raises(RangeError):
                invariance.AugmentationSpec(kind, -0.1)

    @pytest.mark.parametrize("kind", invariance.AUGMENTATION_KINDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_magnitude_rejected(self, kind, value):
        with pytest.raises(RangeError, match="must be finite"):
            invariance.AugmentationSpec(kind, value)

    def test_default_specs_cover_all_kinds_in_order(self):
        specs = invariance.default_specs()
        assert [s.kind for s in specs] == list(invariance.AUGMENTATION_KINDS)


class TestAugment:
    def test_flip_involution(self):
        image = sample_images()[0]
        spec = invariance.AugmentationSpec("flip", 0.0)
        np.testing.assert_array_equal(
            invariance.augment(invariance.augment(image, spec), spec), image
        )

    def test_brightness_zero_identity(self):
        image = sample_images()[0]
        out = invariance.augment(image, invariance.AugmentationSpec("brightness", 0.0))
        np.testing.assert_array_equal(out, image)

    def test_brightness_adds_offset(self):
        image = np.full((4, 4, 3), 0.25)
        out = invariance.augment(image, invariance.AugmentationSpec("brightness", 0.3))
        np.testing.assert_allclose(out, 0.55, rtol=0, atol=1e-15)

    def test_contrast_pivots_on_mean(self):
        image = sample_images()[0] * 0.4 + 0.3  # keep the stretch inside [0, 1]
        out = invariance.augment(image, invariance.AugmentationSpec("contrast", 0.5))
        expected = image.mean() + (image - image.mean()) * 1.5
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_saturation_full_is_grayscale(self):
        image = sample_images()[0]
        out = invariance.augment(image, invariance.AugmentationSpec("saturation", 1.0))
        np.testing.assert_allclose(out[..., 0], out[..., 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[..., 1], out[..., 2], rtol=0, atol=1e-12)
        luma = image @ invariance.LUMA_WEIGHTS
        np.testing.assert_allclose(out[..., 0], np.clip(luma, 0, 1), rtol=1e-12)

    def test_crop_and_scale_preserve_shape(self):
        image = sample_images()[0]
        for kind in ("crop", "scale"):
            out = invariance.augment(image, invariance.AugmentationSpec(kind, 0.25))
            assert out.shape == image.shape

    def test_output_clamped(self):
        image = sample_images()[0]
        for spec in invariance.default_specs():
            out = invariance.augment(image, spec)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_constant_image_fixed_by_resampling(self):
        image = np.full((8, 8, 3), 0.5)
        for kind in ("crop", "scale"):
            out = invariance.augment(image, invariance.AugmentationSpec(kind, 0.3))
            np.testing.assert_allclose(out, 0.5, rtol=0, atol=1e-12)


class TestResizeBilinear:
    def test_identity_at_same_size(self):
        image = sample_images()[0]
        np.testing.assert_allclose(invariance.resize_bilinear(image, 16, 16), image,
                                   rtol=0, atol=1e-12)

    def test_constant_preserved(self):
        image = np.full((5, 7, 3), 0.3)
        out = invariance.resize_bilinear(image, 11, 4)
        np.testing.assert_allclose(out, 0.3, rtol=0, atol=1e-12)
        assert out.shape == (11, 4, 3)

    def test_linear_ramp_preserved(self):
        # bilinear resampling reproduces an affine ramp away from the border
        ramp = np.linspace(0.0, 1.0, 16)[None, :, None] * np.ones((8, 1, 3))
        out = invariance.resize_bilinear(ramp, 8, 31)
        inner = out[:, 1:-1, :]
        expected = np.linspace(0.0, 1.0, 16)
        xs = (np.arange(31) + 0.5) * (16 / 31) - 0.5
        np.testing.assert_allclose(
            inner, np.interp(xs, np.arange(16), expected)[None, 1:-1, None]
            * np.ones_like(inner), rtol=0, atol=1e-12
        )


class TestTakeGather:
    """resize_bilinear against the fancy-index gather it replaced
    (conftest.fancy_index_resize_bilinear): bitwise-equal values in a
    C-order array."""

    @pytest.mark.parametrize("in_hw,out_hw", [
        ((4, 4), (32, 32)), ((17, 9), (5, 12)), ((16, 16), (13, 13)), ((1, 1), (5, 7)),
        ((1, 9), (4, 1)), ((9, 1), (1, 3)), ((6, 5), (1, 1)), ((3, 8), (3, 8)),
    ])
    def test_bitwise_equal_to_fancy_index(self, in_hw, out_hw):
        images = np.random.default_rng(9).uniform(0, 1, size=(3, *in_hw, 3))
        for image in (images, images[1], images[::-2, :, ::-1]):
            assert_bitwise_equal(invariance.resize_bilinear(image, *out_hw),
                                 fancy_index_resize_bilinear(image, *out_hw))

    @pytest.mark.parametrize("out_hw", [(32, 32), (5, 7), (1, 1)], ids=["up", "down", "one"])
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["image", "batch"])
    def test_output_is_c_contiguous(self, batch, out_hw):
        images = np.random.default_rng(10).uniform(0, 1, size=(*batch, 12, 10, 3))
        assert invariance.resize_bilinear(images, *out_hw).flags.c_contiguous

    @pytest.mark.parametrize("kind", ["crop", "scale"])
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["image", "batch"])
    def test_resampling_augmentations_are_c_contiguous(self, kind, batch):
        images = np.random.default_rng(11).uniform(0, 1, size=(*batch, 16, 16, 3))
        spec = invariance.AugmentationSpec(kind, invariance.DEFAULT_MAGNITUDES[kind])
        assert invariance.augment(images, spec).flags.c_contiguous


class TestBatchedAugment:
    """A batch against the per-image code it replaced
    (conftest.single_image_augment), image by image."""

    @pytest.mark.parametrize("magnitude", [0.0, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("kind", invariance.AUGMENTATION_KINDS)
    @pytest.mark.parametrize("hw", [(17, 9), (1, 1), (16, 16), (5, 12)])
    def test_bitwise_equal_to_per_image_loop(self, kind, magnitude, hw):
        spec = invariance.AugmentationSpec(kind, magnitude)
        images = np.random.default_rng(7).uniform(0, 1, size=(4, *hw, 3))
        old = np.stack([single_image_augment(image, spec) for image in images])
        assert_bitwise_equal(invariance.augment(images, spec), old)
        assert_bitwise_equal(invariance.augment(images[2], spec), old[2])
        # a view that is not contiguous takes the same per-image arithmetic
        mirrored = images[::-2, :, ::-1]
        old = np.stack([single_image_augment(image, spec) for image in mirrored])
        assert_bitwise_equal(invariance.augment(mirrored, spec), old)

    @pytest.mark.parametrize("out_hw", [(1, 1), (7, 20), (16, 5)])
    def test_resize_bitwise_equal_to_per_image_loop(self, out_hw):
        images = np.random.default_rng(8).uniform(0, 1, size=(3, 9, 13, 3))
        old = np.stack([single_image_resize_bilinear(image, *out_hw) for image in images])
        assert_bitwise_equal(invariance.resize_bilinear(images, *out_hw), old)

    def test_report_augments_each_kind_once(self, monkeypatch):
        """invariance_report calls augment once per kind on the whole
        corpus, and its scores are bitwise those of the per-image loop."""
        config, params = small_model()
        images = sample_images()
        specs = invariance.default_specs()
        calls = []
        batched = invariance.augment

        def counting(batch, spec):
            calls.append(batch.shape)
            return batched(batch, spec)

        monkeypatch.setattr(invariance, "augment", counting)
        report = invariance.invariance_report(config, params, images, specs)
        assert calls == [images.shape] * len(specs)
        monkeypatch.setattr(invariance, "augment", lambda batch, spec: np.stack(
            [single_image_augment(image, spec) for image in batch]))
        assert invariance.invariance_report(config, params, images, specs) == report


class TestAugmentValidation:
    """A batch has the contract of a single image; single-image messages
    are unchanged."""

    SPEC = invariance.AugmentationSpec("brightness", 0.1)

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "image contains NaN or Inf"),
        (np.inf, "image contains NaN or Inf"),
        (-0.5, "image values must lie in [0, 1]"),
        (1.5, "image values must lie in [0, 1]"),
    ])
    @pytest.mark.parametrize("batched", [False, True], ids=["image", "batch"])
    def test_bad_values_rejected(self, bad, message, batched):
        images = sample_images(n=3, h=5, w=4)
        images[1, 2, 3, 0] = bad
        with pytest.raises(DimensionError) as info:
            invariance.augment(images if batched else images[1], self.SPEC)
        assert str(info.value) == message

    @pytest.mark.parametrize("shape,message", [
        ((5, 4, 4), "image must be H x W x 3, got shape (5, 4, 4)"),
        ((5, 4), "image must be H x W x 3, got shape (5, 4)"),
        ((2, 5, 4, 1), "image batch must be N x H x W x 3, got shape (2, 5, 4, 1)"),
        ((1, 2, 5, 4, 3), "image must be H x W x 3, got shape (1, 2, 5, 4, 3)"),
    ])
    def test_bad_shapes_rejected(self, shape, message):
        with pytest.raises(DimensionError) as info:
            invariance.augment(np.full(shape, 0.5), self.SPEC)
        assert str(info.value) == message

    def test_ppm_writer_takes_one_image_only(self, tmp_path):
        with pytest.raises(DimensionError, match=r"image must be H x W x 3, got shape \(2, 4, 4, 3\)"):
            formats.write_image_ppm(np.full((2, 4, 4, 3), 0.5), tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()


class TestCkaLinear:
    def test_self_similarity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 6))
        np.testing.assert_allclose(invariance.cka_linear(x, x), 1.0, rtol=0, atol=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        np.testing.assert_allclose(invariance.cka_linear(x, x @ q), 1.0, rtol=0, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 4))
        np.testing.assert_allclose(invariance.cka_linear(x, 3.7 * x), 1.0, rtol=0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 5))
        np.testing.assert_allclose(invariance.cka_linear(x, y),
                                   invariance.cka_linear(y, x), rtol=0, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(7, 4))
            y = rng.normal(size=(7, 6))
            score = invariance.cka_linear(x, y)
            assert -1e-9 <= score <= 1.0 + 1e-9

    def test_degenerate_rejected(self):
        x = np.ones((5, 3))  # constant columns center to zero
        y = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(DegenerateFeatureError):
            invariance.cka_linear(x, y)

    def test_too_few_rows(self):
        with pytest.raises(DimensionError):
            invariance.cka_linear(np.ones((1, 3)), np.ones((1, 3)))


class TestInvarianceReport:
    def test_identity_augmentation_scores_one(self):
        config, params = small_model()
        report = invariance.invariance_report(
            config, params, sample_images(),
            [invariance.AugmentationSpec("brightness", 0.0)],
        )
        np.testing.assert_allclose(report.entries[0].score, 1.0, rtol=0, atol=1e-12)

    def test_one_row_per_kind_in_request_order(self):
        config, params = small_model()
        specs = [invariance.AugmentationSpec("flip", 0.0),
                 invariance.AugmentationSpec("brightness", 0.3)]
        report = invariance.invariance_report(config, params, sample_images(), specs)
        assert [e.kind for e in report.entries] == ["flip", "brightness"]
        assert [e.magnitude for e in report.entries] == [0.0, 0.3]

    def test_defaults_cover_six_kinds(self):
        config, params = small_model()
        report = invariance.invariance_report(config, params, sample_images())
        assert [e.kind for e in report.entries] == list(invariance.AUGMENTATION_KINDS)
        for entry in report.entries:
            assert -1e-9 <= entry.score <= 1.0 + 1e-9

    def test_deterministic(self):
        config, params = small_model()
        images = sample_images()
        a = invariance.invariance_report(config, params, images, model_id="m", corpus_id="c")
        b = invariance.invariance_report(config, params, images, model_id="m", corpus_id="c")
        assert a == b
        assert a.model_id == "m" and a.corpus_id == "c"

    def test_unknown_mode_rejected(self):
        config, params = small_model()
        with pytest.raises(ConfigError):
            invariance.invariance_report(config, params, sample_images(), mode="stream")

    @pytest.mark.parametrize("shape", [(6, 16, 16), (1, 16, 16, 3), (6, 3, 16, 16)])
    def test_not_a_corpus_of_rgb_images_rejected(self, shape):
        config, params = small_model()
        with pytest.raises(DimensionError, match=r"at least 2 \(H, W, 3\) images"):
            invariance.invariance_report(config, params, np.full(shape, 0.5))

    def test_per_image_mode_rejected(self):
        config, params = small_model()
        with pytest.raises(ConfigError, match="mode must be 'batch'"):
            invariance.invariance_report(config, params, sample_images(), mode="per_image")

    def test_batch_mode_differs_from_corpus_embedding(self):
        """With a batch-norm stem, batch-mode CKA is not the CKA of the
        per-sample features embed_images gives."""
        stem = stems.StemConfig("ics", embed_dim=16, patch_stride=8)
        config = encoder.ViTConfig(depth=1, heads=2, embed_dim=16, stem=stem,
                                   image_size=(16, 16))
        params = encoder.init_params(0, config)
        images = sample_images()
        ids = [str(i) for i in range(len(images))]
        specs = invariance.default_specs()

        def features(batch):
            return pipeline.embed_images(batch, ids, config, params).features

        base = features(images)
        want = [invariance.cka_linear(base, features(invariance.augment(images, spec)))
                for spec in specs]
        batch = invariance.invariance_report(config, params, images, specs, mode="batch")
        assert [e.score for e in batch.entries] != want
