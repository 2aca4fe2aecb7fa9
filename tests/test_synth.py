"""Seeded two-domain corpus generator."""

import numpy as np
import pytest

from cfs_curate import synth
from cfs_curate.errors import RangeError

from conftest import assert_bitwise_equal, stacked_synth_corpus


class TestHueRotation:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(synth.hue_rotation_matrix(0.0), np.eye(3),
                                   rtol=0, atol=1e-15)

    def test_orthogonal(self):
        m = synth.hue_rotation_matrix(0.7)
        np.testing.assert_allclose(m @ m.T, np.eye(3), rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(m), 1.0, rtol=1e-12)

    def test_gray_axis_fixed(self):
        gray = np.ones(3) / np.sqrt(3.0)
        m = synth.hue_rotation_matrix(1.3)
        np.testing.assert_allclose(m @ gray, gray, rtol=0, atol=1e-12)

    def test_composition(self):
        a, b = 0.4, 0.9
        np.testing.assert_allclose(
            synth.hue_rotation_matrix(a) @ synth.hue_rotation_matrix(b),
            synth.hue_rotation_matrix(a + b), rtol=0, atol=1e-12,
        )


class TestShiftSpec:
    def test_negative_sigma_rejected(self):
        with pytest.raises(RangeError):
            synth.ShiftSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["brightness_offset", "hue_rotation", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(RangeError, match=f"{field} must be finite"):
            synth.ShiftSpec(**{field: value})

    def test_defaults_are_zero(self):
        spec = synth.ShiftSpec()
        assert (spec.brightness_offset, spec.hue_rotation, spec.noise_sigma) == (0, 0, 0)


class TestSynthCorpus:
    def test_same_seed_bit_identical(self):
        a = synth.synth_corpus(3, 10, 16, 16, synth.ShiftSpec(0.1, 0.2, 0.05))
        b = synth.synth_corpus(3, 10, 16, 16, synth.ShiftSpec(0.1, 0.2, 0.05))
        np.testing.assert_array_equal(a.source_images, b.source_images)
        np.testing.assert_array_equal(a.target_images, b.target_images)
        assert a.source_ids == b.source_ids and a.extreme_ids == b.extreme_ids

    def test_different_seeds_differ(self):
        a = synth.synth_corpus(3, 4, 16, 16)
        b = synth.synth_corpus(4, 4, 16, 16)
        assert not np.array_equal(a.source_images, b.source_images)

    def test_shapes_and_range(self):
        corpus = synth.synth_corpus(0, 5, 12, 20)
        assert corpus.source_images.shape == (5, 12, 20, 3)
        assert corpus.target_images.shape == (5, 12, 20, 3)
        for batch in (corpus.source_images, corpus.target_images):
            assert batch.min() >= 0.0 and batch.max() <= 1.0

    def test_ids(self):
        corpus = synth.synth_corpus(0, 3, 8, 8)
        assert corpus.source_ids == ["src-0000", "src-0001", "src-0002"]
        assert corpus.target_ids == ["tgt-0000", "tgt-0001", "tgt-0002"]

    def test_zero_images(self):
        corpus = synth.synth_corpus(0, 0, 8, 8)
        assert corpus.source_images.shape == (0, 8, 8, 3)
        assert corpus.source_ids == [] and corpus.extreme_ids == []

    def test_extreme_tail_is_last_by_index(self):
        corpus = synth.synth_corpus(1, 20, 8, 8, extreme_fraction=0.25)
        assert corpus.extreme_ids == [f"src-{i:04d}" for i in range(15, 20)]

    def test_extreme_fraction_zero(self):
        corpus = synth.synth_corpus(1, 10, 8, 8, extreme_fraction=0.0)
        assert corpus.extreme_ids == []

    def test_extreme_images_shifted_from_distribution(self):
        spec = synth.ShiftSpec()
        corpus = synth.synth_corpus(2, 40, 16, 16, spec, extreme_fraction=0.25)
        normal = corpus.source_images[:30]
        extreme = corpus.source_images[30:]
        # extreme brightness/hue/noise pushes per-image means away from the
        # bulk; deterministic seed, qualitative margin
        gap = np.abs(extreme.mean(axis=(1, 2, 3)) - normal.mean())
        assert np.median(gap) > 1.5 * normal.mean(axis=(1, 2, 3)).std()

    def test_zero_shift_same_distribution(self):
        # Monte-Carlo: with no shift, source and target pixel means agree
        # within 3 sigma of the mean-difference statistic
        corpus = synth.synth_corpus(5, 200, 16, 16, synth.ShiftSpec(),
                                    extreme_fraction=0.0)
        src = corpus.source_images.mean(axis=(1, 2, 3))
        tgt = corpus.target_images.mean(axis=(1, 2, 3))
        sigma = np.sqrt(src.var(ddof=1) / 200 + tgt.var(ddof=1) / 200)
        assert abs(src.mean() - tgt.mean()) < 3 * sigma

    def test_brightness_shift_moves_target_mean(self):
        plain = synth.synth_corpus(6, 50, 16, 16, synth.ShiftSpec(), extreme_fraction=0.0)
        shifted = synth.synth_corpus(6, 50, 16, 16, synth.ShiftSpec(brightness_offset=0.2),
                                     extreme_fraction=0.0)
        assert shifted.target_images.mean() > plain.target_images.mean() + 0.05

    def test_value_range_compresses(self):
        corpus = synth.synth_corpus(7, 8, 16, 16, extreme_fraction=0.0,
                                    value_range=(0.2, 0.6))
        assert corpus.source_images.min() >= 0.2 - 1e-12
        assert corpus.source_images.max() <= 0.6 + 1e-12
        assert corpus.target_images.min() >= 0.2 - 1e-12

    def test_value_range_affine_in_default_range(self):
        plain = synth.synth_corpus(8, 4, 8, 8, extreme_fraction=0.0)
        squeezed = synth.synth_corpus(8, 4, 8, 8, extreme_fraction=0.0,
                                      value_range=(0.25, 0.75))
        np.testing.assert_allclose(squeezed.source_images,
                                   0.25 + 0.5 * plain.source_images, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(RangeError):
            synth.synth_corpus(0, -1, 8, 8)
        with pytest.raises(RangeError):
            synth.synth_corpus(0, 4, 2, 8)
        with pytest.raises(RangeError):
            synth.synth_corpus(0, 4, 8, 8, extreme_fraction=1.5)
        with pytest.raises(RangeError):
            synth.synth_corpus(0, 4, 8, 8, value_range=(0.5, 0.5))
        with pytest.raises(RangeError):
            synth.synth_corpus(0, 4, 8, 8, value_range=(-0.1, 0.5))


class TestStackedOracle:
    """synth_corpus against the list-and-stack code it replaced
    (conftest.stacked_synth_corpus): bitwise-equal images, equal ids."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("n,hw,kwargs", [
        (6, (16, 16), {}),
        (5, (12, 20), {"shift": synth.ShiftSpec(brightness_offset=0.2)}),
        (4, (9, 4), {"shift": synth.ShiftSpec(-0.1, 1.3, 0.05), "extreme_fraction": 1.0}),
        (7, (4, 13), {"extreme_fraction": 0.0, "value_range": (0.2, 0.6)}),
        (3, (32, 8), {"extreme_fraction": 0.5, "value_range": (0.25, 0.75)}),
        (5, (8, 8), {"shift": synth.ShiftSpec(0.0, 0.7, 0.2), "value_range": (0.0, 0.3)}),
        (0, (8, 6), {"value_range": (0.1, 0.9)}),
    ])
    def test_bitwise_equal(self, seed, n, hw, kwargs):
        got = synth.synth_corpus(seed, n, *hw, **kwargs)
        old = stacked_synth_corpus(seed, n, *hw, **kwargs)
        assert_bitwise_equal(got.source_images, old.source_images)
        assert_bitwise_equal(got.target_images, old.target_images)
        assert got.source_ids == old.source_ids and got.target_ids == old.target_ids
        assert got.extreme_ids == old.extreme_ids

    @pytest.mark.parametrize("hw", [(16, 16), (12, 20)])
    def test_batches_are_c_contiguous(self, hw):
        corpus = synth.synth_corpus(0, 4, *hw, extreme_fraction=0.5)
        assert corpus.source_images.flags.c_contiguous
        assert corpus.target_images.flags.c_contiguous
