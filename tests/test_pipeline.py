"""End-to-end scoring pipelines: proxies, alignment, per-image embedding."""

import numpy as np
import pytest

from cfs_curate import cfs, encoder, ops, pipeline, selection, synth
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import ConfigError, DimensionError
from cfs_curate.invariance import DEFAULT_MAGNITUDES, AugmentationSpec, augment
from conftest import assert_bitwise_equal, batch_of_one_loop, einsum_conv2d


def small_corpus(seed=0, n=6):
    return synth.synth_corpus(seed, n, 16, 16, extreme_fraction=0.0)


def small_config(variant="patchify"):
    return pipeline.default_vit_config(variant, (16, 16), embed_dim=16, depth=1,
                                       patch_stride=8)


class TestEmbedImages:
    def test_matches_sequential_encoding(self):
        corpus = small_corpus()
        config = small_config("ics")
        params = encoder.init_params(0, config)
        embedded = pipeline.embed_images(corpus.source_images, corpus.source_ids,
                                         config, params)
        batch = np.ascontiguousarray(corpus.source_images.transpose(0, 3, 1, 2))
        assert embedded.ids == corpus.source_ids
        np.testing.assert_array_equal(embedded.features,
                                      batch_of_one_loop(batch, config, params))

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_single_pixel_ladder_map_refused(self, variant):
        """16x16 images at stride 16 leave a 1x1 map for per-image batch
        norm, which used to give every record the same embedding."""
        corpus = small_corpus()
        config = pipeline.default_vit_config(variant, (16, 16))
        params = encoder.init_params(0, config)
        with pytest.raises(ConfigError):
            pipeline.embed_images(corpus.source_images, corpus.source_ids, config, params)

    @pytest.mark.parametrize("variant", ["patchify", "conv", "ics"])
    def test_score_ranking_unchanged_from_einsum_loop(self, monkeypatch, variant):
        """Two proxy seeds over one corpus, as CLI embed -> score runs it:
        the ranking equals that of the former batch-of-one einsum loop."""
        images = synth.synth_corpus(5, 24, 32, 32, extreme_fraction=0.0).source_images
        ids = [f"r{i}" for i in range(len(images))]
        config = pipeline.default_vit_config(variant, (32, 32))
        by_seed = [encoder.init_params(seed, config) for seed in (0, 1)]
        new = cfs.score_corpus(*(pipeline.embed_images(images, ids, config, p)
                                 for p in by_seed))
        monkeypatch.setattr(ops, "conv2d", einsum_conv2d)
        batch = np.ascontiguousarray(images.transpose(0, 3, 1, 2))
        old = cfs.score_corpus(*(EmbeddingSet(ids, batch_of_one_loop(batch, config, p))
                                 for p in by_seed))
        assert new.ids == old.ids
        np.testing.assert_allclose(new.scores, old.scores, rtol=0, atol=1e-12)

    def test_id_count_mismatch(self):
        corpus = small_corpus()
        config = small_config()
        params = encoder.init_params(0, config)
        with pytest.raises(DimensionError):
            pipeline.embed_images(corpus.source_images, ["only-one"], config, params)

    @pytest.mark.parametrize("shape", [(6, 16, 16), (6, 3, 16, 16), (6, 16, 16, 4)])
    def test_not_nhwc_rejected(self, shape):
        config = small_config()
        params = encoder.init_params(0, config)
        with pytest.raises(DimensionError, match=r"expected \(N, H, W, 3\) images"):
            pipeline.embed_images(np.zeros(shape), [str(i) for i in range(6)], config, params)


class TestPaletteAlignment:
    def test_palette_mean_value(self):
        images = np.zeros((2, 4, 4, 3))
        images[..., 0] = 0.25
        images[..., 2] = 1.0
        np.testing.assert_allclose(pipeline.palette_mean(images), [0.25, 0.0, 1.0],
                                   rtol=0, atol=0)

    def test_alignment_hits_palette_exactly(self):
        rng = np.random.default_rng(1)
        images = rng.uniform(size=(5, 8, 8, 3))
        palette = np.array([0.2, 0.5, 0.8])
        aligned = pipeline.align_channel_means(images, palette)
        np.testing.assert_allclose(aligned.mean(axis=(1, 2)),
                                   np.tile(palette, (5, 1)), rtol=0, atol=1e-12)

    def test_alignment_not_clamped(self):
        images = np.full((1, 4, 4, 3), 0.9)
        aligned = pipeline.align_channel_means(images, np.array([1.5, 0.5, 0.5]))
        assert aligned[..., 0].max() > 1.0

    def test_in_palette_images_are_fixed_points(self):
        rng = np.random.default_rng(2)
        images = rng.uniform(size=(3, 8, 8, 3))
        palette = images[0].mean(axis=(0, 1))
        aligned = pipeline.align_channel_means(images[:1], palette)
        np.testing.assert_allclose(aligned, images[:1], rtol=0, atol=1e-12)

    def test_bad_palette_shape(self):
        with pytest.raises(DimensionError):
            pipeline.align_channel_means(np.zeros((1, 4, 4, 3)), np.zeros(4))


class TestLayoutIndependence:
    """Reductions over several image axes once summed in memory order, so
    a W-major or F-order copy of a batch gave results a few ulps away
    from the C-order batch (up to 1.2e-15 per image mean)."""

    @staticmethod
    def reductions(corpus):
        palette = pipeline.palette_mean(corpus.target_images)
        contrast = AugmentationSpec("contrast", DEFAULT_MAGNITUDES["contrast"])
        return {
            "palette_mean": pipeline.palette_mean,
            "align_channel_means": lambda c: pipeline.align_channel_means(c, palette),
            "augment_contrast": lambda c: augment(c, contrast),
        }

    @pytest.mark.parametrize("layout", ["w_major", "fortran"])
    @pytest.mark.parametrize("name", ["palette_mean", "align_channel_means",
                                      "augment_contrast"])
    def test_bitwise_equal_across_layouts(self, name, layout):
        corpus = synth.synth_corpus(5, 64, 32, 32)
        c = corpus.source_images
        assert c.flags.c_contiguous
        if layout == "w_major":
            other = np.ascontiguousarray(c.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        else:
            other = np.asfortranarray(c)
        assert not other.flags.c_contiguous
        reduce = self.reductions(corpus)[name]
        assert_bitwise_equal(reduce(other), reduce(c))


class TestProxyPair:
    """The source proxy and its synthesized target counterpart, as both
    synthetic-corpus pipelines build them."""

    def test_deterministic(self):
        corpus = small_corpus()
        a = pipeline._embed_under_both(corpus, 0)
        b = pipeline._embed_under_both(corpus, 0)
        assert a[0] == b[0]
        for key in a[1]:
            np.testing.assert_array_equal(a[1][key], b[1][key])
        for x, y in zip(a[2:], b[2:]):
            assert x.ids == y.ids
            np.testing.assert_array_equal(x.features, y.features)

    def test_embed_source_under_both(self):
        """The source view is the corpus as encoded; the target view is
        the corpus aligned to the target palette, then encoded."""
        corpus = small_corpus()
        config, params, by_s, by_t = pipeline._embed_under_both(corpus, 0)
        assert config.stem.variant == "patchify"
        assert by_s.ids == by_t.ids == corpus.source_ids
        assert by_s.features.shape == by_t.features.shape == (6, 32)
        assert not np.array_equal(by_s.features, by_t.features)
        aligned = pipeline.align_channel_means(
            corpus.source_images, pipeline.palette_mean(corpus.target_images))
        for view, images in ((by_s, corpus.source_images), (by_t, aligned)):
            np.testing.assert_array_equal(
                view.features, pipeline.embed_images(images, corpus.source_ids,
                                                     config, params).features)


class TestEndToEnd:
    def test_score_synth_corpus(self):
        corpus = small_corpus()
        table = pipeline.score_synth_corpus(corpus, proxy_seed=0)
        assert sorted(table.ids) == corpus.source_ids
        assert np.all(np.isfinite(table.scores))

    def test_scoring_deterministic(self):
        corpus = small_corpus()
        a = pipeline.score_synth_corpus(corpus, proxy_seed=0)
        b = pipeline.score_synth_corpus(corpus, proxy_seed=0)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_compare_on_synth_corpus(self):
        corpus = synth.synth_corpus(3, 12, 16, 16, synth.ShiftSpec(0.1, 0.3, 0.02),
                                    extreme_fraction=0.0)
        configs = [selection.SelectionConfig("random", 0.5, seed=1),
                   selection.SelectionConfig("cfs", 0.5)]
        reports = pipeline.compare_on_synth_corpus(corpus, configs, proxy_seed=0)
        by_strategy = {r.strategy: r for r in reports}
        assert by_strategy["cfs"].mean_cfs >= by_strategy["random"].mean_cfs
        assert all(len(r.selected_ids) == 6 for r in reports)
