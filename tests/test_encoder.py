"""Encoder contracts: determinism, permutation behavior, modes, gradients."""

import numpy as np
import pytest

from cfs_curate import encoder, ops, stems
from cfs_curate.errors import ConfigError, DimensionError
from conftest import batch_of_one_loop, einsum_conv2d

RNG_SEED = 42


def patchify_cfg(depth=2):
    stem = stems.StemConfig("patchify", embed_dim=8, patch_stride=4)
    return encoder.ViTConfig(depth=depth, heads=2, embed_dim=8, stem=stem,
                             image_size=(8, 8))


def ics_cfg():
    stem = stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                            channel_ladder=(4, 8), in_layers=1)
    return encoder.ViTConfig(depth=1, heads=2, embed_dim=8, stem=stem,
                             image_size=(8, 8))


class TestViTConfig:
    def test_heads_must_divide_dim(self):
        stem = stems.StemConfig("patchify", embed_dim=8, patch_stride=4)
        with pytest.raises(ConfigError):
            encoder.ViTConfig(depth=1, heads=3, embed_dim=8, stem=stem,
                              image_size=(8, 8))

    def test_stem_dim_must_match(self):
        stem = stems.StemConfig("patchify", embed_dim=4, patch_stride=4)
        with pytest.raises(ConfigError):
            encoder.ViTConfig(depth=1, heads=2, embed_dim=8, stem=stem,
                              image_size=(8, 8))

    def test_image_size_must_divide(self):
        stem = stems.StemConfig("patchify", embed_dim=8, patch_stride=4)
        with pytest.raises(ConfigError):
            encoder.ViTConfig(depth=1, heads=2, embed_dim=8, stem=stem,
                              image_size=(10, 8))

    def test_token_count(self):
        cfg = patchify_cfg()
        assert cfg.tokens == 4
        assert cfg.mlp_hidden == 32


class TestInitParams:
    def test_same_seed_bit_identical(self):
        cfg = patchify_cfg()
        a = encoder.init_params(5, cfg)
        b = encoder.init_params(5, cfg)
        assert sorted(a) == sorted(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_different_seeds_differ(self):
        cfg = patchify_cfg()
        a = encoder.init_params(5, cfg)
        b = encoder.init_params(6, cfg)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_positional_embedding_rows(self):
        """Positional table has one row per patch plus one for the class token."""
        stem = stems.StemConfig("patchify", embed_dim=8, patch_stride=4)
        cfg = encoder.ViTConfig(depth=1, heads=2, embed_dim=8, stem=stem,
                                image_size=(8, 12))
        params = encoder.init_params(0, cfg)
        assert params["pos_embed"].shape == ((8 // 4) * (12 // 4) + 1, 8)


class TestEncodeBatch:
    def test_deterministic(self):
        rng = np.random.default_rng(RNG_SEED)
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        imgs = rng.uniform(0, 1, (3, 3, 8, 8))
        a = encoder.encoder_forward(imgs, cfg, params)
        b = encoder.encoder_forward(imgs, cfg, params)
        np.testing.assert_array_equal(a, b)

    def test_feature_dim_for_every_stem(self):
        rng = np.random.default_rng(RNG_SEED)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        for variant in stems.VARIANTS:
            stem = stems.StemConfig(variant, embed_dim=8, patch_stride=4,
                                    channel_ladder=() if variant == "patchify" else (4, 8))
            cfg = encoder.ViTConfig(depth=1, heads=2, embed_dim=8, stem=stem,
                                    image_size=(8, 8))
            out = encoder.encode_batch(imgs, cfg, encoder.init_params(1, cfg))
            assert out.features.shape == (2, 8)

    def test_batch_permutation_permutes_features(self):
        """No cross-image coupling outside batch norm: permuting the batch
        permutes the features bit-for-bit (patchify stem has no BN)."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        imgs = rng.uniform(0, 1, (5, 3, 8, 8))
        perm = np.array([3, 0, 4, 1, 2])
        a = encoder.encoder_forward(imgs, cfg, params)
        b = encoder.encoder_forward(imgs[perm], cfg, params)
        np.testing.assert_array_equal(a[perm], b)

    def test_per_image_mode_isolates_batch_norm(self):
        """With a BN stem, a record's per_image feature does not depend on
        what it is batched with; its batch-mode feature does."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = ics_cfg()
        params = encoder.init_params(5, cfg)
        a = rng.uniform(0, 1, (1, 3, 8, 8))
        b = rng.uniform(0, 1, (1, 3, 8, 8))
        c = rng.uniform(0, 1, (1, 3, 8, 8))
        ab = encoder.encode_batch(np.concatenate([a, b]), cfg, params, mode="per_image")
        ac = encoder.encode_batch(np.concatenate([a, c]), cfg, params, mode="per_image")
        np.testing.assert_array_equal(ab.features[0], ac.features[0])
        ab_batch = encoder.encode_batch(np.concatenate([a, b]), cfg, params, mode="batch")
        ac_batch = encoder.encode_batch(np.concatenate([a, c]), cfg, params, mode="batch")
        assert not np.array_equal(ab_batch.features[0], ac_batch.features[0])

    def test_zero_image_finite_feature(self):
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        out = encoder.encoder_forward(np.zeros((1, 3, 8, 8)), cfg, params)
        assert np.isfinite(out).all()

    def test_size_mismatch_rejected(self):
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        with pytest.raises(DimensionError):
            encoder.encoder_forward(np.zeros((1, 3, 12, 12)), cfg, params)

    def test_ids_default_and_mismatch(self):
        rng = np.random.default_rng(RNG_SEED)
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        out = encoder.encode_batch(imgs, cfg, params)
        assert out.ids == ["0", "1"]
        with pytest.raises(DimensionError):
            encoder.encode_batch(imgs, cfg, params, ids=["only-one"])

    def test_unknown_mode_rejected(self):
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        with pytest.raises(ConfigError):
            encoder.encode_batch(np.zeros((1, 3, 8, 8)), cfg, params, mode="stream")


def stride16_cfg(variant, size=(32, 32)):
    stem = stems.StemConfig(variant, embed_dim=32, patch_stride=16)
    return encoder.ViTConfig(depth=2, heads=2, embed_dim=32, stem=stem, image_size=size)


class TestPerImageMode:
    """per_image runs chunked batched forwards with per-sample statistics;
    each feature must be bitwise what encoding the image alone gives."""

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    @pytest.mark.parametrize("size", [(32, 32), (64, 32)])
    def test_equals_batch_of_one_bitwise(self, monkeypatch, variant, size):
        """Whatever the neighbours and the chunking: one image per chunk,
        three per chunk (3 + 3 + a remainder of 2), or all in one."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant, size)
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (8, 3) + size)
        alone = batch_of_one_loop(imgs, cfg, params)
        perm = np.array([6, 2, 0, 5, 7, 1, 4, 3])
        for budget in (1, 3 * imgs[0].nbytes, 2**40):
            monkeypatch.setattr(encoder, "CHUNK_BYTES", budget)
            got = encoder.encode_batch(imgs[perm], cfg, params, mode="per_image").features
            np.testing.assert_array_equal(got, alone[perm])

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_matches_einsum_loop(self, monkeypatch, variant):
        """Against the former loop (batch-of-one forwards through the
        einsum convolution) features move by rounding only."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant)
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (6, 3, 32, 32))
        got = encoder.encode_batch(imgs, cfg, params, mode="per_image").features
        monkeypatch.setattr(ops, "conv2d", einsum_conv2d)
        np.testing.assert_allclose(got, batch_of_one_loop(imgs, cfg, params),
                                   rtol=0, atol=1e-12)

    def test_empty_batch(self):
        cfg = stride16_cfg("conv")
        out = encoder.encode_batch(np.zeros((0, 3, 32, 32)), cfg,
                                   encoder.init_params(3, cfg), mode="per_image")
        assert out.features.shape == (0, 32)

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_refuses_per_sample_norm_of_1x1_map(self, variant):
        """At 16x16 and stride 16 the last ladder map is 1x1; normalizing it
        per sample outputs beta, so every image would get one feature."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant, (16, 16))
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (4, 3, 16, 16))
        with pytest.raises(ConfigError):
            encoder.encode_batch(imgs, cfg, params, mode="per_image")
        batch = encoder.encode_batch(imgs, cfg, params, mode="batch").features
        assert len(np.unique(batch, axis=0)) == 4

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_refuses_batch_of_one_norm_of_1x1_map(self, variant):
        """Batch norm over one image's 1x1 map also outputs beta: encoding
        16x16 images one at a time in batch mode gave them one feature."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant, (16, 16))
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (3, 3, 16, 16))
        for i in range(3):
            with pytest.raises(ConfigError):
                encoder.encode_batch(imgs[i:i + 1], cfg, params, mode="batch")


class TestPermutationEquivariance:
    def test_patch_shuffle_with_positional_shuffle_is_invariant(self):
        """Attention has no positional notion of its own: permuting patches
        together with their positional embeddings leaves the class-token
        feature unchanged."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        img = rng.uniform(0, 1, (1, 3, 8, 8))
        p = 4
        perm = np.array([2, 0, 3, 1])

        grid = img.reshape(1, 3, 2, p, 2, p).transpose(0, 2, 4, 1, 3, 5)
        patches = grid.reshape(1, 4, 3, p, p)[:, perm]
        shuffled = patches.reshape(1, 2, 2, 3, p, p).transpose(0, 3, 1, 4, 2, 5)
        shuffled = shuffled.reshape(1, 3, 8, 8)

        moved = dict(params)
        pos = params["pos_embed"].copy()
        pos[1:] = pos[1:][perm]
        moved["pos_embed"] = pos

        a = encoder.encoder_forward(img, cfg, params)
        b = encoder.encoder_forward(shuffled, cfg, moved)
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestGradients:
    @pytest.mark.parametrize("make_cfg", [patchify_cfg, ics_cfg])
    def test_full_input_gradient_small_scale(self, make_cfg):
        rng = np.random.default_rng(RNG_SEED)
        cfg = make_cfg() if make_cfg is ics_cfg else make_cfg(1)
        params = encoder.init_params(11, cfg)
        imgs = rng.uniform(0.05, 0.95, (2, 3, 8, 8))
        w = rng.normal(size=(2, 8))

        def loss(x):
            return float(np.sum(encoder.encoder_forward(x, cfg, params) * w))

        _, cache = encoder.encoder_forward_cached(imgs, cfg, params)
        pair = encoder.encoder_backward(w, cache, params)
        fd = ops.fd_gradient(loss, imgs)
        assert ops.max_relative_error(pair.input_grad, fd) < 1e-4

    def test_all_parameter_gradients_sampled(self):
        rng = np.random.default_rng(RNG_SEED)
        cfg = ics_cfg()
        params = encoder.init_params(11, cfg)
        imgs = rng.uniform(0.05, 0.95, (2, 3, 8, 8))
        w = rng.normal(size=(2, 8))

        def loss():
            return float(np.sum(encoder.encoder_forward(imgs, cfg, params) * w))

        _, cache = encoder.encoder_forward_cached(imgs, cfg, params)
        pair = encoder.encoder_backward(w, cache, params)
        assert sorted(pair.param_grads) == sorted(params)
        h = 1e-4
        for key, grad in pair.param_grads.items():
            flat = params[key].reshape(-1)
            picks = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for j in picks:
                orig = flat[j]
                flat[j] = orig + h
                up = loss()
                flat[j] = orig - h
                down = loss()
                flat[j] = orig
                numeric = (up - down) / (2 * h)
                analytic = grad.reshape(-1)[j]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                assert abs(numeric - analytic) / denom < 1e-4, (key, j)
