"""Encoder contracts: determinism, permutation behavior, modes, gradients."""

import numpy as np
import pytest

from cfs_curate import encoder, ops, pipeline, stems
from cfs_curate.errors import ConfigError, DimensionError
from conftest import (add_at_edge_pad_backward, assert_stacked_call_equals_separate_calls,
                      batch_of_one_loop, einsum_conv2d, long_form_normalize_backward,
                      long_form_normalize_cached)

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
            out = encoder.encoder_forward(imgs, cfg, encoder.init_params(1, cfg))
            assert out.shape == (2, 8)

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
        """With a BN stem, a record's per-sample feature does not depend on
        what it is batched with; its whole-batch feature does."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = ics_cfg()
        params = encoder.init_params(5, cfg)
        a = rng.uniform(0, 1, (1, 3, 8, 8))
        b = rng.uniform(0, 1, (1, 3, 8, 8))
        c = rng.uniform(0, 1, (1, 3, 8, 8))
        ab, ac = (encoder.encoder_forward(np.concatenate([a, x]), cfg, params, per_sample=True)
                  for x in (b, c))
        np.testing.assert_array_equal(ab[0], ac[0])
        ab_batch, ac_batch = (encoder.encoder_forward(np.concatenate([a, x]), cfg, params)
                              for x in (b, c))
        assert not np.array_equal(ab_batch[0], ac_batch[0])

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
        """embed_images labels rows with the ids as strings, in input order,
        and refuses an id count that does not match the images."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = patchify_cfg()
        params = encoder.init_params(5, cfg)
        imgs = rng.uniform(0, 1, (2, 8, 8, 3))
        out = pipeline.embed_images(imgs, [7, 3], cfg, params)
        assert out.ids == ["7", "3"]
        with pytest.raises(DimensionError):
            pipeline.embed_images(imgs, ["only-one"], cfg, params)


def stride16_cfg(variant, size=(32, 32)):
    stem = stems.StemConfig(variant, embed_dim=32, patch_stride=16)
    return encoder.ViTConfig(depth=2, heads=2, embed_dim=32, stem=stem, image_size=size)


def nhwc(images):
    """(N, 3, H, W) encoder input as the (N, H, W, 3) corpus embed_images takes."""
    return np.ascontiguousarray(images.transpose(0, 2, 3, 1))


class TestPerImageMode:
    """embed_images runs chunked batched forwards with per-sample
    statistics; each feature must be bitwise what encoding the image alone
    gives."""

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
        ids = [str(i) for i in perm]
        for budget in (1, 3 * imgs[0].nbytes, 2**40):
            monkeypatch.setattr(pipeline, "CHUNK_BYTES", budget)
            got = pipeline.embed_images(nhwc(imgs)[perm], ids, cfg, params).features
            np.testing.assert_array_equal(got, alone[perm])

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_noncontiguous_view_equals_contiguous_copy(self, variant):
        """A strided, flipped or transposed (N, H, W, 3) view is encoded
        without a copy, into bitwise the features of its contiguous copy."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant)
        params = encoder.init_params(3, cfg)
        corpus = rng.uniform(0, 1, (10, 32, 32, 3))
        views = [corpus[::2], corpus[:5, ::-1], corpus[5:].transpose(0, 2, 1, 3),
                 rng.uniform(0, 1, (5, 3, 32, 32)).transpose(0, 2, 3, 1)]
        ids = [str(i) for i in range(5)]
        for view in views:
            assert not view.flags.c_contiguous
            got = pipeline.embed_images(view, ids, cfg, params).features
            want = pipeline.embed_images(np.ascontiguousarray(view), ids, cfg, params).features
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_matches_einsum_loop(self, monkeypatch, variant):
        """Against the former loop (batch-of-one forwards through the
        einsum convolution) features move by rounding only."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant)
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (6, 3, 32, 32))
        got = pipeline.embed_images(nhwc(imgs), list("abcdef"), cfg, params).features
        monkeypatch.setattr(ops, "conv2d", einsum_conv2d)
        np.testing.assert_allclose(got, batch_of_one_loop(imgs, cfg, params),
                                   rtol=0, atol=1e-12)

    def test_empty_batch(self):
        cfg = stride16_cfg("conv")
        out = pipeline.embed_images(np.zeros((0, 32, 32, 3)), [], cfg,
                                    encoder.init_params(3, cfg))
        assert out.ids == [] and out.features.shape == (0, 32)

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_refuses_per_sample_norm_of_1x1_map(self, variant):
        """At 16x16 and stride 16 the last ladder map is 1x1; normalizing it
        per sample outputs beta, so every image would get one feature."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant, (16, 16))
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (4, 3, 16, 16))
        with pytest.raises(ConfigError):
            pipeline.embed_images(nhwc(imgs), list("abcd"), cfg, params)
        batch = encoder.encoder_forward(imgs, cfg, params)
        assert len(np.unique(batch, axis=0)) == 4

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_refuses_batch_of_one_norm_of_1x1_map(self, variant):
        """Batch norm over one image's 1x1 map also outputs beta: encoding
        16x16 images one at a time with whole-batch statistics gave them
        one feature."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stride16_cfg(variant, (16, 16))
        params = encoder.init_params(3, cfg)
        imgs = rng.uniform(0, 1, (3, 3, 16, 16))
        for i in range(3):
            with pytest.raises(ConfigError):
                encoder.encoder_forward(imgs[i:i + 1], cfg, params)


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

    @pytest.mark.parametrize("cfg", [
        encoder.ViTConfig(depth=1, heads=1, embed_dim=1, image_size=(8, 8),
                          stem=stems.StemConfig("patchify", embed_dim=1, patch_stride=4)),
        *(encoder.ViTConfig(depth=1, heads=2, embed_dim=16, image_size=(32, 32),
                            stem=stems.StemConfig(variant, embed_dim=16, patch_stride=16))
          for variant in stems.VARIANTS),
    ], ids=["width1", *stems.VARIANTS])
    def test_gradients_keep_parameter_shapes(self, cfg):
        """Width 1 makes every layer norm one feature wide; the (2, 4, 8,
        16) ladder gives the ics stem one-channel normalization groups."""
        rng = np.random.default_rng(RNG_SEED)
        params = encoder.init_params(11, cfg)
        imgs = rng.uniform(0.05, 0.95, (2, 3, *cfg.image_size))
        _, cache = encoder.encoder_forward_cached(imgs, cfg, params)
        pair = encoder.encoder_backward(rng.normal(size=(2, cfg.embed_dim)), cache, params)
        assert pair.input_grad.shape == imgs.shape
        assert sorted(pair.param_grads) == sorted(params)
        for key, value in params.items():
            assert pair.param_grads[key].shape == value.shape, key


class TestLongFormOracle:
    """encoder_backward against the same pass run with the helpers it
    replaced monkeypatched in: the long-form normalization
    (conftest.long_form_normalize_*) and the np.add.at edge-pad backward.
    Features are bitwise equal, and every gradient is within 1e-14 of the
    call's largest gradient. The ladder conv biases move most relative to
    themselves: their true gradient is exactly 0, since batch norm
    removes a per-channel constant. The largest shift (7.8e-15) is at
    32x16, stride 16, per sample, where the last ladder layer normalizes
    a two-pixel map and its input gradient nearly cancels."""

    @pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
    @pytest.mark.parametrize("size,stride,dim", [
        ((8, 8), 4, 8), ((16, 16), 8, 16), ((32, 16), 16, 32), ((16, 24), 4, 16),
    ], ids=["8x8-p4-d8", "16x16-p8-d16", "32x16-p16-d32", "16x24-p4-d16"])
    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_gradients_match(self, monkeypatch, variant, size, stride, dim, per_sample):
        rng = np.random.default_rng(RNG_SEED)
        cfg = encoder.ViTConfig(depth=2, heads=2, embed_dim=dim, image_size=size,
                                stem=stems.StemConfig(variant, embed_dim=dim,
                                                      patch_stride=stride))
        params = encoder.init_params(11, cfg)
        imgs = rng.uniform(0, 1, (3, 3, *size))
        w = rng.normal(size=(3, dim))

        def run():
            features, cache = encoder.encoder_forward_cached(imgs, cfg, params, per_sample)
            return features, encoder.encoder_backward(w, cache, params)

        features, pair = run()
        with monkeypatch.context() as patch:
            patch.setattr(ops, "normalize_cached", long_form_normalize_cached)
            patch.setattr(ops, "normalize_backward", long_form_normalize_backward)
            patch.setattr(stems, "_edge_pad_backward", add_at_edge_pad_backward)
            old_features, old_pair = run()
        assert features.tobytes() == old_features.tobytes()
        old = dict(old_pair.param_grads, images=old_pair.input_grad)
        new = dict(pair.param_grads, images=pair.input_grad)
        assert sorted(new) == sorted(old)
        largest = max(np.abs(g).max() for g in old.values())
        for key, value in new.items():
            assert value.shape == old[key].shape, key
            assert np.abs(value - old[key]).max() <= 1e-14 * largest, key


class TestLeadingAxes:
    """forward_from_tokens on (P, B, T, D) tokens, with one parameter
    stacked on P (ops.per_probe) or P distinct token sets: features bitwise
    those of the P separate (B, T, D) calls."""

    @pytest.mark.parametrize("name", ["tokens", *sorted(
        k for k in encoder.init_params(0, patchify_cfg()) if not k.startswith("stem."))])
    def test_forward_from_tokens_equals_separate_calls(self, name):
        cfg = patchify_cfg()
        rng = np.random.default_rng(RNG_SEED)
        params = encoder.init_params(5, cfg)
        tokens = rng.normal(size=(2, cfg.tokens, cfg.embed_dim))

        def call(tokens, value):
            p = params if name == "tokens" else {**params, name: value}
            return encoder.forward_from_tokens(tokens, cfg, p)[0]

        assert_stacked_call_equals_separate_calls(rng, call, tokens, params.get(name))
