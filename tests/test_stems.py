"""Stem contracts: shapes, config validation, IN/BN split behavior, gradients."""

import numpy as np
import pytest

from cfs_curate import ops, stems
from cfs_curate.errors import ConfigError, DimensionError

from conftest import (add_at_edge_pad_backward, assert_bitwise_equal,
                      assert_stacked_call_equals_separate_calls, kink_safe_images,
                      np_pad_edge_pad, sliding_window_im2col)

RNG_SEED = 42


def small_config(variant, in_layers=2):
    ladder = () if variant == "patchify" else (4, 8)
    return stems.StemConfig(
        variant, embed_dim=8, patch_stride=4, channel_ladder=ladder, in_layers=in_layers
    )


class TestStemConfig:
    def test_default_ladder_for_384(self):
        assert stems.default_channel_ladder(384, 16) == (48, 96, 192, 384)

    def test_default_ladder_for_toy_dims(self):
        assert stems.default_channel_ladder(32, 16) == (4, 8, 16, 32)
        assert stems.default_channel_ladder(8, 4) == (4, 8)

    def test_non_power_of_two_stride_rejected(self):
        with pytest.raises(ConfigError):
            stems.default_channel_ladder(32, 12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            stems.StemConfig("resnet", embed_dim=8)

    def test_ladder_stride_mismatch_rejected(self):
        # 3 stride-2 layers reduce by 8, not 16
        with pytest.raises(ConfigError):
            stems.StemConfig("conv", embed_dim=8, patch_stride=16, channel_ladder=(2, 4, 8))

    def test_non_increasing_ladder_rejected(self):
        with pytest.raises(ConfigError):
            stems.StemConfig("conv", embed_dim=8, patch_stride=4, channel_ladder=(8, 8))

    def test_in_layers_beyond_depth_rejected(self):
        with pytest.raises(ConfigError):
            stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                             channel_ladder=(4, 8), in_layers=3)

    def test_odd_channels_on_split_layer_rejected(self):
        with pytest.raises(ConfigError):
            stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                             channel_ladder=(3, 8), in_layers=1)

    def test_patchify_ignores_ladder_fields(self):
        cfg = stems.StemConfig("patchify", embed_dim=8, patch_stride=4)
        assert cfg.split_layers == 0

    def test_patchify_with_ladder_rejected(self):
        """A patchify ladder was once stored and silently ignored."""
        with pytest.raises(ConfigError, match="empty ladder"):
            stems.StemConfig("patchify", embed_dim=8, patch_stride=4, channel_ladder=(4, 8))

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_stride_one_leaves_no_ladder_layer(self, variant):
        """The default ladder at patch stride 1 is empty; reading its first
        layer once raised IndexError."""
        with pytest.raises(ConfigError, match="patch stride 1 leaves no stride-2 ladder layer"):
            stems.StemConfig(variant, embed_dim=8, patch_stride=1)

    def test_proj_stride(self):
        assert stems.StemConfig("patchify", embed_dim=8, patch_stride=12).proj_stride == 12
        assert small_config("patchify").proj_stride == 4
        assert small_config("conv").proj_stride == 1
        assert small_config("ics").proj_stride == 1


class TestShapes:
    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_token_shape(self, variant):
        rng = np.random.default_rng(RNG_SEED)
        cfg = small_config(variant)
        params = stems.init_stem_params(1, cfg)
        tokens = stems.stem_forward(rng.uniform(0, 1, (2, 3, 8, 12)), cfg, params)
        assert tokens.shape == (2, (8 // 4) * (12 // 4), 8)

    def test_patchify_wide_image_token_count(self):
        """256x128 at patch stride 16 yields 128 tokens."""
        cfg = stems.StemConfig("patchify", embed_dim=4, patch_stride=16)
        params = stems.init_stem_params(1, cfg)
        tokens = stems.stem_forward(np.zeros((1, 3, 256, 128)), cfg, params)
        assert tokens.shape == (1, 128, 4)

    def test_single_patch_image(self):
        cfg = stems.StemConfig("patchify", embed_dim=4, patch_stride=16)
        params = stems.init_stem_params(1, cfg)
        assert stems.stem_forward(np.zeros((1, 3, 16, 16)), cfg, params).shape == (1, 1, 4)

    def test_conv_ladder_example_shape(self):
        cfg = stems.StemConfig("conv", embed_dim=32, patch_stride=16,
                               channel_ladder=(4, 8, 16, 32))
        params = stems.init_stem_params(1, cfg)
        rng = np.random.default_rng(RNG_SEED)
        tokens = stems.stem_forward(rng.uniform(0, 1, (1, 3, 32, 32)), cfg, params)
        assert tokens.shape == (1, 4, 32)

    def test_indivisible_image_rejected(self):
        cfg = small_config("conv")
        with pytest.raises(DimensionError):
            stems.stem_forward(np.zeros((1, 3, 10, 8)), cfg, stems.init_stem_params(1, cfg))

    def test_wrong_channel_count_rejected(self):
        cfg = small_config("conv")
        with pytest.raises(DimensionError):
            stems.stem_forward(np.zeros((1, 4, 8, 8)), cfg, stems.init_stem_params(1, cfg))


class TestPatchify:
    def test_zero_image_zero_bias_gives_zero_tokens(self):
        cfg = stems.StemConfig("patchify", embed_dim=4, patch_stride=4)
        params = stems.init_stem_params(1, cfg)  # bias starts at zero
        tokens = stems.stem_forward(np.zeros((2, 3, 8, 8)), cfg, params)
        np.testing.assert_array_equal(tokens, 0)

    def test_equals_strided_convolution_rowmajor_flatten(self):
        """Patchify is exactly a stride-p pxp convolution, spatial positions
        flattened row-major."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig("patchify", embed_dim=5, patch_stride=4)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0, 1, (2, 3, 8, 12))
        assert sorted(params) == ["proj_bias", "proj_kernel"]
        assert params["proj_kernel"].shape == (5, 3, 4, 4)
        fmap = ops.conv2d(imgs, params["proj_kernel"], params["proj_bias"], stride=4)
        expect = fmap.reshape(2, 5, 6).transpose(0, 2, 1)
        np.testing.assert_array_equal(stems.stem_forward(imgs, cfg, params), expect)


class TestConvLadder:
    def test_all_zero_params_give_zero_tokens(self):
        cfg = small_config("conv")
        params = {k: np.zeros_like(v) for k, v in stems.init_stem_params(1, cfg).items()}
        tokens = stems.stem_forward(np.ones((1, 3, 8, 8)), cfg, params)
        np.testing.assert_array_equal(tokens, 0)

    def test_conv_and_ics_shapes_match(self):
        rng = np.random.default_rng(RNG_SEED)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        conv = small_config("conv")
        ics = small_config("ics")
        a = stems.stem_forward(imgs, conv, stems.init_stem_params(1, conv))
        b = stems.stem_forward(imgs, ics, stems.init_stem_params(1, ics))
        assert a.shape == b.shape


class TestNormalizationGroups:
    """Each ladder layer normalizes its groups only: one group of all
    channels, or on a split ics layer an instance half and a batch half.
    No group is empty."""

    @staticmethod
    def normalized_groups(monkeypatch, cfg, per_sample):
        calls = []
        normalize_cached = ops.normalize_cached

        def counted(x, mode, gamma, beta, eps):
            calls.append((mode, x.shape[1]))
            return normalize_cached(x, mode, gamma, beta, eps)

        monkeypatch.setattr(ops, "normalize_cached", counted)
        images = np.random.default_rng(RNG_SEED).uniform(0, 1, (2, 3, 32, 32))
        stems.stem_forward_cached(images, cfg, stems.init_stem_params(1, cfg),
                                  per_sample=per_sample)
        return calls

    @pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
    def test_conv_one_call_per_layer(self, monkeypatch, per_sample):
        cfg = stems.StemConfig("conv", embed_dim=32, patch_stride=16)
        mode = "instance" if per_sample else "batch"
        assert self.normalized_groups(monkeypatch, cfg, per_sample) == [
            (mode, 4), (mode, 8), (mode, 16), (mode, 32)]

    @pytest.mark.parametrize("in_layers", [0, 1, 2, 4])
    @pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
    def test_ics_two_calls_on_split_layers_one_after(self, monkeypatch, per_sample, in_layers):
        cfg = stems.StemConfig("ics", embed_dim=32, patch_stride=16, in_layers=in_layers)
        mode = "instance" if per_sample else "batch"
        expected = []
        for i, out_c in enumerate(cfg.channel_ladder):
            if i < in_layers:
                expected += [("instance", out_c // 2), (mode, out_c // 2)]
            else:
                expected.append((mode, out_c))
        assert self.normalized_groups(monkeypatch, cfg, per_sample) == expected


class TestIcsBehavior:
    def test_zero_split_layers_bit_identical_to_conv(self):
        rng = np.random.default_rng(RNG_SEED)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        conv = small_config("conv")
        ics0 = small_config("ics", in_layers=0)
        params = stems.init_stem_params(7, conv)
        a = stems.stem_forward(imgs, conv, params)
        b = stems.stem_forward(imgs, ics0, params)
        np.testing.assert_array_equal(a, b)

    def test_in_half_layer1_statistics(self):
        """With identity affine, the IN half of the first layer's pre-relu
        activations has per-sample per-channel mean 0 and variance 1."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                               channel_ladder=(4, 8), in_layers=1, eps=1e-12)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0, 1, (2, 3, 8, 8))
        conv_out = ops.conv2d(
            stems._edge_pad(imgs, 1), params["conv0_kernel"], params["conv0_bias"],
            stride=2,
        )
        half = 2
        normed = ops.normalize_cached(conv_out[:, :half], "instance",
                                      np.ones(half), np.zeros(half), eps=1e-12)[0]
        assert np.abs(normed.mean(axis=(2, 3))).max() < 1e-8
        assert np.abs(normed.var(axis=(2, 3)) - 1).max() < 1e-8

    def test_brightness_offset_removed_exactly_by_in_half(self):
        """Per-image constant offsets vanish in the layer-1 IN half when the
        first convolution has zero bias; edge-replicate padding keeps the
        offset constant across every output position."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                               channel_ladder=(4, 8), in_layers=1)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0.2, 0.8, (2, 3, 8, 8))
        offsets = np.array([0.15, -0.1])[:, None, None, None]
        half = 2
        kernel = params["conv0_kernel"]

        def in_half(x):
            conv_out = ops.conv2d(stems._edge_pad(x, 1), kernel, np.zeros(4), stride=2)
            return ops.normalize_cached(conv_out[:, :half], "instance",
                                        np.ones(half), np.zeros(half))[0]

        np.testing.assert_allclose(in_half(imgs + offsets), in_half(imgs), atol=1e-8)

    def test_in_half_changes_less_than_bn_half_under_offsets(self):
        """Distinct per-image offsets on a 2-image batch move the BN half but
        not the IN half."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig("ics", embed_dim=8, patch_stride=4,
                               channel_ladder=(4, 8), in_layers=1)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0.2, 0.8, (2, 3, 8, 8))
        offsets = np.array([0.15, -0.1])[:, None, None, None]
        half = 2
        kernel = params["conv0_kernel"]
        gamma, beta = np.ones(4), np.zeros(4)

        def halves(x):
            conv_out = ops.conv2d(stems._edge_pad(x, 1), kernel, np.zeros(4), stride=2)
            in_part = ops.normalize_cached(conv_out[:, :half], "instance",
                                           gamma[:half], beta[:half])[0]
            bn_part = ops.normalize_cached(conv_out[:, half:], "batch",
                                           gamma[half:], beta[half:])[0]
            return in_part, bn_part

        in_a, bn_a = halves(imgs)
        in_b, bn_b = halves(imgs + offsets)
        in_change = np.abs(in_a - in_b).max()
        bn_change = np.abs(bn_a - bn_b).max()
        assert in_change < bn_change
        assert in_change < 1e-8


class TestGradients:
    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_small_scale_full_input_gradient(self, variant):
        rng = np.random.default_rng(RNG_SEED)
        cfg = small_config(variant)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0.05, 0.95, (2, 3, 8, 8))
        w = rng.normal(size=(2, 4, 8))

        def loss(x):
            return float(np.sum(stems.stem_forward(x, cfg, params) * w))

        _, cache = stems.stem_forward_cached(imgs, cfg, params)
        pair = stems.stem_backward(w, cache, params)
        fd = ops.fd_gradient(loss, imgs)
        assert ops.max_relative_error(pair.input_grad, fd) < 1e-4

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_small_scale_parameter_gradients(self, variant):
        rng = np.random.default_rng(RNG_SEED)
        cfg = small_config(variant)
        params = stems.init_stem_params(3, cfg)
        imgs = rng.uniform(0.05, 0.95, (2, 3, 8, 8))
        w = rng.normal(size=(2, 4, 8))

        def loss():
            return float(np.sum(stems.stem_forward(imgs, cfg, params) * w))

        _, cache = stems.stem_forward_cached(imgs, cfg, params)
        pair = stems.stem_backward(w, cache, params)
        h = 1e-4
        for key, grad in pair.param_grads.items():
            flat = params[key].reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
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
                assert abs(numeric - analytic) / denom < 1e-4, (variant, key, j)

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_acceptance_scale_sampled_gradient(self, variant):
        """Sampled-coordinate fd at the 2x3x32x32, D=32 scale; exhaustive
        coverage lives in the small-scale tests above. Inputs are redrawn
        until every pre-relu activation clears the fd step size, since fd
        across the relu kink measures an averaged slope, not the gradient."""
        from conftest import kink_safe_images

        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig(variant, embed_dim=32, patch_stride=16,
                               channel_ladder=(4, 8, 16, 32) if variant != "patchify" else ())
        params = stems.init_stem_params(3, cfg)
        imgs = kink_safe_images(rng, cfg, params, (2, 3, 32, 32))
        w = rng.normal(size=(2, 4, 32))

        def loss(x):
            return float(np.sum(stems.stem_forward(x, cfg, params) * w))

        _, cache = stems.stem_forward_cached(imgs, cfg, params)
        pair = stems.stem_backward(w, cache, params)
        h = 1e-4
        flat = imgs.reshape(-1)
        picks = rng.choice(flat.size, size=64, replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + h
            up = loss(imgs)
            flat[j] = orig - h
            down = loss(imgs)
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            analytic = pair.input_grad.reshape(-1)[j]
            denom = max(abs(numeric), abs(analytic), 1e-6)
            assert abs(numeric - analytic) / denom < 1e-4


class TestOneChannelGroups:
    """At embed_dim 16 and patch stride 16 the ladder is (2, 4, 8, 16), so
    the ics stem's layer 0 splits 1 + 1: each half is a one-channel
    normalization group."""

    @staticmethod
    def config(variant):
        return stems.StemConfig(variant, embed_dim=16, patch_stride=16)

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_gradients_keep_parameter_shapes(self, variant):
        rng = np.random.default_rng(RNG_SEED)
        cfg = self.config(variant)
        if variant != "patchify":
            assert cfg.channel_ladder == (2, 4, 8, 16)
        params = stems.init_stem_params(3, cfg)
        images = rng.uniform(0.05, 0.95, (2, 3, 32, 32))
        tokens, cache = stems.stem_forward_cached(images, cfg, params)
        pair = stems.stem_backward(rng.normal(size=tokens.shape), cache, params)
        assert pair.input_grad.shape == images.shape
        assert sorted(pair.param_grads) == sorted(params)
        for key, value in params.items():
            assert pair.param_grads[key].shape == value.shape, key

    def test_ics_gradients_match_fd(self):
        """Every norm parameter and sampled kernel, bias and input
        coordinates, on kink-safe images: random ones straddle relu kinks,
        where fd measures an averaged slope (0.023 on this draw)."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = self.config("ics")
        params = stems.init_stem_params(3, cfg)
        images = kink_safe_images(rng, cfg, params, (2, 3, 32, 32))
        w = rng.normal(size=(2, 4, 16))
        _, cache = stems.stem_forward_cached(images, cfg, params)
        pair = stems.stem_backward(w, cache, params)

        def loss():
            return float(np.sum(stems.stem_forward(images, cfg, params) * w))

        worst = 0.0
        grads = dict(pair.param_grads, images=pair.input_grad)
        for key, grad in sorted(grads.items()):
            flat = (images if key == "images" else params[key]).reshape(-1)
            picks = np.arange(flat.size) if key.startswith("norm") else rng.choice(
                flat.size, size=min(16, flat.size), replace=False)
            original = flat[picks].copy()

            def loss_at_picks(values):
                flat[picks] = values
                return loss()

            try:
                fd = ops.fd_gradient(loss_at_picks, original)
            finally:
                flat[picks] = original
            worst = max(worst, ops.max_relative_error(grad.reshape(-1)[picks], fd))
        assert worst < 1e-4


class TestBranchedOracle:
    """The one code path against the branched code it replaced
    (conftest.branched_*), which named the patchify projection patch_*."""

    @staticmethod
    def to_branched(variant, params):
        if variant != "patchify":
            return params
        return {k.replace("proj_", "patch_"): v for k, v in params.items()}

    @pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per_sample"])
    @pytest.mark.parametrize("shape,stride,dim", [
        ((3, 3, 32, 32), 16, 32), ((3, 3, 64, 32), 8, 16), ((2, 3, 16, 16), 4, 8),
    ])
    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_bitwise_equal(self, variant, shape, stride, dim, per_sample):
        from conftest import (branched_init_stem_params, branched_stem_backward,
                              branched_stem_forward_cached)

        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig(variant, embed_dim=dim, patch_stride=stride)
        params = stems.init_stem_params(5, cfg)
        old_params = branched_init_stem_params(5, cfg)
        if variant == "patchify":
            assert sorted(old_params) == ["patch_bias", "patch_kernel"]
        assert sorted(self.to_branched(variant, params)) == sorted(old_params)
        for key, value in self.to_branched(variant, params).items():
            assert_bitwise_equal(value, old_params[key])

        images = rng.uniform(0, 1, shape)
        tokens, cache = stems.stem_forward_cached(images, cfg, params, per_sample=per_sample)
        old_tokens, old_cache = branched_stem_forward_cached(
            images, cfg, old_params, per_sample=per_sample)
        assert_bitwise_equal(tokens, old_tokens)
        assert len(cache.layers) == len(old_cache.layers) == len(cfg.channel_ladder)
        for layer, old_layer in zip(cache.layers, old_cache.layers):
            assert_bitwise_equal(layer[5], old_layer[5])

        grad_tokens = rng.normal(size=tokens.shape)
        pair = stems.stem_backward(grad_tokens, cache, params)
        old_pair = branched_stem_backward(grad_tokens, old_cache, old_params)
        assert_bitwise_equal(pair.input_grad, old_pair.input_grad)
        grads = self.to_branched(variant, pair.param_grads)
        assert sorted(grads) == sorted(old_pair.param_grads) == sorted(old_params)
        for key, value in grads.items():
            assert_bitwise_equal(value, old_pair.param_grads[key])


class TestEdgePadOracle:
    """The slice-copy fill against the np.pad edge form it replaced
    (conftest.np_pad_edge_pad)."""

    @pytest.mark.parametrize("pad", [1, 2, 3])
    def test_bitwise_equal(self, pad):
        rng = np.random.default_rng(RNG_SEED)
        base = rng.normal(size=(2, 5, 9, 8))
        inputs = [
            rng.normal(size=(2, 3, 6, 5)),
            rng.normal(size=(3, 2, 1, 1)),  # 1x1 map
            rng.normal(size=(1, 2, 1, 4)),  # one row
            base[:, 1:4],  # channel slice
            base[:, :, ::2, ::-1],  # strided, mirrored view
        ]
        for x in inputs:
            assert_bitwise_equal(stems._edge_pad(x, pad), np_pad_edge_pad(x, pad))

    @pytest.mark.parametrize("pad", [1, 2, 3])
    def test_backward_matches_add_at_scatter(self, pad):
        """The slice folds against the np.add.at scatter they replaced
        (conftest.add_at_edge_pad_backward): equal up to the order of the
        additions, within 2e-15 * max|old|."""
        rng = np.random.default_rng(RNG_SEED)
        base = rng.normal(size=(2, 5, 16 + 2 * pad, 16 + 2 * pad))
        grads = [
            rng.normal(size=(3, 2, 1 + 2 * pad, 1 + 2 * pad)),  # 1x1 map
            rng.normal(size=(2, 3, 1 + 2 * pad, 7 + 2 * pad)),  # one row
            rng.normal(size=(2, 3, 6 + 2 * pad, 1 + 2 * pad)),  # one column
            base,  # 16x16
            base[:, 1:4],  # channel slice
        ]
        for g in grads:
            h, w = g.shape[2] - 2 * pad, g.shape[3] - 2 * pad
            old = add_at_edge_pad_backward(g, pad, h, w)
            new = stems._edge_pad_backward(g.copy(), pad, h, w)
            assert new.shape == old.shape == (*g.shape[:2], h, w)
            assert np.abs(new - old).max() <= 2e-15 * np.abs(old).max()

    @pytest.mark.parametrize("variant", ["conv", "ics"])
    def test_stem_bitwise_equal_with_old_pad_and_im2col(self, monkeypatch, variant):
        """Tokens and every gradient of a ladder stem are bitwise what the
        np.pad edge form and the sliding-window im2col give."""
        rng = np.random.default_rng(RNG_SEED)
        cfg = stems.StemConfig(variant, embed_dim=16, patch_stride=8)
        params = stems.init_stem_params(3, cfg)
        images = rng.uniform(0, 1, (3, 3, 16, 24))
        grad_tokens = rng.normal(size=(3, 6, 16))

        def run():
            tokens, cache = stems.stem_forward_cached(images, cfg, params)
            return tokens, stems.stem_backward(grad_tokens, cache, params)

        tokens, pair = run()
        with monkeypatch.context() as patch:
            patch.setattr(stems, "_edge_pad", np_pad_edge_pad)
            patch.setattr(ops, "_im2col", sliding_window_im2col)
            old_tokens, old_pair = run()
        assert_bitwise_equal(tokens, old_tokens)
        assert_bitwise_equal(pair.input_grad, old_pair.input_grad)
        assert sorted(pair.param_grads) == sorted(old_pair.param_grads)
        for key, value in pair.param_grads.items():
            assert_bitwise_equal(value, old_pair.param_grads[key])


class TestLeadingAxes:
    """ladder_layer and project_tokens on a (P, B, C, H, W) input, with one
    parameter stacked on P (ops.per_probe) or P distinct inputs: bitwise
    the P separate 4-D calls."""

    @pytest.mark.parametrize("name", ["input", "kernel", "bias"])
    @pytest.mark.parametrize("kh,stride", [(3, 2), (1, 1), (4, 4)])
    def test_conv_equals_separate_calls(self, monkeypatch, name, kh, stride):
        """Through 4-D conv2d calls only: one folded call for an unstacked
        kernel and bias, one per copy for a stacked one."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(2, 3, 8, 8))
        params = {"kernel": rng.normal(size=(5, 3, kh, kh)), "bias": rng.normal(size=5)}
        conv2d, shapes = ops.conv2d, []

        def four_d(x, *args, **kwargs):
            shapes.append(x.shape)
            return conv2d(x, *args, **kwargs)

        def call(x, value):
            p = params if name == "input" else {**params, name: value}
            return stems._conv(x, p["kernel"], p["bias"], stride)

        monkeypatch.setattr(ops, "conv2d", four_d)
        assert_stacked_call_equals_separate_calls(rng, call, x, params.get(name))
        stacked, separate = shapes[:-3], shapes[-3:]
        assert separate == [x.shape] * 3
        assert stacked == ([(6, 3, 8, 8)] if name == "input" else [x.shape] * 3)

    @pytest.mark.parametrize("name", ["input", "conv_kernel", "conv_bias", "norm_gamma",
                                      "norm_beta"])
    @pytest.mark.parametrize("variant,layer,per_sample", [
        ("conv", 1, False), ("ics", 0, False), ("ics", 0, True),
    ], ids=["conv-layer1", "ics-split-layer0", "ics-split-layer0-per-sample"])
    def test_ladder_layer_equals_separate_calls(self, variant, layer, per_sample, name):
        cfg = small_config(variant, in_layers=1)
        assert (layer < cfg.split_layers) == (variant == "ics")
        rng = np.random.default_rng(RNG_SEED)
        params = stems.init_stem_params(1, cfg)
        x = rng.uniform(0.05, 0.95, size=(2, (3, 4)[layer], 8 >> layer, 8 >> layer))
        key = name.replace("_", f"{layer}_")

        def call(x, value):
            p = params if name == "input" else {**params, key: value}
            return stems.ladder_layer(x, layer, cfg, p, per_sample)[0]

        assert_stacked_call_equals_separate_calls(rng, call, x, params.get(key))

    @pytest.mark.parametrize("name", ["input", "proj_kernel", "proj_bias"])
    @pytest.mark.parametrize("variant", ["patchify", "conv"])
    def test_project_tokens_equals_separate_calls(self, variant, name):
        cfg = small_config(variant)
        rng = np.random.default_rng(RNG_SEED)
        params = stems.init_stem_params(1, cfg)
        x = rng.uniform(0.05, 0.95, size=(2, 3, 8, 8) if variant == "patchify" else (2, 8, 2, 2))

        def call(x, value):
            p = params if name == "input" else {**params, name: value}
            return stems.project_tokens(x, cfg, p)

        assert_stacked_call_equals_separate_calls(rng, call, x, params.get(name))


class TestDeterminism:
    def test_same_seed_same_params(self):
        cfg = small_config("ics")
        a = stems.init_stem_params(9, cfg)
        b = stems.init_stem_params(9, cfg)
        assert sorted(a) == sorted(b)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_different_seeds_differ(self):
        cfg = small_config("conv")
        a = stems.init_stem_params(1, cfg)
        b = stems.init_stem_params(2, cfg)
        assert any(not np.array_equal(a[k], b[k]) for k in a)
