"""Tensor-op contracts: forward values, invariants, and exact hand gradients.

Every backward function is checked against central finite differences at
h=1e-4; the documented tolerance for single ops is 1e-5 max relative
error. conv2d is additionally checked against a naive direct-summation
oracle that shares no code with the im2col implementation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfs_curate import ops
from cfs_curate.errors import DimensionError, RangeError

from conftest import (add_at_conv2d_backward, assert_bitwise_equal,
                      assert_stacked_call_equals_separate_calls, fd_gradient,
                      long_form_normalize_backward, long_form_normalize_cached,
                      max_relative_error, sliding_window_im2col)

RNG_SEED = 42


def zero_pad(x, pad):
    """Zero-pad the spatial axes of (B, C, H, W); conv2d itself is unpadded."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def naive_conv2d(x, kernel, stride, pad):
    """Direct four-loop convolution used as an independent oracle."""
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, o, oh, ow))
    for bi in range(b):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[bi, oi, i, j] = np.sum(patch * kernel[oi])
    return out


class TestConv2d:
    def test_ones_example(self):
        """4x4 ones through a 2x2 ones kernel at stride 2 gives all 4s."""
        out = ops.conv2d(np.ones((1, 1, 4, 4)), np.ones((1, 1, 2, 2)), stride=2)
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 4.0))

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (3, 2), (2, 0)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(2, 3, 9, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        got = ops.conv2d(zero_pad(x, pad), k, stride=stride)
        np.testing.assert_allclose(got, naive_conv2d(x, k, stride, pad), atol=1e-12)

    def test_rows_independent_of_batch_at_large_k(self):
        """Each output row is bitwise what the sample alone gives, even at
        K = 3 * 16 * 16 = 768 (patchify stem, 32x32, stride 16), where a
        batched contraction may reorder the K-sum differently per batch."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.uniform(size=(7, 3, 32, 32))
        k = rng.uniform(-0.04, 0.04, size=(32, 3, 16, 16))
        full = ops.conv2d(x, k, stride=16)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(full[i], ops.conv2d(x[i:i + 1], k, stride=16)[0])

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 2, 2)))

    def test_gradients_match_fd(self):
        """Through a zero pad of 1, so the border taps are differentiated too;
        the input gradient is the padded gradient's interior."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(2, 2, 6, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        xp = zero_pad(x, 1)
        w = rng.normal(size=ops.conv2d(xp, k, stride=2).shape)

        def loss_x(m):
            return float(np.sum(ops.conv2d(zero_pad(m, 1), k, stride=2) * w))

        def loss_k(m):
            return float(np.sum(ops.conv2d(xp, m, stride=2) * w))

        dxp, dk = ops.conv2d_backward(w, xp, k, stride=2)
        dx = dxp[:, :, 1:-1, 1:-1]
        assert max_relative_error(dx, fd_gradient(loss_x, x)) < 1e-5
        assert max_relative_error(dk, fd_gradient(loss_k, k)) < 1e-5

    def test_backward_bitwise_equal_to_add_at_scatter(self):
        """The slice-add input gradient adds each window's taps in the same
        (ki, kj) order as the former np.add.at scatter, so both
        gradients match it bit for bit, overlapping windows and zero-padded
        inputs included."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(60):
            kh, kw = rng.integers(1, 5, size=2)
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 3))
            h = int(rng.integers(max(1, kh - 2 * pad), 10))
            w = int(rng.integers(max(1, kw - 2 * pad), 10))
            x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4)), h, w))
            x = zero_pad(x, pad)
            k = rng.normal(size=(int(rng.integers(1, 4)), x.shape[1], kh, kw))
            g = rng.normal(size=ops.conv2d(x, k, stride).shape)
            got = ops.conv2d_backward(g, x, k, stride=stride)
            want = add_at_conv2d_backward(g, x, k, stride=stride)
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def im2col_inputs(rng):
    """A contiguous map, a 1x1 map, and views that are not contiguous."""
    base = rng.normal(size=(2, 5, 11, 10))
    return [
        rng.normal(size=(2, 3, 9, 7)),
        rng.normal(size=(3, 4, 1, 1)),
        base[:, 1:4],  # channel slice
        base[:, :, 2:9, 1:8],  # cropped window
        base[:, ::2, ::-1, :],  # strided, mirrored
    ]


class TestIm2colOracle:
    """The single strided view against the sliding-window chain it
    replaced (conftest.sliding_window_im2col)."""

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (2, 3)])
    @pytest.mark.parametrize("stride_offset", [-1, 0, 1], ids=["below", "equal", "above"])
    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_columns_bitwise_equal(self, kh, kw, stride_offset, pad):
        stride = max(1, kh + stride_offset)
        for x in im2col_inputs(np.random.default_rng(RNG_SEED)):
            xp = zero_pad(x, pad)
            if xp.shape[2] < kh or xp.shape[3] < kw:
                continue
            cols = ops._im2col(xp, kh, kw, stride)
            assert_bitwise_equal(cols, sliding_window_im2col(xp, kh, kw, stride))

    @pytest.mark.parametrize("kh,kw,stride", [(1, 1, 1), (3, 3, 2), (2, 2, 2), (2, 3, 3)])
    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_conv2d_and_backward_bitwise_equal(self, monkeypatch, kh, kw, stride, pad):
        rng = np.random.default_rng(RNG_SEED + 1)
        for x in im2col_inputs(rng):
            x = zero_pad(x, pad)
            if x.shape[2] < kh or x.shape[3] < kw:
                continue
            kernel = rng.normal(size=(4, x.shape[1], kh, kw))
            out = ops.conv2d(x, kernel, stride=stride)
            grad_out = rng.normal(size=out.shape)
            grads = ops.conv2d_backward(grad_out, x, kernel, stride=stride)
            with monkeypatch.context() as patch:
                patch.setattr(ops, "_im2col", sliding_window_im2col)
                old_out = ops.conv2d(x, kernel, stride=stride)
                old_grads = ops.conv2d_backward(grad_out, x, kernel, stride=stride)
            assert_bitwise_equal(out, old_out)
            for got, want in zip(grads, old_grads):
                assert_bitwise_equal(got, want)

    def test_columns_are_read_only(self):
        """A 1x1 kernel's columns are a view of the input; writes are refused."""
        x = np.random.default_rng(RNG_SEED).normal(size=(1, 1, 3, 3))
        with pytest.raises(ValueError, match="read-only"):
            ops._im2col(x, 1, 1, 1)[0, 0, 0] = 1.0


class TestNormalize:
    def test_instance_mode_statistics(self):
        """Instance mode with identity affine leaves per-sample per-channel
        mean 0 and variance 1, up to eps, for eps <= 1e-8."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4, 5, 6))
        out = ops.normalize_cached(x, "instance", np.ones(4), np.zeros(4), eps=1e-10)[0]
        assert np.abs(out.mean(axis=(2, 3))).max() <= 1e-10
        assert np.abs(out.var(axis=(2, 3)) - 1).max() <= 1e-6

    def test_batch_mode_statistics(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4, 5, 6))
        out = ops.normalize_cached(x, "batch", np.ones(4), np.zeros(4), eps=1e-10)[0]
        assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-10
        assert np.abs(out.var(axis=(0, 2, 3)) - 1).max() <= 1e-6

    @pytest.mark.parametrize("mode,shape", [
        ("batch", (3, 4, 5, 6)), ("batch", (4, 3, 32, 32)), ("instance", (3, 4, 5, 6)),
        ("instance", (2, 3, 64, 32)), ("instance", (2, 0, 3, 3)), ("layer", (2, 7, 9)),
        ("layer", (3, 5, 384)),
    ])
    def test_bitwise_equal_to_np_mean_form(self, mode, shape):
        """Mean and variance are population sums divided by the population
        size: bitwise what np.mean gives. Empty channel sets (the unsplit
        layers of a stem ladder) give empty outputs without warnings."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=shape) * 100 + 3
        if mode == "layer":
            n, axes, pshape = shape[-1], (x.ndim - 1,), (1,) * (x.ndim - 1) + shape[-1:]
        else:
            n, axes, pshape = shape[1], (0, 2, 3) if mode == "batch" else (2, 3), (1, shape[1], 1, 1)
        g = rng.normal(size=n)
        b = rng.normal(size=g.shape)
        centered = x - x.mean(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(np.mean(centered * centered, axis=axes, keepdims=True) + 1e-5)
        expect = g.reshape(pshape) * (centered * inv_std) + b.reshape(pshape)
        out = ops.normalize_cached(x, mode, g, b)[0]
        assert out.shape == expect.shape
        assert out.tobytes() == expect.tobytes()

    def test_batch_equals_instance_for_single_sample(self):
        """With B=1, batch statistics reduce to per-sample statistics."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(1, 2, 3, 3))
        g, b = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(
            ops.normalize_cached(x, "batch", g, b)[0],
            ops.normalize_cached(x, "instance", g, b)[0],
            atol=1e-14,
        )

    def test_layer_mode_normalizes_last_axis(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(2, 7, 9))
        out = ops.normalize_cached(x, "layer", np.ones(9), np.zeros(9), eps=1e-12)[0]
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1, atol=1e-6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(RangeError):
            ops.normalize_cached(np.zeros((1, 1, 2, 2)), "group", np.ones(1), np.zeros(1))[0]

    def test_affine_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ops.normalize_cached(np.zeros((1, 3, 2, 2)), "batch", np.ones(2), np.zeros(2))[0]

    @pytest.mark.parametrize("mode,shape", [
        ("batch", (2, 3, 4, 4)),
        ("instance", (2, 3, 4, 4)),
        ("layer", (2, 5, 6)),
    ])
    def test_gradients_match_fd(self, mode, shape):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=shape)
        n = shape[1] if mode != "layer" else shape[-1]
        gamma = rng.uniform(0.5, 1.5, size=n)
        beta = rng.normal(size=n)
        w = rng.normal(size=shape)

        out, cache = ops.normalize_cached(x, mode, gamma, beta)
        dx, dg, db = ops.normalize_backward(w, cache)

        def loss(x, gamma, beta):
            return float(np.sum(ops.normalize_cached(x, mode, gamma, beta)[0] * w))

        fx = fd_gradient(lambda m: loss(m, gamma, beta), x)
        fg = fd_gradient(lambda m: loss(x, m, beta), gamma)
        fb = fd_gradient(lambda m: loss(x, gamma, m), beta)
        assert max_relative_error(dx, fx) < 1e-5
        assert max_relative_error(dg, fg) < 1e-5
        assert max_relative_error(db, fb) < 1e-5

    @pytest.mark.parametrize("mode,shape", [
        ("batch", (2, 1, 4, 4)), ("instance", (2, 1, 4, 4)), ("layer", (3, 5, 1)),
        ("layer", (4, 1)),
    ])
    def test_one_channel_parameter_gradients_keep_gamma_shape(self, mode, shape):
        """One channel (or one feature) still sums dgamma/dbeta over the
        named parameter axes only, so they have gamma's shape (1,)."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=shape)
        gamma, beta = rng.uniform(0.5, 1.5, size=1), rng.normal(size=1)
        w = rng.normal(size=shape)
        _, cache = ops.normalize_cached(x, mode, gamma, beta)
        dx, dg, db = ops.normalize_backward(w, cache)
        assert dx.shape == shape
        assert dg.shape == db.shape == gamma.shape

        def loss(x, gamma, beta):
            return float(np.sum(ops.normalize_cached(x, mode, gamma, beta)[0] * w))

        assert max_relative_error(dg, fd_gradient(lambda m: loss(x, m, beta), gamma)) < 1e-5
        assert max_relative_error(db, fd_gradient(lambda m: loss(x, gamma, m), beta)) < 1e-5

    def test_peak_is_two_arrays_of_the_input(self):
        """The output goes into the buffer of the squares the variance
        sums: besides x-sized xhat and that buffer, only per-channel
        statistics are allocated. A separate output array would make it
        three."""
        x = np.random.default_rng(RNG_SEED).normal(size=(128, 4, 16, 16))
        gamma, beta = np.ones(4), np.zeros(4)
        ops.normalize_cached(x, "batch", gamma, beta)
        tracemalloc.start()
        try:
            ops.normalize_cached(x, "batch", gamma, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * x.nbytes


class TestLeadingAxes:
    """A (P, B, ...) normalization with gamma or beta stacked on P
    (ops.per_probe), or with P distinct inputs, is bitwise the P separate
    4-D calls. conv2d stays 4-D (stems fold leading axes into its batch),
    and every 4-D call keeps its error message."""

    @pytest.mark.parametrize("name", ["input", "gamma", "beta"])
    @pytest.mark.parametrize("mode,shape", [
        ("batch", (2, 4, 5, 5)), ("instance", (2, 4, 5, 5)), ("layer", (2, 5, 8)),
    ])
    def test_normalize_equals_separate_calls(self, name, mode, shape):
        rng = np.random.default_rng(RNG_SEED)
        n = shape[-1] if mode == "layer" else shape[1]
        x = rng.normal(size=shape) * 3 + 1
        params = {"gamma": rng.normal(size=n), "beta": rng.normal(size=n)}

        def call(x, value):
            p = params if name == "input" else {**params, name: value}
            return ops.normalize_cached(x, mode, p["gamma"], p["beta"])[0]

        assert_stacked_call_equals_separate_calls(rng, call, x, params.get(name))

    @pytest.mark.parametrize("x,kernel,message", [
        ((1, 2, 4), (1, 2, 2, 2),
         "conv2d expects 4-D input and kernel, got (1, 2, 4) and (1, 2, 2, 2)"),
        ((1, 2, 4, 4), (2, 2, 2),
         "conv2d expects 4-D input and kernel, got (1, 2, 4, 4) and (2, 2, 2)"),
        ((3, 1, 2, 4, 4), (1, 2, 2, 2),
         "conv2d expects 4-D input and kernel, got (3, 1, 2, 4, 4) and (1, 2, 2, 2)"),
        ((1, 2, 4, 4), (1, 3, 2, 2), "kernel expects 3 channels, input has 2"),
        ((1, 1, 2, 2), (1, 1, 5, 5), "kernel 5x5 larger than input 2x2"),
    ])
    def test_conv2d_messages(self, x, kernel, message):
        with pytest.raises(DimensionError) as info:
            ops.conv2d(np.zeros(x), np.zeros(kernel))
        assert str(info.value) == message

    @pytest.mark.parametrize("mode,x,n,message", [
        ("batch", (2, 3, 4), 3, "batch normalization expects (B, C, H, W), got (2, 3, 4)"),
        ("instance", (3, 4), 3, "instance normalization expects (B, C, H, W), got (3, 4)"),
        ("batch", (1, 3, 2, 2), 2, "gamma/beta must have shape (3,), got (2,) and (2,)"),
        ("instance", (1, 3, 2, 2), 4, "gamma/beta must have shape (3,), got (4,) and (4,)"),
        ("layer", (2, 5), 4, "gamma/beta must have shape (5,), got (4,) and (4,)"),
    ])
    def test_normalize_messages(self, mode, x, n, message):
        with pytest.raises(DimensionError) as info:
            ops.normalize_cached(np.zeros(x), mode, np.ones(n), np.zeros(n))
        assert str(info.value) == message


class TestNormalizeLongFormOracle:
    """The cache of xhat and inv_std and the three-term backward against
    the centered-input cache and dvar/dmean chain they replaced
    (conftest.long_form_normalize_*). Outputs and dgamma/dbeta are
    bitwise equal; dx differs by rounding, within 1e-14 * max|old dx|."""

    SHAPES = [
        ("batch", (3, 4, 5, 6)), ("batch", (2, 1, 4, 4)), ("batch", (3, 2, 1, 1)),
        ("batch", (4, 3, 16, 16)), ("instance", (3, 4, 5, 6)), ("instance", (2, 1, 4, 4)),
        ("instance", (2, 3, 1, 1)), ("instance", (2, 0, 3, 3)), ("layer", (2, 7, 9)),
        ("layer", (3, 5, 1)), ("layer", (3, 17, 32)), ("layer", (4, 1)),
    ]

    @pytest.mark.parametrize("mode,shape", SHAPES)
    def test_matches_long_form(self, mode, shape):
        rng = np.random.default_rng(RNG_SEED)
        n = shape[-1] if mode == "layer" else shape[1]
        for _ in range(5):
            x = rng.normal(size=shape) * rng.uniform(0.1, 100) + rng.normal() * 10
            gamma, beta = rng.normal(size=n), rng.normal(size=n)
            w = rng.normal(size=shape)
            out, cache = ops.normalize_cached(x, mode, gamma, beta)
            old_out, old_cache = long_form_normalize_cached(x, mode, gamma, beta)
            assert_bitwise_equal(out, old_out)

            dx, dg, db = ops.normalize_backward(w, cache)
            old_dx, old_dg, old_db = long_form_normalize_backward(w, old_cache)
            assert dg.shape == db.shape == gamma.shape
            # the long form's one-channel dgamma/dbeta are 0-d: compare values
            assert dg.tobytes() == old_dg.reshape(-1).tobytes()
            assert db.tobytes() == old_db.reshape(-1).tobytes()
            assert dx.shape == old_dx.shape
            if dx.size:
                assert np.abs(dx - old_dx).max() <= 1e-14 * np.abs(old_dx).max()

    def test_cache_holds_no_centered_copy(self):
        """One array of x's size per cache: xhat; the rest broadcast."""
        x = np.random.default_rng(RNG_SEED).normal(size=(2, 3, 4, 4))
        _, cache = ops.normalize_cached(x, "batch", np.ones(3), np.zeros(3))
        full_size = [a for a in cache if isinstance(a, np.ndarray) and a.size == x.size]
        assert len(full_size) == 1


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(
            ops.activation(np.array([-2.0, 0.0, 3.0]), "relu"), [0.0, 0.0, 3.0]
        )

    def test_gelu_zero_and_symmetry(self):
        assert ops.activation(np.array([0.0]), "gelu")[0] == 0.0
        x = np.linspace(-3, 3, 25)
        y = ops.activation(x, "gelu")
        # gelu(x) - gelu(-x) == x for the tanh form
        np.testing.assert_allclose(y - y[::-1], x, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError):
            ops.activation(np.zeros(3), "swish")

    def test_gelu_gradient_matches_fd(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(4, 7))
        w = rng.normal(size=(4, 7))
        dx = ops.activation_backward(w, x, "gelu")
        fd = fd_gradient(lambda m: float(np.sum(ops.activation(m, "gelu") * w)), x)
        assert max_relative_error(dx, fd) < 1e-5

    def test_gelu_within_bound_of_pow_cube(self):
        """The cube is x * x * x; with the x**3 form every forward and
        backward value stays within 1e-15 * max(1, |x|), and the non-finite
        ones (inf, NaN, a cube that overflows) are the same."""
        rng = np.random.default_rng(RNG_SEED)
        x = np.concatenate([
            rng.uniform(-1e3, 1e3, 20_000), rng.normal(0.0, 3.0, 20_000),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e103, -1e103],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.tanh(ops.GELU_C * (x + ops.GELU_A * x**3))
            oracle_fwd = 0.5 * x * (1.0 + t)
            oracle_bwd = (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * ops.GELU_C
                          * (1.0 + 3.0 * ops.GELU_A * x**2))
            fwd = ops.activation(x, "gelu")
            bwd = ops.activation_backward(np.ones_like(x), x, "gelu")
        bound = 1e-15 * np.maximum(1.0, np.abs(x))
        for got, want in ((fwd, oracle_fwd), (bwd, oracle_bwd)):
            finite = np.isfinite(want)
            np.testing.assert_array_equal(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])
        assert np.isnan(fwd[-3]) and fwd[-5] == np.inf and fwd[-2] == 1e103

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(4, 7))
        x[np.abs(x) < 0.05] = 0.5  # keep fd away from the kink
        w = rng.normal(size=(4, 7))
        dx = ops.activation_backward(w, x, "relu")
        fd = fd_gradient(lambda m: float(np.sum(ops.activation(m, "relu") * w)), x)
        assert max_relative_error(dx, fd) < 1e-5


class TestSoftmax:
    def test_known_values(self):
        """softmax(0, ln 3) = (0.25, 0.75)."""
        out = ops.softmax(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(5, 9)) * 10
        out = ops.softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_shift_invariance_handles_large_logits(self):
        x = np.array([1000.0, 1001.0])
        out = ops.softmax(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 6))
        y = ops.softmax(x)
        dx = ops.softmax_backward(w, y)
        fd = fd_gradient(lambda m: float(np.sum(ops.softmax(m) * w)), x)
        assert max_relative_error(dx, fd) < 1e-5


class TestFdHelpers:
    def test_fd_gradient_on_quadratic(self):
        """fd of sum(x^2) is 2x to second order."""
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(3, 4))
        fd = fd_gradient(lambda m: float(np.sum(m * m)), x)
        np.testing.assert_allclose(fd, 2 * x, atol=1e-7)

    def test_fd_gradient_leaves_input_unchanged(self):
        x = np.ones((2, 2))
        before = x.copy()
        fd_gradient(lambda m: float(m.sum()), x)
        np.testing.assert_array_equal(x, before)

    def test_max_relative_error_floor(self):
        # identical tiny values: floored denominator keeps the ratio finite
        assert max_relative_error(np.array([1e-9]), np.array([2e-9])) < 1e-2
        assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_max_relative_error_symmetric(self, a, b):
        x, y = np.array([a]), np.array([b])
        assert max_relative_error(x, y) == max_relative_error(y, x)
