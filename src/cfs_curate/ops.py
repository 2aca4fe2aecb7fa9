"""Dense layer transforms with hand-derived gradient counterparts.

Every forward here is a pure function of float64 arrays. Each one has a
paired ``*_backward`` that maps an upstream gradient to gradients with
respect to the inputs, derived by hand and validated against
:func:`fd_gradient`. There is no graph or tape; composite models chain
these transforms explicitly.

Conventions: images and feature maps are ``(B, C, H, W)``, convolution is
cross-correlation, normalization uses the biased (population) variance of
the current batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyInputError, RangeError

GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715

NORM_MODES = ("batch", "instance", "layer")
ACTIVATION_KINDS = ("relu", "gelu")


@dataclass
class GradPair:
    """Gradient of a scalar loss w.r.t. a transform's input and parameters.

    ``input_grad`` matches the input's shape; every entry of
    ``param_grads`` matches the shape of the parameter it differentiates.
    """

    input_grad: np.ndarray
    param_grads: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# conv2d


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Unfold a padded (B, C, Hp, Wp) array into (B, C*kh*kw, L) columns.

    One read-only strided view (b, c, ki, kj, oi, oj) -> xp[b, c,
    oi*stride + ki, oj*stride + kj]. The reshape copies it in row-major
    order; a 1x1 kernel at stride 1 needs no copy and stays a view of xp.
    """
    b, c, hp, wp = xp.shape
    sb, sc, sh, sw = xp.strides
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(b, c, kh, kw, h_out, w_out),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride), writeable=False,
    )
    return windows.reshape(b, c * kh * kw, h_out * w_out)


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """2-D cross-correlation of ``(B, C, H, W)`` with ``(O, C, kh, kw)``.

    Output spatial size is ``floor((H + 2*pad - kh) / stride) + 1`` (same
    for width); trailing rows/columns that do not fit a window are dropped.
    Each sample is its own GEMM, so ``conv2d(x)[i]`` is bitwise equal to
    ``conv2d(x[i:i+1])[0]`` whatever else is in the batch.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}"
        )
    b, c, h, w = x.shape
    o, kc, kh, kw = kernel.shape
    if kc != c:
        raise DimensionError(f"kernel expects {kc} channels, input has {c}")
    if bias.shape != (o,):
        raise DimensionError(f"bias must have shape ({o},), got {bias.shape}")
    if stride < 1 or pad < 0:
        raise RangeError("stride must be >= 1 and pad >= 0")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}"
        )
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _im2col(xp, kh, kw, stride)
    kmat = kernel.reshape(o, c * kh * kw)
    out = np.matmul(kmat, cols) + bias[None, :, None]
    h_out = _conv_out_size(h, kh, stride, pad)
    w_out = _conv_out_size(w, kw, stride, pad)
    return out.reshape(b, o, h_out, w_out)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
    stride: int = 1,
    pad: int = 0,
):
    """Gradients of conv2d w.r.t. input, kernel, and bias."""
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    h_out, w_out = grad_out.shape[2], grad_out.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _im2col(xp, kh, kw, stride)
    kmat = kernel.reshape(o, c * kh * kw)
    gmat = grad_out.reshape(b, o, h_out * w_out)

    dbias = grad_out.sum(axis=(0, 2, 3))
    dkernel = np.einsum("bol,bkl->ok", gmat, cols, optimize=True).reshape(kernel.shape)
    dcols = np.einsum("ok,bol->bkl", kmat, gmat, optimize=True)

    # one strided slice-add per kernel tap, in (ki, kj) order; windows
    # overlap when stride < kernel size, and the taps accumulate there
    dcols = dcols.reshape(b, c, kh, kw, h_out, w_out)
    dxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride] += (
                dcols[:, :, ki, kj]
            )
    dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
    return dx, dkernel, dbias


# ---------------------------------------------------------------------------
# normalization


def _norm_setup(x: np.ndarray, mode: str, gamma: np.ndarray, beta: np.ndarray):
    if mode not in NORM_MODES:
        raise RangeError(f"unknown normalization mode {mode!r}")
    if mode == "layer":
        if x.ndim < 1:
            raise DimensionError("layer normalization needs at least one axis")
        axes = (x.ndim - 1,)
        nparam = x.shape[-1]
        pshape = (1,) * (x.ndim - 1) + (nparam,)
    else:
        if x.ndim != 4:
            raise DimensionError(
                f"{mode} normalization expects (B, C, H, W), got {x.shape}"
            )
        nparam = x.shape[1]
        pshape = (1, nparam, 1, 1)
        axes = (0, 2, 3) if mode == "batch" else (2, 3)
    if gamma.shape != (nparam,) or beta.shape != (nparam,):
        raise DimensionError(
            f"gamma/beta must have shape ({nparam},), got {gamma.shape} and {beta.shape}"
        )
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    if count == 0:
        raise EmptyInputError(f"{mode} normalization over an empty population")
    return axes, pshape, count


def normalize_cached(x, mode, gamma, beta, eps=1e-5):
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over the mode's axes,
    and the cache ``normalize_backward`` needs.

    ``batch`` reduces over (B, H, W) per channel, ``instance`` over (H, W)
    per sample and channel, ``layer`` over the last axis. Variance is the
    biased estimator of the current data; there are no running statistics.
    """
    axes, pshape, count = _norm_setup(x, mode, gamma, beta)
    mean = x.sum(axis=axes, keepdims=True) / count
    centered = x - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gamma.reshape(pshape) * xhat + beta.reshape(pshape)
    cache = (xhat, centered, inv_std, gamma, axes, pshape, count)
    return out, cache


def normalize_backward(grad_out: np.ndarray, cache):
    """Gradients of normalize_cached w.r.t. x, gamma, and beta."""
    xhat, centered, inv_std, gamma, axes, pshape, count = cache
    param_axes = tuple(i for i in range(grad_out.ndim) if pshape[i] == 1)
    dgamma = (grad_out * xhat).sum(axis=param_axes)
    dbeta = grad_out.sum(axis=param_axes)

    dxhat = grad_out * gamma.reshape(pshape)
    dvar = np.sum(dxhat * centered, axis=axes, keepdims=True) * (-0.5) * inv_std**3
    dmean = np.sum(-dxhat * inv_std, axis=axes, keepdims=True) + dvar * np.mean(
        -2.0 * centered, axis=axes, keepdims=True
    )
    dx = dxhat * inv_std + dvar * 2.0 * centered / count + dmean / count
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# activations


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise relu or gelu (tanh approximation)."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "gelu":
        # the cube as x * x * x: NumPy computes x**3 with the general float power
        inner = GELU_C * (x + GELU_A * (x * x * x))
        return 0.5 * x * (1.0 + np.tanh(inner))
    raise RangeError(f"unknown activation kind {kind!r}")


def activation_backward(grad_out: np.ndarray, x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return grad_out * (x > 0.0)
    if kind == "gelu":
        t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x**2)
        return grad_out * local
    raise RangeError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# softmax


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Stabilized softmax along ``axis``; slices sum to 1."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {x.shape}")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(grad_out: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of softmax given its output ``y``."""
    inner = (grad_out * y).sum(axis=axis, keepdims=True)
    return y * (grad_out - inner)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate.

    Independent of every analytic backward in this module; used as the
    reference they are checked against.
    """
    if h <= 0:
        raise RangeError("finite-difference step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    probe = x.copy()
    pflat = probe.reshape(-1)
    for i in range(pflat.size):
        orig = pflat[i]
        pflat[i] = orig + h
        up = float(f(probe))
        pflat[i] = orig - h
        down = float(f(probe))
        pflat[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case elementwise relative discrepancy between two gradients.

    The denominator is floored so coordinates where both gradients vanish
    (dead relu paths) do not divide by zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
