"""Dense layer transforms with hand-derived gradient counterparts.

Every forward here is a pure function of float64 arrays. Each one has a
paired ``*_backward`` that maps an upstream gradient to gradients with
respect to the inputs, derived by hand and validated against
:func:`fd_gradient`. There is no graph or tape; composite models chain
these transforms explicitly.

Conventions: images and feature maps are ``(B, C, H, W)``, convolution is
unpadded cross-correlation (the stems pad by edge replication themselves,
see :func:`stems._edge_pad`), softmax runs over the last axis, and
normalization uses the biased (population) variance of the current batch.
Caches hold only what the paired backward reads.

Leading axes are batch axes: normalization addresses its axes from the
end, so a ``(P, B, C, H, W)`` input is P independent batches, and slice
``p`` of the output is bitwise what the ``(B, C, H, W)`` call on slice
``p`` gives. A parameter may be stacked the same way, one copy per
leading index (:func:`per_probe` states the rule); that is how a
finite-difference check evaluates many perturbed copies of one tensor in
one forward. :func:`conv2d` stays a 4-D op: it is one GEMM per sample,
so callers fold leading axes into ``B`` (see :func:`stems.ladder_layer`).
The backward functions take the unstacked 4-D form only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyInputError, RangeError

GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715

NORM_MODES = ("batch", "instance", "layer")
# central-difference step of fd_gradient and the denominator floor of
# max_relative_error, so coordinates where both gradients vanish (dead
# relu paths) do not divide by zero
FD_STEP = 1e-4
FD_ERROR_FLOOR = 1e-6


@dataclass
class GradPair:
    """Gradient of a scalar loss w.r.t. a transform's input and parameters.

    ``input_grad`` matches the input's shape; every entry of
    ``param_grads`` matches the shape of the parameter it differentiates.
    """

    input_grad: np.ndarray
    param_grads: dict[str, np.ndarray] = field(default_factory=dict)


def per_probe(param: np.ndarray, base_ndim: int, ndim: int) -> np.ndarray:
    """``param`` shaped to broadcast against an operand of ``ndim`` axes.

    The rule for stacked parameters: a parameter whose own shape has
    ``base_ndim`` axes may carry leading axes ``P``, one copy per leading
    index, and then meets data of shape ``(*P, B, ...)``. Ones go between
    ``P`` and the parameter's own axes, so each copy broadcasts over its
    own batch and nothing else. An unstacked parameter is returned as it
    is; NumPy's right-aligned broadcasting already applies it to every
    leading index.
    """
    probes = param.shape[:param.ndim - base_ndim]
    if not probes:
        return param
    return param.reshape(probes + (1,) * (ndim - param.ndim) + param.shape[len(probes):])


# ---------------------------------------------------------------------------
# conv2d


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Unfold a (B, C, H, W) array into (B, C*kh*kw, L) columns.

    One read-only strided view (b, c, ki, kj, oi, oj) -> x[b, c,
    oi*stride + ki, oj*stride + kj]. The reshape copies it in row-major
    order; a 1x1 kernel at stride 1 needs no copy and stays a view of x.
    """
    b, c, h, w = x.shape
    sb, sc, sh, sw = x.strides
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, kh, kw, h_out, w_out),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride), writeable=False,
    )
    return windows.reshape(b, c * kh * kw, h_out * w_out)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: int = 1) -> np.ndarray:
    """Unpadded 2-D cross-correlation of ``(B, C, H, W)`` with ``(O, C, kh, kw)``.

    Output spatial size is ``(H - kh) // stride + 1`` (same for width);
    trailing rows/columns that do not fit a window are dropped. Callers
    that want a border pad the input first. Each sample is its own GEMM,
    so ``conv2d(x)[i]`` is bitwise equal to ``conv2d(x[i:i+1])[0]``
    whatever else is in the batch.
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
    if stride < 1:
        raise RangeError("stride must be >= 1")
    if h < kh or w < kw:
        raise DimensionError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    cols = _im2col(x, kh, kw, stride)
    kmat = kernel.reshape(o, c * kh * kw)
    out = np.matmul(kmat, cols) + bias[None, :, None]
    return out.reshape(b, o, (h - kh) // stride + 1, (w - kw) // stride + 1)


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray, stride: int = 1):
    """Gradients of conv2d w.r.t. input, kernel, and bias."""
    b, c = x.shape[:2]
    o, _, kh, kw = kernel.shape
    h_out, w_out = grad_out.shape[2], grad_out.shape[3]
    cols = _im2col(x, kh, kw, stride)
    kmat = kernel.reshape(o, c * kh * kw)
    gmat = grad_out.reshape(b, o, h_out * w_out)

    dbias = grad_out.sum(axis=(0, 2, 3))
    dkernel = np.einsum("bol,bkl->ok", gmat, cols, optimize=True).reshape(kernel.shape)
    dcols = np.einsum("ok,bol->bkl", kmat, gmat, optimize=True)

    # one strided slice-add per kernel tap, in (ki, kj) order; windows
    # overlap when stride < kernel size, and the taps accumulate there
    dcols = dcols.reshape(b, c, kh, kw, h_out, w_out)
    dx = np.zeros_like(x)
    for ki in range(kh):
        for kj in range(kw):
            dx[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride] += (
                dcols[:, :, ki, kj]
            )
    return dx, dkernel, dbias


# ---------------------------------------------------------------------------
# normalization


def _norm_setup(x: np.ndarray, mode: str, gamma: np.ndarray, beta: np.ndarray):
    """Reduction axes, parameter axes, the broadcast shape of an unstacked
    gamma/beta (one axis per axis of x) and the population size. Axes count
    from the end, so axes before (B, C, H, W), or before the normalized
    axis in layer mode, are batch axes."""
    if mode not in NORM_MODES:
        raise RangeError(f"unknown normalization mode {mode!r}")
    if mode == "layer":
        if x.ndim < 1:
            raise DimensionError("layer normalization needs at least one axis")
        axes = (-1,)
        param_axes = tuple(range(x.ndim - 1))
        core = x.shape[-1:]
    else:
        if x.ndim < 4:
            raise DimensionError(
                f"{mode} normalization expects (B, C, H, W), got {x.shape}"
            )
        axes = (-4, -2, -1) if mode == "batch" else (-2, -1)
        param_axes = (-4, -2, -1)
        core = (x.shape[-3], 1, 1)
    nparam = core[0]
    pshape = (1,) * (x.ndim - len(core)) + core
    if gamma.shape[-1:] != (nparam,) or beta.shape[-1:] != (nparam,):
        raise DimensionError(
            f"gamma/beta must have shape ({nparam},), got {gamma.shape} and {beta.shape}"
        )
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    if count == 0:
        raise EmptyInputError(f"{mode} normalization over an empty population")
    return axes, param_axes, pshape, count


def normalize_cached(x, mode, gamma, beta, eps=1e-5):
    """``gamma * (x - mean) / sqrt(var + eps) + beta`` over the mode's axes,
    and the cache ``normalize_backward`` needs.

    ``batch`` reduces over (B, H, W) per channel, ``instance`` over (H, W)
    per sample and channel, ``layer`` over the last axis. Variance is the
    biased estimator of the current data; there are no running statistics.
    The cache is ``(xhat, inv_std, gamma reshaped to broadcast, axes,
    param_axes)``: one array of x's size and the per-population scales.
    The output is written into the buffer of the squares the variance
    sums, so the call allocates two arrays of x's size.
    """
    axes, param_axes, pshape, count = _norm_setup(x, mode, gamma, beta)

    def affine(param):
        # pshape, with a stacked parameter's probe axes in place of its
        # leading ones: the per_probe rule
        return param.reshape(param.shape[:-1] + pshape[param.ndim - 1:])

    mean = x.sum(axis=axes, keepdims=True) / count
    xhat = x - mean
    out = xhat * xhat
    var = out.sum(axis=axes, keepdims=True) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    gamma = affine(gamma)
    np.multiply(gamma, xhat, out=out)
    out += affine(beta)
    return out, (xhat, inv_std, gamma, axes, param_axes)


def normalize_backward(grad_out: np.ndarray, cache):
    """Gradients of normalize_cached w.r.t. x, gamma, and beta: with means
    over the normalized axes and ``dxhat = grad_out * gamma``, ``dx = inv_std
    * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``. ``dgamma`` and
    ``dbeta`` sum over the parameter axes: all but the channel or feature axis.
    """
    xhat, inv_std, gamma, axes, param_axes = cache
    dgamma = (grad_out * xhat).sum(axis=param_axes)
    dbeta = grad_out.sum(axis=param_axes)
    dxhat = grad_out * gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=axes, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
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


def softmax(x: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis; slices sum to 1."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(grad_out: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of softmax given its output ``y``."""
    inner = (grad_out * y).sum(axis=-1, keepdims=True)
    return y * (grad_out - inner)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function at step ``FD_STEP``,
    coordinate by coordinate.

    Independent of every analytic backward in this module; used as the
    reference they are checked against.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    probe = x.copy()
    pflat = probe.reshape(-1)
    for i in range(pflat.size):
        orig = pflat[i]
        pflat[i] = orig + FD_STEP
        up = float(f(probe))
        pflat[i] = orig - FD_STEP
        down = float(f(probe))
        pflat[i] = orig
        flat[i] = (up - down) / (2.0 * FD_STEP)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case elementwise relative discrepancy between two gradients,
    with the denominator floored at ``FD_ERROR_FLOOR``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), FD_ERROR_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
