"""Patch-embedding stems: patchify, convolution stack, and the IBN variant.

All three map an image batch ``(B, 3, H, W)`` to a token sequence
``(B, T, D)`` with ``T = (H/p) * (W/p)`` for patch stride ``p``, through
one code path: a ladder of 3x3 stride-2 convolutions, then a projection
convolution to D channels (``proj_kernel``/``proj_bias``) whose kernel
size and stride are ``p / 2**len(ladder)``. The variants differ only in
that data:

* ``patchify``: the empty ladder, so the projection is a single stride-p,
  p x p convolution.
* ``conv``: a ladder whose convolutions are each followed by batch
  normalization and relu, then a 1x1 projection. Ladder convolutions use
  edge-replicate padding, not zero padding, so a constant shift of the
  input produces an exactly constant shift of every convolution output;
  zero padding would break that at image borders.
* ``ics``: the same ladder, except that after each of the first
  ``in_layers`` convolutions the lower half of the channels is instance
  normalized and the upper half batch normalized (each half with its own
  affine parameters) before relu. Instance normalization strips
  per-sample appearance statistics (global shifts and rescalings) from
  its half, which is what makes this stem's shallow features invariant
  to per-image color changes; deeper layers use batch normalization only.

A split layer normalizes channels ``[:half]`` by instance and ``[half:]``
by batch (or per sample); any other layer is one group of all channels.
Each group's output is written in place into the layer's one array; in
the backward pass its gradient overwrites its slice of the relu gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .ops import GradPair

VARIANTS = ("patchify", "conv", "ics")

LADDER_KERNEL = 3
LADDER_STRIDE = 2
LADDER_PAD = 1


def default_channel_ladder(embed_dim: int, patch_stride: int) -> tuple[int, ...]:
    """Doubling ladder ending at ``embed_dim``, one stride-2 layer per factor.

    For ``embed_dim=384, patch_stride=16`` this is ``(48, 96, 192, 384)``.
    """
    depth = int(round(np.log2(patch_stride)))
    if 2**depth != patch_stride:
        raise ConfigError(f"patch stride {patch_stride} is not a power of 2")
    if depth < 1:
        raise ConfigError(
            f"patch stride {patch_stride} leaves no stride-{LADDER_STRIDE} ladder layer; "
            f"a ladder needs a patch stride of at least {LADDER_STRIDE}"
        )
    ladder = tuple(embed_dim // 2**(depth - 1 - i) for i in range(depth))
    if ladder[0] < 1 or any(c * 2**(depth - 1 - i) != embed_dim for i, c in enumerate(ladder)):
        raise ConfigError(
            f"embed_dim {embed_dim} does not halve cleanly into a {depth}-layer ladder"
        )
    return ladder


@dataclass(frozen=True)
class StemConfig:
    variant: str
    embed_dim: int
    patch_stride: int = 16
    channel_ladder: tuple[int, ...] = ()
    in_layers: int = 2
    eps: float = 1e-5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown stem variant {self.variant!r}")
        if self.embed_dim < 1 or self.patch_stride < 1:
            raise ConfigError("embed_dim and patch_stride must be positive")
        ladder = tuple(int(c) for c in self.channel_ladder)
        if self.variant != "patchify":
            ladder = ladder or default_channel_ladder(self.embed_dim, self.patch_stride)
        elif ladder:
            raise ConfigError(f"the patchify stem is the empty ladder, got {ladder}")
        object.__setattr__(self, "channel_ladder", ladder)
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError(f"channel ladder must be strictly increasing: {ladder}")
        if ladder and LADDER_STRIDE ** len(ladder) != self.patch_stride:
            raise ConfigError(
                f"{len(ladder)} stride-{LADDER_STRIDE} layers reduce by "
                f"{LADDER_STRIDE ** len(ladder)}, not patch stride {self.patch_stride}"
            )
        if self.variant == "ics":
            if not 0 <= self.in_layers <= len(ladder):
                raise ConfigError(
                    f"in_layers must be in [0, {len(ladder)}], got {self.in_layers}"
                )
            for i in range(self.in_layers):
                if ladder[i] % 2:
                    raise ConfigError(
                        f"layer {i} has {ladder[i]} channels; split layers need an even count"
                    )

    @property
    def split_layers(self) -> int:
        """Number of leading layers whose channels are half-IN, half-BN."""
        return self.in_layers if self.variant == "ics" else 0

    @property
    def proj_stride(self) -> int:
        """Kernel size and stride of the projection: p for the empty ladder,
        1 after a ladder that already reduces by p."""
        return self.patch_stride // LADDER_STRIDE ** len(self.channel_ladder)


def init_stem_params(seed, config: StemConfig) -> dict[str, np.ndarray]:
    """Seeded parameters: kernels uniform in +-1/sqrt(fan-in), biases zero,
    affine scales one, affine shifts zero. Draw order follows the layer
    order, so a given (seed, config) always yields the same arrays.
    ``seed`` may also be a Generator, which is drawn from in place.
    """
    rng = np.random.default_rng(seed)

    def kernel(out_c, in_c, kh, kw):
        bound = 1.0 / np.sqrt(in_c * kh * kw)
        return rng.uniform(-bound, bound, size=(out_c, in_c, kh, kw))

    params: dict[str, np.ndarray] = {}
    in_c = 3
    for i, out_c in enumerate(config.channel_ladder):
        params[f"conv{i}_kernel"] = kernel(out_c, in_c, LADDER_KERNEL, LADDER_KERNEL)
        params[f"conv{i}_bias"] = np.zeros(out_c)
        params[f"norm{i}_gamma"] = np.ones(out_c)
        params[f"norm{i}_beta"] = np.zeros(out_c)
        in_c = out_c
    d, s = config.embed_dim, config.proj_stride
    params["proj_kernel"] = kernel(d, in_c, s, s)
    params["proj_bias"] = np.zeros(d)
    return params


def _check_image_batch(images: np.ndarray, config: StemConfig):
    if images.ndim != 4 or images.shape[1] != 3:
        raise DimensionError(f"images must be (B, 3, H, W), got {images.shape}")
    p = config.patch_stride
    _, _, h, w = images.shape
    if h % p or w % p:
        raise DimensionError(f"image size {h}x{w} not divisible by patch stride {p}")


def _edge_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Replicate the border of (..., C, H, W) ``pad`` times on each side.

    Slice copies into one preallocated array: the interior, then the top
    and bottom rows, then the full-height left and right columns, which
    fill the corners from the rows just copied.
    """
    *lead, h, w = x.shape
    out = np.empty((*lead, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[..., pad:pad + h, pad:pad + w] = x
    out[..., :pad, pad:pad + w] = x[..., :1, :]
    out[..., pad + h:, pad:pad + w] = x[..., -1:, :]
    out[..., :pad] = out[..., pad:pad + 1]
    out[..., pad + w:] = out[..., pad + w - 1:pad + w]
    return out


def _edge_pad_backward(grad: np.ndarray, pad: int, h: int, w: int) -> np.ndarray:
    """Adjoint of :func:`_edge_pad`, its fills undone in reverse order: the
    side columns fold onto the edge columns, then the top and bottom rows
    onto the edge rows, in place in ``grad``; the interior is copied out."""
    grad[:, :, :, pad] += grad[:, :, :, :pad].sum(axis=3)
    grad[:, :, :, pad + w - 1] += grad[:, :, :, pad + w:].sum(axis=3)
    grad[:, :, pad, pad:pad + w] += grad[:, :, :pad, pad:pad + w].sum(axis=2)
    grad[:, :, pad + h - 1, pad:pad + w] += grad[:, :, pad + h:, pad:pad + w].sum(axis=2)
    return grad[:, :, pad:pad + h, pad:pad + w].copy()


def _conv(x, kernel, bias, stride):
    """:func:`ops.conv2d` on (..., B, C, H, W) through 4-D calls only, so
    its shape contract (and the benchmark tracer's conv2d span, which reads
    a 4-D output) holds. conv2d is one GEMM per sample, so an unstacked
    kernel and bias take the leading axes folded into one batch, and the
    bits are those of separate calls; a stacked kernel or bias
    (:func:`ops.per_probe`) takes one call per copy."""
    *lead, c, h, w = x.shape
    if kernel.ndim == 4 and bias.ndim == 1:
        out = ops.conv2d(x.reshape(-1, c, h, w), kernel, bias, stride=stride)
        return out.reshape(*lead, *out.shape[1:])
    probes = x.shape[:-4]
    kernel = np.broadcast_to(kernel, probes + kernel.shape[-4:])
    bias = np.broadcast_to(bias, probes + bias.shape[-1:])
    out = [ops.conv2d(x[i], kernel[i], bias[i], stride=stride) for i in np.ndindex(probes)]
    return np.stack(out).reshape(*probes, *out[0].shape)


def _tokens_from_map(fmap: np.ndarray) -> np.ndarray:
    # (..., D, H', W') -> (..., H'*W', D), spatial positions in row-major order
    *lead, d, h, w = fmap.shape
    return np.ascontiguousarray(fmap.reshape(*lead, d, h * w).swapaxes(-1, -2))


def _map_from_tokens(grad_tokens: np.ndarray, h: int, w: int) -> np.ndarray:
    b, t, d = grad_tokens.shape
    return np.ascontiguousarray(grad_tokens.transpose(0, 2, 1).reshape(b, d, h, w))


@dataclass(frozen=True)
class _StemCache:
    config: StemConfig
    layers: list
    proj_in: np.ndarray

    @property
    def map_hw(self) -> tuple[int, int]:
        s = self.config.proj_stride
        return self.proj_in.shape[2] // s, self.proj_in.shape[3] // s


def ladder_layer(x, i, config: StemConfig, params, per_sample=False):
    """Ladder layer ``i`` on its input ``x``: edge pad, 3x3 stride-2
    convolution, normalization (instance half and batch half on the first
    ``config.split_layers`` layers, one batch group after), relu.

    Returns the relu output, which is the next layer's input, and the
    layer's entry of the backward cache. ``per_sample`` is as in
    :func:`stem_forward_cached`. ``x`` may carry batch axes before
    (B, C, H, W), and the layer's parameters probe axes to match
    (:func:`ops.per_probe`); each leading index then gets the bits of its
    own 4-D call. The convolution folds the leading axes into the batch
    (:func:`_conv`). :func:`stem_backward` reads 4-D caches only.
    """
    out_c = config.channel_ladder[i]
    bn_mode = "instance" if per_sample else "batch"
    kernel = params[f"conv{i}_kernel"]
    padded = _edge_pad(x, LADDER_PAD)
    conv_out = _conv(padded, kernel, params[f"conv{i}_bias"], LADDER_STRIDE)
    gamma = params[f"norm{i}_gamma"]
    beta = params[f"norm{i}_beta"]
    if i < config.split_layers:
        groups = ((slice(None, out_c // 2), "instance"), (slice(out_c // 2, None), bn_mode))
    else:
        groups = ((slice(None), bn_mode),)
    normed = np.empty_like(conv_out)
    norm_cache = []
    for channels, mode in groups:
        normed[..., channels, :, :], group_cache = ops.normalize_cached(
            conv_out[..., channels, :, :], mode, gamma[..., channels], beta[..., channels],
            config.eps,
        )
        norm_cache.append((channels, group_cache))
    layer = (padded, x.shape[-2], x.shape[-1], kernel, norm_cache, normed, i)
    return ops.activation(normed, "relu"), layer


def project_tokens(x, config: StemConfig, params) -> np.ndarray:
    """The projection convolution on the ladder's output ``x`` (the images
    for the empty ladder), as a (B, T, D) token sequence; leading batch
    axes and stacked parameters as in :func:`ladder_layer`."""
    fmap = _conv(x, params["proj_kernel"], params["proj_bias"], config.proj_stride)
    return _tokens_from_map(fmap)


def stem_forward_cached(images, config: StemConfig, params, per_sample=False):
    """Run any stem variant, keeping what the backward pass needs.

    The forward is :func:`ladder_layer` for each ladder layer in turn,
    then :func:`project_tokens`; a caller that holds the input of one of
    these stages can resume there and get the same bits.

    With ``per_sample`` set, every batch-norm layer (and batch-norm half)
    normalizes each sample over (H, W) alone, which is exactly what batch
    norm computes on a batch of one; the tokens of a sample then never
    depend on the rest of the batch. A ladder that would normalize a 1x1
    map per sample, or in a batch of one, is refused: its output would be
    ``beta`` for every image.
    """
    _check_image_batch(images, config)
    p = config.patch_stride
    if (config.channel_ladder and images.shape[2:] == (p, p)
            and (per_sample or images.shape[0] == 1)):
        population = "per sample" if per_sample else "in a batch of one"
        raise ConfigError(
            f"normalizing the last {config.variant} ladder layer {population} "
            f"sees a 1x1 map at image size {p}x{p}; every image would get the same "
            "feature (use larger images, a smaller patch stride or a larger batch)"
        )
    layers = []
    x = images
    for i in range(len(config.channel_ladder)):
        x, layer = ladder_layer(x, i, config, params, per_sample)
        layers.append(layer)
    return project_tokens(x, config, params), _StemCache(config, layers, x)


def stem_backward(grad_tokens: np.ndarray, cache: _StemCache, params) -> GradPair:
    """Map a token-sequence gradient back to image and parameter gradients."""
    grad_map = _map_from_tokens(grad_tokens, *cache.map_hw)
    grad, dk, db = ops.conv2d_backward(
        grad_map, cache.proj_in, params["proj_kernel"], stride=cache.config.proj_stride
    )
    grads = {"proj_kernel": dk, "proj_bias": db}
    for padded, in_h, in_w, kernel, norm_cache, normed, i in reversed(cache.layers):
        grad = ops.activation_backward(grad, normed, "relu")
        dgamma = grads[f"norm{i}_gamma"] = np.empty(normed.shape[1])
        dbeta = grads[f"norm{i}_beta"] = np.empty(normed.shape[1])
        for channels, group_cache in norm_cache:
            grad[:, channels], dgamma[channels], dbeta[channels] = ops.normalize_backward(
                grad[:, channels], group_cache)
        grad, dk, db = ops.conv2d_backward(grad, padded, kernel, stride=LADDER_STRIDE)
        grads[f"conv{i}_kernel"] = dk
        grads[f"conv{i}_bias"] = db
        grad = _edge_pad_backward(grad, LADDER_PAD, in_h, in_w)
    return GradPair(input_grad=grad, param_grads=grads)


def stem_forward(images, config: StemConfig, params) -> np.ndarray:
    tokens, _ = stem_forward_cached(images, config, params)
    return tokens
