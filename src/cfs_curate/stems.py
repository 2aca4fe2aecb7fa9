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

Every ladder layer normalizes its channels ``[:half]`` by instance and
``[half:]`` by batch (or per sample), with ``half`` zero on the layers
that are not split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Replicate the border of (B, C, H, W) ``pad`` times on each side.

    Slice copies into one preallocated array: the interior, then the top
    and bottom rows, then the full-height left and right columns, which
    fill the corners from the rows just copied.
    """
    b, c, h, w = x.shape
    out = np.empty((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad:pad + h, pad:pad + w] = x
    out[:, :, :pad, pad:pad + w] = x[:, :, :1]
    out[:, :, pad + h:, pad:pad + w] = x[:, :, -1:]
    out[:, :, :, :pad] = out[:, :, :, pad:pad + 1]
    out[:, :, :, pad + w:] = out[:, :, :, pad + w - 1:pad + w]
    return out


def _edge_pad_backward(grad_padded: np.ndarray, pad: int, h: int, w: int) -> np.ndarray:
    b, c, hp, wp = grad_padded.shape
    rows = np.clip(np.arange(hp) - pad, 0, h - 1)
    cols = np.clip(np.arange(wp) - pad, 0, w - 1)
    dx = np.zeros((b, c, h, w))
    np.add.at(
        dx,
        (
            np.arange(b)[:, None, None, None],
            np.arange(c)[None, :, None, None],
            rows[None, None, :, None],
            cols[None, None, None, :],
        ),
        grad_padded,
    )
    return dx


def _tokens_from_map(fmap: np.ndarray) -> np.ndarray:
    # (B, D, H', W') -> (B, H'*W', D), spatial positions in row-major order
    b, d, h, w = fmap.shape
    return np.ascontiguousarray(fmap.reshape(b, d, h * w).transpose(0, 2, 1))


def _map_from_tokens(grad_tokens: np.ndarray, h: int, w: int) -> np.ndarray:
    b, t, d = grad_tokens.shape
    return np.ascontiguousarray(grad_tokens.transpose(0, 2, 1).reshape(b, d, h, w))


@dataclass
class _StemCache:
    config: StemConfig
    layers: list = field(default_factory=list)
    proj_in: np.ndarray | None = None
    map_hw: tuple[int, int] = (0, 0)


def stem_forward_cached(images, config: StemConfig, params, per_sample=False):
    """Run any stem variant, keeping what the backward pass needs.

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
    cache = _StemCache(config=config)
    bn_mode = "instance" if per_sample else "batch"
    x = images
    for i, out_c in enumerate(config.channel_ladder):
        kernel = params[f"conv{i}_kernel"]
        padded = _edge_pad(x, LADDER_PAD)
        conv_out = ops.conv2d(padded, kernel, params[f"conv{i}_bias"], stride=LADDER_STRIDE)
        gamma = params[f"norm{i}_gamma"]
        beta = params[f"norm{i}_beta"]
        half = out_c // 2 if i < config.split_layers else 0
        in_out, in_cache = ops.normalize_cached(
            conv_out[:, :half], "instance", gamma[:half], beta[:half], config.eps
        )
        bn_out, bn_cache = ops.normalize_cached(
            conv_out[:, half:], bn_mode, gamma[half:], beta[half:], config.eps
        )
        normed = np.concatenate([in_out, bn_out], axis=1)
        act = ops.activation(normed, "relu")
        norm_cache = (half, in_cache, bn_cache)
        cache.layers.append((padded, x.shape[2], x.shape[3], kernel, norm_cache, normed, i))
        x = act
    cache.proj_in = x
    fmap = ops.conv2d(x, params["proj_kernel"], params["proj_bias"], stride=config.proj_stride)
    cache.map_hw = fmap.shape[2:]
    return _tokens_from_map(fmap), cache


def stem_backward(grad_tokens: np.ndarray, cache: _StemCache, params) -> GradPair:
    """Map a token-sequence gradient back to image and parameter gradients."""
    grad_map = _map_from_tokens(grad_tokens, *cache.map_hw)
    grad, dk, db = ops.conv2d_backward(
        grad_map, cache.proj_in, params["proj_kernel"], stride=cache.config.proj_stride
    )
    grads = {"proj_kernel": dk, "proj_bias": db}
    for padded, in_h, in_w, kernel, norm_cache, normed, i in reversed(cache.layers):
        grad = ops.activation_backward(grad, normed, "relu")
        half, in_cache, bn_cache = norm_cache
        d_in, dg_in, db_in = ops.normalize_backward(grad[:, :half], in_cache)
        d_bn, dg_bn, db_bn = ops.normalize_backward(grad[:, half:], bn_cache)
        grad = np.concatenate([d_in, d_bn], axis=1)
        grads[f"norm{i}_gamma"] = np.concatenate([dg_in, dg_bn])
        grads[f"norm{i}_beta"] = np.concatenate([db_in, db_bn])
        grad, dk, db = ops.conv2d_backward(grad, padded, kernel, stride=LADDER_STRIDE)
        grads[f"conv{i}_kernel"] = dk
        grads[f"conv{i}_bias"] = db
        grad = _edge_pad_backward(grad, LADDER_PAD, in_h, in_w)
    return GradPair(input_grad=grad, param_grads=grads)


def stem_forward(images, config: StemConfig, params) -> np.ndarray:
    tokens, _ = stem_forward_cached(images, config, params)
    return tokens
