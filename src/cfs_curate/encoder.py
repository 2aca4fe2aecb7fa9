"""Toy vision-transformer encoder over any patch-embedding stem.

Standard pre-norm blocks: layer-norm, multi-head self-attention, residual
add, layer-norm, gelu MLP, residual add. A learned class token is
prepended to the stem's token sequence, learned positional embeddings are
added, and the per-image feature is the class token after the final
layer-norm. Features are NOT length-normalized here; cosine scoring
normalizes where it needs to.

Parameters live in a flat dict keyed "stem.<name>", "cls_token",
"pos_embed", "block<i>.<name>", "final_gamma"/"final_beta". Everything is
a pure function of (images, config, params); the backward pass is written
by hand and is exact, which the tests verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops, stems
from .errors import ConfigError, DimensionError
from .ops import GradPair
from .stems import StemConfig

# fixed as in the standard ViT: MLP width 4 * embed_dim, layer-norm eps 1e-5
MLP_RATIO = 4
LAYER_NORM_EPS = 1e-5


@dataclass(frozen=True)
class ViTConfig:
    depth: int
    heads: int
    embed_dim: int
    stem: StemConfig
    image_size: tuple[int, int]

    def __post_init__(self):
        if self.depth < 1 or self.heads < 1:
            raise ConfigError("depth and heads must be positive")
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by {self.heads} heads"
            )
        if self.embed_dim != self.stem.embed_dim:
            raise ConfigError("encoder and stem embed_dim disagree")
        object.__setattr__(self, "image_size", tuple(int(s) for s in self.image_size))
        h, w = self.image_size
        p = self.stem.patch_stride
        if h < p or w < p or h % p or w % p:
            raise ConfigError(f"image size {h}x{w} not divisible by patch stride {p}")

    @property
    def tokens(self) -> int:
        h, w = self.image_size
        p = self.stem.patch_stride
        return (h // p) * (w // p)

    @property
    def mlp_hidden(self) -> int:
        return MLP_RATIO * self.embed_dim


def init_params(seed: int, config: ViTConfig) -> dict[str, np.ndarray]:
    """Deterministic parameters for (seed, config).

    One generator drives every draw, in this order: stem kernels (layer
    order), class token, positional embeddings, then per block the qkv,
    attention-output, and two MLP kernels. Linear kernels are uniform in
    +-1/sqrt(fan-in); class token and positional embeddings are 0.02 x
    standard normal; biases start at zero and norm affines at (1, 0).
    """
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    hidden = config.mlp_hidden

    params = {
        f"stem.{key}": value
        for key, value in stems.init_stem_params(rng, config.stem).items()
    }
    params["cls_token"] = 0.02 * rng.standard_normal(d)
    params["pos_embed"] = 0.02 * rng.standard_normal((config.tokens + 1, d))

    def linear(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    for i in range(config.depth):
        params[f"block{i}.ln1_gamma"] = np.ones(d)
        params[f"block{i}.ln1_beta"] = np.zeros(d)
        params[f"block{i}.qkv_kernel"] = linear(d, 3 * d)
        params[f"block{i}.qkv_bias"] = np.zeros(3 * d)
        params[f"block{i}.attn_out_kernel"] = linear(d, d)
        params[f"block{i}.attn_out_bias"] = np.zeros(d)
        params[f"block{i}.ln2_gamma"] = np.ones(d)
        params[f"block{i}.ln2_beta"] = np.zeros(d)
        params[f"block{i}.mlp_in_kernel"] = linear(d, hidden)
        params[f"block{i}.mlp_in_bias"] = np.zeros(hidden)
        params[f"block{i}.mlp_out_kernel"] = linear(hidden, d)
        params[f"block{i}.mlp_out_bias"] = np.zeros(d)
    params["final_gamma"] = np.ones(d)
    params["final_beta"] = np.zeros(d)
    return params


def stem_subparams(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k[len("stem."):]: v for k, v in params.items() if k.startswith("stem.")}


def _linear_backward(grad_out, x, w):
    # x: (B,T,fan_in), grad_out: (B,T,fan_out)
    dx = grad_out @ w.T
    dw = np.einsum("bti,bto->io", x, grad_out)
    db = grad_out.sum(axis=(0, 1))
    return dx, dw, db


def _linear(x, params, name):
    """``x @ kernel + bias`` for the linear layer ``name``, either
    parameter possibly stacked (:func:`ops.per_probe`)."""
    kernel = ops.per_probe(params[f"{name}_kernel"], 2, x.ndim)
    return x @ kernel + ops.per_probe(params[f"{name}_bias"], 1, x.ndim)


def _attention_forward(y, params, prefix, heads):
    *lead, t, d = y.shape
    dh = d // heads
    qkv = _linear(y, params, f"{prefix}.qkv")

    def split(z):
        return np.ascontiguousarray(z.reshape(*lead, t, heads, dh).swapaxes(-3, -2))

    q, k, v = split(qkv[..., :d]), split(qkv[..., d:2 * d]), split(qkv[..., 2 * d:])
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(dh)
    attn = ops.softmax(scores)
    ctx = attn @ v
    merged = np.ascontiguousarray(ctx.swapaxes(-3, -2)).reshape(*lead, t, d)
    out = _linear(merged, params, f"{prefix}.attn_out")
    cache = (y, q, k, v, attn, merged)
    return out, cache


def _attention_backward(grad_out, cache, params, prefix, heads):
    y, q, k, v, attn, merged = cache
    b, t, d = y.shape
    dh = d // heads

    dmerged, dw_out, db_out = _linear_backward(
        grad_out, merged, params[f"{prefix}.attn_out_kernel"]
    )
    dctx = np.ascontiguousarray(dmerged.reshape(b, t, heads, dh).transpose(0, 2, 1, 3))
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dscores = ops.softmax_backward(dattn, attn)
    dq = dscores @ k / np.sqrt(dh)
    dk = dscores.swapaxes(-1, -2) @ q / np.sqrt(dh)

    def merge(z):
        return np.ascontiguousarray(z.transpose(0, 2, 1, 3)).reshape(b, t, dh * heads)

    dqkv = np.concatenate([merge(dq), merge(dk), merge(dv)], axis=-1)
    dy, dw_qkv, db_qkv = _linear_backward(dqkv, y, params[f"{prefix}.qkv_kernel"])
    grads = {
        f"{prefix}.qkv_kernel": dw_qkv,
        f"{prefix}.qkv_bias": db_qkv,
        f"{prefix}.attn_out_kernel": dw_out,
        f"{prefix}.attn_out_bias": db_out,
    }
    return dy, grads


def encoder_forward_cached(images, config: ViTConfig, params):
    """Forward pass keeping every intermediate needed by encoder_backward:
    :func:`stems.stem_forward_cached`, then :func:`forward_from_tokens`.

    Returns ``(features, cache)`` with features of shape (B, D). Images
    may carry batch axes before (B, 3, H, W), as in
    :func:`stems.stem_forward_cached`: features are then (..., B, D), each
    leading index bitwise its own 4-D call, so an (N, 1, 3, H, W) input
    gives each image the feature of a batch of one.
    :func:`encoder_backward` reads the cache of a 4-D call only.
    """
    images = np.asarray(images, dtype=np.float64)
    stems._check_image_batch(images, config.stem)
    if images.shape[-2:] != config.image_size:
        raise DimensionError(
            f"images are {images.shape[-2]}x{images.shape[-1]}, "
            f"config expects {config.image_size[0]}x{config.image_size[1]}"
        )
    tokens, stem_cache = stems.stem_forward_cached(images, config.stem, stem_subparams(params))
    features, head_cache = forward_from_tokens(tokens, config, params)
    return features, (config, stem_cache, *head_cache)


def forward_from_tokens(tokens, config: ViTConfig, params):
    """The encoder after the stem: class token, positional embeddings, the
    blocks and the final layer-norm on a (B, T, D) token sequence.

    Returns ``(features, cache)``, the cache holding what
    :func:`encoder_backward` reads of this part.

    ``tokens`` may carry batch axes before B, and any parameter probe axes
    to match (:func:`ops.per_probe`): features are then (..., B, D), each
    leading index bitwise its own (B, T, D) call. :func:`encoder_backward`
    reads the cache of an unstacked (B, T, D) call only.
    """
    *lead, t, d = tokens.shape
    cls = np.broadcast_to(ops.per_probe(params["cls_token"], 1, tokens.ndim), (*lead, 1, d))
    x = np.concatenate([cls, tokens], axis=-2) + ops.per_probe(params["pos_embed"], 2, tokens.ndim)

    block_caches = []
    for i in range(config.depth):
        prefix = f"block{i}"
        y, ln1_cache = ops.normalize_cached(
            x, "layer", params[f"{prefix}.ln1_gamma"], params[f"{prefix}.ln1_beta"],
            LAYER_NORM_EPS,
        )
        attn_out, attn_cache = _attention_forward(y, params, prefix, config.heads)
        x_mid = x + attn_out
        z, ln2_cache = ops.normalize_cached(
            x_mid, "layer", params[f"{prefix}.ln2_gamma"], params[f"{prefix}.ln2_beta"],
            LAYER_NORM_EPS,
        )
        pre_act = _linear(z, params, f"{prefix}.mlp_in")
        hidden = ops.activation(pre_act, "gelu")
        mlp_out = _linear(hidden, params, f"{prefix}.mlp_out")
        x_out = x_mid + mlp_out
        block_caches.append((ln1_cache, attn_cache, ln2_cache, z, pre_act, hidden))
        x = x_out

    normed, final_cache = ops.normalize_cached(
        x, "layer", params["final_gamma"], params["final_beta"], LAYER_NORM_EPS
    )
    return normed[..., 0, :].copy(), (block_caches, final_cache, normed.shape)


def encoder_backward(grad_features, cache, params) -> GradPair:
    """Gradient of a scalar loss wrt images and every parameter.

    ``grad_features`` is the loss gradient at the (B, D) feature output
    of a 4-D forward; the cache of a forward with leading batch axes is
    refused.
    """
    config, stem_cache, block_caches, final_cache, out_shape = cache
    if len(out_shape) != 3:
        raise DimensionError("encoder_backward reads the cache of a 4-D (B, 3, H, W) forward "
                             f"only, got batch axes {out_shape[:-2]}")
    grads: dict[str, np.ndarray] = {}

    grad_normed = np.zeros(out_shape)
    grad_normed[:, 0, :] = grad_features
    grad_x, dg, db = ops.normalize_backward(grad_normed, final_cache)
    grads["final_gamma"] = dg
    grads["final_beta"] = db

    for i in reversed(range(config.depth)):
        prefix = f"block{i}"
        ln1_cache, attn_cache, ln2_cache, z, pre_act, hidden = block_caches[i]

        dhidden, dw, dbias = _linear_backward(
            grad_x, hidden, params[f"{prefix}.mlp_out_kernel"]
        )
        grads[f"{prefix}.mlp_out_kernel"] = dw
        grads[f"{prefix}.mlp_out_bias"] = dbias
        dpre = ops.activation_backward(dhidden, pre_act, "gelu")
        dz, dw, dbias = _linear_backward(dpre, z, params[f"{prefix}.mlp_in_kernel"])
        grads[f"{prefix}.mlp_in_kernel"] = dw
        grads[f"{prefix}.mlp_in_bias"] = dbias
        dx_mid, dg, db = ops.normalize_backward(dz, ln2_cache)
        grads[f"{prefix}.ln2_gamma"] = dg
        grads[f"{prefix}.ln2_beta"] = db
        dx_mid = dx_mid + grad_x

        dy, attn_grads = _attention_backward(
            dx_mid, attn_cache, params, prefix, config.heads
        )
        grads.update(attn_grads)
        dx, dg, db = ops.normalize_backward(dy, ln1_cache)
        grads[f"{prefix}.ln1_gamma"] = dg
        grads[f"{prefix}.ln1_beta"] = db
        grad_x = dx + dx_mid

    grads["pos_embed"] = grad_x.sum(axis=0)
    grads["cls_token"] = grad_x[:, 0, :].sum(axis=0)
    stem_pair = stems.stem_backward(grad_x[:, 1:, :], stem_cache, stem_subparams(params))
    for key, value in stem_pair.param_grads.items():
        grads[f"stem.{key}"] = value
    return GradPair(input_grad=stem_pair.input_grad, param_grads=grads)


def encoder_forward(images, config: ViTConfig, params) -> np.ndarray:
    features, _ = encoder_forward_cached(images, config, params)
    return features

