"""Shared test helpers."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cfs_curate import cli, encoder, formats, ops, pipeline, stems, synth
from cfs_curate.errors import ConfigError, FormatError, RangeError
from cfs_curate.invariance import LUMA_WEIGHTS, AugmentationSpec
from cfs_curate.validation import check_image
from cfs_curate.ops import GradPair


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_stacked_call_equals_separate_calls(rng, call, x, param):
    """``call(x, param)`` on three perturbed copies stacked on a new
    leading axis, with ``x`` broadcast to match, against one unstacked
    call per copy; with ``param`` None the copies are of ``x``. The
    stacked call's slice p must be bitwise the call on copy p."""
    value = x if param is None else param
    stacked = value + 0.1 * rng.normal(size=(3, *value.shape))
    if param is None:
        out = call(stacked, None)
        expect = [call(one, None) for one in stacked]
    else:
        out = call(np.broadcast_to(x, (3, *x.shape)), stacked)
        expect = [call(x, one) for one in stacked]
    for p in range(3):
        assert_bitwise_equal(out[p], expect[p])


def relu_margin(stem_cache) -> float:
    """Smallest |pre-relu activation| in a cached stem forward pass.

    Finite differences at step h straddle the relu kink whenever an
    activation sits within h of zero, so gradient-check inputs are
    redrawn until this margin clears a safety band.
    """
    margins = [np.abs(layer[5]).min() for layer in stem_cache.layers]
    return float(min(margins)) if margins else float("inf")


def kink_safe_images(rng, stem_config, stem_params, shape, band=1e-3, max_tries=100):
    """Draw an image batch whose stem pre-relu activations all clear ``band``."""
    for _ in range(max_tries):
        images = rng.uniform(0.05, 0.95, shape)
        _, cache = stems.stem_forward_cached(images, stem_config, stem_params)
        if relu_margin(cache) > band:
            return images
    raise AssertionError(f"no kink-safe batch found in {max_tries} tries")


def einsum_conv2d(x, kernel, bias, stride=1):
    """ops.conv2d as computed before it became one GEMM per sample: a single
    batched einsum, whose rows can differ from single-sample results by a
    few ulps at large K. Reference for the pre-batching encoder."""
    o, c, kh, kw = kernel.shape
    cols = ops._im2col(x, kh, kw, stride)
    out = np.einsum("ok,bkl->bol", kernel.reshape(o, c * kh * kw), cols, optimize=True)
    h_out = (x.shape[2] - kh) // stride + 1
    w_out = (x.shape[3] - kw) // stride + 1
    return (out + bias[None, :, None]).reshape(x.shape[0], o, h_out, w_out)


def batch_of_one_loop(images, config, params):
    """Features of the former per_image encoding: one forward per image."""
    return np.stack([encoder.encoder_forward(images[i:i + 1], config, params)[0]
                     for i in range(images.shape[0])])


def add_at_conv2d_backward(grad_out, x, kernel, stride=1):
    """ops.conv2d_backward as computed before its input gradient became
    kh*kw strided slice-adds: one np.add.at scatter of every column
    gradient into the input. Reference for bitwise equality."""
    b, c = x.shape[:2]
    o, _, kh, kw = kernel.shape
    h_out, w_out = grad_out.shape[2], grad_out.shape[3]
    cols = ops._im2col(x, kh, kw, stride)
    kmat = kernel.reshape(o, c * kh * kw)
    gmat = grad_out.reshape(b, o, h_out * w_out)
    dbias = grad_out.sum(axis=(0, 2, 3))
    dkernel = np.einsum("bol,bkl->ok", gmat, cols, optimize=True).reshape(kernel.shape)
    dcols = np.einsum("ok,bol->bkl", kmat, gmat, optimize=True)
    chan = np.repeat(np.arange(c), kh * kw)[:, None]
    ki = np.tile(np.repeat(np.arange(kh), kw), c)
    kj = np.tile(np.tile(np.arange(kw), kh), c)
    oi = stride * np.repeat(np.arange(h_out), w_out)
    oj = stride * np.tile(np.arange(w_out), h_out)
    rows = ki[:, None] + oi[None, :]
    colidx = kj[:, None] + oj[None, :]
    dx = np.zeros_like(x)
    np.add.at(dx, (slice(None), chan, rows, colidx), dcols)
    return dx, dkernel, dbias


def add_at_edge_pad_backward(grad_padded: np.ndarray, pad: int, h: int, w: int) -> np.ndarray:
    """stems._edge_pad_backward as computed before the slice folds: one
    np.add.at scatter of the padded gradient onto the clipped source
    pixels. Reference within a stated rounding tolerance."""
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


def long_form_normalize_cached(x, mode, gamma, beta, eps=1e-5):
    """ops.normalize_cached as computed before its cache held only what the
    backward reads: the centered input and the population size cached
    too. Reference for bitwise-equal outputs."""
    axes, _, pshape, count = ops._norm_setup(x, mode, gamma, beta)
    mean = x.sum(axis=axes, keepdims=True) / count
    centered = x - mean
    var = (centered * centered).sum(axis=axes, keepdims=True) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = gamma.reshape(pshape) * xhat + beta.reshape(pshape)
    cache = (xhat, centered, inv_std, gamma, axes, pshape, count)
    return out, cache


def long_form_normalize_backward(grad_out: np.ndarray, cache):
    """ops.normalize_backward as computed before the three-term form: the
    dvar/dmean chain, with the parameter axes guessed as every axis where
    the broadcast shape is 1 (so one channel gives 0-d dgamma/dbeta).
    Reference within a stated rounding tolerance."""
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


def loop_kmeans_fit(features, k: int, seed: int, max_iter: int = 100, tol: float = 1e-6,
                    history: list | None = None) -> np.ndarray:
    """selection.kmeans_fit as computed before GEMM-form Lloyd rounds: an
    N x k x d difference tensor per round and one masked mean per cluster.
    Reference for bitwise equality."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise RangeError(f"features must be a nonempty N x d matrix, got {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise RangeError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = x[idx]
        closest = np.minimum(closest, ((x - centers[j]) ** 2).sum(axis=1))

    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        assign = d2.argmin(axis=1)
        if history is not None:
            history.append(float(d2[np.arange(n), assign].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = x[assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < tol:
            break
    return centers


def add_at_kmeans_fit(features, k: int, seed: int, max_iter: int = 100, tol: float = 1e-6,
                      history: list | None = None) -> np.ndarray:
    """selection.kmeans_fit as computed before per-column bincount sums:
    GEMM-form rounds whose center sums are one np.add.at scatter of the
    rows. Reference for bitwise equality of centers and history."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise RangeError(f"features must be a nonempty N x d matrix, got {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise RangeError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = x[idx]
        closest = np.minimum(closest, ((x - centers[j]) ** 2).sum(axis=1))

    x_sq = (x * x).sum(axis=1)[:, None]
    for _ in range(max_iter):
        d2 = x @ centers.T
        d2 *= -2.0
        d2 += x_sq
        d2 += (centers * centers).sum(axis=1)
        assign = d2.argmin(axis=1)
        del d2
        if history is not None:
            history.append(float(((x - centers[assign]) ** 2).sum(axis=-1).sum()))
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)
        counts = np.bincount(assign, minlength=k)
        kept = counts > 0
        new_centers = centers.copy()
        new_centers[kept] = sums[kept] / counts[kept, None]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < tol:
            break
    return centers


def loop_ppm_tokens(data: bytes, path):
    """formats._ppm_tokens as computed before the one-regex token match: a
    byte-by-byte loop. Reference for equal tokens, offsets and messages."""
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header")
        byte = data[pos:pos + 1]
        if byte in b" \t\r\n":
            pos += 1
        elif byte == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and data[pos:pos + 1] not in b" \t\r\n#":
                pos += 1
            tokens.append(data[start:pos])
    # exactly one whitespace byte separates maxval from the payload
    if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
        raise FormatError(f"{path}: missing whitespace before payload")
    return tokens, pos + 1


def branched_init_stem_params(seed, config):
    """stems.init_stem_params as computed before patchify became the empty
    ladder: its own branch with ``patch_kernel``/``patch_bias``. Reference
    for bitwise equality."""
    rng = np.random.default_rng(seed)

    def kernel(out_c, in_c, kh, kw):
        bound = 1.0 / np.sqrt(in_c * kh * kw)
        return rng.uniform(-bound, bound, size=(out_c, in_c, kh, kw))

    p = config.patch_stride
    d = config.embed_dim
    if config.variant == "patchify":
        return {
            "patch_kernel": kernel(d, 3, p, p),
            "patch_bias": np.zeros(d),
        }
    params = {}
    in_c = 3
    for i, out_c in enumerate(config.channel_ladder):
        params[f"conv{i}_kernel"] = kernel(out_c, in_c, stems.LADDER_KERNEL, stems.LADDER_KERNEL)
        params[f"conv{i}_bias"] = np.zeros(out_c)
        params[f"norm{i}_gamma"] = np.ones(out_c)
        params[f"norm{i}_beta"] = np.zeros(out_c)
        in_c = out_c
    params["proj_kernel"] = kernel(d, in_c, 1, 1)
    params["proj_bias"] = np.zeros(d)
    return params


@dataclass
class BranchedStemCache:
    config: stems.StemConfig
    images: np.ndarray
    layers: list = field(default_factory=list)
    proj_in: np.ndarray | None = None
    map_hw: tuple[int, int] = (0, 0)


def branched_stem_forward_cached(images, config, params, per_sample=False):
    """stems.stem_forward_cached as computed before the one code path: a
    patchify branch and a "split"/"full" branch per ladder layer. Takes
    patchify parameters as ``patch_*``. Reference for bitwise equality."""
    stems._check_image_batch(images, config)
    cache = BranchedStemCache(config=config, images=images)
    if config.variant == "patchify":
        fmap = ops.conv2d(
            images, params["patch_kernel"], params["patch_bias"],
            stride=config.patch_stride,
        )
        cache.map_hw = fmap.shape[2:]
        return stems._tokens_from_map(fmap), cache

    p = config.patch_stride
    if images.shape[2:] == (p, p) and (per_sample or images.shape[0] == 1):
        population = "per sample" if per_sample else "in a batch of one"
        raise ConfigError(
            f"normalizing the last {config.variant} ladder layer {population} "
            f"sees a 1x1 map at image size {p}x{p}; every image would get the same "
            "feature (use larger images, a smaller patch stride or a larger batch)"
        )
    bn_mode = "instance" if per_sample else "batch"
    x = images
    split = config.split_layers
    for i, out_c in enumerate(config.channel_ladder):
        kernel = params[f"conv{i}_kernel"]
        padded = stems._edge_pad(x, stems.LADDER_PAD)
        conv_out = ops.conv2d(
            padded, kernel, params[f"conv{i}_bias"], stride=stems.LADDER_STRIDE
        )
        gamma = params[f"norm{i}_gamma"]
        beta = params[f"norm{i}_beta"]
        if i < split:
            half = out_c // 2
            in_out, in_cache = ops.normalize_cached(
                conv_out[:, :half], "instance", gamma[:half], beta[:half], config.eps
            )
            bn_out, bn_cache = ops.normalize_cached(
                conv_out[:, half:], bn_mode, gamma[half:], beta[half:], config.eps
            )
            normed = np.concatenate([in_out, bn_out], axis=1)
            norm_cache = ("split", half, in_cache, bn_cache)
        else:
            normed, single = ops.normalize_cached(
                conv_out, bn_mode, gamma, beta, config.eps
            )
            norm_cache = ("full", None, single, None)
        act = ops.activation(normed, "relu")
        cache.layers.append((padded, x.shape[2], x.shape[3], kernel, norm_cache, normed, i))
        x = act
    cache.proj_in = x
    fmap = ops.conv2d(x, params["proj_kernel"], params["proj_bias"], stride=1)
    cache.map_hw = fmap.shape[2:]
    return stems._tokens_from_map(fmap), cache


def branched_stem_backward(grad_tokens, cache, params):
    """stems.stem_backward as computed before the one code path, on a
    branched_stem_forward_cached cache. Reference for bitwise equality."""
    config = cache.config
    grad_map = stems._map_from_tokens(grad_tokens, *cache.map_hw)
    grads = {}
    if config.variant == "patchify":
        dx, dk, db = ops.conv2d_backward(
            grad_map, cache.images, params["patch_kernel"],
            stride=config.patch_stride,
        )
        grads["patch_kernel"] = dk
        grads["patch_bias"] = db
        return GradPair(input_grad=dx, param_grads=grads)

    dx, dk, db = ops.conv2d_backward(grad_map, cache.proj_in, params["proj_kernel"], 1)
    grads["proj_kernel"] = dk
    grads["proj_bias"] = db
    grad = dx
    for padded, in_h, in_w, kernel, norm_cache, normed, i in reversed(cache.layers):
        grad = ops.activation_backward(grad, normed, "relu")
        kind, half, cache_a, cache_b = norm_cache
        if kind == "split":
            d_in, dg_in, db_in = ops.normalize_backward(grad[:, :half], cache_a)
            d_bn, dg_bn, db_bn = ops.normalize_backward(grad[:, half:], cache_b)
            grad = np.concatenate([d_in, d_bn], axis=1)
            grads[f"norm{i}_gamma"] = np.concatenate([dg_in, dg_bn])
            grads[f"norm{i}_beta"] = np.concatenate([db_in, db_bn])
        else:
            grad, dg, dbeta = ops.normalize_backward(grad, cache_a)
            grads[f"norm{i}_gamma"] = dg
            grads[f"norm{i}_beta"] = dbeta
        grad, dk, db = ops.conv2d_backward(
            grad, padded, kernel, stride=stems.LADDER_STRIDE
        )
        grads[f"conv{i}_kernel"] = dk
        grads[f"conv{i}_bias"] = db
        grad = stems._edge_pad_backward(grad, stems.LADDER_PAD, in_h, in_w)
    return GradPair(input_grad=grad, param_grads=grads)


def np_pad_edge_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """stems._edge_pad as computed before the slice-copy fill: one
    np.pad in edge mode. Reference for bitwise equality."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="edge")


def sliding_window_im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """ops._im2col as computed before the single strided view: the
    window -> slice -> transpose -> reshape chain. Reference for bitwise
    equality."""
    b, c = xp.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    h_out, w_out = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, h_out * w_out)
    return np.ascontiguousarray(cols)


def single_image_resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """invariance.resize_bilinear as computed before it took batches: one
    (H, W, 3) image. Reference for bitwise equality."""
    if out_h < 1 or out_w < 1:
        raise RangeError(f"target size {out_h}x{out_w} must be positive")
    h, w = image.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def fancy_index_resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """invariance.resize_bilinear as computed before its ``take`` gathers:
    fancy indexing, whose column gather puts the output's W axis
    outermost in memory. Reference for bitwise-equal values."""
    if out_h < 1 or out_w < 1:
        raise RangeError(f"target size {out_h}x{out_w} must be positive")
    h, w = image.shape[-3:-1]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    upper = image[..., y0, :, :]
    lower = image[..., y1, :, :]
    top = upper[..., x0, :] * (1 - wx) + upper[..., x1, :] * wx
    bottom = lower[..., x0, :] * (1 - wx) + lower[..., x1, :] * wx
    return top * (1 - wy) + bottom * wy


def take_resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """invariance.resize_bilinear as computed before it interpolated each
    source row once: rows y0 and y1 gathered first, then the columns of
    both interpolated per output row. Reference for bitwise equality."""
    if out_h < 1 or out_w < 1:
        raise RangeError(f"target size {out_h}x{out_w} must be positive")
    h, w = image.shape[-3:-1]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    upper = image.take(y0, axis=-3)
    lower = image.take(y1, axis=-3)
    top = upper.take(x0, axis=-2) * (1 - wx) + upper.take(x1, axis=-2) * wx
    bottom = lower.take(x0, axis=-2) * (1 - wx) + lower.take(x1, axis=-2) * wx
    return top * (1 - wy) + bottom * wy


def _fancy_index_draw_image(rng, height: int, width: int) -> np.ndarray:
    # synth._draw_image over the fancy-index resize, so a W-major image
    base = rng.uniform(0.15, 0.85, size=3)
    texture = rng.normal(0.0, 0.08, size=(4, 4, 3))
    canvas = base + fancy_index_resize_bilinear(texture, height, width)
    for _ in range(int(rng.integers(1, 4))):
        fig_h = int(rng.integers(max(1, height // 8), max(2, height // 2)))
        fig_w = int(rng.integers(max(1, width // 8), max(2, width // 2)))
        top = int(rng.integers(0, max(1, height - fig_h)))
        left = int(rng.integers(0, max(1, width - fig_w)))
        canvas[top:top + fig_h, left:left + fig_w] = rng.uniform(0.0, 1.0, size=3)
    return np.clip(canvas, 0.0, 1.0)


def stacked_synth_corpus(seed, n_per_domain, height, width, shift=None,
                         extreme_fraction=0.1, value_range=(0.0, 1.0)) -> synth.SynthCorpus:
    """synth.synth_corpus as computed before it filled its batches in
    place: per-domain image lists over the fancy-index resize, np.stack,
    then a scaled copy. Takes valid arguments only. Reference for
    bitwise equality."""
    lo, hi = value_range
    shift = shift or synth.ShiftSpec()
    rng = np.random.default_rng(seed)

    n_extreme = int(np.floor(extreme_fraction * n_per_domain))
    first_extreme = n_per_domain - n_extreme

    source, extreme_ids = [], []
    for i in range(n_per_domain):
        image = _fancy_index_draw_image(rng, height, width)
        if i >= first_extreme:
            sign = 1.0 if i % 2 == 0 else -1.0
            image = synth._apply_shift(image, rng, sign * synth.EXTREME_BRIGHTNESS,
                                       synth.EXTREME_HUE, synth.EXTREME_NOISE)
            extreme_ids.append(f"src-{i:04d}")
        source.append(image)

    target = []
    for _ in range(n_per_domain):
        image = _fancy_index_draw_image(rng, height, width)
        target.append(synth._apply_shift(image, rng, shift.brightness_offset,
                                         shift.hue_rotation, shift.noise_sigma))

    empty = np.zeros((0, height, width, 3))
    squeeze = lambda batch: lo + (hi - lo) * batch
    return synth.SynthCorpus(
        source_images=squeeze(np.stack(source)) if source else empty,
        source_ids=[f"src-{i:04d}" for i in range(n_per_domain)],
        target_images=squeeze(np.stack(target)) if target else empty,
        target_ids=[f"tgt-{i:04d}" for i in range(n_per_domain)],
        extreme_ids=extreme_ids,
    )


def stacked_load_images(paths) -> np.ndarray:
    """cli._load_images as computed before it filled one batch in place: a
    list of per-image arrays, then their np.stack copy. Reference for
    bitwise equality."""
    images = [formats.read_image_ppm(Path(raw)) for raw in paths]
    shapes = {img.shape for img in images}
    if len(shapes) > 1:
        raise RangeError(f"images disagree on shape: {sorted(shapes)}")
    return np.stack(images)


def single_image_augment(image, spec: AugmentationSpec) -> np.ndarray:
    """invariance.augment as computed before it took batches: one
    (H, W, 3) image. Reference for bitwise equality."""
    image = check_image(image)
    m = spec.magnitude
    if spec.kind == "brightness":
        out = image + m
    elif spec.kind == "contrast":
        mean = image.mean()
        out = mean + (image - mean) * (1.0 + m)
    elif spec.kind == "saturation":
        luma = image @ LUMA_WEIGHTS
        out = image * (1.0 - m) + luma[:, :, None] * m
    elif spec.kind == "flip":
        out = image[:, ::-1, :]
    elif spec.kind == "crop":
        h, w = image.shape[:2]
        ch = max(1, int(round(h * (1.0 - m))))
        cw = max(1, int(round(w * (1.0 - m))))
        top = (h - ch) // 2
        left = (w - cw) // 2
        out = single_image_resize_bilinear(image[top:top + ch, left:left + cw], h, w)
    else:  # scale
        h, w = image.shape[:2]
        dh = max(1, int(round(h * (1.0 - m))))
        dw = max(1, int(round(w * (1.0 - m))))
        out = single_image_resize_bilinear(single_image_resize_bilinear(image, dh, dw), h, w)
    return np.clip(out, 0.0, 1.0)


def hh_disagreement_rates(hypothesis_class, samples) -> np.ndarray:
    """divergence._disagreement_rates as computed before the row blocks:
    the whole H x H rate matrix. Reference for bitwise equality."""
    p = hypothesis_class.predict_matrix(samples)
    ones = p.sum(axis=1)
    rates = p @ p.T
    rates *= -2.0
    rates += ones[:, None]
    rates += ones
    rates /= p.shape[1]
    return rates


def hh_hdh_empirical(u1, u2, hypothesis_class) -> float:
    """divergence.hdh_empirical as computed before the row blocks: two
    H x H rate matrices. Reference for bitwise equality."""
    gaps = hh_disagreement_rates(hypothesis_class, u1)
    gaps -= hh_disagreement_rates(hypothesis_class, u2)
    return float(np.abs(gaps, out=gaps).max())


def full_forward_gradient_self_test(variant: str) -> float:
    """cli._gradient_self_test as computed before the probes resumed at
    the perturbed stage: one full encoder_forward per probe. Reference
    for bitwise equality."""
    rng = np.random.default_rng(cli.CHECK_PROBE_SEED)
    config = pipeline.default_vit_config(variant, (8, 8), embed_dim=16, depth=1, patch_stride=8)
    params = encoder.init_params(cli.CHECK_PROBE_SEED, config)
    images = rng.uniform(0.05, 0.95, size=(2, 3, 8, 8))
    weight = rng.normal(size=(2, config.embed_dim))

    def loss(p):
        return float(np.sum(encoder.encoder_forward(images, config, p) * weight))

    features, cache = encoder.encoder_forward_cached(images, config, params)
    grads = encoder.encoder_backward(weight, cache, params)

    worst = 0.0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        picks = rng.choice(flat.size, size=min(cli.CHECK_COORDS_PER_TENSOR, flat.size),
                           replace=False)
        original = flat[picks].copy()

        def loss_at_picks(values):
            flat[picks] = values
            return loss(params)

        try:
            fd = ops.fd_gradient(loss_at_picks, original)
        finally:
            flat[picks] = original
        analytic = grads.param_grads[key].reshape(-1)[picks]
        worst = max(worst, ops.max_relative_error(analytic, fd))
    return worst
