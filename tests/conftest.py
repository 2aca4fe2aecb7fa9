"""Shared test helpers."""

import numpy as np

from cfs_curate import encoder, ops, stems
from cfs_curate.errors import FormatError, RangeError


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


def einsum_conv2d(x, kernel, bias, stride=1, pad=0):
    """ops.conv2d as computed before it became one GEMM per sample: a single
    batched einsum, whose rows can differ from single-sample results by a
    few ulps at large K. Reference for the pre-batching encoder."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    o, c, kh, kw = kernel.shape
    cols = ops._im2col(xp, kh, kw, stride)
    out = np.einsum("ok,bkl->bol", kernel.reshape(o, c * kh * kw), cols, optimize=True)
    h_out = (xp.shape[2] - kh) // stride + 1
    w_out = (xp.shape[3] - kw) // stride + 1
    return (out + bias[None, :, None]).reshape(x.shape[0], o, h_out, w_out)


def batch_of_one_loop(images, config, params):
    """Features of the former per_image encoding: one forward per image."""
    return np.stack([encoder.encoder_forward(images[i:i + 1], config, params)[0]
                     for i in range(images.shape[0])])


def add_at_conv2d_backward(grad_out, x, kernel, stride=1, pad=0):
    """ops.conv2d_backward as computed before its input gradient became
    kh*kw strided slice-adds: one np.add.at scatter of every column
    gradient into the padded input. Reference for bitwise equality."""
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    h_out, w_out = grad_out.shape[2], grad_out.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = ops._im2col(xp, kh, kw, stride)
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
    dxp = np.zeros_like(xp)
    np.add.at(dxp, (slice(None), chan, rows, colidx), dcols)
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx, dkernel, dbias


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
