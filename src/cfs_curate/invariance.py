"""Deterministic photometric/geometric augmentations and linear CKA
similarity between original-corpus and augmented-corpus features.

Images are (H, W, 3) float arrays in [0, 1]; every augmentation clamps
its output back to [0, 1]. ``augment`` and ``resize_bilinear`` take one
image or an (N, H, W, 3) batch and act on the last three axes with
per-image arithmetic, so a batch gives bitwise the images a loop over
it gives. All six transforms are pure functions, so an invariance
report is reproducible bit for bit. ``invariance_report`` encodes each
(N, H, W, 3) corpus in one forward pass, its stem's batch norms taking
statistics over the whole corpus (``mode="batch"``).
``pipeline.embed_images`` instead encodes each image as its own batch
on a leading axis, so each takes its own statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from .errors import ConfigError, DegenerateFeatureError, DimensionError, RangeError
from .validation import check_image

AUGMENTATION_KINDS = ("brightness", "contrast", "saturation", "crop", "flip", "scale")

DEFAULT_MAGNITUDES = {
    "brightness": 0.3,
    "contrast": 0.5,
    "saturation": 0.5,
    "crop": 0.2,
    "flip": 0.0,  # ignored
    "scale": 0.5,
}

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class AugmentationSpec:
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in AUGMENTATION_KINDS:
            raise RangeError(f"unknown augmentation kind {self.kind!r}")
        if not math.isfinite(self.magnitude):
            raise RangeError(f"{self.kind} magnitude must be finite, got {self.magnitude}")
        if self.kind in ("crop", "scale") and not 0 <= self.magnitude < 1:
            raise RangeError(
                f"{self.kind} magnitude must be in [0, 1), got {self.magnitude}"
            )


def default_specs() -> list[AugmentationSpec]:
    return [AugmentationSpec(kind, DEFAULT_MAGNITUDES[kind]) for kind in AUGMENTATION_KINDS]


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of (..., H, W, 3) with half-pixel-centered source
    coordinates into a new C-order array. Each source row that some output
    row reads is interpolated along the columns once; the output rows then
    gather their two interpolated rows by ``take`` and blend them."""
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
    rows, source = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    read = image.take(rows, axis=-3)
    across = read.take(x0, axis=-2) * (1 - wx) + read.take(x1, axis=-2) * wx
    top = across.take(source[:out_h], axis=-3)
    bottom = across.take(source[out_h:], axis=-3)
    return top * (1 - wy) + bottom * wy


def augment(images, spec: AugmentationSpec) -> np.ndarray:
    """Apply one deterministic augmentation to an (H, W, 3) image or an
    (N, H, W, 3) batch, image by image; output clamped to [0, 1].

    brightness: add magnitude to every value.
    contrast: scale deviations from the per-image mean by (1 + magnitude).
    saturation: blend each pixel toward its luma gray by magnitude.
    crop: center-crop to the (1 - magnitude) fraction, resize back.
    flip: mirror horizontally (magnitude ignored).
    scale: bilinear downsize by (1 - magnitude), then upsize back.
    """
    images = check_image(images, allow_batch=True)
    m = spec.magnitude
    h, w = images.shape[-3:-1]
    if spec.kind == "brightness":
        out = images + m
    elif spec.kind == "contrast":
        mean = np.ascontiguousarray(images).mean(axis=(-3, -2, -1), keepdims=True)
        out = mean + (images - mean) * (1.0 + m)
    elif spec.kind == "saturation":
        luma = images @ LUMA_WEIGHTS
        out = images * (1.0 - m) + luma[..., None] * m
    elif spec.kind == "flip":
        out = images[..., ::-1, :]
    elif spec.kind == "crop":
        ch = max(1, int(round(h * (1.0 - m))))
        cw = max(1, int(round(w * (1.0 - m))))
        top = (h - ch) // 2
        left = (w - cw) // 2
        out = resize_bilinear(images[..., top:top + ch, left:left + cw, :], h, w)
    else:  # scale
        dh = max(1, int(round(h * (1.0 - m))))
        dw = max(1, int(round(w * (1.0 - m))))
        out = resize_bilinear(resize_bilinear(images, dh, dw), h, w)
    return np.clip(out, 0.0, 1.0)


def cka_linear(x, y) -> float:
    """Linear centered-kernel alignment between two feature matrices.

    Both matrices are column-centered; the score is
    ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F), symmetric in (X, Y),
    invariant to orthogonal transforms and positive isotropic scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionError("cka_linear expects 2-D feature matrices")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise DimensionError("cka_linear needs at least 2 rows")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    denom_x = np.linalg.norm(xc.T @ xc)
    denom_y = np.linalg.norm(yc.T @ yc)
    if denom_x == 0.0 or denom_y == 0.0:
        raise DegenerateFeatureError("all-zero centered feature matrix")
    return float(np.linalg.norm(yc.T @ xc) ** 2 / (denom_x * denom_y))


@dataclass(frozen=True)
class CkaEntry:
    kind: str
    magnitude: float
    score: float


@dataclass
class CkaReport:
    model_id: str
    corpus_id: str
    entries: list[CkaEntry] = field(default_factory=list)


def invariance_report(config: enc.ViTConfig, params, images, specs=None,
                      model_id="model", corpus_id="corpus", mode="batch") -> CkaReport:
    """CKA between original-corpus and augmented-corpus features.

    The corpus is encoded once, then re-encoded after each augmentation,
    each time in one forward pass; one entry per requested augmentation,
    in request order. ``mode="batch"``, the only mode, lets batch-norm
    stems see the whole corpus, which is the regime where the stem
    variants differ.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[0] < 2 or images.shape[-1] != 3:
        raise DimensionError("invariance_report needs at least 2 (H, W, 3) images")
    if mode != "batch":
        raise ConfigError(f"mode must be 'batch', got {mode!r}")
    if specs is None:
        specs = default_specs()

    def encode(batch):
        return enc.encoder_forward(batch.transpose(0, 3, 1, 2), config, params)

    base = encode(images)
    entries = []
    for spec in specs:
        entries.append(CkaEntry(
            kind=spec.kind,
            magnitude=spec.magnitude,
            score=cka_linear(base, encode(augment(images, spec))),
        ))
    return CkaReport(model_id=model_id, corpus_id=corpus_id, entries=entries)
