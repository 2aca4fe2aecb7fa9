"""Seeded synthetic two-domain image corpus.

Images are colored rectangles over a low-frequency textured background.
Source and target domains draw from the same process; the target then
receives a configurable appearance shift (channel offset, hue rotation,
pixel noise). A configurable fraction of source images, always the last
ones by index, additionally receives an extreme shift, standing in for
the low-quality, heavily biased tail of a web-scraped corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError
from .invariance import resize_bilinear

EXTREME_BRIGHTNESS = 0.45
EXTREME_HUE = np.pi
EXTREME_NOISE = 0.3


@dataclass(frozen=True)
class ShiftSpec:
    brightness_offset: float = 0.0
    hue_rotation: float = 0.0  # radians about the gray axis
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("brightness_offset", "hue_rotation", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise RangeError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise RangeError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class SynthCorpus:
    source_images: np.ndarray  # (N, H, W, 3) in [0, 1]
    source_ids: list[str]
    target_images: np.ndarray
    target_ids: list[str]
    extreme_ids: list[str] = field(default_factory=list)


def hue_rotation_matrix(theta: float) -> np.ndarray:
    """Rotation of RGB space about the gray axis (1,1,1)/sqrt(3)."""
    axis = np.ones(3) / np.sqrt(3.0)
    cross = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return (
        np.eye(3) * np.cos(theta)
        + np.sin(theta) * cross
        + (1.0 - np.cos(theta)) * np.outer(axis, axis)
    )


def _draw_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    base = rng.uniform(0.15, 0.85, size=3)
    texture = rng.normal(0.0, 0.08, size=(4, 4, 3))
    canvas = base + resize_bilinear(texture, height, width)
    for _ in range(int(rng.integers(1, 4))):
        fig_h = int(rng.integers(max(1, height // 8), max(2, height // 2)))
        fig_w = int(rng.integers(max(1, width // 8), max(2, width // 2)))
        top = int(rng.integers(0, max(1, height - fig_h)))
        left = int(rng.integers(0, max(1, width - fig_w)))
        canvas[top:top + fig_h, left:left + fig_w] = rng.uniform(0.0, 1.0, size=3)
    return np.clip(canvas, 0.0, 1.0)


def _apply_shift(image: np.ndarray, rng: np.random.Generator, brightness: float,
                 hue: float, sigma: float) -> np.ndarray:
    out = image
    if hue:
        out = out @ hue_rotation_matrix(hue).T
    if brightness:
        out = out + brightness
    if sigma:
        out = out + rng.normal(0.0, sigma, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def synth_corpus(seed: int, n_per_domain: int, height: int, width: int,
                 shift: ShiftSpec | None = None,
                 extreme_fraction: float = 0.1,
                 value_range: tuple[float, float] = (0.0, 1.0)) -> SynthCorpus:
    """Generate the two-domain corpus; bit-identical for a given seed.

    Draw order is fixed (all source images, then all target images), so
    corpora are reproducible. Each domain is one C-order (N, H, W, 3) batch,
    filled image by image in place. The last floor(extreme_fraction * N)
    source images get the extreme shift; their ids are reported. value_range
    affinely compresses finished images into [lo, hi], in place; a corpus
    that does not span the full [0, 1] range keeps headroom so later
    additive or contrast augmentations act without clipping.
    """
    if n_per_domain < 0:
        raise RangeError(f"n_per_domain must be >= 0, got {n_per_domain}")
    if height < 4 or width < 4:
        raise RangeError(f"images must be at least 4x4, got {height}x{width}")
    if not 0 <= extreme_fraction <= 1:
        raise RangeError(f"extreme_fraction must be in [0, 1], got {extreme_fraction}")
    lo, hi = value_range
    if not (0.0 <= lo < hi <= 1.0):
        raise RangeError(f"value_range must satisfy 0 <= lo < hi <= 1, got {value_range}")
    shift = shift or ShiftSpec()
    rng = np.random.default_rng(seed)

    n_extreme = int(np.floor(extreme_fraction * n_per_domain))
    first_extreme = n_per_domain - n_extreme

    source = np.empty((n_per_domain, height, width, 3))
    for i in range(n_per_domain):
        source[i] = _draw_image(rng, height, width)
        if i >= first_extreme:
            sign = 1.0 if i % 2 == 0 else -1.0
            source[i] = _apply_shift(source[i], rng, sign * EXTREME_BRIGHTNESS,
                                     EXTREME_HUE, EXTREME_NOISE)

    target = np.empty_like(source)
    for i in range(n_per_domain):
        target[i] = _apply_shift(_draw_image(rng, height, width), rng, shift.brightness_offset,
                                 shift.hue_rotation, shift.noise_sigma)

    for batch in (source, target):
        batch *= hi - lo
        batch += lo
    return SynthCorpus(
        source_images=source,
        source_ids=[f"src-{i:04d}" for i in range(n_per_domain)],
        target_images=target,
        target_ids=[f"tgt-{i:04d}" for i in range(n_per_domain)],
        extreme_ids=[f"src-{i:04d}" for i in range(first_extreme, n_per_domain)],
    )
