"""Validation of caller-supplied images.

Augmentation and PPM writing take images from outside the package; this
check makes their contract explicit and the error messages uniform.
Augmentation also takes image batches, under the same contract.
Internally produced arrays are trusted.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def check_image(image, allow_batch: bool = False) -> np.ndarray:
    """Coerce an H x W x 3 image with finite values in [0, 1] to float64.

    With ``allow_batch``, an N x H x W x 3 batch passes under the same
    contract.
    """
    arr = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DimensionError("image contains NaN or Inf")
    if allow_batch and arr.ndim == 4:
        if arr.shape[3] != 3:
            raise DimensionError(f"image batch must be N x H x W x 3, got shape {arr.shape}")
    elif arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"image must be H x W x 3, got shape {arr.shape}")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DimensionError("image values must lie in [0, 1]")
    return arr
