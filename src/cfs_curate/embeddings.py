"""Container pairing stable record ids with a float64 feature matrix."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def check_unique_ids(ids: list[str]) -> None:
    """Raise DimensionError naming the first five repeated ids, sorted."""
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
        raise DimensionError(f"duplicate ids: {dupes[:5]}")


@dataclass
class EmbeddingSet:
    """Feature vectors for a corpus: ``ids[i]`` labels row ``features[i]``.

    Ids must be unique; rows are 64-bit floats. Zero rows are allowed in
    the container (scoring code rejects them where they matter).
    """

    ids: list[str] = field(default_factory=list)
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        self.ids = [str(i) for i in self.ids]
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {feats.shape}")
        if len(self.ids) != feats.shape[0]:
            raise DimensionError(
                f"{len(self.ids)} ids for {feats.shape[0]} feature rows"
            )
        check_unique_ids(self.ids)
        if feats.size and not np.isfinite(feats).all():
            raise DimensionError("features contain NaN or Inf")
        self.features = feats

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[1]
