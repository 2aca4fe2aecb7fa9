"""Forgetting-score engine: cosine scoring, ranked filtering, and the
threshold algebra connecting scores to normalized feature distance.

The score of a record is the cosine similarity between its feature under
the source-trained proxy and its feature under the target-adapted proxy.
A record whose representation barely moved scores near 1; a record the
adaptation re-represented scores lower. Selecting the top-scoring records
keeps the source images least foreign to the target domain.

The threshold machinery rests on an exact identity: for unit-normalized
features, the squared euclidean distance d^2 equals 2 - 2c where c is the
cosine. Hence c >= 1 - eps^2/8 is equivalent to d <= eps/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, check_unique_ids
from .errors import (
    AlignmentError,
    DegenerateFeatureError,
    DimensionError,
    RangeError,
)


@dataclass
class ScoreTable:
    """Scored records, best first: ``ids[i]`` scores ``scores[i]`` and has
    rank ``i + 1``.

    Ties are broken by ascending original record index, so a table is a
    deterministic function of its inputs.
    """

    ids: list[str]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(self.ids),):
            raise DimensionError(f"{len(self.ids)} ids for scores of shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise RangeError("scores must be finite")
        if np.any(scores[1:] > scores[:-1]):
            raise RangeError("scores must be non-increasing with rank")
        check_unique_ids(self.ids)
        self.scores = scores

    def __len__(self) -> int:
        return len(self.ids)


def score_corpus(source_by_proxy_s: EmbeddingSet, source_by_proxy_t: EmbeddingSet) -> ScoreTable:
    """Score every record of the source corpus under both proxies.

    The two embedding sets must list the same ids in the same order: they
    are two views of one corpus, not two corpora.
    """
    s, t = source_by_proxy_s, source_by_proxy_t
    if s.ids != t.ids:
        raise AlignmentError("embedding sets disagree on ids or their order")
    if s.dim != t.dim:
        raise DimensionError(f"feature dims differ: {s.dim} vs {t.dim}")
    norms_s = np.linalg.norm(s.features, axis=1)
    norms_t = np.linalg.norm(t.features, axis=1)
    for norms, tag in ((norms_s, "source-proxy"), (norms_t, "target-proxy")):
        bad = np.flatnonzero(norms == 0.0)
        if bad.size:
            raise DegenerateFeatureError(
                f"zero-norm {tag} feature for id {s.ids[bad[0]]!r}"
            )
    scores = np.einsum("nd,nd->n", s.features, t.features) / (norms_s * norms_t)
    order = np.argsort(-scores, kind="stable")  # ties keep ascending index
    return ScoreTable([s.ids[i] for i in order.tolist()], scores[order])


def filter_top(scores: ScoreTable, n_prime: int) -> list[str]:
    """The n_prime best-ranked ids, best first."""
    n = len(scores)
    if not 0 <= n_prime <= n:
        raise RangeError(f"n_prime must be in [0, {n}], got {n_prime}")
    return scores.ids[:n_prime]


def count_for_ratio(n: int, ratio: float) -> int:
    """floor(ratio * n); the subset size a selection ratio denotes."""
    if not 0 < ratio <= 1:
        raise RangeError(f"ratio must be in (0, 1], got {ratio}")
    count = int(np.floor(ratio * n))
    if count < 1:
        raise RangeError(f"ratio {ratio} of {n} records selects nothing")
    return count


def theorem_threshold(epsilon: float) -> float:
    """Score threshold 1 - eps^2/8 for a normalized-distance budget eps."""
    if not 0 < epsilon < 1:
        raise RangeError(f"epsilon must be in (0, 1), got {epsilon}")
    return 1.0 - epsilon * epsilon / 8.0


def check_distance_identity(f_source, f_target) -> tuple[float, float, float]:
    """Cosine c, unit-normalized distance d, and the identity residual.

    Returns ``(c, d, |d^2 - (2 - 2c)|)``; the residual is zero in exact
    arithmetic and stays below 1e-10 in floats. Both features must be
    finite, nonzero 1-D vectors of one length.
    """
    a = np.asarray(f_source, dtype=np.float64)
    b = np.asarray(f_target, dtype=np.float64)
    for arr, name in ((a, "f_source"), (b, "f_target")):
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"{name} must be a nonempty 1-D vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DimensionError(f"{name} contains NaN or Inf")
    if a.shape != b.shape:
        raise DimensionError(f"feature dims differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateFeatureError("zero-norm feature vector")
    c = float(np.dot(a, b) / (na * nb))
    d = float(np.linalg.norm(b / nb - a / na))
    residual = abs(d * d - (2.0 - 2.0 * c))
    return c, d, residual
