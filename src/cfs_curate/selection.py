"""Selection-strategy comparison: random, cluster-center, and score-ranked
subset selection evaluated with common quality metrics.

Fine-tuning benchmarks are out of reach at desk scale, so strategies are
compared on two proxies: the mean forgetting score of the selected subset
(which the score-ranked strategy maximizes by construction) and the mean
nearest-target cosine (how close each selected record sits to the target
corpus in the shared source-proxy feature space). Both are means over the
selected records in record order, so they depend on the selected set
only. Cosines and k-means distances are GEMMs taken ``BLOCK_ROWS`` rows
at a time, so no N x M or N x k matrix is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cfs
from .embeddings import EmbeddingSet
from .errors import DegenerateFeatureError, RangeError

STRATEGIES = ("random", "cluster", "cfs")
# rows per GEMM block in _max_cosine_to_rows and the k-means assignment
BLOCK_ROWS = 64
# kmeans_fit stops once no center moves farther than KMEANS_TOL in a
# round, or after KMEANS_MAX_ITER rounds
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class SelectionConfig:
    strategy: str
    ratio: float
    seed: int = 0
    k: int = 16  # cluster strategy only

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise RangeError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.ratio <= 1:
            raise RangeError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.k < 1:
            raise RangeError(f"k must be >= 1, got {self.k}")


@dataclass
class SelectionReport:
    strategy: str
    selected_ids: list[str]
    mean_cfs: float
    mean_nearest_target_cosine: float
    # deltas are relative to the random strategy in the same comparison,
    # None when the comparison ran without a random baseline
    delta_mean_cfs: float | None = None
    delta_nearest_target: float | None = None
    # cluster strategy only: Lloyd rounds run and the last round's objective
    kmeans_iterations: int | None = None
    kmeans_objective: float | None = None


def select_random(ids, ratio: float, seed: int) -> list[str]:
    """Seeded uniform sample of floor(ratio * N) ids, without replacement.

    The sample is decided on the ascending-sorted id list, so the caller's
    input order cannot change the outcome; the result is itself sorted.
    """
    ids = [str(i) for i in ids]
    if not ids:
        raise RangeError("cannot select from an empty corpus")
    count = cfs.count_for_ratio(len(ids), ratio)
    pool = sorted(ids)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[i] for i in picks)


def kmeans_fit(features, k: int, seed: int, *, history: list | None = None) -> np.ndarray:
    """Lloyd's algorithm from a seeded D^2-weighted initialization.

    Stops when the largest center shift drops below ``KMEANS_TOL`` or after
    ``KMEANS_MAX_ITER`` rounds. If ``history`` is given, the assignment
    objective (summed squared distance of each point to its assigned
    center) is appended each round.

    Seeding reuses one N x d difference buffer and sums each row's
    squares with ``einsum``, which rounds differently from ``.sum(axis=1)``;
    a draw depends on those sums only through ``rng.choice``'s CDF, so it
    can differ from a ``.sum`` form only where the uniform lands within
    rounding of a CDF boundary.

    Each round takes the assignment ``BLOCK_ROWS`` points at a time, so
    memory is O(N*d + BLOCK_ROWS*k) whatever k is, with or without
    ``history``. A point goes to the center of least GEMM-form distance
    ||x||^2 - 2 x.c + ||c||^2, the lowest center index on an exact tie of
    that value. The form rounds differently from the direct sum of
    (x - c)^2, so a point on an exact or near tie of true distances
    (duplicate centers, lattice data) may go to either of the tied
    centers. The objective is still computed directly: each point's
    summed (x - c)^2 is taken in the same row blocks, then the N of them
    are summed once; it is non-increasing up to rounding. A center is the
    mean of its members, summed in index order; a cluster that loses all
    members keeps its previous center.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise RangeError(f"features must be a nonempty N x d matrix, got {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise RangeError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    diff = np.subtract(x, centers[0])
    closest = np.einsum("ij,ij->i", diff, diff)
    dist = np.empty(n)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # remaining points coincide with chosen centers
            idx = rng.integers(n)
        centers[j] = x[idx]
        np.subtract(x, centers[j], out=diff)
        np.minimum(closest, np.einsum("ij,ij->i", diff, diff, out=dist), out=closest)
    del diff, dist, closest

    x_sq = (x * x).sum(axis=1)[:, None]
    assign = np.empty(n, dtype=np.intp)
    d2 = np.empty((min(BLOCK_ROWS, n), k))
    row_d2 = np.empty(n) if history is not None else None
    for _ in range(KMEANS_MAX_ITER):
        c_sq = (centers * centers).sum(axis=1)
        for block in _row_blocks(n):
            np.matmul(x[block], centers.T, out=d2)
            d2 *= -2.0
            d2 += x_sq[block]
            d2 += c_sq
            d2.argmin(axis=1, out=assign[block])
            if row_d2 is not None:
                ((x[block] - centers[assign[block]]) ** 2).sum(axis=1, out=row_d2[block])
        if row_d2 is not None:
            history.append(float(row_d2.sum()))
        # per-column bincounts add each cluster's members in index order
        sums = np.empty_like(centers)
        for j, column in enumerate(x.T):
            sums[:, j] = np.bincount(assign, weights=column, minlength=k)
        counts = np.bincount(assign, minlength=k)
        kept = counts > 0
        new_centers = centers.copy()
        new_centers[kept] = sums[kept] / counts[kept, None]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    return centers


def _row_blocks(n: int):
    """Slices of ``BLOCK_ROWS`` consecutive rows covering range(n). The
    last block ends at n and overlaps its predecessor, so every block has
    min(BLOCK_ROWS, n) rows and a one-row tail never reaches BLAS as a
    matrix-vector product, which rounds differently from GEMM."""
    m = min(BLOCK_ROWS, n)
    for start in range(0, n, BLOCK_ROWS):
        start = min(start, n - m)
        yield slice(start, start + m)


def _max_cosine_to_rows(features: np.ndarray, rows: np.ndarray, what: str) -> np.ndarray:
    """Per-feature max cosine similarity against any of ``rows``.

    Features and rows are scaled to unit norm once; each block of
    ``BLOCK_ROWS`` features is one GEMM into a reused buffer, so memory is
    O(BLOCK_ROWS * M + N * d) for M rows of dimension d rather than a
    whole N x M matrix. A cosine is the dot product of the two unit rows,
    within about 1e-15 of dot / (||f|| ||r||). Its bits depend on
    ``BLOCK_ROWS`` only where BLAS picks another kernel for a block than
    for the whole matrix: OpenBLAS sends one-row products to gemv and, on
    AVX-512 x86-64, products with M * BLOCK_ROWS <= 1200 and d >= 32 to a
    small-matrix kernel, either of which can move a cosine by an ulp.
    """
    f_norms = np.linalg.norm(features, axis=1)
    r_norms = np.linalg.norm(rows, axis=1)
    if (f_norms == 0).any() or (r_norms == 0).any():
        raise DegenerateFeatureError(f"zero-norm vector in {what}")
    units = features / f_norms[:, None]
    rows_t = (rows / r_norms[:, None]).T
    best = np.empty(len(features))
    sims = np.empty((min(BLOCK_ROWS, len(features)), len(rows)))
    for block in _row_blocks(len(features)):
        np.matmul(units[block], rows_t, out=sims)
        sims.max(axis=1, out=best[block])
    return best


def select_cluster(source: EmbeddingSet, target: EmbeddingSet, k: int, ratio: float,
                   seed: int, history: list | None = None) -> list[str]:
    """Rank source records by max cosine to any target cluster center.

    Each record is scored once, by its best center; ties break by
    ascending original index, as in score-table ranking. ``history`` is
    passed to :func:`kmeans_fit`.
    """
    centers = kmeans_fit(target.features, k=k, seed=seed, history=history)
    sims = _max_cosine_to_rows(source.features, centers, "cluster scoring")
    count = cfs.count_for_ratio(len(source), ratio)
    order = np.argsort(-sims, kind="stable")
    return [source.ids[i] for i in order[:count]]


def compare_strategies(source_by_proxy_s: EmbeddingSet, source_by_proxy_t: EmbeddingSet,
                       target: EmbeddingSet, configs) -> list[SelectionReport]:
    """Run each strategy and report the common quality metrics.

    ``target`` must hold the target corpus in the source-proxy feature
    space: the cluster strategy and the nearest-target metric both compare
    source-proxy features against it. Deltas are reported against the
    random strategy when one is present among ``configs``.
    """
    table = cfs.score_corpus(source_by_proxy_s, source_by_proxy_t)
    index = {record_id: i for i, record_id in enumerate(source_by_proxy_s.ids)}
    scores = np.empty(len(index))
    scores[[index[i] for i in table.ids]] = table.scores
    nearest = _max_cosine_to_rows(
        source_by_proxy_s.features, target.features, "nearest-target metric"
    )

    reports = []
    for config in configs:
        history = []
        if config.strategy == "random":
            selected = select_random(source_by_proxy_s.ids, config.ratio, config.seed)
        elif config.strategy == "cluster":
            selected = select_cluster(
                source_by_proxy_s, target, config.k, config.ratio, config.seed, history
            )
        else:
            n_prime = cfs.count_for_ratio(len(source_by_proxy_s), config.ratio)
            selected = cfs.filter_top(table, n_prime)
        # means over the selected rows in record order depend on the set only
        mask = np.zeros(len(index), dtype=bool)
        mask[[index[i] for i in selected]] = True
        reports.append(SelectionReport(
            strategy=config.strategy,
            selected_ids=list(selected),
            mean_cfs=float(scores[mask].mean()),
            mean_nearest_target_cosine=float(nearest[mask].mean()),
            kmeans_iterations=len(history) if history else None,
            kmeans_objective=history[-1] if history else None,
        ))

    baseline = next((r for r in reports if r.strategy == "random"), None)
    if baseline is not None:
        for report in reports:
            report.delta_mean_cfs = report.mean_cfs - baseline.mean_cfs
            report.delta_nearest_target = (
                report.mean_nearest_target_cosine - baseline.mean_nearest_target_cosine
            )
    return reports
