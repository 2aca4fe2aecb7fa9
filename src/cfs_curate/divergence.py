"""Empirical domain-divergence over an explicit finite hypothesis class,
plus the excess-risk-bound right-hand-side evaluator.

The divergence between two unlabeled samples is the largest gap, over all
ordered pairs of hypotheses (h, h'), between the fraction of each sample
on which h and h' disagree. Restricted to a finite class of axis-aligned
stumps the supremum is an exact finite maximum, computed by enumeration;
it lower-bounds the same quantity over any richer class containing the
stumps. No factor of 2 is applied.

A stump on dimension a fires exactly when a sample's rank among a's sorted
thresholds exceeds the stump's own, so each sample is ranked once per
dimension and every pair of dimensions (a, b) is one 2-D histogram of
rank pairs. Its 2-D running sums count, for every pair of hypotheses on a
and b, the samples they disagree on: exact integers, from O(n) binning
per dimension pair and O(1) work per hypothesis pair. The two constant
hypotheses are the edge ranks of every dimension. Work grows as
O(H^2 + d^2 n), memory as O(n d + d T^2) for d dimensions of at most T
stumps each; no H x n prediction matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError


@dataclass
class StumpClass:
    """Finite hypothesis class: constant 0, constant 1, then stump k, which
    predicts 1 where x[dims[k]] > thresholds[k]. The order is fixed so
    enumeration results are deterministic.
    """

    n_dims: int
    dims: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        dims = np.asarray(self.dims)
        self.dims = dims.astype(np.intp)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if (self.dims.ndim != 1 or self.dims.shape != self.thresholds.shape
                or not np.all((dims == self.dims) & (0 <= dims) & (dims < self.n_dims))):
            raise RangeError(f"stumps need one integer dim in 0..{self.n_dims - 1} per threshold")

    def __len__(self) -> int:
        return len(self.dims) + 2

    def predict_matrix(self, samples) -> np.ndarray:
        """(n_hypotheses, n_samples) 0/1 predictions; rows follow class order."""
        x = _as_samples(samples, self.n_dims)
        n = x.shape[0]
        return np.vstack([np.zeros(n), np.ones(n), x.T[self.dims] > self.thresholds[:, None]])


def _as_samples(samples, n_dims=None) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise RangeError(f"samples must be a nonempty N x d matrix, got {x.shape}")
    if not np.isfinite(x).all():
        raise RangeError("samples must be finite (no NaN or Inf)")
    if n_dims is not None and x.shape[1] != n_dims:
        raise RangeError(f"samples have {x.shape[1]} dims, class expects {n_dims}")
    return x


def build_stumps(samples, max_thresholds_per_dim=None) -> StumpClass:
    """Stumps at midpoints of consecutive sorted unique values per dimension.

    A dimension with a single distinct value contributes no stumps. When a
    dimension has more candidate midpoints than ``max_thresholds_per_dim``,
    they are thinned by evenly spaced index subsampling (first and last
    kept), which is deterministic.
    """
    x = _as_samples(samples)
    cap = max_thresholds_per_dim
    if cap is not None and cap < 0:
        raise RangeError(f"max_thresholds_per_dim must be >= 0, got {cap}")
    per_dim = []
    for column in x.T:
        uniq = np.unique(column)
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        if cap is not None and len(mids) > cap:
            mids = mids[np.round(np.linspace(0, len(mids) - 1, cap)).astype(int)]
        per_dim.append(mids)
    dims = np.repeat(np.arange(x.shape[1]), [len(mids) for mids in per_dim])
    return StumpClass(x.shape[1], dims, np.concatenate([np.zeros(0), *per_dim]))


def _disagreement_tables(ranks, pairs, weights, width: int, dtype) -> np.ndarray:
    """Weighted disagreement counts of the hypotheses of dimension pairs.

    ``ranks[k, s]`` is one plus the number of thresholds of dimension k
    below sample s, so 1 <= rank < ``width``. Hypothesis m of dimension k
    is 1[rank <= m]: m = 0 is constant 0, m >= T_k + 1 constant 1, and
    m in between 1[x <= t], the complement of the stump at k's m-th
    smallest threshold t. Complementing both hypotheses of a pair keeps
    the samples they disagree on, so these hypotheses hold every pair of
    the class. Entry [l, m, p] of the result, with (a, b) = pairs[:, p],
    is the sum of ``weights`` over the samples on which hypothesis m of a
    and hypothesis l of b disagree.
    """
    a, b = pairs
    count = len(a)
    cells = (ranks[a] * width + ranks[b]) * count + np.arange(count)[:, None]
    table = np.bincount(cells.ravel(), np.tile(weights, count), minlength=width * width * count)
    table = table.astype(dtype).reshape(width, width, count)
    # 2-D running sums, each along the leading (contiguous) axis: entry
    # [l, m, p] becomes the weight of samples with rank_a <= m, rank_b <= l
    for m in range(1, width):
        table[m] += table[m - 1]
    table = table.transpose(1, 0, 2).copy()
    for l in range(1, width):
        table[l] += table[l - 1]
    fires_a = table[-1:].copy()
    fires_b = table[:, -1:].copy()
    table *= -2
    table += fires_a
    table += fires_b
    return table


def hdh_empirical(u1, u2, hypothesis_class: StumpClass) -> float:
    """Exact max over ordered hypothesis pairs of the disagreement-rate gap.

    Each pair's gap is |D1/n1 - D2/n2| for its integer disagreement counts
    D1, D2 on the two samples. A first pass takes, per dimension pair, the
    largest exact numerator |D1 n2 - D2 n1| over its hypothesis pairs, from
    one histogram of both samples weighted n2 and -n1. Rounding can lift a
    float gap above a larger exact one only within ``slack`` of it in
    numerator units, so a second pass evaluates the float expression, in
    the operation order of an H x H enumeration, only on the dimension
    pairs within ``slack`` of the largest numerator. The result is
    bit-reproducible and equals a pure-loop enumeration exactly.
    """
    x1 = _as_samples(u1, hypothesis_class.n_dims)
    x2 = _as_samples(u2, hypothesis_class.n_dims)
    n1, n2 = len(x1), len(x2)
    dims = np.unique(hypothesis_class.dims)
    if len(dims) == 0:
        return 0.0  # only the two constants, which disagree on every sample
    thresholds = [np.sort(hypothesis_class.thresholds[hypothesis_class.dims == dim])
                  for dim in dims]
    width = max(map(len, thresholds)) + 2
    ranks = np.empty((len(dims), n1 + n2), dtype=np.intp)
    for row, dim, sorted_thresholds in zip(ranks, dims, thresholds):
        row[:n1] = np.searchsorted(sorted_thresholds, x1[:, dim])
        row[n1:] = np.searchsorted(sorted_thresholds, x2[:, dim])
    ranks += 1
    # numerators and their running sums stay within 2 n1 n2 in magnitude
    dtype = np.int32 if 2 * n1 * n2 < 2**31 else np.int64
    # dimension pairs a <= b, taken d at a time: d tables of width^2 cells
    pairs = np.stack(np.triu_indices(len(dims)))
    step = len(dims)

    weights = np.repeat([float(n2), float(-n1)], [n1, n2])
    largest = np.empty(pairs.shape[1], dtype=dtype)
    for start in range(0, pairs.shape[1], step):
        numerators = _disagreement_tables(ranks, pairs[:, start:start + step],
                                          weights, width, dtype)
        largest[start:start + step] = np.abs(numerators, out=numerators).max(axis=(0, 1))

    # each float gap is within 2u(1 + u) of its exact value, u = 2^-53, so
    # a pair more than 4 n1 n2 u below the largest numerator cannot give the
    # largest float gap; the slack is 0 below n1 n2 = 2^51
    slack = (4 * n1 * n2) >> 53
    near = pairs[:, largest >= largest.max() - slack]
    best = 0.0
    for start in range(0, near.shape[1], step):
        block = near[:, start:start + step]
        gaps = _disagreement_tables(ranks[:, :n1], block, np.ones(n1), width, dtype) / n1
        gaps -= _disagreement_tables(ranks[:, n1:], block, np.ones(n2), width, dtype) / n2
        best = max(best, float(np.abs(gaps, out=gaps).max()))
    return best


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the excess-risk bound right-hand side.

    ``d_hdh`` is the empirical divergence; ``f_hat_t`` the empirical
    target-sample risk term; ``f_t_star`` and ``f_s_star`` the best-case
    target and source risk terms; ``vc_dim`` the hypothesis-class VC
    dimension; ``n`` the target sample size; ``delta`` the failure
    probability.
    """

    d_hdh: float
    f_hat_t: float
    f_t_star: float
    f_s_star: float
    vc_dim: int
    n: int
    delta: float

    def __post_init__(self):
        for name in ("d_hdh", "f_hat_t", "f_t_star", "f_s_star"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise RangeError(f"{name} must be in [0, 1], got {value}")
        if self.vc_dim < 1:
            raise RangeError(f"vc_dim must be >= 1, got {self.vc_dim}")
        if self.n < 1:
            raise RangeError(f"n must be >= 1, got {self.n}")
        if not 0 < self.delta < 1:
            raise RangeError(f"delta must be in (0, 1), got {self.delta}")


def erb_bound_rhs(inputs: BoundInputs) -> float:
    """The literal bound right-hand side:

    1.5 * d_hdh + f_hat_t + f_t_star + f_s_star
        + sqrt(log(8/delta) / (2n))
        + 12 * sqrt((2 * vc_dim * log(2n) + log(8/delta)) / n)
    """
    log_term = np.log(8.0 / inputs.delta)
    n = float(inputs.n)
    hoeffding = np.sqrt(log_term / (2.0 * n))
    complexity = 12.0 * np.sqrt((2.0 * inputs.vc_dim * np.log(2.0 * n) + log_term) / n)
    return float(
        1.5 * inputs.d_hdh
        + inputs.f_hat_t
        + inputs.f_t_star
        + inputs.f_s_star
        + hoeffding
        + complexity
    )


# What the numbers mean, stated operationally; attached to divergence and
# bound reports so they are self-describing.
INTERPRETATION_NOTES = (
    "the bound grows linearly in the empirical divergence term, so a small"
    " divergence between the selected source sample and the target sample"
    " keeps the guarantee tight",
    "both sampling terms shrink as the target sample size n grows; the"
    " divergence and risk terms are the floor the bound cannot go below",
)
