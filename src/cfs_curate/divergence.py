"""Empirical domain-divergence over an explicit finite hypothesis class,
plus the excess-risk-bound right-hand-side evaluator.

The divergence between two unlabeled samples is the largest gap, over all
ordered pairs of hypotheses (h, h'), between the fraction of each sample
on which h and h' disagree. Restricted to a finite class of axis-aligned
stumps the supremum is an exact finite maximum, computed by enumeration;
it lower-bounds the same quantity over any richer class containing the
stumps. No factor of 2 is applied.

The class is two columns, stump dims and thresholds, so the H x n
prediction matrix P is one comparison. Hypotheses i and j disagree on
s_i + s_j - 2 (P P^T)_ij samples (s = row sums of P): exact integers
from one GEMM per sample. The counts make the gap matrix exactly
symmetric, so only its upper triangle is taken, ``BLOCK_ROWS``
hypothesis rows at a time: peak memory is the two prediction matrices
plus two BLOCK_ROWS x H rate blocks, O(H (n + BLOCK_ROWS)) float64
values rather than H x H. Work still grows as H^2 n / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError

# hypotheses per gap-matrix block in hdh_empirical
BLOCK_ROWS = 256


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


def _disagreement_rates(p: np.ndarray, ones: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rates of hypotheses start..stop-1 against hypotheses start..H-1,
    from the prediction matrix ``p`` and its row sums ``ones``."""
    rates = p[start:stop] @ p[start:].T
    rates *= -2.0
    rates += ones[start:stop, None]
    rates += ones[start:]
    rates /= p.shape[1]
    return rates


def hdh_empirical(u1, u2, hypothesis_class: StumpClass) -> float:
    """Exact max over ordered hypothesis pairs of the disagreement-rate gap.

    Disagreement counts are integers computed in float64 (exact far below
    2^53), so the result is bit-reproducible and matches a pure-loop
    enumeration exactly. Exact counts also make the gap matrix exactly
    symmetric, so it is taken ``BLOCK_ROWS`` hypothesis rows at a time,
    from the diagonal rightwards.
    """
    p1 = hypothesis_class.predict_matrix(u1)
    p2 = hypothesis_class.predict_matrix(u2)
    ones1 = p1.sum(axis=1)
    ones2 = p2.sum(axis=1)
    best = 0.0
    for start in range(0, len(hypothesis_class), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        gaps = _disagreement_rates(p1, ones1, start, stop)
        gaps -= _disagreement_rates(p2, ones2, start, stop)
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
