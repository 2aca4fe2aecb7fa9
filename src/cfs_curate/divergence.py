"""Empirical domain-divergence over an explicit finite hypothesis class,
plus the excess-risk-bound right-hand-side evaluator.

The divergence between two unlabeled samples is the largest gap, over all
ordered pairs of hypotheses (h, h'), between the fraction of each sample
on which h and h' disagree. Restricted to a finite class of axis-aligned
stumps the supremum is an exact finite maximum, computed by enumeration;
it lower-bounds the same quantity over any richer class containing the
stumps. No factor of 2 is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError


@dataclass(frozen=True)
class Stump:
    """Threshold rule: predict 1 where x[dim] > threshold."""
    dim: int
    threshold: float


@dataclass
class StumpClass:
    """Finite hypothesis class: the two constants plus threshold stumps.

    Hypothesis order is fixed (constant 0, constant 1, then stumps in
    build order) so enumeration results are deterministic.
    """

    n_dims: int
    stumps: list[Stump] = field(default_factory=list)

    def __post_init__(self):
        for stump in self.stumps:
            if not 0 <= stump.dim < self.n_dims:
                raise RangeError(f"stump dim {stump.dim} outside 0..{self.n_dims - 1}")

    def __len__(self) -> int:
        return len(self.stumps) + 2

    def predict_matrix(self, samples) -> np.ndarray:
        """(n_hypotheses, n_samples) 0/1 predictions; rows follow class order."""
        x = _as_samples(samples, self.n_dims)
        n = x.shape[0]
        rows = [np.zeros(n), np.ones(n)]
        rows += [(x[:, s.dim] > s.threshold).astype(np.float64) for s in self.stumps]
        return np.stack(rows)


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
    n_dims = x.shape[1]
    stumps = []
    for dim in range(n_dims):
        uniq = np.unique(x[:, dim])
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        cap = max_thresholds_per_dim
        if cap is not None:
            if cap < 0:
                raise RangeError(f"max_thresholds_per_dim must be >= 0, got {cap}")
            if cap == 0:
                mids = mids[:0]
            elif len(mids) > cap:
                picks = np.round(np.linspace(0, len(mids) - 1, cap)).astype(int)
                mids = mids[picks]
        stumps += [Stump(dim=dim, threshold=float(t)) for t in mids]
    return StumpClass(n_dims=n_dims, stumps=stumps)


def hdh_empirical(u1, u2, hypothesis_class: StumpClass) -> float:
    """Exact max over ordered hypothesis pairs of the disagreement-rate gap.

    Disagreement counts are integers computed in float64 (exact far below
    2^53), so the result is bit-reproducible and matches a pure-loop
    enumeration exactly.
    """
    p1 = hypothesis_class.predict_matrix(u1)
    p2 = hypothesis_class.predict_matrix(u2)
    n1 = p1.shape[1]
    n2 = p2.shape[1]
    # disagreement count between rows i and j: i(1-j) + (1-i)j
    counts1 = p1 @ (1.0 - p1).T + (1.0 - p1) @ p1.T
    counts2 = p2 @ (1.0 - p2).T + (1.0 - p2) @ p2.T
    gaps = np.abs(counts1 / n1 - counts2 / n2)
    return float(gaps.max())


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
