"""Stump hypothesis classes, empirical HdH distance, bound arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfs_curate import divergence
from cfs_curate.errors import RangeError


def loop_hdh(u1, u2, hypothesis_class):
    # independent oracle: evaluate every hypothesis with python loops and
    # take the max disagreement-gap over ordered pairs
    def evaluate(h, x):
        if h == "zero":
            return 0.0
        if h == "one":
            return 1.0
        dim, threshold = h
        return 1.0 if x[dim] > threshold else 0.0

    hyps = ["zero", "one"] + [(s.dim, s.threshold) for s in hypothesis_class.stumps]
    best = 0.0
    for h, g in itertools.product(hyps, repeat=2):
        frac1 = np.mean([evaluate(h, x) != evaluate(g, x) for x in u1])
        frac2 = np.mean([evaluate(h, x) != evaluate(g, x) for x in u2])
        best = max(best, abs(frac1 - frac2))
    return float(best)


class TestBuildStumps:
    def test_binary_values(self):
        klass = divergence.build_stumps(np.array([0.0, 1.0]))
        assert len(klass) == 3  # two constants + one stump
        assert klass.stumps == [divergence.Stump(0, 0.5)]

    def test_single_distinct_value(self):
        klass = divergence.build_stumps(np.array([0.7, 0.7, 0.7]))
        assert klass.stumps == []
        assert len(klass) == 2

    def test_cap_limits_thresholds(self):
        samples = np.arange(10.0)
        klass = divergence.build_stumps(samples, max_thresholds_per_dim=4)
        assert len(klass.stumps) == 4
        full = divergence.build_stumps(samples)
        assert len(full.stumps) == 9
        chosen = {s.threshold for s in klass.stumps}
        assert chosen <= {s.threshold for s in full.stumps}

    def test_midpoints(self):
        klass = divergence.build_stumps(np.array([1.0, 3.0, 10.0]))
        assert [s.threshold for s in klass.stumps] == [2.0, 6.5]

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            divergence.build_stumps(np.zeros((0,)))

    def test_cap_zero_keeps_only_constants(self):
        klass = divergence.build_stumps(np.array([0.0, 1.0]), max_thresholds_per_dim=0)
        assert len(klass) == 2


class TestPredictMatrix:
    def test_hand_case(self):
        klass = divergence.StumpClass(n_dims=1, stumps=[divergence.Stump(0, 0.5)])
        preds = klass.predict_matrix(np.array([0.0, 0.4, 0.6, 1.0]))
        np.testing.assert_array_equal(preds, [
            [0.0, 0.0, 0.0, 0.0],   # constant 0
            [1.0, 1.0, 1.0, 1.0],   # constant 1
            [0.0, 0.0, 1.0, 1.0],   # 1[x > 0.5]
        ])

    def test_strict_inequality_at_threshold(self):
        klass = divergence.StumpClass(n_dims=1, stumps=[divergence.Stump(0, 0.5)])
        preds = klass.predict_matrix(np.array([0.5]))
        assert preds[2, 0] == 0.0


class TestHdhEmpirical:
    def test_identical_samples(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(10, 2))
        klass = divergence.build_stumps(np.vstack([u, u]))
        assert divergence.hdh_empirical(u, u, klass) == 0.0

    def test_separable_is_one(self):
        u1 = np.array([0.0, 0.1, 0.2])
        u2 = np.array([0.8, 0.9, 1.0])
        klass = divergence.build_stumps(np.concatenate([u1, u2]))
        assert divergence.hdh_empirical(u1, u2, klass) == 1.0

    def test_constants_only_class(self):
        klass = divergence.StumpClass(n_dims=1, stumps=[])
        rng = np.random.default_rng(1)
        assert divergence.hdh_empirical(rng.normal(size=5), rng.normal(size=7), klass) == 0.0

    def test_empty_samples_rejected(self):
        klass = divergence.StumpClass(n_dims=1, stumps=[])
        with pytest.raises(RangeError):
            divergence.hdh_empirical(np.zeros((0,)), np.ones(3), klass)
        with pytest.raises(RangeError):
            divergence.hdh_empirical(np.ones(3), np.zeros((0,)), klass)

    def test_matches_loop_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u1 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            u2 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            klass = divergence.build_stumps(np.vstack([u1, u2]),
                                            max_thresholds_per_dim=5)
            assert divergence.hdh_empirical(u1, u2, klass) == loop_hdh(u1, u2, klass)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_oracle_hypothesis(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        u1 = rng.uniform(size=(n1, 1))
        u2 = rng.uniform(size=(n2, 1))
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=6)
        assert divergence.hdh_empirical(u1, u2, klass) == loop_hdh(u1, u2, klass)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=(8, 1))
        u2 = rng.normal(size=(5, 1))
        klass = divergence.build_stumps(np.vstack([u1, u2]))
        assert divergence.hdh_empirical(u1, u2, klass) == divergence.hdh_empirical(u2, u1, klass)


class TestBoundInputs:
    def test_valid(self):
        divergence.BoundInputs(0.2, 0.1, 0.05, 0.01, vc_dim=3, n=100, delta=0.1)

    def test_risk_terms_in_unit_interval(self):
        with pytest.raises(RangeError):
            divergence.BoundInputs(1.2, 0.0, 0.0, 0.0, vc_dim=1, n=10, delta=0.5)
        with pytest.raises(RangeError):
            divergence.BoundInputs(0.0, -0.1, 0.0, 0.0, vc_dim=1, n=10, delta=0.5)

    def test_delta_open_interval(self):
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(RangeError):
                divergence.BoundInputs(0.0, 0.0, 0.0, 0.0, vc_dim=1, n=10, delta=delta)

    def test_n_and_vc_dim_positive(self):
        with pytest.raises(RangeError):
            divergence.BoundInputs(0.0, 0.0, 0.0, 0.0, vc_dim=1, n=0, delta=0.5)
        with pytest.raises(RangeError):
            divergence.BoundInputs(0.0, 0.0, 0.0, 0.0, vc_dim=0, n=10, delta=0.5)


class TestErbBoundRhs:
    # fixtures frozen from a 50-digit decimal evaluation of the formula
    FIXTURES = [
        (divergence.BoundInputs(0.0, 0.0, 0.0, 0.0, vc_dim=1, n=10**6, delta=0.5),
         0.068836453798624989622915044659387053975358795640242),
        (divergence.BoundInputs(0.25, 0.1, 0.05, 0.02, vc_dim=3, n=500, delta=0.1),
         4.2441880411663560274803821088456585777889855633027),
        (divergence.BoundInputs(1.0, 1.0, 1.0, 1.0, vc_dim=10, n=10000, delta=0.9),
         6.2085877078253967760725924959933331837676775759800),
    ]

    def test_frozen_fixtures(self):
        for inputs, expected in self.FIXTURES:
            np.testing.assert_allclose(divergence.erb_bound_rhs(inputs), expected,
                                       rtol=1e-12)

    def test_zero_risk_case_is_sampling_terms_only(self):
        inputs = self.FIXTURES[0][0]
        sampling = (np.sqrt(np.log(8 / 0.5) / (2 * 10**6))
                    + 12 * np.sqrt((2 * 1 * np.log(2 * 10**6) + np.log(8 / 0.5)) / 10**6))
        np.testing.assert_allclose(divergence.erb_bound_rhs(inputs), sampling, rtol=1e-14)

    def test_monotone_decreasing_in_n(self):
        previous = np.inf
        for n in (10, 100, 1000, 10000, 100000):
            inputs = divergence.BoundInputs(0.3, 0.1, 0.1, 0.1, vc_dim=5, n=n, delta=0.2)
            value = divergence.erb_bound_rhs(inputs)
            assert value < previous
            previous = value

    def test_linear_in_d_hdh(self):
        base = divergence.BoundInputs(0.25, 0.1, 0.1, 0.1, vc_dim=2, n=50, delta=0.3)
        bumped = divergence.BoundInputs(0.5, 0.1, 0.1, 0.1, vc_dim=2, n=50, delta=0.3)
        gap = divergence.erb_bound_rhs(bumped) - divergence.erb_bound_rhs(base)
        np.testing.assert_allclose(gap, 1.5 * 0.25, rtol=0, atol=1e-12)

    def test_interpretation_notes_present(self):
        assert len(divergence.INTERPRETATION_NOTES) >= 1
        assert all(isinstance(note, str) for note in divergence.INTERPRETATION_NOTES)
