"""Stump hypothesis classes, empirical HdH distance, bound arithmetic."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfs_curate import cli, divergence, formats
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import RangeError

from conftest import hh_hdh_empirical


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

    stumps = zip(hypothesis_class.dims.tolist(), hypothesis_class.thresholds.tolist())
    hyps = ["zero", "one"] + list(stumps)
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
        assert klass.dims.tolist() == [0]
        assert klass.thresholds.tolist() == [0.5]

    def test_single_distinct_value(self):
        klass = divergence.build_stumps(np.array([0.7, 0.7, 0.7]))
        assert klass.dims.shape == klass.thresholds.shape == (0,)
        assert len(klass) == 2

    def test_cap_limits_thresholds(self):
        samples = np.arange(10.0)
        klass = divergence.build_stumps(samples, max_thresholds_per_dim=4)
        assert len(klass.thresholds) == 4
        full = divergence.build_stumps(samples)
        assert len(full.thresholds) == 9
        assert set(klass.thresholds) <= set(full.thresholds)

    def test_midpoints(self):
        klass = divergence.build_stumps(np.array([1.0, 3.0, 10.0]))
        assert klass.thresholds.tolist() == [2.0, 6.5]

    def test_columns_follow_dimension_order(self):
        x = np.array([[0.0, 5.0, 1.0], [2.0, 5.0, 3.0], [4.0, 5.0, 9.0]])
        klass = divergence.build_stumps(x)
        assert klass.dims.dtype == np.intp
        assert klass.dims.tolist() == [0, 0, 2, 2]
        assert klass.thresholds.tolist() == [1.0, 3.0, 2.0, 6.0]
        assert len(klass) == 6

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            divergence.build_stumps(np.zeros((0,)))

    def test_cap_zero_keeps_only_constants(self):
        klass = divergence.build_stumps(np.array([0.0, 1.0]), max_thresholds_per_dim=0)
        assert len(klass) == 2


class TestPredictMatrix:
    def test_hand_case(self):
        klass = divergence.StumpClass(n_dims=1, dims=[0], thresholds=[0.5])
        preds = klass.predict_matrix(np.array([0.0, 0.4, 0.6, 1.0]))
        np.testing.assert_array_equal(preds, [
            [0.0, 0.0, 0.0, 0.0],   # constant 0
            [1.0, 1.0, 1.0, 1.0],   # constant 1
            [0.0, 0.0, 1.0, 1.0],   # 1[x > 0.5]
        ])

    def test_strict_inequality_at_threshold(self):
        klass = divergence.StumpClass(n_dims=1, dims=[0], thresholds=[0.5])
        preds = klass.predict_matrix(np.array([0.5]))
        assert preds[2, 0] == 0.0

    def test_rows_follow_column_order(self):
        klass = divergence.StumpClass(n_dims=2, dims=[1, 0], thresholds=[0.0, 2.0])
        preds = klass.predict_matrix(np.array([[1.0, -1.0], [3.0, 1.0]]))
        assert preds.dtype == np.float64
        np.testing.assert_array_equal(preds[2:], [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("dims,thresholds", [
        ([1], [0.5]), ([-1], [0.5]), ([0.5], [0.5]), ([0, 0], [0.5]), ([[0]], [[0.5]]),
    ], ids=["dim_too_large", "dim_negative", "fractional_dim", "unequal_lengths", "not_1d"])
    def test_bad_columns_rejected(self, dims, thresholds):
        with pytest.raises(RangeError):
            divergence.StumpClass(n_dims=1, dims=dims, thresholds=thresholds)


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
        klass = divergence.StumpClass(n_dims=1, dims=[], thresholds=[])
        rng = np.random.default_rng(1)
        assert divergence.hdh_empirical(rng.normal(size=5), rng.normal(size=7), klass) == 0.0

    def test_empty_samples_rejected(self):
        klass = divergence.StumpClass(n_dims=1, dims=[], thresholds=[])
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

    def test_peak_memory_is_two_rate_matrices(self):
        """About 1000 hypotheses over 32 dims; at most 2.5 H^2 float64
        values are live at once."""
        rng = np.random.default_rng(4)
        u1 = rng.normal(size=(40, 32))
        u2 = rng.normal(size=(40, 32)) + 0.3
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=31)
        h = len(klass)
        assert h == 2 + 32 * 31
        tracemalloc.start()
        try:
            divergence.hdh_empirical(u1, u2, klass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * h * h * 8, f"peak {peak / (h * h * 8):.2f} H^2 float64"

    def test_peak_memory_at_audit_shape_within_budget(self):
        """2 x 256 samples in 32 dims, 64 thresholds per dim: H = 2050, the
        audit benchmark's shape. Budget 24 MiB, set before measuring; two
        whole H x H rate matrices take about 68 MB here."""
        rng = np.random.default_rng(11)
        u1 = rng.normal(size=(256, 32))
        u2 = rng.normal(size=(256, 32)) + 0.2
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=64)
        assert len(klass) == 2050
        tracemalloc.start()
        try:
            divergence.hdh_empirical(u1, u2, klass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("block_rows", [1, 7, 64, 256])
    def test_row_blocks_bitwise_equal_to_hh_matrices(self, monkeypatch, block_rows):
        """Every block size, with H below, at and above it, gives the value
        of the whole H x H rate matrices (conftest.hh_hdh_empirical)."""
        monkeypatch.setattr(divergence, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(12)
        cases = {  # H: (n1, n2, d, cap)
            17: (30, 20, 3, 5), 20: (9, 1, 2, 62), 64: (50, 50, 2, 31),
            66: (40, 50, 4, 16), 256: (100, 100, 2, 127), 322: (300, 200, 8, 40),
        }
        for h, (n1, n2, d, cap) in cases.items():
            u1 = rng.normal(size=(n1, d))
            u2 = rng.normal(size=(n2, d)) * 1.3 + 0.2
            klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=cap)
            assert len(klass) == h
            assert divergence.hdh_empirical(u1, u2, klass) == hh_hdh_empirical(u1, u2, klass)

    def test_cli_matches_loop_oracle_on_multidimensional_files(self, tmp_path):
        """``hdh`` on random 3-D EMB1 files, one dimension with ties, equals
        the loop oracle over the same class."""
        rng = np.random.default_rng(6)
        paths = []
        for name, n, shift in (("a", 9, 0.0), ("b", 11, 0.4)):
            x = rng.normal(size=(n, 3)) + shift
            x[:, 2] = rng.integers(0, 3, size=n)
            paths.append(tmp_path / f"{name}.emb")
            formats.write_embeddings(EmbeddingSet([f"{name}{i}" for i in range(n)], x), paths[-1])
        out = tmp_path / "hdh.json"
        assert cli.main(["hdh", *map(str, paths), "--max-thresholds", "12",
                         "--out", str(out)]) == 0
        u1, u2 = (formats.read_embeddings(path).features for path in paths)
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=12)
        assert klass.dims.tolist() == [0] * 12 + [1] * 12 + [2] * 2
        results = formats.read_report(out)["results"]
        assert results["hypothesis_count"] == len(klass)
        assert 0.0 < results["d_hdh"] == loop_hdh(u1, u2, klass) < 1.0


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
