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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad):
        x = np.random.default_rng(13).normal(size=(6, 2))
        x[4, 1] = bad
        with pytest.raises(RangeError, match="finite"):
            divergence.build_stumps(x)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad):
        """``x > t`` reads NaN as below every threshold, a rank reads it as
        above every one: a non-finite sample has no rank, so it is refused."""
        rng = np.random.default_rng(14)
        u1 = rng.normal(size=(6, 2))
        u2 = rng.normal(size=(5, 2))
        klass = divergence.build_stumps(np.vstack([u1, u2]))
        for samples in (u1, u2):
            samples[2, 1] = bad
            with pytest.raises(RangeError, match="finite"):
                divergence.hdh_empirical(u1, u2, klass)
            samples[2, 1] = 0.0

    def test_matches_loop_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u1 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            u2 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            klass = divergence.build_stumps(np.vstack([u1, u2]),
                                            max_thresholds_per_dim=5)
            assert divergence.hdh_empirical(u1, u2, klass) == loop_hdh(u1, u2, klass)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_oracle_hypothesis(self, seed, n1, n2, d):
        rng = np.random.default_rng(seed)
        u1 = rng.uniform(size=(n1, d))
        u2 = rng.uniform(size=(n2, d))
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=6)
        assert divergence.hdh_empirical(u1, u2, klass) == loop_hdh(u1, u2, klass)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=(8, 1))
        u2 = rng.normal(size=(5, 1))
        klass = divergence.build_stumps(np.vstack([u1, u2]))
        assert divergence.hdh_empirical(u1, u2, klass) == divergence.hdh_empirical(u2, u1, klass)

    def test_peak_memory_is_one_block_of_tables(self):
        """About 1000 hypotheses over 32 dims, 31 thresholds each. At most
        one block of d disagreement tables of width^2 cells is live, at
        24 B per cell (float64 histogram and gaps, int32 table and its
        transposed copy), plus 128 KiB for the O(n d) ranks and indices."""
        rng = np.random.default_rng(4)
        u1 = rng.normal(size=(40, 32))
        u2 = rng.normal(size=(40, 32)) + 0.3
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=31)
        h = len(klass)
        assert h == 2 + 32 * 31
        width = 31 + 2
        tracemalloc.start()
        try:
            divergence.hdh_empirical(u1, u2, klass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 32 * width**2 + 2**17, f"peak {peak / 2**20:.2f} MiB"

    def test_peak_memory_at_audit_shape_within_budget(self):
        """2 x 256 samples in 32 dims, 64 thresholds per dim: H = 2050, the
        audit benchmark's shape. Budget 4 MiB, set before measuring: one
        block of 32 tables of 66^2 cells at 24 B per cell is 3.3 MB, and
        the ranks and cell indices of 512 samples add about 0.7 MB. The
        two H x n prediction matrices and rate blocks took about 16 MB."""
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
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    # id: (n1, n2, d, cap, class layout, H)
    HH_CASES = {
        "h17": (30, 20, 3, 5, "built", 17),
        "h20": (9, 1, 2, 62, "built", 20),
        "h64": (50, 50, 2, 31, "built", 64),
        "h66": (40, 50, 4, 16, "built", 66),
        "h256": (100, 100, 2, 127, "built", 256),
        "h322": (300, 200, 8, 40, "built", 322),
        "shuffled": (60, 45, 4, 20, "shuffled", 82),
        "repeated": (25, 40, 3, 12, "repeated", 50),
        "dim_without_stumps": (33, 29, 5, 9, "constant_dim", 38),
        "odd_unequal_n": (37, 91, 3, 23, "built", 71),
        "thresholds_at_samples": (41, 27, 3, 10, "on_grid", 32),
        "int64_counts": (65_536, 65_536, 1, 3, "separated", 5),
    }

    @pytest.mark.parametrize("case", HH_CASES, ids=list(HH_CASES))
    def test_bitwise_equal_to_hh_matrices(self, case):
        """Each case equals the value of the whole H x H rate matrices
        (conftest.hh_hdh_empirical) bit for bit. ``shuffled`` permutes the
        class order, ``repeated`` adds 12 copies of its own stumps,
        ``constant_dim`` leaves dimension 1 without stumps, ``on_grid``
        puts samples and thresholds on one grid, so samples sit exactly on
        thresholds, and ``separated`` makes the gap 1, whose numerator
        n1 n2 is above 2^31."""
        n1, n2, d, cap, layout, h = self.HH_CASES[case]
        rng = np.random.default_rng(list(self.HH_CASES).index(case) + 12)
        u1 = rng.normal(size=(n1, d))
        u2 = rng.normal(size=(n2, d)) * 1.3 + 0.2
        if layout == "constant_dim":
            u1[:, 1] = u2[:, 1] = 0.25
        if layout == "on_grid":
            u1, u2 = np.round(u1 * 4) / 4, np.round(u2 * 4) / 4
        if layout == "separated":
            u2 += 50.0
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=cap)
        dims, thresholds = klass.dims, klass.thresholds
        if layout == "on_grid":
            thresholds = np.floor(thresholds * 4) / 4
            assert np.isin(thresholds, np.vstack([u1, u2])).any()
        if layout == "repeated":
            copies = rng.choice(len(dims), size=12)
            dims, thresholds = np.r_[dims, dims[copies]], np.r_[thresholds, thresholds[copies]]
        if layout in ("shuffled", "repeated"):
            order = rng.permutation(len(dims))
            dims, thresholds = dims[order], thresholds[order]
        klass = divergence.StumpClass(d, dims, thresholds)
        assert len(klass) == h
        value = divergence.hdh_empirical(u1, u2, klass)
        assert value == hh_hdh_empirical(u1, u2, klass)
        if layout == "separated":
            assert value == 1.0

    def test_bitwise_equal_to_hh_matrices_on_random_classes(self):
        """200 small classes in shuffled order with unequal n1, n2. Pairs
        with equal numerators D1 n2 - D2 n1 can round to different float
        gaps, and in some of these classes the largest float gap lies in
        another dimension pair than the first largest numerator."""
        rng = np.random.default_rng(16)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            u1 = rng.normal(size=(int(rng.integers(1, 60)), d))
            u2 = rng.normal(size=(int(rng.integers(1, 60)), d)) * 1.3 + 0.2
            klass = divergence.build_stumps(np.vstack([u1, u2]),
                                            max_thresholds_per_dim=int(rng.integers(0, 10)))
            order = rng.permutation(len(klass.dims))
            klass = divergence.StumpClass(d, klass.dims[order], klass.thresholds[order])
            assert divergence.hdh_empirical(u1, u2, klass) == hh_hdh_empirical(u1, u2, klass)

    def test_builds_no_prediction_matrix(self, monkeypatch):
        """hdh_empirical counts disagreements from rank histograms; it must
        return with ``predict_matrix`` unusable."""
        rng = np.random.default_rng(15)
        u1 = rng.normal(size=(20, 3))
        u2 = rng.normal(size=(30, 3)) + 0.4
        klass = divergence.build_stumps(np.vstack([u1, u2]), max_thresholds_per_dim=8)
        expected = hh_hdh_empirical(u1, u2, klass)

        def refuse(self, samples):
            raise AssertionError("hdh_empirical built an H x n prediction matrix")

        monkeypatch.setattr(divergence.StumpClass, "predict_matrix", refuse)
        assert divergence.hdh_empirical(u1, u2, klass) == expected

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
