"""Selection strategies: random, cluster-similarity, score-ranked."""

import tracemalloc

import numpy as np
import pytest
from conftest import add_at_kmeans_fit, loop_kmeans_fit

from cfs_curate import cfs, selection
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import DegenerateFeatureError, RangeError


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unblocked_max_cosine(features, rows):
    """_max_cosine_to_rows as one N x M similarity matrix."""
    sims = (features @ rows.T) / np.outer(np.linalg.norm(features, axis=1),
                                          np.linalg.norm(rows, axis=1))
    return sims.max(axis=1)


def oracle_shapes():
    """Seeded float32-stored inputs for the loop oracle: blobs and plain
    normals, d from 1 to 23, with k = 1, k = n and k in between."""
    rng = np.random.default_rng(20)
    for case in range(120):
        n = int(rng.integers(1, 200))
        d = int(rng.integers(1, 24))
        k = (1, n, int(rng.integers(1, min(n, 20) + 1)))[case % 3]
        if case % 2:
            blobs = rng.normal(size=(k, d)) * 3
            x = blobs[rng.integers(k, size=n)] + rng.normal(size=(n, d))
        else:
            x = rng.normal(size=(n, d))
        yield x.astype(np.float32).astype(np.float64), k, case


class TestSelectionConfig:
    def test_valid(self):
        config = selection.SelectionConfig("random", 0.5, seed=3)
        assert config.strategy == "random"

    def test_unknown_strategy(self):
        with pytest.raises(RangeError):
            selection.SelectionConfig("greedy", 0.5)

    def test_bad_ratio(self):
        with pytest.raises(RangeError):
            selection.SelectionConfig("random", 0.0)
        with pytest.raises(RangeError):
            selection.SelectionConfig("random", 1.5)

    def test_bad_k(self):
        with pytest.raises(RangeError):
            selection.SelectionConfig("cluster", 0.5, k=0)


class TestSelectRandom:
    def test_same_seed_same_selection(self):
        ids = [f"i{k}" for k in range(20)]
        assert selection.select_random(ids, 0.5, 9) == selection.select_random(ids, 0.5, 9)

    def test_floor_count(self):
        ids = [f"i{k}" for k in range(10)]
        assert len(selection.select_random(ids, 0.5, 0)) == 5
        assert len(selection.select_random(ids[:7], 0.5, 0)) == 3

    def test_ratio_one_returns_all_sorted(self):
        ids = ["b", "a", "c"]
        assert selection.select_random(ids, 1.0, 4) == ["a", "b", "c"]

    def test_input_order_invariance(self):
        ids = [f"i{k}" for k in range(12)]
        shuffled = list(reversed(ids))
        assert selection.select_random(ids, 0.5, 5) == selection.select_random(shuffled, 0.5, 5)

    def test_empty_rejected(self):
        with pytest.raises(RangeError):
            selection.select_random([], 0.5, 0)


class TestKmeans:
    def test_single_point(self):
        point = np.array([[2.0, -1.0]])
        centers = selection.kmeans_fit(point, k=1, seed=0)
        np.testing.assert_allclose(centers, point, rtol=0, atol=0)

    def test_two_blobs_recover_means(self):
        rng = np.random.default_rng(4)
        lo = rng.normal(-10.0, 0.3, size=(30, 1))
        hi = rng.normal(10.0, 0.3, size=(30, 1))
        x = np.vstack([lo, hi])
        centers = selection.kmeans_fit(x, k=2, seed=1)
        centers = np.sort(centers.ravel())
        np.testing.assert_allclose(centers, [lo.mean(), hi.mean()], rtol=1e-12)

    def test_k_equals_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        centers = selection.kmeans_fit(x, k=6, seed=2)
        order_c = np.lexsort(centers.T)
        order_x = np.lexsort(x.T)
        np.testing.assert_allclose(centers[order_c], x[order_x], rtol=0, atol=0)

    def test_objective_monotone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 4))
        history = []
        selection.kmeans_fit(x, k=5, seed=3, history=history)
        assert len(history) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 4))
        a = selection.kmeans_fit(x, k=4, seed=11)
        b = selection.kmeans_fit(x, k=4, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_bad_k(self):
        x = np.ones((3, 2))
        with pytest.raises(RangeError):
            selection.kmeans_fit(x, k=0, seed=0)
        with pytest.raises(RangeError):
            selection.kmeans_fit(x, k=4, seed=0)

    def test_bitwise_equal_to_loop_oracle(self):
        """On continuous data GEMM-form rounds pick the same assignments as
        the N x k x d difference tensor, and index-order center sums equal
        the per-cluster means, sign bits included."""
        for x, k, seed in oracle_shapes():
            got_history, want_history = [], []
            got = selection.kmeans_fit(x, k, seed, history=got_history)
            want = loop_kmeans_fit(x, k, seed, history=want_history)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x.shape, k)
            assert got_history == want_history, (x.shape, k)

    def test_bitwise_equal_to_add_at_oracle(self):
        """Per-column bincount sums add each cluster's members in index
        order, as the np.add.at scatter did: same centers and history, sign
        bits included, on continuous data, on lattice data with exact ties
        and signed zeros, at the select benchmark's shape and at d = 0."""
        rng = np.random.default_rng(22)
        cases = [(x, k, seed) for x, k, seed in oracle_shapes()]
        for seed in range(30):
            n, d = int(rng.integers(1, 80)), int(rng.integers(1, 6))
            lattice = rng.integers(-2, 3, size=(n, d)) * 0.1
            lattice[rng.random(size=lattice.shape) < 0.2] = -0.0
            cases.append((lattice, int(rng.integers(1, n + 1)), seed))
        blobs = rng.normal(size=(64, 32)) * 12
        cases.append((blobs[np.arange(2400) % 64] + rng.normal(size=(2400, 32)) * 0.05, 64, 3))
        cases.append((np.zeros((5, 0)), 2, 0))  # records of dimension 0
        for x, k, seed in cases:
            got_history, want_history = [], []
            got = selection.kmeans_fit(x, k, seed, history=got_history)
            want = add_at_kmeans_fit(x, k, seed, history=want_history)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x.shape, k)
            assert got_history == want_history, (x.shape, k)

    def test_empty_cluster_keeps_center_as_loop_oracle(self):
        """Two seeded centers on one point: the higher-indexed one gets no
        members in round one and keeps its previous center."""
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [4.0, -0.0]])
        for seed in range(8):
            history = []
            got = selection.kmeans_fit(x, 3, seed, history=history)
            want = loop_kmeans_fit(x, 3, seed)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert len(np.unique(got, axis=0)) == 2  # a kept duplicate
            assert history == [0.0]

    def test_tie_rule_on_lattice_duplicates(self, monkeypatch):
        """Lattice points with many duplicates put points on exact ties of
        true distance, which GEMM-form distances may split either way.
        Each round, every point goes to a nearest center (up to rounding),
        the objective is non-increasing (relative 1e-12), and every center
        is the mean of its members (relative 1e-12) or, with no members,
        its previous center bitwise."""
        rng = np.random.default_rng(21)
        split_ties = 0
        max_iter = selection.KMEANS_MAX_ITER
        for seed in range(40):
            n = int(rng.integers(10, 80))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 12))
            x = rng.integers(-2, 3, size=(n, d)) * 0.1
            history = []
            monkeypatch.setattr(selection, "KMEANS_MAX_ITER", max_iter)
            selection.kmeans_fit(x, k, seed, history=history)
            assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))
            monkeypatch.setattr(selection, "KMEANS_MAX_ITER", 0)
            prev = selection.kmeans_fit(x, k, seed)
            for rounds in range(1, len(history) + 1):
                monkeypatch.setattr(selection, "KMEANS_MAX_ITER", rounds)
                cur = selection.kmeans_fit(x, k, seed)
                true_d2 = ((x[:, None, :] - prev[None, :, :]) ** 2).sum(axis=-1)
                gemm_d2 = (x * x).sum(axis=1)[:, None] - 2 * (x @ prev.T) + (prev * prev).sum(axis=1)
                assign = gemm_d2.argmin(axis=1)
                chosen = true_d2[np.arange(n), assign]
                assert (chosen <= true_d2.min(axis=1) * (1 + 1e-12) + 1e-15).all()
                assert history[rounds - 1] == float(chosen.sum())
                split_ties += int((assign != true_d2.argmin(axis=1)).sum())
                for j in range(k):
                    members = x[assign == j]
                    if len(members):
                        np.testing.assert_allclose(cur[j], members.mean(axis=0),
                                                   rtol=1e-12, atol=1e-15)
                    else:
                        assert np.array_equal(cur[j].view(np.int64), prev[j].view(np.int64))
                prev = cur
        assert split_ties > 0  # the corpus does exercise ties

    def test_peak_memory_is_order_n_k(self, monkeypatch):
        """No N x k x d temporary: 65 MB at this size."""
        rng = np.random.default_rng(22)
        n, d, k = 4000, 32, 64
        x = rng.normal(size=(n, d))
        monkeypatch.setattr(selection, "KMEANS_MAX_ITER", 3)
        peak = traced_peak(lambda: selection.kmeans_fit(x, k, seed=0))
        assert peak <= 2 * n * k * 8, f"peak {peak / (n * k * 8):.2f} N*k float64"

    def test_objective_value(self):
        """The objective kmeans_fit records is the summed squared distance
        to the assigned center: 1 + 1 for one center between two points."""
        history = []
        selection.kmeans_fit(np.array([[0.0], [2.0]]), k=1, seed=0, history=history)
        assert history[-1] == 2.0


class TestMaxCosine:
    @pytest.mark.parametrize("n, m", [
        (1, 7), (255, 3), (256, 40), (257, 40), (700, 129), (1025, 64),
    ])
    def test_blocks_match_unblocked_oracle(self, n, m):
        """Row blocks change the GEMM's rounding at most by ulps; the
        tolerance is absolute 1e-12 on cosines."""
        rng = np.random.default_rng(n + m)
        features = rng.normal(size=(n, 16)) * rng.uniform(0.1, 10, size=(n, 1))
        rows = rng.normal(size=(m, 16))
        got = selection._max_cosine_to_rows(features, rows, "test")
        assert got.shape == (n,)
        np.testing.assert_allclose(got, unblocked_max_cosine(features, rows), rtol=0, atol=1e-12)

    def test_peak_memory_is_one_block(self):
        """3000 x 2400: three whole similarity matrices would be 170 MB."""
        rng = np.random.default_rng(23)
        features = rng.normal(size=(3000, 32))
        rows = rng.normal(size=(2400, 32))
        peak = traced_peak(lambda: selection._max_cosine_to_rows(features, rows, "test"))
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestSelectCluster:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(8)
        target = EmbeddingSet(["t0"], unit_rows(rng, 1, 4))
        center = target.features[0]
        source_feats = np.vstack([unit_rows(rng, 3, 4), center])
        source = EmbeddingSet([f"s{k}" for k in range(4)], source_feats)
        picked = selection.select_cluster(source, target, k=1, ratio=0.25, seed=0)
        assert picked == ["s3"]

    def test_matches_brute_force_single_center(self):
        rng = np.random.default_rng(9)
        source = EmbeddingSet([f"s{k}" for k in range(4)], unit_rows(rng, 4, 5))
        target = EmbeddingSet(["t0"], unit_rows(rng, 1, 5))
        # k=1 center is the target mean; rank by cosine to it by hand
        center = target.features.mean(axis=0)
        sims = [
            float(np.dot(f, center) / (np.linalg.norm(f) * np.linalg.norm(center)))
            for f in source.features
        ]
        expected = [source.ids[i] for i in np.argsort(-np.array(sims), kind="stable")[:2]]
        assert selection.select_cluster(source, target, k=1, ratio=0.5, seed=0) == expected

    def test_ratio_one_returns_all(self):
        rng = np.random.default_rng(10)
        source = EmbeddingSet([f"s{k}" for k in range(5)], unit_rows(rng, 5, 3))
        target = EmbeddingSet([f"t{k}" for k in range(4)], unit_rows(rng, 4, 3))
        picked = selection.select_cluster(source, target, k=2, ratio=1.0, seed=0)
        assert sorted(picked) == source.ids

    @pytest.mark.parametrize("n, d, k", [(40, 8, 4), (700, 16, 9), (1000, 32, 64)])
    def test_ranks_as_unblocked_oracle(self, n, d, k):
        rng = np.random.default_rng(n)
        source = EmbeddingSet([f"s{i}" for i in range(n)], unit_rows(rng, n, d))
        target = EmbeddingSet([f"t{i}" for i in range(3 * k)], unit_rows(rng, 3 * k, d))
        centers = selection.kmeans_fit(target.features, k=k, seed=5)
        order = np.argsort(-unblocked_max_cosine(source.features, centers), kind="stable")
        picked = selection.select_cluster(source, target, k=k, ratio=1.0, seed=5)
        assert picked == [source.ids[i] for i in order]

    def test_zero_norm_rejected(self):
        source = EmbeddingSet(["a"], np.array([[1.0, 0.0]]))
        target = EmbeddingSet(["t"], np.array([[0.0, 0.0]]))
        with pytest.raises(DegenerateFeatureError):
            selection.select_cluster(source, target, k=1, ratio=1.0, seed=0)


class TestCompareStrategies:
    def sets(self, seed=12, n=40, d=8):
        rng = np.random.default_rng(seed)
        ids = [f"s{k:03d}" for k in range(n)]
        by_s = EmbeddingSet(ids, unit_rows(rng, n, d))
        by_t = EmbeddingSet(ids, by_s.features + 0.3 * rng.normal(size=(n, d)))
        target = EmbeddingSet([f"t{k:03d}" for k in range(16)], unit_rows(rng, 16, d))
        return by_s, by_t, target

    def configs(self, ratio):
        return [
            selection.SelectionConfig("random", ratio, seed=3),
            selection.SelectionConfig("cluster", ratio, seed=3, k=4),
            selection.SelectionConfig("cfs", ratio),
        ]

    def test_cfs_maximizes_mean_score(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(by_s, by_t, target, self.configs(0.5))
        by_strategy = {r.strategy: r for r in reports}
        for other in ("random", "cluster"):
            assert by_strategy["cfs"].mean_cfs >= by_strategy[other].mean_cfs

    def test_ratio_one_identical_metrics(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(by_s, by_t, target, self.configs(1.0))
        cfs_means = {r.mean_cfs for r in reports}
        nt_means = {r.mean_nearest_target_cosine for r in reports}
        assert len(cfs_means) == 1 and len(nt_means) == 1
        for r in reports:
            assert sorted(r.selected_ids) == by_s.ids

    def test_selected_counts(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(by_s, by_t, target, self.configs(0.5))
        assert all(len(r.selected_ids) == 20 for r in reports)

    def test_deltas_against_random(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(by_s, by_t, target, self.configs(0.5))
        by_strategy = {r.strategy: r for r in reports}
        assert by_strategy["random"].delta_mean_cfs == 0.0
        np.testing.assert_allclose(
            by_strategy["cfs"].delta_mean_cfs,
            by_strategy["cfs"].mean_cfs - by_strategy["random"].mean_cfs,
            rtol=0, atol=0,
        )

    def test_cluster_report_carries_kmeans_history(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(by_s, by_t, target, self.configs(0.5))
        history = []
        selection.kmeans_fit(target.features, k=4, seed=3, history=history)
        by_strategy = {r.strategy: r for r in reports}
        assert by_strategy["cluster"].kmeans_iterations == len(history)
        assert by_strategy["cluster"].kmeans_objective == history[-1]
        for other in ("random", "cfs"):
            assert by_strategy[other].kmeans_iterations is None
            assert by_strategy[other].kmeans_objective is None

    def test_no_random_baseline_leaves_deltas_unset(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(
            by_s, by_t, target, [selection.SelectionConfig("cfs", 0.5)]
        )
        assert reports[0].delta_mean_cfs is None
