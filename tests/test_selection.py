"""Selection strategies: random, cluster-similarity, score-ranked."""

import numpy as np
import pytest

from cfs_curate import cfs, selection
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import DegenerateFeatureError, RangeError


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


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

    def test_objective_value(self):
        """The objective kmeans_fit records is the summed squared distance
        to the assigned center: 1 + 1 for one center between two points."""
        history = []
        selection.kmeans_fit(np.array([[0.0], [2.0]]), k=1, seed=0, history=history)
        assert history[-1] == 2.0


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

    def test_no_random_baseline_leaves_deltas_unset(self):
        by_s, by_t, target = self.sets()
        reports = selection.compare_strategies(
            by_s, by_t, target, [selection.SelectionConfig("cfs", 0.5)]
        )
        assert reports[0].delta_mean_cfs is None
