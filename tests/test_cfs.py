"""Scoring, ranking, filtering, and the threshold/distance identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfs_curate import cfs
from cfs_curate.cli import _table_from_report
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import (
    AlignmentError,
    DegenerateFeatureError,
    DimensionError,
    FormatError,
    RangeError,
)


def naive_cosine(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def naive_rank_table(set_s, set_t):
    # independent oracle: per-row cosine loop + sorted() with the tie rule
    rows = []
    for i, rid in enumerate(set_s.ids):
        rows.append((rid, naive_cosine(set_s.features[i], set_t.features[i]), i))
    rows.sort(key=lambda r: (-r[1], r[2]))
    return rows


def random_sets(seed, n, d):
    rng = np.random.default_rng(seed)
    ids = [f"r{i:04d}" for i in range(n)]
    a = rng.normal(size=(n, d))
    b = rng.normal(size=(n, d))
    return EmbeddingSet(ids, a), EmbeddingSet(ids, b)


class TestCfsScore:
    """The cosine c that check_distance_identity returns first."""

    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(cfs.check_distance_identity(v, v)[0], 1.0,
                                   rtol=0, atol=1e-12)

    def test_orthogonal(self):
        assert cfs.check_distance_identity([1.0, 0.0], [0.0, 1.0])[0] == 0.0

    def test_known_angle(self):
        # cos of 45 degrees
        np.testing.assert_allclose(
            cfs.check_distance_identity([1.0, 1.0], [1.0, 0.0])[0], 1.0 / np.sqrt(2.0),
            rtol=1e-15
        )

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            np.testing.assert_allclose(
                cfs.check_distance_identity(u, v)[0], naive_cosine(u, v), rtol=1e-12
            )

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        np.testing.assert_allclose(
            cfs.check_distance_identity(alpha * u, beta * v)[0],
            cfs.check_distance_identity(u, v)[0], rtol=0, atol=1e-12
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            cfs.check_distance_identity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateFeatureError):
            cfs.check_distance_identity([1.0, 0.0], [0.0, 0.0])

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            cfs.check_distance_identity(np.ones((2, 2)), np.ones(4))
        with pytest.raises(DimensionError):
            cfs.check_distance_identity([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            cfs.check_distance_identity([np.nan, 1.0], [1.0, 0.0])


class TestScoreCorpus:
    def test_identical_sets_all_ones(self):
        # scaled one-hot rows make every cosine exactly 1.0, so the
        # resulting all-tied table must fall back to ascending index order
        feats = np.diag([2.0, 0.5, 3.0, 1.0, 7.0])
        ids = [f"x{i}" for i in range(5)]
        table = cfs.score_corpus(EmbeddingSet(ids, feats), EmbeddingSet(ids, feats.copy()))
        np.testing.assert_array_equal(table.scores, np.ones(5))
        assert table.ids == ids

    def test_hand_built_ranks(self):
        # cosines against (1, 0) are exactly the first coordinates: 0.9, 0.5, 0.7
        ids = ["a", "b", "c"]
        s = EmbeddingSet(ids, np.array([
            [0.9, np.sqrt(1 - 0.81)],
            [0.5, np.sqrt(1 - 0.25)],
            [0.7, np.sqrt(1 - 0.49)],
        ]))
        t = EmbeddingSet(ids, np.tile([1.0, 0.0], (3, 1)))
        table = cfs.score_corpus(s, t)
        assert table.ids == ["a", "c", "b"]
        # rank i + 1 is position i
        assert {rid: pos + 1 for pos, rid in enumerate(table.ids)} == {"a": 1, "b": 3, "c": 2}
        np.testing.assert_allclose(table.scores, [0.9, 0.7, 0.5], rtol=1e-12)

    def test_single_record(self):
        s = EmbeddingSet(["only"], np.array([[1.0, 2.0]]))
        t = EmbeddingSet(["only"], np.array([[-3.0, 0.5]]))
        table = cfs.score_corpus(s, t)
        assert len(table) == 1
        assert table.ids == ["only"]
        assert table.scores.shape == (1,)
        np.testing.assert_allclose(table.scores[0], naive_cosine([1.0, 2.0], [-3.0, 0.5]), rtol=1e-12)

    def test_matches_brute_force(self):
        for seed in range(3):
            s, t = random_sets(seed, 200, 16)
            table = cfs.score_corpus(s, t)
            oracle = naive_rank_table(s, t)
            assert table.ids == [r[0] for r in oracle]
            np.testing.assert_allclose(table.scores, [r[1] for r in oracle], rtol=1e-12)

    def test_id_mismatch(self):
        s = EmbeddingSet(["a", "b"], np.ones((2, 3)))
        t = EmbeddingSet(["b", "a"], np.ones((2, 3)))
        with pytest.raises(AlignmentError):
            cfs.score_corpus(s, t)

    def test_zero_row_names_id(self):
        s = EmbeddingSet(["ok", "bad"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        t = EmbeddingSet(["ok", "bad"], np.ones((2, 2)))
        with pytest.raises(DegenerateFeatureError, match="bad"):
            cfs.score_corpus(s, t)


class TestScoreTable:
    def test_columns(self):
        table = cfs.ScoreTable(["a", "b", "c"], [0.9, 0.5, 0.5])
        assert table.ids == ["a", "b", "c"]
        assert table.scores.dtype == np.float64
        np.testing.assert_array_equal(table.scores, [0.9, 0.5, 0.5])
        assert len(table) == 3
        assert len(cfs.ScoreTable([], [])) == 0

    def test_lengths_must_match(self):
        with pytest.raises(DimensionError):
            cfs.ScoreTable(["a", "b"], [1.0])
        with pytest.raises(DimensionError):
            cfs.ScoreTable(["a"], [[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_scores_enforced(self, bad):
        with pytest.raises(RangeError, match="finite"):
            cfs.ScoreTable(["a", "b"], [1.0, bad])

    def test_rank_permutation_enforced(self):
        # ranks are positions in the table; the report parser, the only
        # reader of an explicit rank, maps rows by rank and checks 1..N
        def rows(*ranks):
            report = {"results": {"entries": [
                {"id": i, "rank": r, "score": s}
                for i, r, s in zip("abc", ranks, (1.0, 0.5, 0.2))]}}
            return _table_from_report(report, "scores.json")

        table = rows(1, 2, 3)
        assert table.ids == ["a", "b", "c"]
        for ranks in [(1, 3), (0, 1), (1, 1), (1, 2, 4)]:
            with pytest.raises(FormatError, match="permutation of 1..N"):
                rows(*ranks)

    def test_monotone_scores_enforced(self):
        with pytest.raises(RangeError):
            cfs.ScoreTable(["a", "b"], [0.5, 0.9])

    def test_unique_ids_enforced(self):
        with pytest.raises(DimensionError, match="duplicate ids: \\['a'\\]"):
            cfs.ScoreTable(["a", "b", "a"], [0.9, 0.5, 0.1])


class TestFilterTop:
    def table(self):
        ids = ["a", "b", "c"]
        s = EmbeddingSet(ids, np.array([
            [0.9, np.sqrt(1 - 0.81)],
            [0.5, np.sqrt(1 - 0.25)],
            [0.7, np.sqrt(1 - 0.49)],
        ]))
        t = EmbeddingSet(ids, np.tile([1.0, 0.0], (3, 1)))
        return cfs.score_corpus(s, t)

    def test_top_two(self):
        assert cfs.filter_top(self.table(), 2) == ["a", "c"]

    def test_zero(self):
        assert cfs.filter_top(self.table(), 0) == []

    def test_all(self):
        assert cfs.filter_top(self.table(), 3) == ["a", "c", "b"]

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            cfs.filter_top(self.table(), 4)
        with pytest.raises(RangeError):
            cfs.filter_top(self.table(), -1)

    def test_tied_scores_take_first_index(self):
        ids = ["first", "second"]
        feats = np.tile([0.5, 0.5], (2, 1))
        table = cfs.score_corpus(EmbeddingSet(ids, feats), EmbeddingSet(ids, feats.copy()))
        assert cfs.filter_top(table, 1) == ["first"]


class TestCountForRatio:
    def test_floor(self):
        assert cfs.count_for_ratio(10, 0.5) == 5
        assert cfs.count_for_ratio(3, 0.5) == 1
        assert cfs.count_for_ratio(7, 1.0) == 7

    def test_bad_ratio(self):
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(RangeError):
                cfs.count_for_ratio(10, ratio)

    def test_empty_selection_rejected(self):
        with pytest.raises(RangeError):
            cfs.count_for_ratio(1, 0.3)

    @pytest.mark.parametrize("ratio, count", [(0.29, 29), (0.57, 57), (0.58, 58)])
    def test_ratio_read_as_written_decimal(self, ratio, count):
        # the float products are 28.999999999999996, 56.99999999999999, 57.99999999999999
        assert cfs.count_for_ratio(100, ratio) == count
        assert cfs.count_for_ratio(100, np.float64(ratio)) == count

    def test_third_of_three_selects_nothing(self):
        # 1/3 reads as 0.3333333333333333, and that of 3 records is under 1
        with pytest.raises(RangeError, match="selects nothing"):
            cfs.count_for_ratio(3, 1 / 3)


class TestTheoremThreshold:
    def test_known_value(self):
        np.testing.assert_allclose(cfs.theorem_threshold(0.4), 0.98, rtol=0, atol=1e-15)

    def test_limit_toward_zero(self):
        assert abs(cfs.theorem_threshold(1e-9) - 1.0) < 1e-12

    def test_boundaries_rejected(self):
        for eps in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(RangeError):
                cfs.theorem_threshold(eps)

    def test_range_property(self):
        # 1 - eps^2/8 stays in (0.875, 1) on the open interval
        for eps in np.linspace(1e-6, 1 - 1e-6, 101):
            assert 0.875 < cfs.theorem_threshold(float(eps)) < 1.0


class TestDistanceIdentity:
    def test_identical(self):
        c, d, residual = cfs.check_distance_identity([1.0, 2.0], [1.0, 2.0])
        np.testing.assert_allclose(c, 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(d, 0.0, rtol=0, atol=1e-7)
        assert residual <= 1e-10

    def test_orthogonal(self):
        c, d, residual = cfs.check_distance_identity([1.0, 0.0], [0.0, 1.0])
        assert c == 0.0
        np.testing.assert_allclose(d, np.sqrt(2.0), rtol=1e-15)
        assert residual <= 1e-10

    def test_antipodal(self):
        c, d, residual = cfs.check_distance_identity([1.0, 0.0], [-1.0, 0.0])
        np.testing.assert_allclose(c, -1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(d, 2.0, rtol=1e-15)
        assert residual <= 1e-10

    def test_residual_small_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.normal(size=16)
            v = rng.normal(size=16)
            _, _, residual = cfs.check_distance_identity(u, v)
            assert residual <= 1e-10

    def test_threshold_equivalence(self):
        # c >= 1 - eps^2/8 holds exactly when d <= eps/2
        rng = np.random.default_rng(11)
        for eps in (0.1, 0.5, 0.9):
            threshold = cfs.theorem_threshold(eps)
            for _ in range(100):
                u = rng.normal(size=8)
                v = u + rng.normal(size=8) * rng.uniform(0.0, 0.6)
                c, d, _ = cfs.check_distance_identity(u, v)
                assert (c >= threshold) == (d <= eps / 2.0)


ROW_SHAPES = [(20_000, 32), (3000, 32), (500, 7), (64, 384)]


class TestDistanceIdentityRows:
    """Two (N, D) matrices give one (c, d, residual) per row."""

    @pytest.mark.parametrize("shape", ROW_SHAPES)
    def test_rows_are_the_vector_calls(self, shape):
        rng = np.random.default_rng(3)
        u = rng.normal(size=shape)
        v = u + rng.normal(size=shape) * rng.uniform(0.0, 0.8, size=(shape[0], 1))
        rows = cfs.check_distance_identity(u, v)
        assert all(col.shape == (shape[0],) for col in rows)
        for i in rng.choice(shape[0], size=min(shape[0], 200), replace=False):
            assert tuple(col[i] for col in rows) == cfs.check_distance_identity(u[i], v[i])

    @pytest.mark.parametrize("shape", ROW_SHAPES)
    def test_row_cosine_is_score_corpus_score(self, shape):
        by_s, by_t = random_sets(4, *shape)
        c, _, residual = cfs.check_distance_identity(by_s.features, by_t.features)
        table = cfs.score_corpus(by_s, by_t)
        score_of = dict(zip(table.ids, table.scores.tolist()))
        assert c.tobytes() == np.array([score_of[rid] for rid in by_s.ids]).tobytes()
        assert residual.max() <= 1e-10

    def test_zero_norm_row_rejected(self):
        u = np.ones((4, 3))
        v = np.ones((4, 3))
        v[2] = 0.0
        for a, b in ((u, v), (v, u)):
            with pytest.raises(DegenerateFeatureError):
                cfs.check_distance_identity(a, b)

    @pytest.mark.parametrize("a_shape, b_shape", [((4, 3), (4, 2)), ((4, 3), (5, 3)),
                                                  ((4, 3), (3,)), ((3,), (4, 3))])
    def test_mismatched_shapes_rejected(self, a_shape, b_shape):
        with pytest.raises(DimensionError, match="feature dims differ"):
            cfs.check_distance_identity(np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (2, 2, 2)])
    def test_empty_or_three_axes_rejected(self, shape):
        with pytest.raises(DimensionError, match="nonempty vector or matrix"):
            cfs.check_distance_identity(np.ones(shape), np.ones(shape))

    def test_non_finite_row_rejected(self):
        u = np.ones((4, 3))
        u[1, 2] = np.nan
        with pytest.raises(DimensionError, match="NaN or Inf"):
            cfs.check_distance_identity(u, np.ones((4, 3)))
