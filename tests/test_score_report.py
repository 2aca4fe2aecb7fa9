"""Score reports end to end: CLI bytes against a pure-Python oracle, and
malformed reports fuzzed through ``filter``."""

import json
import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfs_curate import cli


def write_emb1(path, ids, rows):
    """EMB1 by hand: magic, u16 version, u32 count and dim, ids, float32 rows."""
    blob = b"EMB1" + struct.pack("<HII", 1, len(ids), len(rows[0]))
    for record_id in ids:
        data = record_id.encode("utf-8")
        blob += struct.pack("<I", len(data)) + data
    blob += struct.pack(f"<{len(ids) * len(rows[0])}f", *[x for row in rows for x in row])
    path.write_bytes(blob)


def report_text(tool, config, results):
    document = {"schema_version": 1, "tool": tool, "config": config, "results": results}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


class TestScoreFilterOracle:
    def test_report_bytes_match_oracle(self, tmp_path):
        # small nonzero integers keep every dot product and squared norm
        # exact, so the oracle's cosines are bitwise what any summation
        # order gives
        rng = np.random.default_rng(17)
        n, d = 40, 6
        signs = rng.choice([-1, 1], size=(2, n, d))
        source, target = (signs * rng.integers(1, 6, size=(2, n, d))).tolist()
        for i, j in ((5, 2), (9, 2), (30, 11), (39, 0)):  # planted exact ties
            source[i], target[i] = list(source[j]), list(target[j])
        ids = [f"img-{i:02d}" for i in range(n)]
        ids[7] = "café"
        by_source, by_target = tmp_path / "s.emb", tmp_path / "t.emb"
        write_emb1(by_source, ids, source)
        write_emb1(by_target, ids, target)

        def cosine(u, v):
            dot = sum(a * b for a, b in zip(u, v))
            return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))

        scores = [cosine(u, v) for u, v in zip(source, target)]
        order = sorted(range(n), key=lambda i: (-scores[i], i))

        report = tmp_path / "scores.json"
        assert cli.main(["score", str(by_source), str(by_target), "--out", str(report)]) == 0
        entries = [{"id": ids[i], "rank": rank, "score": scores[i]}
                   for rank, i in enumerate(order, start=1)]
        config = {"by_source": str(by_source), "by_target": str(by_target)}
        assert report.read_text(encoding="utf-8") == report_text(
            "score", config, {"entries": entries})

        for flag, value, keep in (("--ratio", 0.5, n // 2), ("--n-prime", 7, 7)):
            kept = tmp_path / "kept.json"
            assert cli.main(["filter", str(report), flag, str(value), "--out", str(kept)]) == 0
            config = {"scores": str(report), "ratio": None, "n_prime": None}
            config[flag[2:].replace("-", "_")] = value
            results = {"n_prime": keep, "selected_ids": [ids[i] for i in order[:keep]]}
            assert kept.read_text(encoding="utf-8") == report_text("filter", config, results)


class TestRankOracle:
    """The rank workload's output rules at a tenth of its size: records
    scored against float64 cosines of the float32-stored features,
    computed here by a different formula than the program's."""

    N, D, TIE_TOLERANCE = 2000, 32, 1e-12

    def test_score_then_filter_follow_float64_cosine_order(self, tmp_path):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(self.N, self.D))
        b = 0.6 * a + 0.8 * rng.normal(size=a.shape)
        # 1% of rows copied from earlier rows: exact ties in both files
        copies = rng.choice(np.arange(self.N // 2, self.N), size=self.N // 100, replace=False)
        for j in copies:
            i = int(rng.integers(0, j))
            a[j], b[j] = a[i], b[i]
        ids = [f"rec-{i:05d}" for i in range(self.N)]
        by_source, by_target = tmp_path / "s.emb", tmp_path / "t.emb"
        for path, x in ((by_source, a), (by_target, b)):
            header = b"EMB1" + struct.pack("<HII", 1, self.N, self.D)
            id_block = b"".join(struct.pack("<I", len(i)) + i.encode() for i in ids)
            path.write_bytes(header + id_block + x.astype("<f4").tobytes())

        stored_a, stored_b = (x.astype("<f4").astype(np.float64) for x in (a, b))
        oracle = (stored_a * stored_b).sum(axis=1) / np.sqrt(
            (stored_a * stored_a).sum(axis=1) * (stored_b * stored_b).sum(axis=1))
        expected = np.argsort(-oracle, kind="stable").tolist()
        index_of = {record_id: i for i, record_id in enumerate(ids)}

        report, kept = tmp_path / "scores.json", tmp_path / "kept.json"
        assert cli.main(["score", str(by_source), str(by_target), "--out", str(report)]) == 0
        assert cli.main(["filter", str(report), "--ratio", "0.5", "--out", str(kept)]) == 0

        entries = json.loads(report.read_text(encoding="utf-8"))["results"]["entries"]
        assert [e["rank"] for e in entries] == list(range(1, self.N + 1))
        got = [index_of[e["id"]] for e in entries]
        assert sorted(got) == list(range(self.N))
        # positions may differ only between records whose oracle scores
        # lie within the tolerance
        swapped = [pos for pos, (g, w) in enumerate(zip(got, expected)) if g != w]
        assert all(abs(oracle[got[pos]] - oracle[expected[pos]]) <= self.TIE_TOLERANCE
                   for pos in swapped)
        # exact ties (the planted copies) keep ascending input order
        last = {}
        for i in got:
            assert i > last.get(oracle[i], -1)
            last[oracle[i]] = i
        assert len(set(oracle.tolist())) <= self.N - len(copies)
        worst = max(abs(e["score"] - oracle[index_of[e["id"]]]) for e in entries)
        assert worst <= self.TIE_TOLERANCE

        results = json.loads(kept.read_text(encoding="utf-8"))["results"]
        keep = self.N // 2
        assert results["n_prime"] == keep
        assert results["selected_ids"] == [e["id"] for e in entries[:keep]]


@st.composite
def valid_reports(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    scores = draw(st.lists(st.one_of(st.floats(-1, 1), st.sampled_from([0.5, 1.0])),
                           min_size=n, max_size=n))
    rows = [{"id": i, "rank": rank, "score": s}
            for rank, (i, s) in enumerate(zip(ids, sorted(scores, reverse=True)), start=1)]
    return {"schema_version": 1, "tool": "score", "config": {},
            "results": {"entries": draw(st.permutations(rows))}}


MUTATIONS = ("none", "drop_key", "change_type", "truncate", "non_finite",
             "shuffle_ranks", "repeat_id", "duplicate_rank")


def mutate(draw, document):
    """A mutated report as JSON text, and whether it is certainly malformed."""
    rows = document["results"]["entries"]
    kinds = MUTATIONS if len(rows) > 1 else MUTATIONS[:-2]
    kind = draw(st.sampled_from(kinds))
    row = draw(st.sampled_from(rows))
    malformed = kind not in ("none", "shuffle_ranks", "change_type")
    if kind == "drop_key":
        where = draw(st.sampled_from(["results", "entries", "id", "rank", "score"]))
        if where == "results":
            del document["results"]
        elif where == "entries":
            del document["results"]["entries"]
        else:
            del row[where]
    elif kind == "change_type":
        key = draw(st.sampled_from(["id", "rank", "score"]))
        row[key] = draw(st.sampled_from([None, "x", [], {}]))
        malformed = key != "id" or row[key] != "x"  # only a str is an id
    elif kind == "non_finite":
        row[draw(st.sampled_from(["score", "rank"]))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "shuffle_ranks":
        ranks = draw(st.permutations([r["rank"] for r in rows]))
        for r, rank in zip(rows, ranks):
            r["rank"] = rank
    elif kind in ("repeat_id", "duplicate_rank"):
        key = "id" if kind == "repeat_id" else "rank"
        other = draw(st.sampled_from([r for r in rows if r is not row]))
        other[key] = row[key]
    text = json.dumps(document)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, malformed


class TestFilterFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=valid_reports(), data=st.data())
    def test_malformed_report_is_data_error_never_a_crash(self, tmp_path, document, data):
        text, malformed = mutate(data.draw, document)
        report, kept = tmp_path / "scores.json", tmp_path / "kept.json"
        report.write_text(text, encoding="utf-8")
        code = cli.main(["filter", str(report), "--n-prime", "1", "--out", str(kept)])
        assert code in (0, 2)
        if malformed:
            assert code == 2
        if code == 0:
            rows = json.loads(text)["results"]["entries"]
            top = next(r["id"] for r in rows if r["rank"] == 1)
            assert json.loads(kept.read_text())["results"]["selected_ids"] == [top]
