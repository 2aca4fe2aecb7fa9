"""The timed process: one cold op, then ops in a closed loop until time is up.

Run by ``run.py``, never by hand: it expects the inputs that ``gen.py``
wrote and prints nothing but errors. Every op calls the program the way a
user does (``cli.main(argv)`` in process, or the public library function
where no CLI path exists) and its outputs are compared with the oracle.

``setup_s`` runs from the start of ``import cfs_curate`` to the end of
the first (cold) op, so it covers imports, lazy initialisation and cold
caches. Numpy and the benchmark's checking code are imported only after
that op, so the clock sees the import cost a user sees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# each half of a traced run times at least this many ops
MIN_TRACE_OPS = 3


class OpFailed(Exception):
    pass


def _cli(cli, argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"cfs-curate {argv[0]} exited {code}")


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


class CliWorkload:
    """An op made of CLI invocations whose output files are checked."""

    outputs: tuple[str, ...] = ()

    def __init__(self, pkg, inputs: Path, spec: dict, work: Path):
        self.pkg, self.inputs, self.spec, self.work = pkg, inputs, spec, work
        self.argvs = self.commands()

    def path(self, name: str) -> str:
        return str(self.work / name)

    def run(self) -> None:
        for argv in self.argvs:
            _cli(self.pkg.cli, argv)

    def clear(self) -> None:
        for name in self.outputs:
            (self.work / name).unlink(missing_ok=True)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in self.outputs:
            h.update((self.work / name).read_bytes())
        return h.hexdigest()

    def check_ranking(self, order, scores, ids, keep: int) -> str | None:
        """Score report and filter report against the oracle ranking."""
        import gen
        entries = _report(self.work / "scores.json")["entries"]
        got_ids = [e["id"] for e in entries]
        score_of = {i: float(s) for i, s in zip(ids, scores)}
        index_of = {i: n for n, i in enumerate(ids)}
        expected = [ids[i] for i in order]
        bad = gen.order_mismatch(got_ids, expected, score_of, index_of)
        if bad:
            return f"score report: {bad}"
        worst = max(abs(e["score"] - score_of[e["id"]]) for e in entries)
        if worst > gen.SCORE_TOLERANCE:
            return f"score report differs from the oracle cosine by {worst:.3g}"
        kept = _report(self.work / "kept.json")
        if kept["n_prime"] != keep or kept["selected_ids"] != got_ids[:keep]:
            return f"filter kept {len(kept['selected_ids'])} ids, not the top {keep} by score"
        return None


class Curate(CliWorkload):
    outputs = ("a.emb", "b.emb", "scores.json", "kept.json")

    def commands(self):
        images = [str(self.inputs / name) for name in self.spec["images"]]
        seed_a, seed_b = self.spec["proxy_seeds"]
        return [
            ["embed", *images, "--seed", str(seed_a), "--out", self.path("a.emb")],
            ["embed", *images, "--seed", str(seed_b), "--out", self.path("b.emb")],
            ["score", self.path("a.emb"), self.path("b.emb"), "--out", self.path("scores.json")],
            ["filter", self.path("scores.json"), "--ratio", "0.5", "--out", self.path("kept.json")],
        ]

    def check(self) -> str | None:
        import gen
        ids, a = gen.read_emb(self.work / "a.emb")
        ids_b, b = gen.read_emb(self.work / "b.emb")
        if ids != ids_b or ids != [Path(n).stem for n in self.spec["images"]]:
            return "embedding files do not list the images in input order"
        scores, order = gen.cosine_order(a, b)
        return self.check_ranking(order, scores, ids, len(ids) // 2)


class Rank(CliWorkload):
    outputs = ("scores.json", "kept.json")

    def commands(self):
        return [
            ["score", str(self.inputs / "by_source.emb"), str(self.inputs / "by_target.emb"),
             "--out", self.path("scores.json")],
            ["filter", self.path("scores.json"), "--ratio", "0.5", "--out", self.path("kept.json")],
        ]

    def check(self) -> str | None:
        import numpy as np
        order = np.load(self.inputs / "expected_order.npy")
        scores = np.load(self.inputs / "expected_scores.npy")
        ids = [f"rec-{i:06d}" for i in range(len(order))]
        return self.check_ranking(order, scores, ids, self.spec["keep"])


class Audit(CliWorkload):
    outputs = ("cka_conv.json", "cka_ics.json", "hdh.json", "check.json")
    kinds = ("brightness", "scale")

    def commands(self):
        images = [str(self.inputs / name) for name in self.spec["images"]]
        seed = str(self.spec["seed"])
        cka = [
            ["cka", *images, "--stem", stem, "--seed", seed, "--kinds", ",".join(self.kinds),
             "--out", self.path(f"cka_{stem}.json")]
            for stem in ("conv", "ics")
        ]
        return cka + [
            ["hdh", str(self.inputs / "samples1.emb"), str(self.inputs / "samples2.emb"),
             "--max-thresholds", str(self.spec["max_thresholds"]), "--out", self.path("hdh.json")],
            ["check", "--out", self.path("check.json")],
        ]

    def check(self) -> str | None:
        for stem in ("conv", "ics"):
            entries = _report(self.work / f"cka_{stem}.json")["entries"]
            if [e["kind"] for e in entries] != list(self.kinds):
                return f"cka {stem}: entries {entries}"
            for e in entries:
                if not (math.isfinite(e["score"]) and 0.0 <= e["score"] <= 1.0):
                    return f"cka {stem} {e['kind']}: score {e['score']} outside [0, 1]"
        hdh = _report(self.work / "hdh.json")
        if hdh["d_hdh"] != self.spec["d_hdh"] or hdh["hypothesis_count"] != self.spec["hypotheses"]:
            return (f"hdh gave {hdh['d_hdh']!r} over {hdh['hypothesis_count']} hypotheses, oracle "
                    f"{self.spec['d_hdh']!r} over {self.spec['hypotheses']}")
        if _report(self.work / "check.json")["passed"] is not True:
            return "check did not pass"
        return None


class Select:
    """``compare_strategies`` on stored sets; no CLI path reaches this size
    without the encoder drowning the selection code."""

    def __init__(self, pkg, inputs: Path, spec: dict, work: Path):
        self.pkg, self.inputs, self.spec = pkg, inputs, spec
        seed, ratio = spec["strategy_seed"], 0.5
        self.configs = [
            pkg.SelectionConfig("random", ratio, seed=seed),
            pkg.SelectionConfig("cluster", ratio, seed=seed, k=spec["k"]),
            pkg.SelectionConfig("cfs", ratio),
        ]
        self.reports = None

    def run(self) -> None:
        read = self.pkg.read_embeddings
        self.reports = self.pkg.compare_strategies(
            read(self.inputs / "source_by_s.emb"),
            read(self.inputs / "source_by_t.emb"),
            read(self.inputs / "target.emb"),
            self.configs,
        )

    def clear(self) -> None:
        self.reports = None

    def digest(self) -> str:
        rows = [[r.strategy, r.selected_ids, r.mean_cfs, r.mean_nearest_target_cosine]
                for r in self.reports]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def check(self) -> str | None:
        import gen
        import numpy as np
        order = np.load(self.inputs / "expected_order.npy")
        scores = np.load(self.inputs / "expected_scores.npy")
        ids = [f"src-{i:05d}" for i in range(len(order))]
        keep = self.spec["keep"]
        known = set(ids)
        if [r.strategy for r in self.reports] != ["random", "cluster", "cfs"]:
            return f"strategies {[r.strategy for r in self.reports]}"
        for r in self.reports:
            chosen = r.selected_ids
            if len(chosen) != keep or len(set(chosen)) != keep or not known.issuperset(chosen):
                return f"{r.strategy} picked {len(set(chosen))} distinct ids, expected {keep}"
        score_of = {i: float(s) for i, s in zip(ids, scores)}
        index_of = {i: n for n, i in enumerate(ids)}
        bad = gen.order_mismatch(self.reports[2].selected_ids, [ids[i] for i in order[:keep]],
                                 score_of, index_of)
        return f"cfs selection: {bad}" if bad else None


WORKLOADS = {"curate": Curate, "rank": Rank, "select": Select, "audit": Audit}


def attempt(op) -> tuple[float, str | None]:
    """Run one op; return its wall time and why it failed, if it did."""
    op.clear()
    start = time.perf_counter()
    try:
        op.run()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


class Loop:
    """Ops in a closed loop; each op's outputs must equal the cold op's,
    which passed the full oracle check."""

    def __init__(self, op, reference: str | None):
        self.op, self.reference = op, reference
        self.attempted = 0
        self.failures: list[str] = []

    def step(self) -> float:
        self.attempted += 1
        elapsed, error = attempt(self.op)
        if error is None:
            if self.reference is None:
                error = "the cold op failed its oracle check"
            else:
                try:
                    if self.op.digest() != self.reference:
                        error = "outputs differ from the first op's"
                except OSError as exc:
                    error = f"missing output: {exc}"
        if error:
            self.failures.append(error)
        return elapsed

    def times_until(self, deadline: float, min_ops: int, after=None) -> list[float]:
        times = []
        while len(times) < min_ops or time.perf_counter() < deadline:
            times.append(self.step())
            if after:
                after(times[-1])
        return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory", type=int, choices=(0, 1), default=0,
                        help="with --trace 1, also measure peak allocations")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    inputs = Path(args.inputs)
    spec = json.loads((inputs / "manifest.json").read_text())["spec"]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    import cfs_curate
    import cfs_curate.cli  # noqa: F401  (bound as cfs_curate.cli)
    op = WORKLOADS[args.workload](cfs_curate, inputs, spec, work)
    _, cold_error = attempt(op)
    setup_s = time.perf_counter() - start

    import tracer  # from this directory, which is on sys.path as the script's

    result = {"setup_s": setup_s, "errors": []}
    if not Path(cfs_curate.__file__).resolve().is_relative_to(Path(args.root).resolve()):
        result["errors"].append(f"imported cfs_curate from {cfs_curate.__file__}")
    result["reference"] = None
    if cold_error is None:
        try:
            cold_error = op.check()
            if cold_error is None:
                result["reference"] = op.digest()
        except Exception:  # malformed or missing output fails the op, not the run
            cold_error = traceback.format_exc(limit=3)
    loop = Loop(op, result["reference"])
    loop.attempted = 1
    if cold_error:
        loop.failures.append(f"cold op: {cold_error}")
    deadline = time.perf_counter() + args.seconds

    if args.trace:
        result["errors"] += tracer.self_check()
        recorder = tracer.Tracer()
        per_op, coverage = [], []

        def record(elapsed):
            totals = recorder.collect()
            per_op.append(totals)
            coverage.append(sum(row["self_s"] for row in totals.values()) / elapsed)

        recorder.install(cfs_curate)
        try:
            result["traced_times"] = loop.times_until(
                time.perf_counter() + args.seconds / 2, MIN_TRACE_OPS, after=record)
            if args.memory:
                # one more op, untimed, under tracemalloc for peak_alloc_mb; the
                # timed ops run without it, as it slows Python-heavy code 3-7x
                recorder.track_memory = True
                tracemalloc.start()
                try:
                    loop.step()
                finally:
                    tracemalloc.stop()
                result["memory"] = recorder.collect()
        finally:
            result["errors"] += recorder.uninstall(cfs_curate)
        result.update(per_op=per_op, coverage=coverage)
    else:
        result["errors"] += tracer.find_wrappers(cfs_curate)
    result["times"] = loop.times_until(deadline, MIN_TRACE_OPS if args.trace else 1)
    result.update(
        attempted=loop.attempted,
        failures=loop.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
