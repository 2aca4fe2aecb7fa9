"""Benchmark entry point.

    python3 perfbench/run.py --workload {curate,rank,select,audit,all} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. Inputs for (workload, seed) are generated by
``gen.py`` in this process and cached under ``perfbench/_run/inputs``.
The ops run in WORKERS fresh processes one after another, each starting
cold and measuring S / WORKERS seconds, so ``setup_s`` is a median of
WORKERS cold starts and the op times pool several processes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable summary with sample counts. The full
record of the run, environment included, goes to
``perfbench/_run/results``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / "_run"

WORKERS = 3
# a worker may run this long past its share of --seconds (start-up, cold
# op, last op) before it is killed; keeps a run of up to 30 s under 180 s
WORKER_GRACE_S = 45

END_TO_END = {
    "records_per_s": "records/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "pipeline.embed_images.self_s": "s",
    "pipeline.embed_images.busy_ratio": "ratio",
    "encoder.encoder_forward.calls": "count",
    "encoder.encoder_forward.images_per_call": "images",
    "encoder.encoder_forward.self_s": "s",
    "encoder.encoder_backward.self_s": "s",
    "stems.stem_forward_cached.self_s": "s",
    "stems.stem_backward.self_s": "s",
    "ops.conv2d.self_s": "s",
    "ops.conv2d.calls": "count",
    "ops.conv2d.flops": "flop_computed",
    "ops.conv2d.bytes": "B_computed",
    "ops.conv2d_backward.self_s": "s",
    "ops.normalize_cached.self_s": "s",
    "ops.normalize_backward.self_s": "s",
    "ops.softmax.self_s": "s",
    "ops.activation.self_s": "s",
    "cfs.score_corpus.self_s": "s",
    "cfs.ScoreTable.init_s": "s",
    "cfs.filter_top.self_s": "s",
    "embeddings.EmbeddingSet.init_s": "s",
    "formats.read_embeddings.self_s": "s",
    "formats.read_embeddings.bytes": "B",
    "formats.write_embeddings.self_s": "s",
    "formats.write_embeddings.bytes": "B",
    "formats.read_report.self_s": "s",
    "formats.read_report.bytes": "B",
    "formats.write_report.self_s": "s",
    "formats.write_report.bytes": "B",
    "formats.read_image_ppm.self_s": "s",
    "formats.read_image_ppm.calls": "count",
    "selection.kmeans_fit.self_s": "s",
    "selection.kmeans_fit.iterations": "count",
    "selection.kmeans_fit.peak_alloc_mb": "MB",
    "selection.select_cluster.self_s": "s",
    "selection.compare_strategies.self_s": "s",
    "selection.compare_strategies.peak_alloc_mb": "MB",
    "invariance.invariance_report.self_s": "s",
    "invariance.augment.self_s": "s",
    "invariance.cka_linear.self_s": "s",
    "divergence.build_stumps.self_s": "s",
    "divergence.hdh_empirical.self_s": "s",
    "divergence.hdh_empirical.hypotheses": "count",
    "divergence.hdh_empirical.peak_alloc_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.errors": "count",
}

# self times of one traced op must add up to its wall time within this share
COVERAGE_TOLERANCE = 0.05

# the program runs as users run it: no thread caps from the environment
THREAD_VARS = ("CFS_CURATE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment


def cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": openblas,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_as_run": "unset",
    }


def steal_share(before, after) -> float | None:
    """Share of CPU time stolen by the hypervisor between two samples."""
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# statistics


def tail(times: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with >= 10 samples beyond it
    (nearest rank), and that percentile; the maximum with fewer samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def layer_value(totals: dict, metric: str) -> float:
    span, stat = metric.rsplit(".", 1)
    if stat == "init_s":
        span, stat = span + ".__post_init__", "self_s"
    row = totals.get(span, {})
    if stat == "images_per_call":
        return row["images"] / row["calls"] if row.get("calls") else 0.0
    if stat == "busy_ratio":
        return row.get("thread_busy_s", 0.0) / row["wall_s"] if row.get("wall_s") else 0.0
    return float(row.get(stat, 0.0))


# ---------------------------------------------------------------------------
# one workload


def run_workers(workload: str, inputs: Path, seconds: float, trace: int) -> list[dict]:
    """WORKERS fresh processes, one after another; the first of a traced
    run also measures peak allocations."""
    work = STATE / "work" / f"{workload}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    results = []
    try:
        for index in range(WORKERS):
            out = work / f"worker{index}.json"
            work.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                   "--workload", workload, "--inputs", str(inputs), "--work", str(work),
                   "--seconds", str(seconds / WORKERS), "--trace", str(trace),
                   "--memory", str(int(trace and index == 0)), "--out", str(out)]
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=seconds / WORKERS + WORKER_GRACE_S)
            if proc.returncode != 0 or not out.is_file():
                raise BenchError(f"worker {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            results.append(json.loads(out.read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    inputs, manifest = gen.ensure_inputs(STATE / "inputs", workload, seed)
    env = environment()
    load_before, cpu_before = os.getloadavg()[0], cpu_times()
    workers = run_workers(workload, inputs, seconds, trace)
    env.update(load1_before=load_before, load1_after=os.getloadavg()[0],
               steal_share=steal_share(cpu_before, cpu_times()))

    problems = [e for w in workers for e in w["errors"]]
    if len({w["reference"] for w in workers}) != 1:
        problems.append("outputs differ between worker processes")
    times = [t for w in workers for t in w["times"]]
    failures = [f for w in workers for f in w["failures"]]
    failed = len(failures)
    attempted = sum(w["attempted"] for w in workers)
    records = manifest["spec"]["records"]
    tail_value, tail_pct = tail(times)
    detail = {
        "records_per_s": (records * len(times) / sum(times),
                          f"{records} records/op, mean over n={len(times)}"),
        "op_p50_s": (statistics.median(times), f"median, n={len(times)}"),
        "op_tail_s": (tail_value, f"p{tail_pct}, n={len(times)}, "
                                  f"{len(times) - math.ceil(tail_pct * len(times) / 100)} beyond"),
        "setup_s": (statistics.median(w["setup_s"] for w in workers),
                    f"median of {len(workers)} cold starts"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers),
                        f"median of {len(workers)} processes"),
        "fail_ratio": (failed / attempted, f"{failed} of {attempted} ops"),
    }
    metrics = {name: {"value": detail[name][0], "unit": unit}
               for name, unit in END_TO_END.items()}
    spans = {}
    if trace:
        per_op = [totals for w in workers for totals in w["per_op"]]
        memory = [w["memory"] for w in workers if "memory" in w]
        coverage = [c for w in workers for c in w["coverage"]]
        traced = [t for w in workers for t in w["traced_times"]]
        off = [c for c in coverage if abs(c - 1.0) > COVERAGE_TOLERANCE]
        if off:
            problems.append(f"{len(off)} traced ops have self times off their wall time "
                            f"by more than {COVERAGE_TOLERANCE:.0%}: {off[:3]}")
        special = {
            "trace.overhead_ratio": statistics.median(traced) / detail["op_p50_s"][0],
            "trace.coverage": statistics.median(coverage),
            "trace.errors": float(sum(row.get("errors", 0) for t in per_op for row in t.values())),
        }
        for name in PER_LAYER:
            if name.endswith(".peak_alloc_mb"):
                special[name] = statistics.median(layer_value(m, name) for m in memory)
        metrics = {
            name: {"value": special[name] if name in special else
                   statistics.median(layer_value(t, name) for t in per_op), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        names = sorted({name for t in per_op for name in t})
        spans = {name: {stat: statistics.median(t.get(name, {}).get(stat, 0.0) for t in per_op)
                        for stat in sorted({s for t in per_op for s in t.get(name, {})})}
                 for name in names}
        detail["traced_ops"] = (len(per_op), "ops under the tracer")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "failures": failures[:20], "metrics": metrics,
        "detail": {k: {"value": v, "note": note} for k, (v, note) in detail.items()},
        "spans": spans, "environment": env,
        "inputs": {"dir": str(inputs.relative_to(ROOT)), "cached": manifest["cached"],
                   "digests": manifest["digests"]},
    }


def summary(result: dict) -> list[str]:
    lines = [f"== {result['workload']} (seed {result['seed']}, {result['seconds']:g} s, "
             f"trace {result['trace']}): correct={result['correct']}"]
    for name, row in result["detail"].items():
        unit = END_TO_END.get(name, "ratio" if name == "fail_ratio" else "")
        lines.append(f"  {name:<16} {row['value']:<14.6g} {unit:<10} {row['note']}")
    if result["trace"]:
        for name, row in result["metrics"].items():
            lines.append(f"  {name:<44} {row['value']:<14.6g} {row['unit']}")
    env = result["environment"]
    steal = "n/a" if env["steal_share"] is None else f"{env['steal_share']:.2%}"
    lines.append(f"  env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
                 f"blas={env['blas']} load1={env['load1_before']:.2f}->{env['load1_after']:.2f} "
                 f"steal={steal}")
    lines += [f"  problem: {p}" for p in result["problems"]]
    lines += [f"  failure: {f}" for f in result["failures"][:5]]
    return lines


def check_benchmark_file() -> None:
    """BENCHMARK.json, where present, must name exactly these metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            raise BenchError(f"BENCHMARK.json {key} does not match run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "cfs_curate" / "__init__.py").is_file():
        print(f"perfbench: no cfs_curate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        check_benchmark_file()
        workloads = list(gen.GENERATORS) if args.workload == "all" else [args.workload]
        results = [measure(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        name = f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        (STATE / "results" / name).write_text(json.dumps(result, indent=1))
        print("\n".join(summary(result)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": row for r in results for name, row in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
