"""The benchmark's span tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by name for ``--trace 1``.
A deletion or rename of a traced name makes its install fail, so this
guard installs the tracer, uninstalls it, and checks that the package and
its public names come back intact. The traced spans also read their
arguments and results (``ops.conv2d``'s a 4-D output), so ``check``, whose
probes run stacked forwards, must run under the tracer without a span
error.
"""

import importlib.util
from pathlib import Path

import cfs_curate
import cfs_curate.cli  # traced as cli.main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracer()
    recorder = tracer.Tracer()
    try:
        recorder.install(cfs_curate)
    finally:
        problems = recorder.uninstall(cfs_curate)
    assert problems == []
    missing = [name for name in cfs_curate.__all__ if not hasattr(cfs_curate, name)]
    assert missing == []


def test_check_runs_under_the_tracer(tmp_path):
    tracer = load_tracer()
    recorder = tracer.Tracer()
    try:
        recorder.install(cfs_curate)
        assert cfs_curate.cli.main(["check", "--out", str(tmp_path / "check.json")]) == 0
        totals = recorder.collect()
    finally:
        problems = recorder.uninstall(cfs_curate)
    assert problems == []
    assert totals["ops.conv2d"]["calls"] > 0
    assert {name: row["errors"] for name, row in totals.items() if row["errors"]} == {}
