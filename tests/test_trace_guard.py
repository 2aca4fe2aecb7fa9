"""The benchmark's span tracer still fits the package.

``perfbench/tracer.py`` wraps package functions by name for ``--trace 1``.
A deletion or rename of a traced name makes its install fail, so this
guard installs the tracer, uninstalls it, and checks that the package and
its public names come back intact. The traced spans also read their
arguments and results (``ops.conv2d``'s a 4-D output), so ``check``, whose
probes run stacked forwards, must run under the tracer without a span
error, and its probes must run inside the traced ``encoder.encoder_forward``
span, once per stem, so that their time is not ``cli.main`` self time.
``embed`` encodes each chunk as (n, 1, 3, H, W), one batch per
image; ``encoder.encoder_forward``'s span counts ``len(images)``, so its
image count must still be the number of images embedded. ``embed`` reads
each image with one ``formats.read_image_ppm`` call, so that span's call
count, which the benchmark reports, must be the number of images read.
These are guards, not regression tests: they also pass where ``embed``
encoded (n, 3, H, W) chunks with per-sample statistics, and where
``read_image_ppm`` read through ``Path.read_bytes``. The count of
``check``'s ``encoder_forward`` calls is the exception: it fails where
each tensor's probes ran their own forward, resumed at the first
stage the tensor feeds.
"""

import importlib.util
from pathlib import Path

import pytest

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
    assert totals["encoder.encoder_forward"]["calls"] == 3
    assert {name: row["errors"] for name, row in totals.items() if row["errors"]} == {}


@pytest.mark.parametrize("variant", ["patchify", "conv", "ics"])
def test_embed_runs_under_the_tracer(tmp_path, variant):
    corpus = tmp_path / "corpus"
    assert cfs_curate.cli.main(["synth", "--seed", "4", "--n-per-domain", "3", "--height",
                                "32", "--width", "32", "--out", str(corpus)]) == 0
    sources = sorted(str(p) for p in corpus.glob("*.ppm"))
    tracer = load_tracer()
    recorder = tracer.Tracer()
    try:
        recorder.install(cfs_curate)
        assert cfs_curate.cli.main(["embed", *sources, "--stem", variant,
                                    "--out", str(tmp_path / "e.emb")]) == 0
        totals = recorder.collect()
    finally:
        problems = recorder.uninstall(cfs_curate)
    assert problems == []
    assert totals["encoder.encoder_forward"]["images"] == len(sources) == 6
    assert totals["formats.read_image_ppm"]["calls"] == 6
    assert {name: row["errors"] for name, row in totals.items() if row["errors"]} == {}
