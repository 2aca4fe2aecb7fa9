"""Memory-growth contracts: the bytes each added record costs a command.

A command runs in process under tracemalloc at two corpus sizes; the
difference of the two peaks over the difference of the sizes is its
slope. The budgets are the slopes this helper measured at d = 32 before
the score report was written from columns (score 1258, filter 527
B/record), plus a margin of 10%. Written from columns, score reads
about 918 and filter about 508 B/record.
"""

import struct
import tracemalloc

import numpy as np

from cfs_curate import cli

SIZES = (5_000, 20_000)
DIM = 32
SCORE_BUDGET = 1400  # bytes per added record
FILTER_BUDGET = 580


def bytes_per_record(argv_for) -> float:
    """Slope of the tracemalloc peak of ``cli.main(argv_for(n))`` over the
    two sizes; ``argv_for`` writes its inputs before tracing starts."""
    peaks = []
    for n in SIZES:
        argv = argv_for(n)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (SIZES[1] - SIZES[0])


def write_pair(directory, n: int):
    """Two EMB1 files of n records, the second a noisy copy of the first."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, DIM))
    ids = b"".join(struct.pack("<I", 10) + f"rec-{i:06d}".encode() for i in range(n))
    paths = []
    for name, x in (("s", a), ("t", 0.6 * a + 0.8 * rng.normal(size=a.shape))):
        path = directory / f"{name}-{n}.emb"
        path.write_bytes(b"EMB1" + struct.pack("<HII", 1, n, DIM) + ids
                         + x.astype("<f4").tobytes())
        paths.append(str(path))
    return paths


def test_score_bytes_per_record_within_budget(tmp_path):
    def argv_for(n):
        return ["score", *write_pair(tmp_path, n), "--out", str(tmp_path / f"scores-{n}.json")]

    assert bytes_per_record(argv_for) <= SCORE_BUDGET


def test_filter_bytes_per_record_within_budget(tmp_path):
    def argv_for(n):
        report = tmp_path / f"scores-{n}.json"
        assert cli.main(["score", *write_pair(tmp_path, n), "--out", str(report)]) == 0
        return ["filter", str(report), "--ratio", "0.5", "--out", str(tmp_path / "kept.json")]

    assert bytes_per_record(argv_for) <= FILTER_BUDGET
