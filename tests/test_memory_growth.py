"""Memory-growth contracts: the bytes each added record costs a command.

A command runs in process under tracemalloc at two corpus sizes; the
difference of the two peaks over the difference of the sizes is its
slope. The budgets are the slopes this helper measured at d = 32 before
the score report was written from columns (score 1258, filter 527
B/record), plus a margin of 10%. Written from columns, score reads
about 918 and filter about 508 B/record. The select, cka, embed, synth
and augment budgets are their measured slopes plus 10%; each test's
docstring gives the slope. The hdh budget and the k-means budget (per
added center) are set from the arrays the command holds rather than from
a measurement.
"""

import math
import struct
import tracemalloc

import numpy as np

from cfs_curate import cli, formats, selection

SIZES = (5_000, 20_000)
DIM = 32
SCORE_BUDGET = 1400  # bytes per added record
FILTER_BUDGET = 580
SELECT_BUDGET = 127_200  # bytes per --n-per-domain step
# six n x 32 arrays of 8-byte values per file: the two feature matrices,
# the ranks, and one table's cell index, weights and index temporary
HDH_BUDGET = 3_072  # bytes per record in each file
CKA_BUDGET = 207_600  # bytes per image
SYNTH_BUDGET = 54_100  # bytes per --n-per-domain step
EMBED_BUDGET = 27_400  # bytes per 32x32 image
EMBED_PAPER_SIZE_BUDGET = 866_000  # bytes per 256x128 image
AUGMENT_CROP_BUDGET = 174  # bytes per pixel
# four k x d float64 arrays (centers, new centers, sums, their shift) at
# d = 32 are 1 KiB per center, the BLOCK_ROWS x k distance block 512 B
KMEANS_CENTER_BUDGET = 2048  # bytes per added center
# kmeans_fit's peak without history at N = 20 000, d = 32, k = 64 is
# 5.78 MB, most of it the N x d seeding buffer; history must add nothing
# of order N x d to it
KMEANS_HISTORY_PEAK_BUDGET = 6_000_000  # bytes


def bytes_per_record(argv_for, sizes=SIZES) -> float:
    """Slope of the tracemalloc peak of ``cli.main(argv_for(n))`` over the
    two sizes; ``argv_for`` writes its inputs before tracing starts. The
    first size runs once untraced, so one-time costs of a process's first
    call (lazy imports, caches) stay out of its peak."""
    peaks = []
    for n in sizes:
        argv = argv_for(n)
        if not peaks:
            assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])


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


def test_select_bytes_per_step_within_budget(tmp_path):
    """About 115.6 KB per --n-per-domain step at k = 8 (16 -> 64)."""
    def argv_for(n):
        return ["select", "--seed", "3", "--n-per-domain", str(n), "--k", "8",
                "--out", str(tmp_path / f"select-{n}.json")]

    assert bytes_per_record(argv_for, sizes=(16, 64)) <= SELECT_BUDGET


def test_hdh_bytes_per_record_within_budget(tmp_path):
    """Per record in each file at --max-thresholds 16 and d = 32 (500 ->
    2000 records), hdh holds O(d) values: its features, ranks and one
    table's cell indices. Its disagreement tables do not grow with n. The
    two float64 prediction matrices of the 514 stumps took 8224 B of the
    8.73 KB the H x n form needed."""
    def argv_for(n):
        return ["hdh", *write_pair(tmp_path, n), "--max-thresholds", "16",
                "--out", str(tmp_path / f"hdh-{n}.json")]

    assert bytes_per_record(argv_for, sizes=(500, 2000)) <= HDH_BUDGET


def test_cka_bytes_per_image_within_budget(tmp_path):
    """About 188.7 KB per 32x32 image for the conv stem (64 -> 256 images),
    since normalization caches hold xhat but not the centered input (216.9
    KB with both). Batch statistics need the whole corpus in one forward
    pass, so the slope is inherent to the report; the budget documents it."""
    def argv_for(n):
        images = tmp_path / f"img-{n}"
        assert cli.main(["synth", "--seed", "0", "--n-per-domain", str(n),
                         "--out", str(images)]) == 0
        return ["cka", *map(str, sorted(images.glob("src-*.ppm"))), "--stem", "conv",
                "--out", str(tmp_path / f"cka-{n}.json")]

    assert bytes_per_record(argv_for, sizes=(64, 256)) <= CKA_BUDGET


def embed_argv(directory, n: int, height: int, width: int):
    """``embed`` of n random height x width PPM images."""
    images = directory / f"img-{height}x{width}-{n}"
    images.mkdir()
    rng = np.random.default_rng(n)
    paths = [str(images / f"im-{i:04d}.ppm") for i in range(n)]
    for path in paths:
        formats.write_image_ppm(rng.uniform(0, 1, (height, width, 3)), path)
    return ["embed", *paths, "--out", str(directory / f"embed-{height}x{width}-{n}.emb")]


def test_embed_bytes_per_image_within_budget(tmp_path):
    """About 24.9 KB per 32x32 image (64 -> 256 images), 24 576 B of it
    the image's one place in the float64 batch (41.7 KB while the corpus
    was held as an image list and its np.stack copy)."""
    slope = bytes_per_record(lambda n: embed_argv(tmp_path, n, 32, 32), sizes=(64, 256))
    assert slope <= EMBED_BUDGET


def test_embed_paper_size_bytes_per_image_within_budget(tmp_path):
    """About 787 KB per image at the paper's 256x128 input size (8 -> 32
    images): one float64 copy of the image, 786 432 B (1.57 MB with the
    image list and its np.stack copy)."""
    slope = bytes_per_record(lambda n: embed_argv(tmp_path, n, 256, 128), sizes=(8, 32))
    assert slope <= EMBED_PAPER_SIZE_BUDGET


def test_synth_bytes_per_step_within_budget(tmp_path):
    """About 49.2 KB per --n-per-domain step at 32x32 (16 -> 64): the two
    float64 images a step adds, 49 152 B, since each domain is one batch
    filled in place (123.3 KB when each domain was held as an image
    list, its np.stack and a scaled copy)."""
    def argv_for(n):
        return ["synth", "--seed", "0", "--n-per-domain", str(n),
                "--out", str(tmp_path / f"synth-{n}")]

    assert bytes_per_record(argv_for, sizes=(16, 64)) <= SYNTH_BUDGET


def test_augment_crop_bytes_per_pixel_within_budget(tmp_path):
    """About 158 B per pixel for --kind crop (64x64 -> 256x256 images),
    6.6 times the 24 B a pixel takes in one float64 (H, W, 3) image. The
    budget documents the slope; it is not a target."""
    def argv_for(pixels):
        side = math.isqrt(pixels)
        image = tmp_path / f"in-{side}.ppm"
        formats.write_image_ppm(np.random.default_rng(side).uniform(0, 1, (side, side, 3)), image)
        return ["augment", str(image), "--kind", "crop",
                "--out", str(tmp_path / f"crop-{side}.ppm")]

    assert bytes_per_record(argv_for, sizes=(64 * 64, 256 * 256)) <= AUGMENT_CROP_BUDGET


def test_kmeans_bytes_per_center_within_budget(monkeypatch):
    """kmeans_fit's tracemalloc peak over k = 16 -> 256 centers at N =
    20 000, d = 32, three Lloyd rounds. A whole N x k distance matrix
    would cost 8 N = 160 000 B per center; the assignment takes row
    blocks, so what grows with k is O(k d + BLOCK_ROWS k)."""
    monkeypatch.setattr(selection, "KMEANS_MAX_ITER", 3)
    x = np.random.default_rng(24).normal(size=(20_000, 32))
    sizes = (16, 256)
    selection.kmeans_fit(x, sizes[0], seed=0)
    peaks = []
    for k in sizes:
        tracemalloc.start()
        try:
            selection.kmeans_fit(x, k, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) <= KMEANS_CENTER_BUDGET


def test_kmeans_history_adds_no_n_by_d_temporary(monkeypatch):
    """kmeans_fit with ``history`` at N = 20 000, d = 32, k = 64, three
    Lloyd rounds. An objective taken over the whole N x d difference peaks
    at 10.6 MB; the row-blocked one stays at the seeding peak."""
    monkeypatch.setattr(selection, "KMEANS_MAX_ITER", 3)
    x = np.random.default_rng(24).normal(size=(20_000, 32))
    history = []
    tracemalloc.start()
    try:
        selection.kmeans_fit(x, 64, seed=0, history=history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(history) == 3
    assert peak <= KMEANS_HISTORY_PEAK_BUDGET
