"""Seeded benchmark inputs and their oracles, independent of ``cfs_curate``.

Inputs are written with this file's own PPM and EMB1 writers, so a change
to the package under test cannot change the bytes it is measured on. Each
(workload, seed) pair is generated once into ``perfbench/_run/inputs`` and
reused; a manifest records the SHA-256 of every file, and a set whose
digests no longer match, or that an older generator wrote, is regenerated.

Oracles (expected rankings, expected ``d_hdh``) are computed here too, in
the generating process, so the timed process neither pays for them in
``setup_s`` nor holds them in ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

SOURCE_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()

DIM = 32
IMAGE_SIDE = 32
CURATE_IMAGES = 256
RANK_RECORDS = 20_000
DUPLICATE_SHARE = 0.01
SELECT_SOURCE = 3000
SELECT_TARGET = 2400
SELECT_K = 64
AUDIT_IMAGES = 128
AUDIT_SAMPLES = 256  # per side of hdh
AUDIT_MAX_THRESHOLDS = 64  # 2 + 32 * 64 = 2050 hypotheses
KEEP_RATIO = 0.5

# exact-tie tolerance for oracle comparisons: distinct scores closer than
# this may be ordered either way without the op failing
SCORE_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# file formats


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def write_emb(path: Path, ids: list[str], features: np.ndarray) -> None:
    blob = bytearray(b"EMB1")
    blob += struct.pack("<HII", 1, len(ids), features.shape[1])
    for record_id in ids:
        data = record_id.encode("utf-8")
        blob += struct.pack("<I", len(data)) + data
    blob += features.astype("<f4").tobytes(order="C")
    path.write_bytes(bytes(blob))


def read_emb(path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != b"EMB1":
        raise ValueError(f"{path}: not an EMB1 file")
    _, count, dim = struct.unpack_from("<HII", data, 4)
    pos = 14
    ids = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, pos)
        ids.append(data[pos + 4:pos + 4 + length].decode("utf-8"))
        pos += 4 + length
    if len(data) - pos != count * dim * 4:
        raise ValueError(f"{path}: features block has the wrong size")
    features = np.frombuffer(data, dtype="<f4", offset=pos).astype(np.float64)
    return ids, features.reshape(count, dim)


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# oracles


def cosine_order(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row cosines and their stable descending order (ties by index)."""
    scores = (a * b).sum(axis=1) / np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
    return scores, np.argsort(-scores, kind="stable")


def order_mismatch(got_ids, expected_ids, score_of: dict, index_of: dict) -> str | None:
    """Why ``got_ids`` is not the oracle order, or None if it is.

    Positions may differ only between records whose oracle scores lie
    within SCORE_TOLERANCE; records with bitwise-equal oracle scores
    (the planted duplicates) must keep ascending input order.
    """
    if len(got_ids) != len(expected_ids):
        return f"{len(got_ids)} ids, expected {len(expected_ids)}"
    for pos, (got, want) in enumerate(zip(got_ids, expected_ids)):
        if got != want:
            if got not in score_of:
                return f"unknown id {got!r} at position {pos}"
            if abs(score_of[got] - score_of[want]) > SCORE_TOLERANCE:
                return f"position {pos}: got {got!r}, expected {want!r}"
    last: dict[float, int] = {}
    for got in got_ids:
        score = score_of[got]
        if index_of[got] < last.get(score, -1):
            return f"tied id {got!r} out of input order"
        last[score] = index_of[got]
    return None


def stump_thresholds(x: np.ndarray, cap: int) -> list[tuple[int, float]]:
    """Midpoints of sorted unique values per dimension, thinned to ``cap``
    by evenly spaced index picks (first and last kept)."""
    out = []
    for dim in range(x.shape[1]):
        uniq = np.unique(x[:, dim])
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        if len(mids) > cap:
            mids = mids[np.round(np.linspace(0, len(mids) - 1, cap)).astype(int)]
        out += [(dim, float(t)) for t in mids]
    return out


def hdh_oracle(u1: np.ndarray, u2: np.ndarray, cap: int) -> tuple[float, int]:
    """Exact max over hypothesis pairs of the disagreement-rate gap.

    Pairwise disagreement counts come from a_i + a_j - 2 <p_i, p_j>, a
    different route to the same integers as the program's, so the final
    float64 divisions see identical operands and the maximum is exact.
    """
    stumps = stump_thresholds(np.vstack([u1, u2]), cap)

    def disagreements(x):
        preds = np.empty((len(stumps) + 2, x.shape[0]))
        preds[0] = 0.0
        preds[1] = 1.0
        for row, (dim, t) in enumerate(stumps, start=2):
            preds[row] = x[:, dim] > t
        ones = preds.sum(axis=1)
        return ones[:, None] + ones[None, :] - 2.0 * (preds @ preds.T)

    gaps = np.abs(disagreements(u1) / u1.shape[0] - disagreements(u2) / u2.shape[0])
    return float(gaps.max()), len(stumps) + 2


# ---------------------------------------------------------------------------
# generators


def draw_images(rng: np.random.Generator, count: int) -> np.ndarray:
    """Colored rectangles on a blocky textured background, uint8 (N, H, W, 3)."""
    side = IMAGE_SIDE
    base = rng.uniform(40, 215, size=(count, 1, 1, 3))
    texture = rng.normal(0, 20, size=(count, 4, 4, 3)).repeat(side // 4, 1).repeat(side // 4, 2)
    canvas = base + texture
    for i in range(count):
        for _ in range(int(rng.integers(1, 4))):
            top, left = rng.integers(0, side - 4, size=2)
            fh, fw = rng.integers(4, side // 2, size=2)
            canvas[i, top:top + fh, left:left + fw] = rng.uniform(0, 255, size=3)
    return np.clip(np.round(canvas), 0, 255).astype(np.uint8)


def write_images(out: Path, images: np.ndarray, prefix: str) -> list[str]:
    names = []
    for i, pixels in enumerate(images):
        name = f"{prefix}-{i:04d}.ppm"
        write_ppm(out / name, pixels)
        names.append(name)
    return names


def plant_duplicates(rng, *arrays: np.ndarray) -> None:
    """Copy ~DUPLICATE_SHARE of rows from earlier rows, in place, so their
    scores tie exactly and only the stable index tie-break orders them."""
    n = arrays[0].shape[0]
    copies = rng.choice(np.arange(n // 2, n), size=int(n * DUPLICATE_SHARE), replace=False)
    for j in copies:
        i = int(rng.integers(0, j))
        for arr in arrays:
            arr[j] = arr[i]


def as_stored(x: np.ndarray) -> np.ndarray:
    """Features as the program sees them after an EMB1 round trip."""
    return x.astype("<f4").astype(np.float64)


def gen_curate(rng, out: Path) -> dict:
    names = write_images(out, draw_images(rng, CURATE_IMAGES), "img")
    return {"images": names, "records": CURATE_IMAGES,
            "proxy_seeds": [int(s) for s in rng.integers(0, 2**31 - 1, size=2)]}


def gen_rank(rng, out: Path) -> dict:
    a = rng.normal(size=(RANK_RECORDS, DIM))
    b = 0.6 * a + 0.8 * rng.normal(size=a.shape)
    plant_duplicates(rng, a, b)
    ids = [f"rec-{i:06d}" for i in range(RANK_RECORDS)]
    write_emb(out / "by_source.emb", ids, a)
    write_emb(out / "by_target.emb", ids, b)
    scores, order = cosine_order(as_stored(a), as_stored(b))
    np.save(out / "expected_order.npy", order.astype(np.int64))
    np.save(out / "expected_scores.npy", scores)
    return {"records": RANK_RECORDS, "keep": int(np.floor(KEEP_RATIO * RANK_RECORDS))}


def gen_select(rng, out: Path) -> dict:
    # tight, well separated blobs: k-means++ seeds one center per blob and
    # Lloyd's converges in the same number of rounds for every seed
    centers = rng.normal(size=(SELECT_K, DIM)) * 12
    target = centers[np.arange(SELECT_TARGET) % SELECT_K] + rng.normal(size=(SELECT_TARGET, DIM)) * 0.05
    source = centers[rng.integers(SELECT_K, size=SELECT_SOURCE)] + rng.normal(size=(SELECT_SOURCE, DIM))
    source_t = source + rng.normal(size=source.shape) * 0.5
    plant_duplicates(rng, source, source_t)
    ids = [f"src-{i:05d}" for i in range(SELECT_SOURCE)]
    write_emb(out / "source_by_s.emb", ids, source)
    write_emb(out / "source_by_t.emb", ids, source_t)
    write_emb(out / "target.emb", [f"tgt-{i:05d}" for i in range(SELECT_TARGET)], target)
    scores, order = cosine_order(as_stored(source), as_stored(source_t))
    np.save(out / "expected_order.npy", order.astype(np.int64))
    np.save(out / "expected_scores.npy", scores)
    return {"records": SELECT_SOURCE, "keep": int(np.floor(KEEP_RATIO * SELECT_SOURCE)),
            "k": SELECT_K, "strategy_seed": int(rng.integers(0, 2**31 - 1))}


def gen_audit(rng, out: Path) -> dict:
    names = write_images(out, draw_images(rng, AUDIT_IMAGES), "aud")
    u1 = rng.normal(size=(AUDIT_SAMPLES, DIM))
    u2 = rng.normal(size=(AUDIT_SAMPLES, DIM)) * 1.2 + 0.2
    write_emb(out / "samples1.emb", [f"u1-{i:04d}" for i in range(AUDIT_SAMPLES)], u1)
    write_emb(out / "samples2.emb", [f"u2-{i:04d}" for i in range(AUDIT_SAMPLES)], u2)
    d_hdh, hypotheses = hdh_oracle(as_stored(u1), as_stored(u2), AUDIT_MAX_THRESHOLDS)
    return {"images": names, "records": AUDIT_IMAGES + 2 * AUDIT_SAMPLES,
            "max_thresholds": AUDIT_MAX_THRESHOLDS, "d_hdh": d_hdh,
            "hypotheses": hypotheses, "seed": int(rng.integers(0, 2**31 - 1))}


GENERATORS = {"curate": gen_curate, "rank": gen_rank, "select": gen_select, "audit": gen_audit}


def _manifest_valid(directory: Path) -> dict | None:
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError):
        return None
    if manifest.get("generator") != SOURCE_DIGEST:
        return None
    for name, want in manifest["digests"].items():
        path = directory / name
        if not path.is_file() or digest(path) != want:
            return None
    return manifest


def ensure_inputs(cache: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """The input directory for (workload, seed), generating it if needed."""
    directory = cache / f"{workload}-{seed}"
    manifest = _manifest_valid(directory)
    if manifest is not None:
        manifest["cached"] = True
        return directory, manifest
    cache.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{workload}-{seed}-", dir=cache))
    try:
        rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
        spec = GENERATORS[workload](rng, staging)
        manifest = {
            "workload": workload,
            "seed": seed,
            "generator": SOURCE_DIGEST,
            "spec": spec,
            "digests": {p.name: digest(p) for p in sorted(staging.iterdir())},
        }
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest["cached"] = False
    return directory, manifest
