"""Persistence: the embedding binary format, P6 PPM images, JSON reports.

Embedding file layout (little-endian throughout):

    magic   4 bytes  b"EMB1"
    version u16      currently 1
    count   u32      number of records
    dim     u32      feature dimension
    ids     count times: u32 byte length + that many UTF-8 bytes
    features count*dim float32, row-major

Features are 64-bit in memory and narrowed to 32-bit on write; a
round-trip is exact at 32-bit precision and ids survive byte-for-byte.
A value beyond the float32 range is refused before anything is written,
and a file holding non-finite features or duplicate ids is malformed.
Reports are JSON with sorted keys and no timestamps, so a fixed-seed run
writes byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DimensionError, FormatError
from .validation import check_image

EMB_MAGIC = b"EMB1"
EMB_VERSION = 1

REPORT_SCHEMA_VERSION = 1


def write_embeddings(embedding_set: EmbeddingSet, path) -> None:
    path = Path(path)
    with np.errstate(over="ignore"):
        features = embedding_set.features.astype("<f4")
    if not np.isfinite(features).all():
        raise FormatError(f"cannot write embeddings to {path}: a feature overflows float32")
    blob = bytearray()
    blob += EMB_MAGIC
    blob += struct.pack("<HII", EMB_VERSION, len(embedding_set), embedding_set.dim)
    for record_id in embedding_set.ids:
        data = record_id.encode("utf-8")
        blob += struct.pack("<I", len(data))
        blob += data
    blob += features.tobytes(order="C")
    try:
        path.write_bytes(bytes(blob))
    except OSError as exc:
        raise FormatError(f"cannot write embeddings to {path}: {exc}") from exc


class _Cursor:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int, block: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated in {block} "
                f"(needed {n} bytes at offset {self.pos}, have {len(self.data) - self.pos})"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out


def read_embeddings(path) -> EmbeddingSet:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read embeddings from {path}: {exc}") from exc
    cur = _Cursor(data, path)
    magic = cur.take(4, "header")
    if magic != EMB_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {EMB_MAGIC!r}")
    version, count, dim = struct.unpack("<HII", cur.take(10, "header"))
    if version != EMB_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    ids = []
    for _ in range(count):
        (length,) = struct.unpack("<I", cur.take(4, "ids block"))
        try:
            ids.append(cur.take(length, "ids block").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: id is not valid UTF-8") from exc
    raw = cur.take(count * dim * 4, "features block")
    if cur.pos != len(data):
        raise FormatError(f"{path}: {len(data) - cur.pos} trailing bytes after features block")
    features = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(count, dim)
    try:
        return EmbeddingSet(ids=ids, features=features)
    except DimensionError as exc:  # non-finite features or duplicate ids
        raise FormatError(f"{path}: {exc}") from exc


def _ppm_tokens(data: bytes, path: Path):
    """Yield header tokens, skipping whitespace and # comments; then report
    the payload offset."""
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header")
        byte = data[pos:pos + 1]
        if byte in b" \t\r\n":
            pos += 1
        elif byte == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and data[pos:pos + 1] not in b" \t\r\n#":
                pos += 1
            tokens.append(data[start:pos])
    # exactly one whitespace byte separates maxval from the payload
    if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
        raise FormatError(f"{path}: missing whitespace before payload")
    return tokens, pos + 1


def read_image_ppm(path) -> np.ndarray:
    """Binary P6 PPM with maxval 255, scaled to float64 in [0, 1]."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read image from {path}: {exc}") from exc
    tokens, offset = _ppm_tokens(data, path)
    if tokens[0] != b"P6":
        raise FormatError(f"{path}: not a P6 file (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):  # bytes.isdigit is ASCII 0-9 only
        raise FormatError(f"{path}: header fields must be decimal digits, got {tokens[1:]}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")
    need = width * height * 3
    payload = data[offset:]
    if len(payload) != need:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {need}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(np.float64) / 255.0


def write_image_ppm(image, path) -> None:
    image = check_image(image)
    height, width = image.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    payload = np.round(image * 255.0).astype(np.uint8).tobytes()
    path = Path(path)
    try:
        path.write_bytes(header + payload)
    except OSError as exc:
        raise FormatError(f"cannot write image to {path}: {exc}") from exc


def report_bytes(tool: str, config: dict, results) -> bytes:
    """Serialize a report deterministically: sorted keys, no timestamps."""
    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": tool,
        "config": config,
        "results": results,
    }
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_report(path, tool: str, config: dict, results) -> None:
    path = Path(path)
    try:
        path.write_bytes(report_bytes(tool, config, results))
    except OSError as exc:
        raise FormatError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read report from {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict) or "schema_version" not in document:
        raise FormatError(f"{path}: missing schema_version")
    return document
