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
A value beyond the float32 range, or records of dimension 0, is refused
before anything is written; a file holding non-finite features,
duplicate ids or records of dimension 0 is malformed. Reports are JSON
with sorted keys and no timestamps, so a fixed-seed run writes
byte-identical files: exactly ``json.dumps(document, sort_keys=True,
indent=2)`` plus a newline, written without CPython's pure-Python
indenting encoder. A ``Columns`` table is written as its list of rows
from its columns, formatted once each, with no per-row dict.
"""

from __future__ import annotations

import json
import math
import re
import struct
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DimensionError, FormatError
from .validation import check_image

EMB_MAGIC = b"EMB1"
EMB_VERSION = 1
_HEADER = struct.Struct("<HII")  # version, count, dim
_ID_LENGTH = struct.Struct("<I")

# no P6 payload of 10**18 or more bytes fits in a file, so a longer header
# number is malformed (and int() refuses more than 4300 digits)
_PPM_MAX_DIGITS = 18

# one PPM header token after any whitespace and # comments; a comment runs to
# the next newline or the end of the data, and the lookahead keeps
# backtracking from ending it early, so its tail is never read as a token
_PPM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*([^ \t\r\n#]+)")

REPORT_SCHEMA_VERSION = 1


def write_embeddings(embedding_set: EmbeddingSet, path) -> None:
    path = Path(path)
    if len(embedding_set) and not embedding_set.dim:
        raise FormatError(f"cannot write embeddings to {path}: "
                          f"{len(embedding_set)} records of dimension 0")
    with np.errstate(over="ignore"):
        features = embedding_set.features.astype("<f4", order="C")
    if not np.isfinite(features).all():
        raise FormatError(f"cannot write embeddings to {path}: a feature overflows float32")
    blob = bytearray()
    blob += EMB_MAGIC
    blob += _HEADER.pack(EMB_VERSION, len(embedding_set), embedding_set.dim)
    for record_id in embedding_set.ids:
        try:
            data = record_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"cannot write embeddings to {path}: "
                              f"id {record_id!r} is not valid UTF-8") from exc
        blob += _ID_LENGTH.pack(len(data))
        blob += data
    blob += memoryview(features)
    try:
        path.write_bytes(blob)
    except OSError as exc:
        raise FormatError(f"cannot write embeddings to {path}: {exc}") from exc


def _truncated(path: Path, block: str, needed: int, offset: int, size: int) -> FormatError:
    return FormatError(
        f"{path}: truncated in {block} "
        f"(needed {needed} bytes at offset {offset}, have {size - offset})"
    )


def read_embeddings(path) -> EmbeddingSet:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read embeddings from {path}: {exc}") from exc
    size = len(data)
    if size < 4:
        raise _truncated(path, "header", 4, 0, size)
    if data[:4] != EMB_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {EMB_MAGIC!r}")
    if size < 14:
        raise _truncated(path, "header", 10, 4, size)
    version, count, dim = _HEADER.unpack_from(data, 4)
    if version != EMB_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if count and not dim:
        raise FormatError(f"{path}: {count} records of dimension 0")
    # one pass over the ids block: a u32 length, then that many UTF-8 bytes;
    # an id that is not UTF-8 is reported before any later truncation
    unpack_length = _ID_LENGTH.unpack_from
    ids = []
    append = ids.append
    pos = 14
    try:
        for _ in range(count):
            start = pos + 4
            if start > size:
                raise _truncated(path, "ids block", 4, pos, size)
            (length,) = unpack_length(data, pos)
            pos = start + length
            if pos > size:
                raise _truncated(path, "ids block", length, start, size)
            append(data[start:pos].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: id is not valid UTF-8") from exc
    need = count * dim * 4
    if pos + need > size:
        raise _truncated(path, "features block", need, pos, size)
    if pos + need != size:
        raise FormatError(f"{path}: {size - pos - need} trailing bytes after features block")
    features = np.frombuffer(data, "<f4", count * dim, pos).astype(np.float64).reshape(count, dim)
    del data  # free the file bytes before EmbeddingSet copies and checks the ids
    try:
        return EmbeddingSet(ids=ids, features=features)
    except DimensionError as exc:  # non-finite features or duplicate ids
        raise FormatError(f"{path}: {exc}") from exc


def _ppm_tokens(data: bytes, path):
    """Read the four header tokens, skipping whitespace and # comments; then
    report the payload offset."""
    pos = 0
    tokens = []
    for _ in range(4):
        match = _PPM_TOKEN.match(data, pos)
        if match is None:
            raise FormatError(f"{Path(path)}: truncated header")
        tokens.append(match.group(1))
        pos = match.end()
    # exactly one whitespace byte separates maxval from the payload
    if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
        raise FormatError(f"{Path(path)}: missing whitespace before payload")
    return tokens, pos + 1


def read_image_ppm(path) -> np.ndarray:
    """Binary P6 PPM with maxval 255, scaled to float64 in [0, 1]. The file
    is read in one unbuffered read; ``Path(path)`` is built only for an
    error message."""
    try:
        with open(path, "rb", buffering=0) as file:
            data = file.read()
    except OSError as exc:
        path = Path(path)
        if exc.filename is not None:  # the OS error names the file as the message does
            exc.filename = str(path)
        raise FormatError(f"cannot read image from {path}: {exc}") from exc
    tokens, offset = _ppm_tokens(data, path)
    if tokens[0] != b"P6":
        raise FormatError(f"{Path(path)}: not a P6 file (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):  # bytes.isdigit is ASCII 0-9 only
        raise FormatError(f"{Path(path)}: header fields must be decimal digits, got {tokens[1:]}")
    if any(len(t) > _PPM_MAX_DIGITS for t in tokens[1:]):
        raise FormatError(f"{Path(path)}: a header number has more than {_PPM_MAX_DIGITS} digits")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise FormatError(f"{Path(path)}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{Path(path)}: maxval must be 255, got {maxval}")
    need = width * height * 3
    if len(data) - offset != need:
        raise FormatError(
            f"{Path(path)}: payload is {len(data) - offset} bytes, expected {need}"
        )
    # uint8 / float divides in float64, bitwise astype(np.float64) / 255.0
    return np.frombuffer(data, np.uint8, need, offset).reshape(height, width, 3) / 255.0


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


# one formatter per exact scalar type, each what json.dumps writes for it;
# a float column must also be finite (json.dumps writes NaN and Infinity)
_SCALAR_FORMATS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _scalars(values: list) -> list[str] | None:
    """JSON text of each value, if all share one exact type in
    ``_SCALAR_FORMATS`` (finite when float); otherwise None."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind not in _SCALAR_FORMATS or (kind is float and not all(map(math.isfinite, values))):
        return None
    return list(map(_SCALAR_FORMATS[kind], values))


class Columns:
    """Equal-length columns by name, which a report writes as the list of
    row objects they stand for: ``Columns(id=ids, rank=ranks)`` as
    ``[{"id": ids[0], "rank": ranks[0]}, ...]``, byte for byte."""

    def __init__(self, **columns):
        self.columns = columns


def _block(brackets: str, items: list[str], indent: str) -> str:
    """``items`` one per line, two spaces in from ``indent``, inside ``brackets``."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _table(table: Columns, indent: str) -> str | None:
    """JSON text of a table's rows, if its columns are ``_scalars`` of one
    length, as one join of the column texts and separators; else None."""
    names = sorted(table.columns)
    texts = [_scalars(table.columns[name]) for name in names]
    if None in texts or len(set(map(len, texts))) != 1:
        return None
    row, field = indent + "  ", indent + "    "
    keys = [f"{encode_basestring_ascii(name)}: " for name in names]
    # the first column's separator also closes the previous row
    seps = [f"\n{row}}},\n{row}{{\n{field}{keys[0]}", *(f",\n{field}{k}" for k in keys[1:])]
    stride = 2 * len(names)
    pieces = [None] * (stride * len(texts[0]))
    for j, (sep, text) in enumerate(zip(seps, texts)):
        pieces[2 * j::stride] = [sep] * len(text)
        pieces[2 * j + 1::stride] = text
    pieces[0] = f"[\n{row}{{\n{field}{keys[0]}"
    pieces.append(f"\n{row}}}\n{indent}]")
    return "".join(pieces)


def _dumps(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, its lines after the
    first indented by ``indent``; a ``Columns`` table as its list of rows."""
    inner = indent + "  "
    if type(value) is Columns:
        names, rows = value.columns, zip(*value.columns.values(), strict=True)
        return _table(value, indent) or _dumps([dict(zip(names, row)) for row in rows], indent)
    if type(value) is dict and set(map(type, value)) == {str}:  # {} has no key types
        items = [f"{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
                 for key in sorted(value)]
        return _block("{}", items, indent)
    if type(value) is list and value:
        items = _scalars(value) or [_dumps(v, inner) for v in value]
        return _block("[]", items, indent)
    # everything else, through json.dumps; a JSON string never holds a raw
    # newline, so each newline starts a line to indent
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def report_bytes(tool: str, config: dict, results) -> bytes:
    """Serialize a report deterministically: sorted keys, no timestamps.
    The bytes are ``json.dumps(document, sort_keys=True, indent=2) + "\\n"``."""
    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": tool,
        "config": config,
        "results": results,
    }
    return (_dumps(document, "") + "\n").encode("utf-8")


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
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc}") from exc
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict) or "schema_version" not in document:
        raise FormatError(f"{path}: missing schema_version")
    return document
