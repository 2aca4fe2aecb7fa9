"""Malformed EMB1 and P6 PPM files fuzzed through the readers and the CLI:
every case is a FormatError and exit code 2, never a crash."""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfs_curate import cli, formats
from cfs_curate.errors import FormatError

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# byte strings no UTF-8 decoder accepts: a lone continuation byte, an
# invalid lead byte, an overlong form, an encoded surrogate, a cut-off
# sequence, a code point above U+10FFFF
BAD_UTF8 = [b"\x80", b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"\xe2\x82", b"\xf4\x90\x80\x80"]


@st.composite
def emb1_layouts(draw):
    """A valid EMB1 file as (ids as bytes, dim, feature bytes)."""
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.integers(1, 9), min_size=n * dim, max_size=n * dim))
    return [i.encode("utf-8") for i in ids], dim, struct.pack(f"<{n * dim}f", *values)


def emb1(ids, dim, features, count=None):
    blob = b"EMB1" + struct.pack("<HII", 1, len(ids) if count is None else count, dim)
    for data in ids:
        blob += struct.pack("<I", len(data)) + data
    return blob + features


def truncation_message(ids, dim, cut):
    """What the reader says of a valid file cut to ``cut`` bytes."""
    def truncated(block, needed, offset):
        return (f"truncated in {block} "
                f"(needed {needed} bytes at offset {offset}, have {cut - offset})")

    if cut < 4:
        return truncated("header", 4, 0)
    if cut < 14:
        return truncated("header", 10, 4)
    pos = 14
    for data in ids:
        if cut < pos + 4:
            return truncated("ids block", 4, pos)
        if cut < pos + 4 + len(data):
            return truncated("ids block", len(data), pos + 4)
        pos += 4 + len(data)
    return truncated("features block", len(ids) * dim * 4, pos)


def assert_data_error(path, message):
    with pytest.raises(FormatError) as info:
        formats.read_embeddings(path)
    assert str(info.value) == f"{path}: {message}"
    assert cli.main(["score", str(path), str(path)]) == 2
    assert cli.main(["hdh", str(path), str(path)]) == 2


class TestEmb1Fuzz:
    @settings(FUZZ, max_examples=50)
    @given(layout=emb1_layouts(), data=st.data())
    def test_truncation_at_every_offset(self, tmp_path, layout, data):
        ids, dim, features = layout
        blob = emb1(ids, dim, features)
        path = tmp_path / "cut.emb"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as info:
                formats.read_embeddings(path)
            assert str(info.value) == f"{path}: {truncation_message(ids, dim, cut)}"
        cut = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:cut])
        assert_data_error(path, truncation_message(ids, dim, cut))

    @FUZZ
    @given(layout=emb1_layouts(), data=st.data())
    def test_dim_too_large_for_file(self, tmp_path, layout, data):
        ids, dim, features = layout
        big = data.draw(st.integers(dim + 1, 2**32 - 1))
        path = tmp_path / "wide.emb"
        path.write_bytes(emb1(ids, big, features))
        offset = 14 + sum(4 + len(i) for i in ids)
        assert_data_error(path, f"truncated in features block (needed {len(ids) * big * 4} "
                                f"bytes at offset {offset}, have {len(features)})")

    @FUZZ
    @given(layout=emb1_layouts(), data=st.data())
    def test_count_too_large_for_file(self, tmp_path, layout, data):
        """The extra records read feature bytes as ids, which run out first
        or are not UTF-8."""
        ids, dim, features = layout
        count = data.draw(st.integers(len(ids) + 1, 2**32 - 1))
        path = tmp_path / "long.emb"
        path.write_bytes(emb1(ids, dim, features, count=count))
        with pytest.raises(FormatError, match="truncated in|not valid UTF-8"):
            formats.read_embeddings(path)
        assert cli.main(["score", str(path), str(path)]) == 2
        assert cli.main(["hdh", str(path), str(path)]) == 2

    @FUZZ
    @given(layout=emb1_layouts(), bad=st.sampled_from(BAD_UTF8), data=st.data())
    def test_bad_utf8_id_reported_before_later_truncation(self, tmp_path, layout, bad, data):
        ids, dim, features = layout
        k = data.draw(st.integers(0, len(ids) - 1))
        ids[k] = bad
        blob = emb1(ids, dim, features)
        if data.draw(st.booleans()):  # cut after the bad id, into a later block
            end_of_bad = 14 + sum(4 + len(i) for i in ids[:k + 1])
            blob = blob[:data.draw(st.integers(end_of_bad, len(blob) - 1))]
        path = tmp_path / "bad.emb"
        path.write_bytes(blob)
        assert_data_error(path, "id is not valid UTF-8")

    @FUZZ
    @given(layout=emb1_layouts(), extra=st.binary(min_size=1, max_size=8))
    def test_trailing_bytes(self, tmp_path, layout, extra):
        path = tmp_path / "tail.emb"
        path.write_bytes(emb1(*layout) + extra)
        assert_data_error(path, f"{len(extra)} trailing bytes after features block")


@st.composite
def malformed_ppms(draw):
    """A P6 file broken one way: cut short, a maxval other than 255,
    trailing bytes, or a header number too long for its payload or for
    int()."""
    fields = [b"%d" % draw(st.integers(1, 4)), b"%d" % draw(st.integers(1, 4)), b"255"]
    payload_size = int(fields[0]) * int(fields[1]) * 3
    kind = draw(st.sampled_from(["truncate", "maxval", "trailing", "long_number"]))
    if kind == "maxval":
        fields[2] = b"%d" % draw(st.integers(0, 2**70).filter(lambda m: m != 255))
    elif kind == "long_number":
        digits = draw(st.sampled_from([20, 4300, 4301, 6000]))
        fields[draw(st.integers(0, 2))] = b"%d" % draw(st.integers(1, 9)) + b"9" * (digits - 1)
    separators = [draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"])) for _ in range(3)]
    header = b"P6" + b"".join(s + f for s, f in zip(separators, fields))
    blob = header + draw(st.sampled_from([b" ", b"\n"])) + draw(
        st.binary(min_size=payload_size, max_size=payload_size))
    if kind == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif kind == "trailing":
        blob += draw(st.binary(min_size=1, max_size=8))
    return blob


class TestPpmFuzz:
    @FUZZ
    @given(blob=malformed_ppms())
    def test_malformed_ppm_is_data_error_never_a_crash(self, tmp_path, blob):
        path = tmp_path / "img.ppm"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            formats.read_image_ppm(path)
        assert cli.main(["embed", str(path), "--out", str(tmp_path / "e.emb")]) == 2
