"""Binary embedding files, PPM images, deterministic JSON reports."""

import json
import math
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfs_curate import formats
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import FormatError

from conftest import loop_ppm_tokens


def sample_set(seed=0, n=5, d=3):
    rng = np.random.default_rng(seed)
    # float32-representable features so the round-trip is exact
    feats = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    return EmbeddingSet([f"id-{i}" for i in range(n)], feats)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        original = sample_set()
        path = tmp_path / "e.emb"
        formats.write_embeddings(original, path)
        loaded = formats.read_embeddings(path)
        assert loaded.ids == original.ids
        assert loaded.features.dtype == np.float64
        np.testing.assert_array_equal(loaded.features, original.features)

    def test_round_trip_quantizes_to_float32(self, tmp_path):
        feats = np.array([[0.1, 0.2]])  # not float32-representable
        original = EmbeddingSet(["a"], feats)
        path = tmp_path / "e.emb"
        formats.write_embeddings(original, path)
        loaded = formats.read_embeddings(path)
        np.testing.assert_array_equal(loaded.features,
                                      feats.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("id_length", [1, 2, 3, 4])
    def test_features_block_at_any_alignment(self, tmp_path, id_length):
        """The features block starts at 18 + len(id) bytes, aligned to 4 or
        not; its float32 values, signed zeros and subnormals included, come
        back bitwise in a writable float64 array."""
        values = np.array([[-0.0, 1e-45, -3.5], [2.0**-126, 0.1, 3.4e38]], dtype=np.float32)
        path = tmp_path / "e.emb"
        formats.write_embeddings(
            EmbeddingSet(["a" * id_length, "b" * id_length], values.astype(np.float64)), path)
        loaded = formats.read_embeddings(path).features
        assert loaded.flags.writeable
        np.testing.assert_array_equal(loaded.view(np.uint64),
                                      values.astype(np.float64).view(np.uint64))

    def test_empty_set(self, tmp_path):
        path = tmp_path / "empty.emb"
        formats.write_embeddings(EmbeddingSet([], np.zeros((0, 4))), path)
        loaded = formats.read_embeddings(path)
        assert loaded.ids == [] and loaded.features.shape == (0, 4)

    def test_records_of_dimension_zero_rejected(self, tmp_path):
        path = tmp_path / "flat.emb"
        path.write_bytes(b"EMB1" + struct.pack("<HII", 1, 1, 0) + struct.pack("<I", 1) + b"a")
        with pytest.raises(FormatError, match="1 records of dimension 0"):
            formats.read_embeddings(path)

    def test_records_of_dimension_zero_refused_before_writing(self, tmp_path):
        path = tmp_path / "flat.emb"
        with pytest.raises(FormatError, match="2 records of dimension 0"):
            formats.write_embeddings(EmbeddingSet(["a", "b"], np.zeros((2, 0))), path)
        assert not path.exists()

    def test_unicode_ids(self, tmp_path):
        original = EmbeddingSet(["café", "日本"], np.eye(2, dtype=np.float32).astype(np.float64))
        path = tmp_path / "u.emb"
        formats.write_embeddings(original, path)
        assert formats.read_embeddings(path).ids == ["café", "日本"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            formats.read_embeddings(path)

    def test_bad_version(self, tmp_path):
        original = sample_set()
        path = tmp_path / "v.emb"
        formats.write_embeddings(original, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # little-endian version field
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            formats.read_embeddings(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.emb"
        path.write_bytes(b"EMB1\x01\x00")
        with pytest.raises(FormatError, match="header"):
            formats.read_embeddings(path)

    def test_truncated_ids(self, tmp_path):
        original = sample_set()
        path = tmp_path / "t.emb"
        formats.write_embeddings(original, path)
        data = path.read_bytes()
        path.write_bytes(data[:16])
        with pytest.raises(FormatError, match="id"):
            formats.read_embeddings(path)

    def test_truncated_features(self, tmp_path):
        original = sample_set()
        path = tmp_path / "t.emb"
        formats.write_embeddings(original, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="feature"):
            formats.read_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        original = sample_set()
        path = tmp_path / "t.emb"
        formats.write_embeddings(original, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            formats.read_embeddings(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        original = sample_set()
        path = tmp_path / "t.emb"
        formats.write_embeddings(original, path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="NaN or Inf"):
            formats.read_embeddings(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "t.emb"
        formats.write_embeddings(EmbeddingSet(["ab", "cd"], np.zeros((2, 1))), path)
        path.write_bytes(path.read_bytes().replace(b"cd", b"ab"))
        with pytest.raises(FormatError, match="duplicate"):
            formats.read_embeddings(path)

        # 10 000 ids, each twice: rejected in linear time, naming the first five
        n = 10_000
        ids = [f"a{i:05d}" for i in range(n)] + [f"b{i:05d}" for i in range(n)]
        formats.write_embeddings(EmbeddingSet(ids, np.zeros((2 * n, 1))), path)
        path.write_bytes(path.read_bytes().replace(b"\x06\x00\x00\x00b", b"\x06\x00\x00\x00a"))
        start = time.perf_counter()
        with pytest.raises(FormatError, match=re.escape(str(ids[:5]))):
            formats.read_embeddings(path)
        assert time.perf_counter() - start < 1.0

    def test_float32_overflow_refused_before_writing(self, tmp_path):
        path = tmp_path / "t.emb"
        with pytest.raises(FormatError, match="overflows float32"):
            formats.write_embeddings(EmbeddingSet(["a"], np.array([[1e39]])), path)
        assert not path.exists()

    def test_layout_is_little_endian(self, tmp_path):
        original = EmbeddingSet(["ab"], np.array([[1.0]], dtype=np.float32).astype(np.float64))
        path = tmp_path / "l.emb"
        formats.write_embeddings(original, path)
        data = path.read_bytes()
        assert data[:4] == b"EMB1"
        assert data[4:6] == (1).to_bytes(2, "little")          # version
        assert data[6:10] == (1).to_bytes(4, "little")         # count
        assert data[10:14] == (1).to_bytes(4, "little")        # dim
        assert data[14:18] == (2).to_bytes(4, "little")        # id length
        assert data[18:20] == b"ab"
        import struct
        assert data[20:] == struct.pack("<f", 1.0)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_features_write_row_major(self, tmp_path, layout):
        base = np.random.default_rng(3).normal(size=(5, 8))
        view = np.asfortranarray(base) if layout == "fortran" else base[::-1, ::2]
        ids = [f"r{i}" for i in range(5)]
        formats.write_embeddings(EmbeddingSet(ids, view), tmp_path / "v.emb")
        formats.write_embeddings(EmbeddingSet(ids, view.copy(order="C")), tmp_path / "c.emb")
        assert (tmp_path / "v.emb").read_bytes() == (tmp_path / "c.emb").read_bytes()

    def test_write_peak_is_one_float32_copy_and_the_file(self, tmp_path):
        """The file is assembled in one bytearray that takes the float32
        features from a buffer view and is written as is; a tobytes() or
        bytes() copy of either would add a whole block to the peak."""
        n, d = 20_000, 32
        original = EmbeddingSet([f"rec-{i:06d}" for i in range(n)],
                                np.random.default_rng(0).normal(size=(n, d)))
        path = tmp_path / "big.emb"
        tracemalloc.start()
        try:
            formats.write_embeddings(original, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (n * d * 4 + path.stat().st_size)


class TestPpm:
    def test_white_pixel(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6 1 1 255\n\xff\xff\xff")
        np.testing.assert_array_equal(formats.read_image_ppm(path), np.ones((1, 1, 3)))

    def test_black_pixel(self, tmp_path):
        path = tmp_path / "b.ppm"
        path.write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        np.testing.assert_array_equal(formats.read_image_ppm(path), np.zeros((1, 1, 3)))

    def test_short_payload(self, tmp_path):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6 2 1 255\n" + b"\x00" * 5)
        with pytest.raises(FormatError, match="payload is 5 bytes, expected 6"):
            formats.read_image_ppm(path)

    def test_long_payload(self, tmp_path):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6 1 1 255\n" + b"\x00" * 4)
        with pytest.raises(FormatError, match="payload is 4 bytes, expected 3"):
            formats.read_image_ppm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n# another\n255\n\x80\x80\x80")
        image = formats.read_image_ppm(path)
        np.testing.assert_allclose(image, 128 / 255, rtol=0, atol=1e-15)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3 1 1 255\n255 255 255\n")
        with pytest.raises(FormatError, match="P6"):
            formats.read_image_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6 1 1 65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="255"):
            formats.read_image_ppm(path)

    @pytest.mark.parametrize("header,pixels", [
        (b"P6 1_6 2 255\n", 32), (b"P6 +2 1 255\n", 2), (b"P6 1 1 2_55\n", 1),
    ], ids=["underscore_width", "signed_width", "underscore_maxval"])
    def test_non_decimal_header_number_rejected(self, tmp_path, header, pixels):
        """int() would read these as 16, 2 and 255, with a payload to match."""
        path = tmp_path / "n.ppm"
        path.write_bytes(header + b"\x00" * (3 * pixels))
        with pytest.raises(FormatError, match="decimal digits"):
            formats.read_image_ppm(path)

    @pytest.mark.parametrize("header", [
        b"P6 " + b"9" * 5000 + b" 1 255\n", b"P6 1 1 " + b"1" * 4300 + b"\n",
        b"P6 1 " + b"1" * 19 + b" 255\n",
    ], ids=["width_over_int_limit", "maxval_at_int_limit", "height_19_digits"])
    def test_over_long_header_number_rejected(self, tmp_path, header):
        """int() refuses more than 4300 digits, and str() of a product or
        an error message refuses as many; none is needed below 10**18."""
        path = tmp_path / "n.ppm"
        path.write_bytes(header + b"\x00" * 3)
        with pytest.raises(FormatError, match="more than 18 digits"):
            formats.read_image_ppm(path)

    @settings(max_examples=500, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=40),
        # header-shaped bytes: the pieces the token reader tells apart
        st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"#", b"\0", b"P6", b"12",
                                  b"255", b"x", b"# c\n", b"\xff"]), max_size=24).map(b"".join),
    ))
    @example(data=b"P6 1 1 # 255")
    @example(data=b"P6 1 1 255 # no newline at the end")
    @example(data=b"P6#a\n1#b\n1#\n255#")
    @example(data=b"P6\r\n\x001 1 255\r\x00")
    @example(data=b"# only a comment")
    @example(data=b"")
    def test_header_tokens_match_loop_oracle(self, data):
        try:
            expected = loop_ppm_tokens(data, "h.ppm")
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                formats._ppm_tokens(data, "h.ppm")
            assert str(info.value) == str(exc)
        else:
            assert formats._ppm_tokens(data, "h.ppm") == expected

    def test_comment_tail_is_not_a_token(self):
        with pytest.raises(FormatError, match="truncated header"):
            formats._ppm_tokens(b"P6 1 1 # 255", "h.ppm")

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(6, 4, 3))
        path = tmp_path / "r.ppm"
        formats.write_image_ppm(image, path)
        loaded = formats.read_image_ppm(path)
        np.testing.assert_allclose(loaded, image, rtol=0, atol=0.5 / 255 + 1e-12)

    def test_write_is_exact_on_grid_values(self, tmp_path):
        image = np.arange(12).reshape(2, 2, 3) / 255.0
        path = tmp_path / "g.ppm"
        formats.write_image_ppm(image, path)
        np.testing.assert_array_equal(formats.read_image_ppm(path), image)


class TestReports:
    def test_deterministic_bytes(self):
        a = formats.report_bytes("tool", {"b": 1, "a": 2}, {"x": [1, 2]})
        b = formats.report_bytes("tool", {"a": 2, "b": 1}, {"x": [1, 2]})
        assert a == b
        assert a.endswith(b"\n")

    def test_keys_sorted(self):
        data = json.loads(formats.report_bytes("t", {"z": 0, "a": 1}, {}))
        assert list(data) == sorted(data)
        assert data["schema_version"] == formats.REPORT_SCHEMA_VERSION
        assert data["tool"] == "t"

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        formats.write_report(path, "scorer", {"seed": 3}, {"ids": ["a"]})
        report = formats.read_report(path)
        assert report["tool"] == "scorer"
        assert report["config"] == {"seed": 3}
        assert report["results"] == {"ids": ["a"]}

    def test_no_timestamps(self):
        a = formats.report_bytes("tool", {}, {})
        import time
        time.sleep(0.01)
        b = formats.report_bytes("tool", {}, {})
        assert a == b

    def test_missing_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tool": "x"}))
        with pytest.raises(FormatError, match="schema_version"):
            formats.read_report(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json{")
        with pytest.raises(FormatError):
            formats.read_report(path)


# keys and strings with non-ASCII, control, quote, backslash and template characters
TEXT = st.text(st.sampled_from('az\u00e9\u65e5\U0001f600\x00\x1f\x7f"\\/%s\n\t '), max_size=4)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf,
                                                   -math.inf]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
                    FLOATS.map(np.float64))


@st.composite
def row_lists(draw, values):
    """Lists of dicts: shared key sets of scalar columns, mixed-type columns,
    ragged rows and nested values."""
    names = draw(st.lists(TEXT, max_size=4, unique=True))
    kinds = [TEXT, st.integers(), st.floats(allow_nan=False, allow_infinity=False), FLOATS,
             SCALARS, values]
    columns = {name: draw(st.sampled_from(kinds)) for name in names}
    rows = [{name: draw(column) for name, column in columns.items()}
            for _ in range(draw(st.integers(1, 5)))]
    if draw(st.integers(0, 2)) == 0:  # ragged: one row loses a key or gains one
        row = draw(st.sampled_from(rows))
        if row and draw(st.booleans()):
            del row[draw(st.sampled_from(sorted(row)))]
        else:
            row[draw(TEXT)] = draw(SCALARS)
    return rows


JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.tuples(children, children),
        row_lists(children),
    ),
    max_leaves=30,
)


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(config=st.dictionaries(TEXT, JSON_VALUES, max_size=3), results=JSON_VALUES)
    def test_bytes_equal_json_dumps_oracle(self, config, results):
        document = {"schema_version": formats.REPORT_SCHEMA_VERSION, "tool": "t",
                    "config": config, "results": results}
        oracle = json.dumps(document, sort_keys=True, indent=2) + "\n"
        assert formats.report_bytes("t", config, results) == oracle.encode("utf-8")

    @settings(max_examples=200, deadline=None)
    @given(rows=row_lists(SCALARS))
    def test_row_lists_equal_json_dumps_oracle(self, rows):
        oracle = json.dumps({"config": {}, "results": {"entries": rows}, "schema_version": 1,
                             "tool": "t"}, sort_keys=True, indent=2) + "\n"
        assert formats.report_bytes("t", {}, {"entries": rows}) == oracle.encode("utf-8")


IDS = st.text(st.sampled_from('azé日\U0001f600\U0010ffff\x00\x1f\x7f"\\/%s\n\t '),
              max_size=6) | st.just("café")
INTS = st.integers() | st.sampled_from([0, -1, 2**53 + 1, 2**64, -(2**100), 10**300])
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e16, 1e17, 1.5, -1e308]))
# columns the table writer formats itself ...
COLUMN_KINDS = [IDS, INTS, FINITE]
# ... and columns that must take the generic path: non-finite floats, bools,
# mixed types and NumPy scalars
FALLBACK_KINDS = [FLOATS, st.booleans(), SCALARS, FINITE.map(np.float64),
                  st.one_of(INTS, FINITE)]


def columns_oracle(columns: dict) -> bytes:
    """What a Columns table stands for, through json.dumps."""
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    document = {"schema_version": formats.REPORT_SCHEMA_VERSION, "tool": "t", "config": {},
                "results": {"entries": rows, "n": len(rows)}}
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


def columns_bytes(columns: dict) -> bytes:
    n = len(next(iter(columns.values()), []))
    return formats.report_bytes("t", {}, {"entries": formats.Columns(**columns), "n": n})


@st.composite
def column_tables(draw, kinds):
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    n = draw(st.sampled_from([0, 1, 2, draw(st.integers(3, 40))]))
    return {name: draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n))
            for name in names}


class TestColumnsWriter:
    @settings(max_examples=300, deadline=None)
    @given(columns=column_tables(COLUMN_KINDS))
    def test_bytes_equal_json_dumps_oracle(self, columns):
        assert columns_bytes(columns) == columns_oracle(columns)

    @settings(max_examples=200, deadline=None)
    @given(columns=column_tables(COLUMN_KINDS + FALLBACK_KINDS))
    def test_mixed_columns_equal_json_dumps_oracle(self, columns):
        assert columns_bytes(columns) == columns_oracle(columns)

    @pytest.mark.parametrize("column", [
        [0.5, math.nan], [math.inf, 0.5], [-math.inf], [True, False], [1, 0.5], [0.5, 1],
        [1, True], ["a", 1], [None, None], [np.float64(0.5)], [[1], [2]],
    ], ids=["nan", "inf", "minus_inf", "bool", "int_then_float", "float_then_int",
            "int_and_bool", "str_and_int", "null", "numpy_float", "nested"])
    def test_fallback_column_equals_oracle(self, column):
        columns = {"id": [f"r{i}" for i in range(len(column))], "value": column}
        assert formats._table(formats.Columns(**columns), "") is None
        assert columns_bytes(columns) == columns_oracle(columns)

    def test_zero_rows_write_empty_list(self):
        for columns in ({"id": [], "score": []}, {}):
            text = formats.report_bytes("t", {}, {"entries": formats.Columns(**columns)})
            assert b'"entries": []' in text
            assert json.loads(text)["results"]["entries"] == []

    def test_many_rows_match_oracle(self):
        rng = np.random.default_rng(5)
        n = 5000
        columns = {"score": np.sort(rng.normal(size=n))[::-1].tolist(),
                   "rank": range(1, n + 1), "id": [f"réc-{i:05d}\"" for i in range(n)]}
        assert columns_bytes(columns) == columns_oracle(columns)

    @pytest.mark.parametrize("short", [[0.5], [], [math.nan]])
    def test_unequal_lengths_rejected(self, short):
        with pytest.raises(ValueError):
            formats.report_bytes("t", {}, {"entries": formats.Columns(id=["a", "b"], score=short)})
