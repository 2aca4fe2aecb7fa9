"""Command-line interface: pipelines, determinism, exit codes."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cfs_curate
from cfs_curate import cli, divergence, encoder, formats, pipeline, stems
from cfs_curate.embeddings import EmbeddingSet
from cfs_curate.errors import RangeError
from conftest import (
    assert_bitwise_equal,
    full_forward_gradient_self_test,
    stacked_load_images,
)


def run(*argv):
    return cli.main(list(argv))


def make_corpus(tmp_path, n=4, seed=4):
    out = tmp_path / "corpus"
    assert run("synth", "--seed", str(seed), "--n-per-domain", str(n),
               "--height", "16", "--width", "16", "--extreme-fraction", "0.0",
               "--out", str(out)) == 0
    return out


class TestExitCodes:
    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_no_subcommand_is_usage_error(self):
        assert run() == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("check", "--frobnicate") == 1

    def test_bad_value_is_usage_error(self, tmp_path):
        corpus = make_corpus(tmp_path)
        emb = tmp_path / "e.emb"
        assert run("embed", str(corpus / "src-0000.ppm"), "--out", str(emb)) == 0
        scores = tmp_path / "s.json"
        assert run("score", str(emb), str(emb), "--out", str(scores)) == 0
        assert run("filter", str(scores), "--ratio", "7.0") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("score", str(tmp_path / "no.emb"), str(tmp_path / "no.emb")) == 2

    def test_malformed_embedding_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"EMB1" + struct.pack("<HII", 1, 5, 4))  # truncated
        assert run("score", str(bad), str(bad)) == 2

    def test_malformed_ppm_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6 2 1 255\n\x00\x00\x00")
        assert run("embed", str(bad), "--out", str(tmp_path / "e.emb")) == 2

    def test_filter_flags_mutually_exclusive(self, tmp_path):
        scores = tmp_path / "s.json"
        formats.write_report(scores, "score", {}, {"entries": []})
        assert run("filter", str(scores), "--ratio", "0.5", "--n-prime", "1") == 1
        assert run("filter", str(scores)) == 1

    def test_filter_rejects_non_score_report(self, tmp_path):
        report = tmp_path / "r.json"
        formats.write_report(report, "bound", {}, {"rhs": 1.0})
        assert run("filter", str(report), "--n-prime", "0") == 2

    @pytest.mark.parametrize("entries", [
        [{"id": "a", "rank": 1, "score": "high"}],
        [{"id": "a", "rank": 1, "score": 0.1}, {"id": "b", "rank": 2, "score": 0.9}],
        [{"id": "a", "rank": 0, "score": 0.5}],
        [{"id": "a", "rank": 1, "score": 0.5}, {"id": "b", "rank": 3, "score": 0.4}],
        [{"id": "a", "rank": 1, "score": 0.5}, {"id": "b", "rank": 1, "score": 0.4}],
        [{"id": "a", "rank": 1, "score": float("nan")}, {"id": "b", "rank": 2, "score": 0.4}],
        [{"id": "a", "rank": 1, "score": 0.5}, {"id": "a", "rank": 2, "score": 0.4}],
        [{"id": "a", "rank": 1.5, "score": 0.5}],
        [{"id": "a", "rank": "1", "score": 0.5}],
        [{"id": "a", "rank": True, "score": 0.5}],
        [{"id": None, "rank": 1, "score": 0.5}],
        [{"id": 5, "rank": 1, "score": 0.5}],
        [{"id": "a", "rank": 1, "score": "0.5"}],
        [{"id": "a", "rank": 1, "score": True}],
        {},
        b'[{"id": "a", "rank": ' + b"9" * 5000 + b', "score": 0.5}]',
        b"[" * 100_000 + b"]" * 100_000,
        b'[{"id": "\xff", "rank": 1, "score": 0.5}]',
        b'[{"id": "a", "rank": 1, "score": 1' + b"0" * 400 + b"}]",
        b'[{"id": "b", "rank": 2, "score": 0.5}, {"id": "a", "rank": 1, "score": 1'
        + b"0" * 400 + b"}]",
    ], ids=["non_numeric_score", "increasing_score", "rank_zero", "rank_above_n",
            "repeated_rank", "nan_score", "repeated_id", "float_rank", "string_rank",
            "bool_rank", "null_id", "int_id", "string_score", "bool_score", "entries_object",
            "over_long_rank", "deep_nesting", "not_utf8", "over_large_score_in_rank_order",
            "over_large_score_out_of_rank_order"])
    def test_malformed_score_report_is_data_error(self, tmp_path, entries):
        scores = tmp_path / "s.json"
        if isinstance(entries, bytes):  # raw text that no report writer produces
            scores.write_bytes(b'{"schema_version": 1, "tool": "score", "config": {}, '
                               b'"results": {"entries": ' + entries + b"}}")
        else:
            formats.write_report(scores, "score", {}, {"entries": entries})
        assert run("filter", str(scores), "--n-prime", "1") == 2

    def test_non_finite_embedding_is_data_error(self, tmp_path):
        path = tmp_path / "inf.emb"
        formats.write_embeddings(EmbeddingSet(["a", "b"], np.zeros((2, 2))), path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        assert run("hdh", str(path), str(path)) == 2

    def test_zero_dim_embedding_is_data_error(self, tmp_path):
        """Records of dimension 0 once gave hdh a d_hdh of 0.0 with exit 0."""
        path = tmp_path / "flat.emb"
        path.write_bytes(b"EMB1" + struct.pack("<HII", 1, 2, 0)
                         + struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + b"b")
        assert run("hdh", str(path), str(path)) == 2
        assert run("score", str(path), str(path)) == 2

    def test_non_utf8_image_name_is_data_error(self, tmp_path):
        """A file name that is not UTF-8 gives an id that EMB1 cannot hold;
        it once escaped write_embeddings as a UnicodeEncodeError, exit 1."""
        image = tmp_path / "\udcff.ppm"  # the file name is the bytes b"\xff.ppm"
        formats.write_image_ppm(np.zeros((16, 16, 3)), image)
        emb = tmp_path / "e.emb"
        assert run("embed", str(image), "--out", str(emb)) == 2
        assert not emb.exists()

    def test_embed_duplicate_stems_refused_before_reading(self, tmp_path, monkeypatch, capsys):
        """Two paths with one file stem once read and encoded every image
        before EmbeddingSet refused the repeated id."""
        corpus = make_corpus(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        (other / "src-0000.ppm").write_bytes((corpus / "src-0000.ppm").read_bytes())
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "read_image_ppm", counted(cli.read_image_ppm))
        monkeypatch.setattr(pipeline, "encoder_forward", counted(pipeline.encoder_forward))
        emb = tmp_path / "e.emb"
        paths = [corpus / "src-0000.ppm", other / "src-0000.ppm", corpus / "src-0001.ppm"]
        assert run("embed", *map(str, paths), "--out", str(emb)) == 1
        assert "duplicate ids: ['src-0000']" in capsys.readouterr().err
        assert calls == []
        assert not emb.exists()

    def test_cka_accepts_repeated_stems(self, tmp_path):
        """cka's report counts images and names none, so one stem may repeat."""
        corpus = make_corpus(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        (other / "src-0000.ppm").write_bytes((corpus / "src-0001.ppm").read_bytes())
        out = tmp_path / "cka.json"
        paths = [corpus / "src-0000.ppm", other / "src-0000.ppm", corpus / "src-0002.ppm"]
        assert run("cka", *map(str, paths), "--kinds", "flip", "--out", str(out)) == 0
        assert formats.read_report(out)["results"]["corpus_id"] == "3 images"

    def test_hdh_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        """Sets of different dimension once reached np.vstack and exited
        with NumPy's message about concatenation axes."""
        p1 = tmp_path / "d4.emb"
        p2 = tmp_path / "d8.emb"
        formats.write_embeddings(EmbeddingSet(["a", "b"], np.ones((2, 4))), p1)
        formats.write_embeddings(EmbeddingSet(["c", "d"], np.ones((2, 8))), p2)
        out = tmp_path / "hdh.json"
        assert run("hdh", str(p1), str(p2), "--out", str(out)) == 1
        assert "feature dims differ: 4 vs 8" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_image_sizes_is_usage_error(self, tmp_path):
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        formats.write_image_ppm(np.zeros((4, 4, 3)), a)
        formats.write_image_ppm(np.zeros((8, 8, 3)), b)
        assert run("embed", str(a), str(b), "--out", str(tmp_path / "e.emb")) == 1

    def test_zero_max_thresholds_is_usage_error(self, tmp_path, capsys):
        """With no thresholds only the two constant stumps remain, and hdh
        once answered d_hdh 0.0 with exit 0 whatever the samples."""
        lo = EmbeddingSet(["a", "b"], np.array([[0.0], [0.1]]))
        hi = EmbeddingSet(["c", "d"], np.array([[0.9], [1.0]]))
        p1 = tmp_path / "lo.emb"
        p2 = tmp_path / "hi.emb"
        formats.write_embeddings(lo, p1)
        formats.write_embeddings(hi, p2)
        out = tmp_path / "hdh.json"
        assert run("hdh", str(p1), str(p2), "--max-thresholds", "0", "--out", str(out)) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,field", [
        ("--brightness", "brightness_offset"), ("--hue", "hue_rotation"),
        ("--noise", "noise_sigma"),
    ])
    def test_non_finite_synth_shift_is_usage_error(self, tmp_path, capsys, flag, field):
        """A NaN brightness once wrote the source images, then failed in
        the writer on the shifted target."""
        out = tmp_path / "corpus"
        assert run("synth", "--n-per-domain", "2", "--height", "8", "--width", "8",
                   flag, "nan", "--out", str(out)) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["brightness", "contrast", "saturation", "flip"])
    def test_non_finite_augment_magnitude_is_usage_error(self, tmp_path, capsys, kind):
        source = tmp_path / "in.ppm"
        formats.write_image_ppm(np.full((4, 4, 3), 0.5), source)
        out = tmp_path / "out.ppm"
        assert run("augment", str(source), "--kind", kind, "--magnitude", "nan",
                   "--out", str(out)) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_collapsing_stem_configuration_is_usage_error(self, tmp_path):
        """conv at 16x16 and stride 16 would embed every image identically."""
        corpus = make_corpus(tmp_path)
        sources = [str(p) for p in sorted(corpus.glob("src-*.ppm"))]
        emb = tmp_path / "e.emb"
        assert run("embed", *sources, "--stem", "conv", "--out", str(emb)) == 1
        assert not emb.exists()

    def test_collapsing_stem_message_fits_embed(self, tmp_path, capsys):
        """embed encodes each image as its own batch, so the refusal names
        the stem and the image size and advises only what embed can change."""
        corpus = make_corpus(tmp_path)
        sources = [str(p) for p in sorted(corpus.glob("src-*.ppm"))[:3]]
        capsys.readouterr()
        assert run("embed", *sources, "--stem", "conv", "--out", str(tmp_path / "e.emb")) == 1
        err = capsys.readouterr().err
        assert "conv stem" in err and "16x16 images" in err and "1x1 map" in err
        assert "larger batch" not in err and "per sample" not in err


# one valid argv per command, and the typed flag each command with one gets a bad value for
VALID_ARGVS = {
    "embed": ["embed", "a.ppm", "b.ppm", "--stem", "conv", "--seed", "3", "--out", "e.emb"],
    "score": ["score", "a.emb", "b.emb", "--out", "s.json"],
    "filter": ["filter", "s.json", "--ratio", "0.5"],
    "select": ["select", "--k", "4", "--n-per-domain", "8", "--hue", "0.1"],
    "cka": ["cka", "a.ppm", "--kinds", "flip,scale", "--seed", "2"],
    "augment": ["augment", "a.ppm", "--kind", "flip", "--out", "b.ppm"],
    "hdh": ["hdh", "a.emb", "b.emb", "--max-thresholds", "4"],
    "bound": ["bound", "--d-hdh", "0.1", "--f-hat-t", "0.2", "--f-t-star", "0.1",
              "--f-s-star", "0.1", "--vc-dim", "3", "--n", "100", "--delta", "0.05"],
    "synth": ["synth", "--seed", "2", "--out", "d"],
    "check": ["check", "--out", "c.json"],
}
TYPED_FLAGS = {"embed": "--seed", "filter": "--ratio", "select": "--k", "cka": "--seed",
               "augment": "--magnitude", "hdh": "--max-thresholds", "bound": "--n",
               "synth": "--height"}
ALL_COMMANDS = "{embed,score,filter,select,cka,augment,hdh,bound,synth,check}"


def parser_argvs():
    for command, valid in VALID_ARGVS.items():
        yield from ([command, "-h"], [command], valid, [*valid, "--bogus"])
        if command in TYPED_FLAGS:
            yield [*valid, TYPED_FLAGS[command], "x"]
    yield from ([], ["--help"], ["bogus"])


def parse_outcome(capsys, parse):
    """Exit code, stdout and stderr of ``parse()``; the code of a parse
    that succeeds is what its command's handler returns."""
    try:
        args = parse()
        code = args if isinstance(args, int) else args.func(args)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


class TestParser:
    """``main`` builds only the named command's subparser; what argparse
    prints and parses must be what the parser of all ten commands gives."""

    @pytest.mark.parametrize("argv", list(parser_argvs()), ids=lambda a: " ".join(a) or "none")
    def test_main_parses_as_the_full_parser(self, monkeypatch, capsys, argv):
        parsed = []
        for name, (help_text, add_flags, _) in cli.COMMANDS.items():
            monkeypatch.setitem(cli.COMMANDS, name,
                                (help_text, add_flags, lambda args: parsed.append(vars(args)) or 0))
        expected = parse_outcome(capsys, lambda: cli.build_parser().parse_args(argv))
        assert parse_outcome(capsys, lambda: cli.main(argv)) == expected
        assert parsed[:1] == parsed[1:]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["score", "a", "b", "--bogus"]],
                             ids=lambda a: " ".join(a) or "none")
    def test_usage_lists_every_command(self, capsys, argv):
        run(*argv)
        assert ALL_COMMANDS in "".join(capsys.readouterr())

    def test_full_parser_names_the_command_argument(self, capsys):
        """argparse's own metavar: a fixed one would rename it in these messages."""
        assert run() == 1
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: command\n")
        assert run("bogus") == 1
        assert "error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,parsers", [
        (["score", "a", "b", "--bogus"], 2), (["check", "-h"], 2), (["bogus"], 11), ([], 11),
    ])
    def test_main_builds_only_the_named_command(self, monkeypatch, argv, parsers):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        run(*argv)
        assert len(built) == parsers


class TestCorpusLoading:
    """embed and cka read every image before they compare shapes: a shape
    mismatch is a usage error naming every distinct shape, and a malformed
    file anywhere in the list wins over it."""

    @staticmethod
    def write_images(directory, sides):
        paths = []
        for i, side in enumerate(sides):
            path = directory / f"img-{i}.ppm"
            rng = np.random.default_rng(i)
            formats.write_image_ppm(rng.uniform(0, 1, (side, side, 3)), path)
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("command", ["embed", "cka"])
    @pytest.mark.parametrize("sides", [(32, 16, 32), (16, 32), (32, 32, 16)])
    def test_shape_mismatch_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                           command, sides):
        paths = self.write_images(tmp_path, sides)
        calls = []
        read = cli.read_image_ppm
        monkeypatch.setattr(cli, "read_image_ppm", lambda p: calls.append(p) or read(p))
        out = tmp_path / "out"
        assert run(command, *paths, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "cfs-curate: images disagree on shape: [(16, 16, 3), (32, 32, 3)]\n")
        assert list(map(str, calls)) == paths  # every file read, in order
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "cka"])
    def test_malformed_file_after_mismatch_is_data_error(self, tmp_path, capsys, command):
        paths = self.write_images(tmp_path, (32, 16))
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6 2 1 255\n\x00\x00\x00")
        out = tmp_path / "out"
        assert run(command, *paths, str(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"cfs-curate: {bad}: payload is 3 bytes, expected 6\n")
        assert not out.exists()

    @pytest.mark.parametrize("sides", [(16,), (16, 16, 16), (32,) * 5])
    def test_batch_matches_stacked_list(self, tmp_path, sides):
        paths = self.write_images(tmp_path, sides)
        images = cli._load_images(paths)
        assert images.flags.c_contiguous
        assert_bitwise_equal(images, stacked_load_images(paths))

    def test_mismatch_message_matches_stacked_list(self, tmp_path):
        paths = self.write_images(tmp_path, (8, 16, 32, 16))
        messages = []
        for load in (cli._load_images, stacked_load_images):
            with pytest.raises(RangeError) as caught:
                load(paths)
            messages.append(str(caught.value))
        assert messages == 2 * ["images disagree on shape: [(8, 8, 3), (16, 16, 3), (32, 32, 3)]"]


class TestPipeline:
    def test_synth_writes_corpus_and_manifest(self, tmp_path):
        corpus = make_corpus(tmp_path, n=3)
        manifest = formats.read_report(corpus / "manifest.json")
        assert manifest["tool"] == "synth"
        assert manifest["results"]["source_ids"] == ["src-0000", "src-0001", "src-0002"]
        for record_id in manifest["results"]["source_ids"]:
            image = formats.read_image_ppm(corpus / f"{record_id}.ppm")
            assert image.shape == (16, 16, 3)

    def test_embed_score_filter_chain(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        targets = sorted(str(p) for p in corpus.glob("tgt-*.ppm"))
        src_emb = tmp_path / "src.emb"
        tgt_emb = tmp_path / "tgt.emb"
        assert run("embed", *sources, "--stem", "patchify", "--seed", "0",
                   "--out", str(src_emb)) == 0
        assert run("embed", *targets, "--stem", "patchify", "--seed", "0",
                   "--out", str(tgt_emb)) == 0

        loaded = formats.read_embeddings(src_emb)
        assert loaded.ids == [f"src-{i:04d}" for i in range(4)]
        assert loaded.features.shape == (4, 32)

        scores = tmp_path / "scores.json"
        assert run("score", str(src_emb), str(src_emb), "--out", str(scores)) == 0
        doc = formats.read_report(scores)
        entries = doc["results"]["entries"]
        assert [e["rank"] for e in entries] == [1, 2, 3, 4]
        # scored against itself: cosines are 1 up to rounding
        assert all(abs(e["score"] - 1.0) < 1e-12 for e in entries)

        picked = tmp_path / "picked.json"
        assert run("filter", str(scores), "--n-prime", "2", "--out", str(picked)) == 0
        selected = formats.read_report(picked)["results"]["selected_ids"]
        assert selected == [e["id"] for e in entries[:2]]

    def test_filter_ratio_matches_n_prime(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        emb = tmp_path / "src.emb"
        run("embed", *sources, "--out", str(emb))
        scores = tmp_path / "scores.json"
        run("score", str(emb), str(emb), "--out", str(scores))
        by_ratio = tmp_path / "a.json"
        by_count = tmp_path / "b.json"
        assert run("filter", str(scores), "--ratio", "0.5", "--out", str(by_ratio)) == 0
        assert run("filter", str(scores), "--n-prime", "2", "--out", str(by_count)) == 0
        assert (formats.read_report(by_ratio)["results"]["selected_ids"]
                == formats.read_report(by_count)["results"]["selected_ids"])

    def test_select_reports_all_strategies(self, tmp_path):
        out = tmp_path / "sel.json"
        assert run("select", "--seed", "3", "--ratio", "0.5", "--k", "4",
                   "--n-per-domain", "8", "--height", "16", "--width", "16",
                   "--out", str(out)) == 0
        doc = formats.read_report(out)
        strategies = [r["strategy"] for r in doc["results"]["strategies"]]
        assert strategies == ["random", "cluster", "cfs"]
        for row in doc["results"]["strategies"]:
            assert len(row["selected_ids"]) == 4

    def test_select_cluster_row_reports_kmeans_run(self, tmp_path):
        out = tmp_path / "sel.json"
        assert run("select", "--seed", "3", "--ratio", "0.5", "--k", "4",
                   "--n-per-domain", "8", "--height", "16", "--width", "16",
                   "--out", str(out)) == 0
        rows = {r["strategy"]: r for r in formats.read_report(out)["results"]["strategies"]}
        cluster = rows["cluster"]
        assert type(cluster["kmeans_iterations"]) is int and cluster["kmeans_iterations"] >= 1
        assert type(cluster["kmeans_objective"]) is float and cluster["kmeans_objective"] >= 0
        for name in ("random", "cfs"):
            assert "kmeans_iterations" not in rows[name]
            assert "kmeans_objective" not in rows[name]

    def test_cka_report_rows(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        out = tmp_path / "cka.json"
        assert run("cka", *sources, "--stem", "ics", "--kinds",
                   "brightness,contrast", "--out", str(out)) == 0
        doc = formats.read_report(out)
        assert [e["kind"] for e in doc["results"]["entries"]] == ["brightness", "contrast"]
        for entry in doc["results"]["entries"]:
            assert 0.0 <= entry["score"] <= 1.0 + 1e-9

    def test_cka_unknown_kind_is_usage_error(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        assert run("cka", *sources, "--kinds", "rotate") == 1

    def test_augment_flip_twice_restores_bytes(self, tmp_path):
        corpus = make_corpus(tmp_path)
        source = corpus / "src-0000.ppm"
        once = tmp_path / "once.ppm"
        twice = tmp_path / "twice.ppm"
        assert run("augment", str(source), "--kind", "flip", "--out", str(once)) == 0
        assert run("augment", str(once), "--kind", "flip", "--out", str(twice)) == 0
        assert twice.read_bytes() == source.read_bytes()
        assert once.read_bytes() != source.read_bytes()

    def test_hdh_separable_sets(self, tmp_path):
        lo = EmbeddingSet([f"a{i}" for i in range(4)],
                          np.linspace(0.0, 0.2, 4)[:, None])
        hi = EmbeddingSet([f"b{i}" for i in range(4)],
                          np.linspace(0.8, 1.0, 4)[:, None])
        p1 = tmp_path / "lo.emb"
        p2 = tmp_path / "hi.emb"
        formats.write_embeddings(lo, p1)
        formats.write_embeddings(hi, p2)
        out = tmp_path / "hdh.json"
        assert run("hdh", str(p1), str(p2), "--out", str(out)) == 0
        assert formats.read_report(out)["results"]["d_hdh"] == 1.0

    def test_bound_matches_library(self, tmp_path):
        out = tmp_path / "bound.json"
        assert run("bound", "--d-hdh", "0.25", "--f-hat-t", "0.1",
                   "--f-t-star", "0.05", "--f-s-star", "0.02",
                   "--vc-dim", "3", "--n", "500", "--delta", "0.1",
                   "--out", str(out)) == 0
        doc = formats.read_report(out)
        expected = divergence.erb_bound_rhs(divergence.BoundInputs(
            0.25, 0.1, 0.05, 0.02, vc_dim=3, n=500, delta=0.1))
        assert doc["results"]["rhs"] == expected
        assert doc["results"]["interpretation_notes"]

    def test_check_passes(self, tmp_path):
        out = tmp_path / "check.json"
        assert run("check", "--out", str(out)) == 0
        doc = formats.read_report(out)
        assert doc["results"]["passed"] is True
        assert doc["results"]["identity"]["equivalence_violations"] == 0
        assert doc["results"]["identity"]["max_residual"] <= 1e-10
        # the equivalence is tested only where some compared pairs reach the
        # threshold: 9 epsilons x 1000 pairs
        assert 0 < doc["results"]["identity"]["within_threshold"] < 9000
        for value in doc["results"]["gradient_max_relative_error"].values():
            assert value <= 1e-4
        assert doc["results"]["gradient_worst_tensor"] == {
            "conv": "stem.conv0_kernel", "ics": "stem.conv1_kernel", "patchify": "cls_token"}


class TestCheckProbes:
    """``check`` tests each parameter tensor along one random unit
    direction. The 2T probes of a stem's T tensors are copies of every
    parameter stacked on a leading axis and go through one forward; the
    numbers are those of one full forward per probe."""

    def test_one_forward_per_tensor(self, tmp_path, monkeypatch):
        """One ``encoder_forward`` per stem carries the probes of all its
        tensors, two per tensor on a leading axis (36 / 54 / 54), besides
        the stem's one cached forward for the analytic gradients. The stem
        runs in no other forward."""
        calls = []

        def record(name):
            function = getattr(cli, name)

            def recorded(images, *args):
                calls.append((name, images.shape))
                return function(images, *args)

            monkeypatch.setattr(cli, name, recorded)

        record("encoder_forward_cached")
        record("encoder_forward")
        stem_shapes = []
        stem_forward_cached = stems.stem_forward_cached

        def counted(images, *args):
            stem_shapes.append(images.shape)
            return stem_forward_cached(images, *args)

        monkeypatch.setattr(stems, "stem_forward_cached", counted)
        assert run("check", "--out", str(tmp_path / "check.json")) == 0
        expected = []
        for probes in (36, 54, 54):
            expected += [("encoder_forward_cached", (2, 3, 8, 8)),
                         ("encoder_forward", (probes, 2, 3, 8, 8))]
        assert calls == expected
        assert stem_shapes == [shape for _, shape in expected]

    def test_probed_tensors_per_variant(self, tmp_path, monkeypatch):
        """``check`` probes each parameter tensor once: 18 for patchify and
        27 for conv and ics, whose ladder convolutions have no bias to
        probe. Tensor j, in sorted key order, differs from the parameter in
        rows 2j and 2j + 1 of its stack only."""
        stacks = {}
        encoder_forward = cli.encoder_forward

        def recording(images, config, params):
            stacks[config.stem.variant] = params
            return encoder_forward(images, config, params)

        monkeypatch.setattr(cli, "encoder_forward", recording)
        assert run("check", "--out", str(tmp_path / "check.json")) == 0
        assert {v: len(stacked) for v, stacked in stacks.items()} == {
            "patchify": 18, "conv": 27, "ics": 27}
        for variant, stacked in stacks.items():
            config = pipeline.default_vit_config(variant, (8, 8), embed_dim=16, depth=1,
                                                 patch_stride=8)
            params = encoder.init_params(cli.CHECK_PROBE_SEED, config)
            assert sorted(stacked) == sorted(params)
            assert not [k for k in stacked if re.fullmatch(r"stem\.conv\d+_bias", k)]
            for j, key in enumerate(sorted(params)):
                assert stacked[key].shape == (2 * len(params), *params[key].shape)
                rows = [p for p, copy in enumerate(stacked[key])
                        if copy.tobytes() != params[key].tobytes()]
                assert rows == [2 * j, 2 * j + 1], (variant, key)

    # SHA-256 prefixes over each key and its bytes in sorted key order,
    # computed when init_stem_params still made ladder convolution biases
    # (those keys left out); the biases were zeros and drew no random numbers
    PARAMETER_DIGESTS = {
        ("check", "patchify"): "23787dbc61d2c564",
        ("check", "conv"): "0cdd3ffefc47b638",
        ("check", "ics"): "0cdd3ffefc47b638",
        ("embed", "patchify"): "f35d8c52ab84ef2c",
        ("embed", "conv"): "3dab9387d8989e6f",
        ("embed", "ics"): "3dab9387d8989e6f",
    }

    @pytest.mark.parametrize("command,variant", sorted(PARAMETER_DIGESTS))
    def test_parameters_keep_their_bits(self, command, variant):
        """``check``'s parameters (seed 5, 8x8 images) and ``embed``'s
        default ones (seed 0, 32x32) hold no ladder bias, and every other
        array has the bits it had when the ladder had biases."""
        if command == "check":
            config = pipeline.default_vit_config(variant, (8, 8), embed_dim=16, depth=1,
                                                 patch_stride=8)
            params = encoder.init_params(cli.CHECK_PROBE_SEED, config)
        else:
            params = encoder.init_params(0, pipeline.default_vit_config(variant, (32, 32)))
        assert not [k for k in params if re.fullmatch(r"stem\.conv\d+_bias", k)]
        digest = hashlib.sha256()
        for key in sorted(params):
            digest.update(key.encode())
            digest.update(params[key].tobytes())
        assert digest.hexdigest()[:16] == self.PARAMETER_DIGESTS[command, variant]

    def test_params_are_never_written(self, monkeypatch):
        """The probes are new arrays: with every parameter read-only, the
        gradient self-test still runs and gives the full-forward oracle's
        bits."""
        init_params = cli.init_params

        def read_only(*args):
            params = init_params(*args)
            for value in params.values():
                value.setflags(write=False)
            return params

        monkeypatch.setattr(cli, "init_params", read_only)
        for variant in stems.VARIANTS:
            assert cli._gradient_self_test(variant) == full_forward_gradient_self_test(variant)

    def test_check_matches_full_forward_oracle(self, tmp_path):
        """Each tensor's error has the bits of one full forward per probe,
        and the report gives each stem's largest error and its tensor."""
        oracle = {v: full_forward_gradient_self_test(v) for v in stems.VARIANTS}
        for variant in stems.VARIANTS:
            assert cli._gradient_self_test(variant) == oracle[variant]
        out = tmp_path / "check.json"
        assert run("check", "--out", str(out)) == 0
        results = formats.read_report(out)["results"]
        worst = {v: max(errors, key=errors.get) for v, errors in oracle.items()}
        assert results["gradient_worst_tensor"] == worst
        assert results["gradient_max_relative_error"] == {
            v: oracle[v][key] for v, key in worst.items()}

    def test_worst_tensor_is_the_first_of_equal_errors(self, tmp_path, monkeypatch):
        errors = {"a": 1e-6, "b": 2e-6, "c": 2e-6}
        monkeypatch.setattr(cli, "_gradient_self_test", lambda variant: errors)
        out = tmp_path / "check.json"
        assert run("check", "--out", str(out)) == 0
        results = formats.read_report(out)["results"]
        assert results["gradient_worst_tensor"] == {v: "b" for v in stems.VARIANTS}
        assert results["gradient_max_relative_error"] == {v: 2e-6 for v in stems.VARIANTS}

    # one tensor per stem whose wrong gradient coordinate the three
    # coordinates once picked per tensor at CHECK_PROBE_SEED all missed
    PLANTED = [("patchify", "pos_embed"), ("conv", "stem.conv2_kernel"),
               ("ics", "block0.qkv_kernel")]

    @pytest.mark.parametrize("variant,key", PLANTED)
    def test_planted_gradient_error_fails(self, tmp_path, monkeypatch, variant, key):
        """The analytic gradient of ``key`` with its largest-|g| coordinate
        scaled by 1.1, on ``variant`` only: ``check`` exits 2, reports
        failure, and names ``key``."""
        encoder_backward = cli.encoder_backward

        def planted(grad_features, cache, params):
            pair = encoder_backward(grad_features, cache, params)
            if cache[0].stem.variant == variant:
                g = pair.param_grads[key]
                # an einsum gradient need not be C-contiguous, where
                # g.reshape(-1) would be a copy
                g[np.unravel_index(np.abs(g).argmax(), g.shape)] *= 1.1
            return pair

        monkeypatch.setattr(cli, "encoder_backward", planted)
        out = tmp_path / "check.json"
        assert run("check", "--out", str(out)) == 2
        results = formats.read_report(out)["results"]
        assert results["passed"] is False
        assert results["gradient_max_relative_error"][variant] > cli.CHECK_GRAD_TOLERANCE
        assert results["gradient_worst_tensor"][variant] == key


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        emb = tmp_path / "src.emb"
        run("embed", *sources, "--out", str(emb))

        def twice(name, *argv):
            a = tmp_path / f"{name}-a.json"
            b = tmp_path / f"{name}-b.json"
            assert run(*argv, "--out", str(a)) == 0
            assert run(*argv, "--out", str(b)) == 0
            assert a.read_bytes() == b.read_bytes()

        twice("score", "score", str(emb), str(emb))
        twice("select", "select", "--seed", "1", "--ratio", "0.5", "--k", "4",
              "--n-per-domain", "8", "--height", "16", "--width", "16")
        twice("cka", "cka", *sources, "--kinds", "flip,brightness")
        twice("hdh", "hdh", str(emb), str(emb))
        twice("bound", "bound", "--d-hdh", "0", "--f-hat-t", "0", "--f-t-star", "0",
              "--f-s-star", "0", "--vc-dim", "1", "--n", "100", "--delta", "0.5")

    def test_outputs_byte_identical_across_blas_threads(self, tmp_path):
        """The same small recipe under one and two OpenBLAS threads writes
        the same bytes. Each run has its own directory and relative paths,
        since reports hold their input paths."""
        recipe = textwrap.dedent("""\
            from glob import glob
            from cfs_curate.cli import main
            def run(*argv):
                assert main(list(argv)) == 0, argv
            run("synth", "--seed", "5", "--n-per-domain", "64", "--height", "32",
                "--width", "32", "--brightness", "0.2", "--out", "img")
            src, tgt = sorted(glob("img/src-*.ppm")), sorted(glob("img/tgt-*.ppm"))
            run("embed", *src, "--stem", "conv", "--out", "src.emb")
            run("embed", *tgt, "--stem", "conv", "--out", "tgt.emb")
            run("cka", *src, "--stem", "ics", "--out", "cka.json")
            run("hdh", "src.emb", "tgt.emb", "--max-thresholds", "64", "--out", "hdh.json")
            run("select", "--seed", "3", "--n-per-domain", "48", "--k", "8",
                "--out", "select.json")
        """)
        package_root = str(Path(cfs_curate.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            workdir = tmp_path / f"threads-{threads}"
            workdir.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"}
            subprocess.run([sys.executable, "-c", recipe], cwd=workdir, env=env,
                           check=True, timeout=60)
            outputs.append({str(p.relative_to(workdir)): p.read_bytes()
                            for p in sorted(workdir.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 2 * 64 + 1 + 5
        assert outputs[0] == outputs[1]

    def test_reports_equal_json_dumps_oracle(self, tmp_path):
        """Every tool's report, on the acceptance-gate corpus, is exactly
        json.dumps(sort_keys=True, indent=2) of its own content."""
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        targets = sorted(str(p) for p in corpus.glob("tgt-*.ppm"))
        src, proxy, tgt = tmp_path / "src.emb", tmp_path / "proxy.emb", tmp_path / "tgt.emb"
        assert run("embed", *sources, "--seed", "0", "--out", str(src)) == 0
        assert run("embed", *sources, "--seed", "1", "--out", str(proxy)) == 0
        assert run("embed", *targets, "--seed", "0", "--out", str(tgt)) == 0
        scores = tmp_path / "score.json"
        runs = {
            "score": ["score", str(src), str(proxy)],
            "filter": ["filter", str(scores), "--ratio", "0.5"],
            "select": ["select", "--seed", "1", "--ratio", "0.5", "--k", "4",
                       "--n-per-domain", "8", "--height", "16", "--width", "16"],
            "cka": ["cka", *sources, "--stem", "ics", "--kinds", "brightness,contrast"],
            "hdh": ["hdh", str(src), str(tgt)],
            "bound": ["bound", "--d-hdh", "0.1", "--f-hat-t", "0.1", "--f-t-star", "0.1",
                      "--f-s-star", "0.1", "--vc-dim", "2", "--n", "100", "--delta", "0.5"],
            "check": ["check"],
        }
        reports = [corpus / "manifest.json"]
        for name, argv in runs.items():
            reports.append(tmp_path / f"{name}.json")
            assert run(*argv, "--out", str(reports[-1])) == 0
        for path in reports:
            data = path.read_bytes()
            oracle = json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n"
            assert data == oracle.encode("utf-8"), path.name

    def test_embedding_file_byte_identical(self, tmp_path):
        corpus = make_corpus(tmp_path)
        sources = sorted(str(p) for p in corpus.glob("src-*.ppm"))
        a = tmp_path / "a.emb"
        b = tmp_path / "b.emb"
        assert run("embed", *sources, "--seed", "7", "--out", str(a)) == 0
        assert run("embed", *sources, "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_corpus_byte_identical(self, tmp_path):
        a = make_corpus(tmp_path / "a", n=3, seed=9)
        b = make_corpus(tmp_path / "b", n=3, seed=9)
        for name in ("src-0000.ppm", "tgt-0002.ppm", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stdout_report(self, capsysbinary):
        assert run("bound", "--d-hdh", "0", "--f-hat-t", "0", "--f-t-star", "0",
                   "--f-s-star", "0", "--vc-dim", "1", "--n", "100",
                   "--delta", "0.5") == 0
        out = capsysbinary.readouterr().out
        doc = json.loads(out)
        assert doc["tool"] == "bound"
        assert out.endswith(b"\n")
