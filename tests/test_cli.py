"""Command-line interface: pipelines, determinism, exit codes."""

import json
import os
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


class TestCheckProbes:
    """``check`` evaluates the finite-difference probes of each parameter
    tensor as copies stacked on a leading axis, in one forward resumed at
    the first stage the tensor feeds; the numbers are those of full
    forwards."""

    @pytest.mark.parametrize("variant", stems.VARIANTS)
    def test_resumed_loss_is_the_full_forward_loss(self, variant):
        """Two stacked copies per tensor: the tensor as it is, and +0.37 at
        the coordinate of largest analytic gradient. Each row of the
        resumed loss has the bits of a full forward with its copy, and the
        rows differ, so a key mapped to a stage after the one it feeds
        fails here."""
        rng = np.random.default_rng(11)
        config = pipeline.default_vit_config(variant, (8, 8), embed_dim=16, depth=1,
                                             patch_stride=8)
        params = encoder.init_params(11, config)
        images = rng.uniform(0.05, 0.95, size=(2, 3, 8, 8))
        weight = rng.normal(size=(2, config.embed_dim))

        def full_loss(p):
            return float(np.sum(encoder.encoder_forward(images, config, p) * weight))

        _, cache = encoder.encoder_forward_cached(images, config, params)
        grads = encoder.encoder_backward(weight, cache, params).param_grads
        loss = cli._resumable_loss(images, weight, config, params)
        for key in sorted(params):
            perturbed = params[key].copy()
            perturbed.reshape(-1)[np.abs(grads[key]).argmax()] += 0.37
            rows = loss(key, np.stack([params[key], perturbed]))
            full = [full_loss({**params, key: value}) for value in (params[key], perturbed)]
            assert rows.shape == (2,)
            assert rows.tolist() == full, key
            assert rows[0] != rows[1], key

    def test_one_forward_per_tensor(self, tmp_path, monkeypatch):
        """``forward_from_tokens`` runs once per parameter tensor (78 over
        the three variants) plus once in each variant's cached forward for
        the analytic gradients: 81 calls, not one per probe."""
        calls = []
        forward_from_tokens = encoder.forward_from_tokens

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return forward_from_tokens(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward_from_tokens", counted)
        monkeypatch.setattr(cli, "forward_from_tokens", counted)
        assert run("check", "--out", str(tmp_path / "check.json")) == 0
        tensors = sum(len(encoder.init_params(0, pipeline.default_vit_config(
            v, (8, 8), embed_dim=16, depth=1, patch_stride=8))) for v in stems.VARIANTS)
        assert tensors == 78
        assert len(calls) == tensors + len(stems.VARIANTS)

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

    def test_stage_of_each_key(self):
        assert cli._probe_stage("stem.conv0_kernel", 3) == 0
        assert cli._probe_stage("stem.norm2_beta", 3) == 2
        assert cli._probe_stage("stem.conv12_bias", 13) == 12
        assert cli._probe_stage("stem.proj_kernel", 3) == 3
        assert cli._probe_stage("stem.proj_bias", 0) == 0
        assert cli._probe_stage("cls_token", 3) == 4
        assert cli._probe_stage("block0.qkv_kernel", 0) == 1

    def test_check_matches_full_forward_oracle(self, tmp_path, monkeypatch):
        """Every variant's worst gradient error has the oracle's bits, and
        the whole stem runs once per variant: probes never fall back to
        full forwards."""
        variants = []
        stem_forward_cached = stems.stem_forward_cached

        def counted(images, config, *args, **kwargs):
            variants.append(config.variant)
            return stem_forward_cached(images, config, *args, **kwargs)

        monkeypatch.setattr(stems, "stem_forward_cached", counted)
        out = tmp_path / "check.json"
        assert run("check", "--out", str(out)) == 0
        monkeypatch.undo()
        assert variants == list(stems.VARIANTS)
        got = formats.read_report(out)["results"]["gradient_max_relative_error"]
        assert got == {v: full_forward_gradient_self_test(v) for v in stems.VARIANTS}


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
