"""Command-line front end chaining the library pipelines.

Subcommands: embed, score, filter, select, cka, augment, hdh, bound,
synth, check. Reports are deterministic JSON (sorted keys, no
timestamps) and embed their configuration: the parsed flags, with the
values a command resolves itself (``cka``'s kinds, ``check``'s probe
seed), so a re-run with the same flags and inputs is byte-identical.
Exit codes: 0 success, 1 usage error (bad flags or values), 2 data or
format error (unreadable or malformed input files, failed self-checks).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import cfs, divergence, ops, selection, stems
from .embeddings import check_unique_ids
from .encoder import (
    encoder_backward,
    encoder_forward_cached,
    forward_from_tokens,
    init_params,
    stem_subparams,
)
from .errors import DimensionError, FormatError, RangeError
from .formats import (
    Columns,
    read_embeddings,
    read_image_ppm,
    read_report,
    report_bytes,
    write_embeddings,
    write_image_ppm,
    write_report,
)
from .invariance import (
    AUGMENTATION_KINDS,
    DEFAULT_MAGNITUDES,
    AugmentationSpec,
    augment,
    default_specs,
    invariance_report,
)
from .pipeline import compare_on_synth_corpus, default_vit_config, embed_images
from .synth import ShiftSpec, synth_corpus

# fixed probe for `check`: seed verified to keep every pre-relu activation
# of every stem variant well away from zero, where finite differences
# straddle the kink and stop approximating the analytic gradient
CHECK_PROBE_SEED = 5
CHECK_IDENTITY_PAIRS = 10_000
CHECK_EQUIVALENCE_PAIRS = 1_000
CHECK_EPSILONS = np.arange(0.1, 0.95, 0.1)
CHECK_COORDS_PER_TENSOR = 3
CHECK_GRAD_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    data errors, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _report_config(args, **resolved) -> dict:
    """The parsed flags, less the command, its handler and the output path,
    with ``resolved`` in place of flags the command resolves itself."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    return {**config, **resolved}


def _emit_report(args, tool: str, config: dict, results) -> None:
    if getattr(args, "out", None):
        write_report(args.out, tool, config, results)
    else:
        sys.stdout.buffer.write(report_bytes(tool, config, results))


def _load_images(paths: list[str]) -> np.ndarray:
    """One (N, H, W, 3) batch sized from the first image, each image
    written in as it is read. Every file is read before shapes are
    compared, so a malformed image anywhere wins over a shape mismatch."""
    images = None
    shapes = set()
    for i, raw in enumerate(paths):
        image = read_image_ppm(raw)
        shapes.add(image.shape)
        if images is None:
            images = np.empty((len(paths), *image.shape))
        if image.shape == images.shape[1:]:
            images[i] = image
    if len(shapes) > 1:
        raise RangeError(f"images disagree on shape: {sorted(shapes)}")
    return images


def _table_from_report(document: dict, path) -> cfs.ScoreTable:
    """Rebuild a score table from rows in any order. Any malformed entry is
    a FormatError: entries that are not a list of objects, a rank that is
    not an int, an id that is not a str, a score that is not a number (a
    bool is none of these), or ranks that are not a permutation of 1..N.
    Rows already in rank order are taken as they are."""
    try:
        rows = document["results"]["entries"]
        if not isinstance(rows, list) or not set(map(type, rows)) <= {dict}:
            raise FormatError(f"{path}: score report entries must be a list of objects")
        ranks, ids, scores = ([row[key] for row in rows] for key in ("rank", "id", "score"))
        if not (set(map(type, ranks)) <= {int} and set(map(type, ids)) <= {str}
                and set(map(type, scores)) <= {int, float}):
            raise FormatError(f"{path}: score report rows need an int rank, a str id"
                              " and a numeric score")
        in_order = list(range(1, len(rows) + 1))
        if ranks != in_order:
            if sorted(ranks) != in_order:
                raise RangeError("ranks must be a permutation of 1..N")
            order = np.argsort(ranks).tolist()
            ids, scores = [ids[i] for i in order], [scores[i] for i in order]
        return cfs.ScoreTable(ids, scores)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: not a score report (missing {exc})") from exc
    except (ValueError, OverflowError) as exc:  # ranks, non-finite or increasing scores, ids
        raise FormatError(f"{path}: malformed score report: {exc}") from exc


def _cmd_embed(args) -> int:
    ids = [Path(raw).stem for raw in args.images]
    check_unique_ids(ids)  # before reading any image
    images = _load_images(args.images)
    config = default_vit_config(args.stem, images.shape[1:3])
    params = init_params(args.seed, config)
    embedded = embed_images(images, ids, config, params)
    write_embeddings(embedded, args.out)
    return 0


def _cmd_score(args) -> int:
    table = cfs.score_corpus(read_embeddings(args.by_source), read_embeddings(args.by_target))
    entries = Columns(id=table.ids, rank=range(1, len(table) + 1), score=table.scores.tolist())
    _emit_report(args, "score", _report_config(args), {"entries": entries})
    return 0


def _cmd_filter(args) -> int:
    table = _table_from_report(read_report(args.scores), args.scores)
    if args.n_prime is not None:
        n_prime = args.n_prime
    else:
        n_prime = cfs.count_for_ratio(len(table), args.ratio)
    selected = cfs.filter_top(table, n_prime)
    _emit_report(args, "filter", _report_config(args),
                 {"n_prime": n_prime, "selected_ids": selected})
    return 0


def _synth_from_args(args):
    """The synthetic corpus the corpus flags describe."""
    shift = ShiftSpec(
        brightness_offset=args.brightness,
        hue_rotation=args.hue,
        noise_sigma=args.noise,
    )
    return synth_corpus(args.seed, args.n_per_domain, args.height, args.width,
                        shift, extreme_fraction=args.extreme_fraction)


def _cmd_select(args) -> int:
    corpus = _synth_from_args(args)
    configs = [
        selection.SelectionConfig("random", args.ratio, seed=args.seed),
        selection.SelectionConfig("cluster", args.ratio, seed=args.seed, k=args.k),
        selection.SelectionConfig("cfs", args.ratio),
    ]
    reports = compare_on_synth_corpus(corpus, configs, proxy_seed=args.seed)
    # the kmeans_* fields are None except on the cluster row, which alone reports them
    results = [
        {k: v for k, v in asdict(r).items() if v is not None or not k.startswith("kmeans_")}
        for r in reports
    ]
    _emit_report(args, "select", _report_config(args), {"strategies": results})
    return 0


def _parse_kinds(raw: str | None) -> list[AugmentationSpec]:
    if raw is None:
        return default_specs()
    kinds = [k.strip() for k in raw.split(",") if k.strip()]
    if not kinds:
        raise RangeError("--kinds must name at least one augmentation")
    # unknown kinds fail AugmentationSpec validation with a usage error
    return [AugmentationSpec(kind, DEFAULT_MAGNITUDES.get(kind, 0.0)) for kind in kinds]


def _cmd_cka(args) -> int:
    images = _load_images(args.images)
    specs = _parse_kinds(args.kinds)
    config_model = default_vit_config(args.stem, images.shape[1:3])
    params = init_params(args.seed, config_model)
    report = invariance_report(
        config_model, params, images, specs,
        model_id=f"{args.stem}:{args.seed}",
        corpus_id=f"{len(images)} images",
    )
    _emit_report(args, "cka", _report_config(args, kinds=[s.kind for s in specs]),
                 asdict(report))
    return 0


def _cmd_augment(args) -> int:
    magnitude = args.magnitude
    if magnitude is None:
        magnitude = DEFAULT_MAGNITUDES[args.kind]
    spec = AugmentationSpec(args.kind, magnitude)
    write_image_ppm(augment(read_image_ppm(args.image), spec), args.out)
    return 0


def _cmd_hdh(args) -> int:
    # with no threshold per dimension only the two constant stumps remain,
    # and their d_hdh is 0 whatever the samples
    if args.max_thresholds < 1:
        raise RangeError(f"--max-thresholds must be >= 1, got {args.max_thresholds}")
    u1 = read_embeddings(args.samples1).features
    u2 = read_embeddings(args.samples2).features
    if u1.shape[0] == 0 or u2.shape[0] == 0:
        raise RangeError("sample sets must be nonempty")
    if u1.shape[1] != u2.shape[1]:
        raise DimensionError(f"feature dims differ: {u1.shape[1]} vs {u2.shape[1]}")
    klass = divergence.build_stumps(
        np.vstack([u1, u2]), max_thresholds_per_dim=args.max_thresholds
    )
    value = divergence.hdh_empirical(u1, u2, klass)
    _emit_report(args, "hdh", _report_config(args),
                 {"d_hdh": value, "hypothesis_count": len(klass)})
    return 0


def _cmd_bound(args) -> int:
    config = _report_config(args)
    results = {
        "rhs": divergence.erb_bound_rhs(divergence.BoundInputs(**config)),
        "interpretation_notes": list(divergence.INTERPRETATION_NOTES),
    }
    _emit_report(args, "bound", config, results)
    return 0


def _cmd_synth(args) -> int:
    corpus = _synth_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ids, batch in ((corpus.source_ids, corpus.source_images),
                       (corpus.target_ids, corpus.target_images)):
        for record_id, image in zip(ids, batch):
            write_image_ppm(image, out_dir / f"{record_id}.ppm")
    results = {
        "source_ids": corpus.source_ids,
        "target_ids": corpus.target_ids,
        "extreme_ids": corpus.extreme_ids,
    }
    write_report(out_dir / "manifest.json", "synth", _report_config(args), results)
    return 0


def _identity_self_test(rng) -> dict:
    """The distance identity over CHECK_IDENTITY_PAIRS pairs, and its
    threshold equivalence on CHECK_EQUIVALENCE_PAIRS of them per epsilon.
    As in acceptance criterion 2, half the pairs are near-duplicates
    (v = u + noise * U(0, 0.8)), so cosines reach the thresholds;
    ``within_threshold`` counts the compared pairs that do."""
    u = rng.normal(size=(CHECK_IDENTITY_PAIRS, 16))
    v = rng.normal(size=(CHECK_IDENTITY_PAIRS, 16))
    half = CHECK_IDENTITY_PAIRS // 2
    v[:half] = u[:half] + v[:half] * rng.uniform(0.0, 0.8, size=(half, 1))
    c, d, residuals = cfs.check_distance_identity(u, v)
    violations = within = 0
    for epsilon in CHECK_EPSILONS:
        threshold = cfs.theorem_threshold(float(epsilon))
        idx = rng.integers(0, CHECK_IDENTITY_PAIRS, size=CHECK_EQUIVALENCE_PAIRS)
        close = c[idx] >= threshold
        within += int(np.sum(close))
        violations += int(np.sum(close != (d[idx] <= epsilon / 2.0)))
    return {
        "max_residual": float(residuals.max()),
        "equivalence_violations": violations,
        "within_threshold": within,
    }


def _probe_stage(key: str, depth: int) -> int:
    """First forward stage that parameter ``key`` feeds, for a stem ladder
    of ``depth`` layers: ladder layer i for ``stem.conv{i}_*`` and
    ``stem.norm{i}_*``, ``depth`` (the projection) for ``stem.proj_*``,
    ``depth + 1`` (the encoder from the tokens) for every other key."""
    name = key.removeprefix("stem.")
    if name == key:
        return depth + 1
    if name.startswith("proj_"):
        return depth
    return int(name[len("conv"):name.index("_")])


def _resumable_loss(images, weight, config, params):
    """``loss(key, stacked)``: ``sum(features * weight)`` of ``images`` for
    each copy of ``params[key]`` in ``stacked``, shape ``(P, *params[key].shape)``,
    every other tensor as ``params`` holds it. One forward per call, from
    the stage :func:`_probe_stage` gives for ``key``, on that stage's input
    broadcast to (P, B, ...) without a copy; returns the P losses.

    The input of every stage is computed here once, at the values
    ``params`` holds. Row p runs the operations of a full forward with
    copy p on bitwise-equal inputs (the leading-axis convention of
    :mod:`ops`), so it has that full forward's bits.
    """
    stem_config, stem_params = config.stem, stem_subparams(params)
    depth = len(stem_config.channel_ladder)
    inputs = [images]
    for i in range(depth):
        inputs.append(stems.ladder_layer(inputs[i], i, stem_config, stem_params)[0])
    inputs.append(stems.project_tokens(inputs[depth], stem_config, stem_params))

    def loss(key, stacked):
        probe_params = {**params, key: stacked}
        stem_probe = stem_subparams(probe_params)
        stage = _probe_stage(key, depth)
        x = np.broadcast_to(inputs[stage], (len(stacked), *inputs[stage].shape))
        for i in range(stage, depth):
            x = stems.ladder_layer(x, i, stem_config, stem_probe)[0]
        if stage <= depth:
            x = stems.project_tokens(x, stem_config, stem_probe)
        return np.sum(forward_from_tokens(x, config, probe_params)[0] * weight, axis=(-2, -1))

    return loss


def _gradient_self_test(variant: str) -> float:
    """Worst relative error of the analytic parameter gradients against
    central differences, on CHECK_COORDS_PER_TENSOR coordinates of each
    tensor. The 2 * picks perturbed copies of a tensor, each ``original
    +- FD_STEP`` at one pick, go through one forward (:func:`_resumable_loss`),
    and the differences are the IEEE operations of :func:`ops.fd_gradient`.
    ``params`` is never written."""
    rng = np.random.default_rng(CHECK_PROBE_SEED)
    config = default_vit_config(variant, (8, 8), embed_dim=16, depth=1, patch_stride=8)
    params = init_params(CHECK_PROBE_SEED, config)
    images = rng.uniform(0.05, 0.95, size=(2, 3, 8, 8))
    weight = rng.normal(size=(2, config.embed_dim))

    features, cache = encoder_forward_cached(images, config, params)
    grads = encoder_backward(weight, cache, params)
    loss = _resumable_loss(images, weight, config, params)

    worst = 0.0
    for key in sorted(params):
        tensor = params[key]
        picks = rng.choice(tensor.size, size=min(CHECK_COORDS_PER_TENSOR, tensor.size),
                           replace=False)
        n = len(picks)
        original = tensor.reshape(-1)[picks]
        probes = np.repeat(tensor.reshape(1, -1), 2 * n, axis=0)
        probes[np.arange(n), picks] = original + ops.FD_STEP
        probes[np.arange(n, 2 * n), picks] = original - ops.FD_STEP
        losses = loss(key, probes.reshape(2 * n, *tensor.shape))
        fd = (losses[:n] - losses[n:]) / (2.0 * ops.FD_STEP)
        analytic = grads.param_grads[key].reshape(-1)[picks]
        worst = max(worst, ops.max_relative_error(analytic, fd))
    return worst


def _cmd_check(args) -> int:
    rng = np.random.default_rng(CHECK_PROBE_SEED)
    identity = _identity_self_test(rng)
    gradients = {variant: _gradient_self_test(variant) for variant in stems.VARIANTS}
    passed = (
        identity["max_residual"] <= 1e-10
        and identity["equivalence_violations"] == 0
        and 0 < identity["within_threshold"] < len(CHECK_EPSILONS) * CHECK_EQUIVALENCE_PAIRS
        and all(v <= CHECK_GRAD_TOLERANCE for v in gradients.values())
    )
    results = {
        "identity": identity,
        "gradient_max_relative_error": gradients,
        "gradient_tolerance": CHECK_GRAD_TOLERANCE,
        "passed": passed,
    }
    _emit_report(args, "check", _report_config(args, probe_seed=CHECK_PROBE_SEED), results)
    if not passed:
        print("self-check failed", file=sys.stderr)
        return 2
    return 0


def _add_out(parser, required=False, help_text="output path (default: stdout)"):
    parser.add_argument("--out", required=required, help=help_text)


def _add_corpus_flags(parser):
    parser.add_argument("--n-per-domain", type=int, default=16)
    parser.add_argument("--height", type=int, default=32)
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--brightness", type=float, default=0.0,
                        help="target-domain channel offset")
    parser.add_argument("--hue", type=float, default=0.0,
                        help="target-domain hue rotation in radians")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="target-domain pixel noise sigma")
    parser.add_argument("--extreme-fraction", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfs-curate",
                     description="Feature-similarity data curation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="encode PPM images into an embedding file")
    p.add_argument("images", nargs="+", help="input .ppm images; ids are file stems")
    p.add_argument("--stem", choices=stems.VARIANTS, default="patchify")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p, required=True, help_text="output embedding file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("score", help="rank records by feature-similarity score")
    p.add_argument("by_source", help="embedding file under the source proxy")
    p.add_argument("by_target", help="embedding file under the target proxy")
    _add_out(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("filter", help="keep the top-scored ids from a score report")
    p.add_argument("scores", help="score report JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=float, default=None)
    group.add_argument("--n-prime", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("select", help="compare selection strategies on a synthetic corpus "
                       "(patchify stem)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--k", type=int, default=16)
    _add_corpus_flags(p)
    _add_out(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("cka", help="feature-stability scores under augmentations")
    p.add_argument("images", nargs="+", help="corpus .ppm images")
    p.add_argument("--stem", choices=stems.VARIANTS, default="patchify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", default=None,
                   help="comma-separated augmentation kinds (default: all six)")
    _add_out(p)
    p.set_defaults(func=_cmd_cka)

    p = sub.add_parser("augment", help="apply one augmentation to a PPM image")
    p.add_argument("image")
    p.add_argument("--kind", choices=AUGMENTATION_KINDS, required=True)
    p.add_argument("--magnitude", type=float, default=None,
                   help="default: the per-kind default magnitude")
    _add_out(p, required=True, help_text="output .ppm path")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("hdh", help="empirical divergence between two sample sets")
    p.add_argument("samples1", help="embedding file")
    p.add_argument("samples2", help="embedding file")
    p.add_argument("--max-thresholds", type=int, default=16)
    _add_out(p)
    p.set_defaults(func=_cmd_hdh)

    p = sub.add_parser("bound", help="evaluate the excess-risk bound right-hand side")
    p.add_argument("--d-hdh", type=float, required=True)
    p.add_argument("--f-hat-t", type=float, required=True)
    p.add_argument("--f-t-star", type=float, required=True)
    p.add_argument("--f-s-star", type=float, required=True)
    p.add_argument("--vc-dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("synth", help="generate the synthetic two-domain corpus")
    p.add_argument("--seed", type=int, default=0)
    _add_corpus_flags(p)
    _add_out(p, required=True, help_text="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("check", help="run identity and gradient self-tests")
    _add_out(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"cfs-curate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cfs-curate: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cfs-curate: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
