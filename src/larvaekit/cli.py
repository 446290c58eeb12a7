"""Command-line interface.

Five subcommands: ``eval`` (metrics + PR curve over a manifest),
``preprocess`` (batch image/label transforms), ``count`` (per-image
counts with pond extrapolation), ``fit`` (growth-model fitting and
ranking) and ``report`` (per-density summary). Every run is
deterministic given the same inputs, flags and seeds, writes only inside
``--out-dir``, and leaves it as it was unless the run succeeds.

Exit codes: 0 on success, 1 on domain errors (unreadable or malformed
inputs, codec failures), 2 on usage errors (missing or out-of-range
flags).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path

from . import (
    AGGREGATIONS,
    AP_METHODS,
    DEFAULT_VOLUME_FACTOR,
    ENLARGE_MODES,
    GROUP_FIELDS,
    __version__,
)
from .errors import InputFileError, LarvaekitError


def _lazy(name: str):
    """The library module ``name``, whose code runs on its first attribute access.

    A module already imported is returned as it is, so its classes stay the
    ones other modules hold. A new one goes into ``sys.modules`` and onto the
    package at once, as an import would put it.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Each subcommand runs only the modules it calls; `--version`, `--help` and
# usage errors run none of them, and no numpy.
annotations, chart, counting, evaluation, growth, preprocessing, raster = map(
    _lazy, ("annotations", "chart", "counting", "evaluation", "growth", "preprocessing", "raster")
)


class CommandUsageError(Exception):
    """Bad or missing flag values; maps to exit code 2."""


def _require(condition: bool, message: str):
    if not condition:
        raise CommandUsageError(message)


def _check_numeric_flags(args) -> None:
    """Refuse a non-finite float flag or a negative seed, whatever the command."""
    for dest, value in vars(args).items():
        _require(not isinstance(value, float) or math.isfinite(value),
                 f"--{dest.replace('_', '-')} must be finite, got {value}")
    seed = getattr(args, "seed", None)
    _require(seed is None or seed >= 0, f"--seed must be non-negative, got {seed}")


def _named_inputs(args) -> list[Path]:
    """The input files named on the command line: no output may replace one."""
    if args.command == "preprocess":
        images = [Path(name) for name in args.inputs]
        return images + [image.with_suffix(".txt") for image in images]
    name = args.csv if args.command == "fit" else args.manifest
    return [] if name is None else [Path(name)]


@contextmanager
def _staged_outputs(out_dir: Path, inputs: list[Path]):
    """Yield ``write(name, data)``, which stages one output inside ``out_dir``.

    Each output goes to a hidden ``.<name>.partial`` beside its target and is
    renamed onto it when the block succeeds. On any exception the staging
    files, and the directories this run created, are removed. A target that
    is one of ``inputs`` (the same file, through any path) is refused.
    """
    staged: dict[Path, Path] = {}
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    protected: dict[tuple[int, int], Path] = {}
    for source in inputs:
        with suppress(OSError):
            status = source.stat()
            protected[status.st_dev, status.st_ino] = source

    def write(name: str, data: str | bytes) -> None:
        path = Path(name)
        _require(path.parts and not path.is_absolute() and ".." not in path.parts,
                 f"output name {name!r} would escape --out-dir")
        target = out_dir / path
        with suppress(OSError):
            status = target.stat()
            source = protected.get((status.st_dev, status.st_ino))
            _require(source is None, f"refusing to overwrite input {source}; pick another --out-dir")
        _require(target not in staged, f"output {name!r} would be written twice")
        _require(not target.is_dir(), f"output {name!r} is a directory in --out-dir")
        if not staged:
            out_dir.mkdir(parents=True, exist_ok=True)
        staged[target] = staging = target.with_name(f".{target.name}.partial")
        try:
            staging.write_bytes(data.encode() if isinstance(data, str) else data)
        except OSError as err:
            raise OSError(err.errno, err.strerror, str(target)) from None

    try:
        yield write
        for target, staging in staged.items():
            os.replace(staging, target)
    except BaseException:
        for staging in staged.values():
            staging.unlink(missing_ok=True)
        for directory in created:
            with suppress(OSError):
                directory.rmdir()
        raise


@contextmanager
def _reading(path: Path):
    """Name ``path`` in a failure to decode, parse or re-serialize its content."""
    try:
        yield
    except (UnicodeDecodeError, LarvaekitError) as err:
        raise InputFileError(path, err) from None


def _load_manifest(path: Path):
    with _reading(path):
        return annotations.load_manifest(path.read_text(encoding="utf-8-sig"))


def _match_config(args, **choices) -> evaluation.MatchConfig:
    _require(0.0 < args.iou_thr < 1.0, f"--iou-thr must lie in (0, 1), got {args.iou_thr}")
    _require(0.0 <= args.conf_thr <= 1.0, f"--conf-thr must lie in [0, 1], got {args.conf_thr}")
    return evaluation.MatchConfig(args.iou_thr, args.conf_thr, **choices)


def cmd_eval(args, write) -> str:
    config = _match_config(args, aggregation=args.aggregation, ap_method=args.ap_method)
    manifest_path = Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    group_by = None if args.group_by == "none" else args.group_by
    scored = evaluation.evaluate_dataset(manifest, config, root=manifest_path.parent,
                                         group_by=group_by)
    write("eval.csv", evaluation.render_eval_csv(scored))
    write("pr_curve.csv", evaluation.render_pr_curve_csv(scored.overall.curve))
    from dataclasses import replace

    # Summary row (always the pooled 'all' row) to stdout.
    return evaluation.render_eval_csv(replace(scored, group_by=None, groups={}))


def _read_labels(path: Path):
    """The boxes of a label file, of the kind its first non-empty line shows."""
    with _reading(path):
        text = path.read_text(encoding="utf-8-sig")
        return annotations.parse_label_file(text, kind=annotations.detect_kind(text) or "gt")


def cmd_preprocess(args, write) -> str:
    action = args.action
    if action == "enlarge":
        return _preprocess_enlarge(args, write)
    if action == "crop":
        _require(args.width is not None and args.height is not None,
                 "crop requires --width and --height")
        _require(args.width >= 1 and args.height >= 1,
                 "--width and --height must be positive")
    elif action == "mask":
        _require(None not in (args.cx, args.cy, args.radius),
                 "mask requires --cx, --cy and --radius")
        _require(args.radius >= 0, f"--radius must be non-negative, got {args.radius}")
    elif action == "noise":
        _require(args.variance is not None and args.seed is not None,
                 "noise requires --variance and --seed (seeds are never defaulted)")
        _require(args.variance >= 0, f"--variance must be non-negative, got {args.variance}")
    for input_name in args.inputs:
        image_path = Path(input_name)
        label_path = image_path.with_suffix(".txt")
        labelled = label_path.exists()
        boxes = _read_labels(label_path) if labelled else []
        with _reading(image_path):
            image = raster.decode_raster(image_path.read_bytes())
            if action == "crop":
                image, boxes = preprocessing.center_crop(image, boxes, args.width, args.height)
            elif action == "mask":
                image = preprocessing.circular_mask(image, args.cx, args.cy, args.radius)
            elif action == "noise":
                image = preprocessing.add_gaussian_noise(image, args.variance, args.seed)
            elif action == "rotate":
                image, boxes = preprocessing.rotate90(image, boxes)
        write(image_path.name, raster.encode_raster(image))
        if labelled:
            with _reading(label_path):
                write(label_path.name, annotations.serialize_label_file(boxes))
    return ""


def _preprocess_enlarge(args, write) -> str:
    _require((args.threshold is None) != (args.quantile is None),
             "enlarge requires exactly one of --threshold or --quantile")
    if args.threshold is not None:
        _require(0.0 < args.threshold <= 1.0,
                 f"--threshold must lie in (0, 1], got {args.threshold}")
    else:
        _require(0.0 <= args.quantile <= 1.0,
                 f"--quantile must lie in [0, 1], got {args.quantile}")
    parsed = [(path, _read_labels(path)) for path in map(Path, args.inputs)]
    threshold = args.threshold
    if threshold is None:
        rows = [box for _, boxes in parsed for box in boxes.boxes]
        if not rows:
            files = "label file" if len(parsed) == 1 else "label files"
            raise LarvaekitError(f"--quantile: none of the {len(parsed)} {files} holds a box")
        threshold = preprocessing.area_quantile(rows, args.quantile)
    for path, boxes in parsed:
        enlarged = preprocessing.enlarge_small_boxes(boxes, threshold, mode=args.mode)
        with _reading(path):
            write(path.name, annotations.serialize_label_file(enlarged))
    return f"area_threshold={threshold:.9g}\n"


def cmd_count(args, write) -> str:
    _require(0.0 <= args.conf_thr <= 1.0, f"--conf-thr must lie in [0, 1], got {args.conf_thr}")
    _require(args.volume_factor > 0, f"--volume-factor must be positive, got {args.volume_factor}")
    manifest_path = Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    records = []
    for entry in manifest:
        annotation = annotations.load_image_annotation(entry, manifest_path.parent)
        records.append(counting.count_image(annotation, args.conf_thr,
                                            truth_known=bool(entry.gt_path)))
    write("counts.csv", counting.render_counts_csv(records, args.volume_factor))
    total = sum(r.predicted_count for r in records)
    return (f"images={len(records)} predicted={total} "
            f"estimated_total={counting.extrapolate_pond(total, args.volume_factor):.1f}\n")


def cmd_fit(args, write) -> str:
    if args.models == "all":
        kinds = tuple(growth.GrowthModelKind)
    else:
        try:
            kinds = tuple(growth.parse_model_kind(name) for name in args.models.split(","))
        except ValueError as err:
            raise CommandUsageError(f"--models: {err}") from None
        for n, kind in enumerate(kinds):
            _require(kind not in kinds[:n], f"--models: model {kind.value!r} is named more than once")
    csv_path = None if args.csv is None else Path(args.csv)
    # Every data error, a failed family's included, names the CSV it came from.
    with nullcontext() if csv_path is None else _reading(csv_path):
        if csv_path is None:
            observations = growth.bundled_stage_means()
        else:
            observations = growth.load_observations_csv(
                csv_path.read_text(encoding="utf-8-sig"))
        ranked = growth.rank_models(observations, kinds, multi_start=args.multi_start,
                                    seed=args.seed)
    lines = ["model,param_names,param_values,sse,r_squared,converged\n"]
    for result in ranked:
        names = ";".join(growth.PARAM_NAMES[result.kind])
        values = ";".join(f"{v:.9g}" for v in result.params)
        lines.append(
            f"{growth.DISPLAY_NAMES[result.kind]},{names},{values},"
            f"{result.sse:.9g},{result.r_squared:.9g},{str(result.converged).lower()}\n"
        )
    write("fits.csv", "".join(lines))
    if args.svg is not None:
        write(args.svg, chart.growth_chart_svg(observations, ranked))
    return "".join(f"{place}. {growth.DISPLAY_NAMES[result.kind]} "
                   f"r_squared={result.r_squared:.4f}\n"
                   for place, result in enumerate(ranked, start=1))


def cmd_report(args, write) -> str:
    config = _match_config(args)
    manifest_path = Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    with _reading(manifest_path):
        for entry in manifest:
            if entry.density_group is None:
                raise LarvaekitError(f"image '{entry.image_id}' has no density_group, "
                                     "which a density summary needs")
    scored = evaluation.evaluate_dataset(manifest, config, root=manifest_path.parent)
    report = counting.density_summary([(e.density_group, scored.per_image[e.image_id])
                                       for e in manifest])
    csv_text = counting.render_density_csv(report)
    write("density_report.csv", csv_text)
    decreasing = str(report.accuracy_decreases_with_density).lower()
    return f"{csv_text}accuracy_strictly_decreasing={decreasing}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="larvaekit",
        description="Detection evaluation, preprocessing, counting and growth fitting.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("manifest", help="dataset manifest CSV")
    p_eval.add_argument("--iou-thr", type=float, default=0.5)
    p_eval.add_argument("--conf-thr", type=float, default=0.4)
    p_eval.add_argument("--aggregation", choices=AGGREGATIONS, default="global")
    p_eval.add_argument("--ap-method", choices=AP_METHODS, default="envelope")
    p_eval.add_argument("--group-by", choices=("none", *GROUP_FIELDS), default="none")
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=cmd_eval)

    p_pre = sub.add_parser("preprocess", help="transform images and their label files")
    p_pre.add_argument("action", choices=("crop", "mask", "noise", "rotate", "enlarge"))
    p_pre.add_argument("inputs", nargs="+",
                       help="image files (label files for the enlarge action); a sibling "
                            ".txt label file is transformed along with each image")
    p_pre.add_argument("--width", type=int)
    p_pre.add_argument("--height", type=int)
    p_pre.add_argument("--cx", type=float)
    p_pre.add_argument("--cy", type=float)
    p_pre.add_argument("--radius", type=float)
    p_pre.add_argument("--variance", type=float)
    p_pre.add_argument("--seed", type=int)
    p_pre.add_argument("--threshold", type=float, help="explicit area threshold for enlarge")
    p_pre.add_argument("--quantile", type=float,
                       help="derive the enlarge threshold from this area quantile")
    p_pre.add_argument("--mode", choices=ENLARGE_MODES, default="literal")
    p_pre.add_argument("--out-dir", required=True)
    p_pre.set_defaults(func=cmd_preprocess)

    p_count = sub.add_parser("count", help="count detections and extrapolate to the pond")
    p_count.add_argument("manifest")
    p_count.add_argument("--conf-thr", type=float, default=0.4)
    p_count.add_argument("--volume-factor", type=float, default=DEFAULT_VOLUME_FACTOR)
    p_count.add_argument("--out-dir", default=".")
    p_count.set_defaults(func=cmd_count)

    p_fit = sub.add_parser("fit", help="fit growth models to age/length data")
    p_fit.add_argument("csv", nargs="?", default=None,
                       help="observations CSV (age_days,length_mm); defaults to the "
                            "bundled per-stage means")
    p_fit.add_argument("--models", default="all",
                       help="'all' or comma list: vbgm,gompertz,linear,power,exponential")
    p_fit.add_argument("--multi-start", action="store_true",
                       help="try 5 jittered initializations and keep the best SSE")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--svg", default=None, metavar="NAME",
                       help="also write an SVG overlay with this name inside --out-dir")
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("report", help="per-density evaluation summary")
    p_rep.add_argument("manifest")
    p_rep.add_argument("--iou-thr", type=float, default=0.5)
    p_rep.add_argument("--conf-thr", type=float, default=0.4)
    p_rep.add_argument("--out-dir", default=".")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numeric_flags(args)
        with _staged_outputs(Path(args.out_dir), _named_inputs(args)) as write:
            stdout = args.func(args, write)
    except CommandUsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (LarvaekitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(stdout, end="")
    return 0


def run():
    """Run ``main`` as a process and exit with its status; never returns.

    Every entry point ends here. Stdout and stderr write UTF-8 whatever the
    locale, as the output files do. The process frees what the command leaves
    behind when it exits, so the heap is frozen first, and the collector's
    exit passes skip the objects numpy and the command made. Stdio is still
    flushed and ``atexit`` handlers still run. ``main`` itself neither
    re-encodes the caller's streams nor freezes its heap.
    """
    for stream in (sys.stdout, sys.stderr):
        # None when the stream was closed at start-up; each keeps its error handler.
        if stream is not None:
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
