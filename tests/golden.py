"""Golden output digests: the bytes every subcommand writes, on small seeded inputs.

``build_inputs`` writes a manifest with label files, frames (some whose
lengths end before, on and past noise-strip edges), label files
for ``enlarge`` and an observations CSV, all from fixed seeds and literal
text (nothing is downloaded), label files each refused at one line,
observation CSVs on which ``fit`` fails, manifests, frames and a label
file that other commands refuse, and label files read through other
spellings of their paths or with other line endings and encodings.
Each entry of ``CASES`` is one command line; ``run_case`` runs it in
process through ``cli.main`` and returns the sha256 of its stdout and of
every file it wrote to its ``--out-dir``, and raises if it wrote to
stderr. A case named in ``FAILING``
must exit non-zero instead: it gives its exit code, the sha256 of its
stderr (the input directory written as ``{root}``) and whether its
``--out-dir`` was created. A case named in ``IN_ROOT`` runs with the
input directory as its working directory.
``tests/test_golden.py`` re-runs every case and requires the digests
recorded in ``data/golden_digests.json``. Its
``test_outputs_match_without_site_packages`` runs every case but ``fit``
and ``preprocess noise`` again in one ``python -S -W error`` child, where
numpy cannot be imported, and requires the same digests; so this module
imports numpy only inside ``build_inputs``.

Run from the repository root::

    PYTHONPATH=src python tests/golden.py          # print the digests as JSON
    PYTHONPATH=src python tests/golden.py --write  # record them

Update rule: the recorded file changes only together with an argued
behaviour change, which regenerates it with ``--write`` and says so in
CHANGES.md. A refactor or a speed-up leaves it as it is; a digest that
moves under one is a bug in the change.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from larvaekit import AGGREGATIONS, AP_METHODS, GROUP_FIELDS, cli
from larvaekit.annotations import serialize_label_file
from larvaekit.raster import RasterImage, encode_raster

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"

MANIFEST_HEADER = "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"

# (image id, has gt, has predictions, density group, day label). The ids and
# day labels are not all ASCII; a day label of "unlabeled" shares the row of
# the images without one.
IMAGES = (
    ("larva_é", True, True, 50, "día_1"),
    ("幼虫_2", True, True, 50, "día_1"),
    ("c3", True, True, 100, "unlabeled"),
    ("c4", True, True, 100, ""),
    ("no_gt", False, True, 200, "día_2"),
    ("no_pred", True, False, 200, "día_2"),
)

# Ground truth for the frames. The first box pokes 5e-7 past the left edge,
# so parsing clamps it; it also lies outside the crop window.
FRAME_GT = (
    "0 0.050000 0.500000 0.100001 0.200000\n"
    "0 0.500000 0.500000 0.300000 0.250000\n"
    "1 0.700000 0.300000 0.120000 0.400000\n"
)
FRAME_PRED = (
    "0 0.480000 0.520000 0.280000 0.260000 0.910000\n"
    "0 0.200000 0.800000 0.050000 0.050000 0.350000\n"
)

ENLARGE_GT = (
    "0 0.100000 0.100000 0.010000 0.020000\n"
    "0 0.500000 0.500000 0.200000 0.100000\n"
    "0 0.995000 0.500000 0.008000 0.004000\n"
)
ENLARGE_PRED = (
    "0 0.300000 0.700000 0.030000 0.010000 0.800000\n"
    "0 0.600000 0.200000 0.002000 0.003000 0.100000\n"
)


# A row that clamps (an edge 5e-7 past the left border), then one of these
# lines, each refused by the label parser: (name, gt line, pred line).
CLAMPED_ROW = "0 0.050000 0.500000 0.100001 0.200000"
REFUSED_LINES = (
    ("field-count", "0 0.5 0.5 0.2", "0 0.5 0.5 0.2 0.2"),
    ("class-not-integer", "1.0 0.5 0.5 0.2 0.2", "1.0 0.5 0.5 0.2 0.2 0.5"),
    ("class-negative", "-1 0.5 0.5 0.2 0.2", "-1 0.5 0.5 0.2 0.2 0.5"),
    ("non-numeric", "0 0.5 0.5 0.2 zz", "0 0.5 0.5 zz 0.2 0.5"),
    ("nan", "0 0.5 nan 0.2 0.2", "0 0.5 0.5 0.2 0.2 nan"),
    ("outside", "0 1.2 0.5 0.2 0.2", "0 0.5 0.99 0.2 0.2 0.5"),
    ("no-extent", "0 0.5 0.5 1e-17 0.2", "0 0.5 0.5 0.2 1e-17 0.5"),
    ("confidence", None, "0 0.5 0.5 0.2 0.2 1.5"),
)
# Lines per refused file: one file under 16 lines and one over.
REFUSED_SIZES = {"short": 4, "long": 24}

# Observation CSVs that ``fit`` refuses: (age, length) rows by file stem.
# At ages near 1e8 the power and exponential families both fail to fit.
UNFITTABLE = {
    "obs_3_rows": ((0.0, 1.5), (5.0, 2.9), (10.0, 4.1)),
    "obs_4_rows": ((0.0, 1.5), (5.0, 2.9), (10.0, 4.1), (15.0, 5.0)),
    "obs_equal": tuple((age, 2.5) for age in (0.0, 5.0, 10.0, 15.0, 20.0)),
    "obs_header_only": (),
    "obs_far": tuple((1e8 + age, length) for age, length in zip(
        (0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 1.3, 1.5, 1.8, 2.05))),
    "obs_huge_age": ((0.0, 1.5), (1.0, 2.9), (2.0, 4.1), (1e200, 5.0)),
}

# Manifests, frames and a label file that a command refuses, by file name.
REFUSED_INPUTS = {
    "no_density.csv": (MANIFEST_HEADER + "a,,,,640,480,,\n").encode(),
    "short_header.csv": b"image_id,gt_path\na,\n",
    "repeated_id.csv": (MANIFEST_HEADER + "a,,,,640,480,50,\n" * 2).encode(),
    "density_75.csv": (MANIFEST_HEADER + "a,,,,640,480,75,\n").encode(),
    "small.pgm": b"P5\n4 4\n255\n" + bytes(range(16)),
    "truncated.pgm": b"P5\n4 4\n255\n" + bytes(10),
    "maxval.pgm": b"P5\n4 4\n65535\n" + bytes(32),
    "plain.pgm": b"P2\n4 4\n255\n" + b"0 " * 16,
    "empty.txt": b"",
}

# Gray frames for noise whose sample counts end before, on and past the edges
# of preprocessing._STRIP_SAMPLES = 65536-sample strips, by file name:
# (width, height, sibling label text or None).
STRIP_FRAMES = {
    "strip_long.pgm": (535, 245, FRAME_GT),  # 2 * 65536 + 3 samples
    "strip_even.pgm": (256, 256, None),  # 65536 samples
    "strip_even_wide.pgm": (512, 128, FRAME_PRED),  # 65536 samples
    "strip_short.pgm": (3121, 7, None),  # 65536 // 3 + 2 samples
}
# The noise case whose first frame lies in its own --out-dir, so writing it
# would overwrite an input.
OVERWRITE_CASE = "noise-error-overwrite-then-truncated"

# Label files written byte for byte: a byte-order mark with CRLF endings,
# lone-CR endings, and invalid UTF-8 at byte 0, right after a byte-order
# mark and past the first 8192 bytes.
BOM = b"\xef\xbb\xbf"
RAW_LABELS = {
    "bom_crlf_gt.txt": BOM + FRAME_GT.replace("\n", "\r\n").encode(),
    "cr_pred.txt": FRAME_PRED.replace("\n", "\r").encode(),
    "utf8_start.txt": b"\xff" + FRAME_GT.encode(),
    "utf8_after_bom.txt": BOM + b"\xff" + FRAME_GT.encode(),
    "utf8_late.txt": b"0 0.500000 0.500000 0.100000 0.100000\n" * 240 + b"0 0.5\xff 0.5 0.1 0.1\n",
}
# Manifests naming label files through other spellings of their paths: "./"
# and "//" inside a path, a trailing "/", a directory, and the files above.
PATH_MANIFESTS = {
    "newlines.csv": "a,,bom_crlf_gt.txt,cr_pred.txt,640,480,50,\nb,,frame.txt,gray.txt,640,480,100,\n",
    "dotted.csv": ("a,,./img0_gt.txt,.//img0_pred.txt,640,480,50,\n"
                   "b,,img1_gt.txt,./img1_pred.txt,640,480,50,\n"
                   "c,,frame.txt/,gray.txt,640,480,100,\n"),
    "dotted_missing.csv": "larva_é,,frame.txt,.//gone.txt,640,480,50,\n",
    "dotted_refused.csv": "larva_é,,./refused_gt_short_nan.txt,gray.txt,640,480,50,\n",
    "directory_label.csv": "larva_é,,labels_dir,gray.txt,640,480,50,\n",
    "utf8_start.csv": "larva_é,,utf8_start.txt,gray.txt,640,480,50,\n",
    "utf8_after_bom.csv": "larva_é,,frame.txt,utf8_after_bom.txt,640,480,50,\n",
    "utf8_late.csv": "larva_é,,utf8_late.txt,gray.txt,640,480,50,\n",
}
# Cases run with the input directory as the working directory.
IN_ROOT = frozenset({"missing-label-file-cwd"})


def refused_label_text(kind: str, refused: str, lines: int) -> str:
    """``lines`` label lines: the clamped row on line 2, ``refused`` on line
    ``lines - 1`` and plain in-bounds rows around them."""
    out = []
    for n in range(1, lines + 1):
        fields = CLAMPED_ROW if n == 2 else f"{n % 3} 0.{n + 10} 0.5 0.05 0.08"
        out.append(fields + (f" 0.{n + 10}" if kind == "pred" else ""))
    out[lines - 2] = refused
    return "\n".join(out) + "\n"


def _refused_files():
    """``(kind, size, name, file stem, text)`` of every refused label file."""
    for name, *lines in REFUSED_LINES:
        for kind, line in zip(("gt", "pred"), lines):
            if line is not None:
                for size, count in REFUSED_SIZES.items():
                    yield (kind, size, name, f"refused_{kind}_{size}_{name}",
                           refused_label_text(kind, line, count))


def build_inputs(root: Path) -> None:
    """Write every input the cases read into ``root``."""
    # The only users of numpy here, so the cases also run where it is absent.
    import numpy as np

    from conftest import crowded_instance

    rng = np.random.default_rng(2024)
    rows = [MANIFEST_HEADER]
    for n, (image_id, has_gt, has_pred, density, day) in enumerate(IMAGES):
        gt, pred = crowded_instance(rng)
        gt_path = f"img{n}_gt.txt" if has_gt else ""
        pred_path = f"img{n}_pred.txt" if has_pred else ""
        if has_gt:
            (root / gt_path).write_bytes(serialize_label_file(gt).encode())
        if has_pred:
            (root / pred_path).write_bytes(serialize_label_file(pred).encode())
        rows.append(f"{image_id},,{gt_path},{pred_path},640,480,{density},{day}\n")
    (root / "manifest.csv").write_bytes("".join(rows).encode())

    rgb = rng.integers(0, 256, size=(36, 48, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, size=(30, 40), dtype=np.uint8)
    (root / "frame.ppm").write_bytes(encode_raster(RasterImage.from_array(rgb)))
    (root / "frame.txt").write_bytes(FRAME_GT.encode())
    (root / "gray.pgm").write_bytes(encode_raster(RasterImage.from_array(gray)))
    (root / "gray.txt").write_bytes(FRAME_PRED.encode())
    (root / "small_gt.txt").write_bytes(ENLARGE_GT.encode())
    (root / "small_pred.txt").write_bytes(ENLARGE_PRED.encode())

    for kind, _, _, stem, text in _refused_files():
        (root / f"{stem}.txt").write_bytes(text.encode())
        gt, pred = (f"{stem}.txt", "gray.txt") if kind == "gt" else ("frame.txt", f"{stem}.txt")
        (root / f"{stem}.csv").write_bytes(
            (MANIFEST_HEADER + f"larva_é,,{gt},{pred},640,480,50,\n").encode())
    (root / "missing.csv").write_bytes(
        (MANIFEST_HEADER + "larva_é,,frame.txt,gone.txt,640,480,50,\n").encode())

    ages = np.arange(0.0, 19.0, 1.5)
    lengths = 20.0 * (1.0 - np.exp(-0.1 * (ages + 1.0))) + rng.normal(0.0, 0.15, ages.size)
    (root / "obs.csv").write_bytes(("age_days,length_mm\n" + "".join(
        f"{a:g},{v:.3f}\n" for a, v in zip(ages, lengths))).encode())
    for name, rows in UNFITTABLE.items():
        (root / f"{name}.csv").write_bytes(("age_days,length_mm\n" + "".join(
            f"{a!r},{v!r}\n" for a, v in rows)).encode())
    for name, data in REFUSED_INPUTS.items():
        (root / name).write_bytes(data)
    for name, data in RAW_LABELS.items():
        (root / name).write_bytes(data)
    for name, rows in PATH_MANIFESTS.items():
        (root / name).write_bytes((MANIFEST_HEADER + rows).encode())
    (root / "labels_dir").mkdir()
    for name, (width, height, labels) in STRIP_FRAMES.items():
        pixels = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        (root / name).write_bytes(encode_raster(RasterImage.from_array(pixels)))
        if labels is not None:
            (root / name).with_suffix(".txt").write_bytes(labels.encode())
    (root / "refused_frame.pgm").write_bytes(REFUSED_INPUTS["small.pgm"])
    (root / "refused_frame.txt").write_bytes(b"0 0.5 0.5 0.2\n")
    (root / "out" / OVERWRITE_CASE).mkdir(parents=True)
    (root / "out" / OVERWRITE_CASE / "small.pgm").write_bytes(REFUSED_INPUTS["small.pgm"])


def _cases() -> tuple[dict[str, list[str]], frozenset[str]]:
    # "{root}" stands for the directory build_inputs wrote.
    manifest = "{root}/manifest.csv"
    cases = {
        f"eval-{aggregation}-{ap}-{group}": [
            "eval", manifest, "--aggregation", aggregation, "--ap-method", ap,
            "--group-by", group]
        for aggregation in AGGREGATIONS
        for ap in AP_METHODS
        for group in ("none", *GROUP_FIELDS)
    }
    frames = ["{root}/frame.ppm", "{root}/gray.pgm"]
    labels = ["{root}/small_gt.txt", "{root}/small_pred.txt", "{root}/frame.txt"]
    cases.update({
        "report": ["report", manifest],
        "count": ["count", manifest],
        "count-flags": ["count", manifest, "--conf-thr", "0.6", "--volume-factor", "20"],
        "fit": ["fit"],
        "fit-multi-start-svg": ["fit", "--multi-start", "--svg", "growth.svg"],
        "fit-csv": ["fit", "{root}/obs.csv"],
        "fit-csv-multi-start-svg": ["fit", "{root}/obs.csv", "--multi-start", "--seed", "3",
                                    "--svg", "growth.svg"],
        "crop": ["preprocess", "crop", *frames, "--width", "30", "--height", "20"],
        "mask": ["preprocess", "mask", *frames, "--cx", "20", "--cy", "15", "--radius", "12.5"],
        "rotate": ["preprocess", "rotate", *frames],
        "noise-seed-1": ["preprocess", "noise", *frames, "--variance", "16", "--seed", "1"],
        "noise-seed-2": ["preprocess", "noise", *frames, "--variance", "16", "--seed", "2"],
    })
    strips = [f"{{root}}/strip_{name}.pgm" for name in ("long", "even", "short")]
    cases.update({
        "noise-strips-longest-first": ["preprocess", "noise", *strips,
                                       "--variance", "900", "--seed", "7"],
        "noise-strips-longest-last": ["preprocess", "noise", *strips[::-1],
                                      "--variance", "900", "--seed", "7"],
        "noise-strips-mixed": ["preprocess", "noise", strips[1], "{root}/strip_even_wide.pgm",
                               strips[2], strips[0], *frames, "--variance", "0.3", "--seed", "8"],
    })
    for mode in ("literal", "normalize"):
        cases[f"enlarge-threshold-{mode}"] = [
            "preprocess", "enlarge", *labels, "--threshold", "0.0004", "--mode", mode]
        cases[f"enlarge-quantile-{mode}"] = [
            "preprocess", "enlarge", *labels, "--quantile", "0.5", "--mode", mode]
    cases.update({
        "eval-newlines": ["eval", "{root}/newlines.csv", "--aggregation", "per_image_mean"],
        "count-newlines": ["count", "{root}/newlines.csv"],
        "eval-dotted-paths": ["eval", "{root}/dotted.csv", "--group-by", "density_group"],
    })
    failing = {}
    for kind, size, name, stem, _ in _refused_files():
        failing[f"refused-eval-{kind}-{size}-{name}"] = ["eval", f"{{root}}/{stem}.csv"]
        failing[f"refused-enlarge-{kind}-{size}-{name}"] = [
            "preprocess", "enlarge", "{root}/small_gt.txt", f"{{root}}/{stem}.txt",
            "--threshold", "0.0004"]
    failing["missing-label-file"] = ["count", "{root}/missing.csv"]
    failing.update({
        "refused-report-gt-long-outside": ["report", "{root}/refused_gt_long_outside.csv"],
        "refused-count-pred-long-field-count": ["count", "{root}/refused_pred_long_field-count.csv"],
        "missing-label-file-cwd": ["eval", "missing.csv"],
        "missing-label-file-dotted": ["eval", "{root}/dotted_missing.csv"],
        "refused-eval-dotted-path": ["eval", "{root}/dotted_refused.csv"],
        "directory-label-file": ["count", "{root}/directory_label.csv"],
        "undecodable-label-start": ["eval", "{root}/utf8_start.csv"],
        "undecodable-label-after-bom": ["eval", "{root}/utf8_after_bom.csv"],
        "undecodable-label-late": ["count", "{root}/utf8_late.csv"],
    })
    failing.update({
        "fit-error-3-rows": ["fit", "{root}/obs_3_rows.csv", "--models", "gompertz,vbgm"],
        "fit-error-3-rows-reordered": ["fit", "{root}/obs_3_rows.csv", "--models", "vbgm,gompertz"],
        "fit-error-4-rows": ["fit", "{root}/obs_4_rows.csv", "--models", "linear,gompertz"],
        "fit-error-equal-lengths": ["fit", "{root}/obs_equal.csv"],
        "fit-error-header-only": ["fit", "{root}/obs_header_only.csv"],
        "fit-error-far-ages": ["fit", "{root}/obs_far.csv", "--models", "exponential,power"],
        "fit-error-huge-age": ["fit", "{root}/obs_huge_age.csv", "--models", "linear"],
        "report-error-no-density": ["report", "{root}/no_density.csv"],
        "eval-error-short-header": ["eval", "{root}/short_header.csv"],
        "eval-error-repeated-id": ["eval", "{root}/repeated_id.csv"],
        "count-error-density-75": ["count", "{root}/density_75.csv"],
        "crop-error-too-large": ["preprocess", "crop", "{root}/small.pgm",
                                 "--width", "5", "--height", "2"],
        "rotate-error-truncated": ["preprocess", "rotate", "{root}/truncated.pgm"],
        "rotate-error-maxval": ["preprocess", "rotate", "{root}/maxval.pgm"],
        "rotate-error-magic": ["preprocess", "rotate", "{root}/plain.pgm"],
        "enlarge-error-quantile-empty": ["preprocess", "enlarge", "{root}/empty.txt",
                                         "--quantile", "0.5"],
        "noise-error-truncated-second": ["preprocess", "noise", "{root}/frame.ppm",
                                         "{root}/truncated.pgm", "--variance", "4", "--seed", "1"],
        "noise-error-label-beside-later": ["preprocess", "noise", "{root}/frame.ppm",
                                           "{root}/refused_frame.pgm", "--variance", "4",
                                           "--seed", "1"],
        OVERWRITE_CASE: ["preprocess", "noise", f"{{root}}/out/{OVERWRITE_CASE}/small.pgm",
                         "{root}/truncated.pgm", "--variance", "4", "--seed", "1"],
    })
    failing["usage-error"] = ["eval", manifest, "--iou-thr", "1.5"]
    cases.update(failing)
    return cases, frozenset(failing)


CASES, FAILING = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(root: Path, name: str) -> dict[str, str]:
    """Run case ``name`` on the inputs in ``root``; the digest of each output."""
    out = root / "out" / name
    argv = [arg.format(root=root) for arg in CASES[name]] + ["--out-dir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    if name in IN_ROOT:
        os.chdir(root)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    if name in FAILING:
        return {"exit": str(status),
                "stderr": _sha256(stderr.getvalue().replace(str(root), "{root}").encode()),
                "out-dir": "created" if out.exists() else "not created"}
    if status != 0 or stderr.getvalue():
        raise RuntimeError(f"{name} exited {status}, stderr: {stderr.getvalue()!r}")
    digests = {"stdout": _sha256(stdout.getvalue().encode())}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = _sha256(path.read_bytes())
    return digests


def all_digests() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_inputs(root)
        return {name: run_case(root, name) for name in CASES}


def main(argv: list[str]) -> int:
    text = json.dumps(all_digests(), indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        DIGESTS.write_bytes(text.encode())
    elif argv:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
