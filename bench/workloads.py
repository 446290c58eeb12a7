"""Seeded benchmark inputs, the CLI commands run on them, and output checks.

Each command has a role. ``load`` commands carry the workload and are
timed in every run. ``probe`` commands run the subcommands the workload
does not stress on a small probe set (seven sparse images, one small
frame, three small label files, and ``fit --multi-start --svg`` on the
bundled stage means); they cost little more than interpreter start-up
and are timed only in traced runs, so that every layer has spans on
every workload. ``check`` commands run once per run, untimed, for an
output check too slow to repeat:

- ``dense-eval``: crowded, overlapping images at the seven stocking
  densities through ``eval``, ``report`` and ``count``. The pairwise
  greedy matcher does most of the work. The 1923-box grid image of
  ``tests/conftest.py`` runs through ``eval`` as a check command: its
  matching costs about five times the crowded images', so timing it
  would leave a run only a few samples of each command.
- ``sparse-preprocess``: everything but the matcher. Thousands of
  low-density images, a third without ground truth, through ``count``
  and ``eval``, where manifest parsing, label reads and per-image
  overhead dominate; large P6 frames and one P5 frame with ~500-box
  sibling labels through ``crop``, ``mask``, ``noise`` and ``rotate``;
  and ``enlarge --quantile`` over many label files. The only workload
  where ``raster`` and ``preprocessing`` carry the load. It is one
  workload, not two, because on a shared two-core machine two workloads
  with long runs are steadier than three with short ones.

``growth`` and ``chart`` run only in the probe ``fit``: at this size a
fit takes a few hundredths of a second next to interpreter start-up, so
a fit-heavy workload measured start-up again and did not pay for its
share of the benchmark's time budget.

Each check compares an output against an answer computed without the
code under test: the grid's known confusion split, the generator's own
prediction counts, numpy recomputations of the image transforms, the
recorded ranking of the growth families, and (for the CSV renderings)
an in-process evaluation.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("dense-eval", "sparse-preprocess")
DENSITIES = (50, 100, 150, 200, 300, 400, 500)
IMAGE_ACTIONS = ("crop", "mask", "noise", "rotate")
SUBCOMMANDS = ("eval", "report", "count", "fit") + IMAGE_ACTIONS + ("enlarge",)

IOU_THR = 0.5
CONF_THR = 0.4
NOISE_VARIANCE = 25.0
ENLARGE_QUANTILE = 0.25
CROP_FRACTION = 0.8
MIN_CLIPPED_AREA_FRACTION = 1e-6  # the crop's sliver rule, as documented
BUNDLED_RANKING = ("Gompertz", "VBGM", "Linear", "Power", "Exponential")
MANIFEST_HEADER = "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"


@dataclass(frozen=True)
class Sizes:
    grid: tuple[int, int, int]  # (gt, tp, fp) of the grid image
    crowded_scale: float  # ground-truth boxes per crowded image = density * scale
    sparse_images: int
    sparse_max_boxes: int
    frame: tuple[int, int]  # (width, height)
    frame_boxes: int
    enlarge_files: int
    enlarge_boxes: int


FULL = Sizes(
    grid=(1923, 1851, 70),
    crowded_scale=1.0,
    sparse_images=2000,
    sparse_max_boxes=30,
    frame=(1920, 1440),
    frame_boxes=500,
    enlarge_files=120,
    enlarge_boxes=500,
)

# For the benchmark's own tests: the same code paths in well under a second.
TINY = Sizes(
    grid=(60, 55, 4),
    crowded_scale=0.1,
    sparse_images=30,
    sparse_max_boxes=6,
    frame=(96, 64),
    frame_boxes=20,
    enlarge_files=3,
    enlarge_boxes=20,
)


@dataclass
class Command:
    """One CLI invocation; ``check`` returns a list of problems."""

    kind: str  # the subcommand or preprocess action it is timed under
    label: str  # unique within a workload; names its output directory
    args: list[str]
    out_dir: Path
    check: Callable[[Path, str], list[str]]
    role: str = "load"  # "load", "probe" or "check"; see the module docstring


@dataclass
class Workload:
    name: str
    commands: list[Command] = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    frame_mpix: float = 0.0  # megapixels each image action transforms


# --- label text ----------------------------------------------------------


def _clip_rows(corners: np.ndarray) -> np.ndarray:
    """(x1, y1, x2, y2) rows -> rounded (cx, cy, w, h) rows inside the unit square."""
    c = np.clip(corners, 1e-5, 1 - 1e-5)
    x1, y1, x2, y2 = c.T
    w = np.maximum(np.round(x2 - x1, 6), 1e-4)
    h = np.maximum(np.round(y2 - y1, 6), 1e-4)
    cx = np.round(np.clip((x1 + x2) / 2, w / 2 + 2e-6, 1 - w / 2 - 2e-6), 6)
    cy = np.round(np.clip((y1 + y2) / 2, h / 2 + 2e-6, 1 - h / 2 - 2e-6), 6)
    return np.stack([cx, cy, w, h], axis=1)


def _random_boxes(rng, n, lo, hi) -> np.ndarray:
    w = rng.uniform(lo, hi, n)
    h = rng.uniform(lo, hi, n)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return _clip_rows(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1))


def _jitter(rng, boxes: np.ndarray, shift: float, lo: float, hi: float) -> np.ndarray:
    cx, cy, w, h = boxes.T
    n = len(boxes)
    cx = cx + rng.uniform(-shift, shift, n) * w
    cy = cy + rng.uniform(-shift, shift, n) * h
    w = w * rng.uniform(lo, hi, n)
    h = h * rng.uniform(lo, hi, n)
    return _clip_rows(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1))


def _confidences(rng, n, lo, hi) -> np.ndarray:
    # Whole millionths, so the 6-decimal label text reads back exactly.
    return rng.integers(int(lo * 1e6), int(hi * 1e6) + 1, n)


def label_text(boxes: np.ndarray, conf_millionths=None) -> str:
    if conf_millionths is None:
        return "".join(f"0 {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}\n" for cx, cy, w, h in boxes)
    return "".join(
        f"0 {cx:.6f} {cy:.6f} {w:.6f} {h:.6f} {k / 1e6:.6f}\n"
        for (cx, cy, w, h), k in zip(boxes, conf_millionths)
    )


def read_label_rows(text: str) -> np.ndarray:
    rows = [line.split()[1:] for line in text.splitlines() if line.strip()]
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


# --- images --------------------------------------------------------------


def encode_pnm(arr: np.ndarray) -> bytes:
    h, w, c = arr.shape
    return f"{'P5' if c == 1 else 'P6'}\n{w} {h}\n255\n".encode() + arr.tobytes()


def decode_pnm(data: bytes) -> np.ndarray:
    """Reader for the canonical ``magic\\nW H\\n255\\n`` header the writer emits."""
    magic, dims, maxval, payload = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic not in (b"P5", b"P6") or maxval != b"255":
        raise ValueError(f"unexpected netpbm header {data[:32]!r}")
    c = 1 if magic == b"P5" else 3
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, c)


# --- shared dataset writer -----------------------------------------------


class Dataset:
    """Label files and a manifest, with the facts the checks need."""

    def __init__(self, root: Path, name: str):
        self.dir = root / name
        self.dir.mkdir(parents=True)
        self.rows: list[str] = []
        self.expected_counts: dict[str, tuple[int, int | None]] = {}
        self.gt_boxes = self.pred_boxes = self.preds_below = 0
        self.images_without_gt = 0
        self.gt_pairs = self.gt_pairs_over_03 = 0

    def add(self, image_id, gt, preds, conf, density=None, pair_stats=False):
        gt_path = ""
        if gt is not None:
            gt_path = f"{image_id}_gt.txt"
            (self.dir / gt_path).write_text(label_text(gt))
            self.gt_boxes += len(gt)
            if pair_stats:
                pairs, over = _gt_pair_overlaps(gt)
                self.gt_pairs += pairs
                self.gt_pairs_over_03 += over
        else:
            self.images_without_gt += 1
        pred_path = f"{image_id}_pred.txt"
        (self.dir / pred_path).write_text(label_text(preds, conf))
        self.pred_boxes += len(preds)
        self.preds_below += int((conf < CONF_THR * 1e6).sum())
        self.expected_counts[image_id] = (
            int((conf >= CONF_THR * 1e6).sum()),
            None if gt is None else len(gt),
        )
        self.rows.append(f"{image_id},,{gt_path},{pred_path},2100,2100,{density or ''},\n")

    def write_manifest(self) -> Path:
        path = self.dir / "manifest.csv"
        path.write_text(MANIFEST_HEADER + "".join(self.rows))
        return path

    def properties(self) -> dict:
        n = len(self.rows)
        props = {
            "images": n,
            "boxes": self.gt_boxes + self.pred_boxes,
            "gt_boxes": self.gt_boxes,
            "pred_boxes": self.pred_boxes,
            # Label-only datasets: the manifest declares 2100x2100 images.
            "megapixels_declared": n * 2100 * 2100 / 1e6,
            "share_images_without_gt": self.images_without_gt / n,
            "share_preds_below_conf_thr": self.preds_below / max(1, self.pred_boxes),
        }
        if self.gt_pairs:
            props["share_gt_pairs_iou_over_0.3"] = self.gt_pairs_over_03 / self.gt_pairs
        return props


def _gt_pair_overlaps(boxes: np.ndarray) -> tuple[int, int]:
    """Within-image GT pairs, and how many of them overlap with IoU > 0.3."""
    cx, cy, w, h = boxes.T
    x1, x2, y1, y2 = cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2
    ix = np.clip(np.minimum(x2[:, None], x2) - np.maximum(x1[:, None], x1), 0, None)
    iy = np.clip(np.minimum(y2[:, None], y2) - np.maximum(y1[:, None], y1), 0, None)
    inter = ix * iy
    area = w * h
    iou = inter / (area[:, None] + area - inter)
    upper = np.triu_indices(len(boxes), k=1)
    return len(upper[0]), int((iou[upper] > 0.3).sum())


def _grid(sizes: Sizes):
    """The disjoint-grid image of tests/conftest.py: exact copies and decoys."""
    num_gt, num_tp, num_fp = sizes.grid
    cells = np.arange(num_gt + num_fp)
    row, col = np.divmod(cells, 50)
    boxes = np.stack([(col + 0.5) / 50, (row + 0.5) / 40,
                      np.full(cells.size, 0.5 / 50), np.full(cells.size, 0.5 / 40)], axis=1)
    preds = np.concatenate([boxes[:num_tp], boxes[num_gt:]])
    conf = np.array([900000] * num_tp + [800000] * num_fp)
    return boxes[:num_gt], preds, conf, (num_tp, num_fp, num_gt - num_tp)


def _subset(rng, boxes: np.ndarray, share: float) -> np.ndarray:
    """A seeded choice of exactly ``round(share * len(boxes))`` rows.

    Box counts depend on the sizes only, never on the seed, so the work a
    run does is the same for every seed.
    """
    return boxes[np.sort(rng.permutation(len(boxes))[: round(share * len(boxes))])]


def _crowded(rng, n_gt: int):
    """Clumped, overlapping larvae with jittered, duplicated and decoy predictions."""
    gt = _random_boxes(rng, n_gt, 0.015, 0.04)
    # Place 40% of the larvae against an earlier one so GT boxes overlap.
    for i in np.sort(rng.permutation(np.arange(1, n_gt))[: round(0.4 * n_gt)]):
        cx, cy, w, h = gt[int(rng.integers(0, i))]
        dx, dy = rng.uniform(-0.6, 0.6, 2) * (w, h)
        gt[i] = _clip_rows(np.array([[cx + dx - w / 2, cy + dy - h / 2,
                                      cx + dx + w / 2, cy + dy + h / 2]]))[0]
    hits = _jitter(rng, _subset(rng, gt, 0.92), 0.12, 0.85, 1.2)
    dupes = _jitter(rng, _subset(rng, gt, 0.2), 0.3, 0.7, 1.4)
    decoys = _random_boxes(rng, max(1, n_gt // 10), 0.015, 0.04)
    preds = np.concatenate([hits, dupes, decoys])
    conf = np.concatenate([
        _confidences(rng, len(hits), 0.3, 1.0),
        _confidences(rng, len(dupes), 0.05, 0.6),
        _confidences(rng, len(decoys), 0.01, 0.65),
    ])
    order = rng.permutation(len(preds))
    return gt, preds[order], conf[order]


def _sparse_image(rng, n: int, with_gt: bool):
    """``n`` well-spread boxes; without GT, ``n`` predictions only (field imagery)."""
    if not with_gt:
        return None, _random_boxes(rng, n, 0.02, 0.05), _confidences(rng, n, 0.01, 1.0)
    gt = _random_boxes(rng, n, 0.02, 0.05)
    hits = _jitter(rng, _subset(rng, gt, 0.85), 0.1, 0.9, 1.1)
    preds = np.concatenate([hits, _random_boxes(rng, n // 10, 0.02, 0.05)])
    return gt, preds, _confidences(rng, len(preds), 0.01, 1.0)


# --- checks --------------------------------------------------------------


class Reference:
    """In-process evaluations, computed once per manifest for the checks.

    larvaekit is imported inside the checks because ``run.py`` puts
    ``src`` on the path only after it has checked that ``src`` exists.
    """

    def __init__(self):
        self._cache = {}

    def evaluation(self, manifest: Path, group_by):
        from larvaekit.annotations import load_manifest
        from larvaekit.evaluation import MatchConfig, evaluate_dataset

        key = (manifest, group_by)
        if key not in self._cache:
            self._cache[key] = evaluate_dataset(
                load_manifest(manifest.read_text()),
                MatchConfig(iou_threshold=IOU_THR, confidence_threshold=CONF_THR),
                root=manifest.parent,
                group_by=group_by,
            )
        return self._cache[key]


def _check_eval(ref: Reference, manifest: Path, group_by):
    def check(out: Path, stdout: str) -> list[str]:
        from larvaekit.evaluation import render_eval_csv, render_pr_curve_csv

        problems = []
        ev = ref.evaluation(manifest, group_by)
        if (out / "eval.csv").read_text() != render_eval_csv(ev):
            problems.append("eval.csv differs from the in-process evaluation")
        if (out / "pr_curve.csv").read_text() != render_pr_curve_csv(ev.overall.curve):
            problems.append("pr_curve.csv differs from the in-process evaluation")
        if stdout != render_eval_csv(replace(ev, group_by=None, groups={})):
            problems.append("eval summary on stdout differs from the 'all' row")
        return problems

    return check


def _check_grid(split: tuple[int, int, int]):
    """The grid's confusion split is known by construction: no reference run."""

    def check(out: Path, stdout: str) -> list[str]:
        (row,) = csv.DictReader(io.StringIO((out / "eval.csv").read_text()))
        got = (int(row["tp"]), int(row["fp"]), int(row["fn"]))
        return [] if got == split else [f"grid image gives {got}, expected {split}"]

    return check


def _check_report(ref: Reference, manifest: Path):
    def check(out: Path, stdout: str) -> list[str]:
        from larvaekit.annotations import load_manifest
        from larvaekit.counting import density_summary, render_density_csv

        ev = ref.evaluation(manifest, "density_group")
        entries = load_manifest(manifest.read_text())
        want = render_density_csv(
            density_summary([(e.density_group, ev.per_image[e.image_id]) for e in entries])
        )
        if (out / "density_report.csv").read_text() != want:
            return ["density_report.csv differs from the in-process evaluation"]
        return []

    return check


def _check_count(dataset: Dataset):
    def check(out: Path, stdout: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO((out / "counts.csv").read_text())))
        got = {
            r["image_id"]: (int(r["predicted_count"]),
                            int(r["true_count"]) if r["true_count"] else None)
            for r in rows
        }
        want_total = sum(c for c, _ in dataset.expected_counts.values())
        problems = []
        if sum(c for c, _ in got.values()) != want_total:
            problems.append(f"counts.csv total differs from the generator's {want_total}")
        if got != dataset.expected_counts:
            problems.append("per-image counts differ from the generator's")
        return problems

    return check


def _check_image(action: str, inputs: list[Path], seed: int = 0, circle=None, crop=None):
    def check(out: Path, stdout: str) -> list[str]:
        problems = []
        for image in inputs:
            arr = decode_pnm(image.read_bytes())
            got = decode_pnm((out / image.name).read_bytes())
            label_in = image.with_suffix(".txt").read_text()
            label_out = (out / image.with_suffix(".txt").name).read_text()
            if action == "rotate":
                want = np.rot90(arr, 1)
                rows_in, rows_out = read_label_rows(label_in), read_label_rows(label_out)
                cx, cy, w, h = rows_in.T
                mapped = np.stack([cy, 1 - cx, h, w], axis=1)
                if rows_out.shape != mapped.shape or np.abs(rows_out - mapped).max() > 2e-6:
                    problems.append(f"{image.name}: rotated boxes are not (cy, 1-cx, h, w)")
            elif action == "mask":
                cx, cy, r = circle
                ys, xs = np.mgrid[0 : arr.shape[0], 0 : arr.shape[1]]
                inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
                want = arr * inside[:, :, None].astype(np.uint8)
            elif action == "noise":
                noise = np.random.default_rng(seed).normal(0.0, math.sqrt(NOISE_VARIANCE), arr.size)
                noisy = np.clip(np.rint(arr.reshape(-1).astype(np.float64) + noise), 0, 255)
                want = noisy.astype(np.uint8).reshape(arr.shape)
            else:  # crop
                tw, th = crop
                ox, oy = (arr.shape[1] - tw) // 2, (arr.shape[0] - th) // 2
                want = arr[oy : oy + th, ox : ox + tw]
                kept = _boxes_surviving_crop(read_label_rows(label_in), arr.shape, crop)
                if len(read_label_rows(label_out)) != kept:
                    problems.append(f"{image.name}: crop kept the wrong number of boxes")
            if got.shape != want.shape or not np.array_equal(got, want):
                problems.append(f"{image.name}: {action} pixels differ from numpy")
            if action in ("mask", "noise") and label_out != label_in:
                problems.append(f"{image.name}: {action} changed the labels")
        return problems

    return check


def _boxes_surviving_crop(rows: np.ndarray, shape, crop) -> int:
    height, width = shape[:2]
    tw, th = crop
    ox, oy = (width - tw) // 2, (height - th) // 2
    cx, cy, w, h = rows.T
    x1 = np.clip((cx - w / 2) * width - ox, 0, tw)
    x2 = np.clip((cx + w / 2) * width - ox, 0, tw)
    y1 = np.clip((cy - h / 2) * height - oy, 0, th)
    y2 = np.clip((cy + h / 2) * height - oy, 0, th)
    area = np.maximum(x2 - x1, 0) * np.maximum(y2 - y1, 0)
    return int((area >= MIN_CLIPPED_AREA_FRACTION * tw * th).sum())


def _check_enlarge(inputs: list[Path]):
    def check(out: Path, stdout: str) -> list[str]:
        rows = [read_label_rows(p.read_text()) for p in inputs]
        areas = np.concatenate([r[:, 2] * r[:, 3] for r in rows])
        threshold = float(np.quantile(areas, ENLARGE_QUANTILE))
        problems = []
        if stdout != f"area_threshold={threshold:.9g}\n":
            problems.append(f"enlarge threshold {stdout.strip()!r}, expected {threshold:.9g}")
        for path, rows_in in zip(inputs, rows):
            rows_out = read_label_rows((out / path.name).read_text())
            big = rows_in[:, 2] * rows_in[:, 3] >= threshold
            if rows_out.shape != rows_in.shape or not np.array_equal(rows_out[big], rows_in[big]):
                problems.append(f"{path.name}: boxes at or above the threshold changed")
            elif np.any(rows_out[:, 2] * rows_out[:, 3] < rows_in[:, 2] * rows_in[:, 3] - 1e-12):
                problems.append(f"{path.name}: a box shrank")
        return problems

    return check


def _check_fit(observations: int):
    def check(out: Path, stdout: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO((out / "fits.csv").read_text())))
        names = [r["model"] for r in rows]
        problems = []
        if names != list(BUNDLED_RANKING):
            problems.append(f"bundled-means ranking {names} != {BUNDLED_RANKING}")
        root = ET.fromstring((out / "growth.svg").read_text())
        tags = [el.get("class") for el in root.iter()]
        if tags.count("curve") != len(BUNDLED_RANKING) or tags.count("obs") != observations:
            problems.append("growth SVG lacks a curve per model or a circle per observation")
        return problems

    return check


# --- workloads -----------------------------------------------------------


def _eval_command(w: Workload, dataset: Dataset, manifest: Path, out: Path, group_by, check):
    w.commands.append(Command(
        "eval", f"eval-{dataset.dir.name}",
        ["eval", str(manifest), "--iou-thr", str(IOU_THR), "--conf-thr", str(CONF_THR),
         "--group-by", group_by or "none"],
        out / f"eval-{dataset.dir.name}", check))


def _report_command(w: Workload, ref, dataset: Dataset, manifest: Path, out: Path):
    w.commands.append(Command(
        "report", f"report-{dataset.dir.name}",
        ["report", str(manifest), "--iou-thr", str(IOU_THR), "--conf-thr", str(CONF_THR)],
        out / f"report-{dataset.dir.name}", _check_report(ref, manifest)))


def _count_command(w: Workload, dataset: Dataset, manifest: Path, out: Path):
    w.commands.append(Command(
        "count", f"count-{dataset.dir.name}",
        ["count", str(manifest), "--conf-thr", str(CONF_THR)],
        out / f"count-{dataset.dir.name}", _check_count(dataset)))


def _frames(rng, root: Path, shapes, boxes_per_frame: int) -> list[Path]:
    root.mkdir(parents=True)
    paths = []
    for i, (w, h, c) in enumerate(shapes):
        path = root / f"frame{i}.{'pgm' if c == 1 else 'ppm'}"
        path.write_bytes(encode_pnm(rng.integers(0, 256, (h, w, c), dtype=np.uint8)))
        path.with_suffix(".txt").write_text(label_text(_random_boxes(rng, boxes_per_frame, 0.004, 0.03)))
        paths.append(path)
    return paths


def _image_commands(w: Workload, frames: list[Path], seed: int, out: Path, tag: str):
    fw, fh = decode_pnm(frames[0].read_bytes()).shape[1::-1]
    crop = (int(fw * CROP_FRACTION), int(fh * CROP_FRACTION))
    circle = ((fw - 1) / 2, (fh - 1) / 2, 0.45 * min(fw, fh))
    names = [str(p) for p in frames]
    specs = {
        "crop": (["--width", str(crop[0]), "--height", str(crop[1])], dict(crop=crop)),
        "mask": (["--cx", repr(circle[0]), "--cy", repr(circle[1]), "--radius", repr(circle[2])],
                 dict(circle=circle)),
        "noise": (["--variance", str(NOISE_VARIANCE), "--seed", str(seed)], dict(seed=seed)),
        "rotate": ([], {}),
    }
    for action in IMAGE_ACTIONS:
        flags, check_args = specs[action]
        w.commands.append(Command(
            action, f"{action}-{tag}", ["preprocess", action, *names, *flags],
            out / f"{action}-{tag}", _check_image(action, frames, **check_args)))
    w.frame_mpix = sum(math.prod(decode_pnm(p.read_bytes()).shape[:2]) for p in frames) / 1e6


def _enlarge_command(w: Workload, labels: list[Path], out: Path, tag: str):
    w.commands.append(Command(
        "enlarge", f"enlarge-{tag}",
        ["preprocess", "enlarge", *map(str, labels), "--quantile", str(ENLARGE_QUANTILE)],
        out / f"enlarge-{tag}", _check_enlarge(labels)))


def _probe(w: Workload, need, rng, seed, root: Path, ref: Reference, out: Path):
    """Small inputs for the subcommands the workload does not stress."""
    if {"eval", "report", "count"} & need:
        probe = Dataset(root, "probe")
        for i, density in enumerate(DENSITIES):
            gt, preds, conf = _sparse_image(rng, density // 10, with_gt=True)
            probe.add(f"probe{i}", gt, preds, conf, density)
        manifest = probe.write_manifest()
        if "eval" in need:
            _eval_command(w, probe, manifest, out, None, _check_eval(ref, manifest, None))
        if "report" in need:
            _report_command(w, ref, probe, manifest, out)
        if "count" in need:
            _count_command(w, probe, manifest, out)
    if set(IMAGE_ACTIONS) & need:
        frames = _frames(rng, root / "probe_frames", [(320, 240, 3)], 40)
        _image_commands(w, frames, seed, out, "probe")
    if "enlarge" in need:
        labels = []
        for i in range(3):
            path = root / f"probe_labels{i}.txt"
            path.write_text(label_text(_random_boxes(rng, 40, 0.004, 0.03)))
            labels.append(path)
        _enlarge_command(w, labels, out, "probe")
    if "fit" in need:
        w.commands.append(Command(
            "fit", "fit-probe", ["fit", "--multi-start", "--svg", "growth.svg"],
            out / "fit-probe", _check_fit(observations=11)))


def build(name: str, seed: int, root: Path, sizes: Sizes = FULL) -> Workload:
    """Generate a workload's inputs under ``root`` and list its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True)
    ref = Reference()
    out = root / "out"
    w = Workload(name)
    if name == "dense-eval":
        dense = Dataset(root, "dense")
        for density in DENSITIES:
            n_gt = max(2, int(density * sizes.crowded_scale))
            dense.add(f"d{density}", *_crowded(rng, n_gt), density, pair_stats=True)
        manifest = dense.write_manifest()
        _eval_command(w, dense, manifest, out, "density_group",
                      _check_eval(ref, manifest, "density_group"))
        _report_command(w, ref, dense, manifest, out)
        _count_command(w, dense, manifest, out)
        w.properties = dense.properties()
        grid = Dataset(root, "grid")
        gt, preds, conf, split = _grid(sizes)
        grid.add("grid", gt, preds, conf, density=500)
        _eval_command(w, grid, grid.write_manifest(), out, None, _check_grid(split))
        w.commands[-1].role = "check"
        w.properties["grid_check_boxes"] = grid.gt_boxes + grid.pred_boxes
    else:
        sparse = Dataset(root, "sparse")
        for i in range(sizes.sparse_images):
            n = i % (sizes.sparse_max_boxes + 1)
            gt, preds, conf = _sparse_image(rng, n, with_gt=i % 3 != 0)
            sparse.add(f"img{i:05d}", gt, preds, conf, DENSITIES[i % len(DENSITIES)])
        manifest = sparse.write_manifest()
        _count_command(w, sparse, manifest, out)
        _eval_command(w, sparse, manifest, out, None, _check_eval(ref, manifest, None))
        fw, fh = sizes.frame
        frames = _frames(rng, root / "frames", [(fw, fh, 3), (fw, fh, 3), (fw, fh, 1)],
                         sizes.frame_boxes)
        _image_commands(w, frames, seed, out, "frames")
        labels_dir = root / "labels"
        labels_dir.mkdir()
        labels = []
        for i in range(sizes.enlarge_files):
            path = labels_dir / f"labels{i:04d}.txt"
            path.write_text(label_text(_random_boxes(rng, sizes.enlarge_boxes, 0.004, 0.03)))
            labels.append(path)
        _enlarge_command(w, labels, out, "labels")
        w.properties = sparse.properties()
        w.properties.update({
            "frames": len(frames),
            "frame_megapixels": w.frame_mpix,
            "frame_boxes": len(frames) * sizes.frame_boxes,
            "label_files_enlarged": sizes.enlarge_files,
            "enlarge_boxes": sizes.enlarge_files * sizes.enlarge_boxes,
        })
    loaded = len(w.commands)
    _probe(w, set(SUBCOMMANDS) - {c.kind for c in w.commands}, rng, seed, root, ref, out)
    for command in w.commands[loaded:]:
        command.role = "probe"
    return w
