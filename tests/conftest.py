"""Shared builders for the test suite.

Most tests need one of four things: the large grid dataset with a known
TP/FP/FN split, small random matching instances checked against a
brute-force assignment oracle, crowded random instances checked against
the pairwise greedy loop, or throwaway datasets on disk for the
manifest/CLI paths. All of those builders live here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from larvaekit.annotations import (
    Box2D,
    LabeledBox,
    ScoredBox,
    serialize_label_file,
)
from larvaekit.raster import RasterImage, encode_raster

from oracles import PixelBox, iou, to_absolute

GRID_COLS = 50
GRID_ROWS = 40


def cell_box(index: int) -> Box2D:
    """Box centered in grid cell ``index``, half the cell in each extent."""
    row, col = divmod(index, GRID_COLS)
    return Box2D(
        (col + 0.5) / GRID_COLS,
        (row + 0.5) / GRID_ROWS,
        0.5 / GRID_COLS,
        0.5 / GRID_ROWS,
    )


def grid_boxes(num_gt: int = 1923, num_tp: int = 1851, num_fp: int = 70):
    """Disjoint-grid dataset with an exact confusion split.

    Ground-truth boxes sit centered in distinct grid cells at half the
    cell size, so no two overlap. The first ``num_tp`` predictions are
    exact copies (IoU 1) and the ``num_fp`` decoys occupy cells holding
    no ground truth (IoU 0), which pins TP/FP/FN regardless of matcher
    tie-breaking. Defaults reproduce the final detector run's counts.
    """
    assert num_gt + num_fp <= GRID_COLS * GRID_ROWS
    gt = [LabeledBox(0, cell_box(i)) for i in range(num_gt)]
    preds = [ScoredBox(0, g.box, 0.9) for g in gt[:num_tp]]
    preds += [ScoredBox(0, cell_box(num_gt + i), 0.8) for i in range(num_fp)]
    return gt, preds


@pytest.fixture(scope="session")
def confusion_fixture():
    return grid_boxes()


# --- brute-force oracles -------------------------------------------------


def rand_corners(rng: np.random.Generator) -> PixelBox:
    w = rng.uniform(0.05, 0.4)
    h = rng.uniform(0.05, 0.4)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return PixelBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def jitter_corners(box: PixelBox, rng: np.random.Generator) -> PixelBox:
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    cx = (x1 + x2) / 2 + rng.uniform(-0.15, 0.15) * w
    cy = (y1 + y2) / 2 + rng.uniform(-0.15, 0.15) * h
    w *= rng.uniform(0.75, 1.3)
    h *= rng.uniform(0.75, 1.3)
    # clamped into the unit square so the corners stay expressible as a
    # normalized center/extent box
    return PixelBox(
        max(0.0, cx - w / 2),
        max(0.0, cy - h / 2),
        min(1.0, cx + w / 2),
        min(1.0, cy + h / 2),
    )


def separated_instance(rng: np.random.Generator, max_gt_iou: float = 0.3):
    """Random matching instance whose gt boxes overlap pairwise <= 0.3.

    Individual larvae in the bucket images are near-disjoint, so the
    greedy matcher is only exercised (and only claimed optimal) in that
    regime. Returns (gt corner boxes, [(confidence, pred corners), ...])
    with at most 4 of each.
    """
    n_gt = int(rng.integers(0, 5))
    gts: list[PixelBox] = []
    tries = 0
    while len(gts) < n_gt and tries < 100:
        tries += 1
        b = rand_corners(rng)
        if all(iou(b, g) <= max_gt_iou for g in gts):
            gts.append(b)
    preds: list[tuple[float, PixelBox]] = []
    for g in gts:
        if rng.random() < 0.7 and len(preds) < 4:
            preds.append((float(rng.random()), jitter_corners(g, rng)))
    while len(preds) < 4 and rng.random() < 0.5:
        preds.append((float(rng.random()), rand_corners(rng)))
    return gts, preds


def brute_force_tp(gts, preds, thr: float = 0.5) -> int:
    """Maximum one-to-one TP count by exhaustive assignment (<= 4x4)."""
    ok = [[iou(p, g) >= thr for g in gts] for _, p in preds]
    best = 0

    def rec(i: int, used: int, count: int):
        nonlocal best
        best = max(best, count)
        if i == len(preds):
            return
        rec(i + 1, used, count)
        for j in range(len(gts)):
            if not used & (1 << j) and ok[i][j]:
                rec(i + 1, used | (1 << j), count + 1)

    rec(0, 0, 0)
    return best


def reference_greedy_flags(ground_truth, predictions, iou_threshold=0.5, confidence_threshold=0.0):
    """The greedy matcher as a plain pairwise loop over :func:`iou`.

    Returns ``scored_flags`` as ``match_detections`` does: (confidence,
    is_tp) per prediction at or above the confidence threshold, in input
    order. ``Box2D`` refuses boxes without extent, so :func:`iou` never
    raises here.
    """
    kept = [p for p in predictions if p.confidence >= confidence_threshold]
    order = sorted(range(len(kept)), key=lambda j: (-kept[j].confidence, j))
    gt_corners = [to_absolute(g.box, 1, 1) for g in ground_truth]
    claimed = [False] * len(ground_truth)
    flags = [False] * len(kept)
    for j in order:
        pc = to_absolute(kept[j].box, 1, 1)
        best_iou, best_k = 0.0, -1
        for k, gc in enumerate(gt_corners):
            if claimed[k]:
                continue
            v = iou(pc, gc)
            if v > best_iou:  # strict: ties stay with the lowest gt index
                best_iou, best_k = v, k
        if best_k >= 0 and best_iou >= iou_threshold:
            claimed[best_k] = True
            flags[j] = True
    return tuple((p.confidence, f) for p, f in zip(kept, flags))


def _dyadic_box(rng: np.random.Generator) -> Box2D:
    # Coordinates on a 1/16 grid are exact in binary, so boxes built from
    # them overlap their neighbours at exactly equal IoU values.
    w = int(rng.integers(2, 7)) / 16
    h = int(rng.integers(2, 7)) / 16
    x1 = int(rng.integers(0, 17 - int(w * 16))) / 16
    y1 = int(rng.integers(0, 17 - int(h * 16))) / 16
    return Box2D(x1 + w / 2, y1 + h / 2, w, h)


def crowded_instance(rng: np.random.Generator):
    """Random crowded matching instance with no cap on gt overlap.

    Ground truth mixes free-form boxes, boxes on a 1/16 grid (exact IoU
    ties), exact duplicates and jittered near-duplicates of earlier gt
    boxes. Predictions are exact and jittered copies of gt boxes, grid
    boxes and strays; confidences are drawn from three values half the
    time, so equal-confidence ties are common. Returns ([LabeledBox],
    [ScoredBox]) with up to 12 gt boxes and 16 predictions.
    """
    gts: list[Box2D] = []
    for _ in range(int(rng.integers(1, 13))):
        roll = rng.random()
        if gts and roll < 0.1:
            gts.append(gts[int(rng.integers(len(gts)))])
        elif gts and roll < 0.3:
            gts.append(corners_to_box(jitter_corners(to_absolute(gts[-1], 1, 1), rng)))
        elif roll < 0.6:
            gts.append(_dyadic_box(rng))
        else:
            gts.append(corners_to_box(rand_corners(rng)))
    preds: list[Box2D] = []
    for _ in range(int(rng.integers(0, 17))):
        roll = rng.random()
        source = gts[int(rng.integers(len(gts)))]
        if roll < 0.25:
            preds.append(source)
        elif roll < 0.6:
            preds.append(corners_to_box(jitter_corners(to_absolute(source, 1, 1), rng)))
        elif roll < 0.85:
            preds.append(_dyadic_box(rng))
        else:
            preds.append(corners_to_box(rand_corners(rng)))
    scores = [
        float(rng.choice([0.3, 0.5, 0.9])) if rng.random() < 0.5 else float(rng.random())
        for _ in preds
    ]
    return (
        [LabeledBox(0, b) for b in gts],
        [ScoredBox(0, b, c) for b, c in zip(preds, scores)],
    )


def corners_to_box(c: PixelBox) -> Box2D:
    """Normalized center/extent box with the given unit-square corners."""
    return Box2D((c.x_min + c.x_max) / 2, (c.y_min + c.y_max) / 2,
                 c.x_max - c.x_min, c.y_max - c.y_min)


def rect_sum_ap(curve) -> float:
    """AP as a literal rectangle sum over distinct recall levels."""
    if not curve:
        return 0.0
    total, prev = 0.0, 0.0
    for r in sorted({p.recall for p in curve}):
        total += (r - prev) * max(p.precision for p in curve if p.recall >= r)
        prev = r
    return total


# --- dataset-on-disk builders --------------------------------------------


def overflowing_observations(last_age: str) -> str:
    """The bundled stage means as CSV text, with the last age raised to ``last_age``.

    At 1e200 the closed-form least-squares sums overflow, so neither the
    linear fit nor the log-space start of the exponential fit can be
    taken. At 2e153 the sums stay finite, but ``J.T @ J`` of the
    exponential fit's first damped step overflows.
    """
    return ("age_days,length_mm\n0,1.65\n1,1.81\n3,1.93\n4,2.78\n5,3.37\n6,3.46\n"
            f"8,4.55\n9,4.95\n12,5.75\n14,6.95\n{last_age},7.23\n")


def solid_image(width: int, height: int, channels: int = 1, value: int = 128) -> RasterImage:
    return RasterImage(width, height, channels, bytes([value]) * (width * height * channels))


def write_dataset(root: Path, images) -> Path:
    """Write label files plus a manifest under ``root``; returns the manifest path.

    ``images`` is a sequence of dicts with keys ``image_id``, optional
    ``gt`` / ``pred`` box lists, optional ``image`` (RasterImage), and
    optional ``width``/``height``/``density``/``day``.
    """
    rows = ["image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label"]
    for item in images:
        image_id = item["image_id"]
        gt_path = pred_path = image_path = ""
        if "gt" in item:
            gt_path = f"{image_id}_gt.txt"
            (root / gt_path).write_text(serialize_label_file(item["gt"]))
        if "pred" in item:
            pred_path = f"{image_id}_pred.txt"
            (root / pred_path).write_text(serialize_label_file(item["pred"]))
        if "image" in item:
            image_path = f"{image_id}.ppm"
            (root / image_path).write_bytes(encode_raster(item["image"]))
        rows.append(
            f"{image_id},{image_path},{gt_path},{pred_path},"
            f"{item.get('width', 2100)},{item.get('height', 2100)},"
            f"{item.get('density', '')},{item.get('day', '')}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest
