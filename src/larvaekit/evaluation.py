"""IoU matching of detections to ground truth and the derived metrics.

The matcher is greedy: predictions are visited in descending confidence
and each grabs its best-overlapping unclaimed ground-truth box. It runs
once per image, with the confidence threshold at 0: the flags of that
sweep feed the PR curve, and the thresholded counts are the same flags
restricted to the predictions at or above the threshold. IoU is computed
in numpy, a block of predictions against every ground-truth box at a
time. Counts feed precision/recall/F1 and two accuracy flavors that are
deliberately kept apart:

- ``confusion_accuracy``: (TP + TN) / (TP + TN + FP + FN), with TN fixed
  at 0 since "everything that is not an object" is uncountable.
- ``counting_accuracy``: TP / num_gt, the definition our result tables
  use; it coincides with recall exactly.

Average precision integrates the monotone envelope of the PR curve over
recall (all-point interpolation); 101-point sampling is available for
comparison with other toolkits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import accumulate, chain
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import AGGREGATIONS, AP_METHODS, GROUP_FIELDS
from .annotations import (
    LabeledBox,
    ManifestEntry,
    ScoredBox,
    _columns,
    _corners,
    _csv_field,
    load_image_annotation,
)
from .errors import LarvaekitError, OutOfRange

# Predictions per IoU block; a block holds this many rows against every
# ground-truth box, which bounds the matcher's memory on crowded images.
MATCH_BLOCK_ROWS = 64


@dataclass(frozen=True)
class MatchConfig:
    """Thresholds and aggregation policy for an evaluation run."""

    iou_threshold: float = 0.5
    confidence_threshold: float = 0.4
    aggregation: str = "global"
    ap_method: str = "envelope"

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise OutOfRange(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise OutOfRange(
                f"confidence_threshold must lie in [0, 1], got {self.confidence_threshold}"
            )
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        if self.ap_method not in AP_METHODS:
            raise ValueError(f"ap_method must be one of {AP_METHODS}")


@dataclass(frozen=True)
class ConfusionCounts:
    """Detection outcome counts; true negatives are identically zero."""

    tp: int
    fp: int
    fn: int
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0 or self.tn != 0:
            raise LarvaekitError(f"bad counts tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn}")


@dataclass(frozen=True)
class MetricSet:
    """Scalar detection and counting metrics derived from confusion counts."""

    precision: float
    recall: float
    f1: float
    confusion_accuracy: float
    counting_accuracy: float


@dataclass(frozen=True)
class PRPoint:
    """Precision and recall at one confidence cut-off of the PR curve."""

    confidence: float
    precision: float
    recall: float


@dataclass(frozen=True)
class MatchResult:
    """Confusion counts and scored predictions from matching one image."""

    counts: ConfusionCounts
    # (confidence, is_tp) per retained prediction, in input order.
    scored_flags: tuple[tuple[float, bool], ...]


def _iou_block(pred: np.ndarray, gt: np.ndarray, gt_area: np.ndarray) -> np.ndarray:
    """IoU of each ``pred`` row against every ``gt`` row of ``x1, y1, x2, y2`` corners:
    ``inter / (pred_area + gt_area - inter)``, and 0 where ``inter`` is not positive."""
    # In-place steps keep a block to a few (rows, num_gt) buffers.
    ix = np.minimum(pred[:, 2:3], gt[:, 2])
    ix -= np.maximum(pred[:, 0:1], gt[:, 0])
    iy = np.minimum(pred[:, 3:4], gt[:, 3])
    iy -= np.maximum(pred[:, 1:2], gt[:, 1])
    inter = np.multiply(ix, iy, out=np.zeros_like(ix), where=(ix > 0.0) & (iy > 0.0))
    pred_area = (pred[:, 2] - pred[:, 0]) * (pred[:, 3] - pred[:, 1])
    union = np.add(pred_area[:, None], gt_area, out=iy)
    union -= inter
    # Pairs without a positive intersection, an underflowed one included, keep IoU 0.
    return np.divide(inter, union, out=inter, where=inter > 0.0)


def _greedy_flags(
    gt: np.ndarray,
    pred: np.ndarray,
    confidence: np.ndarray,
    iou_threshold: float,
) -> list[bool]:
    """TP flag per prediction, in input order, under the greedy rule.

    ``gt`` and ``pred`` are (n, 4) unit-square corners (``_corners``);
    normalized coords are a uniform per-axis scaling, so IoU computed in
    the unit square equals IoU in pixel space. A gt box below the
    threshold can never be taken, so each prediction's candidates are the
    boxes at or above it, ordered by (-IoU, index); it takes the first
    unclaimed one, which is its best unclaimed box.
    """
    flags = [False] * len(pred)
    if not len(gt) or not len(pred):
        return flags
    visit = np.argsort(-confidence, kind="stable")
    gt_area = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    claimed = [False] * len(gt)
    for start in range(0, len(visit), MATCH_BLOCK_ROWS):
        rows = visit[start:start + MATCH_BLOCK_ROWS]
        block = _iou_block(pred[rows], gt, gt_area)
        r, k = np.nonzero(block >= iou_threshold)
        ranked = np.lexsort((k, -block[r, k], r))
        taken = -1
        for row, col in zip(r[ranked].tolist(), k[ranked].tolist()):
            if row != taken and not claimed[col]:
                claimed[col] = True
                flags[rows[row]] = True
                taken = row
    return flags


def _counts(flags: Sequence[bool], num_gt: int) -> ConfusionCounts:
    tp = sum(flags)
    return ConfusionCounts(tp=tp, fp=len(flags) - tp, fn=num_gt - tp)


def match_detections(
    ground_truth: Sequence[LabeledBox],
    predictions: Sequence[ScoredBox],
    config: MatchConfig = MatchConfig(),
) -> MatchResult:
    """Greedily assign predictions to ground truth at the IoU threshold.

    Predictions below ``config.confidence_threshold`` are discarded first.
    The rest are processed in descending confidence (ties keep input
    order); each becomes a TP if its best-IoU still-unclaimed gt box
    reaches the threshold, consuming that box, and an FP otherwise.
    Unclaimed gt boxes are FNs. Matching is class-blind: the datasets
    here are single-class.

    IoU is computed in numpy for blocks of ``MATCH_BLOCK_ROWS``
    predictions, in visiting order, against every gt box (``_iou_block``).
    Each value takes the same float64 operations on one pair's corners
    whatever block the pair falls in, so every match is the one a
    pairwise loop over the boxes gives.
    """
    gt, pred = _columns(ground_truth), _columns(predictions)
    kept = pred.confidence >= config.confidence_threshold
    confidence = pred.confidence[kept]
    flags = _greedy_flags(_corners(gt.boxes), _corners(pred.boxes[kept]), confidence,
                          config.iou_threshold)
    return MatchResult(_counts(flags, len(gt)), tuple(zip(confidence.tolist(), flags)))


def confusion_metrics(counts: ConfusionCounts, num_gt: int) -> MetricSet:
    """Derive the ratio metrics from confusion counts.

    ``num_gt`` must equal TP + FN. Ratios whose denominator is zero are
    reported as 0 by convention.
    """
    if num_gt != counts.tp + counts.fn:
        raise LarvaekitError(f"num_gt={num_gt} but tp+fn={counts.tp + counts.fn}")
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    denom = tp + tn + fp + fn
    confusion_accuracy = (tp + tn) / denom if denom else 0.0
    counting_accuracy = tp / num_gt if num_gt else 0.0
    return MetricSet(precision, recall, f1, confusion_accuracy, counting_accuracy)


def pr_curve(scored_flags: Iterable[tuple[float, bool]], total_gt: int) -> list[PRPoint]:
    """Precision/recall after each prediction, in descending confidence.

    ``scored_flags`` should come from matching with confidence threshold 0
    so the curve sweeps every score the detector emitted.
    """
    if total_gt <= 0:
        raise LarvaekitError("a PR curve needs at least one ground-truth box")
    ordered = sorted(scored_flags, key=lambda t: -t[0])
    points = []
    tp = 0
    for seen, (confidence, is_tp) in enumerate(ordered, 1):
        if is_tp:
            tp += 1
        points.append(PRPoint(confidence, tp / seen, tp / total_gt))
    return points


def average_precision(curve: Sequence[PRPoint], method: str = "envelope") -> float:
    """Integrate a PR curve into a single AP value.

    ``envelope`` replaces precision by its running maximum from the right
    and integrates exactly over recall (all-point interpolation).
    ``101point`` instead averages the enveloped precision sampled at
    recalls 0.00, 0.01, ..., 1.00.
    """
    if method not in AP_METHODS:
        raise ValueError(f"method must be one of {AP_METHODS}")
    if not curve:
        return 0.0
    recalls = [p.recall for p in curve]
    envelope = list(accumulate((p.precision for p in reversed(curve)), max))
    envelope.reverse()
    if method == "101point":
        # Recalls never decrease, so the first point at recall >= r is a bisection.
        picks = (bisect_left(recalls, i / 100) for i in range(101))
        samples = (envelope[k] if k < len(curve) else 0.0 for k in picks)
        return reduce(add, samples, 0.0) / 101
    # Added left to right: builtin sum() compensates from Python 3.12 on.
    steps = zip(chain([0.0], recalls), recalls, envelope)
    return reduce(add, ((r - previous) * e for previous, r, e in steps))


@dataclass(frozen=True)
class EvalReport:
    """Metrics bundle for one image, one group, or a whole dataset.

    ``ap`` always integrates the stored ``curve``; ``mean_image_ap`` is the
    mean of per-image APs over the images that have ground truth (0.0 when
    none has) and is only populated on reports built from several images.
    """

    num_images: int
    num_gt: int
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    confusion_accuracy: float
    counting_accuracy: float
    ap: float
    curve: tuple[PRPoint, ...]
    mean_image_ap: float | None = None

    @staticmethod
    def build(
        counts: ConfusionCounts,
        num_gt: int,
        num_images: int,
        scored_flags: Iterable[tuple[float, bool]],
        ap_method: str = "envelope",
        mean_image_ap: float | None = None,
    ) -> "EvalReport":
        metrics = confusion_metrics(counts, num_gt)
        curve: tuple[PRPoint, ...] = ()
        ap = 0.0
        if num_gt > 0:
            curve = tuple(pr_curve(scored_flags, num_gt))
            ap = average_precision(curve, ap_method)
        return EvalReport(
            num_images=num_images,
            num_gt=num_gt,
            counts=counts,
            precision=metrics.precision,
            recall=metrics.recall,
            f1=metrics.f1,
            confusion_accuracy=metrics.confusion_accuracy,
            counting_accuracy=metrics.counting_accuracy,
            ap=ap,
            curve=curve,
            mean_image_ap=mean_image_ap,
        )


@dataclass(frozen=True)
class DatasetEvaluation:
    """Pooled, per-image and per-group reports of one evaluation run."""

    overall: EvalReport
    per_image: Mapping[str, EvalReport]
    config: MatchConfig
    group_by: str | None = None
    groups: Mapping[str, EvalReport] = field(default_factory=dict)

    def summary_ap(self, report: EvalReport | None = None) -> float:
        """The AP value the configured aggregation reports."""
        report = report or self.overall
        if self.config.aggregation == "per_image_mean" and report.mean_image_ap is not None:
            return report.mean_image_ap
        return report.ap


def _image_mean(reports: Iterable[EvalReport], name: str) -> float:
    """Mean of ``name`` over the per-image reports with ground truth, 0.0 if none has any."""
    values = [getattr(report, name) for report in reports if report.num_gt > 0]
    # Added left to right: builtin sum() compensates from Python 3.12 on.
    return reduce(add, values, 0.0) / len(values) if values else 0.0


def _report(sweeps, config: MatchConfig, mean_image_ap: float | None = None) -> EvalReport:
    """One report over per-image ``(num_gt, sweep flags)`` pairs.

    Flags are pooled in the order given, which orders equal confidences
    on the curve; the counts keep those at or above the threshold.
    """
    num_gt = sum(n for n, _ in sweeps)
    flags = [flag for _, image_flags in sweeps for flag in image_flags]
    counts = _counts([f for c, f in flags if c >= config.confidence_threshold], num_gt)
    return EvalReport.build(counts, num_gt, len(sweeps), flags, config.ap_method, mean_image_ap)


def evaluate_dataset(
    manifest: Sequence[ManifestEntry],
    config: MatchConfig = MatchConfig(),
    root: Path | str = ".",
    group_by: str | None = None,
) -> DatasetEvaluation:
    """Evaluate every manifest entry and pool the results.

    Label paths resolve against ``root``. ``group_by`` may be
    ``"day_label"`` or ``"density_group"`` to add per-group pooled
    reports; entries missing the field, or whose field reads
    ``"unlabeled"``, fall into one ``"unlabeled"`` group. Pooled reports
    take their images in manifest order.
    """
    if group_by is not None and group_by not in GROUP_FIELDS:
        raise ValueError(f"group_by must be one of {GROUP_FIELDS} or None")
    # One match at threshold 0 gives the sweep the curve needs. The kept
    # predictions come first in its visiting order, in the same relative
    # order and against the same claimed boxes as in a thresholded match,
    # so their flags are exactly that match's.
    sweep_config = replace(config, confidence_threshold=0.0)
    images = []
    for entry in manifest:
        annotation = load_image_annotation(entry, root)
        match = match_detections(annotation.ground_truth, annotation.predictions, sweep_config)
        sweep = (len(annotation.ground_truth), match.scored_flags)
        images.append((entry, sweep, _report([sweep], config)))

    def pooled(members) -> EvalReport:
        mean_ap = _image_mean([report for _, _, report in members], "ap")
        return _report([sweep for _, sweep, _ in members], config, mean_ap)

    groups: dict[str, EvalReport] = {}
    if group_by is not None:
        buckets: dict[object, list] = {}
        for image in images:
            value = getattr(image[0], group_by)
            # A day label that reads "unlabeled" joins the images without one.
            buckets.setdefault(None if value == "unlabeled" else value, []).append(image)
        for value in sorted(buckets, key=lambda v: (v is None, "" if v is None else v)):
            groups["unlabeled" if value is None else str(value)] = pooled(buckets[value])
    return DatasetEvaluation(
        overall=pooled(images),
        per_image={entry.image_id: report for entry, _, report in images},
        config=config,
        group_by=group_by,
        groups=groups,
    )


def render_eval_csv(evaluation: DatasetEvaluation) -> str:
    """One CSV row per group ('all' when ungrouped); ratios to 4 decimals."""
    header = (
        "group,num_images,num_gt,tp,fp,fn,precision,recall,f1,"
        "confusion_accuracy,counting_accuracy,ap\n"
    )
    rows = evaluation.groups if evaluation.groups else {"all": evaluation.overall}
    out = [header]
    for label, report in rows.items():
        c = report.counts
        out.append(
            f"{_csv_field(label)},{report.num_images},{report.num_gt},{c.tp},{c.fp},{c.fn},"
            f"{report.precision:.4f},{report.recall:.4f},{report.f1:.4f},"
            f"{report.confusion_accuracy:.4f},{report.counting_accuracy:.4f},"
            f"{evaluation.summary_ap(report):.4f}\n"
        )
    return "".join(out)


def render_pr_curve_csv(curve: Sequence[PRPoint]) -> str:
    out = ["confidence,recall,precision\n"]
    for point in curve:
        out.append(f"{point.confidence:.6f},{point.recall:.6f},{point.precision:.6f}\n")
    return "".join(out)
