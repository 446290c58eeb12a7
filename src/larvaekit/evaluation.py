"""IoU matching of detections to ground truth and the derived metrics.

The matcher is greedy: predictions are visited in descending confidence
and each grabs its best-overlapping unclaimed ground-truth box. It runs
once per image, with the confidence threshold at 0: the flags of that
sweep feed the PR curve, and the thresholded counts are the same flags
restricted to the predictions at or above the threshold. IoU is computed
in plain Python, and only against the ground-truth boxes a sweep along x
finds within reach of each prediction. Counts feed precision/recall/F1
and two accuracy flavors that are deliberately kept apart:

- ``confusion_accuracy``: TP / (TP + FP + FN), because true negatives
  ("everything that is not an object") are not counted.
- ``counting_accuracy``: TP / num_gt, the definition our result tables
  use; it coincides with recall exactly.

Average precision integrates the monotone envelope of the PR curve over
recall (all-point interpolation); 101-point sampling is available for
comparison with other toolkits. ``pr_curve``, ``average_precision`` and
the per-image APs behind ``mean_image_ap`` share one curve arithmetic on
plain float columns.

A dataset evaluation keeps each image's ground-truth count, sweep flags
and AP, as the COCO evaluator's ``accumulate`` keeps each image's scores
and flags (Lin et al., 2014). The pooled reports, overall and per group,
are built from them, and the per-image reports all at once, the first
time they are read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import accumulate, chain, starmap
from operator import add, itemgetter, truediv
from pathlib import Path
from types import MappingProxyType

from . import AGGREGATIONS, AP_METHODS, GROUP_FIELDS
from .annotations import (
    LabeledBox,
    ManifestEntry,
    ScoredBox,
    _columns,
    _csv_field,
    _scored,
    load_image_annotation,
)
from .errors import LarvaekitError, OutOfRange

Corners = tuple[float, float, float, float]


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
    """Detection outcome counts; true negatives are not counted."""

    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise LarvaekitError(f"bad counts tp={self.tp} fp={self.fp} fn={self.fn}")


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


def _box_corners(cx: float, cy: float, w: float, h: float) -> Corners:
    """Unit-square corners ``x1, y1, x2, y2`` of a ``cx, cy, w, h`` box."""
    half_w, half_h = w / 2, h / 2
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def _greedy_flags(
    gt: Sequence[Corners],
    pred: Sequence[Corners],
    confidence: Sequence[float],
    iou_threshold: float,
) -> list[bool]:
    """TP flag per prediction, in input order, under the greedy rule.

    ``gt`` and ``pred`` are unit-square corners (``_box_corners``);
    normalized coords are a uniform per-axis scaling, so IoU computed in
    the unit square equals IoU in pixel space. Predictions are visited in
    descending confidence, ties in input order, and each takes the
    unclaimed gt box of highest IoU at or above the threshold, the lowest
    index on a tie.

    The unclaimed gt boxes are kept sorted by ``x1`` (the sort-and-sweep
    broad phase of collision detection). Only those whose ``x1`` lies in
    ``[px1 - widest, px2)``, ``widest`` being the widest gt box, can
    overlap a prediction: any other at most touches it, so its IoU is 0,
    which ``MatchConfig`` keeps below every threshold. Rounding cannot
    push an overlapping box below the window: if ``x2 > px1``, then
    ``px1`` lies at least one float step below ``x2``, and ``x2 - x1``
    rounds down by at most that step, so ``px1 - widest`` rounds to
    ``x1`` or below. Each IoU takes the same float operations in the
    same order as a pairwise loop, so every match is the one that loop
    gives.
    """
    flags = [False] * len(pred)
    if not gt or not pred:
        return flags
    widest = max(x2 - x1 for x1, _, x2, _ in gt)
    # (x1, y1, x2, y2, area, index) of the unclaimed boxes; a claimed box leaves both lists.
    unclaimed = sorted(((x1, y1, x2, y2, (x2 - x1) * (y2 - y1), k)
                        for k, (x1, y1, x2, y2) in enumerate(gt)), key=itemgetter(0))
    starts = [box[0] for box in unclaimed]
    for j in sorted(range(len(pred)), key=confidence.__getitem__, reverse=True):
        px1, py1, px2, py2 = pred[j]
        pred_area = (px2 - px1) * (py2 - py1)
        best, best_iou, best_k = -1, iou_threshold, len(gt)
        for at in range(bisect_left(starts, px1 - widest), bisect_left(starts, px2)):
            gx1, gy1, gx2, gy2, gt_area, k = unclaimed[at]
            # min and max as conditionals, which are faster than the builtins.
            iy = (py2 if py2 < gy2 else gy2) - (py1 if py1 > gy1 else gy1)
            if not iy > 0.0:
                continue
            ix = (px2 if px2 < gx2 else gx2) - (px1 if px1 > gx1 else gx1)
            if not ix > 0.0:
                continue
            inter = ix * iy
            if not inter > 0.0:  # underflowed, and both areas may have too
                continue
            iou = inter / (pred_area + gt_area - inter)
            if iou > best_iou or (iou == best_iou and k < best_k):
                best, best_iou, best_k = at, iou, k
        if best >= 0:
            del unclaimed[best], starts[best]
            flags[j] = True
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

    IoU is computed in plain Python, for each prediction only against the
    gt boxes whose x-extent can reach it (``_greedy_flags``). Each value
    takes the same float operations on one pair's corners as a pairwise
    loop over the boxes, so every match is the one that loop gives.
    """
    gt, pred = _columns(ground_truth), _scored(predictions)
    threshold = config.confidence_threshold
    kept = [(score, box) for score, box in zip(pred.confidence, pred.boxes) if score >= threshold]
    confidence = [score for score, _ in kept]
    flags = _greedy_flags(list(starmap(_box_corners, gt.boxes)),
                          [_box_corners(*box) for _, box in kept], confidence,
                          config.iou_threshold)
    return MatchResult(_counts(flags, len(gt)), tuple(zip(confidence, flags)))


def _curve_columns(scored_flags: Iterable[tuple[float, bool]],
                   total_gt: int) -> tuple[list[float], list[float], list[float]]:
    """Confidence, precision and recall after each prediction, in descending confidence."""
    ordered = sorted(scored_flags, key=lambda t: -t[0])
    # Running TP counts; bool() takes any truthy flag, numpy's included, as one.
    tps = list(accumulate(map(bool, map(itemgetter(1), ordered))))
    precisions = list(map(truediv, tps, range(1, len(tps) + 1)))
    recalls = [tp / total_gt for tp in tps]
    return list(map(itemgetter(0), ordered)), precisions, recalls


def _integrate(recalls: Sequence[float], precisions: Sequence[float], method: str) -> float:
    """AP of the curve through these points (see :func:`average_precision`)."""
    if not recalls:
        return 0.0
    envelope = list(accumulate(reversed(precisions), max))
    envelope.reverse()
    if method == "101point":
        # Recalls never decrease, so the first point at recall >= r is a bisection.
        picks = (bisect_left(recalls, i / 100) for i in range(101))
        samples = (envelope[k] if k < len(recalls) else 0.0 for k in picks)
        return reduce(add, samples, 0.0) / 101
    # Added left to right: builtin sum() compensates from Python 3.12 on.
    steps = zip(chain([0.0], recalls), recalls, envelope)
    return reduce(add, ((r - previous) * e for previous, r, e in steps))


def _point(confidence: float, precision: float, recall: float) -> PRPoint:
    """A :class:`PRPoint`, set up without the frozen dataclass's ``__init__``."""
    point = object.__new__(PRPoint)
    point.__dict__.update(confidence=confidence, precision=precision, recall=recall)
    return point


def pr_curve(scored_flags: Iterable[tuple[float, bool]], total_gt: int) -> list[PRPoint]:
    """Precision/recall after each prediction, in descending confidence.

    ``scored_flags`` should come from matching with confidence threshold 0
    so the curve sweeps every score the detector emitted.
    """
    if total_gt <= 0:
        raise LarvaekitError("a PR curve needs at least one ground-truth box")
    return list(map(_point, *_curve_columns(scored_flags, total_gt)))


def average_precision(curve: Sequence[PRPoint], method: str = "envelope") -> float:
    """Integrate a PR curve into a single AP value.

    ``envelope`` replaces precision by its running maximum from the right
    and integrates exactly over recall (all-point interpolation).
    ``101point`` instead averages the enveloped precision sampled at
    recalls 0.00, 0.01, ..., 1.00.
    """
    if method not in AP_METHODS:
        raise ValueError(f"method must be one of {AP_METHODS}")
    return _integrate([p.recall for p in curve], [p.precision for p in curve], method)


@dataclass(frozen=True)
class EvalReport:
    """Metrics bundle for one image, one group, or a whole dataset.

    ``ap`` always integrates the stored ``curve``. ``mean_image_ap`` is the
    mean of per-image APs over the images that have ground truth (0.0 when
    none has). It is set on the pooled reports of ``evaluate_dataset``, the
    overall one and each group's, whatever their number of images, and is
    None on a per-image report.
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
        num_images: int,
        scored_flags: Iterable[tuple[float, bool]],
        ap_method: str = "envelope",
        mean_image_ap: float | None = None,
    ) -> "EvalReport":
        """The report of ``counts``, with ``num_gt`` = TP + FN; a ratio over 0 reads 0."""
        tp, fp, fn = counts.tp, counts.fp, counts.fn
        num_gt = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / num_gt if num_gt else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        curve: tuple[PRPoint, ...] = ()
        ap = 0.0
        if num_gt > 0:
            curve = tuple(pr_curve(scored_flags, num_gt))
            ap = average_precision(curve, ap_method)
        return EvalReport(
            num_images=num_images,
            num_gt=num_gt,
            counts=counts,
            precision=precision,
            recall=recall,
            f1=f1,
            confusion_accuracy=tp / (tp + fp + fn) if tp + fp + fn else 0.0,
            counting_accuracy=recall,
            ap=ap,
            curve=curve,
            mean_image_ap=mean_image_ap,
        )


@dataclass(frozen=True)
class DatasetEvaluation:
    """Pooled, per-image and per-group reports of one evaluation run.

    ``sweeps`` maps each image id, in manifest order, to its
    ``(num_gt, sweep flags)`` pair, from which ``per_image`` builds every
    image's report the first time it is read. Equality compares the
    sweeps, so it builds no per-image report.
    """

    overall: EvalReport
    sweeps: Mapping[str, tuple[int, tuple[tuple[float, bool], ...]]]
    config: MatchConfig
    group_by: str | None = None
    groups: Mapping[str, EvalReport] = field(default_factory=dict)

    @cached_property
    def per_image(self) -> Mapping[str, EvalReport]:
        """Read-only reports of every image, in manifest order."""
        return MappingProxyType({image_id: _report([sweep], self.config)
                                 for image_id, sweep in self.sweeps.items()})

    def summary_ap(self, report: EvalReport | None = None) -> float:
        """The AP value the configured aggregation reports."""
        report = report or self.overall
        if self.config.aggregation == "per_image_mean" and report.mean_image_ap is not None:
            return report.mean_image_ap
        return report.ap


def _mean(values: Sequence[float]) -> float:
    """Mean of ``values`` added left to right, 0.0 for none.

    Builtin sum() compensates from Python 3.12 on, so it is not used.
    """
    return reduce(add, values, 0.0) / len(values) if values else 0.0


def _image_mean(reports: Iterable[EvalReport], name: str) -> float:
    """Mean of ``name`` over the per-image reports with ground truth, 0.0 if none has any."""
    return _mean([getattr(report, name) for report in reports if report.num_gt > 0])


def _report(sweeps, config: MatchConfig, mean_image_ap: float | None = None) -> EvalReport:
    """One report over per-image ``(num_gt, sweep flags)`` pairs.

    Flags are pooled in the order given, which orders equal confidences
    on the curve; the counts keep those at or above the threshold.
    """
    num_gt = sum(n for n, _ in sweeps)
    flags = [flag for _, image_flags in sweeps for flag in image_flags]
    counts = _counts([f for c, f in flags if c >= config.confidence_threshold], num_gt)
    return EvalReport.build(counts, len(sweeps), flags, config.ap_method, mean_image_ap)


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
    take their images in manifest order. ``per_image`` builds every
    image's report when it is first read.
    """
    if group_by is not None and group_by not in GROUP_FIELDS:
        raise ValueError(f"group_by must be one of {GROUP_FIELDS} or None")
    # One match at threshold 0 gives the sweep the curve needs. The kept
    # predictions come first in its visiting order, in the same relative
    # order and against the same claimed boxes as in a thresholded match,
    # so their flags are exactly that match's.
    sweep_config = replace(config, confidence_threshold=0.0)
    # (entry, (num_gt, sweep flags), AP of the image's own curve or None without gt)
    images = []
    for entry in manifest:
        annotation = load_image_annotation(entry, root)
        match = match_detections(annotation.ground_truth, annotation.predictions, sweep_config)
        num_gt = len(annotation.ground_truth)
        ap = None
        if num_gt > 0:
            # The float operations of average_precision(pr_curve(...)), without the points.
            _, precisions, recalls = _curve_columns(match.scored_flags, num_gt)
            ap = _integrate(recalls, precisions, config.ap_method)
        images.append((entry, (num_gt, match.scored_flags), ap))

    def pooled(members) -> EvalReport:
        mean_ap = _mean([ap for _, _, ap in members if ap is not None])
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
        sweeps={entry.image_id: sweep for entry, sweep, _ in images},
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
