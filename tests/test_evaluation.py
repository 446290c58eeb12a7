"""IoU matching, confusion metrics, PR curves, AP, and dataset pooling."""

import csv
import io
import random
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from larvaekit import AP_METHODS, GROUP_FIELDS
from larvaekit.annotations import (
    MANIFEST_COLUMNS,
    Box2D,
    ImageAnnotation,
    LabeledBox,
    ScoredBox,
    load_image_annotation,
    load_manifest,
    parse_label_file,
)
from larvaekit.errors import (
    AnnotationLoadError,
    DegenerateBox,
    LarvaekitError,
    OutOfRange,
)
from larvaekit.counting import CountRecord, count_image, render_counts_csv
from larvaekit.evaluation import (
    ConfusionCounts,
    EvalReport,
    MatchConfig,
    PRPoint,
    average_precision,
    evaluate_dataset,
    match_detections,
    pr_curve,
    render_eval_csv,
    render_pr_curve_csv,
)

from conftest import (
    brute_force_tp,
    corners_to_box,
    crowded_instance,
    grid_boxes,
    jitter_corners,
    rand_corners,
    rect_sum_ap,
    reference_greedy_flags,
    separated_instance,
    write_dataset,
)
from oracles import PixelBox, iou, to_absolute

SWEEP = MatchConfig(confidence_threshold=0.0)


class TestIoU:
    def test_identical_boxes(self):
        b = PixelBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(PixelBox(0, 0, 1, 1), PixelBox(2, 2, 3, 3)) == 0.0

    def test_hand_example(self):
        got = iou(PixelBox(0, 0, 2, 2), PixelBox(1, 0, 3, 2))
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetry_range_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a, b = rand_corners(rng), rand_corners(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert iou(a, a) == 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(DegenerateBox):
            iou(PixelBox(0, 0, 0, 1), PixelBox(0, 0, 1, 1))

    def test_underflowing_intersection_scores_zero(self):
        # Box2D refuses such a box; iou() takes any PixelBox, so it must cope.
        b = PixelBox(0, 0, 1e-170, 1e-170)
        assert iou(b, b) == 0.0
        assert iou(b, PixelBox(0, 0, 1, 1)) == 0.0


class TestMatchConfig:
    def test_defaults(self):
        c = MatchConfig()
        assert (c.iou_threshold, c.confidence_threshold) == (0.5, 0.4)
        assert (c.aggregation, c.ap_method) == ("global", "envelope")

    @pytest.mark.parametrize("thr", [0.0, 1.0, -0.2, 1.7])
    def test_iou_threshold_open_interval(self, thr):
        with pytest.raises(OutOfRange):
            MatchConfig(iou_threshold=thr)

    def test_confidence_threshold_closed_interval(self):
        assert MatchConfig(confidence_threshold=0.0).confidence_threshold == 0.0
        assert MatchConfig(confidence_threshold=1.0).confidence_threshold == 1.0
        with pytest.raises(OutOfRange):
            MatchConfig(confidence_threshold=1.1)

    def test_bad_aggregation(self):
        with pytest.raises(ValueError):
            MatchConfig(aggregation="median")

    def test_bad_ap_method(self):
        with pytest.raises(ValueError, match="^ap_method must be one of"):
            MatchConfig(ap_method="11point")


class TestMatchDetections:
    def test_duplicate_predictions_split_tp_fp(self):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2))]
        preds = [
            ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.9),
            ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.8),
        ]
        result = match_detections(gt, preds)
        assert (result.counts.tp, result.counts.fp, result.counts.fn) == (1, 1, 0)
        assert result.scored_flags == ((0.9, True), (0.8, False))

    def test_underflowing_intersection_and_areas_do_not_match(self):
        # Box2D accepts it (w * h rounds up to the least subnormal), but the
        # corners round so that each area, like the intersection, is 2**-1075,
        # which rounds to 0: the IoU would be 0 / 0.
        box = Box2D(float.fromhex("0x1p-536"), float.fromhex("0x1p-538"),
                    float.fromhex("0x1.0000000000001p-537"), float.fromhex("0x1p-538"))
        counts = match_detections([LabeledBox(0, box)], [ScoredBox(0, box, 0.9)]).counts
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_no_predictions(self):
        gt = [LabeledBox(0, Box2D(0.2 * i + 0.1, 0.5, 0.05, 0.05)) for i in range(3)]
        counts = match_detections(gt, []).counts
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 3)
        # The empty tuple a manifest row without a prediction file gives.
        assert match_detections(gt, ()).counts == counts

    def test_low_confidence_predictions_filtered(self):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2))]
        preds = [ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.39)]
        counts = match_detections(gt, preds).counts
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1)
        assert match_detections(gt, preds, SWEEP).counts.tp == 1

    def test_iou_tie_consumes_lowest_gt_index(self):
        # the first prediction overlaps both gt boxes at exactly 1/3; the
        # greedy rule must take gt[0], leaving the second prediction
        # (a copy of gt[0]) unmatched
        gt = [
            LabeledBox(0, Box2D(0.25, 0.5, 0.5, 1.0)),
            LabeledBox(0, Box2D(0.75, 0.5, 0.5, 1.0)),
        ]
        preds = [
            ScoredBox(0, Box2D(0.5, 0.5, 0.5, 1.0), 0.9),
            ScoredBox(0, Box2D(0.25, 0.5, 0.5, 1.0), 0.8),
        ]
        counts = match_detections(gt, preds, MatchConfig(iou_threshold=0.3)).counts
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)

    def test_confidence_tie_keeps_input_order(self):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2))]
        preds = [
            ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.6),
            ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.6),
        ]
        result = match_detections(gt, preds)
        assert result.scored_flags == ((0.6, True), (0.6, False))

    def test_final_run_counts(self, confusion_fixture):
        gt, preds = confusion_fixture
        counts = match_detections(gt, preds).counts
        assert (counts.tp, counts.fp, counts.fn) == (1851, 70, 72)

    def test_count_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            gts, preds = separated_instance(rng)
            gt = [LabeledBox(0, corners_to_box(g)) for g in gts]
            scored = [ScoredBox(0, corners_to_box(p), c) for c, p in preds]
            counts = match_detections(gt, scored, SWEEP).counts
            assert counts.tp + counts.fn == len(gt)
            assert counts.tp + counts.fp == len(scored)
            assert counts.tp <= min(len(gt), len(scored))

    def test_raising_confidence_threshold_never_adds_matches(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            gts, preds = separated_instance(rng)
            gt = [LabeledBox(0, corners_to_box(g)) for g in gts]
            scored = [ScoredBox(0, corners_to_box(p), c) for c, p in preds]
            lo = match_detections(gt, scored, MatchConfig(confidence_threshold=0.2)).counts
            hi = match_detections(gt, scored, MatchConfig(confidence_threshold=0.6)).counts
            assert hi.tp <= lo.tp
            assert hi.fp <= lo.fp

    def test_greedy_matches_exhaustive_assignment(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            gts, preds = separated_instance(rng)
            gt = [LabeledBox(0, corners_to_box(g)) for g in gts]
            scored = [ScoredBox(0, corners_to_box(p), c) for c, p in preds]
            got = match_detections(gt, scored, SWEEP).counts.tp
            assert got == brute_force_tp(gts, preds)


# Each call hands over predictions of which at least one lacks a confidence.
GT_BOX = LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2))
MIXED = [ScoredBox(0, Box2D(0.5, 0.5, 0.2, 0.2), 0.9), GT_BOX]
WITHOUT_CONFIDENCE = {
    "match-ground-truth-as-predictions": lambda: match_detections([GT_BOX], [GT_BOX]),
    "match-parsed-ground-truth": lambda: match_detections(
        parse_label_file("0 0.5 0.5 0.2 0.2\n"), parse_label_file("0 0.5 0.5 0.2 0.2\n")),
    "match-mixed": lambda: match_detections([GT_BOX], MIXED),
    "count-mixed": lambda: count_image(ImageAnnotation("img", [GT_BOX], MIXED)),
}


@pytest.mark.parametrize("name", WITHOUT_CONFIDENCE)
def test_predictions_without_confidence_are_refused_in_plain_words(name):
    with pytest.raises(ValueError, match="^predictions need a confidence per box; "
                                         "these boxes have none$"):
        WITHOUT_CONFIDENCE[name]()


def counts_of(flags, num_gt):
    tp = sum(f for _, f in flags)
    return (tp, len(flags) - tp, num_gt - tp)


class TestCrowdedGreedyOracle:
    """The matcher against the pairwise greedy loop where boxes crowd."""

    INSTANCES = 1200

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(45)
        crowded = iou_ties = score_ties = 0
        for i in range(self.INSTANCES):
            gt, preds = crowded_instance(rng)
            iou_thr = (0.5, 0.3, 0.7)[i % 3]
            expected = reference_greedy_flags(gt, preds, iou_thr)
            result = match_detections(gt, preds, MatchConfig(iou_threshold=iou_thr,
                                                              confidence_threshold=0.0))
            assert result.scored_flags == expected
            c = result.counts
            assert (c.tp, c.fp, c.fn) == counts_of(expected, len(gt))
            gt_corners = [to_absolute(g.box, 1, 1) for g in gt]
            crowded += any(iou(a, b) > 0.5 for j, a in enumerate(gt_corners)
                           for b in gt_corners[:j])
            for p in preds:
                values = [iou(to_absolute(p.box, 1, 1), g) for g in gt_corners]
                above = [v for v in values if v >= iou_thr]
                iou_ties += len(above) != len(set(above))
            scores = [p.confidence for p in preds]
            score_ties += len(scores) != len(set(scores))
        # the generator reaches the regime the separated oracle cannot
        assert crowded >= self.INSTANCES // 4
        assert iou_ties >= self.INSTANCES // 4
        assert score_ties >= self.INSTANCES // 4

    @pytest.mark.parametrize("conf_thr", [0.2, 0.4, 0.5, 0.9])
    def test_thresholded_counts_come_from_the_sweep(self, conf_thr):
        rng = np.random.default_rng(46)
        for _ in range(300):
            gt, preds = crowded_instance(rng)
            sweep = match_detections(gt, preds, SWEEP).scored_flags
            kept = [(c, f) for c, f in sweep if c >= conf_thr]
            c = match_detections(gt, preds, MatchConfig(confidence_threshold=conf_thr)).counts
            assert (c.tp, c.fp, c.fn) == counts_of(kept, len(gt))


def gt_at(*corners):
    return LabeledBox(0, corners_to_box(PixelBox(*corners)))


def pred_at(confidence, *corners):
    return ScoredBox(0, corners_to_box(PixelBox(*corners)), confidence)


def mixed_width_instance(rng):
    """Gt boxes 0.5 and 0.005 wide, 100-fold apart; predictions are jittered
    copies, copies slid to overlap a box by a sliver at either x end, and strays."""
    gts = []
    for _ in range(int(rng.integers(1, 25))):
        w = 0.5 if rng.random() < 0.25 else 0.005
        h = float(rng.uniform(0.005, 0.5))
        cx, cy = float(rng.uniform(w / 2, 1 - w / 2)), float(rng.uniform(h / 2, 1 - h / 2))
        gts.append(PixelBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    preds = []
    for _ in range(int(rng.integers(0, 25))):
        source = gts[int(rng.integers(len(gts)))]
        roll = rng.random()
        if roll < 0.4:
            preds.append(jitter_corners(source, rng))
        elif roll < 0.7:
            # a box starting just inside the source's right end, or ending just inside its left
            w = float(rng.choice([0.005, 0.05, 0.5]))
            sliver = float(rng.choice([1e-9, 1e-6, 1e-3]))
            x1 = source.x_max - sliver if rng.random() < 0.5 else source.x_min + sliver - w
            x1 = min(max(x1, 0.0), 1.0 - w)
            preds.append(PixelBox(x1, source.y_min, x1 + w, source.y_max))
        else:
            preds.append(rand_corners(rng))
    scores = rng.choice([0.3, 0.6, 0.9], len(preds)) if rng.random() < 0.5 else rng.random(len(preds))
    return ([LabeledBox(0, corners_to_box(g)) for g in gts],
            [ScoredBox(0, corners_to_box(p), float(c)) for p, c in zip(preds, scores)])


class TestSweepWindow:
    """The matcher scores only the gt boxes whose x1 lies in [px1 - widest, px2)
    of each prediction; none outside that window can be a candidate."""

    def test_widest_box_just_inside_the_window_is_the_best_match(self):
        widest = gt_at(0.125, 0.25, 0.625, 0.75)  # 0.5 wide
        tiny = gt_at(0.7, 0.5, 0.7001, 0.5001)  # inside the predictions, lower IoU
        # Two equal predictions whose x1 lies 2**-20 inside the widest box's
        # right end, so that box's x1 lies 2**-20 inside px1 - widest.
        sliver = (0.625 - 2**-20, 0.25, 0.75, 0.75)
        preds = [pred_at(0.9, *sliver), pred_at(0.8, *sliver)]
        config = MatchConfig(iou_threshold=1e-12, confidence_threshold=0.0)
        for gt in ([widest, tiny], [tiny, widest]):
            assert iou(to_absolute(preds[0].box, 1, 1), to_absolute(widest.box, 1, 1)) > iou(
                to_absolute(preds[0].box, 1, 1), to_absolute(tiny.box, 1, 1)) > 0.0
            expected = reference_greedy_flags(gt, preds, 1e-12)
            assert expected == ((0.9, True), (0.8, True))
            assert match_detections(gt, preds, config).scored_flags == expected

    def test_box_starting_where_the_prediction_ends_only_touches(self):
        pred = pred_at(0.9, 0.25, 0.25, 0.5, 0.5)
        touching = [gt_at(0.5, 0.25, 0.75, 0.5), gt_at(0.0, 0.25, 0.25, 0.5),
                    gt_at(0.5, 0.25, 0.5078125, 0.5)]
        config = MatchConfig(iou_threshold=1e-12, confidence_threshold=0.0)
        assert match_detections(touching, [pred], config).scored_flags == ((0.9, False),)
        assert reference_greedy_flags(touching, [pred], 1e-12) == ((0.9, False),)
        # Moved one step left, the first box overlaps and is taken.
        overlapping = [gt_at(0.5 - 2**-20, 0.25, 0.75, 0.5), *touching[1:]]
        assert match_detections(overlapping, [pred], config).scored_flags == ((0.9, True),)

    @pytest.mark.parametrize("iou_thr", [1e-12, 0.1, 0.5])
    def test_widths_a_hundred_fold_apart(self, iou_thr):
        rng = np.random.default_rng(47)
        config = MatchConfig(iou_threshold=iou_thr, confidence_threshold=0.0)
        matched = 0
        for _ in range(300):
            gt, preds = mixed_width_instance(rng)
            expected = reference_greedy_flags(gt, preds, iou_thr)
            assert match_detections(gt, preds, config).scored_flags == expected
            matched += sum(flag for _, flag in expected)
        assert matched >= 300

    def test_near_zero_threshold_on_crowded_images(self):
        rng = np.random.default_rng(48)
        config = MatchConfig(iou_threshold=1e-12, confidence_threshold=0.0)
        for _ in range(400):
            gt, preds = crowded_instance(rng)
            expected = reference_greedy_flags(gt, preds, 1e-12)
            assert match_detections(gt, preds, config).scored_flags == expected


class TestConfusionMetrics:
    def test_final_run_metrics(self):
        m = EvalReport.build(ConfusionCounts(1851, 70, 72), 1, ())
        assert m.num_gt == 1923
        assert m.precision == pytest.approx(1851 / 1921, abs=1e-12)
        assert m.recall == pytest.approx(1851 / 1923, abs=1e-12)
        assert round(m.precision, 4) == 0.9636
        assert round(m.recall, 4) == 0.9626
        assert round(m.f1, 4) == 0.9631
        assert round(m.confusion_accuracy, 5) == 0.92875

    def test_empty_counts_all_zero(self):
        m = EvalReport.build(ConfusionCounts(0, 0, 0), 1, ())
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert (m.confusion_accuracy, m.counting_accuracy) == (0.0, 0.0)

    def test_counting_accuracy_from_sweep_row(self):
        # 640px / density 500 / epoch-16 row: 1754 of 1923 found
        m = EvalReport.build(ConfusionCounts(1754, 0, 169), 1, ())
        assert round(100 * m.counting_accuracy, 1) == 91.2

    def test_counting_accuracy_equals_recall(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            tp, fp, fn = (int(v) for v in rng.integers(0, 50, size=3))
            m = EvalReport.build(ConfusionCounts(tp, fp, fn), 1, ())
            assert m.counting_accuracy == m.recall
            assert m.num_gt == tp + fn

    def test_negative_counts_rejected(self):
        with pytest.raises(LarvaekitError, match="^bad counts tp=-1 fp=0 fn=0$"):
            ConfusionCounts(-1, 0, 0)


class TestPRCurve:
    def test_worked_example(self):
        points = pr_curve([(0.9, True), (0.8, False), (0.7, True)], total_gt=2)
        assert [(p.precision, p.recall) for p in points] == [
            (1.0, 0.5),
            (0.5, 0.5),
            (pytest.approx(2 / 3), 1.0),
        ]

    def test_all_true_positives_end_at_one_one(self):
        flags = [(0.9 - 0.1 * i, True) for i in range(4)]
        points = pr_curve(flags, total_gt=4)
        assert (points[-1].precision, points[-1].recall) == (1.0, 1.0)

    def test_single_false_positive(self):
        points = pr_curve([(0.5, False)], total_gt=1)
        assert [(p.precision, p.recall) for p in points] == [(0.0, 0.0)]

    def test_no_ground_truth(self):
        with pytest.raises(LarvaekitError,
                           match="^a PR curve needs at least one ground-truth box$"):
            pr_curve([(0.5, True)], total_gt=0)

    def test_sorted_by_confidence_with_monotone_recall(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            points = pr_curve(flags, total_gt=max(1, n // 2))
            confs = [p.confidence for p in points]
            recalls = [p.recall for p in points]
            assert confs == sorted(confs, reverse=True)
            assert recalls == sorted(recalls)


class TestAveragePrecision:
    def test_worked_example(self):
        curve = pr_curve([(0.9, True), (0.8, False), (0.7, True)], total_gt=2)
        assert average_precision(curve) == pytest.approx(0.5 * 1 + 0.5 * (2 / 3), abs=1e-12)

    def test_perfect_detector(self):
        curve = pr_curve([(0.9, True), (0.8, True)], total_gt=2)
        assert average_precision(curve) == 1.0

    def test_zero_true_positives(self):
        curve = pr_curve([(0.9, False), (0.8, False)], total_gt=3)
        assert average_precision(curve) == 0.0

    def test_empty_curve(self):
        assert average_precision([]) == 0.0

    def test_matches_rectangle_sum(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            total = int(rng.integers(1, 20))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            flags = cap_tp(flags, total)
            curve = pr_curve(flags, total)
            assert average_precision(curve) == pytest.approx(rect_sum_ap(curve), abs=1e-9)

    def test_invariant_under_monotone_confidence_rescale(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            total = int(rng.integers(1, 10))
            flags = cap_tp(
                [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)], total
            )
            base = average_precision(pr_curve(flags, total))
            for rescale in (lambda c: c * c, lambda c: 0.2 + 0.7 * c):
                again = average_precision(pr_curve([(rescale(c), f) for c, f in flags], total))
                assert again == base

    def test_range(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            total = int(rng.integers(1, 12))
            flags = cap_tp(
                [(float(rng.random()), bool(rng.random() < 0.4)) for _ in range(n)], total
            )
            assert 0.0 <= average_precision(pr_curve(flags, total)) <= 1.0

    def test_101point_matches_direct_sampling(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            total = int(rng.integers(1, 10))
            flags = cap_tp(
                [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)], total
            )
            curve = pr_curve(flags, total)
            env = [p.precision for p in curve]
            for i in range(len(env) - 2, -1, -1):
                env[i] = max(env[i], env[i + 1])
            expect = sum(
                max((pr for p, pr in zip(curve, env) if p.recall >= i / 100), default=0.0)
                for i in range(101)
            ) / 101
            assert average_precision(curve, "101point") == pytest.approx(expect, abs=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            average_precision([], "11point")


# The index loops the running-pass PR curve and AP replaced, kept as oracles.
def loop_pr_curve(scored_flags, total_gt):
    ordered = sorted(scored_flags, key=lambda t: -t[0])
    points = []
    tp = fp = 0
    for confidence, is_tp in ordered:
        if is_tp:
            tp += 1
        else:
            fp += 1
        points.append(PRPoint(confidence, tp / (tp + fp), tp / total_gt))
    return points


def loop_average_precision(curve, method):
    if not curve:
        return 0.0
    recalls = [p.recall for p in curve]
    envelope = [p.precision for p in curve]
    for i in range(len(envelope) - 2, -1, -1):
        envelope[i] = max(envelope[i], envelope[i + 1])
    if method == "101point":
        total = 0.0
        for i in range(101):
            r = i / 100
            best = 0.0
            for rec, pre in zip(recalls, envelope):
                if rec >= r:
                    best = pre
                    break
            total += best
        return total / 101
    ap = recalls[0] * envelope[0]
    for i in range(1, len(curve)):
        ap += (recalls[i] - recalls[i - 1]) * envelope[i]
    return ap


def bits(value):
    """A float's type and repr: equal only for the same bits (0.0 and -0.0 differ)."""
    return type(value), repr(value)


# Few distinct confidences make ties and repeats common.
TIED = [0.0, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0]


class TestRunningPassMatchesLoops:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 400), st.floats(0, 1), st.floats(0, 1), st.integers(0, 800),
           st.sampled_from([bool, np.bool_]), st.sampled_from(["envelope", "101point"]),
           st.integers(0, 2**32))
    def test_bit_identical_to_loops(self, n, tied, tp_rate, extra_gt, flag, method, seed):
        rng = random.Random(seed)
        sweep = [(rng.choice(TIED) if rng.random() < tied else rng.random(),
                  flag(rng.random() < tp_rate)) for _ in range(n)]
        total_gt = max(1, sum(1 for _, is_tp in sweep if is_tp)) + extra_gt
        curve = pr_curve(sweep, total_gt)
        expected = loop_pr_curve(sweep, total_gt)
        assert curve == expected
        assert [tuple(map(bits, (p.confidence, p.precision, p.recall))) for p in curve] == [
            tuple(map(bits, (p.confidence, p.precision, p.recall))) for p in expected]
        assert bits(average_precision(curve, method)) == bits(
            loop_average_precision(expected, method))


def cap_tp(flags, total_gt):
    """Clamp random flag sequences so cumulative TP never exceeds total_gt."""
    out, tp = [], 0
    for conf, is_tp in flags:
        if is_tp and tp == total_gt:
            is_tp = False
        tp += is_tp
        out.append((conf, is_tp))
    return out


class TestEvaluateDataset:
    def test_perfect_single_image(self, tmp_path):
        gt = [LabeledBox(0, Box2D(0.2 * i + 0.1, 0.5, 0.05, 0.05)) for i in range(4)]
        preds = [ScoredBox(0, g.box, 0.9) for g in gt]
        manifest_path = write_dataset(tmp_path, [{"image_id": "a", "gt": gt, "pred": preds}])
        ev = evaluate_dataset(load_manifest(manifest_path.read_text()), root=tmp_path)
        assert ev.overall.ap == 1.0
        assert ev.overall.precision == 1.0
        assert ev.overall.recall == 1.0
        assert ev.overall.counting_accuracy == 1.0
        assert (ev.overall.counts.tp, ev.overall.counts.fp, ev.overall.counts.fn) == (4, 0, 0)

    def test_any_sequence_of_entries_is_accepted(self, tmp_path, confusion_fixture):
        gt, preds = confusion_fixture
        manifest_path = write_dataset(
            tmp_path,
            [
                {"image_id": "full", "gt": gt, "pred": preds},
                {"image_id": "empty", "gt": [], "pred": []},
            ],
        )
        manifest = load_manifest(manifest_path.read_text())
        from_tuple = evaluate_dataset(manifest, root=tmp_path)
        from_list = evaluate_dataset(list(manifest), root=tmp_path)
        assert from_list.overall == from_tuple.overall
        assert from_list.per_image == from_tuple.per_image

    def test_only_the_given_entries_are_evaluated(self, tmp_path, confusion_fixture):
        gt, preds = confusion_fixture
        manifest_path = write_dataset(
            tmp_path,
            [
                {"image_id": "empty", "gt": [], "pred": []},
                {"image_id": "full", "gt": gt, "pred": preds},
            ],
        )
        ev = evaluate_dataset(load_manifest(manifest_path.read_text())[1:], root=tmp_path)
        assert list(ev.per_image) == ["full"]
        assert ev.overall.num_images == 1
        assert (ev.overall.counts.tp, ev.overall.counts.fp, ev.overall.counts.fn) == (1851, 70, 72)

    def test_empty_second_image_changes_nothing(self, tmp_path, confusion_fixture):
        gt, preds = confusion_fixture
        manifest_path = write_dataset(
            tmp_path,
            [
                {"image_id": "full", "gt": gt, "pred": preds},
                {"image_id": "empty", "gt": [], "pred": []},
            ],
        )
        ev = evaluate_dataset(load_manifest(manifest_path.read_text()), root=tmp_path)
        assert ev.overall.num_images == 2
        assert (ev.overall.counts.tp, ev.overall.counts.fp, ev.overall.counts.fn) == (1851, 70, 72)
        assert round(ev.overall.precision, 4) == 0.9636
        assert round(ev.overall.recall, 4) == 0.9626
        assert round(ev.overall.f1, 4) == 0.9631
        assert round(ev.overall.confusion_accuracy, 5) == 0.92875

    def test_per_day_grouping_shape(self, tmp_path):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.1))]
        preds = [ScoredBox(0, gt[0].box, 0.8)]
        images = [
            {"image_id": f"img{d:02d}", "gt": gt, "pred": preds, "day": f"day{d:02d}"}
            for d in range(1, 12)
        ]
        ev = evaluate_dataset(
            load_manifest(write_dataset(tmp_path, images).read_text()),
            root=tmp_path,
            group_by="day_label",
        )
        assert list(ev.groups) == [f"day{d:02d}" for d in range(1, 12)]
        assert all(r.num_images == 1 for r in ev.groups.values())
        assert all(r.ap == 1.0 for r in ev.groups.values())

    def test_missing_density_goes_to_unlabeled(self, tmp_path):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.1))]
        preds = [ScoredBox(0, gt[0].box, 0.8)]
        images = [
            {"image_id": "a", "gt": gt, "pred": preds, "density": 100},
            {"image_id": "b", "gt": gt, "pred": preds},
        ]
        ev = evaluate_dataset(
            load_manifest(write_dataset(tmp_path, images).read_text()),
            root=tmp_path,
            group_by="density_group",
        )
        assert set(ev.groups) == {"100", "unlabeled"}

    def test_per_image_mean_aggregation(self, tmp_path):
        # image a scores AP 1.0; image b (one FP above one TP) scores 0.5
        gt = [LabeledBox(0, Box2D(0.3, 0.3, 0.1, 0.1))]
        far = Box2D(0.8, 0.8, 0.05, 0.05)
        images = [
            {"image_id": "a", "gt": gt, "pred": [ScoredBox(0, gt[0].box, 0.9)]},
            {
                "image_id": "b",
                "gt": gt,
                "pred": [ScoredBox(0, far, 0.9), ScoredBox(0, gt[0].box, 0.8)],
            },
        ]
        manifest = load_manifest(write_dataset(tmp_path, images).read_text())
        ev = evaluate_dataset(
            manifest, MatchConfig(aggregation="per_image_mean"), root=tmp_path
        )
        assert ev.per_image["a"].ap == 1.0
        assert ev.per_image["b"].ap == pytest.approx(0.5)
        assert ev.overall.mean_image_ap == pytest.approx(0.75)
        assert ev.summary_ap() == pytest.approx(0.75)
        # ap itself still integrates the pooled curve
        assert ev.overall.ap == pytest.approx(
            average_precision(ev.overall.curve), abs=1e-12
        )

    def test_per_image_mean_leaves_out_images_without_gt(self, tmp_path):
        gt = [LabeledBox(0, Box2D(0.3, 0.3, 0.1, 0.1))]
        stray = [ScoredBox(0, Box2D(0.8, 0.8, 0.05, 0.05), 0.9)]
        images = [
            {"image_id": "a", "gt": gt, "pred": [ScoredBox(0, gt[0].box, 0.9)], "density": 100},
            {"image_id": "b", "pred": stray, "density": 100},
            {"image_id": "c", "pred": stray, "density": 300},
        ]
        ev = evaluate_dataset(
            load_manifest(write_dataset(tmp_path, images).read_text()),
            MatchConfig(aggregation="per_image_mean"),
            root=tmp_path,
            group_by="density_group",
        )
        assert ev.groups["100"].mean_image_ap == ev.overall.mean_image_ap == 1.0
        assert ev.groups["300"].mean_image_ap == 0.0
        assert [r.num_images for r in ev.groups.values()] == [2, 1]

    def test_one_match_per_image_gives_thresholded_counts(self, tmp_path):
        # 0.5 is one of the generator's tied confidences, so predictions sit
        # exactly at the threshold too
        rng = np.random.default_rng(48)
        images = []
        for i in range(40):
            gt, preds = crowded_instance(rng)
            images.append({"image_id": f"c{i}", "gt": gt, "pred": preds})
        manifest = load_manifest(write_dataset(tmp_path, images).read_text())
        config = MatchConfig(confidence_threshold=0.5)
        evaluation = evaluate_dataset(manifest, config, root=tmp_path)
        for entry in manifest:
            annotation = load_image_annotation(entry, tmp_path)
            expected = match_detections(annotation.ground_truth, annotation.predictions, config)
            assert evaluation.per_image[entry.image_id].counts == expected.counts

    def test_groups_and_overall_pool_member_sweeps_in_manifest_order(self, tmp_path):
        # Two density groups plus unlabeled images, one image without gt,
        # and confidences tied across images, so the pooled curves depend
        # on the order the sweeps are concatenated in.
        rng = np.random.default_rng(50)
        images = []
        for i in range(30):
            gt, preds = crowded_instance(rng)
            item = {"image_id": f"c{i}", "gt": gt, "pred": preds}
            if i % 3:
                item["density"] = (100, 300)[i % 3 - 1]
            images.append(item)
        images.insert(7, {"image_id": "no_gt", "pred": images[0]["pred"], "density": 100})
        manifest = load_manifest(write_dataset(tmp_path, images).read_text())
        config = MatchConfig(confidence_threshold=0.5, ap_method="101point")
        ev = evaluate_dataset(manifest, config, root=tmp_path, group_by="density_group")

        members: dict[str, list] = {}
        everything = []
        for entry in manifest:
            ann = load_image_annotation(entry, tmp_path)
            sweep = match_detections(ann.ground_truth, ann.predictions, SWEEP).scored_flags
            num_gt = len(ann.ground_truth)
            ap = average_precision(pr_curve(sweep, num_gt), "101point") if num_gt else None
            label = "unlabeled" if entry.density_group is None else str(entry.density_group)
            members.setdefault(label, []).append((num_gt, sweep, ap))
            everything.append((num_gt, sweep, ap))

        def expected(group):
            num_gt = sum(n for n, _, _ in group)
            flags = [flag for _, sweep, _ in group for flag in sweep]
            tp, fp, fn = counts_of([(c, f) for c, f in flags if c >= 0.5], num_gt)
            aps = [ap for _, _, ap in group if ap is not None]
            return EvalReport.build(ConfusionCounts(tp, fp, fn), len(group), flags,
                                    "101point", reduce(add, aps, 0.0) / len(aps))

        def ties_across_images(group):
            seen: set[float] = set()
            for _, sweep, _ in group:
                confidences = {c for c, _ in sweep}
                if seen & confidences:
                    return True
                seen |= confidences
            return False

        assert all(map(ties_across_images, members.values()))
        assert list(ev.groups) == ["100", "300", "unlabeled"]
        for label, group in members.items():
            assert ev.groups[label] == expected(group)
        assert ev.overall == expected(everything)
        for name in ("tp", "fp", "fn"):
            assert sum(getattr(r.counts, name) for r in ev.groups.values()) == getattr(
                ev.overall.counts, name
            )
        assert sum(r.num_images for r in ev.groups.values()) == ev.overall.num_images == 31

    def test_missing_label_file_names_image(self, tmp_path):
        manifest_text = (
            "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"
            "ghost,,nope.txt,,100,100,,\n"
        )
        with pytest.raises(AnnotationLoadError) as err:
            evaluate_dataset(load_manifest(manifest_text), root=tmp_path)
        assert err.value.image_id == "ghost"

    def test_bad_group_by(self, tmp_path):
        manifest = load_manifest(
            "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"
        )
        with pytest.raises(ValueError):
            evaluate_dataset(manifest, group_by="camera")


@pytest.fixture(scope="module")
def crowded_sweeps(tmp_path_factory):
    """A crowded manifest on disk and each image's ``(num_gt, sweep flags)``.

    Confidences tie within and across images, every fifth image has no
    ground truth, and the density and day fields leave some images
    unlabeled, one of them through a day label that reads "unlabeled".
    """
    root = tmp_path_factory.mktemp("crowded")
    rng = np.random.default_rng(53)
    images = []
    for i in range(25):
        gt, preds = crowded_instance(rng)
        item = {"image_id": f"c{i}", "pred": preds, "day": ("d1", "d2", "unlabeled", "")[i % 4]}
        if i % 5:
            item["gt"] = gt
        if i % 3:
            item["density"] = (100, 300)[i % 3 - 1]
        images.append(item)
    manifest = load_manifest(write_dataset(root, images).read_text())
    sweeps = {}
    for entry in manifest:
        ann = load_image_annotation(entry, root)
        sweep = match_detections(ann.ground_truth, ann.predictions, SWEEP).scored_flags
        sweeps[entry.image_id] = (len(ann.ground_truth), sweep)
    assert any(n == 0 for n, _ in sweeps.values())
    assert any(len({c for c, _ in s}) < len(s) for n, s in sweeps.values() if n)
    return root, manifest, sweeps


def left_to_right_mean(values):
    return reduce(add, values, 0.0) / len(values) if values else 0.0


class TestImageAPIdentity:
    """The per-image APs behind ``mean_image_ap``, and the per-image reports,
    are those of the public per-image forms, to the bit."""

    @pytest.mark.parametrize("method", AP_METHODS)
    @pytest.mark.parametrize("group_by", [None, *GROUP_FIELDS])
    def test_mean_image_ap_is_the_mean_of_the_public_forms(self, crowded_sweeps, method,
                                                            group_by):
        root, manifest, sweeps = crowded_sweeps
        config = MatchConfig(confidence_threshold=0.5, ap_method=method)
        ev = evaluate_dataset(manifest, config, root=root, group_by=group_by)

        def mean_ap(entries):
            return left_to_right_mean([
                average_precision(pr_curve(sweeps[e.image_id][1], sweeps[e.image_id][0]), method)
                for e in entries if sweeps[e.image_id][0] > 0])

        members: dict[str, list] = {}
        for entry in manifest:
            value = None if group_by is None else getattr(entry, group_by)
            members.setdefault("unlabeled" if value in (None, "unlabeled") else str(value),
                               []).append(entry)
        assert bits(ev.overall.mean_image_ap) == bits(mean_ap(manifest))
        assert sorted(ev.groups) == ([] if group_by is None else sorted(members))
        for label, report in ev.groups.items():
            assert bits(report.mean_image_ap) == bits(mean_ap(members[label]))

    @pytest.mark.parametrize("method", AP_METHODS)
    def test_per_image_reports_are_built_from_each_sweep(self, crowded_sweeps, method):
        root, manifest, sweeps = crowded_sweeps
        config = MatchConfig(confidence_threshold=0.5, ap_method=method)
        ev = evaluate_dataset(manifest, config, root=root, group_by="density_group")
        expected = {}
        for entry in manifest:
            ann = load_image_annotation(entry, root)
            counts = match_detections(ann.ground_truth, ann.predictions, config).counts
            num_gt, sweep = sweeps[entry.image_id]
            expected[entry.image_id] = EvalReport.build(counts, 1, sweep, method)
        got = dict(ev.per_image)
        assert list(got) == [entry.image_id for entry in manifest]
        assert got == expected
        assert all(bits(got[k].ap) == bits(expected[k].ap) for k in got)
        assert ev.per_image == expected and len(ev.per_image) == len(manifest)

    def test_one_image_group_has_its_own_ap_as_mean(self, crowded_sweeps):
        root, manifest, sweeps = crowded_sweeps
        ev = evaluate_dataset(manifest[1:2], MatchConfig(), root=root, group_by="day_label")
        ((label, report),) = ev.groups.items()
        assert report.num_images == 1
        assert bits(report.mean_image_ap) == bits(ev.per_image[manifest[1].image_id].ap)
        assert ev.per_image[manifest[1].image_id].mean_image_ap is None

    def test_per_image_is_read_only(self, crowded_sweeps):
        root, manifest, _ = crowded_sweeps
        ev = evaluate_dataset(manifest, MatchConfig(), root=root)
        with pytest.raises(TypeError):
            ev.per_image["c1"] = ev.overall
        with pytest.raises(KeyError):
            ev.per_image["nope"]
        assert "c1" in ev.per_image and "nope" not in ev.per_image


class TestReportsOnRead:
    """Per-image reports are built together when first read, never for the pooled reports."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = EvalReport.build

        def counted(*args, **kwargs):
            calls.append(args[1])  # num_images
            return build(*args, **kwargs)

        monkeypatch.setattr(EvalReport, "build", staticmethod(counted))
        return calls

    @pytest.mark.parametrize("group_by", [None, *GROUP_FIELDS])
    def test_one_build_per_pooled_report(self, crowded_sweeps, builds, group_by):
        root, manifest, _ = crowded_sweeps
        ev = evaluate_dataset(manifest, MatchConfig(), root=root, group_by=group_by)
        assert len(builds) == 1 + len(ev.groups)
        assert builds[-1] == len(manifest)
        builds.clear()
        assert list(ev.per_image) == [entry.image_id for entry in manifest]
        assert builds == [1] * len(manifest)
        builds.clear()
        assert "c3" in ev.per_image and "nope" not in ev.per_image
        assert len(ev.per_image) == len(manifest)
        report = ev.per_image["c3"]
        assert ev.per_image["c3"] is report
        assert len(dict(ev.per_image)) == len(manifest)
        assert builds == []

    def test_equality_builds_no_per_image_report(self, crowded_sweeps, builds):
        root, manifest, _ = crowded_sweeps
        first, second = (evaluate_dataset(manifest, MatchConfig(), root=root) for _ in range(2))
        fewer = evaluate_dataset(manifest[1:], MatchConfig(), root=root)
        builds.clear()
        assert first == second and first != fewer
        assert builds == []

    @pytest.mark.parametrize("group_by", ["none", *GROUP_FIELDS])
    def test_eval_builds_no_per_image_report(self, crowded_sweeps, builds, group_by, tmp_path):
        from larvaekit import cli

        root, manifest, _ = crowded_sweeps
        status = cli.main(["eval", str(root / "manifest.csv"), "--group-by", group_by,
                           "--out-dir", str(tmp_path / "out")])
        assert status == 0
        groups = len((tmp_path / "out" / "eval.csv").read_text().splitlines()) - 1
        assert len(builds) == 1 + (0 if group_by == "none" else groups)


class TestCsvRendering:
    def test_eval_csv_single_row(self, tmp_path):
        gt = [LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.1)), LabeledBox(0, Box2D(0.2, 0.2, 0.1, 0.1))]
        preds = [ScoredBox(0, gt[0].box, 0.9), ScoredBox(0, Box2D(0.8, 0.8, 0.1, 0.1), 0.8)]
        manifest = load_manifest(
            write_dataset(tmp_path, [{"image_id": "a", "gt": gt, "pred": preds}]).read_text()
        )
        text = render_eval_csv(evaluate_dataset(manifest, root=tmp_path))
        lines = text.splitlines()
        assert lines[0] == (
            "group,num_images,num_gt,tp,fp,fn,precision,recall,f1,"
            "confusion_accuracy,counting_accuracy,ap"
        )
        assert lines[1] == "all,1,2,1,1,1,0.5000,0.5000,0.5000,0.3333,0.5000,0.5000"

    def test_eval_csv_contains_final_run_precision(self, tmp_path, confusion_fixture):
        gt, preds = confusion_fixture
        manifest = load_manifest(
            write_dataset(tmp_path, [{"image_id": "full", "gt": gt, "pred": preds}]).read_text()
        )
        text = render_eval_csv(evaluate_dataset(manifest, root=tmp_path))
        assert ",0.9636," in text

    def test_ids_and_labels_are_quoted_csv_fields(self, tmp_path):
        (tmp_path / "gt.txt").write_text("0 0.5 0.5 0.1 0.1\n")
        (tmp_path / "pred.txt").write_text("0 0.5 0.5 0.1 0.1 0.9\n")
        ids = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain"]
        labels = ["d,1", 'd"2', "d\n3", "d\r4", "d5"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(MANIFEST_COLUMNS)
        for image_id, label in zip(ids, labels):
            writer.writerow([image_id, "", "gt.txt", "pred.txt", 10, 10, "", label])
        manifest = load_manifest(buf.getvalue())
        ev = evaluate_dataset(manifest, root=tmp_path, group_by="day_label")
        counts = render_counts_csv([CountRecord(i, 1, 1) for i in ids])
        for text, first_column in ((render_eval_csv(ev), sorted(labels)),
                                   (counts, ids)):
            rows = list(csv.reader(io.StringIO(text)))
            assert {len(row) for row in rows} == {len(rows[0])}
            assert [row[0] for row in rows[1:]] == first_column
        assert counts.endswith("\nplain,1,1,16.6\n")
        assert render_eval_csv(ev).endswith("\nd5,1,1,1,0,0," + ",".join(["1.0000"] * 6) + "\n")

    def test_pr_curve_csv_format(self):
        curve = [PRPoint(0.875, 1.0, 0.5)]
        assert render_pr_curve_csv(curve) == (
            "confidence,recall,precision\n0.875000,0.500000,1.000000\n"
        )
