"""Detection counting, pond extrapolation, and density summaries."""

import math
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest

from larvaekit.annotations import Box2D, ImageAnnotation, LabeledBox, ScoredBox
from larvaekit.counting import (
    CountRecord,
    count_image,
    density_summary,
    extrapolate_pond,
    render_counts_csv,
    render_density_csv,
)
from larvaekit.errors import LarvaekitError, OutOfRange
from larvaekit.evaluation import ConfusionCounts, EvalReport


def annotation(confidences, gt_n: int = 0) -> ImageAnnotation:
    box = Box2D(0.5, 0.5, 0.1, 0.1)
    return ImageAnnotation(
        image_id="img",
        ground_truth=tuple(LabeledBox(0, box) for _ in range(gt_n)),
        predictions=tuple(ScoredBox(0, box, c) for c in confidences),
    )


def report(tp: int, fn: int, fp: int = 0) -> EvalReport:
    flags = [(0.9, True)] * tp + [(0.5, False)] * fp
    return EvalReport.build(
        ConfusionCounts(tp, fp, fn), num_gt=tp + fn, num_images=1, scored_flags=flags
    )


class TestCountImage:
    def test_threshold_is_inclusive(self):
        rec = count_image(annotation([0.39, 0.40, 0.41]), confidence_threshold=0.4)
        assert rec.predicted_count == 2

    def test_all_predictions_pass(self):
        assert count_image(annotation([0.5] * 7)).predicted_count == 7

    def test_threshold_above_one_counts_nothing(self):
        assert count_image(annotation([0.9, 1.0]), confidence_threshold=1.1).predicted_count == 0

    def test_true_count_from_ground_truth(self):
        rec = count_image(annotation([0.9], gt_n=3))
        assert rec.true_count == 3

    def test_unlabeled_field_image(self):
        rec = count_image(annotation([0.9], gt_n=0), truth_known=False)
        assert rec.true_count is None

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            confs = list(rng.random(int(rng.integers(0, 20))))
            ann = annotation(confs)
            counts = [
                count_image(ann, confidence_threshold=t).predicted_count
                for t in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_negative_threshold_rejected(self):
        with pytest.raises(OutOfRange):
            count_image(annotation([0.5]), confidence_threshold=-0.1)


class TestExtrapolatePond:
    def test_zero(self):
        assert extrapolate_pond(0) == 0.0

    def test_hundred_sampled(self):
        assert extrapolate_pond(100) == pytest.approx(1660.0, abs=1e-9)

    def test_sixty_sampled(self):
        assert extrapolate_pond(60) == pytest.approx(996.0, abs=1e-9)

    def test_custom_factor(self):
        assert extrapolate_pond(6, volume_factor=100 / 6) == pytest.approx(100.0)

    def test_linearity(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(0, 10_000, size=2))
            assert extrapolate_pond(a + b) == pytest.approx(
                extrapolate_pond(a) + extrapolate_pond(b), rel=1e-12
            )

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange):
            extrapolate_pond(-1)

    def test_non_positive_factor_rejected(self):
        with pytest.raises(OutOfRange):
            extrapolate_pond(10, volume_factor=0.0)

    @pytest.mark.parametrize("volume_factor", [1e308, math.nan])
    def test_non_finite_estimate_rejected(self, volume_factor):
        assert extrapolate_pond(1, 1e308) == 1e308
        with pytest.raises(OutOfRange):
            extrapolate_pond(2, volume_factor)


class TestDensitySummary:
    def test_mean_within_group(self):
        rep = density_summary([(100, report(8, 2)), (100, report(9, 1))])
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert (row.density, row.num_images) == (100, 2)
        assert row.mean_counting_accuracy == pytest.approx(0.85)

    def test_seven_groups_sorted_ascending(self):
        densities = [500, 50, 300, 100, 400, 150, 200]
        rep = density_summary([(d, report(1, 1)) for d in densities])
        assert [r.density for r in rep.rows] == [50, 100, 150, 200, 300, 400, 500]
        assert all(r.num_images == 1 for r in rep.rows)

    def test_missing_density(self):
        with pytest.raises(LarvaekitError,
                           match="^every image needs a density_group for a density summary$"):
            density_summary([(100, report(1, 0)), (None, report(1, 0))])

    def test_trend_flag_on_strict_decrease(self):
        items = [(50, report(9, 1)), (100, report(8, 2)), (150, report(7, 3))]
        assert density_summary(items).accuracy_decreases_with_density

    def test_trend_flag_off_when_accuracy_recovers(self):
        # mirrors the recorded sweep: accuracy dips at 100 then recovers at 150
        items = [(50, report(86, 14)), (100, report(70, 30)), (150, report(72, 28))]
        assert not density_summary(items).accuracy_decreases_with_density

    def test_trend_flag_off_at_a_tie(self):
        # a fall, then two adjacent densities with equal means: not strictly decreasing
        items = [(50, report(9, 1)), (100, report(8, 2)), (150, report(8, 2))]
        rows = density_summary(items).rows
        assert rows[1].mean_counting_accuracy == rows[2].mean_counting_accuracy
        assert not density_summary(items).accuracy_decreases_with_density

    def test_trend_flag_needs_at_least_two_rows(self):
        assert not density_summary([(50, report(9, 1))]).accuracy_decreases_with_density

    def test_images_without_gt_are_left_out_of_the_means(self):
        # one matched box beside an image with no GT and one false positive
        row = density_summary([(100, report(1, 0)), (100, report(0, 0, fp=1))]).rows[0]
        assert (row.num_images, row.mean_counting_accuracy, row.mean_ap) == (2, 1.0, 1.0)

    def test_group_without_gt_reads_zero(self):
        rep = density_summary([(50, report(0, 0, fp=1)), (100, report(1, 0)),
                               (50, report(0, 0))])
        assert [(r.density, r.num_images, r.mean_counting_accuracy, r.mean_ap)
                for r in rep.rows] == [(50, 2, 0.0, 0.0), (100, 1, 1.0, 1.0)]

    def test_means_add_left_to_right(self):
        # a compensated sum (builtin sum() from Python 3.12 on) rounds these differently
        values = [1.0, 1e-16, 1e-16]
        assert reduce(add, values, 0.0) / 3 != math.fsum(values) / 3
        items = [(100, replace(report(1, 0), counting_accuracy=v, ap=v)) for v in values]
        row = density_summary(items).rows[0]
        assert row.mean_counting_accuracy == row.mean_ap == ((1.0 + 1e-16) + 1e-16) / 3

    def test_means_bounded_by_inputs(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            reports = []
            accs = []
            for _ in range(int(rng.integers(1, 6))):
                tp = int(rng.integers(0, 20))
                fn = int(rng.integers(1, 20))
                reports.append((200, report(tp, fn)))
                accs.append(tp / (tp + fn))
            row = density_summary(reports).rows[0]
            assert min(accs) - 1e-12 <= row.mean_counting_accuracy <= max(accs) + 1e-12


class TestCsv:
    def test_counts_csv(self):
        records = [CountRecord("a", 100, 98), CountRecord("b", 5, None)]
        assert render_counts_csv(records) == (
            "image_id,predicted_count,true_count,estimated_total\n"
            "a,100,98,1660.0\n"
            "b,5,,83.0\n"
        )

    def test_density_csv(self):
        rep = density_summary([(100, report(8, 2)), (50, report(9, 1))])
        assert render_density_csv(rep) == (
            "density,num_images,mean_counting_accuracy,mean_ap\n"
            "50,1,0.9000,0.9000\n"
            "100,1,0.8000,0.8000\n"
        )
