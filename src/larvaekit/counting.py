"""Per-image larvae counts, pond extrapolation and density summaries.

A photographed bucket holds 6 L drawn from a 100 L pond; counts scale by
the volume factor 16.6 used in the field protocol (kept as the printed
rounded value rather than 100/6, and overridable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import DEFAULT_VOLUME_FACTOR
from .annotations import ImageAnnotation, _columns, _csv_field
from .errors import LarvaekitError, OutOfRange

if TYPE_CHECKING:
    from .evaluation import EvalReport


@dataclass(frozen=True)
class CountRecord:
    """Predicted count for one image, and its true count when GT is known."""

    image_id: str
    predicted_count: int
    true_count: int | None = None


@dataclass(frozen=True)
class DensityRow:
    """Per-image means over the images of one density group."""

    density: int
    num_images: int
    mean_counting_accuracy: float
    mean_ap: float


@dataclass(frozen=True)
class DensityReport:
    """Per-density means, ascending; flags the crowding falloff trend."""

    rows: tuple[DensityRow, ...]
    accuracy_decreases_with_density: bool


def count_image(
    annotation: ImageAnnotation,
    confidence_threshold: float = 0.4,
    truth_known: bool = True,
) -> CountRecord:
    """Count predictions at or above the threshold (inclusive).

    Pass ``truth_known=False`` for field imagery that was never labeled,
    so the record carries ``true_count=None`` instead of a spurious 0.
    Thresholds above 1 are allowed and simply count nothing.
    """
    if not confidence_threshold >= 0.0:
        raise OutOfRange(
            f"confidence_threshold must be non-negative, got {confidence_threshold}"
        )
    confidence = _columns(annotation.predictions).confidence
    predicted = sum(score >= confidence_threshold for score in confidence)
    true_count = len(annotation.ground_truth) if truth_known else None
    return CountRecord(annotation.image_id, predicted, true_count)


def extrapolate_pond(count: int, volume_factor: float = DEFAULT_VOLUME_FACTOR) -> float:
    """Scale a bucket count to the whole pond."""
    if count < 0:
        raise OutOfRange(f"count must be non-negative, got {count}")
    if volume_factor <= 0:
        raise OutOfRange(f"volume_factor must be positive, got {volume_factor}")
    total = count * volume_factor
    if not math.isfinite(total):
        raise OutOfRange(f"pond estimate {count} * {volume_factor:g} overflows")
    return total


def density_summary(
    items: Sequence[tuple[int | None, EvalReport]],
) -> DensityReport:
    """Mean counting accuracy and AP per density group.

    ``items`` pairs each image's density group with its evaluation
    report. Every image must carry a group. Both means leave out images
    without ground truth, as ``eval`` does; ``num_images`` counts them.
    Rows come out in ascending density; the trend flag is set when mean
    counting accuracy strictly decreases from each density to the next.
    """
    from .evaluation import _image_mean  # only here, so `count` never loads evaluation

    buckets: dict[int, list[EvalReport]] = {}
    for density, report in items:
        if density is None:
            raise LarvaekitError("every image needs a density_group for a density summary")
        buckets.setdefault(density, []).append(report)
    rows = [
        DensityRow(density, len(reports), _image_mean(reports, "counting_accuracy"),
                   _image_mean(reports, "ap"))
        for density, reports in sorted(buckets.items())
    ]
    decreasing = len(rows) >= 2 and all(
        rows[i + 1].mean_counting_accuracy < rows[i].mean_counting_accuracy
        for i in range(len(rows) - 1)
    )
    return DensityReport(tuple(rows), decreasing)


def render_counts_csv(records: Sequence[CountRecord], volume_factor: float = DEFAULT_VOLUME_FACTOR) -> str:
    """Rows of per-image counts with the pond estimate to one decimal."""
    out = ["image_id,predicted_count,true_count,estimated_total\n"]
    for rec in records:
        true_part = "" if rec.true_count is None else str(rec.true_count)
        total = extrapolate_pond(rec.predicted_count, volume_factor)
        out.append(f"{_csv_field(rec.image_id)},{rec.predicted_count},{true_part},{total:.1f}\n")
    return "".join(out)


def render_density_csv(report: DensityReport) -> str:
    out = ["density,num_images,mean_counting_accuracy,mean_ap\n"]
    for row in report.rows:
        out.append(
            f"{row.density},{row.num_images},"
            f"{row.mean_counting_accuracy:.4f},{row.mean_ap:.4f}\n"
        )
    return "".join(out)
