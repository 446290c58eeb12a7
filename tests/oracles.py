"""One-at-a-time reference forms the tests compare the package against.

The package computes these quantities in bulk: IoU over blocks of box
columns in numpy, corners and crops over ``(n, 4)`` arrays, noise in
strips, the Jacobian inside the solver and R² from a fit's SSE. No
subcommand calls the forms here; they live with the tests, which require
the bulk forms to give the same values.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from larvaekit.annotations import Box2D
from larvaekit.errors import DegenerateBox, LarvaekitError
from larvaekit.growth import GrowthModelKind, GrowthObservation, _model, _total_sum_of_squares
from larvaekit.preprocessing import _noise_sd


class PixelBox(NamedTuple):
    """Box corners in absolute pixel coordinates (x right, y down)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def area(self) -> float:
        return max(0.0, self.x_max - self.x_min) * max(0.0, self.y_max - self.y_min)


def to_absolute(box: Box2D, width_px: int, height_px: int) -> PixelBox:
    """Convert a normalized box to pixel-space corners."""
    return PixelBox(
        (box.cx - box.w / 2) * width_px,
        (box.cy - box.h / 2) * height_px,
        (box.cx + box.w / 2) * width_px,
        (box.cy + box.h / 2) * height_px,
    )


def to_normalized(pixel_box: PixelBox, width_px: int, height_px: int) -> Box2D:
    """Convert pixel-space corners back to a normalized center/extent box."""
    x1, y1, x2, y2 = pixel_box
    return Box2D(
        (x1 + x2) / (2 * width_px),
        (y1 + y2) / (2 * height_px),
        (x2 - x1) / width_px,
        (y2 - y1) / height_px,
    )


def _require_extent(box: PixelBox) -> None:
    if box.x_max <= box.x_min or box.y_max <= box.y_min:
        raise DegenerateBox(f"box {tuple(box)} has non-positive extent")


def iou(a: PixelBox, b: PixelBox) -> float:
    """Intersection-over-union of two corner-form boxes."""
    _require_extent(a)
    _require_extent(b)
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    # An intersection that underflows to 0 scores 0, as in evaluation._greedy_flags.
    return inter / (a.area + b.area - inter) if inter > 0.0 else 0.0


def gaussian_noise_stream(variance: float, seed: int, count: int) -> np.ndarray:
    """The exact zero-mean noise samples ``add_gaussian_noise`` draws.

    Samples are generated sequentially, so the first ``k`` values do not
    depend on ``count``. ``add_gaussian_noise`` draws this same stream in
    strips: consecutive draws from one generator continue the sequence.
    """
    sd = _noise_sd(variance)
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sd, size=count)


def jacobian(kind: GrowthModelKind, params: Sequence[float], t) -> np.ndarray:
    """Analytic Jacobian d model / d params at ages ``t``, one row per age."""
    return _model(kind, np.asarray(params, dtype=float), np.atleast_1d(np.asarray(t, float)))[1]


def r_squared(
    observations: Sequence[GrowthObservation],
    predictions: Sequence[float],
) -> float:
    """Coefficient of determination of predictions against observations."""
    if len(predictions) != len(observations):
        raise ValueError(
            f"{len(predictions)} predictions for {len(observations)} observations"
        )
    if len(observations) < 2:
        raise LarvaekitError("R-squared needs at least two observations")
    lengths = np.array([o.length_mm for o in observations], dtype=float)
    sst = _total_sum_of_squares(lengths)
    residuals = lengths - np.asarray(predictions, dtype=float)
    return 1.0 - float(residuals @ residuals) / sst
