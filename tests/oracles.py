"""One-at-a-time reference forms the tests compare the package against.

The package computes these quantities its own way: IoU in a sweep over
box columns, crops, masks, turns and box moves in plain Python a row at a
time, noise in strips, the Jacobian inside the solver and R² from a fit's
SSE. No subcommand calls the forms here; they live with the tests, which
require the package's forms to give the same values. The numpy forms of
the frame and box operations are kept here whole, as the package had
them before it dropped numpy from them, and so is the text-mode read of
a manifest entry's label files.
"""

from __future__ import annotations

from itertools import chain, compress
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from larvaekit.annotations import (
    Box2D,
    ImageAnnotation,
    ManifestEntry,
    _box_fields,
    _columns,
    _like,
    parse_label_file,
)
from larvaekit.errors import (
    AnnotationLoadError,
    DegenerateBox,
    LarvaekitError,
    MalformedLine,
    OutOfRange,
)
from larvaekit.growth import GrowthModelKind, GrowthObservation, _model, _total_sum_of_squares
from larvaekit.preprocessing import MIN_CLIPPED_AREA_FRACTION, _noise_sd
from larvaekit.raster import RasterImage


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


# The numpy forms of the frame and box operations. From ``min_rows`` rows,
# checked_boxes first tests the moved rows as arrays and checks them one at
# a time only when a row fails; a ``min_rows`` of 0 tests every size so.

ARRAY_CHECK_MIN_ROWS = 16


def box_array(boxes: Sequence[tuple[float, float, float, float]]) -> np.ndarray:
    """``(n, 4)`` float64 array of ``cx, cy, w, h`` rows."""
    return np.fromiter(chain.from_iterable(boxes), np.float64, 4 * len(boxes)).reshape(-1, 4)


def corners(boxes: np.ndarray) -> np.ndarray:
    """(n, 4) unit-square corners ``cx - w/2, cy - h/2, cx + w/2, cy + h/2``
    of ``cx, cy, w, h`` rows."""
    center, half = boxes[:, :2], boxes[:, 2:] / 2
    return np.concatenate((center - half, center + half), axis=1)


def checked_boxes(boxes: np.ndarray, min_rows: int = ARRAY_CHECK_MIN_ROWS):
    """``cx, cy, w, h`` rows as :class:`Box2D` stores them, as column rows;
    the first row ``Box2D`` refuses raises its error."""
    if len(boxes) >= min_rows:
        # The test of _box_fields's first branch, which keeps the fields as given.
        # A NaN fails it: min and max pass a NaN on, and it fails every comparison.
        # So does a corner that overflows to inf, or is inf - inf.
        with np.errstate(over="ignore", invalid="ignore"):
            half = boxes[:, 2:] / 2
            low, high = boxes[:, :2] - half, boxes[:, :2] + half
            in_square = (low.min(initial=0.0) >= 0.0 and high.max(initial=1.0) <= 1.0
                         and (low < high).all() and (boxes[:, 2] * boxes[:, 3] != 0.0).all())
        if in_square:
            return list(zip(*boxes.T.tolist()))
    return list(map(_box_fields, *boxes.T.tolist()))


def array_center_crop(image: RasterImage, boxes, target_w: int, target_h: int,
                      min_rows: int = ARRAY_CHECK_MIN_ROWS):
    """``preprocessing.center_crop`` on a numpy view of the frame and an array of the boxes."""
    off_x = (image.width - target_w) // 2
    off_y = (image.height - target_h) // 2
    arr = image.to_array()[off_y : off_y + target_h, off_x : off_x + target_w]
    cropped = RasterImage.from_array(arr)
    columns = _columns(boxes)
    if (off_x, off_y, target_w, target_h) == (0, 0, image.width, image.height):
        return cropped, _like(boxes, columns)
    size = np.array([target_w, target_h] * 2, dtype=np.float64)
    px = corners(box_array(columns.boxes)) * np.array([image.width, image.height] * 2,
                                                      dtype=np.float64)
    px = np.clip(px - np.array([off_x, off_y] * 2, dtype=np.float64), 0.0, size)
    extent = px[:, 2:] - px[:, :2]
    min_area = MIN_CLIPPED_AREA_FRACTION * target_w * target_h
    kept = np.flatnonzero(~(extent[:, 0] * extent[:, 1] < min_area))
    px = px[kept]
    moved = np.concatenate(((px[:, :2] + px[:, 2:]) / (2 * size[:2]),
                            (px[:, 2:] - px[:, :2]) / size[:2]), axis=1)
    return cropped, _like(boxes, columns.derive(kept.tolist(), checked_boxes(moved, min_rows)))


def array_circular_mask(image: RasterImage, cx: float, cy: float, radius: float) -> RasterImage:
    """``preprocessing.circular_mask`` with the kept runs found over numpy rows."""
    arr = image.to_array().copy()
    r2 = radius * radius
    with np.errstate(over="ignore"):
        dx2 = (np.arange(image.width, dtype=np.float64) - cx) ** 2
        dy2 = (np.arange(image.height, dtype=np.float64) - cy) ** 2
        mid = int(np.argmin(dx2))
        lo = mid + 1 - _kept_run(dx2[mid::-1], dy2, r2)
        hi = mid + _kept_run(dx2[mid:], dy2, r2)
    row_start = np.arange(image.height) * image.width
    pixels = arr.reshape(-1, image.channels)
    for gap_start, gap_stop in zip([0, *(row_start + hi).tolist()],
                                   [*(row_start + lo).tolist(), len(pixels)]):
        pixels[gap_start:gap_stop] = 0
    return RasterImage.from_array(arr)


def _kept_run(dx2: np.ndarray, dy2: np.ndarray, r2: float) -> np.ndarray:
    """For each row ``y``, how many leading columns of the non-decreasing
    ``dx2`` pass the mask's test, found by bisection with that test."""
    kept = np.zeros(len(dy2), dtype=np.intp)
    step = 1 << (len(dx2).bit_length() - 1)
    while step:
        probe = kept + step
        passes = ~(dx2[np.minimum(probe, len(dx2)) - 1] + dy2 > r2)
        kept = np.where((probe <= len(dx2)) & passes, probe, kept)
        step >>= 1
    return kept


def array_rotate90(image: RasterImage, boxes, min_rows: int = ARRAY_CHECK_MIN_ROWS):
    """``preprocessing.rotate90`` by ``np.rot90`` over whole pixels and an array of the boxes."""
    pixels = np.frombuffer(image.pixels, dtype=f"V{image.channels}")
    pixels = np.rot90(pixels.reshape(image.height, image.width), k=1)
    rotated = RasterImage(image.height, image.width, image.channels, pixels.tobytes())
    columns = _columns(boxes)
    cx, cy, w, h = box_array(columns.boxes).T
    turned = checked_boxes(np.stack((cy, 1.0 - cx, h, w), axis=1), min_rows)
    return rotated, _like(boxes, columns.derive(range(len(turned)), turned))


def array_area_quantile(boxes, q: float) -> float:
    """``np.quantile`` of the areas of :class:`Box2D` objects or ``cx, cy, w, h`` rows."""
    rows = box_array([(b.cx, b.cy, b.w, b.h) if isinstance(b, Box2D) else b for b in boxes])
    if not len(rows):
        raise LarvaekitError("no boxes to take a quantile over")
    return float(np.quantile(rows[:, 2] * rows[:, 3], q))


def array_enlarge_small_boxes(boxes, area_threshold: float, mode: str = "literal",
                              min_rows: int = ARRAY_CHECK_MIN_ROWS):
    """``preprocessing.enlarge_small_boxes`` over an array of the rows it grows."""
    columns = _columns(boxes)
    changed = [w * h < area_threshold for _, _, w, h in columns.boxes]
    grown = list(compress(range(len(changed)), changed))
    cx, cy, w, h = box_array([columns.boxes[i] for i in grown]).T
    with np.errstate(over="ignore"):
        scale = area_threshold / (w * h)
        if mode == "normalize":
            scale = np.sqrt(scale)
        w = np.minimum(w * scale, 2 * np.minimum(cx, 1.0 - cx))
        h = np.minimum(h * scale, 2 * np.minimum(cy, 1.0 - cy))
    moved = list(columns.boxes)
    for i, box in zip(grown, checked_boxes(np.stack((cx, cy, w, h), axis=1), min_rows)):
        moved[i] = box
    return _like(boxes, columns.derive(range(len(moved)), moved, changed))


def text_mode_annotation(entry: ManifestEntry, root: Path | str = ".") -> ImageAnnotation:
    """``load_image_annotation`` as a text-mode read of each normalized ``Path``."""
    root = Path(root)
    sides = []
    for name, kind in ((entry.gt_path, "gt"), (entry.pred_path, "pred")):
        path = root / name
        try:
            sides.append(parse_label_file(path.read_text(encoding="utf-8-sig"), kind=kind)
                         if name else ())
        except (OSError, UnicodeDecodeError, MalformedLine, OutOfRange) as err:
            raise AnnotationLoadError(entry.image_id, err, path) from err
    return ImageAnnotation(entry.image_id, *sides)
