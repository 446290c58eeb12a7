"""Geometric and photometric preprocessing for images plus their boxes.

Every operation is pure: it returns new objects and leaves its inputs
untouched, so pipelines can be composed and re-run freely. Box
operations work on columns (:class:`~larvaekit.annotations.BoxColumns`)
and hand back boxes in the container they were given: columns for
columns, a list for any other sequence.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import ENLARGE_MODES
from .annotations import AnyBox, Box2D, _box_array, _checked_boxes, _columns, _corners, _like
from .errors import LarvaekitError, OutOfRange
from .raster import RasterImage

# Boxes whose clipped area falls below this fraction of the crop window are
# discarded rather than kept as slivers.
MIN_CLIPPED_AREA_FRACTION = 1e-6

# Noise works on strips of at most this many samples, so its float64
# buffer stays a fixed size whatever the frame.
_STRIP_SAMPLES = 1 << 16


def center_crop(
    image: RasterImage,
    boxes: Sequence[AnyBox],
    target_w: int,
    target_h: int,
) -> tuple[RasterImage, Sequence[AnyBox]]:
    """Crop the central ``target_w x target_h`` window and remap boxes.

    Offsets are floored so odd margins favor the top-left, matching how the
    capture rig frames the tank. Boxes are clipped to the window, boxes that
    lose essentially all area are dropped, and survivors are renormalized to
    the crop size.
    """
    if target_w < 1 or target_h < 1:
        raise OutOfRange(f"crop size must be positive, got {target_w}x{target_h}")
    if target_w > image.width or target_h > image.height:
        raise LarvaekitError(
            f"crop {target_w}x{target_h} exceeds image {image.width}x{image.height}"
        )
    off_x = (image.width - target_w) // 2
    off_y = (image.height - target_h) // 2
    arr = image.to_array()[off_y : off_y + target_h, off_x : off_x + target_w]
    cropped = RasterImage.from_array(arr)
    columns = _columns(boxes)
    if (off_x, off_y, target_w, target_h) == (0, 0, image.width, image.height):
        # Full-frame crop: hand the boxes back untouched.
        return cropped, _like(boxes, columns)
    # Pixel corners: the unit-square corners (cx -+ w/2, cy -+ h/2) times the
    # image size, shifted into the window and clipped to it.
    size = np.array([target_w, target_h] * 2, dtype=np.float64)
    px = _corners(columns.boxes) * np.array([image.width, image.height] * 2, dtype=np.float64)
    px = np.clip(px - np.array([off_x, off_y] * 2, dtype=np.float64), 0.0, size)
    extent = px[:, 2:] - px[:, :2]  # never negative: clipping keeps x1 <= x2
    min_area = MIN_CLIPPED_AREA_FRACTION * target_w * target_h
    kept = np.flatnonzero(~(extent[:, 0] * extent[:, 1] < min_area))
    px = px[kept]
    # Back to centers and extents, as fractions of the crop size.
    moved = np.concatenate(((px[:, :2] + px[:, 2:]) / (2 * size[:2]),
                            (px[:, 2:] - px[:, :2]) / size[:2]), axis=1)
    return cropped, _like(boxes, columns.derive(kept, _checked_boxes(moved)))


def circular_mask(image: RasterImage, cx: float, cy: float, radius: float) -> RasterImage:
    """Zero every pixel strictly outside the circle, keeping the disk.

    Distances are measured at integer pixel coordinates (column ``x``,
    row ``y``). Applying the same mask twice is a no-op.
    """
    if not all(map(math.isfinite, (cx, cy, radius))):
        raise OutOfRange(f"circle ({cx}, {cy}, {radius}) is not finite")
    if radius < 0:
        raise OutOfRange(f"radius must be non-negative, got {radius}")
    arr = image.to_array().copy()
    r2 = radius * radius
    # A square that overflows to inf still compares correctly.
    with np.errstate(over="ignore"):
        dx2 = (np.arange(image.width, dtype=np.float64) - cx) ** 2
        dy2 = (np.arange(image.height, dtype=np.float64) - cy) ** 2
        # Rounded subtraction, squaring and addition are monotone, so along a
        # row dx2 + dy2 falls to column mid and rises after it: the pixels the
        # test keeps form one run of columns lo..hi-1 around mid (lo > hi if none).
        mid = int(np.argmin(dx2))
        lo = mid + 1 - _kept_run(dx2[mid::-1], dy2, r2)
        hi = mid + _kept_run(dx2[mid:], dy2, r2)
    # In row-major order, zero from the end of each row's run to the start of
    # the next row's run (these gaps overlap across a row that keeps nothing).
    row_start = np.arange(image.height) * image.width
    pixels = arr.reshape(-1, image.channels)
    for gap_start, gap_stop in zip([0, *(row_start + hi).tolist()],
                                   [*(row_start + lo).tolist(), len(pixels)]):
        pixels[gap_start:gap_stop] = 0
    arr.flags.writeable = False
    return RasterImage(image.width, image.height, image.channels, arr)


def _kept_run(dx2: np.ndarray, dy2: np.ndarray, r2: float) -> np.ndarray:
    """For each row ``y``, how many leading columns of the non-decreasing
    ``dx2`` pass ``circular_mask``'s test, found by bisection with that test."""
    kept = np.zeros(len(dy2), dtype=np.intp)
    step = 1 << (len(dx2).bit_length() - 1)
    while step:
        # Columns below kept pass; extend the run by step where the last of
        # them exists and passes too.
        probe = kept + step
        passes = ~(dx2[np.minimum(probe, len(dx2)) - 1] + dy2 > r2)
        kept = np.where((probe <= len(dx2)) & passes, probe, kept)
        step >>= 1
    return kept


def area_quantile(boxes: Iterable[Box2D] | np.ndarray, q: float) -> float:
    """Quantile of normalized box areas with linear interpolation.

    ``boxes`` are :class:`Box2D` objects or an ``(n, 4)`` array of
    ``cx, cy, w, h`` rows (``BoxColumns.boxes``).
    """
    if not 0.0 <= q <= 1.0:
        raise OutOfRange(f"quantile rank must lie in [0, 1], got {q}")
    rows = boxes if isinstance(boxes, np.ndarray) else _box_array(list(boxes))
    if not len(rows):
        raise LarvaekitError("no boxes to take a quantile over")
    return float(np.quantile(rows[:, 2] * rows[:, 3], q))


def enlarge_small_boxes(
    boxes: Sequence[AnyBox],
    area_threshold: float,
    mode: str = "literal",
) -> Sequence[AnyBox]:
    """Grow boxes whose area falls below ``area_threshold``.

    With ``mode="literal"`` both extents are multiplied by the full area
    ratio ``f = threshold / area``, so the new area overshoots to
    ``threshold**2 / area``. ``mode="normalize"`` scales by ``sqrt(f)``
    instead, landing exactly on the threshold. Centers never move; boxes
    that would spill outside the unit square are shrunk symmetrically
    until they fit. Boxes not grown are handed back as they came.
    """
    if not 0.0 < area_threshold <= 1.0:
        raise OutOfRange(f"area threshold must lie in (0, 1], got {area_threshold}")
    if mode not in ENLARGE_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, ENLARGE_MODES))}, got {mode!r}")
    columns = _columns(boxes)
    rows = columns.boxes.copy()
    grown = rows[:, 2] * rows[:, 3] < area_threshold
    cx, cy, w, h = rows[grown].T
    with np.errstate(over="ignore"):
        scale = area_threshold / (w * h)
        if mode == "normalize":
            scale = np.sqrt(scale)
        w = np.minimum(w * scale, 2 * np.minimum(cx, 1.0 - cx))
        h = np.minimum(h * scale, 2 * np.minimum(cy, 1.0 - cy))
    rows[grown] = _checked_boxes(np.stack((cx, cy, w, h), axis=1))
    return _like(boxes, columns.derive(np.arange(len(rows)), rows, grown))


def _noise_sd(variance: float) -> float:
    if not 0 <= variance < math.inf:
        raise OutOfRange(f"variance must be finite and non-negative, got {variance}")
    return math.sqrt(variance)


def add_gaussian_noise(image: RasterImage, variance: float, seed: int) -> RasterImage:
    """Add i.i.d. Gaussian noise per sample, then round and clamp to 8 bits.

    The same ``(variance, seed)`` pair always produces the same bytes for
    the same input: the noise is ``np.random.default_rng(seed).normal(0.0,
    sqrt(variance), n)`` over the ``n`` samples in storage order, drawn in
    strips that continue one stream. ``variance=0`` returns the image
    unchanged.
    """
    sd = _noise_sd(variance)
    if variance == 0:
        return image
    samples = np.frombuffer(image.pixels, dtype=np.uint8)
    noisy = np.empty_like(samples)
    rng = np.random.default_rng(seed)
    buffer = np.empty(min(_STRIP_SAMPLES, samples.size))
    for start in range(0, samples.size, _STRIP_SAMPLES):
        stop = min(start + _STRIP_SAMPLES, samples.size)
        strip = buffer[: stop - start]
        # normal(0.0, sd) draws these standard normals and returns 0.0 + sd * z,
        # which differs from sd * z only in the sign of a zero; adding the
        # sample erases it.
        rng.standard_normal(out=strip)
        strip *= sd
        strip += samples[start:stop]
        np.rint(strip, out=strip)
        np.clip(strip, 0, 255, out=strip)
        noisy[start:stop] = strip
    noisy.flags.writeable = False
    return RasterImage(image.width, image.height, image.channels, noisy)


def rotate90(
    image: RasterImage, boxes: Sequence[AnyBox]
) -> tuple[RasterImage, Sequence[AnyBox]]:
    """Rotate a quarter turn counter-clockwise, remapping boxes with it.

    A ``W x H`` image becomes ``H x W``; a normalized box ``(cx, cy, w, h)``
    maps to ``(cy, 1 - cx, h, w)``. Four applications restore the original
    scene (up to float rounding in the box centers).
    """
    # Each pixel as one opaque item, so the turn moves whole pixels.
    pixels = np.frombuffer(image.pixels, dtype=f"V{image.channels}")
    pixels = np.rot90(pixels.reshape(image.height, image.width), k=1)
    rotated = RasterImage(image.height, image.width, image.channels, pixels.tobytes())
    columns = _columns(boxes)
    cx, cy, w, h = columns.boxes.T
    turned = _checked_boxes(np.stack((cy, 1.0 - cx, h, w), axis=1))
    return rotated, _like(boxes, columns.derive(np.arange(len(turned)), turned))
