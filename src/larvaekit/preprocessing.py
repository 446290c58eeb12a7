"""Geometric and photometric preprocessing for images plus their boxes.

Every operation is pure: it returns new objects and leaves its inputs
untouched, so pipelines can be composed and re-run freely.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from .annotations import AnyBox, Box2D, PixelBox, to_absolute, to_normalized
from .errors import EmptyDataset, OutOfRange, TargetTooLarge
from .raster import RasterImage

# Boxes whose clipped area falls below this fraction of the crop window are
# discarded rather than kept as slivers.
MIN_CLIPPED_AREA_FRACTION = 1e-6

# Noise and masking work on strips of at most this many samples (noise) or
# pixels (mask), so their float64 temporaries stay a fixed size whatever
# the frame.
_STRIP_SAMPLES = 1 << 16


def center_crop(
    image: RasterImage,
    boxes: Sequence[AnyBox],
    target_w: int,
    target_h: int,
) -> tuple[RasterImage, list[AnyBox]]:
    """Crop the central ``target_w x target_h`` window and remap boxes.

    Offsets are floored so odd margins favor the top-left, matching how the
    capture rig frames the tank. Boxes are clipped to the window, boxes that
    lose essentially all area are dropped, and survivors are renormalized to
    the crop size.
    """
    if target_w < 1 or target_h < 1:
        raise OutOfRange(f"crop size must be positive, got {target_w}x{target_h}")
    if target_w > image.width or target_h > image.height:
        raise TargetTooLarge(
            f"crop {target_w}x{target_h} exceeds image {image.width}x{image.height}"
        )
    off_x = (image.width - target_w) // 2
    off_y = (image.height - target_h) // 2
    arr = image.to_array()[off_y : off_y + target_h, off_x : off_x + target_w]
    cropped = RasterImage.from_array(arr)
    if (off_x, off_y, target_w, target_h) == (0, 0, image.width, image.height):
        # Full-frame crop: hand the boxes back untouched.
        return cropped, list(boxes)
    kept: list[AnyBox] = []
    min_area = MIN_CLIPPED_AREA_FRACTION * target_w * target_h
    for item in boxes:
        px = to_absolute(item.box, image.width, image.height)
        x1 = min(max(px.x_min - off_x, 0.0), float(target_w))
        x2 = min(max(px.x_max - off_x, 0.0), float(target_w))
        y1 = min(max(px.y_min - off_y, 0.0), float(target_h))
        y2 = min(max(px.y_max - off_y, 0.0), float(target_h))
        area = max(0.0, x2 - x1) * max(0.0, y2 - y1)
        if area < min_area:
            continue
        kept.append(replace(item, box=to_normalized(PixelBox(x1, y1, x2, y2), target_w, target_h)))
    return cropped, kept


def circular_mask(image: RasterImage, cx: float, cy: float, radius: float) -> RasterImage:
    """Zero every pixel strictly outside the circle, keeping the disk.

    Distances are measured at integer pixel coordinates (column ``x``,
    row ``y``). Applying the same mask twice is a no-op.
    """
    if radius < 0:
        raise OutOfRange(f"radius must be non-negative, got {radius}")
    arr = image.to_array().copy()
    r2 = radius * radius
    # Tiles of at most _STRIP_SAMPLES pixels: whole rows unless a single
    # row is wider than that.
    cols = min(image.width, _STRIP_SAMPLES)
    rows = max(1, _STRIP_SAMPLES // cols)
    for x0 in range(0, image.width, cols):
        x1 = min(x0 + cols, image.width)
        dx2 = (np.arange(x0, x1, dtype=np.float64) - cx) ** 2
        for y0 in range(0, image.height, rows):
            y1 = min(y0 + rows, image.height)
            dy2 = (np.arange(y0, y1, dtype=np.float64) - cy) ** 2
            arr[y0:y1, x0:x1][dx2 + dy2[:, np.newaxis] > r2] = 0
    return RasterImage.from_array(arr)


def area_quantile(boxes: Iterable[Box2D], q: float) -> float:
    """Quantile of normalized box areas with linear interpolation."""
    if not 0.0 <= q <= 1.0:
        raise OutOfRange(f"quantile rank must lie in [0, 1], got {q}")
    areas = np.array([b.area for b in boxes], dtype=np.float64)
    if areas.size == 0:
        raise EmptyDataset("no boxes to take a quantile over")
    return float(np.quantile(areas, q))


def enlarge_small_boxes(
    boxes: Sequence[AnyBox],
    area_threshold: float,
    mode: str = "literal",
) -> list[AnyBox]:
    """Grow boxes whose area falls below ``area_threshold``.

    With ``mode="literal"`` both extents are multiplied by the full area
    ratio ``f = threshold / area``, so the new area overshoots to
    ``threshold**2 / area``. ``mode="normalize"`` scales by ``sqrt(f)``
    instead, landing exactly on the threshold. Centers never move; boxes
    that would spill outside the unit square are shrunk symmetrically
    until they fit.
    """
    if not 0.0 < area_threshold <= 1.0:
        raise OutOfRange(f"area threshold must lie in (0, 1], got {area_threshold}")
    if mode not in ("literal", "normalize"):
        raise ValueError(f"mode must be 'literal' or 'normalize', got {mode!r}")
    out: list[AnyBox] = []
    for item in boxes:
        b = item.box
        area = b.area
        if area >= area_threshold:
            out.append(item)
            continue
        factor = area_threshold / area
        scale = factor if mode == "literal" else math.sqrt(factor)
        w = min(b.w * scale, 2 * min(b.cx, 1.0 - b.cx))
        h = min(b.h * scale, 2 * min(b.cy, 1.0 - b.cy))
        out.append(replace(item, box=Box2D(b.cx, b.cy, w, h)))
    return out


def gaussian_noise_stream(variance: float, seed: int, count: int) -> np.ndarray:
    """The exact zero-mean noise samples ``add_gaussian_noise`` draws.

    Exposed so callers can inspect the pre-clamp distribution; samples are
    generated sequentially, so the first ``k`` values do not depend on
    ``count``. ``add_gaussian_noise`` draws this same stream in strips:
    consecutive draws from one generator continue the sequence.
    """
    if variance < 0:
        raise OutOfRange(f"variance must be non-negative, got {variance}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(variance), size=count)


def add_gaussian_noise(image: RasterImage, variance: float, seed: int) -> RasterImage:
    """Add i.i.d. Gaussian noise per sample, then round and clamp to 8 bits.

    The same ``(variance, seed)`` pair always produces the same bytes for
    the same input. ``variance=0`` returns the image unchanged.
    """
    if variance < 0:
        raise OutOfRange(f"variance must be non-negative, got {variance}")
    if variance == 0:
        return image
    samples = np.frombuffer(image.pixels, dtype=np.uint8)
    noisy = np.empty_like(samples)
    rng = np.random.default_rng(seed)
    sd = math.sqrt(variance)
    for start in range(0, samples.size, _STRIP_SAMPLES):
        stop = min(start + _STRIP_SAMPLES, samples.size)
        strip = rng.normal(0.0, sd, size=stop - start)
        strip += samples[start:stop]
        np.rint(strip, out=strip)
        np.clip(strip, 0, 255, out=strip)
        noisy[start:stop] = strip
    return RasterImage(image.width, image.height, image.channels, noisy.tobytes())


def rotate90(image: RasterImage, boxes: Sequence[AnyBox]) -> tuple[RasterImage, list[AnyBox]]:
    """Rotate a quarter turn counter-clockwise, remapping boxes with it.

    A ``W x H`` image becomes ``H x W``; a normalized box ``(cx, cy, w, h)``
    maps to ``(cy, 1 - cx, h, w)``. Four applications restore the original
    scene (up to float rounding in the box centers).
    """
    arr = np.rot90(image.to_array(), k=1)
    rotated = RasterImage.from_array(arr)
    remapped = [
        replace(item, box=Box2D(item.box.cy, 1.0 - item.box.cx, item.box.h, item.box.w))
        for item in boxes
    ]
    return rotated, remapped
