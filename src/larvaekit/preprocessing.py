"""Geometric and photometric preprocessing for images plus their boxes.

Every operation is pure: it returns new objects and leaves its inputs
untouched, so pipelines can be composed and re-run freely. Box
operations take columns (:class:`~larvaekit.annotations.BoxColumns`) or
any sequence of boxes, work on the columns a row at a time, check each
row they move as :class:`Box2D` would, and always hand back columns.
Crop, mask and rotate slice the pixel bytes; only noise imports numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Iterable, Sequence

from . import ENLARGE_MODES
from .annotations import AnyBox, BoxColumns, _box_fields, _columns
from .errors import LarvaekitError, OutOfRange
from .raster import RasterImage

# Boxes whose clipped area falls below this fraction of the crop window are
# discarded rather than kept as slivers.
MIN_CLIPPED_AREA_FRACTION = 1e-6

# Noise works on strips of at most this many samples, so its two float64
# buffers stay a fixed size whatever the frames.
_STRIP_SAMPLES = 1 << 16


def center_crop(
    image: RasterImage,
    boxes: Sequence[AnyBox],
    target_w: int,
    target_h: int,
) -> tuple[RasterImage, BoxColumns]:
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
    row = image.width * image.channels
    start = off_y * row + off_x * image.channels
    span = target_w * image.channels
    pixels = memoryview(image.pixels)
    cropped = RasterImage(target_w, target_h, image.channels, b"".join(
        pixels[i : i + span] for i in range(start, start + target_h * row, row)))
    columns = _columns(boxes)
    if (off_x, off_y, target_w, target_h) == (0, 0, image.width, image.height):
        # Full-frame crop: hand the boxes back untouched.
        return cropped, columns
    width, height = float(target_w), float(target_h)
    min_area = MIN_CLIPPED_AREA_FRACTION * target_w * target_h
    kept, moved = [], []
    for i, (cx, cy, w, h) in enumerate(columns.boxes):
        # Pixel corners: the unit-square corners (cx -+ w/2, cy -+ h/2) times
        # the image size, shifted into the window and clipped to it.
        x1 = min(max((cx - w / 2) * image.width - off_x, 0.0), width)
        y1 = min(max((cy - h / 2) * image.height - off_y, 0.0), height)
        x2 = min(max((cx + w / 2) * image.width - off_x, 0.0), width)
        y2 = min(max((cy + h / 2) * image.height - off_y, 0.0), height)
        if not (x2 - x1) * (y2 - y1) < min_area:
            kept.append(i)
            # Back to centers and extents, as fractions of the crop size.
            moved.append(_box_fields((x1 + x2) / (2 * width), (y1 + y2) / (2 * height),
                                     (x2 - x1) / width, (y2 - y1) / height))
    return cropped, columns.derive(kept, moved)


def circular_mask(image: RasterImage, cx: float, cy: float, radius: float) -> RasterImage:
    """Zero every pixel strictly outside the circle, keeping the disk.

    Distances are measured at integer pixel coordinates (column ``x``,
    row ``y``). Applying the same mask twice is a no-op.
    """
    if not all(map(math.isfinite, (cx, cy, radius))):
        raise OutOfRange(f"circle ({cx}, {cy}, {radius}) is not finite")
    if radius < 0:
        raise OutOfRange(f"radius must be non-negative, got {radius}")
    width, channels = image.width, image.channels
    # Float coordinates whatever the argument types, and squares by
    # multiplication: one that overflows is inf, which still compares
    # correctly, where ** would raise OverflowError.
    cx, cy, r2 = float(cx), float(cy), radius * radius
    dx2 = [(x - cx) * (x - cx) for x in range(width)]
    # Rounded subtraction, squaring and addition are monotone, so along a row
    # dx2 + dy2 falls to column mid and rises after it: the pixels the test
    # keeps form one run of columns lo..hi-1 around mid (lo > hi if none),
    # whose ends bisection with that test finds on either side of mid.
    mid = dx2.index(min(dx2))
    left, right = dx2[mid::-1], dx2[mid:]
    pixels = bytearray(image.pixels)
    gap_start = 0
    for y in range(image.height):
        dy2 = (y - cy) * (y - cy)

        def outside(d: float) -> bool:
            return d + dy2 > r2

        # In row-major order, zero from the end of the previous row's run to the
        # start of this one's (these gaps overlap across a row that keeps nothing).
        lo = mid + 1 - bisect_left(left, True, key=outside)
        start, stop = gap_start * channels, (y * width + lo) * channels
        if start < stop:
            pixels[start:stop] = bytes(stop - start)
        gap_start = y * width + mid + bisect_left(right, True, key=outside)
    pixels[gap_start * channels :] = bytes(len(pixels) - gap_start * channels)
    return RasterImage(width, image.height, channels, memoryview(pixels).toreadonly())


def area_quantile(boxes: Iterable[tuple[float, float, float, float]], q: float) -> float:
    """Quantile of normalized box areas, interpolated as ``numpy.quantile``'s
    default (linear) method does it.

    ``boxes`` are ``(cx, cy, w, h)`` rows, such as ``BoxColumns.boxes``.
    """
    if not 0.0 <= q <= 1.0:
        raise OutOfRange(f"quantile rank must lie in [0, 1], got {q}")
    areas = sorted(w * h for _, _, w, h in boxes)
    if not areas:
        raise LarvaekitError("no boxes to take a quantile over")
    # The rank (n - 1) * q falls between two sorted areas; the weight t of the
    # upper one is its fraction, and numpy interpolates from the nearer end.
    last = len(areas) - 1
    rank = last * q
    if rank >= last:
        return float(areas[-1])
    below = math.floor(rank)
    t = rank - below
    a, b = areas[below], areas[below + 1]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def enlarge_small_boxes(
    boxes: Sequence[AnyBox],
    area_threshold: float,
    mode: str = "literal",
) -> BoxColumns:
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
    changed = [w * h < area_threshold for _, _, w, h in columns.boxes]
    moved = list(columns.boxes)
    for i in compress(range(len(changed)), changed):
        cx, cy, w, h = moved[i]
        scale = area_threshold / (w * h)
        if mode == "normalize":
            scale = math.sqrt(scale)
        moved[i] = _box_fields(cx, cy, min(w * scale, 2 * min(cx, 1.0 - cx)),
                               min(h * scale, 2 * min(cy, 1.0 - cy)))
    return columns.derive(range(len(moved)), moved, changed)


def _noise_sd(variance: float) -> float:
    if not 0 <= variance < math.inf:
        raise OutOfRange(f"variance must be finite and non-negative, got {variance}")
    return math.sqrt(variance)


def add_gaussian_noise(
    images: Iterable[RasterImage], variance: float, seed: int
) -> list[RasterImage]:
    """Add i.i.d. Gaussian noise per sample to each image, then round and
    clamp to 8 bits.

    Every image gets the same noise: over its ``n`` samples in storage order
    it is ``np.random.default_rng(seed).normal(0.0, sqrt(variance), n)``, so
    the same ``(variance, seed)`` pair always produces the same bytes for the
    same image, whatever images share the call. That stream is drawn once,
    in strips that continue it, and each strip is added to every image long
    enough to reach it. Each image is copied as it is taken from ``images``,
    so the call holds a copy of each image, and one input while copying it.
    ``variance=0`` returns the images unchanged.
    """
    sd = _noise_sd(variance)
    if variance == 0:
        return list(images)
    import numpy as np

    # No input outlives its copy: the copies are noised in place.
    copies = [((image.width, image.height, image.channels),
               np.frombuffer(image.pixels, dtype=np.uint8).copy()) for image in images]
    reaching = [samples for _, samples in copies]
    longest = max((samples.size for samples in reaching), default=0)
    rng = np.random.default_rng(seed)
    noise, buffer = np.empty((2, min(_STRIP_SAMPLES, longest)))
    for start in range(0, longest, _STRIP_SAMPLES):
        scaled = noise[: min(_STRIP_SAMPLES, longest - start)]
        # normal(0.0, sd) draws these standard normals and returns 0.0 + sd * z,
        # which differs from sd * z only in the sign of a zero; adding the
        # sample erases it.
        rng.standard_normal(out=scaled)
        scaled *= sd
        reaching = [samples for samples in reaching if samples.size > start]
        for samples in reaching:
            # A shorter image takes a prefix of the strip.
            span = samples[start : start + scaled.size]
            strip = np.add(scaled[: span.size], span, out=buffer[: span.size])
            np.rint(strip, out=strip)
            np.clip(strip, 0, 255, out=strip)
            span[:] = strip
    for _, samples in copies:
        samples.flags.writeable = False
    return [RasterImage(*shape, samples) for shape, samples in copies]


def rotate90(
    image: RasterImage, boxes: Sequence[AnyBox]
) -> tuple[RasterImage, BoxColumns]:
    """Rotate a quarter turn counter-clockwise, remapping boxes with it.

    A ``W x H`` image becomes ``H x W``; a normalized box ``(cx, cy, w, h)``
    maps to ``(cy, 1 - cx, h, w)``. Four applications restore the original
    scene (up to float rounding in the box centers).
    """
    width, height, channels = image.width, image.height, image.channels
    # Strided slices of bytes copy fastest; output row r is source column
    # width - 1 - r read top to bottom, one channel at a time.
    source = bytes(image.pixels)
    pixels = bytearray(len(source))
    row, column = width * channels, height * channels
    for r in range(width):
        x = (width - 1 - r) * channels
        for c in range(channels):
            pixels[r * column + c : (r + 1) * column : channels] = source[x + c :: row]
    rotated = RasterImage(height, width, channels, memoryview(pixels).toreadonly())
    columns = _columns(boxes)
    turned = [_box_fields(cy, 1.0 - cx, h, w) for cx, cy, w, h in columns.boxes]
    return rotated, columns.derive(range(len(turned)), turned)
