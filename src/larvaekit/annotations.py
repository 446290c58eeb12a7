"""Normalized box annotations, label files and dataset manifests.

Label files follow the one-line-per-box convention used by the detector
tooling: ``class cx cy w h`` for ground truth and ``class cx cy w h conf``
for predictions, all coordinates normalized to the image size. Manifests
are CSV files binding image ids to their files and acquisition metadata.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import (
    AnnotationLoadError,
    BadDensity,
    DegenerateBox,
    DuplicateImageId,
    MalformedLine,
    MissingColumn,
    OutOfRange,
)

# Edge coordinates may stray this far outside [0, 1] before we refuse them;
# anything closer is treated as serialization jitter and clamped.
BOUNDS_TOLERANCE = 1e-6

# Stocking densities (larvae per tank) used across the rearing experiments.
DENSITY_GROUPS = (50, 100, 150, 200, 300, 400, 500)

MANIFEST_COLUMNS = (
    "image_id",
    "image_path",
    "gt_path",
    "pred_path",
    "width_px",
    "height_px",
    "density_group",
    "day_label",
)


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box in normalized image coordinates.

    ``cx, cy`` locate the center and ``w, h`` the full extents, all as
    fractions of image width/height. ``y`` grows downward (row order).
    Edges up to ``BOUNDS_TOLERANCE`` outside the unit square are clamped
    back in; larger violations raise :class:`OutOfRange`. A box whose
    float64 corners (``cx - w/2`` and ``cx + w/2``, likewise in y)
    coincide, or whose area underflows to 0, raises :class:`DegenerateBox`,
    so every box that exists can be scored.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"{name} is not finite")
        if self.w <= 0 or self.h <= 0:
            raise DegenerateBox(f"box extents must be positive, got w={self.w} h={self.h}")
        x1, x2 = self.cx - self.w / 2, self.cx + self.w / 2
        y1, y2 = self.cy - self.h / 2, self.cy + self.h / 2
        lo, hi = -BOUNDS_TOLERANCE, 1.0 + BOUNDS_TOLERANCE
        if x1 < lo or y1 < lo or x2 > hi or y2 > hi:
            raise OutOfRange(
                f"box ({self.cx}, {self.cy}, {self.w}, {self.h}) lies outside the unit square"
            )
        if x1 < 0.0 or y1 < 0.0 or x2 > 1.0 or y2 > 1.0:
            # Clamp the offending edges only; in-bounds boxes keep their
            # parsed coordinates bit for bit.
            x1, x2 = min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0)
            y1, y2 = min(max(y1, 0.0), 1.0), min(max(y2, 0.0), 1.0)
            object.__setattr__(self, "cx", (x1 + x2) / 2)
            object.__setattr__(self, "cy", (y1 + y2) / 2)
            object.__setattr__(self, "w", x2 - x1)
            object.__setattr__(self, "h", y2 - y1)
        # The corners as to_absolute(box, 1, 1) computes them from the final fields.
        x1, x2 = self.cx - self.w / 2, self.cx + self.w / 2
        y1, y2 = self.cy - self.h / 2, self.cy + self.h / 2
        if x2 <= x1 or y2 <= y1 or self.w * self.h == 0.0:
            raise DegenerateBox(
                f"box ({self.cx}, {self.cy}, {self.w}, {self.h}) has no extent in float64"
            )

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class LabeledBox:
    """Ground-truth box with its integer class id."""

    class_id: int
    box: Box2D


@dataclass(frozen=True)
class ScoredBox:
    """Predicted box with class id and detector confidence in [0, 1]."""

    class_id: int
    box: Box2D
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise OutOfRange(f"confidence {self.confidence} outside [0, 1]")


AnyBox = Union[LabeledBox, ScoredBox]


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


def parse_label_file(text: str, kind: str = "gt") -> list[AnyBox]:
    """Parse a label file into boxes.

    ``kind`` selects the line shape: ``"gt"`` expects 5 fields per line,
    ``"pred"`` expects 6 (trailing confidence). Blank lines are skipped;
    every other line must parse, so the returned list has exactly one
    entry per non-empty input line.
    """
    if kind not in ("gt", "pred"):
        raise ValueError(f"kind must be 'gt' or 'pred', got {kind!r}")
    want = 5 if kind == "gt" else 6
    boxes: list[AnyBox] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != want:
            raise MalformedLine(line_no, f"expected {want} fields, got {len(fields)}")
        try:
            class_id = int(fields[0])
        except ValueError:
            raise MalformedLine(line_no, f"class id {fields[0]!r} is not an integer") from None
        if class_id < 0:
            raise MalformedLine(line_no, f"class id must be non-negative, got {class_id}")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            raise MalformedLine(line_no, f"non-numeric field in {raw!r}") from None
        try:
            box = Box2D(*values[:4])
            if kind == "gt":
                boxes.append(LabeledBox(class_id, box))
            else:
                boxes.append(ScoredBox(class_id, box, values[4]))
        except (DegenerateBox, OutOfRange) as err:
            raise OutOfRange(str(err), line_no) from None
    return boxes


def serialize_label_file(boxes: Sequence[AnyBox]) -> str:
    """Render boxes back to label-file text, six decimals, LF endings.

    Raises :class:`DegenerateBox` for a box whose width or height rounds to
    ``0.000000``, since that line could not be parsed back.
    """
    lines = []
    for item in boxes:
        b = item.box
        w, h = f"{b.w:.6f}", f"{b.h:.6f}"
        if "0.000000" in (w, h):
            raise DegenerateBox(
                f"box ({b.cx}, {b.cy}, {b.w}, {b.h}) has no extent at six decimals"
            )
        line = f"{item.class_id} {b.cx:.6f} {b.cy:.6f} {w} {h}"
        if isinstance(item, ScoredBox):
            line += f" {item.confidence:.6f}"
        lines.append(line + "\n")
    return "".join(lines)


def detect_kind(text: str) -> str | None:
    """Guess 'gt' or 'pred' from the first non-empty line; None if empty."""
    for raw in text.splitlines():
        n = len(raw.split())
        if n == 0:
            continue
        return "pred" if n == 6 else "gt"
    return None


@dataclass(frozen=True)
class ImageAnnotation:
    """Ground truth and predictions for one image."""

    image_id: str
    width_px: int
    height_px: int
    ground_truth: tuple[LabeledBox, ...]
    predictions: tuple[ScoredBox, ...]


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    image_path: str
    gt_path: str
    pred_path: str
    width_px: int
    height_px: int
    density_group: int | None
    day_label: str | None


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered collection of manifest entries with unique image ids."""

    entries: tuple[ManifestEntry, ...]

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _csv_rows(text: str, required: Sequence[str], what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(row number, row)`` for CSV ``text``, the header being row 1.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    skipped. A header lacking a ``required`` column raises
    :class:`MissingColumn` naming ``what``; a CSV syntax error, such as an
    oversized field, raises :class:`MalformedLine` at the line it was read on.
    """
    reader = csv.DictReader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        missing = [c for c in required if c not in (reader.fieldnames or ())]
        if missing:
            raise MissingColumn(f"{what} lacks column(s): {', '.join(missing)}")
        yield from enumerate(reader, start=2)
    except csv.Error as err:
        raise MalformedLine(reader.reader.line_num, str(err)) from None


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted if it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def load_manifest(text: str) -> DatasetManifest:
    """Parse a manifest CSV.

    The header must contain all of :data:`MANIFEST_COLUMNS`; extra columns
    are ignored. ``density_group`` and ``day_label`` may be empty. A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    entries = []
    seen: set[str] = set()
    for row_no, row in _csv_rows(text, MANIFEST_COLUMNS, "manifest header"):
        image_id = (row["image_id"] or "").strip()
        if not image_id:
            raise MalformedLine(row_no, "empty image_id")
        if image_id in seen:
            raise DuplicateImageId(f"image_id {image_id!r} appears more than once")
        seen.add(image_id)
        try:
            width = int(row["width_px"])
            height = int(row["height_px"])
        except (TypeError, ValueError):
            raise MalformedLine(row_no, "width_px and height_px must be integers") from None
        if width <= 0 or height <= 0:
            raise OutOfRange("image dimensions must be positive", row_no)
        density_raw = (row["density_group"] or "").strip()
        density: int | None = None
        if density_raw:
            try:
                density = int(density_raw)
            except ValueError:
                raise BadDensity(f"density_group {density_raw!r} is not an integer") from None
            if density not in DENSITY_GROUPS:
                raise BadDensity(
                    f"density_group {density} not one of {', '.join(map(str, DENSITY_GROUPS))}"
                )
        day = (row["day_label"] or "").strip() or None
        paths = [(row[c] or "").strip() for c in ("image_path", "gt_path", "pred_path")]
        if any("\0" in path for path in paths):
            raise MalformedLine(row_no, "a path holds a NUL byte")
        entries.append(
            ManifestEntry(
                image_id=image_id,
                image_path=paths[0],
                gt_path=paths[1],
                pred_path=paths[2],
                width_px=width,
                height_px=height,
                density_group=density,
                day_label=day,
            )
        )
    return DatasetManifest(tuple(entries))


def load_image_annotation(entry: ManifestEntry, root: Path | str = ".") -> ImageAnnotation:
    """Read the label files behind a manifest entry.

    Paths are resolved against ``root`` (normally the manifest's directory).
    An empty path yields an empty box list. I/O, decoding and parse
    failures are re-raised as :class:`AnnotationLoadError` naming the image.
    """
    root = Path(root)
    try:
        gt: tuple[LabeledBox, ...] = ()
        if entry.gt_path:
            gt = tuple(parse_label_file((root / entry.gt_path).read_text(), kind="gt"))
        preds: tuple[ScoredBox, ...] = ()
        if entry.pred_path:
            preds = tuple(parse_label_file((root / entry.pred_path).read_text(), kind="pred"))
    except (OSError, UnicodeDecodeError, MalformedLine, OutOfRange) as err:
        raise AnnotationLoadError(entry.image_id, err) from err
    return ImageAnnotation(
        image_id=entry.image_id,
        width_px=entry.width_px,
        height_px=entry.height_px,
        ground_truth=gt,
        predictions=preds,
    )
