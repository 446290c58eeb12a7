"""Normalized box annotations, label files and dataset manifests.

Label files follow the one-line-per-box convention used by the detector
tooling: ``class cx cy w h`` for ground truth and ``class cx cy w h conf``
for predictions, all coordinates normalized to the image size. Manifests
are CSV files binding image ids to their files and acquisition metadata.

A parsed label file is held as columns (:class:`BoxColumns`): plain
Python lists of the class ids, the ``(cx, cy, w, h)`` boxes and the
scores, which the matcher, counter and image operations work on
directly. Read as a sequence, the columns give the per-box objects.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import starmap
from numbers import Integral
from pathlib import Path
from typing import Iterator, Union

from .errors import (
    AnnotationLoadError,
    DegenerateBox,
    LarvaekitError,
    MalformedLine,
    OutOfRange,
)

# Edge coordinates may stray this far outside [0, 1] before we refuse them;
# anything closer is treated as serialization jitter and clamped.
BOUNDS_TOLERANCE = 1e-6

# The shapes a label file can take: 5 fields a line, or 6 with a confidence.
LABEL_KINDS = ("gt", "pred")

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


def _box_fields(cx: float, cy: float, w: float, h: float) -> tuple[float, float, float, float]:
    """The fields a :class:`Box2D` of these values holds, or the error it raises."""
    x1, x2 = cx - w / 2, cx + w / 2
    y1, y2 = cy - h / 2, cy + h / 2
    if 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0 and w * h != 0.0:
        # Finite, inside the unit square, nothing to clamp: every check below passes.
        return cx, cy, w, h
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not math.isfinite(value):
            raise OutOfRange(f"{name} is not finite")
    if w <= 0 or h <= 0:
        raise DegenerateBox(f"box extents must be positive, got w={w} h={h}")
    lo, hi = -BOUNDS_TOLERANCE, 1.0 + BOUNDS_TOLERANCE
    if x1 < lo or y1 < lo or x2 > hi or y2 > hi:
        raise OutOfRange(f"box ({cx}, {cy}, {w}, {h}) lies outside the unit square")
    if x1 < 0.0 or y1 < 0.0 or x2 > 1.0 or y2 > 1.0:
        # Clamp the offending edges only; in-bounds boxes keep their
        # parsed coordinates bit for bit.
        x1, x2 = min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0)
        y1, y2 = min(max(y1, 0.0), 1.0), min(max(y2, 0.0), 1.0)
        cx, cy, w, h = (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1
    # The corners of the final fields, as the matcher and the crop compute them.
    x1, x2 = cx - w / 2, cx + w / 2
    y1, y2 = cy - h / 2, cy + h / 2
    if x2 <= x1 or y2 <= y1 or w * h == 0.0:
        raise DegenerateBox(f"box ({cx}, {cy}, {w}, {h}) has no extent in float64")
    return cx, cy, w, h


def _checked_confidence(confidence: float) -> float:
    if not 0.0 <= confidence <= 1.0:
        raise OutOfRange(f"confidence {confidence} outside [0, 1]")
    return confidence


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
        cx, cy, w, h = _box_fields(self.cx, self.cy, self.w, self.h)
        self.__dict__.update(cx=cx, cy=cy, w=w, h=h)

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
        _checked_confidence(self.confidence)


AnyBox = Union[LabeledBox, ScoredBox]


def _stored_box(cx: float, cy: float, w: float, h: float) -> Box2D:
    """A :class:`Box2D` holding fields that ``Box2D`` has already checked."""
    box = object.__new__(Box2D)
    box.__dict__.update(cx=cx, cy=cy, w=w, h=h)
    return box


class BoxColumns(Sequence):
    """Labeled or scored boxes held as columns.

    ``class_ids`` is a list of Python ints, ``boxes`` a list of
    ``(cx, cy, w, h)`` tuples of floats as :class:`Box2D` stores them, and
    ``confidence`` a list of the float scores (None for ground truth).
    As a sequence it yields :class:`LabeledBox` or :class:`ScoredBox`
    items, built on first access and compared by value with any other
    sequence of boxes.

    Columns derived with :meth:`derive` keep the items of the rows they
    leave unchanged, so ``derived[j] is source[index[j]]`` for those rows.
    """

    __slots__ = ("class_ids", "boxes", "confidence", "_items", "_source")

    def __init__(self, class_ids: list[int], boxes: list[tuple[float, float, float, float]],
                 confidence: list[float] | None = None, items: list[AnyBox] | None = None,
                 source: tuple | None = None):
        self.class_ids, self.boxes, self.confidence = class_ids, boxes, confidence
        self._items = items
        self._source = source

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self):
        return iter(self._objects())

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"BoxColumns({self._objects()!r})"

    def derive(self, index: Sequence[int], boxes: list[tuple[float, float, float, float]],
               changed: Sequence[bool] | None = None):
        """Rows ``index`` of these columns with ``boxes`` in place of theirs.

        ``changed`` marks the rows whose box is new (all by default); the
        others keep their items.
        """
        if changed is None:
            changed = [True] * len(index)
        confidence = None
        if self.confidence is not None:
            confidence = list(map(self.confidence.__getitem__, index))
        return BoxColumns(list(map(self.class_ids.__getitem__, index)), boxes, confidence,
                          source=(self, index, changed))

    def _objects(self) -> list[AnyBox]:
        if self._items is None:
            if self._source is None:
                boxes = starmap(_stored_box, self.boxes)
                if self.confidence is None:
                    self._items = list(map(LabeledBox, self.class_ids, boxes))
                else:
                    self._items = list(map(ScoredBox, self.class_ids, boxes, self.confidence))
            else:
                parent, index, changed = self._source
                items = parent._objects()
                self._items = [replace(items[i], box=_stored_box(*row)) if new else items[i]
                               for i, row, new in zip(index, self.boxes, changed)]
        return self._items


def _columns(boxes: Sequence[AnyBox]) -> BoxColumns:
    """``boxes`` as columns; a list of items keeps them as the columns' items.

    ``confidence`` is filled when every item is a :class:`ScoredBox`.
    """
    if isinstance(boxes, BoxColumns):
        return boxes
    items = list(boxes)
    confidence = None
    if all(isinstance(item, ScoredBox) for item in items):
        confidence = [float(item.confidence) for item in items]
    return BoxColumns([item.class_id for item in items],
                      [(float(b.cx), float(b.cy), float(b.w), float(b.h))
                       for b in (item.box for item in items)], confidence, items)


def _scored(boxes: Sequence[AnyBox]) -> BoxColumns:
    """``boxes`` as columns, refused unless every box carries a confidence."""
    columns = _columns(boxes)
    if columns.confidence is None:
        raise ValueError("predictions need a confidence per box; these boxes have none")
    return columns


def _lines(text: str) -> list[str]:
    """The lines of ``text``, ended only by LF, CRLF or CR as universal-newline
    reading counts them; any other line break ``str.splitlines`` knows, such
    as a form feed or U+2028, stays inside its line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_label_file(text: str, kind: str = "gt") -> BoxColumns:
    """Parse a label file into boxes.

    ``kind`` selects the line shape: ``"gt"`` expects 5 fields per line,
    ``"pred"`` expects 6 (trailing confidence). Lines end at LF, CRLF or CR
    only, and fields are separated by any whitespace. Blank lines are
    skipped; every other line must parse, so the result has exactly one
    entry per non-empty input line. The first line that does not parse
    raises the error of the first check it fails: field count, integer
    class, class sign, numeric fields, box, confidence. The boxes come back as
    :class:`BoxColumns`, a sequence of :class:`LabeledBox` or :class:`ScoredBox`.
    """
    if kind not in LABEL_KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, LABEL_KINDS))}, got {kind!r}")
    want = 5 if kind == "gt" else 6
    class_ids, boxes = [], []
    confidence = [] if kind == "pred" else None
    for line_no, raw in enumerate(_lines(text), start=1):
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
            cx, cy, w, h = float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
            if confidence is not None:
                score = float(fields[5])
        except ValueError:
            raise MalformedLine(line_no, f"non-numeric field in {raw!r}") from None
        try:
            boxes.append(_box_fields(cx, cy, w, h))
            if confidence is not None:
                confidence.append(_checked_confidence(score))
        except (DegenerateBox, OutOfRange) as err:
            raise OutOfRange(str(err), line_no) from None
        class_ids.append(class_id)
    return BoxColumns(class_ids, boxes, confidence)


def serialize_label_file(boxes: Sequence[AnyBox]) -> str:
    """Render boxes back to label-file text, six decimals, LF endings.

    Raises :class:`DegenerateBox` for a box whose width or height rounds to
    ``0.000000``, and ``ValueError`` for a class id that is not a
    non-negative integer (a ``bool`` is not one), since no such line could
    be parsed back; ``ValueError`` too for a sequence that mixes
    :class:`LabeledBox` and :class:`ScoredBox` items, since no kind parses
    such a file.
    """
    if not isinstance(boxes, BoxColumns):
        items = list(boxes)
        if len({isinstance(item, ScoredBox) for item in items}) > 1:
            raise ValueError("boxes mix ground truth and predictions; a label file holds one kind")
        boxes = _columns(items)
    ids = boxes.class_ids
    # Plain ints, as every parse gives, are checked without a per-id loop.
    if not (set(map(type, ids)) <= {int} and min(ids, default=0) >= 0):
        for class_id in ids:
            if isinstance(class_id, bool) or not isinstance(class_id, Integral) or class_id < 0:
                raise ValueError(f"class id {class_id!r} is not a non-negative integer; "
                                 "a label file could not hold it")
    # Only an extent below 1e-6 can print as 0.000000.
    for cx, cy, w, h in boxes.boxes:
        if (w < 1e-6 or h < 1e-6) and "0.000000" in (f"{w:.6f}", f"{h:.6f}"):
            raise DegenerateBox(f"box ({cx}, {cy}, {w}, {h}) has no extent at six decimals")
    # The class ids, then the box columns (none when there is no box).
    fields = [boxes.class_ids, *zip(*boxes.boxes)]
    line = "%s %.6f %.6f %.6f %.6f\n"
    if boxes.confidence is not None:
        fields.append(boxes.confidence)
        line = line[:-1] + " %.6f\n"
    return "".join(map(line.__mod__, zip(*fields)))


def detect_kind(text: str) -> str | None:
    """Guess 'gt' or 'pred' from the first non-empty line; None if empty."""
    first = text.lstrip().split("\n", 1)[0].split("\r", 1)[0].split()
    if not first:
        return None
    return "pred" if len(first) == 6 else "gt"


@dataclass(frozen=True)
class ImageAnnotation:
    """Ground truth and predictions for one image."""

    image_id: str
    ground_truth: Sequence[LabeledBox]
    predictions: Sequence[ScoredBox]


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row: an image, its label files and its grouping fields."""

    image_id: str
    image_path: str
    gt_path: str
    pred_path: str
    width_px: int
    height_px: int
    density_group: int | None
    day_label: str | None


def _csv_rows(text: str, required: Sequence[str], what: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(row number, row)`` for CSV ``text``, the header being row 1.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    skipped. A header lacking a ``required`` column raises
    :class:`LarvaekitError` naming ``what``; a CSV syntax error, such as an
    oversized field, raises :class:`MalformedLine` at the line it was read on.
    """
    reader = csv.DictReader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        missing = [c for c in required if c not in (reader.fieldnames or ())]
        if missing:
            raise LarvaekitError(f"{what} lacks column(s): {', '.join(missing)}")
        yield from enumerate(reader, start=2)
    except csv.Error as err:
        raise MalformedLine(reader.reader.line_num, str(err)) from None


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted if it holds a comma, a quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def load_manifest(text: str) -> tuple[ManifestEntry, ...]:
    """Parse a manifest CSV into its entries, in row order, with unique image ids.

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
            raise LarvaekitError(f"image_id {image_id!r} appears more than once")
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
                raise LarvaekitError(f"density_group {density_raw!r} is not an integer") from None
            if density not in DENSITY_GROUPS:
                raise LarvaekitError(
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
    return tuple(entries)


def load_image_annotation(entry: ManifestEntry, root: Path | str = ".") -> ImageAnnotation:
    """Read the label files behind a manifest entry.

    Paths are resolved against ``root`` (normally the manifest's directory).
    An empty path yields an empty box list. I/O, decoding and parse
    failures are re-raised as :class:`AnnotationLoadError` naming the image
    and, when the failure does not already name it, the label file.

    Each file is read in binary and decoded as UTF-8 with an optional
    byte-order mark; ``parse_label_file`` ends lines at LF, CRLF and CR,
    as a text-mode read would. A file that ``open`` refuses is read again
    through ``Path(root, name)``, which normalizes the name: its error names
    the normalized path, and ``a.txt/`` reads ``a.txt``. One ``Path`` read of
    every file would cost about 4 µs more a file, so both reads stay.
    """
    sides = []
    for name, kind in ((entry.gt_path, "gt"), (entry.pred_path, "pred")):
        if not name:
            sides.append(())
            continue
        try:
            try:
                with open(os.path.join(root, name), "rb") as file:
                    text = file.read().decode("utf-8-sig")
            except OSError:  # a Path for every file costs ~4 µs more a file; see above
                text = Path(root, name).read_text(encoding="utf-8-sig")
            sides.append(parse_label_file(text, kind=kind))
        except (OSError, UnicodeDecodeError, MalformedLine, OutOfRange) as err:
            raise AnnotationLoadError(entry.image_id, err, Path(root, name)) from err
    return ImageAnnotation(entry.image_id, *sides)
