"""Label columns against the per-box objects they stand in for.

Label files are parsed into columns, and the matcher, counter and box
operations work on those columns. These tests pin them to the per-box
code they replaced, kept here as oracles: the same values bit for bit,
or the same refusal with the same message.
"""

import contextlib
import io
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from larvaekit import evaluation
from larvaekit.annotations import (
    DENSITY_GROUPS,
    BOUNDS_TOLERANCE,
    Box2D,
    BoxColumns,
    LabeledBox,
    ScoredBox,
    _box_fields,
    _columns,
    detect_kind,
    load_image_annotation,
    load_manifest,
    parse_label_file,
    serialize_label_file,
)
from larvaekit.cli import main
from larvaekit.counting import count_image, density_summary, render_counts_csv, render_density_csv
from larvaekit.errors import (
    DegenerateBox,
    LarvaekitError,
    MalformedLine,
    OutOfRange,
)
from larvaekit.evaluation import (
    MatchConfig,
    evaluate_dataset,
    match_detections,
    render_eval_csv,
    render_pr_curve_csv,
)
from larvaekit.preprocessing import (
    MIN_CLIPPED_AREA_FRACTION,
    area_quantile,
    center_crop,
    enlarge_small_boxes,
    rotate90,
)
from larvaekit.raster import RasterImage, decode_raster, encode_raster

from conftest import crowded_instance, reference_greedy_flags, write_dataset
from oracles import (
    ARRAY_CHECK_MIN_ROWS,
    PixelBox,
    array_area_quantile,
    array_center_crop,
    array_enlarge_small_boxes,
    array_rotate90,
    checked_boxes,
    to_absolute,
    to_normalized,
)

MANIFEST_HEADER = "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"

# Every line boundary str.splitlines honours. A label file ends a line at the
# first three only; the others are whitespace between fields.
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
FORMATS = [repr, "{:.6f}".format, "{:e}".format, "{:.17g}".format, "{:+.3E}".format]
ODD_TOKENS = ["nan", "inf", "-inf", "NaN", "+1", "01", "-0", "1_0", "1e-15", "5e-324",
              "1e999", "0x1", "x", "", str(2**63), str(2**64 + 5), "-1", "1.5"]
CLASS_IDS = st.integers(0, 9).map(str) | st.sampled_from(
    ["+1", "01", "-1", "1.0", str(2**63 - 1), str(2**63), str(2**70)])
SCORES = ["1", "0", "-0.0", "nan", "-1e-9", "1.0000001"]

# Extents around float64 collapse (near 1e-15 at a centre of 0.5), area
# underflow, the six-decimal floor and the whole frame.
EXTENTS = (st.sampled_from([1e-15, 2e-15, 1e-16, 5e-17, 5e-324, 1e-300, 1e-7, 1.0, 1.0 + 2e-6])
           | st.floats(1e-17, 1e-13) | st.floats(1e-200, 1e-150) | st.floats(1e-9, 1.0))


@st.composite
def coordinate_rows(draw, anywhere=True):
    """``cx, cy, w, h`` inside, on and just past an edge, or ``anywhere``.

    Unless ``anywhere``, half the extents are ordinary ones.
    """
    extents = EXTENTS if anywhere else EXTENTS | st.floats(1e-6, 1.0)
    w, h = draw(extents), draw(extents)

    def centre(extent):
        half = extent / 2
        place = draw(st.sampled_from(["anywhere", "inside", "low", "high"][not anywhere:]))
        if place == "anywhere" or half > 0.5:
            return draw(st.floats(0.0, 1.0))
        if place == "inside":
            return draw(st.floats(half, 1 - half))
        jitter = draw(st.sampled_from([0.0, 5e-7, -5e-7, 1e-6, -1e-6])
                      | st.floats(-1.5e-6, 1.5e-6) | st.floats(-extent, extent))
        return (half if place == "low" else 1 - half) + jitter

    return centre(w), centre(h), w, h


ROWS = coordinate_rows() | st.tuples(*[st.floats()] * 4)


@st.composite
def label_lines(draw, kind, clean):
    """One label line; unless ``clean``, with odd class ids, scores and tokens."""
    if clean:
        fmt = draw(st.sampled_from([repr, "{:.17g}".format, "{:.16e}".format]))
        fields = [str(draw(st.integers(0, 9))), *map(fmt, draw(coordinate_rows(anywhere=False)))]
        if kind == "pred":
            fields.append(fmt(draw(st.floats(0.0, 1.0))))
        return " ".join(fields)
    fmt = draw(st.sampled_from(FORMATS))
    fields = [draw(CLASS_IDS), *map(fmt, draw(coordinate_rows()))]
    if kind == "pred":
        fields.append(draw(st.floats(0.0, 1.0).map(fmt) | st.sampled_from(SCORES)))
    if draw(st.integers(0, 4)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    return draw(st.sampled_from([" ", "\t", "  ", "\xa0"])).join(fields)


@st.composite
def label_texts(draw, kind):
    """Mostly clean lines, now and then an odd one, on any line boundary."""
    line = label_lines(kind, clean=True) | label_lines(kind, clean=True) | label_lines(kind, clean=False)
    lines = draw(st.lists(line | st.sampled_from(["", " "]), max_size=6))
    return "".join(line + draw(st.sampled_from(SEPARATORS)) for line in lines)


def texts(kind):
    return label_texts(kind) | st.text(st.characters(codec="utf-8"), max_size=80)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (LarvaekitError, ValueError, OverflowError) as err:
        return type(err), str(err)


# The per-box check and per-line parser the columns replaced, kept as oracles.


def reference_fields(cx, cy, w, h):
    """``Box2D``'s checks and edge clamp as the per-box class ran them."""
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not math.isfinite(value):
            raise OutOfRange(f"{name} is not finite")
    if w <= 0 or h <= 0:
        raise DegenerateBox(f"box extents must be positive, got w={w} h={h}")
    x1, x2 = cx - w / 2, cx + w / 2
    y1, y2 = cy - h / 2, cy + h / 2
    lo, hi = -BOUNDS_TOLERANCE, 1.0 + BOUNDS_TOLERANCE
    if x1 < lo or y1 < lo or x2 > hi or y2 > hi:
        raise OutOfRange(f"box ({cx}, {cy}, {w}, {h}) lies outside the unit square")
    if x1 < 0.0 or y1 < 0.0 or x2 > 1.0 or y2 > 1.0:
        x1, x2 = min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0)
        y1, y2 = min(max(y1, 0.0), 1.0), min(max(y2, 0.0), 1.0)
        cx, cy, w, h = (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1
    x1, x2 = cx - w / 2, cx + w / 2
    y1, y2 = cy - h / 2, cy + h / 2
    if x2 <= x1 or y2 <= y1 or w * h == 0.0:
        raise DegenerateBox(f"box ({cx}, {cy}, {w}, {h}) has no extent in float64")
    return cx, cy, w, h


def reference_parse(text, kind):
    """``(class_id, fields, confidence)`` per line, as the per-line object parser
    read them, with lines as universal-newline reading gives them."""
    want = 5 if kind == "gt" else 6
    rows = []
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        raw = raw.removesuffix("\n")
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
            box = reference_fields(*values[:4])
            confidence = None
            if kind == "pred":
                confidence = values[4]
                if not 0.0 <= confidence <= 1.0:
                    raise OutOfRange(f"confidence {confidence} outside [0, 1]")
        except (DegenerateBox, OutOfRange) as err:
            raise OutOfRange(str(err), line_no) from None
        rows.append((class_id, box, confidence))
    return rows


def column_rows(columns):
    """``reference_parse``'s rows for ``columns``."""
    scores = [None] * len(columns) if columns.confidence is None else columns.confidence
    return list(zip(columns.class_ids, columns.boxes, scores))


def plain_columns(columns):
    """Whether ``columns`` hold one int, one ``(cx, cy, w, h)`` tuple of floats
    and, when scored, one float per box."""
    return (len(columns.class_ids) == len(columns.boxes) == len(columns)
            and all(type(class_id) is int for class_id in columns.class_ids)
            and all(type(box) is tuple and len(box) == 4 and all(type(v) is float for v in box)
                    for box in columns.boxes)
            and (columns.confidence is None
                 or len(columns.confidence) == len(columns)
                 and all(type(score) is float for score in columns.confidence)))


class TestBoxFields:
    @settings(max_examples=400, deadline=None)
    @given(ROWS)
    @example((5e-171, 5e-171, 1e-170, 1e-170))  # area underflows
    @example((1.0 + 6e-7, 0.5, 4e-7, 0.1))  # collapses once clamped
    @example((0.95, 0.5, 0.1 + 1e-6, 0.2))  # clamps
    @example((1.0 + 2**-52, 0.5, 3 * 2**-52, 0.1))  # collapses once clamped and recomputed
    @example((-0.0, 0.5, 0.0, 0.1))
    # Each edge exactly BOUNDS_TOLERANCE outside the square: clamped.
    @example((0.0, 0.5, 2e-6, 0.1))
    @example((1.0, 0.5, 2e-6, 0.1))
    @example((0.5, 0.0, 0.1, 2e-6))
    @example((0.5, 1.0, 0.1, 2e-6))
    # Corners 2**-54 either side of the centre: both round to it, at a tie.
    @example((0.75, 0.5, 2**-53, 0.1))
    @example((0.5, 0.75, 0.1, 2**-53))
    def test_box_fields_are_the_per_box_check(self, row):
        # repr tells -0.0 from 0.0 and round-trips every float.
        assert repr(outcome(lambda: _box_fields(*row))) == repr(outcome(lambda: reference_fields(*row)))


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.sampled_from(["gt", "pred"]), texts("gt") | texts("pred")))
    @example(("gt", "0 0.5 0.5 0.2 0.2\n-1 0.5 0.5 0.2 0.2\n"))
    @example(("gt", "0 0.5 0.5 0.2 0.2 0.9\n"))
    @example(("gt", f"+1 0.5 0.5 0.2 0.2\r01 4e-7 5E-1 1e-6 0.1\u2028{2**64} 0.5 0.5 0.1 0.1\n"))
    @example(("pred", "0 0.5 0.5 0.2 0.2 0.5\x1c0 0.5 0.5 0.2 0.2 nan\n"))
    @example(("pred", "0 0.5 0.5 0.2 0.2 -0.0\x0b\n0 0.9999996 0.5 0.000001 0.2 1\n"))
    @example(("gt", "0 0.5 0.5 1e-15 0.1\n0 0.5 0.5 1e-16 0.1\n"))
    def test_parse_is_the_per_line_parser(self, case):
        kind, text = case
        expected = repr(outcome(lambda: reference_parse(text, kind)))
        assert repr(outcome(lambda: column_rows(parse_label_file(text, kind)))) == expected

    def test_items_are_the_parsed_objects(self):
        text = f"3 0.5 0.5 0.2 0.2 0.25\n{2**64} 0.0000004 0.5 0.000001 0.1 1\n"
        boxes = parse_label_file(text, "pred")
        assert boxes.class_ids == [3, 2**64]
        assert boxes == [ScoredBox(3, Box2D(0.5, 0.5, 0.2, 0.2), 0.25),
                         ScoredBox(2**64, Box2D(0.0000004, 0.5, 0.000001, 0.1), 1.0)]
        assert boxes[1] is boxes[1]
        assert serialize_label_file(boxes) == serialize_label_file(list(boxes))


def long_label_text(rng, kind, lines, odd_share):
    """``lines`` label lines, mostly plain in-bounds boxes; ``odd_share`` of
    them blank, clamped, out of range, or with a bad count, field or class."""
    width = 5 if kind == "gt" else 6
    out = []
    for _ in range(lines):
        w, h = rng.uniform(1e-3, 0.2, 2).tolist()
        cx, cy = float(rng.uniform(w / 2, 1 - w / 2)), float(rng.uniform(h / 2, 1 - h / 2))
        fields = [str(rng.integers(0, 4)), *map(FORMATS[rng.integers(0, 3)], (cx, cy, w, h))]
        if kind == "pred":
            fields.append(repr(float(rng.uniform(0.0, 1.0))))
        if rng.uniform() < odd_share:
            odd = rng.integers(0, 9)
            if odd == 0:
                fields = rng.choice(["", " ", "\t"], size=1).tolist()
            elif odd == 1:  # an edge up to BOUNDS_TOLERANCE outside: clamped
                fields[1] = repr(w / 2 - float(rng.uniform(0, 1e-6)))
            elif odd == 2:
                fields[2] = repr(float(rng.choice([1.2, -0.3, 1 - h / 2 + 2e-6])))
            elif odd == 3:
                fields[3] = rng.choice(["0", "-0.1", "1e-300", "nan", "inf"])
                if rng.uniform() < 0.3:  # corners apart, area underflowing to 0
                    fields[1:5] = ["5e-171", "5e-171", "1e-170", "1e-170"]
            elif odd == 4:
                fields = fields[: rng.integers(1, width)] if rng.uniform() < 0.5 else fields + ["0.5"]
            elif odd == 5:
                fields[rng.integers(1, width)] = rng.choice(["x", "0x1", "1,5", ""])
            elif odd == 6:
                fields[0] = rng.choice(["-1", "1.0", "a", "+2", str(2**70)])
            elif odd == 7 and kind == "pred":
                fields[5] = rng.choice(["1.5", "-1e-9", "nan", "-0.0"])
            else:
                fields[0] = "-0"
        out.append(rng.choice([" ", "\t", "  "]).join(fields))
    return "".join(line + rng.choice(["\n", "\r\n", "\n", "\r"]) for line in out)


class TestColumnarParse:
    """Every label file is parsed in one loop over its lines, each box
    checked by ``_box_fields``. That gives what the per-line object parser
    gave: every value, or the same error on the same line.
    The boxes ``preprocessing`` moves are checked one row at a time by
    ``_box_fields`` too, which gives what the array forms in ``oracles`` give:
    they test the rows as arrays from ``ARRAY_CHECK_MIN_ROWS`` rows, and one
    at a time below."""

    @pytest.mark.parametrize("kind", ["gt", "pred"])
    def test_files_of_every_size_are_the_per_line_parser(self, kind):
        rng = np.random.default_rng(5 if kind == "gt" else 6)
        seen = {"16 boxes or more": 0, "fewer boxes": 0, "refused": 0}
        for _ in range(500):
            lines = int(rng.integers(0, 48))
            odd_share = float(rng.choice([0.0, 0.0, 0.01, 0.05, 0.3]))
            text = long_label_text(rng, kind, lines, odd_share)
            expected = outcome(lambda: reference_parse(text, kind))
            parsed = outcome(lambda: parse_label_file(text, kind))
            if not isinstance(parsed, tuple):
                assert plain_columns(parsed)
                parsed = column_rows(parsed)
            assert repr(parsed) == repr(expected), text
            if isinstance(expected, tuple):
                seen["refused"] += 1
            elif len(expected) >= 16:
                seen["16 boxes or more"] += 1
            else:
                seen["fewer boxes"] += 1
        assert min(seen.values()) >= 100, seen

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROWS, max_size=40))
    def test_array_test_at_every_size(self, rows):
        expected = repr(outcome(lambda: [_box_fields(*row) for row in rows]))
        got = outcome(lambda: checked_boxes(np.array(rows, dtype=np.float64).reshape(-1, 4), 0))
        assert repr(got) == expected
        # rotate90 checks each turned row, on columns no check has seen, as
        # the array form's test does at every size.
        columns, image = BoxColumns([0] * len(rows), list(rows)), RasterImage(1, 1, 1, b"\0")
        turned = repr(outcome(lambda: rotate90(image, columns)[1].boxes))
        assert turned == repr(outcome(lambda: [_box_fields(cy, 1.0 - cx, h, w)
                                               for cx, cy, w, h in rows]))
        assert turned == repr(outcome(lambda: array_rotate90(image, columns, 0)[1].boxes))

    @pytest.mark.parametrize("kind", ["gt", "pred"])
    def test_a_long_file_with_a_row_to_clamp_stays_columnar(self, kind):
        plain = long_label_text(np.random.default_rng(7), kind, 20, 0.0).splitlines()
        clamped = (CLAMPED_GT if kind == "gt" else CLAMPED_PRED).strip()
        text = "\n".join(plain[:9] + [clamped] + plain[9:]) + "\n"
        rows = list(map(str.split, text.splitlines()))
        expected = reference_parse(text, kind)
        assert expected[9][1] != tuple(map(float, rows[9][1:5]))  # the row was clamped
        assert repr(column_rows(parse_label_file(text, kind))) == repr(expected)

    @pytest.mark.parametrize("forms", [
        (enlarge_small_boxes, rotate90, center_crop),
        (partial(array_enlarge_small_boxes, min_rows=0), partial(array_rotate90, min_rows=0),
         partial(array_center_crop, min_rows=0)),
    ], ids=["per-row-check", "array-test"])
    @pytest.mark.parametrize("kind", ["gt", "pred"])
    @pytest.mark.parametrize("text", ["", "\n", " \t\n\r\n\x0c  "],
                             ids=["empty", "newline", "blanks"])
    def test_empty_and_blank_files_give_no_boxes(self, text, kind, forms):
        boxes = parse_label_file(text, kind)
        image = RasterImage(4, 4, 1, bytes(16))
        enlarge, rotate, crop = forms
        moved = [boxes, enlarge(boxes, 0.5), rotate(image, boxes)[1], crop(image, boxes, 2, 2)[1]]
        for columns in moved:
            assert len(columns) == 0 and columns.class_ids == [] and columns.boxes == []
            assert columns.confidence == (None if kind == "gt" else [])


class TestColumns:
    def test_columns_of_items_keep_them(self):
        items = [LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2)), ScoredBox(1, Box2D(0.2, 0.2, 0.1, 0.1), 0.5)]
        columns = _columns(items)
        assert columns.confidence is None  # not every item is scored
        assert list(columns) == items and all(a is b for a, b in zip(columns, items))

    def test_derived_columns_keep_the_items_of_unchanged_rows(self):
        boxes = parse_label_file("0 0.5 0.5 0.01 0.01\n1 0.5 0.5 0.5 0.5\n2 0.2 0.2 0.1 0.1\n")
        grown = enlarge_small_boxes(boxes, 0.02)
        assert isinstance(grown, BoxColumns)
        assert [a is b for a, b in zip(boxes, grown)] == [False, True, False]
        assert grown == scalar_enlarge(list(boxes), 0.02, "literal")

    def test_operations_return_the_container_they_were_given(self):
        """Columns, whatever container was given; a list's unchanged items stay its own."""
        boxes = parse_label_file("0 0.5 0.5 0.2 0.2\n1 0.5 0.5 0.01 0.01\n")
        image = RasterImage(4, 4, 1, bytes(16))
        for given in (boxes, list(boxes), tuple(boxes)):
            assert type(rotate90(image, given)[1]) is BoxColumns
            assert type(center_crop(image, given, 2, 2)[1]) is BoxColumns
            assert type(center_crop(image, given, 4, 4)[1]) is BoxColumns
            assert type(enlarge_small_boxes(given, 0.02)) is BoxColumns
        assert center_crop(image, boxes, 4, 4)[1] is boxes
        items = list(boxes)
        assert [a is b for a, b in zip(center_crop(image, items, 4, 4)[1], items)] == [True, True]
        assert [a is b for a, b in zip(enlarge_small_boxes(items, 0.02), items)] == [True, False]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_match_on_columns_is_the_pairwise_loop(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gt, pred = crowded_instance(rng)
        gt_columns = parse_label_file(serialize_label_file(gt), "gt")
        pred_columns = parse_label_file(serialize_label_file(pred), "pred")
        threshold = data.draw(st.sampled_from([0.0, 0.4, 0.5]))
        result = match_detections(gt_columns, pred_columns, MatchConfig(confidence_threshold=threshold))
        assert result.scored_flags == reference_greedy_flags(
            list(gt_columns), list(pred_columns), 0.5, threshold)


# The per-box loops the array operations replaced, kept as oracles.


def scalar_crop(boxes, width, height, target_w, target_h):
    off_x, off_y = (width - target_w) // 2, (height - target_h) // 2
    if (off_x, off_y, target_w, target_h) == (0, 0, width, height):
        return list(boxes)
    kept = []
    for item in boxes:
        px = to_absolute(item.box, width, height)
        x1 = min(max(px.x_min - off_x, 0.0), float(target_w))
        x2 = min(max(px.x_max - off_x, 0.0), float(target_w))
        y1 = min(max(px.y_min - off_y, 0.0), float(target_h))
        y2 = min(max(px.y_max - off_y, 0.0), float(target_h))
        if PixelBox(x1, y1, x2, y2).area < MIN_CLIPPED_AREA_FRACTION * target_w * target_h:
            continue
        kept.append(replace(item, box=to_normalized(PixelBox(x1, y1, x2, y2), target_w, target_h)))
    return kept


def scalar_enlarge(boxes, area_threshold, mode):
    out = []
    for item in boxes:
        b = item.box
        if b.area >= area_threshold:
            out.append(item)
            continue
        factor = area_threshold / b.area
        scale = factor if mode == "literal" else math.sqrt(factor)
        w = min(b.w * scale, 2 * min(b.cx, 1.0 - b.cx))
        h = min(b.h * scale, 2 * min(b.cy, 1.0 - b.cy))
        out.append(replace(item, box=Box2D(b.cx, b.cy, w, h)))
    return out


def scalar_rotate(boxes):
    return [replace(item, box=Box2D(item.box.cy, 1.0 - item.box.cx, item.box.h, item.box.w))
            for item in boxes]


@st.composite
def label_boxes(draw, max_size=8):
    """Valid labels of one kind, many of them on or across the unit square's edges."""
    scored = draw(st.booleans())
    boxes = []
    for row in draw(st.lists(coordinate_rows(anywhere=False) | ROWS, max_size=max_size)):
        with contextlib.suppress(DegenerateBox, OutOfRange):
            box = Box2D(*row)
            boxes.append(ScoredBox(0, box, 0.5) if scored else LabeledBox(0, box))
    return boxes


def containers(boxes):
    """``boxes`` as a list, and as columns with no items behind them, as a parse gives."""
    columns = _columns(boxes)
    return boxes, BoxColumns(columns.class_ids, columns.boxes, columns.confidence)


# label_boxes draws fewer boxes than the array forms' size rule; a rule of 0
# puts them past it.
MIN_ROWS = st.sampled_from([ARRAY_CHECK_MIN_ROWS, 0])


class TestArrayOperations:
    """Each box operation, checking a row at a time, gives the replaced per-box
    loop's boxes bit for bit, as its array form in ``oracles`` does on either
    side of that form's size rule."""

    @settings(max_examples=150, deadline=None)
    @given(label_boxes(), st.integers(1, 40), st.integers(1, 40), MIN_ROWS, st.data())
    def test_crop(self, boxes, width, height, min_rows, data):
        target_w, target_h = data.draw(st.integers(1, width)), data.draw(st.integers(1, height))
        image = RasterImage(width, height, 1, bytes(width * height))
        expected = outcome(lambda: repr(scalar_crop(boxes, width, height, target_w, target_h)))
        for given_boxes in containers(boxes):
            for crop in (center_crop, partial(array_center_crop, min_rows=min_rows)):
                got = outcome(lambda: repr(list(crop(image, given_boxes, target_w, target_h)[1])))
                assert got == expected

    def test_crop_keeps_a_box_of_exactly_the_sliver_floor(self):
        # A 1000x1000 window's floor is 1.0 px^2; these pixel corners are exact.
        boxes = [LabeledBox(0, Box2D(600.5 / 1024, 600.5 / 1024, 1 / 1024, 1 / 1024)),
                 LabeledBox(0, Box2D(600.5 / 1024, 600.5 / 1024, 1 / 1024, 0.5 / 1024))]
        image = RasterImage(1024, 1024, 1, bytes(1024 * 1024))
        assert center_crop(image, boxes, 1000, 1000)[1] == scalar_crop(boxes, 1024, 1024, 1000, 1000)
        assert len(scalar_crop(boxes, 1024, 1024, 1000, 1000)) == 1

    def test_crop_keeps_each_item_kind(self):
        boxes = [LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2)), ScoredBox(1, Box2D(0.5, 0.5, 0.4, 0.4), 0.5)]
        image = RasterImage(10, 10, 1, bytes(100))
        assert center_crop(image, boxes, 8, 8)[1] == scalar_crop(boxes, 10, 10, 8, 8)

    @settings(max_examples=150, deadline=None)
    @given(label_boxes(), st.floats(1e-12, 1.0) | st.sampled_from([1.0, 1e-300, 0.5]),
           st.sampled_from(["literal", "normalize"]), MIN_ROWS)
    def test_enlarge(self, boxes, threshold, mode, min_rows):
        expected = outcome(lambda: repr(scalar_enlarge(boxes, threshold, mode)))
        for given_boxes in containers(boxes):
            for enlarge in (enlarge_small_boxes,
                            partial(array_enlarge_small_boxes, min_rows=min_rows)):
                got = outcome(lambda: repr(list(enlarge(given_boxes, threshold, mode))))
                assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(label_boxes(), MIN_ROWS)
    def test_rotate(self, boxes, min_rows):
        image = RasterImage(3, 2, 1, bytes(6))
        expected = outcome(lambda: repr(scalar_rotate(boxes)))
        for given_boxes in containers(boxes):
            for rotate in (rotate90, partial(array_rotate90, min_rows=min_rows)):
                got = outcome(lambda: repr(list(rotate(image, given_boxes)[1])))
                assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(label_boxes(), st.floats(0.0, 1.0))
    def test_area_quantile(self, boxes, q):
        rows = _columns(boxes).boxes
        expected = outcome(lambda: array_area_quantile(rows, q))
        assert outcome(lambda: area_quantile(rows, q)) == expected


def run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


class TestErrors:
    @pytest.mark.parametrize("command", ["eval", "count", "report"])
    def test_first_failing_image_in_manifest_order_is_named(self, tmp_path, command):
        (tmp_path / "one_gt.txt").write_text("0 0.5 0.5 0.1 0.1\n0 0.5 0.5 0.1 zz\n")
        (tmp_path / "two_gt.txt").write_text("0 0.5 0.5 0.1 0.1\n")
        (tmp_path / "manifest.csv").write_text(
            MANIFEST_HEADER + "one,,one_gt.txt,,10,10,50,\n"
            "two,,two_gt.txt,,10,10,50,\n" "three,,three_gt.txt,,10,10,50,\n")
        code, _, stderr = run([command, tmp_path / "manifest.csv", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert stderr == ("error: image 'one': line 2: non-numeric field in "
                          f"'0 0.5 0.5 0.1 zz' ({tmp_path / 'one_gt.txt'})\n")

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_parse_error_names_the_label_file(self, tmp_path, side):
        (tmp_path / "gt.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        (tmp_path / "pred.txt").write_text("0 0.5 0.5 0.2 0.2 0.9\n")
        (tmp_path / f"{side}.txt").write_text(
            {"gt": "0 0.5 0.5 0.2 x\n", "pred": "0 0.5 0.5 0.2 0.2 x\n"}[side])
        (tmp_path / "m.csv").write_text(MANIFEST_HEADER + "a,,gt.txt,pred.txt,10,10,,\n")
        code, _, stderr = run(["eval", tmp_path / "m.csv", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert stderr.startswith("error: image 'a': line 1: non-numeric field in ")
        assert stderr.endswith(f" ({tmp_path / f'{side}.txt'})\n")

    def test_missing_file_is_named_once(self, tmp_path):
        (tmp_path / "m.csv").write_text(MANIFEST_HEADER + "a,,gone.txt,,10,10,,\n")
        code, _, stderr = run(["count", tmp_path / "m.csv", "--out-dir", tmp_path / "out"])
        assert code == 1
        assert stderr.count(str(tmp_path / "gone.txt")) == 1

    def test_report_names_manifest_and_image_without_density(self, tmp_path):
        (tmp_path / "gt.txt").write_text("0 0.5 0.5 0.2 0.2\n")
        manifest = tmp_path / "m.csv"
        # 'b' also has a malformed label file; the density check comes first.
        manifest.write_text(MANIFEST_HEADER + "a,,gt.txt,,10,10,50,\n" "b,,m.csv,,10,10,,\n")
        code, _, stderr = run(["report", manifest, "--out-dir", tmp_path / "out"])
        assert code == 1
        assert stderr == (f"error: {manifest}: image 'b' has no density_group, "
                          "which a density summary needs\n")


CLAMPED_GT = "0 0.0000004 0.5 0.000001 0.1\n"
CLAMPED_PRED = "0 0.9999996 0.5 0.000001 0.2 0.7\n"
HUGE_ID_GT = f"{2**64} 0.5 0.5 0.2 0.2\n"


def parity_dataset(root: Path, huge_id: bool) -> Path:
    """Crowded and sparse images, with a clamped box on each side.

    With ``huge_id`` one ground-truth file also holds a class id beyond
    int64.
    """
    rng = np.random.default_rng(41)
    images = []
    for i in range(4):
        gt, pred = crowded_instance(rng)
        images.append({"image_id": f"crowded{i}", "gt": gt, "pred": pred,
                       "density": DENSITY_GROUPS[i]})
    for i in range(6):
        gt, pred = crowded_instance(rng)
        item = {"image_id": f"sparse{i}", "pred": pred[:int(rng.integers(0, 4))],
                "density": DENSITY_GROUPS[4 + i % 3]}
        if i % 3:
            item["gt"] = gt[:int(rng.integers(0, 3))]
        images.append(item)
    manifest = write_dataset(root, images)
    with open(root / "crowded0_gt.txt", "a") as gt_file:
        gt_file.write(CLAMPED_GT + (HUGE_ID_GT if huge_id else ""))
    with open(root / "crowded1_pred.txt", "a") as pred_file:
        pred_file.write(CLAMPED_PRED)
    return manifest


def object_annotation(entry, root):
    """An entry's labels as tuples of per-box objects."""
    annotation = load_image_annotation(entry, root)
    return replace(annotation, ground_truth=tuple(annotation.ground_truth),
                   predictions=tuple(annotation.predictions))


def read_outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestParity:
    """Every CLI output equals a run of the public API on per-box objects."""

    @pytest.mark.parametrize("huge_id", [False, True])
    def test_manifest_commands(self, tmp_path, monkeypatch, huge_id):
        manifest_path = parity_dataset(tmp_path, huge_id)
        manifest = load_manifest(manifest_path.read_text())
        results = {}
        for command in ("eval", "report", "count"):
            code, stdout, stderr = run([command, manifest_path, "--conf-thr", 0.3,
                                        "--out-dir", tmp_path / command])
            assert code == 0, stderr
            results[command] = read_outputs(tmp_path / command)
        config = MatchConfig(confidence_threshold=0.3)
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "load_image_annotation", object_annotation)
            expected = evaluate_dataset(manifest, config, root=tmp_path)
        assert results["eval"] == {
            "eval.csv": render_eval_csv(expected).encode(),
            "pr_curve.csv": render_pr_curve_csv(expected.overall.curve).encode(),
        }
        summary = density_summary([(e.density_group, expected.per_image[e.image_id])
                                   for e in manifest])
        assert results["report"] == {"density_report.csv": render_density_csv(summary).encode()}
        counts = [count_image(object_annotation(e, tmp_path), 0.3, truth_known=bool(e.gt_path))
                  for e in manifest]
        assert results["count"] == {"counts.csv": render_counts_csv(counts).encode()}

    @pytest.mark.parametrize("huge_id", [False, True])
    def test_preprocess_actions(self, tmp_path, huge_id):
        parity_dataset(tmp_path, huge_id)
        labels = sorted(tmp_path.glob("*.txt"))
        parsed = [list(parse_label_file(p.read_text(), detect_kind(p.read_text()) or "gt"))
                  for p in labels]

        code, stdout, stderr = run(["preprocess", "enlarge", *labels, "--quantile", 0.3,
                                    "--mode", "normalize", "--out-dir", tmp_path / "enlarge"])
        assert code == 0, stderr
        threshold = area_quantile([(b.box.cx, b.box.cy, b.box.w, b.box.h)
                                   for boxes in parsed for b in boxes], 0.3)
        assert stdout == f"area_threshold={threshold:.9g}\n"
        assert read_outputs(tmp_path / "enlarge") == {
            p.name: serialize_label_file(enlarge_small_boxes(b, threshold, "normalize")).encode()
            for p, b in zip(labels, parsed)}

        rng = np.random.default_rng(5)
        frame = RasterImage.from_array(rng.integers(0, 256, (30, 40, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        for p in labels:
            (tmp_path / "frames" / p.with_suffix(".ppm").name).write_bytes(encode_raster(frame))
            (tmp_path / "frames" / p.name).write_text(p.read_text())
        frames = sorted((tmp_path / "frames").glob("*.ppm"))
        for action, flags, transform in (
            ("rotate", [], lambda image, boxes: rotate90(image, boxes)),
            ("crop", ["--width", 25, "--height", 17],
             lambda image, boxes: center_crop(image, boxes, 25, 17)),
        ):
            code, _, stderr = run(["preprocess", action, *frames, *flags,
                                   "--out-dir", tmp_path / action])
            assert code == 0, stderr
            expected = {}
            for path, boxes in zip(frames, parsed):
                image, moved = transform(decode_raster(path.read_bytes()), boxes)
                expected[path.name] = encode_raster(image)
                expected[path.with_suffix(".txt").name] = serialize_label_file(moved).encode()
            assert read_outputs(tmp_path / action) == expected
