"""Label parsing, box geometry, and manifest loading."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from larvaekit.annotations import (
    Box2D,
    LabeledBox,
    ScoredBox,
    detect_kind,
    load_image_annotation,
    load_manifest,
    parse_label_file,
    serialize_label_file,
)
from larvaekit.errors import (
    AnnotationLoadError,
    DegenerateBox,
    LarvaekitError,
    MalformedLine,
    OutOfRange,
)

from oracles import PixelBox, text_mode_annotation, to_absolute, to_normalized

MANIFEST_HEADER = "image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label"

# Characters str.splitlines breaks at but a label file does not: whitespace
# between fields instead.
LINE_BREAKS_INSIDE_A_LINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestBox2D:
    def test_valid_box_keeps_exact_coordinates(self):
        b = Box2D(0.51, 0.52, 0.1, 0.2)
        assert (b.cx, b.cy, b.w, b.h) == (0.51, 0.52, 0.1, 0.2)

    def test_zero_width_rejected(self):
        with pytest.raises(DegenerateBox):
            Box2D(0.5, 0.5, 0.0, 0.1)

    def test_negative_height_rejected(self):
        with pytest.raises(DegenerateBox):
            Box2D(0.5, 0.5, 0.1, -0.1)

    def test_far_out_of_bounds_rejected(self):
        with pytest.raises(OutOfRange):
            Box2D(1.5, 0.5, 0.1, 0.1)

    def test_edge_slightly_outside_is_clamped(self):
        # right edge overhangs by 5e-7, inside the 1e-6 tolerance
        b = Box2D(0.95, 0.5, 0.1 + 1e-6, 0.2)
        assert b.cx + b.w / 2 <= 1.0
        assert b.cy == pytest.approx(0.5) and b.h == pytest.approx(0.2)

    def test_overhang_beyond_tolerance_rejected(self):
        with pytest.raises(OutOfRange):
            Box2D(0.95, 0.5, 0.11, 0.2)

    def test_non_finite_rejected(self):
        with pytest.raises(OutOfRange):
            Box2D(float("nan"), 0.5, 0.1, 0.1)

    def test_area(self):
        assert Box2D(0.5, 0.5, 0.25, 0.5).area == pytest.approx(0.125)

    def test_corners_collapsing_in_x_rejected(self):
        # w > 0, but 0.5 - w/2 and 0.5 + w/2 round to the same float64
        with pytest.raises(DegenerateBox, match="no extent"):
            Box2D(0.5, 0.5, 1e-20, 0.1)

    def test_corners_collapsing_in_y_rejected(self):
        with pytest.raises(DegenerateBox, match="no extent"):
            Box2D(0.5, 0.5, 0.1, 1e-20)

    def test_area_underflow_rejected(self):
        # the corners differ, but w * h underflows to 0
        with pytest.raises(DegenerateBox, match="no extent"):
            Box2D(1e-170, 1e-170, 1e-170, 1e-170)

    def test_collapse_after_clamping_rejected(self):
        # both x edges sit inside the tolerance beyond 1, so both clamp to 1
        with pytest.raises(DegenerateBox, match="no extent"):
            Box2D(1.0 + 6e-7, 0.5, 4e-7, 0.1)

    def test_smallest_extents_still_pass(self):
        b = Box2D(0.5, 0.5, 1e-15, 0.1)
        px = to_absolute(b, 1, 1)
        assert px.x_min < px.x_max and b.area > 0.0
        assert (b.cx, b.cy, b.w, b.h) == (0.5, 0.5, 1e-15, 0.1)


class TestParseLabelFile:
    def test_gt_line(self):
        boxes = parse_label_file("0 0.5 0.5 0.1 0.2\n")
        assert boxes == [LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))]

    def test_pred_line_with_confidence(self):
        boxes = parse_label_file("0 0.5 0.5 0.1 0.2 0.87\n", kind="pred")
        assert boxes == [ScoredBox(0, Box2D(0.5, 0.5, 0.1, 0.2), 0.87)]

    def test_blank_lines_skipped(self):
        text = "\n0 0.5 0.5 0.1 0.2\n\n0 0.25 0.25 0.1 0.1\n\n"
        assert len(parse_label_file(text)) == 2

    def test_wrong_field_count_names_line(self):
        with pytest.raises(MalformedLine) as err:
            parse_label_file("0 0.5 0.5 0.1 0.2\n0 0.5 0.5 0.1\n")
        assert err.value.line_no == 2

    def test_form_feed_ends_no_line(self):
        with pytest.raises(MalformedLine) as err:
            parse_label_file("0 0.5 0.5 0.2 0.2\x0c\n0 0.5 0.5 0.2\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("separator", LINE_BREAKS_INSIDE_A_LINE)
    def test_other_line_breaks_separate_fields(self, separator):
        text = f"0 0.5 0.5 0.2 0.2{separator}\n0 0.5{separator}0.5 0.1 0.2\n0 0.5 0.5 0.2\n"
        with pytest.raises(MalformedLine, match="^line 3: expected 5 fields, got 4$") as err:
            parse_label_file(text)
        assert err.value.line_no == 3
        assert parse_label_file(text.rpartition("0 0.5 0.5 0.2\n")[0]) == [
            LabeledBox(0, Box2D(0.5, 0.5, 0.2, 0.2)), LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))]

    def test_collapsing_box_names_line(self):
        with pytest.raises(OutOfRange, match="^line 2: box .* no extent") as err:
            parse_label_file("0 0.5 0.5 0.1 0.2\n0 0.5 0.5 1e-20 0.1\n")
        assert err.value.line_no == 2

    def test_confidence_required_for_pred(self):
        with pytest.raises(MalformedLine):
            parse_label_file("0 0.5 0.5 0.1 0.2\n", kind="pred")

    def test_non_numeric_field(self):
        with pytest.raises(MalformedLine):
            parse_label_file("0 0.5 abc 0.1 0.2\n")

    def test_non_integer_class_id(self):
        with pytest.raises(MalformedLine):
            parse_label_file("x 0.5 0.5 0.1 0.2\n")

    def test_out_of_bounds_center_names_line(self):
        with pytest.raises(OutOfRange) as err:
            parse_label_file("0 0.5 0.5 0.1 0.2\n0 1.5 0.5 0.1 0.2\n")
        assert err.value.line_no == 2

    def test_bad_confidence(self):
        with pytest.raises(OutOfRange):
            parse_label_file("0 0.5 0.5 0.1 0.2 1.5\n", kind="pred")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_label_file("", kind="boxes")


class TestSerializeLabelFile:
    def test_six_decimals_lf(self):
        text = serialize_label_file([LabeledBox(1, Box2D(0.5, 0.25, 0.125, 0.2))])
        assert text == "1 0.500000 0.250000 0.125000 0.200000\n"

    def test_pred_confidence_column(self):
        text = serialize_label_file([ScoredBox(0, Box2D(0.5, 0.5, 0.1, 0.2), 0.9)])
        assert text == "0 0.500000 0.500000 0.100000 0.200000 0.900000\n"

    def test_round_trip_exact_on_micro_grid(self):
        # coordinates that are whole multiples of 1e-6 survive the
        # six-decimal serialization bit for bit
        rng = np.random.default_rng(7)
        for _ in range(200):
            # corners strictly inside the unit square so no edge is ever
            # within float-rounding distance of the clamp boundary
            x1 = int(rng.integers(1, 998_000))
            x2 = int(rng.integers(x1 + 1, 999_999))
            y1 = int(rng.integers(1, 998_000))
            y2 = int(rng.integers(y1 + 1, 999_999))
            if (x1 + x2) % 2:
                x2 += 1
            if (y1 + y2) % 2:
                y2 += 1
            box = Box2D(
                (x1 + x2) / 2e6, (y1 + y2) / 2e6, (x2 - x1) / 1e6, (y2 - y1) / 1e6
            )
            parsed = parse_label_file(serialize_label_file([LabeledBox(0, box)]))
            assert parsed == [LabeledBox(0, box)]

    def test_serialize_is_a_fixpoint(self):
        # one serialize pass lands on the grid; after that the text is stable
        rng = np.random.default_rng(8)
        for _ in range(100):
            w, h = rng.uniform(0.01, 0.3, size=2)
            # margin keeps six-decimal rounding from nudging an edge
            # outside the unit square (which would trigger clamping)
            cx = rng.uniform(w / 2 + 1e-5, 1 - w / 2 - 1e-5)
            cy = rng.uniform(h / 2 + 1e-5, 1 - h / 2 - 1e-5)
            text = serialize_label_file(
                [ScoredBox(0, Box2D(cx, cy, w, h), float(rng.random()))]
            )
            again = serialize_label_file(parse_label_file(text, kind="pred"))
            assert again == text

    @pytest.mark.parametrize("order", ["gt-first", "pred-first"])
    def test_mixed_kinds_are_refused(self, order):
        # No kind parses a file of 5-field and 6-field lines.
        box = Box2D(0.5, 0.5, 0.1, 0.2)
        boxes = [LabeledBox(0, box), ScoredBox(0, box, 0.9)]
        if order == "pred-first":
            boxes.reverse()
        with pytest.raises(ValueError, match="mix ground truth and predictions"):
            serialize_label_file(boxes)


# Extents down to 1e-9, with extra weight below the 5e-7 that six
# decimals round to zero.
EXTENTS = st.floats(1e-9, 1e-5) | st.floats(1e-9, 1.0)


@st.composite
def edge_hugging_boxes(draw):
    """Valid boxes whose centres sit on, or just past, the unit-square edges."""
    w, h = draw(EXTENTS), draw(EXTENTS)

    def centre(extent):
        half = extent / 2
        base = draw(st.sampled_from([half, 1 - half]) | st.floats(half, 1 - half))
        return base + draw(st.sampled_from([0.0]) | st.floats(-1e-6, 1e-6))

    try:
        box = Box2D(centre(w), centre(h), w, h)
    except (DegenerateBox, OutOfRange):
        assume(False)
    return LabeledBox(draw(st.integers(0, 9)), box)


class TestSerializeRoundTrip:
    @given(st.lists(edge_hugging_boxes(), max_size=6))
    def test_serialized_text_parses_back_or_is_refused(self, boxes):
        try:
            text = serialize_label_file(boxes)
        except DegenerateBox:
            assert min(min(b.box.w, b.box.h) for b in boxes) < 1e-6
            return
        assert len(parse_label_file(text, kind="gt")) == len(boxes)


class TestDetectKind:
    def test_gt(self):
        assert detect_kind("0 0.5 0.5 0.1 0.2\n") == "gt"

    def test_pred(self):
        assert detect_kind("\n0 0.5 0.5 0.1 0.2 0.9\n") == "pred"

    def test_empty(self):
        assert detect_kind("\n  \n") is None

    @pytest.mark.parametrize("separator", LINE_BREAKS_INSIDE_A_LINE)
    def test_other_line_breaks_stay_inside_the_first_line(self, separator):
        assert detect_kind(f"0 0.5 0.5{separator}0.1 0.2 0.9\n") == "pred"


class TestPixelConversion:
    def test_to_absolute_example(self):
        px = to_absolute(Box2D(0.5, 0.5, 0.5, 0.5), 100, 200)
        assert px == PixelBox(25.0, 50.0, 75.0, 150.0)

    def test_full_frame(self):
        assert to_absolute(Box2D(0.5, 0.5, 1.0, 1.0), 640, 480) == PixelBox(0, 0, 640, 480)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, h = rng.uniform(0.01, 0.5, size=2)
            box = Box2D(rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h)
            width, height = int(rng.integers(1, 5000)), int(rng.integers(1, 5000))
            back = to_normalized(to_absolute(box, width, height), width, height)
            assert abs(back.cx - box.cx) < 1e-9
            assert abs(back.cy - box.cy) < 1e-9
            assert abs(back.w - box.w) < 1e-9
            assert abs(back.h - box.h) < 1e-9


class TestManifest:
    def test_happy_path(self):
        text = (
            MANIFEST_HEADER + "\n"
            "d1_001,imgs/d1_001.jpg,gt/d1_001.txt,pred/d1_001.txt,3024,4032,100,day1\n"
            "d1_002,imgs/d1_002.jpg,gt/d1_002.txt,,3024,4032,,\n"
        )
        manifest = load_manifest(text)
        assert len(manifest) == 2
        first, second = manifest
        assert first.density_group == 100 and first.day_label == "day1"
        assert second.density_group is None and second.day_label is None
        assert second.pred_path == ""

    def test_entries_are_a_tuple_in_row_order(self):
        text = MANIFEST_HEADER + "\n" + "b,,,,10,10,,\n" + "a,,,,10,10,,\n" + "c,,,,10,10,,\n"
        manifest = load_manifest(text)
        assert isinstance(manifest, tuple)
        assert [entry.image_id for entry in manifest] == ["b", "a", "c"]

    def test_header_only_is_an_empty_tuple(self):
        assert load_manifest(MANIFEST_HEADER + "\n") == ()

    def test_extra_columns_ignored(self):
        text = MANIFEST_HEADER + ",note\n" + "a,,,,10,10,,,hello\n"
        assert load_manifest(text)[0].image_id == "a"

    def test_missing_column(self):
        with pytest.raises(LarvaekitError, match="^manifest header lacks column[(]s[)]: gt_path, "
                           "pred_path, width_px, height_px, density_group, day_label$"):
            load_manifest("image_id,image_path\nx,y\n")

    def test_duplicate_image_id(self):
        text = MANIFEST_HEADER + "\n" + "a,,,,10,10,,\n" + "a,,,,10,10,,\n"
        with pytest.raises(LarvaekitError, match="^image_id 'a' appears more than once$"):
            load_manifest(text)

    def test_density_not_integer(self):
        text = MANIFEST_HEADER + "\n" + "a,,,,10,10,dense,\n"
        with pytest.raises(LarvaekitError, match="^density_group 'dense' is not an integer$"):
            load_manifest(text)

    def test_density_not_a_stocking_group(self):
        text = MANIFEST_HEADER + "\n" + "a,,,,10,10,120,\n"
        with pytest.raises(LarvaekitError,
                           match="^density_group 120 not one of 50, 100, 150, 200, 300, 400, 500$"):
            load_manifest(text)

    def test_bad_dimensions(self):
        text = MANIFEST_HEADER + "\n" + "a,,,,0,10,,\n"
        with pytest.raises(OutOfRange):
            load_manifest(text)

    @pytest.mark.parametrize("line_no", [1, 2])
    def test_oversized_field_is_a_malformed_line(self, line_no):
        lines = [MANIFEST_HEADER, "a,,,,10,10,,"]
        lines[line_no - 1] += "," + "x" * 131073
        with pytest.raises(MalformedLine) as err:
            load_manifest("\n".join(lines) + "\n")
        assert str(err.value) == f"line {line_no}: field larger than field limit (131072)"

    def test_empty_image_id_is_a_malformed_line(self):
        with pytest.raises(MalformedLine, match="^line 2: empty image_id$"):
            load_manifest(MANIFEST_HEADER + "\n" + " ,,,,10,10,,\n")

    def test_nul_in_a_path_is_a_malformed_line(self):
        with pytest.raises(MalformedLine, match="^line 2: a path holds a NUL byte$"):
            load_manifest(MANIFEST_HEADER + "\n" + "a,,g\0.txt,,10,10,,\n")

    def test_load_annotation_missing_file_names_image(self, tmp_path):
        text = MANIFEST_HEADER + "\n" + "imgX,,missing.txt,,10,10,,\n"
        entry = load_manifest(text)[0]
        with pytest.raises(AnnotationLoadError) as err:
            load_image_annotation(entry, tmp_path)
        assert err.value.image_id == "imgX"
        assert "imgX" in str(err.value)

    def test_load_annotation_counts_lines_as_universal_newlines_do(self, tmp_path):
        (tmp_path / "g.txt").write_bytes("0 0.5 0.5 0.2 0.2\u2028\r\n0 0.5 0.5 0.2\n".encode())
        entry = load_manifest(MANIFEST_HEADER + "\n" + "img1,,g.txt,,100,100,,\n")[0]
        with pytest.raises(AnnotationLoadError, match="^image 'img1': line 2: ") as err:
            load_image_annotation(entry, tmp_path)
        assert err.value.cause.line_no == 2

    def test_load_annotation_reads_both_sides(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 0.5 0.5 0.1 0.2\n")
        (tmp_path / "p.txt").write_text("0 0.5 0.5 0.1 0.2 0.9\n")
        text = MANIFEST_HEADER + "\n" + "img1,,g.txt,p.txt,100,100,,\n"
        ann = load_image_annotation(load_manifest(text)[0], tmp_path)
        assert len(ann.ground_truth) == 1 and len(ann.predictions) == 1
        assert ann.predictions[0].confidence == 0.9


GT_LINES = ["0 0.5 0.5 0.2 0.2", "1 0.25 0.3 0.1 0.15", "0 0.8 0.7 0.05 0.3"]
PRED_LINES = ["0 0.5 0.5 0.2 0.2 0.9", "0 0.3 0.3 0.1 0.1 0.5"]
BOM = b"\xef\xbb\xbf"
# Bytes of a label file: a line ending between the lines and one at the end.
LABEL_BYTES = {
    "g.txt": "\n".join(GT_LINES).encode() + b"\n",
    "p.txt": "\n".join(PRED_LINES).encode() + b"\n",
    "bom.txt": BOM + "\n".join(GT_LINES).encode() + b"\n",
    "crlf.txt": "\r\n".join(GT_LINES).encode() + b"\r\n",
    "bom_crlf.txt": BOM + "\r\n".join(GT_LINES).encode() + b"\r\n",
    "cr.txt": "\r".join(PRED_LINES).encode() + b"\r",
    "mixed.txt": b"\r\n\r".join(line.encode() for line in GT_LINES) + b"\n\r",
    "bom_only.txt": BOM,
    "empty.txt": b"",
    "bad.txt": b"0 0.5 0.5 0.2 0.2\r\n0 0.5 0.5 0.2\r\n",
    "invalid_start.txt": b"\xff" + "\n".join(GT_LINES).encode(),
    "invalid_after_bom.txt": BOM + b"\xff\n",
    "invalid_late.txt": b"0 0.500000 0.500000 0.100000 0.100000\n" * 240 + b"0 0.5\xff\n",
    "invalid_at_8192.txt": b"0 0.5 0.5 0.2 0.2\n" * 455 + b"0 0\xc3",
    "truncated_late.txt": b"0 0.5 0.5 0.2 0.2\n" * 600 + b"0 0.5 \xe2\x82",
    "surrogate.txt": b"0 0.5 0.5 0.2 0.2 \xed\xa0\x80\n",
    "bom_then_bom.txt": BOM + BOM + b"0 0.5 0.5 0.2 0.2\n",
}


class TestLabelFileRead:
    """``load_image_annotation`` reads label files in binary; every outcome,
    boxes or error line, is that of a text-mode read of the normalized path."""

    @staticmethod
    def outcome(load, entry, root):
        try:
            annotation = load(entry, root)
        except AnnotationLoadError as err:
            return ("error", str(err), type(err.cause), str(err.path))
        return ("ok", annotation)

    @pytest.fixture
    def root(self, tmp_path):
        for name, data in LABEL_BYTES.items():
            (tmp_path / name).write_bytes(data)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "g.txt").write_bytes(LABEL_BYTES["g.txt"])
        return tmp_path

    @pytest.mark.parametrize("gt, pred", [
        ("g.txt", "p.txt"),
        ("./g.txt", ".//p.txt"),
        ("sub//g.txt", "./sub/../p.txt"),
        ("sub/./g.txt", ""),
        ("g.txt/", "p.txt//"),
        ("g.txt/.", "p.txt"),
        ("gone.txt", "p.txt"),
        ("./gone.txt", "p.txt"),
        ("g.txt", "sub//gone.txt"),
        ("gone/g.txt", "p.txt"),
        ("g.txt/x", "p.txt"),
        ("sub", "p.txt"),
        ("sub/", "p.txt"),
        (".", "p.txt"),
        ("./bad.txt", "p.txt"),
        ("sub//../bad.txt", "p.txt"),
    ])
    @pytest.mark.parametrize("root_form", ["plain", "dotted", "slashes"])
    def test_path_spellings(self, root, gt, pred, root_form):
        base = {"plain": str(root), "dotted": f"{root}/./", "slashes": f"{root}//"}[root_form]
        entry = load_manifest(f"{MANIFEST_HEADER}\nimg,,{gt},{pred},100,100,,\n")[0]
        want = self.outcome(text_mode_annotation, entry, base)
        assert self.outcome(load_image_annotation, entry, base) == want
        assert self.outcome(load_image_annotation, entry, Path(base)) == want

    @pytest.mark.parametrize("gt", ["gone.txt", "./gone.txt", "g.txt", "sub", "./bad.txt"])
    def test_manifest_in_the_working_directory(self, root, gt, monkeypatch):
        monkeypatch.chdir(root)
        entry = load_manifest(f"{MANIFEST_HEADER}\nimg,,{gt},p.txt,100,100,,\n")[0]
        manifest_dir = Path("manifest.csv").parent
        assert str(manifest_dir) == "."
        want = self.outcome(text_mode_annotation, entry, manifest_dir)
        assert self.outcome(load_image_annotation, entry, manifest_dir) == want
        if gt == "gone.txt":
            assert want[1] == "image 'img': [Errno 2] No such file or directory: 'gone.txt'"

    @pytest.mark.parametrize("name", sorted(LABEL_BYTES))
    def test_line_endings_and_encodings(self, root, name):
        kind_of = {"cr.txt": "pred", "p.txt": "pred"}
        gt, pred = (name, "p.txt") if kind_of.get(name) != "pred" else ("g.txt", name)
        entry = load_manifest(f"{MANIFEST_HEADER}\nimg,,{gt},{pred},100,100,,\n")[0]
        want = self.outcome(text_mode_annotation, entry, root)
        assert self.outcome(load_image_annotation, entry, root) == want
        if name.startswith(("invalid", "truncated", "surrogate")):
            assert want[0] == "error" and want[2] is UnicodeDecodeError
        elif name in ("bom.txt", "crlf.txt", "bom_crlf.txt", "mixed.txt"):
            assert want[0] == "ok" and want[1].ground_truth == parse_label_file(
                "\n".join(GT_LINES), "gt")

    def test_late_decode_error_names_its_byte(self, root):
        entry = load_manifest(f"{MANIFEST_HEADER}\nimg,,invalid_late.txt,,100,100,,\n")[0]
        with pytest.raises(AnnotationLoadError) as err:
            load_image_annotation(entry, root)
        assert "can't decode byte 0xff in position 9125: invalid start byte" in str(err.value)
        assert err.value.path == root / "invalid_late.txt"
