"""End-to-end runs of ``python -m larvaekit``.

Everything here goes through a real subprocess so the tests cover
argument parsing, exit codes and the exact bytes written to --out-dir,
not just the library calls underneath.
"""

import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import larvaekit
from larvaekit.annotations import (
    Box2D,
    LabeledBox,
    ScoredBox,
    parse_label_file,
    serialize_label_file,
)
from larvaekit.raster import decode_raster, encode_raster

from conftest import (
    cell_box,
    crowded_instance,
    grid_boxes,
    overflowing_observations,
    solid_image,
    write_dataset,
)


# The directory holding the larvaekit this test process imported, so every
# child runs the same copy whatever its cwd and however PYTHONPATH was set.
PACKAGE_ROOT = str(Path(larvaekit.__file__).resolve().parent.parent)


def run_python(*argv, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *[str(a) for a in argv]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*argv, cwd=None):
    return run_python("-m", "larvaekit", *argv, cwd=cwd)


def small_dataset(root: Path) -> Path:
    """One image, two gt boxes, one exact hit and one decoy prediction."""
    gt = [LabeledBox(0, cell_box(0)), LabeledBox(0, cell_box(1))]
    preds = [ScoredBox(0, cell_box(0), 0.9), ScoredBox(0, cell_box(2), 0.8)]
    return write_dataset(root, [{"image_id": "a", "gt": gt, "pred": preds}])


SUMMARY_HEADER = (
    "group,num_images,num_gt,tp,fp,fn,precision,recall,f1,"
    "confusion_accuracy,counting_accuracy,ap"
)


class TestEval:
    def test_writes_csvs_and_prints_summary(self, tmp_path):
        manifest = small_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli("eval", manifest, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert (out / "eval.csv").exists()
        assert (out / "pr_curve.csv").exists()
        assert result.stdout.splitlines() == [
            SUMMARY_HEADER,
            "all,1,2,1,1,1,0.5000,0.5000,0.5000,0.3333,0.5000,0.5000",
        ]

    def test_pr_curve_rows(self, tmp_path):
        manifest = small_dataset(tmp_path)
        out = tmp_path / "out"
        run_cli("eval", manifest, "--out-dir", out)
        assert (out / "pr_curve.csv").read_text() == (
            "confidence,recall,precision\n"
            "0.900000,0.500000,1.000000\n"
            "0.800000,0.500000,0.500000\n"
        )

    def test_iou_thr_out_of_range_is_usage_error(self, tmp_path):
        manifest = small_dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli("eval", manifest, "--iou-thr", "1.5", "--out-dir", out)
        assert result.returncode == 2
        assert "usage error: --iou-thr must lie in (0, 1), got 1.5" in result.stderr
        assert not out.exists()

    def test_final_run_counts_reproduce_recorded_ratios(self, tmp_path):
        gt, preds = grid_boxes()
        manifest = write_dataset(tmp_path, [{"image_id": "full", "gt": gt, "pred": preds}])
        out = tmp_path / "out"
        result = run_cli("eval", manifest, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        row = (out / "eval.csv").read_text().splitlines()[1]
        assert row.startswith("all,1,1923,1851,70,72,")
        assert ",0.9636," in row and ",0.9626," in row and ",0.9631," in row

    def test_missing_pred_file_names_the_image(self, tmp_path):
        manifest = small_dataset(tmp_path)
        (tmp_path / "a_pred.txt").unlink()
        result = run_cli("eval", manifest, "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "image 'a'" in result.stderr

    def test_non_utf8_label_file_names_the_image(self, tmp_path):
        manifest = small_dataset(tmp_path)
        label = tmp_path / "a_gt.txt"
        label.write_bytes(b"\xff" + label.read_bytes())
        result = run_cli("eval", manifest, "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("error: image 'a': ")

    def test_manifest_with_byte_order_mark_gives_the_same_bytes(self, tmp_path):
        gt = [LabeledBox(0, cell_box(i)) for i in range(4)]
        preds = [ScoredBox(0, cell_box(i), 0.9 - 0.1 * i) for i in (0, 1, 5)]
        manifest = write_dataset(tmp_path, [
            {"image_id": "a", "gt": gt, "pred": preds, "density": 50},
            {"image_id": "b", "gt": gt[:2], "pred": preds[1:], "density": 100},
        ])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        runs = []
        for path, out in ((manifest, tmp_path / "plain"), (bom, tmp_path / "bom")):
            result = run_cli("eval", path, "--group-by", "density_group", "--out-dir", out)
            assert result.returncode == 0, result.stderr
            runs.append((result.stdout, (out / "eval.csv").read_bytes(),
                         (out / "pr_curve.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_group_by_day_rows(self, tmp_path):
        gt = [LabeledBox(0, cell_box(0))]
        pred = [ScoredBox(0, cell_box(0), 0.9)]
        manifest = write_dataset(
            tmp_path,
            [
                {"image_id": "a", "gt": gt, "pred": pred, "day": "d02"},
                {"image_id": "b", "gt": gt, "pred": [], "day": "d03"},
            ],
        )
        out = tmp_path / "out"
        result = run_cli("eval", manifest, "--group-by", "day_label", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        lines = (out / "eval.csv").read_text().splitlines()
        assert len(lines) == 3
        assert {line.split(",")[0] for line in lines[1:]} == {"d02", "d03"}
        # stdout keeps the pooled row even when the file is grouped
        assert result.stdout.splitlines()[1].startswith("all,2,2,")

    def test_reruns_are_byte_identical(self, tmp_path):
        manifest = small_dataset(tmp_path)
        first, second = tmp_path / "one", tmp_path / "two"
        run_cli("eval", manifest, "--out-dir", first)
        run_cli("eval", manifest, "--out-dir", second)
        for name in ("eval.csv", "pr_curve.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_writes_only_into_out_dir(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        manifest = small_dataset(data)
        out = tmp_path / "out"
        before = {p for p in tmp_path.rglob("*")}
        result = run_cli("eval", manifest, "--out-dir", out, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        new = {p for p in tmp_path.rglob("*")} - before
        assert new and all(p == out or out in p.parents for p in new)


class TestPreprocessCrop:
    def test_full_resolution_crop_with_sibling_label(self, tmp_path):
        (tmp_path / "frame.ppm").write_bytes(encode_raster(solid_image(3024, 4032)))
        box = LabeledBox(0, Box2D(0.5, 0.5, 100 / 3024, 100 / 4032))
        (tmp_path / "frame.txt").write_text(serialize_label_file([box]))
        out = tmp_path / "out"
        result = run_cli(
            "preprocess", "crop", tmp_path / "frame.ppm",
            "--width", 2100, "--height", 2100, "--out-dir", out,
        )
        assert result.returncode == 0, result.stderr
        cropped = decode_raster((out / "frame.ppm").read_bytes())
        assert (cropped.width, cropped.height) == (2100, 2100)
        (moved,) = parse_label_file((out / "frame.txt").read_text(), kind="gt")
        assert moved.box.cx == pytest.approx(0.5, abs=1e-9)
        assert moved.box.cy == pytest.approx(0.5, abs=1e-9)
        assert moved.box.w == pytest.approx(100 / 2100, abs=1e-6)
        assert moved.box.h == pytest.approx(100 / 2100, abs=1e-6)

    def test_crop_requires_dimensions(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        result = run_cli("preprocess", "crop", tmp_path / "x.ppm",
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert "crop requires --width and --height" in result.stderr


class TestPreprocessNoise:
    def test_same_seed_gives_identical_bytes(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(64, 48)))
        one, two = tmp_path / "one", tmp_path / "two"
        for out in (one, two):
            result = run_cli("preprocess", "noise", tmp_path / "img.ppm",
                             "--variance", 25, "--seed", 7, "--out-dir", out)
            assert result.returncode == 0, result.stderr
        noisy = (one / "img.ppm").read_bytes()
        assert noisy == (two / "img.ppm").read_bytes()
        assert noisy != (tmp_path / "img.ppm").read_bytes()

    def test_noise_without_seed_is_usage_error(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
        result = run_cli("preprocess", "noise", tmp_path / "img.ppm",
                         "--variance", 25, "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert "noise requires --variance and --seed" in result.stderr


class TestPreprocessMask:
    def test_mask_requires_center_and_radius(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
        result = run_cli("preprocess", "mask", tmp_path / "img.ppm",
                         "--cx", 4, "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert "mask requires --cx, --cy and --radius" in result.stderr

    def test_mask_zeroes_outside_the_disc(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8, value=200)))
        out = tmp_path / "out"
        result = run_cli("preprocess", "mask", tmp_path / "img.ppm",
                         "--cx", 0, "--cy", 0, "--radius", 3, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        arr = decode_raster((out / "img.ppm").read_bytes()).to_array()
        assert arr[0, 0, 0] == 200
        assert arr[7, 7, 0] == 0


class TestPreprocessRotate:
    def test_rotate_swaps_dimensions_and_remaps_boxes(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(30, 20)))
        (tmp_path / "img.txt").write_text(
            serialize_label_file([LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))])
        )
        out = tmp_path / "out"
        result = run_cli("preprocess", "rotate", tmp_path / "img.ppm", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        turned = decode_raster((out / "img.ppm").read_bytes())
        assert (turned.width, turned.height) == (20, 30)
        (box,) = parse_label_file((out / "img.txt").read_text(), kind="gt")
        assert (box.box.w, box.box.h) == pytest.approx((0.2, 0.1), abs=1e-6)


class TestPreprocessEnlarge:
    def boxes(self):
        return [
            LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.1)),
            LabeledBox(0, Box2D(0.3, 0.3, 0.1, 0.2)),
            LabeledBox(0, Box2D(0.7, 0.7, 0.15, 0.2)),
            LabeledBox(0, Box2D(0.4, 0.6, 0.2, 0.2)),
        ]

    def test_quantile_literal_grows_only_small_boxes(self, tmp_path):
        (tmp_path / "boxes.txt").write_text(serialize_label_file(self.boxes()))
        out = tmp_path / "out"
        result = run_cli("preprocess", "enlarge", tmp_path / "boxes.txt",
                         "--quantile", 0.25, "--mode", "literal", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "area_threshold=0.0175\n"
        lines = (out / "boxes.txt").read_text().splitlines()
        assert lines[0] == "0 0.500000 0.500000 0.175000 0.175000"
        original = serialize_label_file(self.boxes()).splitlines()
        assert lines[1:] == original[1:]

    def test_threshold_and_quantile_are_exclusive(self, tmp_path):
        (tmp_path / "boxes.txt").write_text(serialize_label_file(self.boxes()))
        result = run_cli("preprocess", "enlarge", tmp_path / "boxes.txt",
                         "--threshold", 0.02, "--quantile", 0.25,
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert "exactly one of --threshold or --quantile" in result.stderr

    def test_quantile_over_no_boxes_names_the_flag_and_the_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("\n")
        (tmp_path / "b.txt").write_text("")
        out = tmp_path / "out"
        result = run_cli("preprocess", "enlarge", tmp_path / "a.txt", tmp_path / "b.txt",
                         "--quantile", 0.5, "--out-dir", out)
        assert result.returncode == 1
        assert result.stderr == "error: --quantile: none of the 2 label files holds a box\n"
        assert not out.exists()

    def test_refuses_to_overwrite_inputs(self, tmp_path):
        (tmp_path / "boxes.txt").write_text(serialize_label_file(self.boxes()))
        result = run_cli("preprocess", "enlarge", tmp_path / "boxes.txt",
                         "--threshold", 0.02, "--out-dir", tmp_path)
        assert result.returncode == 2
        assert "refusing to overwrite input" in result.stderr
        # input untouched
        assert (tmp_path / "boxes.txt").read_text() == serialize_label_file(self.boxes())


class TestCount:
    def dataset(self, root: Path) -> Path:
        gt = [LabeledBox(0, cell_box(0)), LabeledBox(0, cell_box(1))]
        preds_a = [
            ScoredBox(0, cell_box(0), 0.9),
            ScoredBox(0, cell_box(1), 0.5),
            ScoredBox(0, cell_box(2), 0.39),
        ]
        preds_b = [ScoredBox(0, cell_box(0), 0.8), ScoredBox(0, cell_box(3), 0.45)]
        return write_dataset(root, [
            {"image_id": "a", "gt": gt, "pred": preds_a},
            {"image_id": "b", "pred": preds_b},
        ])

    def test_counts_csv_and_summary_line(self, tmp_path):
        manifest = self.dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli("count", manifest, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "images=2 predicted=4 estimated_total=66.4\n"
        assert (out / "counts.csv").read_text() == (
            "image_id,predicted_count,true_count,estimated_total\n"
            "a,2,2,33.2\n"
            "b,2,,33.2\n"
        )

    def test_volume_factor_flag(self, tmp_path):
        manifest = self.dataset(tmp_path)
        result = run_cli("count", manifest, "--volume-factor", 100,
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 0, result.stderr
        assert "estimated_total=400.0" in result.stdout

    def test_conf_thr_zero_counts_everything(self, tmp_path):
        manifest = self.dataset(tmp_path)
        result = run_cli("count", manifest, "--conf-thr", 0.0,
                         "--out-dir", tmp_path / "out")
        assert "predicted=5" in result.stdout

    def test_overflowing_estimate_gives_one_error_line(self, tmp_path):
        # the flag is finite, but predicted=4 times it is not
        manifest = self.dataset(tmp_path)
        out = tmp_path / "out"
        line = single_error_line(run_cli("count", manifest, "--volume-factor", 1e308,
                                         "--out-dir", out))
        assert "overflows" in line
        assert not out.exists()

    def test_nonpositive_volume_factor_is_usage_error(self, tmp_path):
        manifest = self.dataset(tmp_path)
        result = run_cli("count", manifest, "--volume-factor", 0,
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert "--volume-factor must be positive" in result.stderr


class TestFit:
    def test_bundled_ranking_and_csv(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("fit", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "1. Gompertz r_squared=0.9826",
            "2. VBGM r_squared=0.9738",
            "3. Linear r_squared=0.9692",
            "4. Power r_squared=0.9051",
            "5. Exponential r_squared=0.8998",
        ]
        lines = (out / "fits.csv").read_text().splitlines()
        assert lines[0] == "model,param_names,param_values,sse,r_squared,converged"
        assert lines[1].startswith("Gompertz,l_inf;k2;a;tr,")
        assert len(lines) == 6

    def test_svg_overlay_structure(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("fit", "--svg", "chart.svg", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        root = ET.fromstring((out / "chart.svg").read_text())
        curves = [el for el in root.iter() if el.tag.endswith("path")
                  and el.get("class") == "curve"]
        markers = [el for el in root.iter() if el.tag.endswith("circle")
                   and el.get("class") == "obs"]
        assert len(curves) == 5
        assert len(markers) == 11

    def test_models_subset(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("fit", "--models", "linear,power", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "1. Linear r_squared=0.9692"
        assert len((out / "fits.csv").read_text().splitlines()) == 3

    def test_unknown_model_is_usage_error(self, tmp_path):
        result = run_cli("fit", "--models", "spiral", "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert result.stderr.startswith("usage error: --models:")

    def test_unknown_model_is_refused_before_the_csv_is_read(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("fit", tmp_path / "absent.csv", "--models", "spiral", "--out-dir", out)
        assert result.returncode == 2
        assert result.stderr.startswith("usage error: --models: unknown model 'spiral'")
        assert not out.exists()

    def test_missing_csv_names_the_file(self, tmp_path):
        csv = tmp_path / "absent.csv"
        line = single_error_line(run_cli("fit", csv, "--out-dir", tmp_path / "out"))
        assert str(csv) in line
        assert not (tmp_path / "out").exists()

    def test_missing_column_names_the_file(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length\n1,1.5\n")
        result = run_cli("fit", csv, "--out-dir", tmp_path / "out")
        assert single_error_line(result) == (
            f"error: {csv}: observation CSV lacks column(s): length_mm"
        )

    def test_non_numeric_row_names_the_file_and_line(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length_mm\n1,1.5\nx,2.1\n")
        result = run_cli("fit", csv, "--out-dir", tmp_path / "out")
        assert single_error_line(result) == (
            f"error: {csv}: line 3: age_days and length_mm must be numeric"
        )

    def test_one_failed_family_fails_the_run_and_writes_nothing(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length_mm\n1,1.5\n2,2.1\n3,2.6\n4,3.0\n")
        out = tmp_path / "out"
        result = run_cli("fit", csv, "--models", "linear,gompertz", "--svg", "chart.svg",
                         "--out-dir", out)
        assert single_error_line(result).startswith(f"error: {csv}: gompertz: ")
        assert result.stdout == ""
        assert not out.exists()

    def test_too_few_observations_fails_with_family_name(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length_mm\n1,1.5\n2,2.1\n3,2.6\n")
        result = run_cli("fit", csv, "--models", "gompertz", "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {csv}: gompertz:")

    def test_failed_family_is_named_once(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length_mm\n")
        result = run_cli("fit", csv, "--models", "vbgm", "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr == f"error: {csv}: vbgm: needs at least 4 observations, got 0\n"

    def test_constant_lengths_cannot_be_ranked(self, tmp_path):
        csv = tmp_path / "obs.csv"
        csv.write_text("age_days,length_mm\n3,2.5\n")
        result = run_cli("fit", csv, "--models", "linear", "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {csv}: ")
        assert "cannot be ranked" in result.stderr

    def test_exact_linear_csv_ranks_linear_first(self, tmp_path):
        csv = tmp_path / "obs.csv"
        rows = "\n".join(f"{t},{0.4 * t + 1.2}" for t in range(1, 7))
        csv.write_text("age_days,length_mm\n" + rows + "\n")
        out = tmp_path / "out"
        result = run_cli("fit", csv, "--models", "linear", "--out-dir", out)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1. Linear r_squared=1.0000\n"

    def test_reruns_are_byte_identical(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        for out in (one, two):
            result = run_cli("fit", "--svg", "chart.svg", "--out-dir", out)
            assert result.returncode == 0, result.stderr
        assert (one / "fits.csv").read_bytes() == (two / "fits.csv").read_bytes()
        assert (one / "chart.svg").read_bytes() == (two / "chart.svg").read_bytes()

    def test_csv_with_byte_order_mark_gives_the_same_bytes(self, tmp_path):
        plain = tmp_path / "obs.csv"
        plain.write_bytes(
            resources.files("larvaekit.data").joinpath("stage_mean_lengths.csv").read_bytes()
        )
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for path, out in ((plain, tmp_path / "plain"), (bom, tmp_path / "bom")):
            result = run_cli("fit", path, "--out-dir", out)
            assert result.returncode == 0, result.stderr
            runs.append((result.stdout, (out / "fits.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_svg_name_cannot_escape_out_dir(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("fit", "--svg", "../evil.svg", "--out-dir", out)
        assert result.returncode == 2
        assert "would escape --out-dir" in result.stderr
        assert not (tmp_path / "evil.svg").exists()
        # refused before fits.csv, or even --out-dir, is written
        assert not out.exists()

    @pytest.mark.parametrize("last_age, models",
                             [("1e200", "linear"), ("1e200", "all"), ("2e153", "all")])
    def test_overflow_gives_one_error_line(self, tmp_path, last_age, models):
        csv = tmp_path / "obs.csv"
        csv.write_text(overflowing_observations(last_age))
        out = tmp_path / "out"
        # no numpy warning may reach stderr ahead of the error line
        single_error_line(run_cli("fit", csv, "--models", models, "--out-dir", out))
        assert not out.exists()


class TestReport:
    def dataset(self, root: Path, with_density=True) -> Path:
        gt = [LabeledBox(0, cell_box(0)), LabeledBox(0, cell_box(1))]
        full = [ScoredBox(0, cell_box(0), 0.9), ScoredBox(0, cell_box(1), 0.8)]
        half = [ScoredBox(0, cell_box(0), 0.9)]
        items = [
            {"image_id": "lo", "gt": gt, "pred": full, "density": 50},
            {"image_id": "hi", "gt": gt, "pred": half, "density": 100},
        ]
        if not with_density:
            del items[1]["density"]
        return write_dataset(root, items)

    def test_density_rows_and_trend_flag(self, tmp_path):
        manifest = self.dataset(tmp_path)
        out = tmp_path / "out"
        result = run_cli("report", manifest, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        text = (out / "density_report.csv").read_text()
        assert text == (
            "density,num_images,mean_counting_accuracy,mean_ap\n"
            "50,1,1.0000,1.0000\n"
            "100,1,0.5000,0.5000\n"
        )
        assert result.stdout.endswith("accuracy_strictly_decreasing=true\n")
        assert text in result.stdout

    def test_image_without_gt_is_left_out_as_eval_does(self, tmp_path):
        gt = [LabeledBox(0, cell_box(0))]
        manifest = write_dataset(tmp_path, [
            {"image_id": "a", "gt": gt, "pred": [ScoredBox(0, cell_box(0), 0.9)],
             "density": 100},
            {"image_id": "b", "pred": [ScoredBox(0, cell_box(1), 0.9)], "density": 100},
        ])
        report = run_cli("report", manifest, "--out-dir", tmp_path / "report")
        assert report.returncode == 0, report.stderr
        assert (tmp_path / "report" / "density_report.csv").read_text() == (
            "density,num_images,mean_counting_accuracy,mean_ap\n"
            "100,2,1.0000,1.0000\n"
        )
        evaluated = run_cli("eval", manifest, "--group-by", "density_group",
                            "--aggregation", "per_image_mean", "--out-dir", tmp_path / "eval")
        assert evaluated.returncode == 0, evaluated.stderr
        rows = list(csv.DictReader((tmp_path / "eval" / "eval.csv").read_text().splitlines()))
        assert [(r["group"], r["num_images"], r["ap"]) for r in rows] == [("100", "2", "1.0000")]

    @pytest.mark.parametrize("seed", range(6))
    def test_mean_ap_equals_eval_per_image_mean(self, tmp_path, seed):
        """Over manifests mixing images with and without GT, every group agrees."""
        rng = np.random.default_rng(seed)
        images = []
        for i in range(int(rng.integers(6, 16))):
            gt, pred = crowded_instance(rng)
            item = {"image_id": f"i{i}", "pred": pred[:int(rng.integers(0, len(pred) + 1))],
                    "density": int(rng.choice([50, 100, 150, 200, 300, 400]))}
            if rng.random() < 0.6:
                item["gt"] = gt
            images.append(item)
        # 500 holds only images without GT, so its means read 0
        images.append({"image_id": "bare", "pred": images[0]["pred"], "density": 500})
        manifest = write_dataset(tmp_path, images)
        report = run_cli("report", manifest, "--out-dir", tmp_path / "report")
        assert report.returncode == 0, report.stderr
        evaluated = run_cli("eval", manifest, "--group-by", "density_group",
                            "--aggregation", "per_image_mean", "--out-dir", tmp_path / "eval")
        assert evaluated.returncode == 0, evaluated.stderr
        with open(tmp_path / "report" / "density_report.csv") as f:
            mean_aps = {r["density"]: r["mean_ap"] for r in csv.DictReader(f)}
        with open(tmp_path / "eval" / "eval.csv") as f:
            assert mean_aps == {r["group"]: r["ap"] for r in csv.DictReader(f)}
        assert mean_aps["500"] == "0.0000"

    def test_missing_density_group_fails(self, tmp_path):
        manifest = self.dataset(tmp_path, with_density=False)
        result = run_cli("report", manifest, "--out-dir", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "density" in result.stderr.lower()


def single_error_line(result) -> str:
    assert result.returncode == 1, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: ")
    return lines[0]


class TestInputErrors:
    """A malformed input exits 1 with one ``error:`` line that names it."""

    @pytest.mark.parametrize("command", ["eval", "count"])
    def test_box_collapsing_in_float64_names_the_image(self, tmp_path, command):
        manifest = small_dataset(tmp_path)
        (tmp_path / "a_gt.txt").write_text("0 0.5 0.5 1e-20 0.1\n")
        line = single_error_line(run_cli(command, manifest, "--out-dir", tmp_path / "out"))
        assert line.startswith("error: image 'a': line 1: box (0.5, 0.5, 1e-20, 0.1) ")

    @pytest.mark.parametrize("command", ["eval", "count", "report", "fit", "preprocess"])
    def test_non_utf8_input_names_the_file(self, tmp_path, command):
        if command == "fit":
            bad = tmp_path / "obs.csv"
            bad.write_bytes(b"age_days,length_mm\n1,\xff\n")
            argv = ("fit", bad)
        elif command == "preprocess":
            (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
            bad = tmp_path / "img.txt"
            bad.write_bytes(b"\xff0 0.5 0.5 0.1 0.1\n")
            argv = ("preprocess", "rotate", tmp_path / "img.ppm")
        else:
            bad = small_dataset(tmp_path)
            bad.write_bytes(b"\xff" + bad.read_bytes())
            argv = (command, bad)
        line = single_error_line(run_cli(*argv, "--out-dir", tmp_path / "out"))
        assert line.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", ["eval", "count", "fit"])
    def test_oversized_csv_field_names_the_file(self, tmp_path, command):
        if command == "fit":
            bad = tmp_path / "obs.csv"
            bad.write_text("age_days,length_mm\n1," + "9" * 131073 + "\n")
        else:
            bad = small_dataset(tmp_path)
            header = bad.read_text().splitlines()[0]
            bad.write_text(header + "\na," + "x" * 131073 + ",,,10,10,,\n")
        result = run_cli(command, bad, "--out-dir", tmp_path / "out")
        assert single_error_line(result) == (
            f"error: {bad}: line 2: field larger than field limit (131072)"
        )

    def test_truncated_frame_names_the_file(self, tmp_path):
        frame = tmp_path / "x.ppm"
        frame.write_bytes(b"P5\n2 2\n255\n\x00")
        result = run_cli("preprocess", "rotate", frame, "--out-dir", tmp_path / "out")
        assert single_error_line(result) == f"error: {frame}: expected 4 payload bytes, got 1"

    def test_malformed_sibling_label_names_the_file(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
        label = tmp_path / "img.txt"
        label.write_text("0 0.5 0.5 0.1\n")
        result = run_cli("preprocess", "rotate", tmp_path / "img.ppm",
                         "--out-dir", tmp_path / "out")
        assert single_error_line(result) == f"error: {label}: line 1: expected 5 fields, got 4"

    @pytest.mark.parametrize("action", ["rotate", "enlarge"])
    def test_box_too_thin_for_six_decimals_names_the_file(self, tmp_path, action):
        # Parses, but its width would be written as 0.000000, which no
        # later run could read back.
        label = tmp_path / "img.txt"
        label.write_text("0 0.5 0.5 0.0000001 0.1\n")
        if action == "rotate":
            (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
            argv = ("rotate", tmp_path / "img.ppm")
        else:
            argv = ("enlarge", label, "--threshold", 1e-12)
        out = tmp_path / "out"
        line = single_error_line(run_cli("preprocess", *argv, "--out-dir", out))
        assert line.startswith(f"error: {label}: box ")
        assert not out.exists()


def tree(root: Path) -> dict:
    """Every file under ``root``, hidden ones included, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestStagedOutputs:
    """Outputs appear in --out-dir only when the whole run succeeds."""

    def frames(self, root: Path):
        good, bad = root / "a.ppm", root / "b.ppm"
        good.write_bytes(encode_raster(solid_image(8, 6)))
        bad.write_bytes(b"P5\n2 2\n255\n\x00")
        return good, bad

    @pytest.mark.parametrize("out_dir", ["out", "new/out"])
    def test_failed_batch_creates_no_out_dir(self, tmp_path, out_dir):
        good, bad = self.frames(tmp_path)
        result = run_cli("preprocess", "rotate", good, bad, "--out-dir", tmp_path / out_dir)
        assert single_error_line(result).startswith(f"error: {bad}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "b.ppm"]

    def test_failed_batch_keeps_older_outputs(self, tmp_path):
        good, bad = self.frames(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.ppm").write_bytes(b"older output")
        result = run_cli("preprocess", "rotate", good, bad, "--out-dir", out)
        assert single_error_line(result).startswith(f"error: {bad}: ")
        assert tree(out) == {Path("a.ppm"): b"older output"}

    def test_successful_run_replaces_older_outputs(self, tmp_path):
        good, _ = self.frames(tmp_path)
        (tmp_path / "a.txt").write_text("0 0.5 0.5 0.1 0.2\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.ppm").write_bytes(b"older output")
        result = run_cli("preprocess", "rotate", good, "--out-dir", out)
        assert result.returncode == 0, result.stderr
        files = tree(out)
        assert sorted(map(str, files)) == ["a.ppm", "a.txt"]
        assert decode_raster(files[Path("a.ppm")]).width == 6
        assert files[Path("a.txt")] == b"0 0.500000 0.500000 0.200000 0.100000\n"

    def test_directory_in_the_way_is_refused_before_any_rename(self, tmp_path):
        manifest = small_dataset(tmp_path)
        out = tmp_path / "out"
        (out / "pr_curve.csv").mkdir(parents=True)
        (out / "eval.csv").write_bytes(b"older output")
        result = run_cli("eval", manifest, "--out-dir", out)
        assert result.returncode == 2
        assert result.stderr == "usage error: output 'pr_curve.csv' is a directory in --out-dir\n"
        assert tree(out) == {Path("eval.csv"): b"older output"}

    @pytest.mark.parametrize("argv", [
        ("preprocess", "crop", "a.ppm", "--width", 9, "--height", 9),
        ("fit", "--svg", "sub/x.svg"),
    ])
    def test_late_failure_creates_no_out_dir(self, tmp_path, argv):
        self.frames(tmp_path)
        out = tmp_path / "out"
        result = run_cli(*argv, "--out-dir", out, cwd=tmp_path)
        line = single_error_line(result)
        assert ".partial" not in line
        assert {"preprocess": "a.ppm", "fit": "sub/x.svg"}[argv[0]] in line
        assert not out.exists()

    @pytest.mark.parametrize("shape", ["same label name", "shared sibling label"])
    def test_colliding_output_names_are_refused(self, tmp_path, shape):
        label = serialize_label_file([LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))])
        if shape == "same label name":
            inputs = [tmp_path / "d1" / "x.txt", tmp_path / "d2" / "x.txt"]
            for path in inputs:
                path.parent.mkdir()
                path.write_text(label)
            argv, name = ("enlarge", *inputs, "--threshold", 0.5), "x.txt"
        else:
            inputs = [tmp_path / "a.ppm", tmp_path / "a.pgm"]
            for path in inputs:
                path.write_bytes(encode_raster(solid_image(8, 8)))
            (tmp_path / "a.txt").write_text(label)
            argv, name = ("rotate", *inputs), "a.txt"
        out = tmp_path / "out"
        result = run_cli("preprocess", *argv, "--out-dir", out)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [f"usage error: output {name!r} would be written twice"]
        assert not out.exists()


class TestInputsAreNotOverwritten:
    def test_symlinked_input_is_written_under_its_own_name(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        frame = encode_raster(solid_image(8, 6))
        (tmp_path / "b" / "y.pgm").write_bytes(frame)
        (tmp_path / "a" / "x.pgm").symlink_to(Path("..") / "b" / "y.pgm")
        result = run_cli("preprocess", "rotate", tmp_path / "a" / "x.pgm",
                         "--out-dir", tmp_path / "b")
        assert result.returncode == 0, result.stderr
        assert decode_raster((tmp_path / "b" / "x.pgm").read_bytes()).width == 6
        assert (tmp_path / "b" / "y.pgm").read_bytes() == frame

    def test_symlinked_input_in_out_dir_is_refused(self, tmp_path):
        label = serialize_label_file([LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))])
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        (tmp_path / "in" / "x.txt").write_text(label)
        link = tmp_path / "out" / "x.txt"
        link.symlink_to(Path("..") / "in" / "x.txt")
        result = run_cli("preprocess", "enlarge", link, "--threshold", 0.5,
                         "--out-dir", tmp_path / "out")
        assert result.returncode == 2
        assert result.stderr == (f"usage error: refusing to overwrite input {link}; "
                                 "pick another --out-dir\n")
        assert link.is_symlink() and (tmp_path / "in" / "x.txt").read_text() == label

    @pytest.mark.parametrize("command", ["eval", "fit"])
    def test_output_named_like_the_input_is_refused(self, tmp_path, command):
        if command == "eval":
            source = small_dataset(tmp_path).rename(tmp_path / "eval.csv")
        else:
            source = tmp_path / "fits.csv"
            source.write_text("age_days,length_mm\n1,1.6\n2,2.0\n3,2.4\n4,2.8\n5,3.2\n")
        before = source.read_bytes()
        result = run_cli(command, source.name, cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == (f"usage error: refusing to overwrite input {source.name}; "
                                 "pick another --out-dir\n")
        assert source.read_bytes() == before


class TestNumericFlags:
    @pytest.mark.parametrize("argv, message", [
        (("preprocess", "mask", "img.ppm", "--cx", "nan", "--cy", 4, "--radius", 3),
         "--cx must be finite, got nan"),
        (("preprocess", "noise", "img.ppm", "--variance", "inf", "--seed", 7),
         "--variance must be finite, got inf"),
        (("count", "manifest.csv", "--volume-factor", "inf"),
         "--volume-factor must be finite, got inf"),
        (("eval", "manifest.csv", "--conf-thr=-inf"), "--conf-thr must be finite, got -inf"),
        (("fit", "--multi-start", "--seed", -1), "--seed must be non-negative, got -1"),
        (("preprocess", "noise", "img.ppm", "--variance", 25, "--seed", -3),
         "--seed must be non-negative, got -3"),
    ], ids=["mask-cx", "noise-variance", "count-volume-factor", "eval-conf-thr", "fit-seed",
            "noise-seed"])
    def test_refused_before_any_output(self, tmp_path, argv, message):
        small_dataset(tmp_path)
        (tmp_path / "img.ppm").write_bytes(encode_raster(solid_image(8, 8)))
        result = run_cli(*argv, "--out-dir", "out", cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"usage error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestTopLevel:
    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "larvaekit 0.1.0"

    def test_no_subcommand_is_usage_error(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_subcommand_is_usage_error(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2


class TestImportGraph:
    def test_package_import_loads_no_submodule_and_no_numpy(self):
        result = run_python("-c", "import sys, larvaekit\n"
                            "print(sorted(name for name in sys.modules\n"
                            "             if name.split('.')[0] in ('larvaekit', 'numpy')))\n"
                            "from larvaekit import annotations, evaluation, growth\n"
                            "print(larvaekit.__version__, evaluation.evaluate_dataset.__name__)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['larvaekit']\n0.1.0 evaluate_dataset\n"
