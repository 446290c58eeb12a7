"""Tests for the benchmark itself: ``python -m pytest bench -q``."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_every_check(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 2)  # still compares digests across runs
    detail, result = run.run_workload(name, 5, 0.01, trace, tmp_path, workloads.TINY)
    assert detail["problems"] == {}
    assert result["correct"] and result["failed"] == 0
    w = workloads.build(name, 5, tmp_path / "again", workloads.TINY)
    timed = len(run.timed_commands(w, trace))
    checks = sum(c.role == "check" for c in w.commands)
    assert len(detail["digests"]) == timed + checks
    assert result["attempted"] == 2 * (3 + timed * (1 + trace)) + checks  # --version, 2 yardsticks
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    if trace:
        assert all(result["metrics"][f"{span}.calls"]["value"] > 0 for span in tracing.SPAN_NAMES)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_count_check_rejects_wrong_totals(tmp_path):
    w = workloads.build("dense-eval", 2, tmp_path / "data", workloads.TINY)
    count = next(c for c in w.commands if c.kind == "count")
    count.out_dir.mkdir(parents=True)
    (count.out_dir / "counts.csv").write_text(
        "image_id,predicted_count,true_count,estimated_total\ngrid,1,1,16.6\n")
    assert count.check(count.out_dir, "")


def test_grid_check_rejects_a_wrong_confusion_split(tmp_path):
    w = workloads.build("dense-eval", 2, tmp_path / "data", workloads.TINY)
    (grid,) = (c for c in w.commands if c.role == "check")
    grid.out_dir.mkdir(parents=True)
    header = "group,num_images,num_gt,tp,fp,fn,precision,recall,f1,"
    header += "confusion_accuracy,counting_accuracy,ap\n"
    row = "all,1,60,{},4,{},0,0,0,0,0,0\n"
    (grid.out_dir / "eval.csv").write_text(header + row.format(55, 5))
    assert grid.check(grid.out_dir, "") == []
    (grid.out_dir / "eval.csv").write_text(header + row.format(54, 6))
    assert grid.check(grid.out_dir, "")


def test_image_check_rejects_unrotated_pixels(tmp_path):
    w = workloads.build("sparse-preprocess", 2, tmp_path / "data", workloads.TINY)
    rotate = next(c for c in w.commands if c.kind == "rotate")
    rotate.out_dir.mkdir(parents=True)
    for arg in rotate.args[2:]:
        frame = Path(arg)
        (rotate.out_dir / frame.name).write_bytes(frame.read_bytes())
        (rotate.out_dir / frame.with_suffix(".txt").name).write_text(
            frame.with_suffix(".txt").read_text())
    assert any("pixels differ" in p for p in rotate.check(rotate.out_dir, ""))


def test_self_time_subtracts_direct_children():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    inner = tracer.wrap("m.inner", lambda: tick(1.0))

    def middle():
        tick(1.0)
        inner()
        tick(1.0)

    middle = tracer.wrap("m.middle", middle)

    def outer():
        tick(1.0)
        middle()
        middle()
        tick(2.0)

    tracer.wrap("m.outer", outer)()
    totals = tracing.aggregate(tracer.records)
    assert totals["m.outer"] == {"total_s": 9.0, "self_s": 3.0, "calls": 1}
    assert totals["m.middle"] == {"total_s": 6.0, "self_s": 4.0, "calls": 2}
    assert totals["m.inner"] == {"total_s": 2.0, "self_s": 2.0, "calls": 2}
    assert [r[3] for r in tracer.records] == [-1, 0, 1, 0, 3]


def test_install_wraps_every_binding_and_skips_deleted_functions(monkeypatch):
    package = types.ModuleType("fakepkg")
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    home.work = user.work = package.work = work
    for module in (package, home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer()
    tracer.install("fakepkg", spans=[("home", "work"), ("home", "deleted"), ("gone", "f")],
                   counters={})
    assert home.work(1) == user.work(1) == package.work(1) == 2
    assert tracer.missing == ["home.deleted", "gone.f"]
    assert tracing.aggregate(tracer.records)["home.work"]["calls"] == 3


def test_summary_reports_a_tail_only_with_ten_samples_beyond_it():
    assert "p90" not in run.summary([1.0] * 99)
    assert set(run.summary(list(range(100)))) == {"median", "n", "p90"}
    assert set(run.summary(list(range(200)))) == {"median", "n", "p95"}


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sparse-preprocess", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
