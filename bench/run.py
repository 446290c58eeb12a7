"""larvaekit benchmark: one seeded workload through the real CLI.

Usage (from the repository root, no install needed)::

    python3 bench/run.py --workload dense-eval --seed 1 --seconds 45 --trace 0

The benchmark process generates the workload's inputs from ``--seed`` in a
temporary directory inside the checkout and lists the workload's
commands; the ``load`` commands make up a "pass" (command roles are
described in ``workloads.py``). Every command is a child
``python -m larvaekit ...`` started with this interpreter and an absolute
``src`` path. Children run one at a time, a closed loop with one client;
each one's wall time and peak RSS (``ru_maxrss`` from ``os.wait4``) are
recorded.

Scheduling: whole passes, each a launch of ``--version`` (behind
``setup_s``) and every timed command, with the yardstick (below)
launched before the first and before the middle one, until ``--seconds``
have elapsed and at least ``MIN_PASSES`` passes have run.
Every command so gets as many samples as there are passes, spread over
the whole run, and the longest commands, which weigh most in a pass's
time, get as many as the shortest. The ``check`` commands run once afterwards.

With ``--trace 0`` only the load commands are timed and the result
carries the end-to-end metrics:

- ``setup_s``: median wall time of ``python -m larvaekit --version``;
- ``wall_in_refs``: the median over passes of one pass's wall time
  divided by the mean wall time of the two yardsticks launched in it;
- ``peak_rss_mb``: the largest median RSS of any load command.

The yardstick is a fixed child, independent of the package, that starts
the interpreter, imports numpy and runs a fixed loop. The speed of a
shared machine drifts by 20% and more over minutes and moves every
child's time, the yardstick's included, together, so the spread of one
pass's time over runs shrinks when it is counted in yardsticks. On a
shared 2-vCPU VM, over ten 45-second runs of each workload, the middle
half of ``wall_s`` spread by 0.11 of its median and ``wall_in_refs`` by
0.03-0.05; in a noisier hour, 0.20 against 0.03. A change to the package moves a
pass's time but not the yardstick's, so ``wall_in_refs`` moves by the
same share. ``wall_s``, the sum of the load commands' median wall times,
is in the detail record with the yardstick's and every command's
median.

Per-subcommand medians, with their sample counts, are in the detail
record. They are not end-to-end metrics: each workload loads only some
subcommands, and the others, timed on a probe set, measure interpreter
start-up, whose run-to-run spread on a shared machine is wider than any
useful bound.

With ``--trace 1`` the probe commands are timed as well, and every timed
command also runs through ``traced_cli.py``, which installs spans around
the package's public functions. The result carries per-pass span times,
call counts and counters, each the sum over timed commands of the
median over that command's traced runs.

Every output file and stdout is hashed; bytes that differ from the
command's first run, a non-zero exit or a failed output check fail the
invocation. The stdout lines before the last hold a JSON record with
sample counts, input properties, check results and the digests; the last
line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
TAIL_PERCENTILES = (99, 95, 90)
SETUP = "setup"  # schedule key of the --version launches
YARDSTICK = "yardstick"  # schedule key of the yardstick launches
# A fixed child that does what every CLI child does first, start this
# interpreter and import numpy, then a fixed pure-Python loop like the
# package's own parsing and matching loops. Its wall time measures the
# machine's speed during the run, independently of the package.
YARDSTICK_SCRIPT = (
    "import numpy\n"
    "total = 0\n"
    "for i in range(1_000_000):\n"
    "    total += i % 7\n"
    "print(total)\n"
)
YARDSTICK_STDOUT = f"{sum(i % 7 for i in range(1_000_000))}\n"
# One process's wall time can be 10-20% off on a shared machine, so even
# the longest command is timed in more than one process.
MIN_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_in_refs", "ref"),
    ("peak_rss_mb", "MB"),
)

# Counters summed per pass, as the traced children report them.
PASS_COUNTERS = (
    ("annotations.boxes_parsed", "count"),
    ("annotations.label_bytes_read", "bytes"),
    ("raster.bytes_decoded", "bytes"),
    ("raster.bytes_encoded", "bytes"),
    ("preprocessing.boxes_dropped", "count"),
    ("preprocessing.boxes_enlarged", "count"),
    ("evaluation.iou_pairs", "computed_count"),  # kept x GT per match call, not counted
    ("growth.iterations", "count"),
)

PER_LAYER = (
    *((f"{span}.{part}", unit) for span in tracing.SPAN_NAMES
      for part, unit in (("total_s", "s"), ("self_s", "s"), ("calls", "count"))),
    ("cli.import_s", "s"),
    *PASS_COUNTERS,
    ("evaluation.matches_per_image", "ratio"),
    ("growth.converged_ratio", "ratio"),
    ("tracing.overhead_s", "s"),
)


class Runner:
    """Starts CLI children one at a time and records what they did."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launches = 0

    def launch(self, argv: list[str]) -> dict:
        """Run one child to completion; returns its time, RSS, exit code and output."""
        self.launches += 1
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.tmp)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "seq": self.launches,
            "seconds": seconds,
            "rss_kb": usage.ru_maxrss,
            "code": proc.returncode,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def run_command(self, command, traced: bool) -> dict:
        shutil.rmtree(command.out_dir, ignore_errors=True)
        args = [*command.args, "--out-dir", str(command.out_dir)]
        trace_path = self.tmp / "trace.json"
        if traced:
            record = self.launch([sys.executable, str(TRACED_CLI), str(trace_path), *args])
            record["trace"] = json.loads(trace_path.read_text()) if trace_path.exists() else None
            trace_path.unlink(missing_ok=True)
        else:
            record = self.launch([sys.executable, "-m", "larvaekit", *args])
        ok = record["code"] == 0
        record["digests"] = output_digests(command.out_dir, record["stdout"]) if ok else {}
        return record


def output_digests(out_dir: Path, stdout: str) -> dict[str, str]:
    digests = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digests[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def summary(values: list[float]) -> dict:
    """Median with its sample count, plus the highest tail percentile that
    has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def timed_commands(workload, trace: int) -> list:
    roles = ("load", "probe") if trace else ("load",)
    return [c for c in workload.commands if c.role in roles]


def schedule(runner: Runner, workload, trace: int, seconds: float, version: str):
    """Run whole passes until the deadline, then each check command once.

    Returns ``{key: [record, ...]}`` with keys ``SETUP``, ``YARDSTICK``
    and ``(label, traced)``.
    """
    fixed = {
        SETUP: ([sys.executable, "-m", "larvaekit", "--version"], f"larvaekit {version}\n"),
        YARDSTICK: ([sys.executable, "-c", YARDSTICK_SCRIPT], YARDSTICK_STDOUT),
    }
    commands = {c.label: c for c in timed_commands(workload, trace)}
    timed = [(label, traced) for label in commands for traced in range(trace + 1)]
    half = len(timed) // 2
    keys = [SETUP, YARDSTICK, *timed[:half], YARDSTICK, *timed[half:]]
    runs = {key: [] for key in keys}
    runner.launch(fixed[SETUP][0])  # warm-up: byte-compiles the package on a fresh checkout
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for key in keys:
            if key in fixed:
                argv, stdout = fixed[key]
                record = runner.launch(argv)
                record["ok"] = record["code"] == 0 and record["stdout"] == stdout
            else:
                record = runner.run_command(commands[key[0]], traced=bool(key[1]))
            runs[key].append(record)
        passes += 1
    for command in workload.commands:
        if command.role == "check":
            runs[(command.label, 0)] = [runner.run_command(command, traced=False)]
    return runs


def _median(records, field):
    return statistics.median(r[field] for r in records)


def end_to_end_metrics(workload, runs) -> tuple[dict, dict]:
    plain = {c.label: runs[(c.label, 0)] for c in timed_commands(workload, 0)}
    # Pass i is the i-th record of every command and yardsticks 2i and 2i+1.
    yardsticks = [r["seconds"] for r in runs[YARDSTICK]]
    in_refs = [sum(rs[i]["seconds"] for rs in plain.values())
               / statistics.mean(yardsticks[2 * i : 2 * i + 2])
               for i in range(len(yardsticks) // 2)]
    value = {
        "setup_s": _median(runs[SETUP], "seconds"),
        "wall_in_refs": statistics.median(in_refs),
        "peak_rss_mb": max(_median(r, "rss_kb") for r in plain.values()) / 1024,
    }
    stats = {
        "wall_s": sum(_median(r, "seconds") for r in plain.values()),
        "--version": summary([r["seconds"] for r in runs[SETUP]]),
        "yardstick": summary([r["seconds"] for r in runs[YARDSTICK]]),
    }
    stats.update({label: summary([r["seconds"] for r in rs]) for label, rs in plain.items()})
    return value, stats


def _traced_values(record) -> dict[str, float]:
    trace = record["trace"] or {"records": [], "counters": {}}
    totals = tracing.aggregate(trace["records"])
    out = {"seconds": record["seconds"]}
    for span in tracing.SPAN_NAMES:
        for part, v in totals.get(span, {"total_s": 0.0, "self_s": 0.0, "calls": 0}).items():
            out[f"{span}.{part}"] = v
    for key in ("evaluation.match_calls", "evaluation.images_evaluated",
                "growth.fits", "growth.converged", *(k for k, _ in PASS_COUNTERS)):
        out[key] = trace["counters"].get(key, 0)
    return out


def per_layer_metrics(workload, runs) -> tuple[dict, dict]:
    per_pass: dict[str, float] = {}
    import_s = []
    commands = timed_commands(workload, 1)
    for command in commands:
        traced = runs[(command.label, 1)]
        import_s += [r["trace"]["import_s"] for r in traced if r["trace"]]
        values = [_traced_values(r) for r in traced]
        for key in values[0]:
            per_pass[key] = per_pass.get(key, 0.0) + statistics.median(v[key] for v in values)
    plain_s = sum(_median(runs[(c.label, 0)], "seconds") for c in commands)
    value = dict(per_pass)
    value["cli.import_s"] = statistics.median(import_s)
    value["evaluation.matches_per_image"] = (
        per_pass["evaluation.match_calls"] / max(1, per_pass["evaluation.images_evaluated"]))
    value["growth.converged_ratio"] = per_pass["growth.converged"] / max(1, per_pass["growth.fits"])
    value["tracing.overhead_s"] = per_pass["seconds"] - plain_s
    stats = {"cli.import_s": summary(import_s)}
    for c in commands:
        stats[c.label] = summary([r["seconds"] for r in runs[(c.label, 0)]])
        stats[f"{c.label} traced"] = summary([r["seconds"] for r in runs[(c.label, 1)]])
    return value, stats


def run_workload(name: str, seed: int, seconds: float, trace: int, tmp: Path,
                 sizes=workloads.FULL) -> tuple[dict, dict]:
    """Build, time and check one workload; returns (detail record, result)."""
    import larvaekit

    workload = workloads.build(name, seed, tmp / "data", sizes)
    runner = Runner(tmp)
    runs = schedule(runner, workload, trace, seconds, larvaekit.__version__)

    failed = sum(1 for r in runs[SETUP] + runs[YARDSTICK] if not r["ok"])
    problems, reference = {}, {}
    for command in workload.commands:
        label = command.label
        records = sorted(runs.get((label, 0), []) + runs.get((label, 1), []),
                         key=lambda r: r["seq"])
        if not records:
            continue  # a probe, not run without tracing
        # The output directory holds the command's most recent run.
        found = _check(command, records[-1])
        problems[label] = list(found)
        reference[label] = next((r["digests"] for r in records if r["code"] == 0), {})
        for r in records:
            if r["code"] != 0:
                problems[label].append(f"exit {r['code']}: {r['stderr'].strip()[-300:]}")
            elif r["digests"] != reference[label]:
                problems[label].append("output bytes differ from the first run")
            elif not found:
                continue
            failed += 1
    attempted = runner.launches - 1  # the warm-up launch is not measured
    if trace:
        metrics, stats = per_layer_metrics(workload, runs)
        units = dict(PER_LAYER)
    else:
        metrics, stats = end_to_end_metrics(workload, runs)
        units = dict(END_TO_END)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "input": workload.properties,
        "error_rate": failed / attempted,
        "samples": stats,
        "problems": {label: found for label, found in problems.items() if found},
        "digests": reference,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    return detail, result


def _check(command, record) -> list[str]:
    if record["code"] != 0:
        return []  # already a failure; its outputs may be missing
    try:
        return command.check(command.out_dir, record["stdout"])
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {exc!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "larvaekit" / "__init__.py").is_file():
        print(f"error: no larvaekit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        detail, result = run_workload(args.workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
