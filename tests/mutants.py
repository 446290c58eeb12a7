"""Mutants of the label-file parser: which changed conditions do the tests notice?

Each mutant changes one site in one of ``TARGETS`` in
``src/larvaekit/annotations.py``:

- a comparison flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``);
- ``and`` and ``or`` swapped;
- an integer constant moved by +1 or -1;
- an early ``return`` or ``continue`` dropped.

The function is rebuilt with ``ast.unparse`` and spliced into the module,
whose other lines stay as they are. Every mutant runs ``TESTS`` with
``pytest -x`` on its own copy of ``src`` and ``tests`` in a temporary
directory, so the checkout is left as it was. A mutant that fails the
tests is killed. One that passes survives, and must be listed in
``EQUIVALENT`` with the reason it cannot change an answer; any other
survivor makes the run exit 1.

This is a tool, not a test: pytest does not collect it, and a run of its
91 mutants takes about 7 minutes on 2 vCPUs. Run from the repository root::

    python tests/mutants.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODULE = Path("src/larvaekit/annotations.py")
TARGETS = ("_box_fields", "_checked_confidence", "_lines", "parse_label_file", "detect_kind")
TESTS = ("tests/test_annotations.py", "tests/test_columns.py", "tests/test_golden.py")

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}

# Survivors that cannot change an answer, by label, each with the reason.
FAST_PATH = "_box_fields: if 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0 and (w * h != 0.0):"
THIRD = ("the corners recomputed after a clamp only test for no extent, and a third of the"
         " extent rounds between the corner and the centre: it meets the other corner only"
         " at a power-of-two centre with an extent in (u/2, 3u/4], u the ulp above, which"
         " no difference of two float corners gives")
EQUIVALENT = {
    f"{FAST_PATH} -> if 0.0 < x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0 and (w * h != 0.0):":
        "a box on the left edge takes the slow path, which returns it unchanged",
    f"{FAST_PATH} -> if 0.0 <= x1 < x2 < 1.0 and 0.0 <= y1 < y2 <= 1.0 and (w * h != 0.0):":
        "a box on the right edge takes the slow path, which returns it unchanged",
    f"{FAST_PATH} -> if 0.0 <= x1 < x2 <= 1.0 and 0.0 < y1 < y2 <= 1.0 and (w * h != 0.0):":
        "a box on the top edge takes the slow path, which returns it unchanged",
    f"{FAST_PATH} -> if 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 < 1.0 and (w * h != 0.0):":
        "a box on the bottom edge takes the slow path, which returns it unchanged",
    f"{FAST_PATH} return (cx, cy, w, h) -> dropped":
        "every box takes the slow path, which returns an in-bounds box unchanged",
    "_box_fields: x1, x2 = (cx - w / 2, cx + w / 2) -> x1, x2 = (cx - w / 3, cx + w / 2) (#2)": THIRD,
    "_box_fields: x1, x2 = (cx - w / 2, cx + w / 2) -> x1, x2 = (cx - w / 2, cx + w / 3) (#2)": THIRD,
    "_box_fields: y1, y2 = (cy - h / 2, cy + h / 2) -> y1, y2 = (cy - h / 3, cy + h / 2) (#2)": THIRD,
    "_box_fields: y1, y2 = (cy - h / 2, cy + h / 2) -> y1, y2 = (cy - h / 2, cy + h / 3) (#2)": THIRD,
    "detect_kind: first = text.lstrip().split('\\n', 1)[0].split('\\r', 1)[0].split()"
    " -> first = text.lstrip().split('\\n', 2)[0].split('\\r', 1)[0].split()":
        "splitting once more leaves the first piece as it was",
    "detect_kind: first = text.lstrip().split('\\n', 1)[0].split('\\r', 1)[0].split()"
    " -> first = text.lstrip().split('\\n', 1)[0].split('\\r', 2)[0].split()":
        "splitting once more leaves the first piece as it was",
}


def header(node: ast.AST) -> str:
    """The first line of ``node``'s source: a simple statement, or a compound one's header."""
    return ast.unparse(node).split("\n", 1)[0]


def sites(func: ast.FunctionDef):
    """``(shown, holder, key, new)`` for every mutation site of ``func``, in walk
    order: the mutant sets item or attribute ``key`` of ``holder`` to ``new``.
    ``shown`` is the statement the label shows, or for a dropped statement
    the block it leaves and the statement."""
    parents = {child: parent for parent in ast.walk(func) for child in ast.iter_child_nodes(parent)}

    def statement(node):
        while not isinstance(node, ast.stmt):
            node = parents[node]
        return node

    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    yield statement(node), node.ops, i, FLIPS[type(op)]()
        elif isinstance(node, ast.BoolOp):
            yield statement(node), node, "op", ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield statement(node), node, "value", node.value + step
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if node is func or not isinstance(body, list):
                continue
            for i, stmt in enumerate(body):
                if isinstance(stmt, (ast.Return, ast.Continue)):
                    yield (node, stmt), body, i, ast.Pass()


def swap(holder, key, value):
    """Set item or attribute ``key`` of ``holder`` to ``value``; return the old one."""
    if isinstance(holder, list):
        old, holder[key] = holder[key], value
    else:
        old = getattr(holder, key)
        setattr(holder, key, value)
    return old


def mutants(source: str):
    """``(label, mutated module source)`` for every site of every target."""
    lines = source.splitlines(keepends=True)
    seen = {}
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef) and func.name in TARGETS):
            continue
        start = func.lineno - 1
        for shown, holder, key, new in sites(func):
            dropped = isinstance(shown, tuple)
            before = f"{header(shown[0])} {ast.unparse(shown[1])}" if dropped else header(shown)
            old = swap(holder, key, new)
            after = "dropped" if dropped else header(shown)
            text = ast.unparse(func) + "\n"
            swap(holder, key, old)
            label = f"{func.name}: {before} -> {after}"
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" (#{seen[label]})"
            yield label, "".join(lines[:start]) + text + "".join(lines[func.end_lineno:])


def run_tests(module_source: str) -> int:
    """The exit status of ``TESTS`` on a copy of the checkout with ``module_source``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(REPO / "src", root / "src", ignore=ignore)
        shutil.copytree(REPO / "tests", root / "tests", ignore=ignore)
        shutil.copy(REPO / "pyproject.toml", root)
        (root / MODULE).write_text(module_source, encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *TESTS],
            cwd=root, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        ).returncode


def main() -> int:
    started = time.perf_counter()
    source = (REPO / MODULE).read_text(encoding="utf-8")
    if run_tests(source) != 0:
        print("the tests fail on the unmutated module", file=sys.stderr)
        return 2
    counts = {"killed": 0, "equivalent": 0, "survived": 0}
    for label, mutated in mutants(source):
        began = time.perf_counter()
        status = run_tests(mutated)
        if status in (4, 5):  # a usage error or no tests: the tool is at fault
            print(f"pytest exited {status} on {label}", file=sys.stderr)
            return 2
        outcome = "killed" if status else "equivalent" if label in EQUIVALENT else "survived"
        counts[outcome] += 1
        print(f"{outcome:10s} {time.perf_counter() - began:5.1f} s  {label}", flush=True)
    print(f"{sum(counts.values())} mutants: {counts['killed']} killed, "
          f"{counts['equivalent']} equivalent, {counts['survived']} survived "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
