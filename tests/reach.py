"""Reach map: the lines of ``src/larvaekit`` that no golden case runs.

Every entry of ``golden.CASES`` runs in this process, on the inputs
``golden.build_inputs`` writes, under a ``sys.settrace`` hook that records
each line the package's functions execute. Every statement in a function
body under ``src/larvaekit`` that no case ran is printed as
``file:line: source``, in file and line order, then a total. A compound
statement (``if``, ``for``, ``try``, ...) counts as run when a line of its
header ran, or any statement inside it. Docstrings are left out, and no
package beyond what ``golden.py`` uses is needed.

This is a tool, not a test: pytest does not collect it, and it exits 0
whatever it lists. A table of the listed lines that must stay unreached,
and a CI check against it, are later steps. Run from the repository
root::

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import golden

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "larvaekit"


def _header_end(node: ast.stmt) -> int:
    """The last line of ``node``'s own text: its header if it holds statements."""
    inner = [child for name in ("body", "orelse", "finalbody", "handlers")
             for child in getattr(node, name, ())]
    return min(child.lineno for child in inner) - 1 if inner else node.end_lineno


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree: ast.Module) -> list[tuple[int, int, list]]:
    """``(first line, header end, inner entries)`` of each statement in a function body."""
    found = []

    def visit(body: list[ast.stmt], in_function: bool, function_body: bool = False) -> list:
        entries = []
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True, True)
                if in_function:  # the def statement itself runs in its enclosing body
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    entries.append((first, node.lineno, []))
                continue
            inner = []
            for name in ("body", "orelse", "finalbody"):
                inner += visit(getattr(node, name, []), in_function)
            for handler in getattr(node, "handlers", ()):
                inner += visit(handler.body, in_function)
            if in_function and not (function_body and k == 0 and _is_docstring(node)):
                entries.append((node.lineno, _header_end(node), inner))
        found.extend(entries)
        return entries

    visit(tree.body, False)
    return found


def trace_golden_cases() -> dict[str, set[int]]:
    """The lines each package file executed, by path, over every golden case."""
    ran: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().is_relative_to(PACKAGE)
        return local if inside[name] else None

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        golden.build_inputs(root)
        sys.settrace(on_call)
        try:
            for name in golden.CASES:
                golden.run_case(root, name)
        finally:
            sys.settrace(None)
    return {str(Path(name).resolve()): lines for name, lines in ran.items()}


def main() -> int:
    ran = trace_golden_cases()
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        executed = ran.get(str(path), set())

        def reached(entry) -> bool:
            first, header_end, inner = entry
            return (any(n in executed for n in range(first, header_end + 1))
                    or any(map(reached, inner)))

        by_line: dict[int, bool] = {}
        for entry in statements(ast.parse(source)):
            by_line[entry[0]] = by_line.get(entry[0], False) or reached(entry)
        total += len(by_line)
        lines = source.splitlines()
        name = path.relative_to(REPO).as_posix()
        missed += [f"{name}:{n}: {lines[n - 1].strip()}"
                   for n, hit in sorted(by_line.items()) if not hit]
    print(*missed, sep="\n")
    print(f"{len(missed)} of {total} statement lines in function bodies ran in none of "
          f"the {len(golden.CASES)} golden cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
