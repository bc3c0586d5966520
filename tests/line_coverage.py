"""The statements of ``src/tdx`` that no tier-1 test runs.

    python tests/line_coverage.py [PYTEST_ARG ...]

Runs tier-1 (``pytest -q`` over ``tests/``, with any extra arguments) in
this process under a ``sys.settrace`` line tracer limited to the files of
``src/tdx``, and lists each statement of those files that no test ran, as
``src/tdx/<file>:<line>: <first line of the statement>``, in file and line
order.  The statements are taken from ``ast``, docstrings skipped; a
statement counts as run when a line event fired on one of its own lines
(for a compound statement, the lines of its header, decorators included).
The last line of the report is ``N of M statements run``; pytest's own
output goes to stderr.  Stdlib only, besides the pytest that runs tier-1.

Tests that run the package in a subprocess (the hash-seed probes, the
command-line runs made with ``subprocess``) are not traced, so a statement
that only they run is listed.  The tracer makes tier-1 several times
slower: about 2-3 minutes (Python 3.11 on a 2-core x86-64 host).  Not a tier-1
test; CI runs it on every pull request and writes the report to the job
summary.

Exit status: 0 when tier-1 passed, 1 when some test failed (the report is
written either way), 2 when the tool could not run.
"""
from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdx"


def _is_docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> dict[int, range]:
    """Each statement of the file, by its first line, with the lines that
    count as its own: a simple statement's every line; a compound
    statement's header, from its first decorator to the line before its
    body."""
    out: dict[int, range] = {}
    for parent in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        for field in ("body", "orelse", "finalbody"):  # an except clause is walked as a node of its own
            body = getattr(parent, field, None)
            if not isinstance(body, list):
                continue
            for node in body:
                if not isinstance(node, ast.stmt) or (field == "body" and _is_docstring(node, body)):
                    continue
                first = min([node.lineno, *[d.lineno for d in getattr(node, "decorator_list", ())]])
                inner = getattr(node, "body", None)
                last = node.end_lineno if not isinstance(inner, list) else max(inner[0].lineno - 1, node.lineno)
                out[first] = range(first, last + 1)
    return out


def main(argv: list[str]) -> int:
    try:
        import pytest
    except ImportError as exc:
        print(f"line_coverage: cannot import pytest: {exc}", file=sys.stderr)
        return 2
    if "tdx" in sys.modules:
        print("line_coverage: tdx was imported before tracing began", file=sys.stderr)
        return 2
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def line_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    # one local tracer per file, made up front: a closure that returns itself is
    # a reference cycle, and one made per call would leave garbage that
    # ``test_a_command_leaves_no_cyclic_garbage`` counts
    tracers = {name: line_tracer(lines) for name, lines in ran.items()}

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *argv, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run = total = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for first, own in sorted(statements(path).items()):
            total += 1
            if ran[name].isdisjoint(own):
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
            else:
                run += 1
    print(f"{run} of {total} statements run")
    return 0 if status == 0 else 1 if status == 1 else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
