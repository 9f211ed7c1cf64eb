"""Line audit: run the Tier-1 suite in-process under ``sys.settrace`` and
name every function-body statement of ``src/cflat`` that no test ran.

    PYTHONPATH=src python tests/line_audit.py

Prints one ``path:line: text`` line per unreached statement (docstrings
are not statements here) and exits 1 if there is any, or if the suite
fails.  It writes no file of its own.  Child processes are not traced.  Standard
library only: Python 3.11 has no ``sys.monitoring``."""

import ast
import contextlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cflat"


def _inner(node):
    """The statements directly inside a compound statement, those of its
    except and case clauses included."""
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, ()):
            yield from ([child] if isinstance(child, ast.stmt) else child.body)


def statements(path):
    """Map the first line of each function-body statement of the file at
    ``path`` to the lines its own code sits on: all of a simple statement,
    the header of a compound one."""
    found = {}
    for func in ast.walk(ast.parse(Path(path).read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = func.body[1:] if ast.get_docstring(func, clean=False) is not None else list(func.body)
        while stack:
            node = stack.pop()
            inner = list(_inner(node))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.extend(inner)  # a nested definition's body is walked as its own function
            end = inner[0].lineno - 1 if inner else node.end_lineno
            found[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return found


@contextlib.contextmanager
def tracing(prefix):
    """Collect the set of ``(filename, line)`` run, while the block runs,
    by frames whose code file name starts with ``prefix``."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def unreached(path, hits):
    """``(line, text)`` of each statement of ``path`` none of whose own
    lines is in ``hits``, in line order."""
    name = str(path)
    lines = Path(path).read_text().splitlines()
    return [
        (start, lines[start - 1].strip())
        for start, own in sorted(statements(path).items())
        if not any((name, line) in hits for line in own)
    ]


def main():
    sys.dont_write_bytecode = True
    with tracing(str(SOURCE)) as hits:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = missed = 0
    for path in sorted(SOURCE.rglob("*.py")):
        total += len(statements(path))
        for line, text in unreached(path, hits):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} of {total} function-body statements unreached")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
