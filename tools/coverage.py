"""Statement coverage of ``src/cdgate`` under a pytest run, with the
standard library only (no coverage package is needed).

Usage: python tools/coverage.py [PYTEST_ARGS...]

Runs pytest in this process, by default as the tier-1 suite (``-q
--continue-on-collection-errors``), with the cdgate of this checkout (its
``src``) and a ``sys.settrace`` tracer that records the lines run in the
package's files. Then prints, per file of ``src/cdgate``, its statements
and the first line of each that never ran, and a total. Exits with
pytest's code, so a failing run is not mistaken for a covered one.

A statement counts as run when one of its own lines ran (its header for a
compound statement: decorators, ``def``, ``if``, ``except``, ...) or a
statement nested in it did. Docstrings and ``global``/``nonlocal`` compile
to no code and are not statements here. Tracing slows the suite several
times over, so a test with a hypothesis deadline may fail under it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "cdgate"))
TIER1 = ["-q", "--continue-on-collection-errors"]


class LineTracer:
    """Records the lines run in the files under ``directory``, as
    ``hits[real path]``, while active (``with LineTracer(d) as tracer``),
    on this thread and on threads started meanwhile; on exit the tracers
    before it are back."""

    def __init__(self, directory):
        self.prefix = os.path.realpath(directory) + os.sep
        self.hits = defaultdict(set)
        self._paths = {}  # co_filename -> real path, or None outside

    def _path(self, filename):
        if filename not in self._paths:
            path = os.path.realpath(filename)
            self._paths[filename] = (path if path.startswith(self.prefix)
                                     else None)
        return self._paths[filename]

    def _call(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        lines = self.hits[path]
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _nested(node):
    """The statements and ``except`` clauses directly inside ``node``."""
    for name in ("body", "orelse", "finalbody", "handlers"):
        yield from getattr(node, name, None) or ()


def _span(node):
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def unexecuted(path, hits):
    """``(statements, missed)`` of the Python file ``path`` given the set of
    its lines that ran: the number of its statements, and the sorted first
    lines of those that never ran."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    counted, missed = 0, []

    def visit(node):
        """Whether ``node`` ran; counts it and the statements in it."""
        nonlocal counted
        inner = list(_nested(node))
        own = set(_span(node)).difference(*map(_span, inner))
        ran = bool(own & hits)
        for child in inner:
            ran = visit(child) or ran
        if not (_is_docstring(node)
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            counted += 1
            if not ran:
                missed.append(node.lineno)
        return ran

    for node in tree.body:
        visit(node)
    return counted, sorted(missed)


def _ranges(lines):
    """Sorted line numbers as text, a run of consecutive ones as ``a-b``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def report(directory, hits):
    """Print the statements of each ``.py`` file of ``directory`` and those
    never run, given ``hits`` as ``LineTracer`` records them; return the
    total ``(statements, missed)``."""
    total = missed_total = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(directory, name))
        counted, missed = unexecuted(path, hits.get(path, set()))
        total, missed_total = total + counted, missed_total + len(missed)
        lines = f": {_ranges(missed)}" if missed else ""
        print(f"{name}: {counted} statements, {len(missed)} not run{lines}")
    print(f"total: {total} statements, {missed_total} not run")
    return total, missed_total


def main(argv):
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__.split("\n\n")[1])
        return 0
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    with LineTracer(PACKAGE) as tracer:
        code = pytest.main(argv or TIER1)
    report(PACKAGE, tracer.hits)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
