"""Count the lines of each module of ``src/cdgate`` by kind: code,
docstring, comment and blank.

Usage: python tools/source_lines.py

Prints one line per ``.py`` file of ``src/cdgate``, then the total. A
docstring line is a line of the string that opens a module, class or
function (``ast``); a comment line holds nothing but a comment, and a
blank line nothing at all, outside a docstring (``tokenize``); every other
line is code, a line with code and a trailing comment included. The four
counts add up to the file's lines.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "cdgate")
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree):
    """The line numbers of every docstring of the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``{kind: lines}`` of the Python source text ``source``."""
    docstring = _docstring_lines(ast.parse(source))
    coded = set()  # lines that hold a token other than a comment
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL,
                              tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            coded.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docstring:
            kind = "docstring"
        elif number in coded:
            kind = "code"
        elif line.strip():
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def _line(name, counts):
    return (f"{name}: {sum(counts.values())} lines: "
            + ", ".join(f"{counts[kind]} {kind}" for kind in KINDS))


def report(directory):
    """Print the counts of each ``.py`` file of ``directory``, then their
    total."""
    total = dict.fromkeys(KINDS, 0)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            counts = count(fh.read())
        print(_line(name, counts))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(_line("total", total))


def main(argv):
    if argv:
        print(__doc__.split("\n\n")[1])
        return 0 if argv in (["-h"], ["--help"]) else 2
    report(PACKAGE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
