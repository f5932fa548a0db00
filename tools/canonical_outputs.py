"""Write the data files of the canonical CLI configs into one directory,
or compare two such directories.

Usage: python tools/canonical_outputs.py OUTDIR
       python tools/canonical_outputs.py --compare OLD NEW
       python tools/canonical_outputs.py --against REF OUTDIR

Runs each config below through ``cdgate.cli.main`` with the cdgate of this
checkout (its ``src``) and keeps only the data file, named after the
config, so that a byte-identity check between two checkouts is
``diff -r a b``. Manifests are left out: they hold wall times. Exits 1 if
any config does not exit 0, after running them all.

``-h`` or ``--help`` prints the usage; any other option, or a wrong
number of arguments, exits 2 before anything is written.

``--compare`` reads the data files of two such directories and prints, per
file and column, the largest change ``|new - old| / max(1, |old|)``:
relative above 1 and absolute below, as ``perfbench`` compares outputs
with its reference. It also reports files found in one directory only,
row-count mismatches and NaN cells. It ends with one summary line: the
largest change over all files, with its file, column and row, and the
number of files whose every value is unchanged. Exits 1 if a change exceeds
``COMPARE_TOL``, a file or row is missing, or a value that was a number is
NaN; a NaN in both is no change.

``--against REF`` is the byte-identity check in one command. It extracts
the ``src`` of the git revision REF with ``git archive``, runs this
checkout's configs with it into ``OUTDIR/old`` and with this checkout's
``src`` into ``OUTDIR/new``, each in a fresh interpreter, prints the
``--compare`` report, then whether every file is byte-identical. Exits 1
on any difference or a config that does not exit 0 on either side, and 2,
before anything is written, if git cannot extract REF.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.join(_HERE, os.pardir)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from cdgate.cli import main  # noqa: E402

# the largest change ``--compare`` accepts, perfbench's reference tolerance
COMPARE_TOL = 1e-8

# name -> CLI arguments
CONFIGS = {
    "sweep-tau": ["sweep-tau"],
    "sweep-tau-cd": ["sweep-tau", "--cd"],
    "nqubit-n4-cd": ["nqubit", "--n", "4", "--cd"],
    "nqubit-n3": ["nqubit", "--n", "3"],
    # the widest error norms: 32 and 64 entries against a sector of 2
    "nqubit-n5-cd": ["nqubit", "--n", "5", "--cd"],
    "nqubit-n6": ["nqubit", "--n", "6"],
    # out to tau 200, where the widest norm drift is largest
    "nqubit-n6-long": ["nqubit", "--n", "6", "--tau", "1:200:20log"],
    "nqubit-n6-long-cd": ["nqubit", "--n", "6", "--tau", "1:200:20log",
                          "--cd"],
    "heatmap-cd": ["heatmap", "--alpha", "0:0.15:4", "--tau", "1:200:10log",
                   "--cd"],
    "heatmap": ["heatmap", "--alpha", "0:0.1:3", "--tau", "1:100:6log"],
    "optimal-tau": ["optimal-tau", "--alpha", "0.04"],
    "tradeoff": ["tradeoff"],
    "gate-check": ["gate-check"],
    "evolve": ["evolve", "--tau", "10"],
    "evolve-noisy-cd": ["evolve", "--tau", "10", "--alpha", "0.05", "--cd"],
    "evolve-json": ["evolve", "--tau", "10", "--format", "json"],
    "spectrum": ["spectrum"],
    # a ramp that ends at a negative drive, whose target is |10>
    "sweep-tau-neg": ["sweep-tau", "--j2", "-10"],
    "evolve-noisy-cd-neg": ["evolve", "--tau", "10", "--j2", "-10",
                            "--alpha", "0.05", "--cd"],
}
# --full-range-ramp is --j2 doubled; these runs pin that it stays so
_FULL_RANGE_BASES = {
    **{name: CONFIGS[name] for name in (
        "sweep-tau", "sweep-tau-cd", "heatmap", "optimal-tau", "tradeoff",
        "spectrum", "evolve", "evolve-noisy-cd")},
    "nqubit-n3-cd": ["nqubit", "--n", "3", "--cd"],
    "sweep-noise": ["sweep-noise", "--alpha", "0.05", "--tau", "1:100:12log",
                    "--cd"],
}
CONFIGS.update({f"{name}-full-range": argv + ["--full-range-ramp"]
                for name, argv in _FULL_RANGE_BASES.items()})


def write_outputs(outdir: str) -> list[str]:
    """Run every config; return the names of those that did not exit 0."""
    os.makedirs(outdir, exist_ok=True)
    failed = []
    with tempfile.TemporaryDirectory(dir=outdir) as work:
        for name, argv in CONFIGS.items():
            prefix = os.path.join(work, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--output", prefix])
            if code != 0:
                failed.append(name)
            fmt = "json" if "json" in argv else "csv"
            data = f"{prefix}_{argv[0]}.{fmt}"
            if os.path.exists(data):
                os.replace(data, os.path.join(outdir, f"{name}.{fmt}"))
    return failed


def read_rows(path: str) -> list[dict]:
    """The rows of a data file, CSV or JSON, as dicts of column -> value;
    a CSV cell that reads as a float is one."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            rows = json.load(fh)
            return rows if isinstance(rows, list) else [rows]
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except (TypeError, ValueError):
                pass
    return rows


def compare(old_dir: str, new_dir: str) -> list[str]:
    """Print the largest change per file and column between two output
    directories; return the problems, empty when within ``COMPARE_TOL``."""
    problems = []
    largest, unchanged = (0.0, None, None, None), 0  # (change, file, col, row)
    old_files, new_files = set(os.listdir(old_dir)), set(os.listdir(new_dir))
    for name in sorted(old_files ^ new_files):
        problems.append(f"{name}: only in "
                        f"{old_dir if name in old_files else new_dir}")
    for name in sorted(old_files & new_files):
        old = read_rows(os.path.join(old_dir, name))
        new = read_rows(os.path.join(new_dir, name))
        if len(old) != len(new):
            problems.append(f"{name}: {len(old)} rows, now {len(new)}")
        worst = {}  # column -> (change, row)
        for k, (a, b) in enumerate(zip(old, new)):
            for col in a.keys() | b.keys():
                x, y = a.get(col), b.get(col)
                if isinstance(x, float) and isinstance(y, float):
                    if math.isnan(x) and math.isnan(y):
                        change = 0.0
                    elif math.isnan(y):
                        problems.append(f"{name}: {col} row {k} is NaN, "
                                        f"was {x!r}")
                        change = math.inf
                    else:
                        change = abs(y - x) / max(1.0, abs(x))
                else:
                    change = 0.0 if x == y else math.inf
                if change >= worst.get(col, (-1.0, 0))[0]:
                    worst[col] = (change, k)
        for col, (change, k) in sorted(worst.items()):
            print(f"{name}: {col}: {change:.3g} (row {k})")
            if change > COMPARE_TOL:
                problems.append(f"{name}: {col} changed by {change:.3g} "
                                f"at row {k}")
            if change > largest[0]:
                largest = (change, name, col, k)
        if len(old) == len(new) and not any(c for c, _ in worst.values()):
            unchanged += 1
    change, name, col, k = largest
    where = f" ({name}, {col}, row {k})" if name else ""
    print(f"largest change {change:.3g}{where}; {unchanged} of "
          f"{len(old_files & new_files)} files unchanged")
    return problems


# a fresh interpreter that imports the cdgate of argv[1] before this tool,
# whose own src it then shadows, and writes the configs argv[4:] (all if
# none) into argv[3]
_WRITE_WITH = """
import sys
sys.path.insert(0, sys.argv[1])
import cdgate.cli
sys.path.insert(0, sys.argv[2])
import canonical_outputs as tool
tool.CONFIGS = {name: tool.CONFIGS[name] for name in sys.argv[4:] or tool.CONFIGS}
print(*tool.write_outputs(sys.argv[3]))
"""


def _write_with(src: str, outdir: str, names) -> list[str]:
    """``write_outputs`` of the configs ``names`` with the cdgate of
    ``src``; return the names of those that did not exit 0."""
    return subprocess.run(
        [sys.executable, "-c", _WRITE_WITH, src, _HERE, outdir, *names],
        stdout=subprocess.PIPE, text=True, check=True).stdout.split()


def against(ref: str, outdir: str, names=()) -> list[str]:
    """Write the configs ``names`` (all if empty) with the ``src`` of git
    revision ``ref`` into ``outdir/old`` and with this checkout's into
    ``outdir/new``, compare them and check that every file is
    byte-identical; return the problems. ``ValueError`` if git cannot
    extract ``ref``, before anything is written."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                             cwd=_ROOT, capture_output=True)
    if archive.returncode != 0:
        raise ValueError(f"git archive {ref}: "
                         f"{archive.stderr.decode().strip()}")
    old, new = (os.path.join(outdir, side) for side in ("old", "new"))
    with tempfile.TemporaryDirectory() as work:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(work, filter="data")
        problems = [f"{ref}: {name} did not exit 0"
                    for name in _write_with(os.path.join(work, "src"), old,
                                            names)]
    problems += [f"this checkout: {name} did not exit 0"
                 for name in _write_with(os.path.join(_ROOT, "src"), new,
                                         names)]
    problems += compare(old, new)
    common = sorted(set(os.listdir(old)) & set(os.listdir(new)))
    _, differ, _ = filecmp.cmpfiles(old, new, common, shallow=False)
    if differ:
        problems.append(f"not byte-identical: {', '.join(differ)}")
    print(f"{len(common) - len(differ)} of {len(common)} files "
          f"byte-identical")
    return problems


def run(argv: list[str]) -> int:
    """The command line: usage on ``-h``/``--help`` (0), then exit 2 before
    anything is written for any other option or a wrong argument count."""
    usage = __doc__.split("\n\n")[1]
    if argv[:1] in (["-h"], ["--help"]):
        print(usage)
        return 0
    if len(argv) == 3 and argv[0] in ("--compare", "--against"):
        try:
            problems = (compare if argv[0] == "--compare" else against)(
                argv[1], argv[2])
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        for line in problems:
            print(line, file=sys.stderr)
        return 1 if problems else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(usage, file=sys.stderr)
        return 2
    failed = write_outputs(argv[0])
    if failed:
        print(f"configs that did not exit 0: {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
