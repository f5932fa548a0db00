"""Write the data files of the canonical CLI configs into one directory.

Usage: python tools/canonical_outputs.py OUTDIR

Runs each config below through ``cdgate.cli.main`` with the cdgate of this
checkout (its ``src``) and keeps only the data file, named after the
config, so that a byte-identity check between two checkouts is
``diff -r a b``. Manifests are left out: they hold wall times. Exits 1 if
any config does not exit 0, after running them all.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from cdgate.cli import main  # noqa: E402

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    failed = write_outputs(sys.argv[1])
    if failed:
        print(f"configs that did not exit 0: {', '.join(failed)}",
              file=sys.stderr)
    sys.exit(1 if failed else 0)
