"""One measured pass of a workload, in a fresh interpreter started by run.py.

    worker.py --setup ARGV_JSON
        import cdgate and cdgate.cli and parse each CLI argument list, then
        time reference units and print one JSON line with the host-speed
        factor and the seconds the units took; run.py times the whole
        process, less those seconds, as set-up time.
    worker.py --pass WORKLOAD SEED TRACE WORKDIR [--record]
        drive cdgate once and print one JSON line: wall time, evolutions,
        checks, environment and (TRACE=1) per-layer metrics. --record also
        writes this pass's outputs to reference.json.

Exit code 3 means the tracer no longer fits the program.
"""

import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_cdgate():
    sys.path.insert(0, SRC)
    import cdgate
    import cdgate.cli

    if not os.path.abspath(cdgate.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cdgate was imported from {cdgate.__file__}, "
                         f"not from {SRC}")
    return cdgate


def setup_probe(argvs) -> dict:
    cdgate = import_cdgate()
    for argv in argvs:
        cdgate.cli.parse_config(argv)
    import speed

    t0 = time.perf_counter()
    factor = speed.factor()
    return {"factor": factor, "own_s": time.perf_counter() - t0}


def one_pass(name: str, seed: int, traced: bool, workdir: str,
             record: bool) -> dict:
    cdgate = import_cdgate()
    import numpy as np

    import speed
    import tracer
    import workloads

    plan = workloads.Plan(name, seed)
    trace = tracer.Tracer(timed=traced)
    sampler = speed.Sampler()
    t0 = time.perf_counter()
    with contextlib.nullcontext() if traced else sampler:
        results = plan.run(cdgate, workdir)
    raw_wall = time.perf_counter() - t0
    wall = raw_wall if traced else sampler.corrected(raw_wall)

    attempted, failures = plan.check(results, workdir,
                                     against_reference=not record)
    evolutions = trace.evolutions()
    # failed evolutions are not counted; the failures already show
    if (plan.evolutions is not None and not failures
            and evolutions != plan.evolutions):
        raise tracer.TraceError(f"{name} counted {evolutions} evolutions, "
                                f"expected {plan.evolutions}")
    out = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "evolutions": evolutions,
        "attempted": attempted,
        "failures": failures,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "backend": cdgate._kernels.backend_name(),
            "cdgate": cdgate.__version__,
        },
        "layers": (trace.layer_metrics(raw_wall,
                                       workloads.REQUIRED_SPANS[name])
                   if traced else None),
    }
    if record:
        if seed != 0:
            raise SystemExit("--record takes seed 0, the canonical inputs")
        path = os.path.join(HERE, "reference.json")
        try:
            with open(path, encoding="utf-8") as fh:
                reference = json.load(fh)
        except FileNotFoundError:
            reference = {}
        reference[name] = plan.reference_entry(results, workdir)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return out


def main(argv) -> int:
    if argv[:1] == ["--setup"] and len(argv) == 2:
        print(json.dumps(setup_probe(json.loads(argv[1]))))
        return 0
    if argv[:1] == ["--pass"] and len(argv) in (5, 6):
        import tracer

        name, seed, trace, workdir = argv[1], int(argv[2]), argv[3], argv[4]
        try:
            out = one_pass(name, seed, trace == "1", workdir,
                           record=argv[5:] == ["--record"])
        except tracer.TraceError as exc:
            print(f"perfbench: trace error: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(out))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
