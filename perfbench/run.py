"""cdgate benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload tau-sweep --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; cdgate is imported from ./src. The run
times SETUP_PROBES fresh interpreters that import cdgate and parse the
workload's arguments, then runs measured passes, each in a fresh
interpreter, until --seconds have passed (at least one pass; with --trace 1
one untraced pass and at least one traced pass). Every pass checks its
outputs. Untraced pass times and set-up times are corrected for the
host's speed by speed.py. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: medians over the
run's passes of the end-to-end metrics (--trace 0) or of the per-layer
metrics (--trace 1).
The lines before it print each metric with its unit and sample count,
``failed_ratio``, and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # the whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CDGATE_WORKERS", None)  # every workload sets --workers
    return env


def run_child(args: list[str], deadline: float) -> tuple[str, float, float]:
    """Run worker.py; returns (stdout, wall seconds, peak RSS in MB).

    The child is reaped with wait4, whose rusage is that child's own (the
    accounting RUSAGE_CHILDREN sums), so each pass gets its own peak RSS.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:4])} exited with "
                         f"{proc.returncode}")
    return out.decode(), wall, usage.ru_maxrss / 1024.0


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(plan: workloads.Plan, seconds: float, trace: bool,
            workdir: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    argvs = json.dumps(plan.cli)
    run_child(["--setup", argvs], deadline)  # warms file caches; not timed
    setup = []
    for _ in range(SETUP_PROBES):
        out, wall, _ = run_child(["--setup", argvs], deadline)
        probe = json.loads(out.strip().splitlines()[-1])
        setup.append((wall - probe["own_s"]) * probe["factor"])

    passes = []
    start = time.monotonic()
    while True:
        traced = trace and bool(passes)
        out, _, rss = run_child(
            ["--pass", plan.name, str(plan.seed), "1" if traced else "0",
             workdir], deadline)
        result = json.loads(out.strip().splitlines()[-1])
        result["traced"] = traced
        result["peak_rss_mb"] = rss
        passes.append(result)
        shutil.rmtree(workdir)
        os.makedirs(workdir)
        elapsed = time.monotonic() - start
        enough = elapsed >= seconds and (not trace or len(passes) >= 2)
        if enough:
            break
        if time.monotonic() + elapsed / len(passes) > deadline:
            if trace and len(passes) < 2:
                raise BenchError("no time left for a traced pass")
            break
    return {"setup": setup, "passes": passes}


def end_to_end(run: dict) -> tuple[dict, dict]:
    passes = run["passes"]
    values = {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "evolutions_per_s": statistics.median(p["evolutions"] / p["wall_s"]
                                              for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setup_s": len(run["setup"])}
    samples.update({k: len(passes) for k in values if k != "setup_s"})
    return values, samples


def per_layer(run: dict) -> tuple[dict, dict]:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        p["raw_wall_s"] for p in plain)
    return values, {k: len(traced) for k in values}


def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cdgate", "__init__.py")):
        print(f"perfbench: no cdgate sources under {ROOT}/src; run from the "
              "root of a cdgate checkout", file=sys.stderr)
        return 2

    plan = workloads.Plan(args.workload, args.seed)
    units = declared_units(bool(args.trace))
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        run = measure(plan, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = run["passes"]
    env = dict(passes[0]["environment"], git=git_sha(), nproc=os.cpu_count(),
               workload=plan.name, seed=plan.seed, cli=plan.cli)
    if env["backend"] != "numpy":
        print(f"perfbench: backend is {env['backend']!r}; a baseline is only "
              "recorded on the numpy backend", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    values, samples = per_layer(run) if args.trace else end_to_end(run)
    if set(values) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    print(f"workload {plan.name}, seed {plan.seed}: {len(passes)} passes, "
          f"{len(run['setup'])} set-up probes; "
          f"{passes[0]['evolutions']} evolutions per pass")
    for name, value in values.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]:6s} "
              f"(median of {samples[name]})")
    plain = [p for p in passes if not p["traced"]]
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in plain)
    raw = ", ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
    print(f"  untraced pass wall times: {walls} s (host-speed corrected); "
          f"all passes: {raw} s (raw)")
    print(f"  {'failed_ratio':32s} {len(failures) / attempted:>14.6g} "
          f"{'ratio':6s} ({len(failures)} of {attempted} operations)")
    for message in failures[:20]:
        print(f"  FAILED: {message}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
