"""Benchmark of gsteady: the particle engine, the dissipation diagnostic, the
verification batteries and the scaling replicas.

    python3 perfbench/run.py --workload steady_powerlaw --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run sets the workload up several times, then repeats whole rounds of it
until --seconds have passed, checks every round's outputs, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and the
metrics that BENCHMARK.json lists: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  A traced run alternates untraced and traced
rounds, so that it can report the tracing overhead.  The full record of a
run, with the environment fingerprint, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
# The set-up is repeated at least SETUP_REPEATS times and until it has taken
# SETUP_SECONDS in all (at most SETUP_MAX_REPEATS times); setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
# Per-layer metrics taken from the traced set-ups rather than the rounds.
SETUP_LAYERS = ("config.build_setup", "dissipation.steady_temperature_ansatz",
                "dsmc.initial_ensemble")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _commit() -> str:
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _fingerprint(gsteady) -> dict:
    import numpy
    import scipy
    from gsteady import _kernels
    return {
        "numba_active": bool(getattr(_kernels, "NUMBA_AVAILABLE", False)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gsteady": gsteady.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _rate(rounds, key: str) -> float:
    """Work of the given kind per wall second, over the rounds that completed."""
    wall = sum(r["wall_s"] for r in rounds)
    return sum(r[key] for r in rounds) / wall if wall else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "gsteady" / "__init__.py").is_file():
        print(f"error: no gsteady sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gsteady
    import tracer
    import workloads
    import_s = time.perf_counter() - start
    if Path(gsteady.__file__).resolve().parent != SRC / "gsteady":
        print(f"error: imported gsteady from {gsteady.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = workloads.WORKLOADS[args.workload]()
    outdir = BENCH_DIR / "out" / work.name
    outdir.mkdir(parents=True, exist_ok=True)
    trc = tracer.Tracer() if args.trace else None

    def traced(on: bool):
        return trc.installed() if on else contextlib.nullcontext()

    setup_times, setup_layers = [], []
    while (len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS) \
            and len(setup_times) < SETUP_MAX_REPEATS:
        if trc:
            trc.reset()
        t0 = time.perf_counter()
        with traced(bool(trc)):
            state = work.setup(args.seed, outdir)
        setup_times.append(time.perf_counter() - t0)
        if trc:
            setup_layers.append(trc.metrics())

    rounds = []
    first_digest = None
    t_start = time.perf_counter()
    while True:
        is_traced = bool(trc) and len(rounds) % 2 == 1
        if trc:
            trc.reset()
        rnd = workloads.Round()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        out = None
        try:
            with traced(is_traced):
                out = work.run(state, rnd)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        record = {"traced": is_traced, "wall_s": wall, "cpu_s": cpu,
                  "failed": work.ops - rnd.done, "checks": []}
        if out is not None:
            checks = work.check(state, out)
            digest = work.digest(out)
            first_digest = first_digest or digest
            checks.append(("same_result_as_first_round", 0.0, digest == first_digest))
            record["checks"] = checks
            record["particle_steps"], record["collisions"] = work.counts(state, out)
        if is_traced:
            record["layers"] = trc.metrics()
        rounds.append(record)
        print(f"round {len(rounds)} traced={int(is_traced)} wall={wall:.3f}s "
              f"failed={record['failed']}", flush=True)
        for name, value, ok in record["checks"]:
            if not ok:
                print(f"  CHECK FAILED {name}: {value!r}", flush=True)
        # Start another round only if it would end within half a round of the
        # deadline, so the rounds fill --seconds however long each one is.
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * wall > args.seconds and (not trc or len(rounds) >= 2):
            break

    plain = [r for r in rounds if not r["traced"]]
    done = [r for r in plain if "particle_steps" in r]
    # A round's wall time is averaged over the run: the machine's speed drifts
    # over tens of seconds, and the mean takes in all of the run's drift.
    e2e = {
        "setup_s": _median(setup_times),
        "wall_s": statistics.fmean([r["wall_s"] for r in plain]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    layer = {
        "workload.import_s": import_s,
        "workload.cpu_s": statistics.fmean([r["cpu_s"] for r in plain]),
        "workload.particle_steps_per_s": _rate(done, "particle_steps"),
        "workload.collisions_per_s": _rate(done, "collisions"),
    }
    if trc:
        traced_rounds = [r for r in rounds if r["traced"]]
        for name in {k for r in traced_rounds for k in r["layers"]}:
            layer[name] = _median([r["layers"].get(name, 0) for r in traced_rounds])
        for name in {k for s in setup_layers for k in s}:
            if name.rsplit(".", 1)[0] in SETUP_LAYERS:
                layer[name] = _median([s.get(name, 0) for s in setup_layers])
        layer["trace.overhead_s"] = (
            statistics.fmean([r["wall_s"] for r in traced_rounds]) - e2e["wall_s"])
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / e2e["wall_s"]

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    correct = bool(done) and all(ok for r in rounds for _, _, ok in r["checks"])
    result = {
        "correct": correct,
        "attempted": work.ops * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }

    summary = {"workload": work.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": _fingerprint(gsteady),
               "setup_times_s": setup_times,
               "end_to_end": e2e, "per_layer": layer, "rounds": rounds,
               "result": result}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{work.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print("environment " + json.dumps(summary["environment"]))
    for name, value in sorted({**e2e, **layer}.items()):
        if name not in metrics:
            print(f"info {name} = {value!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
