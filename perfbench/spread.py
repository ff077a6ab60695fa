"""Run one workload once per seed, untraced, and report how steady its
end-to-end metrics are.

    python3 perfbench/spread.py --workload replicas --seeds 1 2 3 4 5

For each metric it prints the median over the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median; it also prints each run's share of failed operations.  Runs are made
one after another from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    failed_shares = []
    all_correct = True
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct = all_correct and result["correct"]
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):.4f}"
        else:
            spread = "n/a"
        print(f"{name}: median={median:.6g} spread={spread}")
    print(f"correct={all_correct} failed shares={sorted(set(failed_shares))}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
