"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 1-10]

Runs run.py once per seed, one run at a time, for the run_seconds of
BENCHMARK.json, and prints for every metric the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next
to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}: {len(args.seeds)} runs, failed shares {sorted(failed_shares)}")
    print(f"{'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{(q3 - q1) / med:8.2%} {bounds.get(name, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
