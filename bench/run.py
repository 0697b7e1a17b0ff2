"""axdiv benchmark: four workloads, five end-to-end metrics, an outside-in layer trace.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ../src next to this
directory.  The run repeats whole rounds of the workload's ops, each round in
a fresh process (round.py), until the next round would end past --seconds
(at least MIN_ROUNDS), and reports the median round.  Every op of every round
is checked outside the timed batch; an op that raises or fails a check counts
as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, plus the
tracing overhead measured against the untraced ones; the spans go to
bench/runs/.  The last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, spans: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "round.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != "AXDIV_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RoundError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"round exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["traced"] = spans is not None
    return result


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "ops_per_s": med(r["ops"] / r["batch_wall_s"] for r in rounds),
        "cpu_s": med(r["cpu_s"] for r in rounds),
        # each op's median round first, so one disturbed round moves no op
        "op_p50_ms": 1000 * med(med(r["op_wall_s"][label] for r in rounds)
                                for label in rounds[0]["op_wall_s"]),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_share"] = (
        statistics.median(r["batch_wall_s"] for r in traced)
        / statistics.median(r["batch_wall_s"] for r in plain) - 1)
    return out


def print_ops(rounds: list[dict]) -> None:
    labels = list(rounds[0]["op_wall_s"])
    total = sum(statistics.median(r["op_wall_s"][k] for r in rounds) for k in labels)
    print(f"# per-op wall time, median of {len(rounds)} rounds "
          f"({len(labels)} ops, {total:.3f} s in all)")
    for label in labels:
        t = statistics.median(r["op_wall_s"][label] for r in rounds)
        print(f"#   {t * 1000:10.1f} ms  {t / total:6.1%}  {label}")


def main(argv: list[str] | None = None) -> int:
    # metric names and units, and the default run length, come from here
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the workload's coefficients (default 1)")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"],
                        help="run length; rounds are not started past it "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "axdiv" / "__init__.py").is_file():
        print(f"error: no axdiv source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rounds: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            spans = None
            if traced:
                spans = BENCH / "runs" / f"spans-{args.workload}-seed{args.seed}-round{len(rounds)}.json"
            rounds.append(run_round(args.workload, args.seed, spans))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall_s"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    for r in rounds:
        for label, messages in r["failures"].items():
            for message in messages:
                print(f"# FAILED {label}: {message}")

    for k, r in enumerate(rounds):
        print(f"# round {k}{' (traced)' if r['traced'] else ''}: setup {r['setup_s']:.3f} s, "
              f"batch {r['batch_wall_s']:.3f} s wall, {r['cpu_s']:.3f} s cpu")
    plain = [r for r in rounds if not r["traced"]]
    print_ops(plain)
    print(f"# {len(rounds)} rounds in {time.perf_counter() - start:.1f} s; checks took "
          f"{statistics.median(r['check_s'] for r in rounds):.2f} s per round")
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        values = per_layer(traced, plain)
        declared = config["per_layer"]
        print(f"# tracing overhead: traced batch {values['trace.overhead_share']:+.1%} "
              f"against untraced; {values['trace.spans']:.0f} spans at the wrapper's "
              f"measured cost come to {values['trace.span_cost_s']:.3f} s; layer self "
              f"times cover {values['trace.self_coverage']:.1%} of traced op time")
    else:
        values = end_to_end(plain)
        declared = config["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"error: measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"# {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
