"""One round of one workload, in a fresh process: set-up, timed batch, checks.

    python3 bench/round.py --workload NAME --seed N [--spans PATH]

run.py starts one process per round, so every round pays the import and the
analysis the way a CLI user does, and no in-process cache carries results
from one round into the next.  Prints one JSON object on its last line.
With --spans the public functions of the library are wrapped (tracing.py),
and the spans of the batch are written to PATH once the round is over.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # set-up: import the library and parse the workload's documents
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import axdiv as ax

    ops = workload.inputs(ax, random.Random(args.seed))
    for op in ops:
        op.spec = ax.parse_variety_spec(op.document)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.spans is not None:
        tracer = tracing.Tracer()
        tracer.install()

    results: list[object] = []
    op_wall: list[float] = []
    raised: dict[int, str] = {}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            results.append(workload.run(ax, op))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            results.append(None)
            raised[i] = f"raised {type(exc).__name__}: {exc}"
        op_wall.append(time.perf_counter() - start)
    batch_wall = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        spans = tracer.spans[:]
        layers = tracing.layer_metrics(spans, len(ops), sum(op_wall))
        layers["trace.spans"] = len(spans)
        layers["trace.span_cost_s"] = len(spans) * tracing.wrapper_cost_ns() / 1e9
        tracing.write_spans(spans, args.spans)

    check0 = time.perf_counter()
    failures: dict[str, list[str]] = {}
    wrong = 0
    for i, (op, out) in enumerate(zip(ops, results)):
        if i in raised:
            failures[op.label] = [raised[i]]
            continue
        try:
            messages = workload.check(ax, op, out)
        except Exception as exc:
            messages = [f"check raised {type(exc).__name__}: {exc}"]
        if messages:
            failures[op.label] = messages
            wrong += 1

    print(json.dumps({
        "setup_s": setup_s,
        "batch_wall_s": batch_wall,
        "cpu_s": cpu_s,
        "op_wall_s": dict(zip((op.label for op in ops), op_wall)),
        "peak_rss_mb": peak_rss_mb,
        "ops": len(ops),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "check_s": time.perf_counter() - check0,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
