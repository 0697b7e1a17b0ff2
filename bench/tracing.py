"""Outside-in layer tracing: wrap the public functions of the axdiv modules.

Every public function defined in one of LAYERS is replaced, in every
``axdiv.*`` module namespace that holds a reference to it, by a wrapper that
records a span: [name, start_ns, end_ns, parent span, op id, note].  The
modules import each other's names with ``from .x import f``, so patching only
the defining module would miss most calls.  Private helpers stay unwrapped;
their time is the self time of the public function that called them.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer figures
and ``write_spans`` writes them out once the round is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("geometry", "lattice", "bounds", "representations", "hasse",
          "ffcount", "dwork", "reports")

NAME, START, END, PARENT, OP, NOTE = range(6)


def _note(name: str, args: tuple, result) -> object:
    """The work count a span carries, recorded where the work happens."""
    if name == "geometry.lp_feasible":
        return bool(result.feasible)
    if name == "geometry.lp_minimize":
        return True
    if name == "geometry.enumerate_integral_points":
        return len(result)
    if name == "ffcount.count_points":
        spec, field = args[0], args[1]
        return [field.a, field.q ** spec.system.n]
    return None


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[NOTE] = _note(name, args, result)
                return result
            except BaseException as exc:
                span[NOTE] = f"raised {type(exc).__name__}"
                raise
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS in every axdiv namespace."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"axdiv.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "axdiv" and not modname.startswith("axdiv."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Time one traced call of a no-op costs beyond the call itself."""
    def noop():
        return None
    traced = Tracer().wrap("probe.noop", noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) / calls


def layer_metrics(spans: list[list], ops: int, op_wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round.

    Self time is a span's duration minus the durations of its child spans;
    calls are sequential on one thread, so children never overlap.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_ns = {layer: 0 for layer in LAYERS}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    lp_feasible = enum_points = ff_points = prime_ns = ext_ns = 0
    for span, kids in zip(spans, child):
        name = span[NAME]
        dur = span[END] - span[START]
        self_ns[name.split(".", 1)[0]] += dur - kids
        incl_ns[name] = incl_ns.get(name, 0) + dur
        calls[name] = calls.get(name, 0) + 1
        note = span[NOTE]
        if name in ("geometry.lp_feasible", "geometry.lp_minimize") and note is True:
            lp_feasible += 1
        elif name == "geometry.enumerate_integral_points" and isinstance(note, int):
            enum_points += note
        elif name == "ffcount.count_points" and isinstance(note, list):
            ff_points += note[1]
            if note[0] == 1:
                prime_ns += dur
            else:
                ext_ns += dur

    def s(ns: int) -> float:
        return ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lp_calls = calls.get("geometry.lp_feasible", 0) + calls.get("geometry.lp_minimize", 0)
    md_calls = calls.get("lattice.minimal_data", 0)
    return {
        "hasse.value_calls": calls.get("hasse.hasse_value", 0),
        "hasse.self_s": s(self_ns["hasse"]),
        "geometry.lp_calls": lp_calls,
        "geometry.lp_s": s(incl_ns.get("geometry.lp_feasible", 0)
                           + incl_ns.get("geometry.lp_minimize", 0)),
        "geometry.lp_feasible_share": ratio(lp_feasible, lp_calls),
        "geometry.enum_calls": calls.get("geometry.enumerate_integral_points", 0),
        "geometry.enum_points": enum_points,
        "geometry.enum_s": s(incl_ns.get("geometry.enumerate_integral_points", 0)),
        "geometry.vertex_calls": calls.get("geometry.enumerate_vertices", 0),
        "geometry.vertex_s": s(incl_ns.get("geometry.enumerate_vertices", 0)),
        "geometry.self_s": s(self_ns["geometry"]),
        "lattice.minimal_data_calls": md_calls,
        "lattice.minimal_data_per_op": ratio(md_calls, ops),
        "lattice.self_s": s(self_ns["lattice"]),
        "dwork.trace_calls": calls.get("dwork.trace_formula_count", 0),
        "dwork.gamma_s": s(incl_ns.get("dwork.gamma_approximation", 0)),
        "dwork.matrix_s": s(incl_ns.get("dwork.truncated_matrix", 0)),
        "dwork.self_s": s(self_ns["dwork"]),
        "ffcount.count_calls": calls.get("ffcount.count_points", 0),
        "ffcount.points": ff_points,
        "ffcount.prime_s": s(prime_ns),
        "ffcount.ext_s": s(ext_ns),
        "ffcount.points_per_s": ratio(ff_points, s(prime_ns + ext_ns)),
        "bounds.self_s": s(self_ns["bounds"]),
        "representations.self_s": s(self_ns["representations"]),
        "reports.self_s": s(self_ns["reports"]),
        "trace.self_coverage": ratio(s(sum(self_ns.values())), op_wall_s),
    }


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON document: the column names, then one row per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[sp[NAME], sp[START], sp[END], sp[PARENT], sp[OP], sp[NOTE]] for sp in spans]
    doc = {"columns": ["name", "start_ns", "end_ns", "parent", "op", "note"], "spans": rows}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
