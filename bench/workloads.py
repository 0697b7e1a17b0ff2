"""The four workloads: their inputs, one op each, and the checks on each op.

An op is the library work behind one CLI command.  Inputs are JSON variety
documents, parsed during set-up exactly as the CLI parses a spec file.

Why the seed draws coefficients and not supports: the cost of an op depends on
its supports and is heavy-tailed (one corpus system can cost half a batch),
so drawing fresh supports per seed would make the spread between runs the
spread of the draw, not of the program.  Each workload therefore fixes its
support structures (drawn once from fixed structure seeds, below) and lets
``--seed`` draw the coefficients, which change every count, Hasse value and
Dwork residue but hardly the amount of work.  The coefficient pools are units
modulo every prime the workload uses, so no prime is skipped on some seeds
and not on others.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

CORPUS_SEED = 1          # generate_corpus(1, 25) is acceptance criterion 6's corpus
SHARPNESS_SYSTEMS = 24
# left out of the first 24: each op costs over 100 ms and spends under 15% of
# it in the Hasse value, the rest in the LP and vertex enumeration; without
# them a round takes about 8 s instead of 10, so three rounds fit in the run
SHARPNESS_LEFT_OUT = (3, 9, 15, 16, 20, 23)
SHARPNESS_PRIME_LIMIT = 29
DWORK_SYSTEMS = 8
DWORK_PRIMES = (3, 5, 7)
ANALYSIS_STRUCTURE_SEED = 11
ANALYSIS_RANDOM_N = (5, 5, 6, 6)
ANALYSIS_DIAGONALS = ((2, 2, 3, 3, 3), (2, 3, 3, 4, 4), (2,) * 6, (2,) * 10)
ANALYSIS_PRIME = 3
# (shape, p, a, n): shape "quadric" is sum c_i x_i^2, "family" is
# c1 x^3 y^3 + c2 y^2 z^2 (n = 3)
COUNT_FIELDS = (
    ("quadric", 61, 1, 4), ("quadric", 67, 1, 4), ("quadric", 71, 1, 4),
    ("family", 211, 1, 3), ("family", 251, 1, 3), ("quadric", 101, 1, 3),
    ("quadric", 7, 1, 4), ("family", 13, 1, 3), ("quadric", 5, 1, 4),
    ("quadric", 31, 2, 2), ("quadric", 13, 2, 3), ("family", 5, 3, 3),
    ("quadric", 11, 2, 3), ("quadric", 3, 3, 2), ("family", 3, 2, 3),
    ("family", 5, 2, 3),
)

# units modulo every prime the workload uses: p >= 5 in the sharpness scan,
# 3, 5 and 7 in the Dwork workload, 3 in the analysis checks
SHARPNESS_COEFFICIENTS = (1, 2, 3, 4, 6, 8, 9)
DWORK_COEFFICIENTS = (1, 2, 4, 8)
ANALYSIS_COEFFICIENTS = (1, 2, 4, 5, 7, 8)


@dataclass
class Op:
    label: str
    document: str
    params: dict = field(default_factory=dict)
    spec: object = None


def _document(supports, coefficients) -> str:
    polys = [{"support": [list(g) for g in gs],
              "coefficients": [str(c) for c in cs]}
             for gs, cs in zip(supports, coefficients)]
    return json.dumps({"n": len(supports[0][0]), "polynomials": polys})


def _draw_coefficients(rng: random.Random, supports, pool) -> list[list[int]]:
    return [[rng.choice(pool) * rng.choice((1, -1)) for _ in gs] for gs in supports]


def polys_of(spec) -> list[list[tuple]]:
    """The spec as plain (coefficient, exponent) terms for the checks."""
    return [[(spec.coefficients[(j, g)], g) for g in gs]
            for j, gs in enumerate(spec.system.supports, start=1)]


# -- sharpness-corpus: `axdiv verify` over the admissible primes 5 <= p <= 29

def sharpness_inputs(ax, rng: random.Random) -> list[Op]:
    ops = []
    for idx, spec in enumerate(ax.generate_corpus(CORPUS_SEED, SHARPNESS_SYSTEMS)):
        if idx in SHARPNESS_LEFT_OUT:
            continue
        supports = spec.system.supports
        coeffs = _draw_coefficients(rng, supports, SHARPNESS_COEFFICIENTS)
        ops.append(Op(f"corpus{CORPUS_SEED}[{idx}] n={spec.system.n} r={spec.system.r}",
                      _document(supports, coeffs)))
    return ops


def sharpness_run(ax, op: Op) -> dict:
    system = op.spec.system
    data = ax.minimal_data(system)
    D = ax.denominator_set(system, data)
    theta = ax.default_theta(system)
    primes = [p for p in ax.admissible_primes(D, theta, SHARPNESS_PRIME_LIMIT) if p >= 5]
    records = ax.sharpness_scan(op.spec, primes, theta=theta)
    return {"mu": data.mu, "primes": primes, "records": records}


def sharpness_check(ax, op: Op, out: dict) -> list[str]:
    failures = []
    if [rec.p for rec in out["records"]] != out["primes"]:
        failures.append("scan records do not match the requested primes")
    for rec in out["records"]:
        if rec.skipped_reason is not None or rec.count is None or rec.hasse_value is None:
            failures.append(f"p={rec.p}: skipped ({rec.skipped_reason})")
            continue
        # every requested prime came from admissible_primes
        if rec.admissible is not True:
            failures.append(f"p={rec.p}: requested as admissible, reported inadmissible")
        failures += checks.check_sharpness(rec.count, rec.p, out["mu"], rec.hasse_value,
                                           rec.predicted_sharp, rec.observed_sharp)
        failures += checks.check_brute_force(rec.count, polys_of(op.spec),
                                             op.spec.system.n, rec.p)
    return failures


# -- analysis-wide: `axdiv bounds` plus `axdiv conditional`, n = 5..10

_COORDS = (0, 1, 2, 3, 4)
_WEIGHTS = (45, 25, 15, 10, 5)


def _wide_corpus_supports(rng: random.Random, n: int):
    """The corpus distribution (axdiv.corpus) with n chosen by the caller:
    r in 1..2, 1..4 distinct nonzero monomials each, every variable covered.

    A copy rather than a call into axdiv.corpus, so that the inputs stay put
    when the library's private helpers change."""
    while True:
        supports = []
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, 4)
            gs: list[tuple[int, ...]] = []
            while len(gs) < size:
                g = tuple(rng.choices(_COORDS, weights=_WEIGHTS)[0] for _ in range(n))
                if any(g) and g not in gs:
                    gs.append(g)
            supports.append(sorted(gs))
        covered = {i for gs in supports for g in gs for i, e in enumerate(g) if e}
        if len(covered) == n:
            return supports


def analysis_inputs(ax, rng: random.Random) -> list[Op]:
    ops = []
    structure = random.Random(ANALYSIS_STRUCTURE_SEED)
    for k, n in enumerate(ANALYSIS_RANDOM_N):
        supports = _wide_corpus_supports(structure, n)
        coeffs = _draw_coefficients(rng, supports, ANALYSIS_COEFFICIENTS)
        ops.append(Op(f"wide[{k}] n={n} r={len(supports)}", _document(supports, coeffs)))
    for degrees in ANALYSIS_DIAGONALS:
        n = len(degrees)
        supports = [[tuple(d if k == i else 0 for k in range(n)) for i, d in enumerate(degrees)]]
        coeffs = _draw_coefficients(rng, supports, ANALYSIS_COEFFICIENTS)
        ops.append(Op(f"diagonal{degrees}", _document(supports, coeffs),
                      {"degrees": degrees}))
    return ops


def analysis_run(ax, op: Op) -> dict:
    system = op.spec.system
    report = ax.bound_report(system)
    cond = ax.conditional_number(system)
    return {"report": report, "cond": cond}


def combinatorial_mu(ax, system) -> int:
    """min over all subset pairs of n - |B| - |C| + w_Z(B,C), each weight
    scanned without a cap, so nothing depends on the polytope value (which
    minimal_data uses to cap its scans and then reports as mu)."""
    n, r = system.n, system.r
    terms = []
    for pair in ax.enumerate_subset_pairs(n, r):
        w = ax.weight_wz(system, pair)
        if w != ax.INFINITE_WEIGHT:
            terms.append(n - len(pair.B) - len(pair.C) + int(w))
    return min(terms)


def analysis_check(ax, op: Op, out: dict) -> list[str]:
    report, cond = out["report"], out["cond"]
    system = op.spec.system
    degrees = op.params.get("degrees")
    # a diagonal form's mu is pinned by its closed form; the uncapped scan
    # would cost 12 s on the n = 10 one
    mu_comb = None if degrees is not None else combinatorial_mu(ax, system)
    failures = checks.check_analysis(report.mu_polytope, mu_comb, report.ax_katz,
                                     system.n, system.degrees(), cond.D_set,
                                     cond.sparsity, degrees)
    # the bound itself at a small prime, by the library's counter; the
    # recount confirms that count wherever q^n is small enough
    p = ANALYSIS_PRIME
    count = ax.count_points(op.spec, ax.build_field(p, 1))
    failures += checks.check_divisibility(count, p, report.mu_polytope)
    failures += checks.check_brute_force(count, polys_of(op.spec), system.n, p)
    return failures


# -- dwork-trace: `axdiv dwork` (trace formula at T = 2 plus the exact count)

def dwork_inputs(ax, rng: random.Random) -> list[Op]:
    ops = []
    for idx, spec in enumerate(ax.generate_corpus(CORPUS_SEED, DWORK_SYSTEMS)):
        supports = spec.system.supports
        coeffs = _draw_coefficients(rng, supports, DWORK_COEFFICIENTS)
        doc = _document(supports, coeffs)
        for p in DWORK_PRIMES:
            ops.append(Op(f"corpus{CORPUS_SEED}[{idx}] n={spec.system.n} p={p}", doc,
                          {"p": p}))
    return ops


def dwork_run(ax, op: Op) -> dict:
    p = op.params["p"]
    trace = ax.trace_formula_count(op.spec, p, T=2)
    exact = ax.count_points(op.spec, ax.build_field(p, 1))
    return {"trace": trace, "exact": exact}


def dwork_check(ax, op: Op, out: dict) -> list[str]:
    trace, exact = out["trace"], out["exact"]
    p = op.params["p"]
    failures = []
    if trace.modulus != p ** trace.window:
        failures.append(f"modulus {trace.modulus} is not p^window = {p}^{trace.window}")
    failures += checks.check_dwork(trace.residue, trace.modulus, exact)
    failures += checks.check_brute_force(exact, polys_of(op.spec), op.spec.system.n, p)
    return failures


# -- count-fields: `axdiv count` over prime and extension fields

def count_inputs(ax, rng: random.Random) -> list[Op]:
    ops = []
    for shape, p, a, n in COUNT_FIELDS:
        if shape == "quadric":
            supports = [[tuple(2 if k == i else 0 for k in range(n)) for i in range(n)]]
        else:
            supports = [[(0, 2, 2), (3, 3, 0)]]
        coeffs = [[rng.randrange(1, p) * rng.choice((1, -1)) for _ in gs] for gs in supports]
        ops.append(Op(f"{shape} n={n} F_{p}^{a}", _document(supports, coeffs),
                      {"shape": shape, "p": p, "a": a}))
    return ops


def count_run(ax, op: Op) -> dict:
    return {"count": ax.count_points(op.spec, ax.build_field(op.params["p"], op.params["a"]))}


def count_check(ax, op: Op, out: dict) -> list[str]:
    p, a = op.params["p"], op.params["a"]
    count = out["count"]
    polys = polys_of(op.spec)
    if op.params["shape"] == "quadric":
        failures = checks.check_quadric(count, p, a, [c for c, _ in polys[0]])
    else:
        failures = checks.check_family(count, p ** a)
    return failures + checks.check_brute_force(count, polys, op.spec.system.n, p, a)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[..., list[Op]]    # (axdiv, rng) -> ops
    run: Callable[..., dict]           # (axdiv, op) -> outputs; the timed part
    check: Callable[..., list[str]]    # (axdiv, op, outputs) -> failure messages


WORKLOADS = {
    "sharpness-corpus": Workload(sharpness_inputs, sharpness_run, sharpness_check),
    "analysis-wide": Workload(analysis_inputs, analysis_run, analysis_check),
    "dwork-trace": Workload(dwork_inputs, dwork_run, dwork_check),
    "count-fields": Workload(count_inputs, count_run, count_check),
}
