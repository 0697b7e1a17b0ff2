"""Negative controls for the benchmark's checks: a right value passes, a wrong one fails.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import axdiv as ax  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

EX2 = [[(1, (3, 3, 0)), (1, (0, 2, 2))]]   # x^3 y^3 + y^2 z^2


def quadric(coeffs):
    n = len(coeffs)
    return [[(c, tuple(2 if k == i else 0 for k in range(n))) for i, c in enumerate(coeffs)]]


@pytest.mark.parametrize("p,a", [(5, 1), (7, 1), (3, 2)])
def test_brute_force_recount(p, a):
    q = p ** a
    assert checks.brute_force_count(EX2, 3, p, a) == q * (2 * q - 1)
    assert checks.check_brute_force(q * (2 * q - 1), EX2, 3, p, a) == []
    assert checks.check_brute_force(q * (2 * q - 1) + 1, EX2, 3, p, a)


def test_brute_force_skips_large_spaces():
    assert checks.check_brute_force(-1, EX2, 3, 17) == []


@pytest.mark.parametrize("p,a,coeffs", [
    (3, 1, (1, 1)), (5, 1, (1, 2)), (7, 1, (1, 1)), (7, 1, (3, 5, 6)),
    (3, 1, (1, 2, 1, 1)), (5, 1, (2, 3, 1, 4)), (3, 2, (1, 1)), (3, 2, (1, 2, 2)),
    (5, 2, (1, 3)),
])
def test_quadric_closed_form_matches_recount(p, a, coeffs):
    expect = checks.brute_force_count(quadric(coeffs), len(coeffs), p, a)
    assert checks.quadric_count(p, a, coeffs) == expect
    assert checks.check_quadric(expect, p, a, coeffs) == []
    assert checks.check_quadric(expect + p, p, a, coeffs)


def test_family_count():
    assert checks.check_family(9 * 17, 9) == []
    assert checks.check_family(9 * 17 - 1, 9)


def test_diagonal_mu():
    assert checks.diagonal_mu((2, 3, 4, 5, 6)) == 2   # the naive ceil(sum 1/d) - 1 gives 1
    assert checks.diagonal_mu((2,) * 6) == 2
    assert checks.diagonal_mu((2,) * 5) == 2
    assert checks.diagonal_mu((3, 3, 3)) == 0


def test_analysis_checks():
    ok = dict(mu_polytope=2, mu_combinatorial=2, ax_katz_value=checks.ax_katz(6, (4,)),
              n=6, degrees=(4,), D=frozenset({1, 2}), sparsity=False, diagonal_degrees=None)
    assert checks.check_analysis(**ok) == []
    assert checks.check_analysis(**{**ok, "mu_combinatorial": 1})
    assert checks.check_analysis(**{**ok, "mu_combinatorial": None}) == []
    assert checks.check_analysis(**{**ok, "ax_katz_value": ok["ax_katz_value"] + 1})
    assert checks.check_analysis(**{**ok, "mu_polytope": 0, "mu_combinatorial": 0})
    assert checks.check_analysis(**{**ok, "sparsity": True})
    diag = {**ok, "degrees": (2,) * 6, "ax_katz_value": checks.ax_katz(6, (2,) * 6),
            "diagonal_degrees": (2,) * 6}
    assert checks.check_analysis(**diag) == []
    assert checks.check_analysis(**{**diag, "mu_polytope": 1, "mu_combinatorial": None})


def test_divisibility():
    assert checks.check_divisibility(45, 5, 1) == []
    assert checks.check_divisibility(45, 5, 2)


def test_sharpness():
    # x^3 y^3 + y^2 z^2 over F_5: 45 points, mu = 1, H_5 = 4, sharp
    assert checks.check_sharpness(45, 5, 1, 4, True, True) == []
    assert checks.check_sharpness(45, 5, 1, 3, True, True)
    assert checks.check_sharpness(46, 5, 1, 4, True, True)
    assert any("predicted" in m for m in checks.check_sharpness(45, 5, 1, 4, False, True))
    assert any("observed" in m for m in checks.check_sharpness(45, 5, 1, 4, True, False))
    # 25 points, mu = 1, H = 0: not sharp, both verdicts False
    assert checks.check_sharpness(25, 5, 1, 0, False, False) == []


def test_dwork():
    assert checks.check_dwork(45 % 25, 25, 45) == []
    assert checks.check_dwork(45 % 25 + 1, 25, 45)


def make_op(workload: str, label: str):
    """The named op of the workload at seed 1, parsed."""
    ops = workloads.WORKLOADS[workload].inputs(ax, random.Random(1))
    op = next(op for op in ops if op.label == label)
    op.spec = ax.parse_variety_spec(op.document)
    return op


def test_workload_count_fields():
    wl = workloads.WORKLOADS["count-fields"]
    op = make_op("count-fields", "quadric n=4 F_5^1")
    out = wl.run(ax, op)
    assert wl.check(ax, op, out) == []
    assert wl.check(ax, op, {"count": out["count"] + 5})


def test_workload_dwork_trace():
    wl = workloads.WORKLOADS["dwork-trace"]
    op = make_op("dwork-trace", "corpus1[0] n=2 p=3")
    out = wl.run(ax, op)
    assert wl.check(ax, op, out) == []
    trace = out["trace"]
    wrong = dataclasses.replace(trace, residue=(trace.residue + 1) % trace.modulus)
    assert wl.check(ax, op, {**out, "trace": wrong})
    assert wl.check(ax, op, {**out, "exact": out["exact"] + 1})


def test_workload_sharpness_corpus():
    wl = workloads.WORKLOADS["sharpness-corpus"]
    op = make_op("sharpness-corpus", "corpus1[0] n=2 r=1")
    out = wl.run(ax, op)
    assert out["records"] and wl.check(ax, op, out) == []
    rec = out["records"][0]
    wrong = dataclasses.replace(rec, hasse_value=(rec.hasse_value + 1) % rec.p)
    assert wl.check(ax, op, {**out, "records": [wrong] + out["records"][1:]})
    assert wl.check(ax, op, {**out, "primes": out["primes"][1:]})
    inadmissible = dataclasses.replace(rec, admissible=False)
    assert wl.check(ax, op, {**out, "records": [inadmissible] + out["records"][1:]})


def test_workload_analysis_wide():
    wl = workloads.WORKLOADS["analysis-wide"]
    op = make_op("analysis-wide", "diagonal(2, 2, 3, 3, 3)")
    out = wl.run(ax, op)
    assert wl.check(ax, op, out) == []
    report = out["report"]
    wrong = dataclasses.replace(report, mu_polytope=report.mu_polytope + 1,
                                mu_combinatorial=report.mu_combinatorial + 1)
    assert wl.check(ax, op, {**out, "report": wrong})


def test_workload_analysis_wide_random_system():
    # a consistent but too low mu passes Ax-Katz and ord_3 |V| >= mu here;
    # only the benchmark's own combinatorial minimum catches it
    wl = workloads.WORKLOADS["analysis-wide"]
    op = make_op("analysis-wide", "wide[1] n=5 r=1")
    out = wl.run(ax, op)
    assert wl.check(ax, op, out) == []
    report = out["report"]
    assert report.mu_polytope >= 1
    wrong = dataclasses.replace(report, mu_polytope=report.mu_polytope - 1,
                                mu_combinatorial=report.mu_combinatorial - 1)
    messages = wl.check(ax, op, {**out, "report": wrong})
    assert messages and all("mu routes disagree" in m for m in messages)
