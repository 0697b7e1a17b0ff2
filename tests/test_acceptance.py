"""End-to-end acceptance gate.

One test per criterion; each appends a PASS/FAIL line to the summary block
printed after the run.  Budgets are asserted, not aspirational.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from fractions import Fraction

import pytest
from helpers import record_criterion

from axdiv import (
    admissible_primes,
    ax_katz_bound,
    build_field,
    conditional_number,
    count_points,
    default_theta,
    denominator_set,
    from_int,
    gamma_approximation,
    hasse_polynomial,
    homogeneity_report,
    leading_trace_congruence,
    minimal_data,
    ord_q,
    pi_element,
    psi_closure_check,
    sharpness_scan,
    density_estimate,
    density_document,
    subset_pair,
    support_system,
    teichmuller_lift,
    trace_formula_count,
    unit_variety,
    variety_spec,
    weight_polytope,
)

PRIMES = (3, 5, 7, 11, 13)
A_MIXED = (1, (0, 2, 2))
A_CUBE = (1, (3, 3, 0))


def coefficient_pairs():
    """(1,1) plus five seeded draws, all coprime to every tested prime."""
    rng = random.Random(20240814)
    pool = [x for x in range(-30, 31) if x and math.gcd(x, 3 * 5 * 7 * 11 * 13) == 1]
    return [(1, 1)] + [(rng.choice(pool), rng.choice(pool)) for _ in range(5)]


def ex2_with(a, b):
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    return variety_spec(system, {A_CUBE: a, A_MIXED: b})


@pytest.fixture(scope="module")
def corpus_data(corpus25):
    return [(V, minimal_data(V.system)) for V in corpus25]


def test_criterion_01_ex2_counts(ex2_system):
    pairs = coefficient_pairs()
    worst = 0.0
    failures = []
    for p in PRIMES:
        field = build_field(p, 1)
        for a, b in pairs:
            t0 = time.perf_counter()
            count = count_points(ex2_with(a, b), field)
            worst = max(worst, time.perf_counter() - t0)
            if count != p * (2 * p - 1) or ord_q(count, p) != 1:
                failures.append((p, a, b, count))
    mu = weight_polytope(ex2_system) - 1
    ok = not failures and mu == 1 and worst < 1.0
    assert record_criterion(
        1, ok, f"counts p(2p-1), ord=mu=1 for {len(pairs)} coefficient pairs "
               f"x {len(PRIMES)} primes, slowest count {worst:.3f}s"), failures
    assert worst < 1.0


def test_criterion_02_hasse_golden(ex2_system):
    H = hasse_polynomial(ex2_system, 5)
    expected = ("4*A[1,(3,3,0)]^4 + 4*A[1,(0,2,2)]^4"
                " + 1*A[1,(0,2,2)]^4*A[1,(3,3,0)]^4")
    value = H.evaluate({A_MIXED: 1, A_CUBE: 1})
    count = count_points(ex2_with(1, 1), build_field(5, 1))
    ok = str(H) == expected and value == 4 and count // 5 % 5 == value
    assert record_criterion(
        2, ok, f"H_5 = {H}; H_5(1,1) = {value} = (45/5 mod 5)")


def test_criterion_03_conditional_number(ex2_system):
    report = conditional_number(ex2_system)
    structural = (report.c_value == -1 and report.D_set == {1} and report.sparsity)
    failures = []
    for p in (5, 7, 11, 13):
        H = hasse_polynomial(ex2_system, p)
        for a, b in coefficient_pairs():
            value = H.evaluate({A_CUBE: a, A_MIXED: b})
            if value != p - 1:
                failures.append((p, a, b, value))
    ok = structural and not failures
    assert record_criterion(
        3, ok, f"c = {report.c_value}, D = {set(report.D_set)}, "
               f"sparsity = {report.sparsity}; H_p(a) = -1 mod p over "
               f"4 primes x 6 tuples"), failures


def test_criterion_04_mu_cross_check(corpus25, corpus_data):
    t0 = time.perf_counter()
    mismatches = []
    for V, data in corpus_data:
        system = V.system
        if data.mu != weight_polytope(system) - system.r:
            mismatches.append((V, "route"))
        if data.mu < ax_katz_bound(system.n, system.degrees()):
            mismatches.append((V, "ax-katz"))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and len(corpus_data) == 25 and elapsed < 120
    assert record_criterion(
        4, ok, f"mu routes agree and dominate Ax-Katz on 25/25 instances "
               f"({elapsed:.1f}s)"), mismatches
    assert elapsed < 120


def test_criterion_05_divisibility_lower_bound(corpus_data):
    checks = 0
    failures = []
    for V, data in corpus_data:
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if any(c.numerator % p == 0 for c in V.coefficients.values()):
                continue
            count = count_points(V, build_field(p, 1))
            checks += 1
            if ord_q(count, p) < data.mu:
                failures.append((V, p, count))
    ok = not failures and checks > 150
    assert record_criterion(
        5, ok, f"ord_p >= mu in {checks}/{checks} corpus x prime cases"), failures


def test_criterion_06_central_congruence(corpus_data):
    t0 = time.perf_counter()
    congruence_checks = 0
    failures = []
    for V, data in corpus_data:
        system = V.system
        D = denominator_set(system, data)
        primes = [p for p in admissible_primes(D, default_theta(system), 31) if p >= 5]
        if not primes:
            continue
        for rec in sharpness_scan(V, primes, theta=default_theta(system)):
            if rec.congruent is None:
                continue  # coefficient reduced to zero mod p: no Hasse side
            congruence_checks += 1
            if not rec.congruent or rec.predicted_sharp != rec.observed_sharp:
                failures.append((V, rec.p, rec))
    elapsed = time.perf_counter() - t0
    ok = not failures and congruence_checks > 50 and elapsed < 300
    assert record_criterion(
        6, ok, f"|V|/p^mu = H_p(a) mod p and predicted=observed in "
               f"{congruence_checks}/{congruence_checks} admissible cases "
               f"({elapsed:.1f}s)"), failures
    assert elapsed < 300


def test_criterion_07_extension_fields(ex2_system):
    V = ex2_with(1, 1)
    failures = []
    for p, a in ((3, 2), (5, 2)):
        q = p ** a
        count = count_points(V, build_field(p, a))
        if count != q * (2 * q - 1) or ord_q(count, p, a) != 1:
            failures.append((q, count))
        H2 = hasse_polynomial(ex2_system, p, 2)
        value = H2.evaluate(V.coefficients)
        if count % p ** 2 != 0 or (count // p ** 2) % p != value:
            failures.append((q, "congruence", value))
    assert record_criterion(
        7, not failures, "counts q(2q-1) over F_9/F_25 with ord_q = 1; "
                         "H^[2] congruence holds at p = 3, 5"), failures


def test_criterion_08_denominator_example(skew_system):
    V = unit_variety(skew_system)
    D = denominator_set(skew_system, minimal_data(skew_system))
    data = minimal_data(skew_system)
    counts = {p: count_points(V, build_field(p, 1)) for p in (5, 7, 11, 13)}
    shape_ok = all(c in (2 * p - 1, 4 * p - 3) for p, c in counts.items())
    ok = D == {1, 2} and data.mu == 0 and shape_ok
    assert record_criterion(
        8, ok, f"D = {set(D)}, mu = 0, counts {sorted(counts.values())} "
               f"all of the form 2p-1 or 4p-3"), counts


def test_criterion_09_dwork_trace_formula(ex2_system):
    t0 = time.perf_counter()
    line = unit_variety(support_system(1, [[(1,)]]))
    diag = variety_spec(support_system(2, [[(2, 0), (0, 2)]]),
                        {(1, (2, 0)): 1, (1, (0, 2)): 2})
    failures = []
    for spec in (line, diag, ex2_with(1, 1)):
        for p in (3, 5):
            out = trace_formula_count(spec, p, T=2)
            exact = count_points(spec, build_field(p, 1))
            if out.residue != exact % out.modulus:
                failures.append((spec, p, out.residue, exact))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    assert record_criterion(
        9, ok, f"trace formula matches exact counts mod p^(T+1-s) on "
               f"3 systems x 2 primes ({elapsed:.1f}s)"), failures
    assert elapsed < 60


def test_criterion_10_property_suites(ex2_system, corpus25):
    V = ex2_with(1, 1)
    issues = []

    # ramified ring axioms on a small sample
    rng = random.Random(7)
    for p in (3, 5):
        xs = [pi_element(p, 4).scale(rng.randrange(p ** 4))
              + from_int(rng.randrange(p ** 4), p, 4) for _ in range(4)]
        for x, y, z in zip(xs, xs[1:], xs[2:]):
            if (x + y) * z != x * z + y * z or x * y != y * x:
                issues.append(("ring", p))

    # gamma: congruent to pi mod pi^2 and gamma^(p-1)/p = -1 mod gamma
    for p in (3, 5, 7):
        gamma = gamma_approximation(p, 5)
        if (gamma - pi_element(p, 5)).val_pi() < 2:
            issues.append(("gamma-pi", p))
        ratio = (gamma ** (p - 1)).divide_p()
        if (ratio + from_int(1, p, ratio.me)).val_pi() < 1:
            issues.append(("gamma-defining", p))

    # Teichmueller laws mod 5^3
    mod = 5 ** 3
    lifts = {x: teichmuller_lift(x, 5, 3) for x in range(5)}
    for x in range(5):
        if pow(lifts[x], 5, mod) != lifts[x] or lifts[x] % 5 != x:
            issues.append(("teichmuller", x))
    for x in range(1, 5):
        for y in range(1, 5):
            if lifts[x] * lifts[y] % mod != lifts[x * y % 5]:
                issues.append(("teichmuller-mult", x, y))

    # psi-closure of enumerated windows
    for pair, p in ((subset_pair([1], [2, 3]), 3), (subset_pair([1], [1, 2, 3]), 2)):
        if not psi_closure_check(ex2_system, pair, p, 3 * p).ok:
            issues.append(("psi-closure", pair))

    # homogeneity of the Hasse blocks
    for p in (3, 5, 7):
        H = hasse_polynomial(ex2_system, p)
        if not homogeneity_report(H, ex2_system, p).ok:
            issues.append(("homogeneity", p))

    # leading trace congruence on the minimizing pairs, of ex2 and of the
    # corpus wherever every coefficient is a unit mod p
    cases = [(V, 5)] + [(spec, p) for spec in corpus25 for p in (3, 5, 7)
                        if all(c.numerator % p for c in spec.coefficients.values())]
    leading = 0
    for spec, p in cases:
        for pair, _ in minimal_data(spec.system).K:
            leading += 1
            if not leading_trace_congruence(spec, pair, p).ok:
                issues.append(("leading-trace", spec, pair, p))
    if leading != 3 + 70:
        issues.append(("leading-trace-cases", leading))

    # the density report is labelled as a window statistic, not a theorem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = density_estimate(V, 31)
    doc = density_document(est)
    if doc.get("note") != "window estimate, not a density":
        issues.append(("density-note", doc))
    if not (0 <= est.sharp_fraction <= 1) or est.sharp_fraction != Fraction(1):
        issues.append(("density-window", est))

    assert record_criterion(
        10, not issues, "ring axioms, gamma congruences, Teichmueller laws, "
                        "psi-closure, homogeneity, leading trace, density note"), issues
