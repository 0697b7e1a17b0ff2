"""Brute-force point counts over prime and small extension fields."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import diagonal_quadric_count, naive_extension_count, naive_prime_count
from hypothesis import given, settings
from hypothesis import strategies as st

from axdiv import (
    CountGuardError,
    build_field,
    count_points,
    count_report,
    ffcount,
    ord_q,
    support_system,
    unit_variety,
    variety_spec,
)

# every field with q^n <= 729 for some n >= 1, prime and extension
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]


def test_build_field_goldens():
    assert build_field(5, 1).modulus == (0, 1)
    # Lowest irreducible monic modulus by code order, low power first.
    assert build_field(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert build_field(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert build_field(5, 2).q == 25
    with pytest.raises(ValueError):
        build_field(5, 4)


def test_build_field_rejects_non_primes():
    # Z/9 is not F_9: the count over it was silently wrong.
    for p in (-3, 0, 1, 4, 9, 15, 25, 91):
        with pytest.raises(ValueError, match=f"^p = {p} is not a prime$"):
            build_field(p, 1)
    with pytest.raises(ValueError, match="p = 9 is not a prime"):
        build_field(9, 2)
    for p in (2, 3, 97, 7919):
        assert build_field(p, 1).p == p


def test_prime_check_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(-5, 20000) if ffcount._is_prime(p)] == [
        p for p in range(-5, 20000) if trial(p)]
    # strong pseudoprimes to the bases up to 7 and up to 23
    for factors in ((151, 751, 28351), (149491, 747451, 34233211)):
        assert all(trial(f) for f in factors)
        assert not ffcount._is_prime(math.prod(factors))
    assert ffcount._is_prime(2 ** 61 - 1) and ffcount._is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("p, a", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (5, 3)])
def test_field_arithmetic_matches_polynomial_arithmetic(p, a):
    field = build_field(p, a)
    arith = field._arith
    q = field.q
    # the antilog table runs through every unit once, so its generator is primitive
    assert sorted(arith.exp[:q - 1].tolist()) == list(range(1, q))
    polys = [ffcount._poly_from_code(x, p, a) for x in range(q)]

    def code(poly):
        return sum(c * p ** i for i, c in enumerate(poly))

    codes = np.arange(q)
    products = [[code(ffcount._mul_mod(x, y, field.modulus, p)) for y in polys] for x in polys]
    assert arith.mul(codes[:, None], codes[None, :]).tolist() == products
    sums = [[code([(u + v) % p for u, v in zip(x, y)]) for y in polys] for x in polys]
    assert arith.add(codes[:, None], codes[None, :]).tolist() == sums
    assert arith.add(codes, arith.neg(codes)).tolist() == [0] * q
    cubes = [code(ffcount._mul_mod(ffcount._mul_mod(x, x, field.modulus, p), x,
                                   field.modulus, p)) for x in polys]
    assert arith.power(3).tolist() == cubes
    assert arith.power(q).tolist() == list(range(q))   # Frobenius^a is the identity


def test_field_tables_are_built_on_first_count(ex2_variety):
    field = build_field(3, 2)
    assert "_arith" not in vars(field)
    assert count_points(ex2_variety, field) == 153
    tables = vars(field)["_arith"]
    assert count_points(ex2_variety, field) == 153
    assert vars(field)["_arith"] is tables
    # the tables live on the field object, not in a module-level cache
    assert "_arith" not in vars(build_field(3, 2))
    assert field == build_field(3, 2)


def test_ex2_prime_counts_match_closed_form(ex2_variety):
    for p in (3, 5, 7, 11, 13):
        count = count_points(ex2_variety, build_field(p, 1))
        assert count == p * (2 * p - 1)


def test_ex2_extension_counts(ex2_variety):
    assert count_points(ex2_variety, build_field(3, 2)) == 153   # 9 * 17
    assert count_points(ex2_variety, build_field(5, 2)) == 1225  # 25 * 49


def test_prime_count_matches_naive_oracle(corpus25):
    for V in corpus25[:4]:
        for p in (3, 5):
            assert count_points(V, build_field(p, 1)) == naive_prime_count(V, p)


def test_extension_count_matches_naive_oracle(ex2_variety, skew_system):
    assert count_points(ex2_variety, build_field(3, 2)) == naive_extension_count(
        ex2_variety, 3, 2)
    skew = unit_variety(skew_system)
    assert count_points(skew, build_field(3, 2)) == naive_extension_count(skew, 3, 2)
    assert count_points(skew, build_field(2, 3)) == naive_extension_count(skew, 2, 3)


@st.composite
def counting_cases(draw):
    """Systems with n <= 3, r <= 2 and exponents <= 3 over a field with
    q^n <= 729.  Variables outside a drawn subset are used by no monomial,
    coefficients include multiples of p, and a zero vector is a constant term."""
    p, a = draw(st.sampled_from(FIELDS))
    q = p ** a
    n = draw(st.integers(1, max(k for k in (1, 2, 3) if q ** k <= 729)))
    used = draw(st.sets(st.integers(0, n - 1), min_size=1))
    vector = st.tuples(*[st.integers(0, 3) if i in used else st.just(0) for i in range(n)])
    r = draw(st.integers(1, 2))
    supports = [draw(st.lists(vector, min_size=1, max_size=4, unique=True)) for _ in range(r)]
    coefficient = st.sampled_from([1, -1, 2, 3, -4, 5, p, -p, 2 * p])
    coeffs = {(j, g): draw(coefficient) for j, gs in enumerate(supports, start=1) for g in gs}
    return p, a, variety_spec(support_system(n, supports), coeffs)


@settings(max_examples=300, deadline=None)
@given(case=counting_cases())
def test_count_points_matches_naive_count(case):
    p, a, spec = case
    expect = naive_prime_count(spec, p) if a == 1 else naive_extension_count(spec, p, a)
    assert count_points(spec, build_field(p, a)) == expect


def test_vanishing_term_frees_its_variable(corpus25):
    V = corpus25[0]
    assert V.coefficients == {(1, (0, 1)): 4, (1, (0, 2)): 5, (1, (1, 0)): -9}
    # at p = 3, 4y + 5y^2 - 9x is y(1 + 2y) with roots y = 0, 1, and x is free
    assert count_points(V, build_field(3, 1)) == naive_prime_count(V, 3) == 6


def test_split_and_grid_fallback_match_naive(monkeypatch, ex2_variety, corpus25):
    kinds = []
    run = ffcount._Part._run

    def traced(self, plan, counting):
        kinds.append(plan[0])
        return run(self, plan, counting)

    monkeypatch.setattr(ffcount._Part, "_run", traced)
    quadric = variety_spec(support_system(3, [[(2, 0, 0), (0, 2, 0), (0, 0, 2)]]),
                           {(1, (2, 0, 0)): 1, (1, (0, 2, 0)): 2, (1, (0, 0, 2)): -3})
    seen = {}
    default = ffcount.CHUNK_CELLS
    for cells in (default, 40, 4):
        monkeypatch.setattr(ffcount, "CHUNK_CELLS", cells)
        kinds.clear()
        for V in [ex2_variety, quadric] + corpus25[:12]:
            for p in (5, 7):
                if p ** V.system.n <= 2401:
                    assert count_points(V, build_field(p, 1)) == naive_prime_count(V, p)
        seen[cells] = set(kinds)
    assert {"sep", "split", "grid"} <= seen[default]
    assert {"sep", "grid"} <= seen[40]
    # no histogram of q = 5 values fits in 4 cells: every count is a chunked grid
    assert seen[4] == {"grid"}


def test_closed_forms_beyond_the_grid_sizes(ex2_variety):
    coeffs = (1, 2, 3, 5)
    quadric = variety_spec(
        support_system(4, [[tuple(2 * (k == i) for k in range(4)) for i in range(4)]]),
        {(1, tuple(2 * (k == i) for k in range(4))): c for i, c in enumerate(coeffs)})
    assert count_points(quadric, build_field(71, 1)) == diagonal_quadric_count(71, 1, coeffs)
    assert count_points(ex2_variety, build_field(251, 1)) == 251 * (2 * 251 - 1)
    plane = variety_spec(support_system(2, [[(2, 0), (0, 2)]]),
                         {(1, (2, 0)): 1, (1, (0, 2)): 3})
    q = 31 ** 2
    assert count_points(plane, build_field(31, 2)) == diagonal_quadric_count(31, 2, (1, 3))
    assert diagonal_quadric_count(31, 2, (1, 3)) == 2 * q - 1


def test_count_respects_intersection_not_sum():
    # Two polynomials x = 0 and x + 1 = 0 have no common zero; the
    # pointwise sum 2x + 1 would have p of them.
    system = support_system(2, [[(1, 0)], [(1, 0), (0, 1)]])
    V = variety_spec(system, {(1, (1, 0)): 1, (2, (1, 0)): 1, (2, (0, 1)): 1})
    # f2 = x + y: common zeros are x = 0, y = 0 only.
    assert count_points(V, build_field(5, 1)) == 1
    assert naive_prime_count(V, 5) == 1


def test_fractional_coefficients_embed(ex2_system):
    V = variety_spec(ex2_system, {(1, (0, 2, 2)): "1/2", (1, (3, 3, 0)): "1/2"})
    # Scaling f by the unit 1/2 does not move its zero locus.
    assert count_points(V, build_field(5, 1)) == 45
    with pytest.raises(ZeroDivisionError):
        count_points(V, build_field(2, 1))


def test_huge_prime_fails_fast_on_the_budget(ex2_variety):
    start = time.perf_counter()
    with pytest.raises(CountGuardError, match="exceeds the enumeration budget"):
        count_report(ex2_variety, 10 ** 18 + 3)
    with pytest.raises(ValueError, match="is not a prime"):
        count_report(ex2_variety, 149491 * 747451 * 34233211)
    assert time.perf_counter() - start < 10


def test_count_budget_guards(ex2_variety):
    with pytest.raises(CountGuardError):
        count_points(ex2_variety, build_field(1009, 1))  # 1009^3 points
    with pytest.raises(CountGuardError):
        count_points(ex2_variety, build_field(11, 3))    # q = 1331 table


def test_ord_q():
    assert ord_q(45, 5) == 1
    assert ord_q(45, 3) == 2
    assert ord_q(153, 3, a=2) == 1
    assert ord_q(7, 5) == 0
    assert ord_q(0, 5) == math.inf
    assert ord_q(24, 2, a=2) == Fraction(3, 2)
    with pytest.raises(ValueError):
        ord_q(-3, 5)


def test_count_report(ex2_variety):
    report = count_report(ex2_variety, 5)
    assert (report.count, report.valuation, report.mu) == (45, 1, 1)
    assert report.meets_bound
    report = count_report(ex2_variety, 3, a=2)
    assert (report.count, report.valuation) == (153, 1)
    assert report.meets_bound
