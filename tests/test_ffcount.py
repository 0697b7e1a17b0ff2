"""Brute-force point counts over prime and small extension fields."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from helpers import naive_extension_count, naive_prime_count

from axdiv import (
    CountGuardError,
    build_field,
    count_points,
    count_report,
    ord_q,
    support_system,
    unit_variety,
    variety_spec,
)


def test_build_field_goldens():
    assert build_field(5, 1).modulus == (0, 1)
    # Lowest irreducible monic modulus by code order, low power first.
    assert build_field(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert build_field(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert build_field(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert build_field(5, 2).q == 25
    with pytest.raises(ValueError):
        build_field(5, 4)


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
