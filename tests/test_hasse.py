"""Artin-Hasse coefficients, mod-p trace blocks, and Hasse polynomials."""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import factorial

import pytest
from helpers import count_calls, naive_hasse_value

from axdiv import (
    SparsePolynomialModP,
    artin_hasse_coefficients,
    fiber_sum,
    hasse_blocks,
    hasse_polynomial,
    hasse_value,
    homogeneity_report,
    minimal_data,
    sharpness_record,
    subset_pair,
    variety_spec,
    zero_polynomial,
)

A_MIXED = (1, (0, 2, 2))
A_CUBE = (1, (3, 3, 0))


def test_artin_hasse_low_coefficients_are_factorials():
    for p in (2, 3, 5, 7):
        deltas = artin_hasse_coefficients(p, p - 1)
        for i in range(p):
            assert deltas[i] == Fraction(1, factorial(i))


def test_artin_hasse_golden_p3():
    deltas = artin_hasse_coefficients(3, 4)
    assert deltas[3] == Fraction(1, 2)
    assert deltas[4] == Fraction(3, 8)


def test_artin_hasse_coefficients_are_p_integral():
    # The defining property: denominators stay coprime to p forever.
    for p in (2, 3, 5, 7):
        for d in artin_hasse_coefficients(p, 25):
            assert d.denominator % p != 0
    with pytest.raises(ValueError):
        artin_hasse_coefficients(3, -1)


def test_sparse_polynomial_arithmetic():
    x = SparsePolynomialModP(5, (A_MIXED, A_CUBE), {(1, 0): 2})
    y = SparsePolynomialModP(5, (A_MIXED, A_CUBE), {(1, 0): 4, (0, 1): 1})
    assert (x + y).terms == {(1, 0): 1, (0, 1): 1}
    assert (x * y).terms == {(2, 0): 3, (1, 1): 2}
    assert x.scale(-1).terms == {(1, 0): 3}
    assert x.frobenius_twist(5).terms == {(5, 0): 2}
    assert x.evaluate({A_MIXED: 3, A_CUBE: 1}) == 1  # 2 * 3 mod 5
    assert (x + x.scale(-1)).is_zero
    assert str(x + x.scale(-1)) == "0"


def test_sparse_polynomial_evaluate_guards():
    x = SparsePolynomialModP(5, (A_MIXED, A_CUBE), {(1, 0): 2})
    with pytest.raises(ValueError):
        x.evaluate({A_CUBE: 1})  # A_MIXED occurs with positive exponent
    with pytest.raises(ValueError):
        x.evaluate({A_MIXED: 5, A_CUBE: 1})  # reduces to zero
    with pytest.raises(ValueError):
        x.evaluate({A_MIXED: Fraction(1, 5), A_CUBE: 1})
    # Variables absent from every monomial may stay unassigned.
    assert x.evaluate({A_MIXED: 2}) == 4


def test_hasse_block_golden(ex2_system):
    # The block of {1}/{2,3} is G at 4 * ((1,), (0,2,2)): the single fiber
    # point u = (4,), delta_4 = 1/24 = 4 mod 5, sign (-1)^(1 + 2 + 1) = 1.
    blocks = hasse_blocks(ex2_system, 5)
    assert str(blocks[subset_pair([1], [2, 3])]) == "4*A[1,(0,2,2)]^4"


def test_hasse_polynomial_golden_strings(ex2_system):
    assert str(hasse_polynomial(ex2_system, 3)) == (
        "2*A[1,(3,3,0)]^2 + 2*A[1,(0,2,2)]^2"
        " + 1*A[1,(0,2,2)]^2*A[1,(3,3,0)]^2")
    assert str(hasse_polynomial(ex2_system, 5)) == (
        "4*A[1,(3,3,0)]^4 + 4*A[1,(0,2,2)]^4"
        " + 1*A[1,(0,2,2)]^4*A[1,(3,3,0)]^4")
    assert str(hasse_polynomial(ex2_system, 7)) == (
        "6*A[1,(3,3,0)]^6 + 6*A[1,(0,2,2)]^6"
        " + 1*A[1,(0,2,2)]^6*A[1,(3,3,0)]^6")


def test_hasse_polynomial_unit_evaluations(ex2_system):
    for p, expected in ((3, 2), (5, 4), (7, 6), (11, 10), (13, 12)):
        H = hasse_polynomial(ex2_system, p)
        assert H.evaluate({A_MIXED: 1, A_CUBE: 1}) == expected


def test_hasse_blocks_are_signed_and_sum(ex2_system):
    data = minimal_data(ex2_system)
    blocks = hasse_blocks(ex2_system, 5, 1)
    assert set(blocks) == {pair for pair, _ in data.K}
    total = zero_polynomial(ex2_system, 5)
    for block in blocks.values():
        total = total + block
    assert total.terms == hasse_polynomial(ex2_system, 5, 1).terms


def test_homogeneity_report(ex2_system):
    for p in (3, 5, 7):
        H = hasse_polynomial(ex2_system, p)
        report = homogeneity_report(H, ex2_system, p, 1)
        assert report.ok
        assert report.issues == ()
        # Two pairs of weight 1 and one of weight 2.
        assert sorted(report.block_degrees.values()) == [p - 1, p - 1, 2 * (p - 1)]
        assert H.max_variable_degree() <= p - 1


def test_second_power_hasse_evaluations(ex2_system):
    # Frozen against brute-force counts over F_9 and F_25.
    H2 = hasse_polynomial(ex2_system, 3, 2)
    assert H2.evaluate({A_MIXED: 1, A_CUBE: 1}) == 2
    H2 = hasse_polynomial(ex2_system, 5, 2)
    assert H2.evaluate({A_MIXED: 1, A_CUBE: 1}) == 4


def test_hasse_power_guards(ex2_system):
    with pytest.raises(ValueError):
        hasse_blocks(ex2_system, 17, 2)
    with pytest.raises(ValueError):
        hasse_blocks(ex2_system, 5, 3)


def test_hasse_value_matches_symbolic(ex2_system, skew_system, corpus25):
    cases = [
        (ex2_system, {A_MIXED: 1, A_CUBE: 1}),
        (ex2_system, {A_MIXED: Fraction(1, 2), A_CUBE: 7}),
        (skew_system, {(1, (3, 1)): 3, (1, (1, 3)): 11}),
    ]
    for spec in corpus25[:6]:
        cases.append((spec.system, spec.coefficients))
    checked = 0
    for system, coeffs in cases:
        data = minimal_data(system)
        for p in (3, 5, 7):
            if any(Fraction(v).numerator % p == 0 or Fraction(v).denominator % p == 0
                   for v in coeffs.values()):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                H = hasse_polynomial(system, p, 1)
            assert hasse_value(system, p, coeffs, 1) == H.evaluate(coeffs)
            checked += 1
            if p <= 13:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    H2 = hasse_polynomial(system, p, 2)
                assert hasse_value(system, p, coeffs, 2) == H2.evaluate(coeffs)
                checked += 1
    assert checked >= 25


def test_hasse_value_guards(ex2_system):
    with pytest.raises(ValueError):
        hasse_value(ex2_system, 3, {A_MIXED: 1, A_CUBE: 3})
    with pytest.raises(ValueError):
        hasse_value(ex2_system, 3, {A_MIXED: Fraction(1, 3), A_CUBE: 1})
    with pytest.raises(ValueError):
        hasse_value(ex2_system, 5, {A_MIXED: 1})
    # Only the symbolic polynomial stops at p = 13 for a = 2; the value runs
    # wherever the counter does, and the congruence holds there.
    spec = variety_spec(ex2_system, {A_MIXED: 1, A_CUBE: 1})
    for p in (17, 19):
        rec = sharpness_record(spec, p, a=2)
        assert rec.hasse_value == p - 1
        assert rec.congruent and rec.predicted_sharp and rec.observed_sharp


def test_each_trace_entry_is_computed_once(ex2_system, corpus25, monkeypatch):
    # One G per closed walk step that is new: sum |Zmin| at a = 1 and
    # sum |Zmin|^2 at a = 2, on both the value and the symbolic path.
    cases = [(ex2_system, {A_MIXED: 1, A_CUBE: 1}),
             (corpus25[0].system, corpus25[0].coefficients)]
    calls = count_calls(monkeypatch, fiber_sum)
    for system, coeffs in cases:
        sizes = [len(lps) for lps in minimal_data(system).zmin.values()]
        for a in (1, 2):
            expected = sum(size ** a for size in sizes)
            calls.clear()
            hasse_value(system, 7, coeffs, a)
            assert len(calls) == expected
            calls.clear()
            hasse_blocks(system, 7, a)
            assert len(calls) == expected


def test_hasse_value_matches_naive_definition(corpus25):
    # An oracle that shares no code with the fiber kernel: G summed over
    # brute-force fiber points, blocks traced straight from the definition.
    checked = 0
    for spec in corpus25[:8]:
        for p in (3, 5, 7):
            if any(c.numerator % p == 0 or c.denominator % p == 0
                   for c in spec.coefficients.values()):
                continue
            for a in (1, 2):
                assert hasse_value(spec.system, p, spec.coefficients, a) == \
                    naive_hasse_value(spec.system, p, spec.coefficients, a)
                checked += 1
    assert checked == 22
