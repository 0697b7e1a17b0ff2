"""Rational representations, denominator sets, and the conditional number."""

from __future__ import annotations

import pytest

from axdiv import (
    LatticePair,
    admissible_primes,
    check_sparsity_criterion,
    conditional_number,
    default_theta,
    denominator_set,
    minimal_data,
    rational_representations,
    subset_pair,
    support_system,
)


def test_rational_representation_golden(skew_system):
    # v = (2, 2) is the half-sum of the two generators: d = 2, r = (1, 1).
    lp = LatticePair(subset_pair([1], [1, 2]), (1,), (2, 2))
    reps = rational_representations(skew_system, lp)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.d == 2
    assert rep.gens == ((1, (1, 3)), (1, (3, 1)))
    assert rep.r_coeffs == (1, 1)


def test_rational_representation_integral(ex2_system):
    lp = LatticePair(subset_pair([1], [2, 3]), (1,), (0, 2, 2))
    reps = rational_representations(ex2_system, lp)
    assert [(rep.d, rep.r_coeffs) for rep in reps] == [(1, (1,))]


def test_denominator_set_goldens(ex2_system, skew_system):
    assert denominator_set(ex2_system, minimal_data(ex2_system)) == {1}
    assert denominator_set(skew_system, minimal_data(skew_system)) == {1, 2}
    # Two pure squares: the only minimal mixed fiber has vertex (1/2, 1/2).
    squares = support_system(2, [[(2, 0), (0, 2)]])
    assert denominator_set(squares, minimal_data(squares)) == {1, 2}


def test_sparsity_criterion(ex2_system, skew_system):
    assert check_sparsity_criterion(ex2_system)
    assert not check_sparsity_criterion(skew_system)


def test_conditional_number_golden(ex2_system):
    report = conditional_number(ex2_system)
    assert report.D_set == {1}
    assert report.sparsity
    assert report.c_value == -1
    # Three minimal pairs, each with a single representation.
    assert sorted(report.multiplicities.values()) == [1, 1, 1]
    assert report.warnings == ()


def test_conditional_number_undefined_when_fractional(skew_system):
    report = conditional_number(skew_system)
    assert report.D_set == {1, 2}
    assert report.c_value is None
    assert not report.sparsity


def test_conditional_number_accepts_precomputed_data(ex2_system):
    data = minimal_data(ex2_system)
    assert conditional_number(ex2_system).c_value == -1


def test_default_theta(ex2_system, skew_system):
    assert default_theta(ex2_system) == 6
    assert default_theta(skew_system) == 6


def test_admissible_primes():
    assert admissible_primes({1}, 6, 31) == [7, 11, 13, 17, 19, 23, 29, 31]
    # lcm{1,2} = 2 keeps every odd prime.
    assert admissible_primes({1, 2}, 6, 31) == [7, 11, 13, 17, 19, 23, 29, 31]
    assert admissible_primes({1, 3}, 4, 31) == [7, 13, 19, 31]
    assert admissible_primes({1}, 40, 31) == []
    with pytest.raises(ValueError):
        admissible_primes({1}, 6, 1)
