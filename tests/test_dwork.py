"""The ramified ring Z_p[pi], gamma, Teichmueller lifts, and the trace formula."""

from __future__ import annotations

import math
import random

import pytest
from helpers import corrupt_first_trace, count_calls, naive_active_pairs, naive_window_trace

import axdiv.dwork
from axdiv import (
    GammaError,
    NonIntegralError,
    PiElt,
    build_field,
    count_points,
    fiber_reduction,
    fiber_sum,
    from_int,
    gamma_approximation,
    generate_corpus,
    invert_unit,
    lattice_window,
    leading_trace_congruence,
    pi_element,
    subset_pair,
    support_system,
    teichmuller_lift,
    trace_formula_count,
    unit_variety,
    variety_spec,
    window_trace,
)
from axdiv.lattice import weight_floor


def random_elements(p, me, count, seed):
    rng = random.Random(seed)
    span = p ** me
    return [pi_element(p, me).scale(rng.randrange(span)) + from_int(rng.randrange(span), p, me)
            for _ in range(count)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ring_axioms(p):
    me = 4
    zero = from_int(0, p, me)
    one = from_int(1, p, me)
    xs = random_elements(p, me, 6, seed=p)
    for a in xs:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pi_uniformizer_relation(p):
    me = 5
    pi = pi_element(p, me)
    assert pi ** (p - 1) == from_int(-p, p, me)
    assert pi.val_pi() == 1
    assert from_int(p, p, me).val_pi() == p - 1
    assert from_int(0, p, me).val_pi() == math.inf


def test_divide_p():
    a = from_int(18, 3, 4)
    assert a.divide_p() == from_int(6, 3, 3)
    assert a.divide_p(2) == from_int(2, 3, 2)
    with pytest.raises(NonIntegralError):
        from_int(1, 3, 4).divide_p()
    with pytest.raises(NonIntegralError):
        pi_element(3, 4).divide_p()
    with pytest.raises(NonIntegralError):
        from_int(9, 3, 2).divide_p(2)  # no precision left


def test_invert_unit():
    for p in (3, 5):
        me = 4
        for u in random_elements(p, me, 8, seed=11 * p):
            if u.residue() == 0:
                with pytest.raises(ZeroDivisionError):
                    invert_unit(u)
                continue
            assert u * invert_unit(u) == from_int(1, p, me)


def test_gamma_golden_and_defining_congruences():
    assert gamma_approximation(3, 6).coeffs == (0, 613)
    for p in (3, 5, 7):
        gamma = gamma_approximation(p, 5)
        assert (gamma - pi_element(p, 5)).val_pi() >= 2
        # gamma^(p-1)/p = -1 mod gamma
        ratio = (gamma ** (p - 1)).divide_p()
        assert (ratio + from_int(1, p, ratio.me)).val_pi() >= 1
    with pytest.raises(ValueError):
        gamma_approximation(3, 1)


def test_gamma_is_stable_under_more_precision():
    lo = gamma_approximation(5, 4)
    hi = gamma_approximation(5, 7)
    assert [c % 5 ** 4 for c in hi.coeffs] == [c % 5 ** 4 for c in lo.coeffs]


def test_teichmuller_goldens_and_laws():
    assert teichmuller_lift(2, 5, 2) == 7
    assert teichmuller_lift(4, 5, 2) == 24
    for p, m in ((3, 5), (5, 4), (7, 3)):
        mod = p ** m
        lifts = {a: teichmuller_lift(a, p, m) for a in range(p)}
        assert lifts[0] == 0
        assert lifts[1] == 1
        for a in range(p):
            assert pow(lifts[a], p, mod) == lifts[a]
            assert lifts[a] % p == a
        for a in range(1, p):
            for b in range(1, p):
                assert lifts[a] * lifts[b] % mod == lifts[a * b % p]


def test_window_trace_golden_and_guard(ex2_variety):
    pair = subset_pair([1], [2, 3])
    assert [(lp.t, lp.v) for lp in lattice_window(ex2_variety.system, pair, 2)] == [
        ((1,), (0, 2, 2)), ((2,), (0, 4, 4))]
    assert window_trace(ex2_variety, pair, 3, m=6, T=2) == PiElt(3, 6, (201, 0))
    with pytest.raises(ValueError):
        window_trace(ex2_variety, pair, 3, m=3, T=2)


def test_window_trace_matches_naive_definition():
    # An oracle that shares no code with the fiber kernel or the facet scan:
    # the LP window, brute-force fiber points and Teichmueller lifts by powering.
    checked = 0
    for spec in generate_corpus(1, 8):
        system = spec.system
        T = 2
        m = T + system.n + system.r + 2
        for pair in axdiv.dwork._active_pairs(system)[0]:
            for p in (3, 5):
                assert window_trace(spec, pair, p, m, T) == naive_window_trace(spec, pair, p, m, T)
                checked += 1
    assert checked == 90  # 45 active pairs, two primes


def test_active_pairs_match_the_support_loop():
    # the weight floor is infinite exactly where some f_j of B has no
    # monomial inside C, since no corpus system has a constant term
    sizes = []
    for seed in range(1, 6):
        for spec in generate_corpus(seed, 8):
            active, s = axdiv.dwork._active_pairs(spec.system)
            assert (active, s) == naive_active_pairs(spec.system)
            sizes.append(len(active))
    assert sum(sizes[:8]) == 45
    assert 0 < min(sizes)


def test_trace_formula_reads_only_the_diagonal(ex2_variety, monkeypatch):
    # One G per window point: the trace never builds an off-diagonal entry.
    system = ex2_variety.system
    window = sum(len(lattice_window(system, pair, 2))
                 for pair in axdiv.dwork._active_pairs(system)[0])
    calls = count_calls(monkeypatch, fiber_sum)
    trace_formula_count(ex2_variety, 3)
    assert len(calls) == window > 0


def test_window_trace_reduces_each_pair_once(monkeypatch, fresh_cache):
    # a pair whose floor passes T has an empty window and gets 0 before any
    # reduction; every other pair shares the one its window scan built
    spec = generate_corpus(1, 8)[1]
    system = spec.system
    active = axdiv.dwork._active_pairs(system)[0]
    calls = count_calls(monkeypatch, fiber_reduction)
    for p in (3, 5):
        trace_formula_count(spec, p, T=2)
    reduced = [pair for _, pair in calls]
    assert len(reduced) == len(set(reduced))
    assert set(reduced) == {pair for pair in active if weight_floor(system, pair) <= 2}
    assert 0 < len(reduced) < len(active)
    empty = next(pair for pair in active if pair not in reduced)
    assert window_trace(spec, empty, 3, m=6, T=2) == from_int(0, 3, 6)


def line_spec():
    return unit_variety(support_system(1, [[(1,)]]))


def diagonal_spec():
    system = support_system(2, [[(2, 0), (0, 2)]])
    return variety_spec(system, {(1, (2, 0)): 1, (1, (0, 2)): 2})


def test_trace_formula_goldens():
    for spec, p, expected in (
        (line_spec(), 3, 1),
        (line_spec(), 5, 1),
        (diagonal_spec(), 3, 5),
        (diagonal_spec(), 5, 1),
    ):
        out = trace_formula_count(spec, p)
        exact = count_points(spec, build_field(p, 1))
        assert out.s == 1
        assert out.window == 2  # T + 1 - s
        assert out.modulus == p ** 2
        assert out.residue == expected
        assert exact % out.modulus == out.residue


def test_trace_formula_ex2(ex2_variety):
    for p, exact in ((3, 15), (5, 45)):
        out = trace_formula_count(ex2_variety, p)
        assert out.residue == exact % out.modulus


def test_trace_formula_rejects_constant_terms():
    system = support_system(1, [[(0,), (1,)]])
    V = variety_spec(system, {(1, (0,)): 1, (1, (1,)): 1})
    with pytest.raises(ValueError):
        trace_formula_count(V, 3)


def test_trace_formula_corrupt_control(monkeypatch):
    # Poisoning one trace must surface as a wrong residue or a failed
    # integrality check; silence would mean the certification is vacuous.
    honest = trace_formula_count(line_spec(), 3)
    corrupt_first_trace(monkeypatch)
    try:
        corrupt = trace_formula_count(line_spec(), 3)
    except NonIntegralError:
        return
    assert corrupt.residue != honest.residue


def test_leading_trace_congruence(ex2_variety):
    report = leading_trace_congruence(ex2_variety, subset_pair([1], [2, 3]), 5)
    assert report.ok
    assert report.weight == 1
    assert report.lhs_residue == report.rhs_residue == 1
    report = leading_trace_congruence(ex2_variety, subset_pair([1], [1, 2, 3]), 3)
    assert report.ok
    assert report.weight == 2
