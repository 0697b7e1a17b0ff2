"""Integral weights, minimizing pairs, lattice windows, and the closure check."""

from __future__ import annotations

import gc
import math
from fractions import Fraction

import pytest
from helpers import (
    count_calls,
    diagonal_mu,
    diagonal_system,
    lp_lattice_window,
    lp_zmin_for_pair,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axdiv.lattice
from axdiv import (
    INFINITE_WEIGHT,
    ConsistencyError,
    LatticePair,
    WeightUnreachableError,
    bound_report,
    conditional_number,
    enumerate_subset_pairs,
    enumerate_vertices,
    generate_corpus,
    lattice_window,
    minimal_data,
    psi_closure_check,
    subset_pair,
    support_system,
    weight_polytope,
    weight_wz,
    zmin_for_pair,
)
from axdiv.geometry import cone_facets
from axdiv.lattice import weight_floor


def test_weight_wz_goldens(ex2_system):
    assert weight_wz(ex2_system, subset_pair([1], [1, 2])) == 1
    assert weight_wz(ex2_system, subset_pair([1], [2, 3])) == 1
    assert weight_wz(ex2_system, subset_pair([1], [1, 2, 3])) == 2
    # No generator lives inside C = {1}: the weight is infinite.
    assert weight_wz(ex2_system, subset_pair([1], [1])) == INFINITE_WEIGHT
    assert weight_wz(ex2_system, subset_pair([1], [1])) is INFINITE_WEIGHT


def test_weight_wz_can_exceed_polynomial_count():
    # One polynomial, yet w_Z({1},{1,2}) = 2: budgets are not capped by r.
    system = support_system(2, [[(2, 0), (0, 1)]])
    assert weight_wz(system, subset_pair([1], [1, 2])) == 2


def test_weight_wz_cap_only_certifies_up_to_cap():
    system = support_system(2, [[(2, 0), (0, 1)]])
    assert weight_wz(system, subset_pair([1], [1, 2]), cap=1) == INFINITE_WEIGHT
    assert weight_wz(system, subset_pair([1], [1, 2]), cap=2) == 2


def test_zmin_goldens(ex2_system):
    def pairs(B, C):
        p = subset_pair(B, C)
        return [(lp.t, lp.v) for lp in zmin_for_pair(ex2_system, p)]

    assert pairs([1], [1, 2]) == [((1,), (3, 3, 0))]
    assert pairs([1], [2, 3]) == [((1,), (0, 2, 2))]
    assert pairs([1], [1, 2, 3]) == [((2,), (3, 5, 2))]
    with pytest.raises(ValueError):
        zmin_for_pair(ex2_system, subset_pair([1], [1]))


def test_lattice_window_layers(ex2_system):
    pair = subset_pair([1], [2, 3])
    window = lattice_window(ex2_system, pair, 3)
    assert [(lp.t, lp.v) for lp in window] == [
        ((1,), (0, 2, 2)),
        ((2,), (0, 4, 4)),
        ((3,), (0, 6, 6)),
    ]
    # Totals are nondecreasing and each layer is sorted.
    totals = [lp.total for lp in window]
    assert totals == sorted(totals)
    assert lattice_window(ex2_system, subset_pair([1], [1]), 5) == []


def test_lattice_window_mixed_pair(ex2_system):
    pair = subset_pair([1], [1, 2, 3])
    window = lattice_window(ex2_system, pair, 4)
    members = {(lp.t, lp.v) for lp in window}
    assert ((2,), (3, 5, 2)) in members
    assert ((4,), (6, 10, 4)) in members
    # Everything at the minimal level is exactly the zmin set.
    level2 = [lp for lp in window if lp.total == 2]
    assert level2 == zmin_for_pair(ex2_system, pair)


# -- the facet scan against the Fraction-simplex scan it replaced


@st.composite
def scan_systems(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    return support_system(n, [draw(st.lists(vector, min_size=1, max_size=6, unique=True))
                              for _ in range(r)])


@settings(max_examples=40, deadline=None)
@given(system=scan_systems())
# a system on which plain Fourier-Motzkin elimination of the free generators
# blows up, where the facet search stays small
@example(system=support_system(3, [
    [(0, 0, 1), (0, 1, 2), (1, 3, 2), (2, 1, 0), (3, 2, 0), (3, 2, 1)],
    [(0, 1, 0), (0, 2, 0), (0, 2, 2), (1, 0, 3)]]))
def test_scans_match_the_lp_scan(system):
    for pair in enumerate_subset_pairs(system.n, system.r):
        want = lp_zmin_for_pair(system, pair)
        if want is None:
            assert weight_wz(system, pair) is INFINITE_WEIGHT
            with pytest.raises(ValueError):
                zmin_for_pair(system, pair)
        else:
            assert weight_wz(system, pair) == sum(want[0][0])
            assert [(lp.t, lp.v) for lp in zmin_for_pair(system, pair)] == want
        got = [(lp.t, lp.v) for lp in lattice_window(system, pair, 2)]
        assert got == lp_lattice_window(system, pair, 2)


# -- the Ax-Katz floor: a lower bound on every weight, checked on the LP scan


@st.composite
def floor_cases(draw):
    """A system with n <= 5 and r <= 3, zero monomials and uncovered
    variables allowed, and one subset pair of it."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    system = support_system(n, [draw(st.lists(vector, min_size=1, max_size=4, unique=True))
                                for _ in range(r)])
    B = draw(st.sets(st.integers(1, r), min_size=1))
    C = draw(st.sets(st.integers(1, n), min_size=1))
    return system, subset_pair(B, C)


@settings(max_examples=150, deadline=None)
@given(case=floor_cases())
# a zero monomial and an uncovered variable x_3
@example(case=(support_system(3, [[(0, 0, 0), (2, 1, 0)], [(0, 3, 0)]]),
               subset_pair([1, 2], [1, 2])))
@example(case=(support_system(3, [[(0, 0, 0), (2, 1, 0)], [(0, 3, 0)]]),
               subset_pair([1], [1, 2, 3])))
# mixed degrees, where the floor stays below the weight
@example(case=(support_system(2, [[(2, 0), (0, 3)]]), subset_pair([1], [1, 2])))
def test_floor_never_passes_the_lp_weight(case):
    system, pair = case
    want = lp_zmin_for_pair(system, pair)
    if want is not None:
        assert weight_floor(system, pair) <= sum(want[0][0]) == weight_wz(system, pair)


@pytest.mark.parametrize("degrees", [(2, 2, 3, 3, 3), (2, 3, 3, 4, 4), (2,) * 6, (3,) * 5])
def test_diagonal_floor_golden(degrees):
    # on sum c_i x_i^d_i the floor is max(1, ceil(sum over C of 1/d_i)); with
    # equal degrees that is the weight itself, with mixed ones a lower bound
    system = diagonal_system(degrees)
    for pair in enumerate_subset_pairs(system.n, 1):
        closed = max(1, math.ceil(sum(Fraction(1, degrees[i - 1]) for i in pair.C)))
        assert weight_floor(system, pair) == closed
        if len(set(degrees)) == 1:
            assert weight_wz(system, pair) == closed
        else:
            assert weight_wz(system, pair) >= closed
    # x^2 + y^3: v_1/2 + v_2/3 = 1 has no solution with v >= 1
    assert weight_floor(diagonal_system((2, 3)), subset_pair([1], [1, 2])) == 1
    assert weight_wz(diagonal_system((2, 3)), subset_pair([1], [1, 2])) == 2


def test_floor_is_infinite_without_a_restricted_monomial():
    system = support_system(2, [[(1, 1)], [(0, 0), (2, 0)]])
    # f_1 has no monomial inside C = {1}
    assert weight_floor(system, subset_pair([1], [1])) is INFINITE_WEIGHT
    # f_2 has only its constant inside C = {2}: every M_j is 0
    assert weight_floor(system, subset_pair([2], [2])) is INFINITE_WEIGHT
    assert weight_wz(system, subset_pair([2], [2])) is INFINITE_WEIGHT


# -- the pruned pair walk against every pair scanned without a cap


def uncapped_K(system):
    """mu and K from weight_wz over every pair of enumerate_subset_pairs,
    each scanned without a cap."""
    n = system.n
    weights = {pair: weight_wz(system, pair) for pair in enumerate_subset_pairs(n, system.r)}
    terms = {pair: n - len(pair.B) - len(pair.C) + w for pair, w in weights.items()
             if w != INFINITE_WEIGHT}
    mu = min(terms.values())
    return mu, tuple((pair, weights[pair]) for pair, term in terms.items() if term == mu)


def walk_differs(system) -> bool:
    """Whether minimal_data disagrees with uncapped_K, or with weight_polytope."""
    try:
        data = minimal_data(system)
    except ConsistencyError:
        return True
    return (data.mu, data.K) != uncapped_K(system)


# corpus seeds 1..3, and diagonal forms of mixed degrees: there the sets C
# that reach mu are not the cheapest in lambda, which a corpus draw rarely is
WALK_SYSTEMS = ([spec.system for seed in (1, 2, 3) for spec in generate_corpus(seed, 25)]
                + [diagonal_system(d) for d in ((2, 2, 3, 3, 3), (2, 3, 4, 5, 6), (2, 2, 3))])


def test_pair_walk_matches_every_uncapped_pair(fresh_cache):
    for system in WALK_SYSTEMS:
        assert not walk_differs(system)


@pytest.mark.parametrize("mutation", ["floor plus one", "largest lambdas"])
def test_pair_walk_catches_a_loose_floor(monkeypatch, fresh_cache, mutation):
    # a floor one too high, or a size cut that sums the k largest lambda_i
    # instead of the k smallest, prunes pairs that reach mu
    if mutation == "floor plus one":
        floor = axdiv.lattice.weight_floor
        monkeypatch.setattr(axdiv.lattice, "weight_floor", lambda *args: floor(*args) + 1)
    else:
        cheapest = axdiv.lattice._cheapest
        monkeypatch.setattr(axdiv.lattice, "_cheapest",
                            lambda lam: [-x for x in cheapest([-x for x in lam])])
    assert any(walk_differs(system) for system in WALK_SYSTEMS)


def test_pair_walk_builds_one_cone_on_a_diagonal_quadric(monkeypatch, fresh_cache):
    # on x_1^2 + ... + x_10^2 only C = {1..10} reaches mu = 4: every smaller
    # size of C is cut before a cone is built, and the full pair's cone is
    # the one weight_polytope built
    calls = count_calls(monkeypatch, cone_facets)
    data = minimal_data(diagonal_system((2,) * 10))
    assert data.mu == 4
    assert [(pair.C, w) for pair, w in data.K] == [(tuple(range(1, 11)), 5)]
    assert len(calls) == 1


@st.composite
def covered_systems(draw):
    """n <= 4, r <= 2, and x_i joins the first polynomial wherever no
    monomial covers variable i, so that w(f) is finite."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    supports = [draw(st.lists(vector, min_size=1, max_size=4, unique=True))
                for _ in range(draw(st.integers(1, 2)))]
    for i in range(n):
        if not any(g[i] for gs in supports for g in gs):
            supports[0].append(tuple(int(k == i) for k in range(n)))
    return support_system(n, supports)


@settings(max_examples=200, deadline=None)
@given(system=covered_systems())
def test_two_routes_to_mu(system):
    # the polytope route and the pruned pair walk of minimal_data against
    # the uncapped minimum of n - |B| - |C| + w_Z(B,C) over every subset
    # pair, and the pairs that attain it
    assert not walk_differs(system)


@pytest.mark.parametrize("degrees, mu", [
    ((2, 2, 3, 3, 3), 1),
    ((2, 3, 3, 4, 4), 1),
    ((2, 3, 4, 5, 6), 2),
])
def test_diagonal_mu_goldens(degrees, mu):
    system = diagonal_system(degrees)
    assert diagonal_mu(degrees) == mu
    assert minimal_data(system).mu == mu


def test_diagonal_denominator_set():
    assert conditional_number(diagonal_system((2, 3, 4, 5, 6))).D_set == {1, 6}


def test_weight_polytope_goldens(ex2_system, skew_system):
    assert weight_polytope(ex2_system) == 2
    assert weight_polytope(skew_system) == 1
    assert weight_polytope(support_system(1, [[(1,)]])) == 1
    assert weight_polytope(support_system(2, [[(2, 0), (0, 2)]])) == 1


def test_weight_polytope_uncovered_variable():
    with pytest.raises(WeightUnreachableError):
        weight_polytope(support_system(2, [[(1, 0)]]))


@pytest.mark.parametrize("drop, caught", [(0, (1, 3)), (-1, (0, 4))])
def test_weight_polytope_catches_a_dropped_facet(monkeypatch, fresh_cache, drop, caught):
    # without one facet of the full pair's cone the scan admits a target
    # whose fiber is empty, and the independent route must say so
    facets = axdiv.lattice.cone_facets

    def dropped(fiber):
        out = list(facets(fiber))
        if out:
            del out[drop]
        return tuple(out)

    monkeypatch.setattr(axdiv.lattice, "cone_facets", dropped)
    systems = [spec.system for spec in generate_corpus(1, 10)]
    for idx in caught:
        with pytest.raises(ConsistencyError, match="has no point in its fiber"):
            weight_polytope(systems[idx])


def test_minimal_data_golden(ex2_system):
    data = minimal_data(ex2_system)
    assert data.mu == 1
    K = {(pair.B, pair.C): w for pair, w in data.K}
    assert K == {
        ((1,), (1, 2)): 1,
        ((1,), (2, 3)): 1,
        ((1,), (1, 2, 3)): 2,
    }
    for pair, w in data.K:
        assert all(lp.total == w for lp in data.zmin[pair])
        assert data.zmin[pair] == tuple(zmin_for_pair(ex2_system, pair))


def test_minimal_data_skew(skew_system):
    data = minimal_data(skew_system)
    assert data.mu == 0
    zmin = sorted((lp.t, lp.v) for pair, _ in data.K for lp in data.zmin[pair])
    assert zmin == [((1,), (1, 3)), ((1,), (2, 2)), ((1,), (3, 1))]


def test_mu_agrees_with_weight_route_on_small_systems(corpus25):
    for V in corpus25[:10]:
        data = minimal_data(V.system)
        assert data.mu == weight_polytope(V.system) - V.system.r


def test_psi_closure_holds(ex2_system):
    pair = subset_pair([1], [2, 3])
    verdict = psi_closure_check(ex2_system, pair, 3, 6)
    assert verdict.ok
    # Both (3,)(0,6,6) and (6,)(0,12,12) are divisible by 3 inside L = 6.
    assert verdict.checked == 2
    verdict = psi_closure_check(ex2_system, subset_pair([1], [1, 2, 3]), 2, 4)
    assert verdict.ok


def test_psi_closure_negative_control(ex2_system, monkeypatch):
    # Dropping the divided point must make the check fail on its multiple.
    window = axdiv.lattice.lattice_window

    def dropped(*args):
        return [lp for lp in window(*args) if (lp.t, lp.v) != ((1,), (0, 2, 2))]

    monkeypatch.setattr(axdiv.lattice, "lattice_window", dropped)
    pair = subset_pair([1], [2, 3])
    verdict = psi_closure_check(ex2_system, pair, 3, 6)
    assert not verdict.ok
    assert verdict.witness == LatticePair(pair, (3,), (0, 6, 6))


# -- the analysis of a system is computed once and shared


def test_equal_systems_share_one_lattice_scan(monkeypatch, fresh_cache):
    calls = count_calls(monkeypatch, weight_polytope)
    first = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    second = support_system(3, [[(0, 2, 2), (3, 3, 0)]])
    assert first == second and first is not second
    assert minimal_data(first).mu == minimal_data(second).mu == 1
    assert len(calls) == 1


def test_bound_report_then_conditional_number_scan_once(monkeypatch, fresh_cache):
    calls = count_calls(monkeypatch, weight_polytope)
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    assert bound_report(system).mu_polytope == 1
    assert conditional_number(system).c_value == -1
    assert len(calls) == 1


def test_bound_report_leaves_zmin_unbuilt(monkeypatch, fresh_cache):
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    assert bound_report(system).mu_polytope == 1
    data = minimal_data(system)
    assert "zmin" not in vars(data)
    # the first reader of zmin builds it: one |t| layer per pair of K, at
    # the weight K holds
    calls = count_calls(monkeypatch, axdiv.lattice._layer)
    assert conditional_number(system).c_value == -1
    assert [(fiber.pair, total) for fiber, _, total in calls] == list(data.K)
    assert len(calls) == 3


def test_conditional_number_enumerates_each_minimal_fiber_once(monkeypatch, fresh_cache):
    calls = count_calls(monkeypatch, enumerate_vertices)
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    assert conditional_number(system).c_value == -1
    # one level-1 fiber per minimal lattice pair, three pairs in all
    assert len(calls) == sum(len(lps) for lps in minimal_data(system).zmin.values()) == 3


def test_shared_analysis_is_read_only(ex2_system):
    data = minimal_data(ex2_system)
    pair, _ = data.K[0]
    with pytest.raises(TypeError):
        data.zmin[pair] = ()
    assert len(data.zmin[pair]) == 1


def test_each_pair_cone_is_built_once_per_system(monkeypatch, fresh_cache):
    calls = count_calls(monkeypatch, cone_facets)
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    conditional_number(system)
    for pair, w in minimal_data(system).K:
        assert weight_wz(system, pair) == w
        assert zmin_for_pair(system, pair) == list(minimal_data(system).zmin[pair])
        lattice_window(system, pair, w + 1)
    assert len(calls) == len({fiber.pair for (fiber,) in calls}) > 0
    # a cap below |B| answers before any cone is built
    assert weight_wz(system, subset_pair([1], [1]), cap=0) == INFINITE_WEIGHT
    assert subset_pair([1], [1]) not in fresh_cache[system].cones
    del system
    gc.collect()
    assert len(fresh_cache) == 0


def test_analysis_lives_as_long_as_its_system(fresh_cache):
    system = support_system(3, [[(3, 3, 0), (0, 2, 2)]])
    minimal_data(system)
    assert [ref() is system for ref in fresh_cache.keyrefs()] == [True]
    del system
    gc.collect()
    assert len(fresh_cache) == 0
