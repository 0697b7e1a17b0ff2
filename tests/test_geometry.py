"""The fiber kernel: integral point sums, one real point and the vertices of
the fiber polytope, and the facets of the cone of feasible right-hand sides;
and the exact Fraction simplex that serves as their oracle."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from helpers import (
    InfeasibleError,
    UnboundedError,
    _rref,
    fraction_vertices,
    lp_feasible,
    lp_minimize,
    naive_fiber_points,
    naive_g,
    rational_lp,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from axdiv import (
    SparsePolynomialModP,
    enumerate_subset_pairs,
    enumerate_vertices,
    fiber_point,
    fiber_reduction,
    fiber_sum,
    generate_corpus,
    minimal_data,
    restrict_support,
    subset_pair,
    support_system,
    zero_polynomial,
)
from axdiv.geometry import cone_facets


def test_lp_minimize_exact_rational_optimum():
    # 2x + y = 4, x + 3y = 6, minimize x + y: solution (6/5, 8/5).
    lp = rational_lp([[2, 1], [1, 3]], [4, 6], [1, 1])
    value, x = lp_minimize(lp)
    assert value == Fraction(14, 5)
    assert x == (Fraction(6, 5), Fraction(8, 5))


def test_lp_minimize_unbounded():
    lp = rational_lp([[0, 1]], [1], [-1, 0])
    with pytest.raises(UnboundedError):
        lp_minimize(lp)


def test_lp_minimize_infeasible_raises_with_certificate():
    lp = rational_lp([[1, 1], [1, 1]], [1, 2], [1, 1])
    with pytest.raises(InfeasibleError) as err:
        lp_minimize(lp)
    assert err.value.certificate is not None


def test_feasibility_witness_is_exact():
    lp = rational_lp([[3, 1, 0], [1, 0, 2]], [5, 3])
    verdict = lp_feasible(lp)
    assert verdict.feasible
    x = verdict.witness
    assert all(xi >= 0 for xi in x)
    for row, b in zip(lp.rows, lp.rhs):
        assert sum(c * xi for c, xi in zip(row, x)) == b


def test_farkas_certificate_separates():
    # x + y = 1 and x + y = 2 cannot both hold for x, y >= 0.
    lp = rational_lp([[1, 1], [1, 1]], [1, 2])
    verdict = lp_feasible(lp)
    assert not verdict.feasible
    y = verdict.certificate
    assert y is not None
    # y.rows <= 0 componentwise while y.rhs > 0 certifies infeasibility.
    for col in range(2):
        assert sum(yi * lp.rows[i][col] for i, yi in enumerate(y)) <= 0
    assert sum(yi * b for yi, b in zip(y, lp.rhs)) > 0


def point_count(system, pair, t, v):
    """The number of integral fiber points: fiber_sum with every weight 1."""
    fiber = fiber_reduction(system, pair)
    ones = [[1] * (max(t) + 1)] * len(fiber.gens)
    return fiber_sum(fiber, t, v, ones, 0, 1)


def test_enumerate_vertices_rejects_bad_input(ex2_system):
    pair = subset_pair([1], [2, 3])
    fiber = fiber_reduction(ex2_system, pair)
    # Only the generator supported inside C becomes a variable.
    assert fiber.gens == ((1, (0, 2, 2)),)
    with pytest.raises(ValueError, match="vanish off C"):
        enumerate_vertices(fiber, (1,), (1, 2, 2))
    with pytest.raises(ValueError, match="one entry per index in B"):
        enumerate_vertices(fiber, (1, 1), (0, 2, 2))
    with pytest.raises(ValueError, match="length n"):
        enumerate_vertices(fiber, (1,), (2, 2))


def test_fiber_point_count_goldens(ex2_system):
    # Level-2 fiber over (2, (3, 5, 2)): both generators forced once.
    args = (ex2_system, subset_pair([1], [1, 2, 3]), (2,), (3, 5, 2))
    assert naive_fiber_points(*args) == [(1, 1)]
    assert point_count(*args) == 1
    # One restricted generator, scaled by 4: the single variable carries it all.
    args = (ex2_system, subset_pair([1], [2, 3]), (4,), (0, 8, 8))
    assert naive_fiber_points(*args) == [(4,)]
    assert point_count(*args) == 1
    args = (ex2_system, subset_pair([1], [2, 3]), (1,), (0, 1, 2))
    assert naive_fiber_points(*args) == []
    assert point_count(*args) == 0


@pytest.mark.parametrize("n, supports, B, C, t, v", [
    (3, [[(3, 3, 0), (0, 2, 2)]], [1], [1, 2, 3], (2,), (3, 5, 2)),
    (3, [[(3, 3, 0), (0, 2, 2)]], [1], [2, 3], (3,), (0, 6, 6)),
    (2, [[(3, 1), (1, 3)]], [1], [1, 2], (2,), (4, 4)),
    (2, [[(3, 1), (1, 3)]], [1], [1, 2], (4,), (8, 8)),
    (2, [[(2, 0), (1, 1), (0, 2)]], [1], [1, 2], (3,), (3, 3)),
    (2, [[(2, 0), (0, 1)], [(1, 1)]], [1, 2], [1, 2], (2, 1), (3, 2)),
])
def test_integral_points_match_naive_oracle(n, supports, B, C, t, v):
    system = support_system(n, supports)
    pair = subset_pair(B, C)
    assert point_count(system, pair, t, v) == len(naive_fiber_points(system, pair, t, v))


def test_enumerate_vertices_goldens(ex2_system, skew_system):
    fiber = fiber_reduction(skew_system, subset_pair([1], [1, 2]))
    vertices, dim = enumerate_vertices(fiber, (1,), (2, 2))
    assert vertices == [(Fraction(1, 2), Fraction(1, 2))]
    assert dim == 0
    fiber = fiber_reduction(ex2_system, subset_pair([1], [2, 3]))
    vertices, dim = enumerate_vertices(fiber, (1,), (0, 2, 2))
    assert vertices == [(Fraction(1),)]
    assert dim == 0
    vertices, dim = enumerate_vertices(fiber, (1,), (0, 1, 2))
    assert vertices == []
    assert dim == -1
    vertices, dim = enumerate_vertices(fiber, (-1,), (0, 2, 2))
    assert vertices == []
    assert dim == -1


def test_vertices_are_feasible_and_extreme(ex2_system):
    # A one-dimensional fiber: level 2 over the doubled mixed target.
    pair = subset_pair([1], [1, 2, 3])
    fiber = fiber_reduction(ex2_system, pair)
    v = (3, 5, 2)
    vertices, dim = enumerate_vertices(fiber, (2,), v)
    assert dim >= 0
    rows = [[Fraction(1) for _ in fiber.gens]]
    rhs = [Fraction(2)]
    for i in pair.C:
        rows.append([Fraction(g[i - 1]) for _, g in fiber.gens])
        rhs.append(Fraction(v[i - 1]))
    for vert in vertices:
        assert all(x >= 0 for x in vert)
        for row, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(row, vert)) == b
    # No vertex is the midpoint of two others.
    for i, a in enumerate(vertices):
        for j, b in enumerate(vertices):
            for k, c in enumerate(vertices):
                if i not in (j, k) and j < k:
                    mid = tuple((x + y) / 2 for x, y in zip(b, c))
                    assert mid != a


# -- the fiber kernel against a plain sum over brute-force points

RINGS = ("F_7", "Z/5^4", "F_5[A]")


@st.composite
def fiber_cases(draw):
    """A small system, a subset pair and a right-hand side (t, v), drawn in
    one of three ways: freely (mostly infeasible, sometimes negative); as
    the image of a nonnegative point (feasible); or as the image of an
    integer point with entries down to -2, which passes every consistency
    check yet may have no nonnegative solution."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    supports = [draw(st.lists(vector, min_size=1, max_size=4, unique=True)) for _ in range(r)]
    system = support_system(n, supports)
    pair = subset_pair(draw(st.sets(st.integers(1, r), min_size=1)),
                       draw(st.sets(st.integers(1, n), min_size=1)))
    mode = draw(st.sampled_from(("free", "point", "lattice")))
    if mode == "free":
        t = [draw(st.integers(-1, 4)) for _ in pair.B]
        v = [draw(st.integers(-1, 6)) if i in pair.C else 0 for i in range(1, n + 1)]
        return system, pair, t, v
    low = 0 if mode == "point" else -2
    t = []
    v = [0] * n
    for j in pair.B:
        tj = 0
        for g in restrict_support(system, j, pair.C):
            u = draw(st.integers(low, 3))
            tj += u
            v = [x + u * y for x, y in zip(v, g)]
        t.append(tj)
    return system, pair, t, v


def _ring_tables(draw, ring, system, gens, top):
    """zero, one and per-generator weight tables of length top + 1 in ring;
    the weights are drawn, or fixed nonzero values when draw is None."""
    def weight(k, x, modulus):
        return draw(st.integers(0, modulus - 1)) if draw else (3 * x + k) % (modulus - 1) + 1

    if ring == "F_5[A]":
        variables = system.coefficient_keys()
        tables = []
        for k, key in enumerate(gens):
            column = []
            for x in range(top + 1):
                e = [0] * len(variables)
                e[variables.index(key)] = x
                c = weight(k, x, 5)
                column.append(SparsePolynomialModP(5, variables, {tuple(e): c} if c else {}))
            tables.append(column)
        one = SparsePolynomialModP(5, variables, {(0,) * len(variables): 1})
        return zero_polynomial(system, 5), one, tables
    modulus = 7 if ring == "F_7" else 5 ** 4
    tables = [[weight(k, x, modulus) for x in range(top + 1)] for k in range(len(gens))]
    return 0, 1, tables


def _canonical(value, ring):
    if ring == "F_5[A]":
        return value.terms
    return value % (7 if ring == "F_7" else 5 ** 4)


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=120, deadline=None)
@given(case=fiber_cases(), data=st.data())
def test_fiber_sum_matches_naive_sum(ring, case, data):
    system, pair, t, v = case
    fiber = fiber_reduction(system, pair)
    zero, one, tables = _ring_tables(data.draw, ring, system, fiber.gens, max(max(t), 0))
    got = fiber_sum(fiber, t, v, tables, zero, one)
    want = naive_g(system, pair, t, v, tables, zero, one)
    assert _canonical(got, ring) == _canonical(want, ring)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("supports, C, t, v, points", [
    # no monomial of x*y lives inside C = {1}: the fiber is {()} at t = 0,
    # v = 0 and empty everywhere else
    ([[(1, 1)]], [1], (0,), (0, 0), 1),
    ([[(1, 1)]], [1], (1,), (0, 0), 0),
    ([[(1, 1)]], [1], (0,), (1, 0), 0),
    ([[(1, 1)]], [1], (-1,), (0, 0), 0),
    # negative right-hand sides
    ([[(1, 0), (0, 1)]], [1, 2], (2,), (-1, 3), 0),
    ([[(1, 0), (0, 1)]], [1, 2], (-1,), (-1, 0), 0),
    # both variables are pivots with no free variable; the equations
    # force u = (-1, 2), so the consistent right-hand side has no point
    ([[(1, 0), (1, 1)]], [1, 2], (1,), (1, 2), 0),
    ([[(1, 0), (1, 1)]], [1, 2], (3,), (3, 2), 1),
    # infeasible rationally, and feasible rationally but not integrally
    ([[(2, 0), (0, 2)]], [1, 2], (1,), (3, 0), 0),
    ([[(3, 1), (1, 3)]], [1, 2], (1,), (2, 2), 0),
    ([[(3, 1), (1, 3)]], [1, 2], (2,), (4, 4), 1),
])
def test_fiber_sum_edge_cases(ring, supports, C, t, v, points):
    system = support_system(len(v), supports)
    pair = subset_pair([1], C)
    assert len(naive_fiber_points(system, pair, t, v)) == points
    fiber = fiber_reduction(system, pair)
    zero, one, tables = _ring_tables(None, ring, system, fiber.gens, max(max(t), 0))
    got = fiber_sum(fiber, t, v, tables, zero, one)
    want = naive_g(system, pair, t, v, tables, zero, one)
    assert _canonical(got, ring) == _canonical(want, ring)
    assert (_canonical(got, ring) == _canonical(zero, ring)) == (points == 0)


# -- the integer vertex enumeration against the Fraction one it replaced


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vertices_match_fraction_oracle_on_corpus(seed):
    # every minimal level-1 fiber; some must be positive-dimensional and
    # some must have a fractional vertex, or the comparison shows little
    wide = fractional = 0
    for spec in generate_corpus(seed, 10):
        for lp, (vertices, dim) in minimal_data(spec.system).vertices.items():
            assert (list(vertices), dim) == fraction_vertices(spec.system, lp.pair, lp.t, lp.v)
            wide += dim > 0
            fractional += any(x.denominator != 1 for u in vertices for x in u)
    assert wide > 0 and fractional > 0


@settings(max_examples=300, deadline=None)
@given(case=fiber_cases())
def test_vertices_match_fraction_oracle(case):
    system, pair, t, v = case
    got = enumerate_vertices(fiber_reduction(system, pair), t, v)
    assert got == fraction_vertices(system, pair, t, v)


def test_vertices_of_a_dense_fiber():
    # the full cubic in 3 variables: 20 generators, whose level-1 fiber over
    # (1, 1, 1) is 7-dimensional with 22 vertices, too many to check by hand
    n, d = 3, 3
    support = [g for g in itertools.product(range(d + 1), repeat=n) if sum(g) <= d]
    system = support_system(n, [support])
    pair = subset_pair([1], range(1, n + 1))
    got = enumerate_vertices(fiber_reduction(system, pair), (1,), (1, 1, 1))
    assert len(got[0]) == 22 and got[1] == 7
    assert got == fraction_vertices(system, pair, (1,), (1, 1, 1))


# -- one real point of a fiber, against the Fraction simplex


def solves(fiber, u, t, v) -> bool:
    """Whether u >= 0 solves the fiber equations at (t, v), read off the
    generators themselves: per-polynomial sums t and sum of u_g * g = v."""
    budgets = {j: 0 for j in fiber.pair.B}
    point = [0] * fiber.n
    for (j, g), x in zip(fiber.gens, u):
        budgets[j] += x
        point = [y + x * e for y, e in zip(point, g)]
    return (len(u) == len(fiber.gens) and all(x >= 0 for x in u)
            and [budgets[j] for j in fiber.pair.B] == list(t) and point == list(v))


def fiber_lp(fiber, t, v):
    """The fiber at (t, v) as a feasibility LP over the Fraction simplex."""
    rows = [[1 if j == jj else 0 for jj, _ in fiber.gens] for j in fiber.pair.B]
    rows += [[g[i - 1] for _, g in fiber.gens] for i in fiber.pair.C]
    return rational_lp(rows, list(t) + [v[i - 1] for i in fiber.pair.C])


def test_fiber_point_goldens(ex2_system, skew_system):
    fiber = fiber_reduction(skew_system, subset_pair([1], [1, 2]))
    assert fiber_point(fiber, (1,), (2, 2)) == (Fraction(1, 2), Fraction(1, 2))
    assert fiber_point(fiber, (1,), (2, 3)) is None
    fiber = fiber_reduction(ex2_system, subset_pair([1], [1, 2, 3]))
    assert fiber_point(fiber, (2,), (3, 5, 2)) == (1, 1)
    assert fiber_point(fiber, (-1,), (0, 0, 0)) is None
    # x^2, xy, y^2 at (2, (1, 3)): the pivot rows read 3 and -1, so phase
    # one starts from an artificial column
    fiber = fiber_reduction(support_system(2, [[(2, 0), (1, 1), (0, 2)]]),
                            subset_pair([1], [1, 2]))
    assert fiber.gens == ((1, (0, 2)), (1, (1, 1)), (1, (2, 0)))
    assert fiber_point(fiber, (2,), (1, 3)) == (1, 1, 0)


@settings(max_examples=300, deadline=None)
@given(case=fiber_cases())
def test_fiber_point_matches_the_simplex(case):
    system, pair, t, v = case
    fiber = fiber_reduction(system, pair)
    u = fiber_point(fiber, t, v)
    assert (u is not None) == lp_feasible(fiber_lp(fiber, t, v)).feasible
    assert u is None or solves(fiber, u, t, v)


# -- the facets of the cone of feasible right-hand sides


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cone_facets_on_corpus(seed):
    # each normal supports the cone along rank - 1 generators, and the
    # facets with the checks decide membership as the fiber LP does, which
    # is where fiber_point finds a point
    nonsimplicial = 0
    for spec in generate_corpus(seed, 10):
        system = spec.system
        for pair in enumerate_subset_pairs(system.n, system.r):
            fiber = fiber_reduction(system, pair)
            facets = cone_facets(fiber)
            columns = [[1 if j == jj else 0 for jj in pair.B] + [g[i - 1] for i in pair.C]
                       for j, g in fiber.gens]
            rank = len(fiber.pivots)
            assert len(set(facets)) == len(facets) and list(facets) == sorted(facets)
            for a in facets:
                assert math.gcd(*a) == 1
                assert all(sum(x * y for x, y in zip(a, col)) >= 0 for col in columns)
                tight = [[Fraction(x) for x in col] for col in columns
                         if sum(x * y for x, y in zip(a, col)) == 0]
                assert len(_rref(tight, [Fraction(0)] * len(tight))[0]) == rank - 1
            nonsimplicial += bool(fiber.free)
            if not columns:
                continue
            equations = [list(row) for row in zip(*columns)]
            for b in itertools.product(range(3), repeat=len(pair.B) + len(pair.C)):
                inside = (all(sum(x * y for x, y in zip(c, b)) == 0 for c in fiber.checks)
                          and all(sum(x * y for x, y in zip(a, b)) >= 0 for a in facets))
                assert inside == lp_feasible(rational_lp(equations, b)).feasible
                t = b[:len(pair.B)]
                v = [0] * system.n
                for i, x in zip(pair.C, b[len(pair.B):]):
                    v[i - 1] = x
                u = fiber_point(fiber, t, v)
                assert (u is not None) == inside
                assert u is None or solves(fiber, u, t, v)
    assert nonsimplicial > 0


def test_cone_facets_of_a_dense_support():
    # the full quartic in 5 variables: 126 generators (1, g) with |g| <= 4,
    # whose cone is cut out by v_i >= 0 and 4t - |v| >= 0
    n, d = 5, 4
    support = [g for g in itertools.product(range(d + 1), repeat=n) if sum(g) <= d]
    system = support_system(n, [support])
    fiber = fiber_reduction(system, subset_pair([1], range(1, n + 1)))
    assert len(fiber.gens) == 126
    unit = [tuple(int(i == k) for i in range(n + 1)) for k in range(1, n + 1)]
    assert cone_facets(fiber) == tuple(sorted(unit + [(d,) + (-1,) * n]))
