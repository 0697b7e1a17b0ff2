"""The fiber kernel: exact integer questions about the fibers of a subset pair.

Every fiber question goes through one integer row reduction per subset pair
(fiber_reduction), and nothing in this module touches floating point.
fiber_sum computes every sum G over the integral points of a fiber;
cone_facets gives the integer facets of the cone of right-hand sides whose
fiber is nonempty, and enumerate_vertices the vertices of one real fiber,
both by one double description loop; fiber_point finds one real point of a
fiber by a fraction-free phase one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterable, Sequence

from .model import (
    CoefficientKey,
    SubsetPair,
    SupportSystem,
    restrict_support,
)

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class FiberReduction:
    """The fiber equations of one subset pair, row-reduced once in integers.

    With b = (t_j for j in B) + (v_i for i in C) the right-hand side of one
    fiber, pivot row i reads

        denominators[i] * u[pivots[i]] + sum over s of rows[i][s] * u[free[s]]
            = transforms[i] . b

    and every vector of checks must have b . check = 0 for any solution at
    all.  Pivots are chosen from the last generator backwards, so the free
    generators come first.  closes[i] is the last position s with
    rows[i][s] != 0 (-1 when the row has no free variable): the pivot of
    row i is fixed once free[closes[i]] is.
    """

    pair: SubsetPair
    n: int                               # variables of the system
    gens: tuple[CoefficientKey, ...]
    budget_index: tuple[int, ...]        # per generator, its polynomial's position in B
    free: tuple[int, ...]
    pivots: tuple[int, ...]
    denominators: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    transforms: tuple[tuple[int, ...], ...]
    checks: tuple[tuple[int, ...], ...]
    closes: tuple[int, ...]


def _pivot(rows: list[list[int]], sel: int, col: int) -> None:
    """Make rows[sel][col] positive and clear column col from every other
    row, in place: each is replaced by an integer combination with rows[sel]
    that keeps its own sign, divided by the gcd of its entries, which keeps
    the numbers small."""
    if rows[sel][col] < 0:
        rows[sel] = [-x for x in rows[sel]]
    prow = rows[sel]
    piv = prow[col]
    for r, other in enumerate(rows):
        factor = other[col]
        if r != sel and factor:
            row = [piv * x - factor * y for x, y in zip(other, prow)]
            content = math.gcd(*row) or 1  # dependent rows reduce to zero
            rows[r] = [x // content for x in row]


def _eliminate(rows: list[list[int]], columns: Iterable[int]) -> dict[int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows, in the
    manner of Bareiss (1968), in place, pivoting on the given columns in
    order; returns the pivot column of each pivot row.  A pivot is the
    entry of least absolute value among the rows not yet pivoted."""
    pivot_of: dict[int, int] = {}
    for col in columns:
        candidates = [r for r in range(len(rows)) if r not in pivot_of and rows[r][col]]
        if not candidates:
            continue
        sel = min(candidates, key=lambda r: abs(rows[r][col]))
        _pivot(rows, sel, col)
        pivot_of[sel] = col
    return pivot_of


def fiber_reduction(system: SupportSystem, pair: SubsetPair) -> FiberReduction:
    """Fraction-free Gauss-Jordan reduction of the fiber equations of pair.

    The identity block carried to the right of the equations records each
    reduced row as an integer combination of the original ones.
    """
    gens = tuple((j, g) for j in pair.B for g in restrict_support(system, j, pair.C))
    k = len(gens)
    m = len(pair.B) + len(pair.C)
    coeff_rows = [[1 if gj == j else 0 for gj, _ in gens] for j in pair.B]
    coeff_rows += [[g[i - 1] for _, g in gens] for i in pair.C]
    mat = [row + [1 if c == r else 0 for c in range(m)] for r, row in enumerate(coeff_rows)]
    pivot_of = _eliminate(mat, reversed(range(k)))
    free = tuple(c for c in range(k) if c not in pivot_of.values())
    order = sorted(pivot_of, key=lambda r: pivot_of[r])
    rows = tuple(tuple(mat[r][c] for c in free) for r in order)
    closes = tuple(max((s for s, a in enumerate(row) if a), default=-1) for row in rows)
    position = {j: idx for idx, j in enumerate(pair.B)}
    return FiberReduction(
        pair=pair,
        n=system.n,
        gens=gens,
        budget_index=tuple(position[j] for j, _ in gens),
        free=free,
        pivots=tuple(pivot_of[r] for r in order),
        denominators=tuple(mat[r][pivot_of[r]] for r in order),
        rows=rows,
        transforms=tuple(tuple(mat[r][k:]) for r in order),
        checks=tuple(tuple(mat[r][k:]) for r in range(m) if r not in pivot_of),
        closes=closes,
    )


def _dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(xs, ys))


def _double_description(rays: list[tuple[list[int], int]],
                         constraints: Iterable[tuple[int, Sequence[int]]]) -> list[list[int]]:
    """The extreme rays, primitive integer vectors, of the cone cut out of a
    simplicial cone by h . y >= 0 for each (key, h) of constraints.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): rays
    starts as the d rays of the simplicial cone, each with the keys of the
    d - 1 of its facets that it lies on, as the bits of one integer.  Each
    constraint is then added in turn.  A ray with h . y < 0 goes, and each
    pair of adjacent rays y+, y- with h . y+ > 0 > h . y- gives the ray on
    their 2-face with h . y = 0.  Two rays are adjacent when they share at
    least d - 2 keys and no third ray is tight on every key that both are
    tight on.  The work grows with the number of rays met, not with the
    subsets of constraints.
    """
    dim = len(rays)
    for key, h in constraints:
        bit = 1 << key
        sides = [_dot(y, h) for y, _ in rays]
        new = [(y, tight | bit if s == 0 else tight) for (y, tight), s in zip(rays, sides) if s >= 0]
        plus = [i for i, s in enumerate(sides) if s > 0]
        minus = [i for i, s in enumerate(sides) if s < 0]
        masks = [tight for _, tight in rays]
        for i, j in product(plus, minus):
            (y1, z1), (y2, z2) = rays[i], rays[j]
            ridge = z1 & z2
            # rays i and j are two of the rays tight on the ridge; a third one
            # means they are not adjacent
            if (ridge.bit_count() < dim - 2
                    or next(islice((z for z in masks if z & ridge == ridge), 2, None), None) is not None):
                continue
            y = [sides[i] * b - sides[j] * a for a, b in zip(y1, y2)]
            content = math.gcd(*y)
            new.append(([x // content for x in y], ridge | bit))
        rays = new
    return [y for y, _ in rays]


def cone_facets(fiber: FiberReduction) -> tuple[tuple[int, ...], ...]:
    """The primitive integer normals a of the facets of the cone spanned by
    the generator columns (e_j, g restricted to C) of the fiber equations,
    in the coordinates b of fiber_reduction, sorted and distinct: b has a
    nonempty real fiber exactly when check . b = 0 for every check and
    a . b >= 0 for every normal.  A normal is only fixed up to adding
    checks, which vanish on the cone.

    The normals are the extreme rays of the dual cone, found by double
    description: the pivot columns span a simplicial cone, cut out by
    u[pivots[i]] >= 0, that is transforms[i] . b >= 0, and each free column
    g adds the constraint a . g >= 0.  A normal is keyed by the columns it
    is tight on.
    """
    tight = sum(1 << p for p in fiber.pivots)
    start = []
    for p, a in zip(fiber.pivots, fiber.transforms):
        content = math.gcd(*a)
        start.append(([x // content for x in a], tight ^ 1 << p))
    nb = len(fiber.pair.B)
    columns = [(f, [int(idx == fiber.budget_index[f]) for idx in range(nb)]
                + [fiber.gens[f][1][i - 1] for i in fiber.pair.C]) for f in fiber.free]
    return tuple(sorted(tuple(a) for a in _double_description(start, columns)))


def fiber_sum(fiber: FiberReduction, t: Sequence[int], v: Sequence[int],
              tables: Sequence[Sequence], zero, one):
    """Sum over the integral points u of the fiber at (t, v) of the product
    of tables[k][u[k]] over its generators k; zero when there is no point.

    The weights may be any ring elements with * and + (ints are left
    unreduced; the caller reduces the result).  A dynamic programme runs over
    the free variables only: a state is the tuple of residuals
    transforms[i] . b - sum of rows[i][s] * u[free[s]] of the rows still
    open, so assignments sharing their residuals are folded together.  A row
    closes right after its last free variable is set: its pivot value
    residual / denominator must be an integer, and its table entry is
    multiplied in.  Each free variable only ranges over the values for which
    every open row it appears in can still bring its pivot into
    [0, budget], so the programme creates no state that some open row has
    already ruled out.
    """
    if any(x < 0 for x in t) or any(x < 0 for x in v):
        return zero
    b = tuple(t) + tuple(v[i - 1] for i in fiber.pair.C)
    if any(_dot(check, b) for check in fiber.checks):
        return zero
    ub = [t[idx] for idx in fiber.budget_index]
    value = one
    start = []
    open_rows = []
    for i, T in enumerate(fiber.transforms):
        rhs = _dot(T, b)
        if fiber.closes[i] >= 0:
            open_rows.append(i)
            start.append(rhs)
            continue
        c, rem = divmod(rhs, fiber.denominators[i])
        if rem or not 0 <= c <= ub[fiber.pivots[i]]:
            return zero
        value = value * tables[fiber.pivots[i]][c]
    # lo[i][s], hi[i][s]: range of the part of row i still to be set after step s
    lo = {}
    hi = {}
    for i in open_rows:
        low = high = 0
        lo[i] = [0] * len(fiber.free)
        hi[i] = [0] * len(fiber.free)
        for s in reversed(range(len(fiber.free))):
            lo[i][s], hi[i][s] = low, high
            a = fiber.rows[i][s]
            if a > 0:
                high += a * ub[fiber.free[s]]
            else:
                low += a * ub[fiber.free[s]]
    dp = {tuple(start): value}
    for s, col in enumerate(fiber.free):
        table = tables[col]
        cuts = []
        keep = []
        close = []
        for pos, i in enumerate(open_rows):
            a = fiber.rows[i][s]
            if a:
                span = fiber.denominators[i] * ub[fiber.pivots[i]]
                # a * x must lie in [r - (span + hi), r - lo] for residual r
                cuts.append((pos, a, lo[i][s], span + hi[i][s]))
            if fiber.closes[i] == s:
                close.append((pos, a, fiber.denominators[i], tables[fiber.pivots[i]]))
            else:
                keep.append((pos, a))
        open_rows = [open_rows[pos] for pos, _ in keep]
        new: dict[tuple[int, ...], object] = {}
        for state, value in dp.items():
            x_lo, x_hi = 0, ub[col]
            for pos, a, low, high in cuts:
                r = state[pos]
                if a > 0:
                    x_lo = max(x_lo, -((high - r) // a))
                    x_hi = min(x_hi, (r - low) // a)
                else:
                    x_lo = max(x_lo, -((r - low) // -a))
                    x_hi = min(x_hi, (high - r) // -a)
            for x in range(x_lo, x_hi + 1):
                w = value * table[x]
                for pos, a, d, pivot_table in close:
                    # the cut on x already keeps c in [0, budget]
                    c, rem = divmod(state[pos] - a * x, d)
                    if rem:
                        break
                    w = w * pivot_table[c]
                else:
                    key = tuple([state[pos] - a * x for pos, a in keep])
                    acc = new.get(key)
                    new[key] = w if acc is None else acc + w
        dp = new
    return dp.get((), zero)


def fiber_point(fiber: FiberReduction, t: Sequence[int], v: Sequence[int]) -> Point | None:
    """One real point u >= 0 of the fiber at (t, v), or None when the fiber
    is empty.

    Phase one of the simplex with Bland's rule, fraction-free on the pivot
    rows: the pivot of each row with a right-hand side >= 0 starts basic,
    and each row with a negative one is negated and gets an artificial
    column of its own, basic at the start.  The least sum of the artificials
    is 0 exactly when the fiber is nonempty; the basic columns then read off
    a point.
    """
    b = tuple(t) + tuple(v[i - 1] for i in fiber.pair.C)
    if any(_dot(check, b) for check in fiber.checks):
        return None
    k = len(fiber.gens)
    rhs = [_dot(T, b) for T in fiber.transforms]
    negative = [i for i, c in enumerate(rhs) if c < 0]
    width = k + len(negative)
    tableau = []
    for i, c in enumerate(rhs):
        row = [0] * width + [c]
        row[fiber.pivots[i]] = fiber.denominators[i]
        for col, a in zip(fiber.free, fiber.rows[i]):
            row[col] = a
        tableau.append(row)
    basis = list(fiber.pivots)
    for a, i in enumerate(negative):
        tableau[i] = [-x for x in tableau[i]]
        tableau[i][k + a] = 1
        basis[i] = k + a
    # the cost row: the sum of the artificials, with the basic ones eliminated
    cost = [-sum(tableau[i][c] for i in negative) for c in range(width + 1)]
    cost[k:width] = [0] * len(negative)
    tableau.append(cost)
    while True:
        enter = next((c for c in range(width) if tableau[-1][c] < 0), None)
        if enter is None:
            break
        # the least ratio row[-1] / row[enter] over row[enter] > 0, ties
        # going to the least basic column
        leave = None
        for i, row in enumerate(tableau[:-1]):
            if row[enter] > 0 and (leave is None or (row[-1] * tableau[leave][enter], basis[i])
                                   < (tableau[leave][-1] * row[enter], basis[leave])):
                leave = i
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    if tableau[-1][-1]:
        return None  # the artificials cannot all reach 0
    u = [Fraction(0)] * k
    for row, col in zip(tableau, basis):
        if col < k:
            u[col] = Fraction(row[-1], row[col])
    return tuple(u)


def enumerate_vertices(fiber: FiberReduction, t: Sequence[int],
                       v: Sequence[int]) -> tuple[list[Point], int]:
    """All vertices of the fiber polytope at (t, v), the real u >= 0 solving
    the fiber equations, in lex order, plus its affine dimension; ([], -1)
    for an empty fiber.

    In the free variables x the fiber is x >= 0 with transforms[i] . b -
    rows[i] . x >= 0, the sign of each pivot.  Its vertices are the extreme
    rays (x, s) with s > 0 of the cone over it, found by double description:
    start from the orthant (x, s) >= 0 and add
    s * (transforms[i] . b) - rows[i] . x >= 0 for each pivot row.  The
    keys are the generators, a ray being tight on those whose u vanishes on
    it, and one more for s.
    """
    t = tuple(int(x) for x in t)
    v = tuple(int(x) for x in v)
    if len(t) != len(fiber.pair.B):
        raise ValueError("t must have one entry per index in B")
    if len(v) != fiber.n:
        raise ValueError("v must have length n")
    cset = set(fiber.pair.C)
    if any(x != 0 for i, x in enumerate(v, start=1) if i not in cset):
        raise ValueError("v must vanish off C")
    b = t + tuple(v[i - 1] for i in fiber.pair.C)
    if any(x < 0 for x in b) or any(_dot(check, b) for check in fiber.checks):
        return [], -1
    k = len(fiber.gens)
    keys = fiber.free + (k,)
    tight = sum(1 << key for key in keys)
    start = [([int(p == q) for q in range(len(keys))], tight ^ 1 << key)
             for p, key in enumerate(keys)]
    cuts = [(col, [-a for a in row] + [_dot(T, b)])
            for col, row, T in zip(fiber.pivots, fiber.rows, fiber.transforms)]
    rays = [y for y in _double_description(start, cuts) if y[-1] > 0]
    if not rays:
        return [], -1
    vertices = []
    for y in rays:
        u = [Fraction(0)] * k
        for col, x in zip(fiber.free, y):
            u[col] = Fraction(x, y[-1])
        for (col, h), d in zip(cuts, fiber.denominators):
            u[col] = Fraction(_dot(h, y), d * y[-1])
        vertices.append(tuple(u))
    # the pivots are affine in x, so the affine dimension of the vertices is
    # that of the points x / s: the rank of the rays, less one
    return sorted(vertices), len(_eliminate(rays, range(len(keys)))) - 1
