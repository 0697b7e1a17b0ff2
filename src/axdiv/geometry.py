"""Exact linear programming over the rationals, and the fiber kernel.

The simplex here is deliberately small: equality-form problems in nonnegative
variables, Bland's rule for guaranteed termination, Fraction arithmetic
throughout.  Nothing in this module touches floating point, so feasibility
verdicts come with exact witnesses and infeasibility with Farkas certificates.
Every fiber question goes through one integer row reduction per subset pair
(fiber_reduction): fiber_sum computes every sum G over the integral points of
a fiber, in integer arithmetic only, enumerate_vertices reads off the
vertices of the real fiber, and cone_facets the integer facets of the cone of
right-hand sides whose fiber is nonempty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .model import (
    CoefficientKey,
    SubsetPair,
    SupportSystem,
    restrict_support,
)

Point = tuple[Fraction, ...]


class InfeasibleError(Exception):
    """LP that was required to be feasible is not; carries the certificate."""

    def __init__(self, certificate: Point | None = None):
        super().__init__("infeasible linear program")
        self.certificate = certificate


class UnboundedError(Exception):
    """Minimization objective unbounded below on the feasible region."""


@dataclass(frozen=True)
class RationalLP:
    """min objective . x  subject to  rows . x = rhs  and  x >= 0.

    objective may be None for pure feasibility questions.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs length mismatch")
        widths = {len(row) for row in self.rows}
        if self.objective is not None:
            widths.add(len(self.objective))
        if len(widths) > 1:
            raise ValueError("ragged constraint matrix")


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Point | None = None
    # Farkas vector y with y.rows <= 0 componentwise and y.rhs > 0.
    certificate: Point | None = None


def rational_lp(rows: Iterable[Iterable], rhs: Iterable,
                objective: Iterable | None = None) -> RationalLP:
    frows = tuple(tuple(Fraction(x) for x in row) for row in rows)
    frhs = tuple(Fraction(x) for x in rhs)
    fobj = None if objective is None else tuple(Fraction(x) for x in objective)
    return RationalLP(frows, frhs, fobj)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    prow = tableau[row]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if factor:
            tableau[i] = [a - factor * b for a, b in zip(other, prow)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Iterate Bland pivots until the cost row (last) has no negative entry."""
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return
        leave = None
        best = None
        for i in range(len(tableau) - 1):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise UnboundedError("no leaving row")
        _pivot(tableau, basis, leave, enter)


def _solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
           objective: Sequence[Fraction] | None):
    """Two-phase exact simplex.

    Returns ("optimal", value, x, None) or ("infeasible", None, None, farkas).
    Raises UnboundedError if the phase-2 objective has no finite minimum.
    """
    m = len(rows)
    k = len(rows[0]) if m else (len(objective) if objective else 0)
    if m == 0:
        if objective and any(c < 0 for c in objective):
            raise UnboundedError("no constraints")
        zero = tuple(Fraction(0) for _ in range(k))
        return "optimal", Fraction(0), zero, None

    flips = [Fraction(-1) if b < 0 else Fraction(1) for b in rhs]
    tableau = []
    for i in range(m):
        row = [flips[i] * x for x in rows[i]]
        row += [Fraction(1) if t == i else Fraction(0) for t in range(m)]
        row.append(flips[i] * rhs[i])
        tableau.append(row)
    basis = [k + i for i in range(m)]

    # Phase 1 cost row: artificials cost 1, already basic, so eliminate them.
    cost = [Fraction(0)] * (k + m + 1)
    for row in tableau:
        cost = [c - x for c, x in zip(cost, row)]
    for j in range(k, k + m):
        cost[j] += 1
    tableau.append(cost)
    _run_simplex(tableau, basis, k + m)

    value = -tableau[-1][-1]
    if value > 0:
        # Farkas: y_i = 1 - reduced cost of artificial i, undoing row flips.
        farkas = tuple(flips[i] * (1 - tableau[-1][k + i]) for i in range(m))
        return "infeasible", None, None, farkas

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= k:
            col = next((j for j in range(k) if tableau[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:k] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    if objective is not None:
        cost = [Fraction(c) for c in objective] + [Fraction(0)]
        for i, b in enumerate(basis):
            factor = cost[b]
            if factor:
                cost = [c - factor * x for c, x in zip(cost, tableau[i])]
        tableau.append(cost)
        _run_simplex(tableau, basis, k)
        tableau.pop()

    x = [Fraction(0)] * k
    for i, b in enumerate(basis):
        x[b] = tableau[i][-1]
    val = Fraction(0) if objective is None else sum(c * v for c, v in zip(objective, x))
    return "optimal", val, tuple(x), None


def lp_feasible(lp: RationalLP) -> Feasibility:
    """Exact feasibility with witness or Farkas certificate."""
    status, _, x, farkas = _solve(lp.rows, lp.rhs, None)
    if status == "optimal":
        return Feasibility(True, witness=x)
    return Feasibility(False, certificate=farkas)


def lp_minimize(lp: RationalLP) -> tuple[Fraction, Point]:
    """Exact minimum of the objective; raises InfeasibleError or UnboundedError."""
    if lp.objective is None:
        raise ValueError("objective required")
    status, value, x, farkas = _solve(lp.rows, lp.rhs, lp.objective)
    if status == "infeasible":
        raise InfeasibleError(farkas)
    return value, x


def minimal_dilation(vertices: Iterable[Iterable], y: Iterable) -> Fraction | None:
    """Least rational c >= 0 with y in c * conv(vertices cup {0}), or None.

    Since the hull contains the origin the dilations are nested, and the
    minimum is  min sum(mu)  over  mu >= 0  with  sum mu_v * v = y.
    """
    vs = [tuple(Fraction(x) for x in v) for v in vertices]
    if not vs:
        raise ValueError("empty vertex set")
    ty = tuple(Fraction(x) for x in y)
    dim = len(ty)
    if any(len(v) != dim for v in vs):
        raise ValueError("vertex dimension mismatch")
    vs = [v for v in vs if any(x != 0 for x in v)]
    if all(x == 0 for x in ty):
        return Fraction(0)
    if not vs:
        return None
    rows = tuple(tuple(v[i] for v in vs) for i in range(dim))
    lp = RationalLP(rows, ty, tuple(Fraction(1) for _ in vs))
    try:
        value, _ = lp_minimize(lp)
    except InfeasibleError:
        return None
    return value


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


def _eliminate(rows: list[list[int]], columns: Iterable[int]) -> dict[int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows, in the
    manner of Bareiss (1968), in place, pivoting on the given columns in
    order; returns the pivot column of each pivot row.

    A pivot is the entry of least absolute value among the rows not yet
    pivoted, made positive; every other row is cleared in its column by an
    integer combination and divided by the gcd of its entries, which keeps
    the numbers small.
    """
    pivot_of: dict[int, int] = {}
    for col in columns:
        candidates = [r for r in range(len(rows)) if r not in pivot_of and rows[r][col]]
        if not candidates:
            continue
        sel = min(candidates, key=lambda r: abs(rows[r][col]))
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


def cone_facets(fiber: FiberReduction) -> tuple[tuple[int, ...], ...]:
    """The primitive integer normals a of the facets of the cone spanned by
    the generator columns (e_j, g restricted to C) of the fiber equations,
    in the coordinates b of fiber_reduction, sorted and distinct: b has a
    nonempty real fiber exactly when check . b = 0 for every check and
    a . b >= 0 for every normal.  A normal is only fixed up to adding
    checks, which vanish on the cone.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): the
    pivot columns span a simplicial cone, cut out by u[pivots[i]] >= 0,
    that is transforms[i] . b >= 0.  Each free column g is then added in
    turn.  A facet with a . g < 0 goes, and each pair of adjacent facets
    a+, a- with a+ . g > 0 > a- . g gives the facet through their ridge and
    g.  Two facets are adjacent when no third one is tight on every column
    that both are tight on.  The work grows with the number of facets met,
    not with the subsets of columns.
    """
    nb = len(fiber.pair.B)
    columns = [[1 if idx == bi else 0 for idx in range(nb)] + [g[i - 1] for i in fiber.pair.C]
               for bi, (_, g) in zip(fiber.budget_index, fiber.gens)]
    facets = []  # (normal, the added columns it is tight on)
    for p, a in zip(fiber.pivots, fiber.transforms):
        content = math.gcd(*a)
        facets.append(([x // content for x in a], frozenset(fiber.pivots) - {p}))
    for f in fiber.free:
        sides = [_dot(a, columns[f]) for a, _ in facets]
        new = [(a, tight | {f} if s == 0 else tight) for (a, tight), s in zip(facets, sides) if s >= 0]
        plus = [i for i, s in enumerate(sides) if s > 0]
        minus = [i for i, s in enumerate(sides) if s < 0]
        for i, j in product(plus, minus):
            (a1, z1), (a2, z2) = facets[i], facets[j]
            ridge = z1 & z2
            if (len(ridge) < len(fiber.pivots) - 2
                    or any(ridge <= z for h, (_, z) in enumerate(facets) if h not in (i, j))):
                continue
            a = [sides[i] * y - sides[j] * x for x, y in zip(a1, a2)]
            content = math.gcd(*a)
            new.append(([x // content for x in a], ridge | {f}))
        facets = new
    return tuple(sorted(tuple(a) for a, _ in facets))


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


def enumerate_vertices(fiber: FiberReduction, t: Sequence[int],
                       v: Sequence[int]) -> tuple[list[Point], int]:
    """All vertices of the fiber polytope at (t, v), the real u >= 0 solving
    the fiber equations, in lex order, plus its affine dimension; ([], -1)
    for an empty fiber.

    Every set of len(fiber.pivots) generators is tried as a basis: the
    reduced rows of the fiber, eliminated on those columns, either leave a
    row without pivot (a singular set) or give the basic solution, a vertex
    when it is nonnegative.  Exhaustive, which is fine at desk scale where
    fibers have at most a dozen variables.
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
    # pivot row i with its right-hand side, over all k generators
    reduced = []
    for i, T in enumerate(fiber.transforms):
        row = [0] * k + [_dot(T, b)]
        row[fiber.pivots[i]] = fiber.denominators[i]
        for s, col in enumerate(fiber.free):
            row[col] = fiber.rows[i][s]
        reduced.append(row)
    found: set[Point] = set()
    for cols in combinations(range(k), len(reduced)):
        mat = [[row[c] for c in cols] + [row[-1]] for row in reduced]
        pivot_of = _eliminate(mat, range(len(cols)))
        if len(pivot_of) < len(cols):
            continue  # singular basis
        u = [Fraction(0)] * k
        for r, s in pivot_of.items():
            u[cols[s]] = Fraction(mat[r][-1], mat[r][s])
        if all(x >= 0 for x in u):
            found.add(tuple(u))
    vertices = sorted(found)
    if not vertices:
        return [], -1
    # the affine dimension is the rank of the vertex differences, in integers
    scale = math.lcm(*(x.denominator for u in vertices for x in u))
    diffs = [[int((x - y) * scale) for x, y in zip(u, vertices[0])] for u in vertices[1:]]
    return vertices, len(_eliminate(diffs, range(k)))
