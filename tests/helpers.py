"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: nested loops, plain integer
arithmetic, no shortcuts.  The point is independence from the code under
test, not speed.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import axdiv.dwork
from axdiv import (
    SubsetPair,
    SupportSystem,
    VarietySpec,
    artin_hasse_coefficients,
    build_field,
    enumerate_subset_pairs,
    from_int,
    gamma_approximation,
    minimal_data,
    restrict_support,
)

# (criterion number, ok, detail) tuples; the conftest summary hook prints them.
ACCEPTANCE_LOG: list[tuple[int, bool, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> bool:
    ACCEPTANCE_LOG.append((num, ok, detail))
    return ok


def count_calls(monkeypatch, fn) -> list:
    """Count the calls of fn made through any axdiv module namespace; the
    modules import each other's names, so patching one would miss calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "axdiv" or name.startswith("axdiv."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def corrupt_first_trace(monkeypatch) -> None:
    """Add 1 to the first window trace that trace_formula_count takes: a
    perturbation that a certified count must surface as a wrong residue or
    a failed check."""
    original = axdiv.dwork.window_trace
    done = []

    def perturbed(*args, **kwargs):
        trace = original(*args, **kwargs)
        if done:
            return trace
        done.append(True)
        return trace + from_int(1, trace.p, trace.me)

    monkeypatch.setattr(axdiv.dwork, "window_trace", perturbed)


def naive_prime_count(spec: VarietySpec, p: int) -> int:
    """Common zeros over F_p by direct enumeration (0^0 = 1)."""
    vals = {key: c.numerator * pow(c.denominator, -1, p) % p
            for key, c in spec.coefficients.items()}
    n = spec.system.n
    count = 0
    for x in itertools.product(range(p), repeat=n):
        ok = True
        for j, support in enumerate(spec.system.supports, start=1):
            total = 0
            for g in support:
                term = vals[(j, g)]
                for xi, e in zip(x, g):
                    term = term * pow(xi, e, p) % p
                total = (total + term) % p
            if total != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def naive_extension_count(spec: VarietySpec, p: int, a: int) -> int:
    """Common zeros over F_{p^a} with hand-rolled polynomial arithmetic.

    Elements are digit tuples (low power first) reduced by the same monic
    modulus that build_field fixes, so the two counters agree on which
    concrete field they enumerate.
    """
    field = build_field(p, a)
    mod = field.modulus

    def reduce(poly: list[int]) -> tuple[int, ...]:
        for k in range(len(poly) - 1, a - 1, -1):
            c = poly[k] % p
            if c:
                for i in range(a + 1):
                    poly[k - a + i] = (poly[k - a + i] - c * mod[i]) % p
        return tuple(x % p for x in poly[:a])

    def mul(x, y):
        out = [0] * (2 * a - 1)
        for i, xi in enumerate(x):
            for k, yk in enumerate(y):
                out[i + k] += xi * yk
        return reduce(out)

    def power(x, e):
        result = (1,) + (0,) * (a - 1)
        while e:
            if e & 1:
                result = mul(result, x)
            x = mul(x, x)
            e >>= 1
        return result

    consts = {key: (c.numerator * pow(c.denominator, -1, p) % p,) + (0,) * (a - 1)
              for key, c in spec.coefficients.items()}
    elements = list(itertools.product(range(p), repeat=a))
    count = 0
    for point in itertools.product(elements, repeat=spec.system.n):
        ok = True
        for j, support in enumerate(spec.system.supports, start=1):
            total = (0,) * a
            for g in support:
                term = consts[(j, g)]
                for x, e in zip(point, g):
                    if e:
                        term = mul(term, power(x, e))
                total = tuple((u + v) % p for u, v in zip(total, term))
            if any(total):
                ok = False
                break
        if ok:
            count += 1
    return count


def diagonal_quadric_count(p: int, a: int, coeffs) -> int:
    """Zeros of sum c_i x_i^2 over F_q, q = p^a odd, integer c_i prime to p.

    Lidl-Niederreiter, Theorems 6.26 and 6.27: q^(n-1) zeros for n odd, and
    q^(n-1) + (q-1) q^(n/2-1) eta((-1)^(n/2) c_1...c_n) for n even, eta the
    quadratic character of F_q, taken here by Euler's criterion in F_q: for
    c in F_p, c^((q-1)/2) is 1 or -1, and can be computed mod p.
    """
    n, q = len(coeffs), p ** a
    if n % 2:
        return q ** (n - 1)
    d = (-1) ** (n // 2)
    for c in coeffs:
        d *= c
    eta = 1 if pow(d, (q - 1) // 2, p) == 1 else -1
    return q ** (n - 1) + (q - 1) * q ** (n // 2 - 1) * eta


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of the given length summing to total."""
    if total < 0:
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def naive_fiber_points(system: SupportSystem, pair: SubsetPair,
                       t, v) -> list[tuple[int, ...]]:
    """Integral fiber points by brute force: every way of splitting each
    budget t_j over the restricted generators of polynomial j, combined
    across the polynomials and kept when the generators sum to v exactly.
    A split that alone overshoots some coordinate of v is dropped early,
    since every generator is nonnegative."""
    v = tuple(v)
    options = []
    for j, tj in zip(pair.B, t):
        gs = restrict_support(system, j, pair.C)
        splits = _compositions(tj, len(gs)) if gs else ([()] if tj == 0 else [])
        opts = []
        for part in splits:
            vec = tuple(sum(uk * g[i] for uk, g in zip(part, gs)) for i in range(system.n))
            if all(x <= y for x, y in zip(vec, v)):
                opts.append((part, vec))
        options.append(opts)
    points = []
    for combo in itertools.product(*options):
        total = tuple(sum(xs) for xs in zip(*(vec for _, vec in combo)))
        if total == v:
            points.append(tuple(x for part, _ in combo for x in part))
    return sorted(points)


def naive_g(system: SupportSystem, pair: SubsetPair, t, v, tables, zero, one):
    """G as the plain sum over naive_fiber_points of the product of
    tables[k][u_k], generators in fiber order."""
    total = zero
    for u in naive_fiber_points(system, pair, t, v):
        term = one
        for column, x in zip(tables, u):
            term = term * column[x]
        total = total + term
    return total


def naive_hasse_value(system: SupportSystem, p: int, coeffs, a: int) -> int:
    """H_p^[a] at the coefficients, straight from its definition: per pair of
    K the trace of the G matrix over Zmin (a = 1) or of its square (a = 2),
    G summed over naive_fiber_points with weights delta_x * c^x mod p."""
    data = minimal_data(system)
    top = max(p * lp.total for lps in data.zmin.values() for lp in lps)
    deltas = [d.numerator * pow(d.denominator, -1, p) % p
              for d in artin_hasse_coefficients(p, top)]
    res = {key: Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p
           for key, c in coeffs.items()}
    total = 0
    for pair, w in data.K:
        keys = [(j, g) for j in pair.B for g in restrict_support(system, j, pair.C)]
        tables = [[d * pow(res[key], x, p) % p for x, d in enumerate(deltas)] for key in keys]

        def G(x, y):
            budgets = [p * ty - tx for tx, ty in zip(x.t, y.t)]
            target = [p * vy - vx for vx, vy in zip(x.v, y.v)]
            return naive_g(system, pair, budgets, target, tables, 0, 1)

        lps = data.zmin[pair]
        if a == 1:
            block = sum(G(x, x) for x in lps)
        else:
            entries = {(x, y): G(x, y) for x in lps for y in lps}
            block = sum(entries[x, y] * entries[y, x] for x in lps for y in lps)
        total += (-1) ** (len(pair.B) + len(pair.C) + a * w) * block
    return total % p


def naive_window_trace(spec: VarietySpec, pair: SubsetPair, p: int, m: int, T: int):
    """The Dwork window trace straight from its definition: over the window
    of the LP scan, gamma^((p-1)|t|) times G at (p-1)*(t, v), G summed over
    naive_fiber_points with weights delta_x * w^x mod p^m, w the
    Teichmueller lift a^(p^(m-1)) of the coefficient a mod p."""
    system = spec.system
    mod = p ** m
    gamma = gamma_approximation(p, m)
    deltas = [d.numerator * pow(d.denominator, -1, mod) % mod
              for d in artin_hasse_coefficients(p, p * T)]
    tables = []
    for j in pair.B:
        for g in restrict_support(system, j, pair.C):
            c = spec.coefficients[(j, g)]
            lift = pow(c.numerator * pow(c.denominator, -1, mod), p ** (m - 1), mod)
            tables.append([d * pow(lift, x, mod) % mod for x, d in enumerate(deltas)])
    total = from_int(0, p, m)
    for t, v in lp_lattice_window(system, pair, T):
        G = naive_g(system, pair, [(p - 1) * x for x in t], [(p - 1) * x for x in v],
                    tables, 0, 1)
        total = total + (gamma ** ((p - 1) * sum(t))).scale(G % mod)
    return total


def _rref(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Row reduce; returns (pivot columns, reduced rows, reduced rhs, consistent)."""
    mat = [row[:] for row in matrix]
    vec = rhs[:]
    m = len(mat)
    k = len(mat[0]) if m else 0
    pivots: list[int] = []
    row = 0
    for col in range(k):
        sel = next((i for i in range(row, m) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        vec[row], vec[sel] = vec[sel], vec[row]
        piv = mat[row][col]
        mat[row] = [x / piv for x in mat[row]]
        vec[row] /= piv
        for i in range(m):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
                vec[i] -= factor * vec[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    consistent = all(vec[i] == 0 for i in range(row, m))
    return pivots, mat[:row], vec[:row], consistent


def _affine_dimension(points: list) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [[x - b for x, b in zip(pt, base)] for pt in points[1:]]
    if not diffs:
        return 0
    pivots, _, _, _ = _rref(diffs, [Fraction(0)] * len(diffs))
    return len(pivots)


def fraction_vertices(system: SupportSystem, pair: SubsetPair, t, v):
    """Vertices and affine dimension of the fiber polytope at (t, v) by
    Fraction row reduction of every basis, the fiber path the integer
    enumerate_vertices replaced; ([], -1) for an empty fiber."""
    t = tuple(int(x) for x in t)
    v = tuple(int(x) for x in v)
    gens = tuple((j, g) for j in pair.B for g in restrict_support(system, j, pair.C))
    if any(x < 0 for x in t) or any(x < 0 for x in v):
        return [], -1
    if not gens:
        if all(x == 0 for x in t) and all(x == 0 for x in v):
            return [()], 0
        return [], -1
    budget = dict(zip(pair.B, t))
    rows = [[Fraction(1 if gj == j else 0) for gj, _ in gens] for j in pair.B]
    rhs = [Fraction(budget[j]) for j in pair.B]
    for i in pair.C:
        rows.append([Fraction(g[i - 1]) for _, g in gens])
        rhs.append(Fraction(v[i - 1]))
    pivots, red, redrhs, consistent = _rref(rows, rhs)
    if not consistent:
        return [], -1
    k = len(gens)
    rank = len(red)
    found = set()
    for cols in itertools.combinations(range(k), rank):
        sub = [[red[i][j] for j in cols] for i in range(rank)]
        subpiv, subred, subrhs, ok = _rref(sub, list(redrhs))
        if not ok or len(subpiv) < rank:
            continue  # singular basis
        u = [Fraction(0)] * k
        for i in range(rank):
            u[cols[subpiv[i]]] = subrhs[i]
        if all(x >= 0 for x in u):
            found.add(tuple(u))
    vertices = sorted(found)
    return vertices, _affine_dimension(vertices)


# -- the exact Fraction simplex, the general LP the integer fiber kernel
# replaced: the oracle of the facet, fiber point and lattice scan tests

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


# -- the lattice scan on the Fraction simplex, as it was before the facet test


def _restricted(system: SupportSystem, pair: SubsetPair):
    rest = {j: restrict_support(system, j, pair.C) for j in pair.B}
    if any(not gs for gs in rest.values()):
        return None
    covered = set()
    for gs in rest.values():
        for g in gs:
            covered.update(i for i in pair.C if g[i - 1] > 0)
    if covered != set(pair.C):
        return None  # some coordinate of C unreachable, weight is infinite
    return rest


def _prefix_lp(pair: SubsetPair, rest, t, fixed):
    """Feasibility LP for a partially fixed target: the first len(fixed)
    coordinates of C are pinned, the rest only have to reach 1 (slack
    columns make >= 1 an equality)."""
    gens = [(j, g) for j in pair.B for g in rest[j]]
    nfree = len(pair.C) - len(fixed)
    rows = []
    rhs = []
    for j, tj in zip(pair.B, t):
        rows.append([1 if jj == j else 0 for jj, _ in gens] + [0] * nfree)
        rhs.append(tj)
    for idx, i in enumerate(pair.C):
        row = [g[i - 1] for _, g in gens]
        if idx < len(fixed):
            rows.append(row + [0] * nfree)
            rhs.append(fixed[idx])
        else:
            slack = [0] * nfree
            slack[idx - len(fixed)] = -1
            rows.append(row + slack)
            rhs.append(1)
    return rational_lp(rows, rhs)


def _feasible_targets(system: SupportSystem, pair: SubsetPair, rest, t):
    """Integral v positive exactly on C with a feasible fiber at budget t,
    in lex order over the C coordinates.

    Depth-first over the per-axis box of the Minkowski sum of t_j-dilated
    restricted supports; a subtree is cut when even the relaxed LP (tail
    coordinates only required to reach 1) is infeasible.  Leaves are exact
    membership tests, so the enumeration is complete.
    """
    n = system.n
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for i in pair.C:
        lo[i] = max(1, sum(tj * min(g[i - 1] for g in rest[j])
                           for j, tj in zip(pair.B, t)))
        hi[i] = sum(tj * max(g[i - 1] for g in rest[j]) for j, tj in zip(pair.B, t))
    if any(lo[i] > hi[i] for i in pair.C):
        return

    def walk(idx: int, acc: list[int]):
        if not lp_feasible(_prefix_lp(pair, rest, t, acc)).feasible:
            return
        if idx == len(pair.C):
            v = [0] * n
            for i, x in zip(pair.C, acc):
                v[i - 1] = x
            yield tuple(v)
            return
        i = pair.C[idx]
        for x in range(lo[i], hi[i] + 1):
            yield from walk(idx + 1, acc + [x])

    yield from walk(0, [])


def _lp_layer(system: SupportSystem, pair: SubsetPair, rest, total: int):
    """The sorted (t, v) of Z_{B,C} with |t| = total, by the LP scan."""
    if total < len(pair.B):
        return []
    return sorted((tuple(x + 1 for x in t), v)
                  for t in _compositions(total - len(pair.B), len(pair.B))
                  for v in _feasible_targets(system, pair, rest, tuple(x + 1 for x in t)))


def lp_zmin_for_pair(system: SupportSystem, pair: SubsetPair):
    """The first nonempty layer of the LP scan, |t| = w_Z(B,C), or None
    when the weight is infinite."""
    rest = _restricted(system, pair)
    if rest is not None:
        for total in range(len(pair.B), len(pair.B) + len(pair.C) + 1):
            layer = _lp_layer(system, pair, rest, total)
            if layer:
                return layer
    return None


def lp_lattice_window(system: SupportSystem, pair: SubsetPair, L: int):
    """The (t, v) of Z_{B,C} with |t| <= L, by |t| then lex, by the LP scan."""
    rest = _restricted(system, pair)
    if rest is None:
        return []
    return [lp for total in range(len(pair.B), L + 1)
            for lp in _lp_layer(system, pair, rest, total)]


def naive_active_pairs(system: SupportSystem) -> tuple[list[SubsetPair], int]:
    """The pairs whose every f_j of B has a monomial supported inside C, and
    s = max(0, |B| + |C| - n) over them, by a direct loop over the supports."""
    active = []
    s = 0
    for pair in enumerate_subset_pairs(system.n, system.r):
        ok = True
        for j in pair.B:
            if not any(all(g[i - 1] == 0 for i in range(1, system.n + 1) if i not in pair.C)
                       for g in system.supports[j - 1]):
                ok = False
                break
        if ok:
            active.append(pair)
            s = max(s, len(pair.B) + len(pair.C) - system.n)
    return active, max(0, s)


def diagonal_mu(degrees) -> int:
    """mu of the diagonal form sum x_i^d_i from its closed form: the least
    integer t = sum v_i / d_i with 1 <= v_i <= d_i, minus 1, by a dynamic
    programme over the sums scaled by lcm(d)."""
    scale = math.lcm(*degrees)
    sums = {0}
    for d in degrees:
        sums = {s + v * (scale // d) for s in sums for v in range(1, d + 1)}
    return min(s // scale for s in sums if s % scale == 0) - 1


def diagonal_system(degrees) -> SupportSystem:
    n = len(degrees)
    return SupportSystem(n, (tuple(tuple(d if k == i else 0 for k in range(n))
                                   for i, d in enumerate(degrees)),))
