"""Integral weights, lattice windows, and the minimizing data (mu, K, Zmin).

w_Z(B,C) is the least total budget |t| for which some integral point v,
positive exactly on C, is a nonnegative rational combination of the restricted
supports with per-polynomial sums t_j.  The combinatorial value
min over pairs of n - |B| - |C| + w_Z(B,C) must agree with the polytope route
w(f) - r; both are computed here and a disagreement raises ConsistencyError.

Z_{B,C} is read in layers, the points with one |t|, each in (t, v) order.
weight_wz, zmin_for_pair and lattice_window all read the layers of _layers,
which start at weight_floor, an integer lower bound on w_Z(B,C) from the
degree argument behind Ax-Katz; weight_polytope scans from |t| = r and uses
no floor.  Everything remembered about a system (its grading, the cone of
every pair scanned and its MinimalData) sits in one record per live system.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .geometry import (
    FiberReduction,
    Point,
    cone_facets,
    enumerate_vertices,
    fiber_point,
    fiber_reduction,
)
from .model import (
    ExponentVector,
    SubsetPair,
    SupportSystem,
)

INFINITE_WEIGHT = math.inf


class WeightUnreachableError(Exception):
    """No dilation of the Newton polytope meets the positive orthant."""


class ConsistencyError(Exception):
    """The two routes to mu disagree; an implementation bug, not bad input."""


@dataclass(frozen=True)
class LatticePair:
    """(t, v) in Z_{B,C}: positive integer budgets t and target v positive on C."""

    pair: SubsetPair
    t: tuple[int, ...]
    v: ExponentVector

    @property
    def total(self) -> int:
        return sum(self.t)


@dataclass(frozen=True)
class MinimalData:
    """mu and the minimizing pair set K with weights; Zmin per pair and the
    vertices of every minimal level-1 fiber are built on first use, and
    pair_fiber gives the fiber equations of a pair of K.  Read-only, since
    one instance is shared by every caller that analyses the same system."""

    mu: int
    K: tuple[tuple[SubsetPair, int], ...]
    # an equal copy of the analysed system: the cache holds its key weakly,
    # so its value must not refer to the key itself
    system: SupportSystem = field(repr=False, compare=False)

    @cached_property
    def zmin(self) -> Mapping[SubsetPair, tuple[LatticePair, ...]]:
        """The minimal lattice pairs of every pair of K: its layer at the
        weight K holds."""
        return MappingProxyType({pair: tuple(_layer(*_cone(self.system, pair), w))
                                 for pair, w in self.K})

    @cached_property
    def vertices(self) -> Mapping[LatticePair, tuple[tuple[Point, ...], int]]:
        """Vertices and affine dimension of every minimal level-1 fiber,
        enumerated on first use."""
        out = {}
        for pair, lps in self.zmin.items():
            fiber = pair_fiber(self.system, pair)
            for lp in lps:
                vertices, dim = enumerate_vertices(fiber, lp.t, lp.v)
                out[lp] = (tuple(vertices), dim)
        return MappingProxyType(out)


@dataclass
class _Record:
    """Everything remembered about one live system.

    grading is lambda and, per polynomial, the (support bit mask,
    lambda-degree) of each monomial.  lambda_i = L / e_i, where e_i is the
    largest exponent of x_i in any monomial (1 when x_i appears in none) and
    L = lcm(e_i): the integer grading under which every x_i^(e_i) has degree
    L.  cones holds the cone of every pair scanned so far (see _cone), and
    data the result of minimal_data once it has run.
    """

    grading: tuple[tuple[int, ...], list[list[tuple[int, int]]]]
    cones: dict[SubsetPair, tuple | None] = field(default_factory=dict)
    data: MinimalData | None = None


# one record per live system; an entry goes when its system is collected
_RECORDS: weakref.WeakKeyDictionary[SupportSystem, _Record] = weakref.WeakKeyDictionary()


def _record(system: SupportSystem) -> _Record:
    """The record of system, made with its grading on first use."""
    record = _RECORDS.get(system)
    if record is None:
        tops = [max(1, max(g[i] for gs in system.supports for g in gs)) for i in range(system.n)]
        L = math.lcm(*tops)
        lam = tuple(L // e for e in tops)
        graded = [[(sum(1 << i for i, e in enumerate(g) if e), sum(x * e for x, e in zip(lam, g)))
                   for g in gs] for gs in system.supports]
        record = _RECORDS[system] = _Record((lam, graded))
    return record


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Integer tuples of the given length, entries >= 1, summing to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cone(system: SupportSystem, pair: SubsetPair):
    """The fiber equations of pair and the facets of their cone, or None when
    w_Z(B,C) is infinite: some polynomial of B has no monomial inside C, or
    some coordinate of C appears in none.  Built once per system and pair."""
    cones = _record(system).cones
    if pair not in cones:
        fiber = fiber_reduction(system, pair)
        finite = (len(set(fiber.budget_index)) == len(pair.B)
                  and all(any(g[i - 1] for _, g in fiber.gens) for i in pair.C))
        cones[pair] = (fiber, cone_facets(fiber)) if finite else None
    return cones[pair]


def pair_fiber(system: SupportSystem, pair: SubsetPair) -> FiberReduction:
    """The row-reduced fiber equations the scans of pair use, built once per
    system and pair; ValueError when w_Z(B,C) is infinite."""
    cone = _cone(system, pair)
    if cone is None:
        raise ValueError(f"infinite weight for pair {pair}")
    return cone[0]


def _top_degrees(graded, B: Sequence[int], mask: int) -> list[int] | None:
    """M_j for each j of B: the largest lambda-degree of a monomial of f_j
    supported inside the coordinates of mask, or None when some f_j has
    none there."""
    tops = []
    for j in B:
        inside = [d for m, d in graded[j - 1] if not m & ~mask]
        if not inside:
            return None
        tops.append(max(inside))
    return tops


def _floor(lam_C: int, tops: Sequence[int]) -> int | float:
    """|B| + ceil(max(0, lam_C - sum_j M_j) / max_j M_j) for tops = (M_j),
    or INFINITE_WEIGHT when every M_j is 0."""
    if max(tops) == 0:
        return INFINITE_WEIGHT
    return len(tops) - (-max(0, lam_C - sum(tops)) // max(tops))


def weight_floor(system: SupportSystem, pair: SubsetPair) -> int | float:
    """An integer lower bound on w_Z(B,C): the degree argument behind the
    Ax-Katz bound, pair by pair.

    Grade x_i by lambda_i (see _Record) and let M_j be the largest degree
    of a monomial of restrict_support(j, C).  A point (t, v) of Z_{B,C} has
    every v_i >= 1 on C, so lambda . v >= sum over C of lambda_i; and v is a
    combination of the restricted supports with sums t_j, so
    lambda . v <= sum_j t_j M_j <= sum_j M_j + (|t| - |B|) max_j M_j, since
    every t_j >= 1.  Hence |t| >= |B| + ceil((sum_C lambda_i - sum_j M_j) /
    max_j M_j).  INFINITE_WEIGHT when some restricted support is empty or
    every M_j is 0.
    """
    lam, graded = _record(system).grading
    tops = _top_degrees(graded, pair.B, sum(1 << (i - 1) for i in pair.C))
    if tops is None:
        return INFINITE_WEIGHT
    return _floor(sum(lam[i - 1] for i in pair.C), tops)


def _cheapest(lam: Sequence[int]) -> list[int]:
    """Entry k is the sum of the k smallest lambda_i, k = 0..n: the least
    sum_C lambda_i over the sets C of size k."""
    return list(itertools.accumulate(sorted(lam), initial=0))


def _feasible_targets(fiber: FiberReduction, facets: Sequence[tuple[int, ...]],
                      t: Sequence[int]) -> Iterator[ExponentVector]:
    """Integral v positive exactly on C with a nonempty real fiber at budget
    t, in lex order over the C coordinates.

    Depth-first over the per-axis box of the Minkowski sum of t_j-dilated
    restricted supports.  Membership is a . (t, v) >= 0 for every facet and
    for every check and its negative; a coordinate only takes the values for
    which every such form can still reach 0 over the box of the coordinates
    after it.  At a leaf that is the exact membership test, so the
    enumeration is complete.
    """
    nb = len(fiber.pair.B)
    groups = [[g for (_, g), bi in zip(fiber.gens, fiber.budget_index) if bi == idx]
              for idx in range(nb)]
    lo = [max(1, sum(tj * min(g[i - 1] for g in gs) for tj, gs in zip(t, groups)))
          for i in fiber.pair.C]
    hi = [sum(tj * max(g[i - 1] for g in gs) for tj, gs in zip(t, groups)) for i in fiber.pair.C]
    if any(a > b for a, b in zip(lo, hi)):
        return
    forms = list(facets) + list(fiber.checks) + [[-x for x in c] for c in fiber.checks]
    coefs = [a[nb:] for a in forms]
    start = [sum(x * tj for x, tj in zip(a, t)) for a in forms]
    # tops[f][idx]: the largest value of form f over the box of coordinates idx..
    tops = []
    for coef in coefs:
        top = [0]
        for c, low, high in zip(reversed(coef), reversed(lo), reversed(hi)):
            top.append(top[-1] + max(c * low, c * high))
        tops.append(top[::-1])
    if any(value + top[0] < 0 for value, top in zip(start, tops)):
        return
    n = fiber.n
    depth = len(fiber.pair.C)

    def walk(idx: int, values: list[int], acc: list[int]) -> Iterator[ExponentVector]:
        if idx == depth:
            v = [0] * n
            for i, x in zip(fiber.pair.C, acc):
                v[i - 1] = x
            yield tuple(v)
            return
        x_lo, x_hi = lo[idx], hi[idx]
        for value, coef, top in zip(values, coefs, tops):
            c = coef[idx]
            slack = value + top[idx + 1]
            if c > 0:
                x_lo = max(x_lo, -(slack // c))
            elif c < 0:
                x_hi = min(x_hi, slack // -c)
            elif slack < 0:
                return
        for x in range(x_lo, x_hi + 1):
            yield from walk(idx + 1, [value + coef[idx] * x for value, coef in zip(values, coefs)],
                            acc + [x])

    yield from walk(0, start, [])


def _layer(fiber: FiberReduction, facets: Sequence[tuple[int, ...]],
           total: int) -> Iterator[LatticePair]:
    """All (t, v) in Z_{B,C} with |t| = total, in (t, v) order; facets is
    cone_facets(fiber).  _compositions gives t in lex order, and
    _feasible_targets gives v in lex order over C with v zero off C, so the
    points come sorted as they are found."""
    for t in _compositions(total, len(fiber.pair.B)):
        for v in _feasible_targets(fiber, facets, t):
            yield LatticePair(fiber.pair, t, v)


def _layers(system: SupportSystem, pair: SubsetPair,
            top: int) -> Iterator[tuple[int, Iterator[LatticePair]]]:
    """(|t|, the layer of Z_{B,C} at |t|) for |t| from weight_floor, below
    which every layer is empty, up to top.  Nothing, and no cone built, when
    the floor passes top or w_Z(B,C) is infinite."""
    floor = weight_floor(system, pair)
    cone = _cone(system, pair) if floor <= top else None
    if cone is not None:
        for total in range(floor, top + 1):
            yield total, _layer(*cone, total)


def weight_wz(system: SupportSystem, pair: SubsetPair,
              cap: int | None = None) -> int | float:
    """The integral weight w_Z(B,C): the first |t| whose layer has a point,
    or INFINITE_WEIGHT when no (t, v) exists.

    When finite the weight is at most |B| + |C| (one covering generator per
    coordinate of C plus one filler per polynomial of B), so the default scan
    is exhaustive.  A smaller cap restricts the scan; the infinite return
    then only certifies w_Z > cap.
    """
    top = len(pair.B) + len(pair.C)
    if cap is not None:
        top = min(top, cap)
    return next((total for total, layer in _layers(system, pair, top)
                 if next(layer, None) is not None), INFINITE_WEIGHT)


def zmin_for_pair(system: SupportSystem, pair: SubsetPair) -> list[LatticePair]:
    """All (t, v) in Z_{B,C} attaining |t| = w_Z(B,C), in (t, v) order: the
    first nonempty layer."""
    for _, layer in _layers(system, pair, len(pair.B) + len(pair.C)):
        points = list(layer)
        if points:
            return points
    raise ValueError(f"infinite weight for pair {pair}")


def lattice_window(system: SupportSystem, pair: SubsetPair, L: int) -> list[LatticePair]:
    """All (t, v) in Z_{B,C} with |t| <= L, ordered by |t| then lex: every
    layer up to L."""
    return [lp for _, layer in _layers(system, pair, L) for lp in layer]


def weight_polytope(system: SupportSystem) -> int:
    """w(f) via minimal dilations: the least c with an all-positive integral
    point in c times the Newton polytope.

    Candidates are scanned in increasing budget total |t|; any all-positive
    integral point of the |t|-fold sum has dilation exactly |t|, so the first
    hit is the minimum.  When every variable is covered, one covering
    monomial per coordinate plus one filler per polynomial is a hit within
    n + r; coverage failure means the weight is infinite.  The hit is
    checked on an independent route: fiber_point must find a real point u
    of its fiber, and u must solve the equations of the supports themselves.
    """
    cone = _cone(system, SubsetPair(tuple(range(1, system.r + 1)), tuple(range(1, system.n + 1))))
    if cone is None:
        raise WeightUnreachableError("some variable appears in no monomial")
    gens = [(j, g) for j, gs in enumerate(system.supports, start=1) for g in gs]
    for total in range(system.r, system.n + system.r + 1):
        hit = next(_layer(*cone, total), None)
        if hit is None:
            continue
        t, v = hit.t, hit.v
        u = fiber_point(cone[0], t, v)
        budgets = [0] * system.r
        point = [0] * system.n
        for (j, g), x in zip(gens, u or ()):
            budgets[j - 1] += x
            point = [y + x * e for y, e in zip(point, g)]
        if (u is None or len(u) != len(gens) or any(x < 0 for x in u)
                or tuple(budgets) != t or tuple(point) != v):
            raise ConsistencyError(f"witness t={t}, v={v} has no point in its fiber: {u}")
        return total
    raise ConsistencyError("no positive integral point in any dilation up to n + r")


def minimal_data(system: SupportSystem) -> MinimalData:
    """mu and K over all subset pairs, computed once per system (Zmin on
    first use of the result's zmin).

    Equal systems share one result for as long as the first of them lives.
    The polytope-route value mu_hat = w(f) - r caps every per-pair weight
    scan: a pair can only reach n - |B| - |C| + w_Z = mu_hat when
    w_Z <= mu_hat + |B| + |C| - n.  Pairs are walked B, then C by size and
    lex, the order of enumerate_subset_pairs, so K comes out in that order.
    A whole size k of C is skipped when the weight floor made free of C (the
    k smallest lambda_i, and each M_j over the full support of f_j) already
    puts the term above mu_hat, and each scan starts at its pair's
    weight_floor and stops at the cap.  Both floors are proven lower bounds
    on w_Z, so a pruned pair has a term above mu_hat and no pair that could
    undercut mu_hat is ever skipped: the scans still certify the minimum,
    and any disagreement with mu_hat is an error.  weight_polytope uses no
    floor, so the two routes stay independent.
    """
    record = _record(system)
    if record.data is not None:
        return record.data
    mu_hat = weight_polytope(system) - system.r
    n, r = system.n, system.r
    lam, graded = record.grading
    cheapest = _cheapest(lam)
    weights: dict[SubsetPair, int] = {}
    best: int | None = None
    for nb in range(1, r + 1):
        for B in itertools.combinations(range(1, r + 1), nb):
            full = _top_degrees(graded, B, (1 << n) - 1)
            for k in range(1, n + 1):
                if n - nb - k + _floor(cheapest[k], full) > mu_hat:
                    continue
                for C in itertools.combinations(range(1, n + 1), k):
                    pair = SubsetPair(B, C)
                    w = weight_wz(system, pair, cap=mu_hat + nb + k - n)
                    if w == INFINITE_WEIGHT:
                        continue
                    weights[pair] = int(w)
                    term = n - nb - k + int(w)
                    best = term if best is None else min(best, term)
    if best is None or best != mu_hat:
        raise ConsistencyError(
            f"combinatorial minimum {best} does not match polytope value {mu_hat}")
    K = tuple((pair, w) for pair, w in weights.items()
              if n - len(pair.B) - len(pair.C) + w == mu_hat)
    record.data = MinimalData(mu_hat, K, SupportSystem(n, system.supports))
    return record.data


@dataclass(frozen=True)
class ClosureVerdict:
    ok: bool
    witness: LatticePair | None
    checked: int


def psi_closure_check(system: SupportSystem, pair: SubsetPair, p: int, L: int) -> ClosureVerdict:
    """Verify the window is closed under division by p.

    For every enumerated (t, v) with |t| <= L whose entries are all divisible
    by p, the pair (t/p, v/p) must be present as well.
    """
    members = {(lp.t, lp.v) for lp in lattice_window(system, pair, L)}
    checked = 0
    for t, v in sorted(members):
        if all(x % p == 0 for x in t) and all(x % p == 0 for x in v):
            checked += 1
            smaller = (tuple(x // p for x in t), tuple(x // p for x in v))
            if smaller not in members:
                return ClosureVerdict(False, LatticePair(pair, t, v), checked)
    return ClosureVerdict(True, None, checked)
