"""Integral weights, lattice windows, and the minimizing data (mu, K, Zmin).

w_Z(B,C) is the least total budget |t| for which some integral point v,
positive exactly on C, is a nonnegative rational combination of the restricted
supports with per-polynomial sums t_j.  The combinatorial value
min over pairs of n - |B| - |C| + w_Z(B,C) must agree with the polytope route
w(f) - r; both are computed here and a disagreement raises ConsistencyError.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .geometry import (
    FiberReduction,
    Point,
    enumerate_vertices,
    fiber_reduction,
    lp_feasible,
    minimal_dilation,
    rational_lp,
)
from .model import (
    ExponentVector,
    SubsetPair,
    SupportSystem,
    enumerate_subset_pairs,
    restrict_support,
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
    """mu and the minimizing pair set K with weights; Zmin per pair, the
    row-reduced fiber equations of every pair of K and the vertices of every
    minimal level-1 fiber are built on first use.  Read-only, since one
    instance is shared by every caller that analyses the same system."""

    mu: int
    K: tuple[tuple[SubsetPair, int], ...]
    # an equal copy of the analysed system: the cache holds its key weakly,
    # so its value must not refer to the key itself
    system: SupportSystem = field(repr=False, compare=False)

    @cached_property
    def zmin(self) -> Mapping[SubsetPair, tuple[LatticePair, ...]]:
        """The minimal lattice pairs of every pair of K: its layer at the
        weight K holds."""
        return MappingProxyType({
            pair: tuple(_layer(self.system, pair, _restricted(self.system, pair), w))
            for pair, w in self.K})

    @cached_property
    def reductions(self) -> Mapping[SubsetPair, FiberReduction]:
        """The row-reduced fiber equations of every pair of K."""
        return MappingProxyType({pair: fiber_reduction(self.system, pair) for pair, _ in self.K})

    @cached_property
    def vertices(self) -> Mapping[LatticePair, tuple[tuple[Point, ...], int]]:
        """Vertices and affine dimension of every minimal level-1 fiber,
        enumerated on first use."""
        out = {}
        for pair, lps in self.zmin.items():
            for lp in lps:
                vertices, dim = enumerate_vertices(self.reductions[pair], lp.t, lp.v)
                out[lp] = (tuple(vertices), dim)
        return MappingProxyType(out)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Integer tuples of the given length, entries >= 1, summing to total."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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


def _prefix_lp(pair: SubsetPair, rest, t: Sequence[int], fixed: Sequence[int]):
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


def _feasible_targets(system: SupportSystem, pair: SubsetPair, rest,
                      t: Sequence[int]) -> Iterator[ExponentVector]:
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

    def walk(idx: int, acc: list[int]) -> Iterator[ExponentVector]:
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


def weight_wz(system: SupportSystem, pair: SubsetPair,
              cap: int | None = None) -> int | float:
    """The integral weight w_Z(B,C), or INFINITE_WEIGHT when no (t, v) exists.

    When finite the weight is at most |B| + |C| (one covering generator per
    coordinate of C plus one filler per polynomial of B), so the default scan
    is exhaustive.  A smaller cap restricts the scan; the infinite return then
    only certifies w_Z > cap.
    """
    rest = _restricted(system, pair)
    if rest is None:
        return INFINITE_WEIGHT
    bound = len(pair.B) + len(pair.C)
    if cap is not None:
        bound = min(bound, cap)
    for total in range(len(pair.B), bound + 1):
        for t in _compositions(total, len(pair.B)):
            if next(_feasible_targets(system, pair, rest, t), None) is not None:
                return total
    return INFINITE_WEIGHT


def _layer(system: SupportSystem, pair: SubsetPair, rest, total: int) -> list[LatticePair]:
    """All (t, v) in Z_{B,C} with |t| = total, in (t, v) order; rest is
    _restricted(system, pair)."""
    out = [LatticePair(pair, t, v) for t in _compositions(total, len(pair.B))
           for v in _feasible_targets(system, pair, rest, t)]
    out.sort(key=lambda lp: (lp.t, lp.v))
    return out


def zmin_for_pair(system: SupportSystem, pair: SubsetPair) -> list[LatticePair]:
    """All (t, v) in Z_{B,C} attaining |t| = w_Z(B,C), in (t, v) order: the
    first nonempty layer of the scan that weight_wz bounds."""
    rest = _restricted(system, pair)
    if rest is not None:
        for total in range(len(pair.B), len(pair.B) + len(pair.C) + 1):
            layer = _layer(system, pair, rest, total)
            if layer:
                return layer
    raise ValueError(f"infinite weight for pair {pair}")


def lattice_window(system: SupportSystem, pair: SubsetPair, L: int) -> list[LatticePair]:
    """All (t, v) in Z_{B,C} with |t| <= L, ordered by |t| then lex."""
    rest = _restricted(system, pair)
    if rest is None:
        return []
    return [lp for total in range(len(pair.B), L + 1) for lp in _layer(system, pair, rest, total)]


def delta_vertices(system: SupportSystem) -> list[tuple[Fraction, ...]]:
    """Vertex generators (g, e_j) of the Newton polytope in R^{n+r}, plus the origin."""
    points = []
    for j, gs in enumerate(system.supports, start=1):
        for g in gs:
            tail = tuple(Fraction(1 if jj == j else 0) for jj in range(1, system.r + 1))
            points.append(tuple(Fraction(e) for e in g) + tail)
    points.append(tuple(Fraction(0) for _ in range(system.n + system.r)))
    return points


def weight_polytope(system: SupportSystem) -> int:
    """w(f) via minimal dilations: the least c with an all-positive integral
    point in c times the Newton polytope.

    Candidates are scanned in increasing budget total |t|; any all-positive
    integral point of the |t|-fold sum has dilation exactly |t|, so the first
    hit is the minimum.  Budgets beyond n + r are never needed when every
    variable is covered, and coverage failure means the weight is infinite.
    """
    if system.covered_variables() != frozenset(range(1, system.n + 1)):
        raise WeightUnreachableError("some variable appears in no monomial")
    full = SubsetPair(tuple(range(1, system.r + 1)), tuple(range(1, system.n + 1)))
    rest = _restricted(system, full)
    vertices = delta_vertices(system)
    for total in range(system.r, system.n + system.r + 1):
        for t in _compositions(total, system.r):
            v = next(_feasible_targets(system, full, rest, t), None)
            if v is None:
                continue
            # independent route: the dilation of the witness must equal |t|
            y = tuple(Fraction(x) for x in v + t)
            c = minimal_dilation(vertices, y)
            if c != total:
                raise ConsistencyError(
                    f"dilation {c} of witness {y} differs from budget total {total}")
            return total
    raise WeightUnreachableError("no positive integral point in any dilation")


# one analysis per live system; an entry goes when its system is collected
_ANALYSES: weakref.WeakKeyDictionary[SupportSystem, MinimalData] = weakref.WeakKeyDictionary()


def minimal_data(system: SupportSystem) -> MinimalData:
    """mu and K over all subset pairs, computed once per system (Zmin on
    first use of the result's zmin).

    Equal systems share one result for as long as the first of them lives.
    The polytope-route value mu_hat = w(f) - r caps every per-pair weight
    scan: a pair can only reach n - |B| - |C| + w_Z = mu_hat when
    w_Z <= mu_hat + |B| + |C| - n, and since w_Z >= |B| the term never drops
    below n - |C|.  The capped scan still certifies the minimum, so any
    disagreement with mu_hat is an error.
    """
    cached = _ANALYSES.get(system)
    if cached is not None:
        return cached
    mu_hat = weight_polytope(system) - system.r
    n, r = system.n, system.r
    weights: dict[SubsetPair, int] = {}
    best: int | None = None
    for pair in enumerate_subset_pairs(n, r):
        if n - len(pair.C) > mu_hat:
            continue
        cap = mu_hat + len(pair.B) + len(pair.C) - n
        if cap < len(pair.B):
            continue
        w = weight_wz(system, pair, cap=cap)
        if w == INFINITE_WEIGHT:
            continue
        weights[pair] = int(w)
        term = n - len(pair.B) - len(pair.C) + int(w)
        best = term if best is None else min(best, term)
    if best is None or best != mu_hat:
        raise ConsistencyError(
            f"combinatorial minimum {best} does not match polytope value {mu_hat}")
    K = tuple((pair, w) for pair, w in weights.items()
              if n - len(pair.B) - len(pair.C) + w == mu_hat)
    data = _ANALYSES[system] = MinimalData(mu_hat, K, SupportSystem(n, system.supports))
    return data


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
