"""Rational representations, denominators, multiplicities, and the conditional number.

A rational representation of (t, v) writes v = (1/d) * sum r_g * g with
nonnegative integers r_g, per-polynomial sums matching t, and d jointly
coprime to the r_g.  Representations are read off the vertices of the level-1
fiber; D collects the occurring denominators, and when D = {1} the signed
count of integral fiber points over K is the conditional number c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import fiber_sum
from .lattice import LatticePair, MinimalData, minimal_data, pair_fiber
from .model import CoefficientKey, SupportSystem


@dataclass(frozen=True)
class RationalRepresentation:
    """v = (1/d) * sum r_g * g over the restricted generators of the pair."""

    d: int
    gens: tuple[CoefficientKey, ...]
    r_coeffs: tuple[int, ...]


@dataclass(frozen=True)
class ConditionalReport:
    D_set: frozenset[int]
    c_value: int | None  # None means undefined (D != {1})
    multiplicities: Mapping[LatticePair, int]
    sparsity: bool
    warnings: tuple[str, ...]


def rational_representations(system: SupportSystem, lp: LatticePair
                             ) -> list[RationalRepresentation]:
    """Vertex-derived representations of a minimal lattice pair of Zmin.

    Each fiber vertex u, written jointly in lowest terms as r/d, gives one
    representation.  A positive-dimensional fiber has further non-vertex
    representations; callers that care receive a warning via the conditional
    report.
    """
    vertices, dim = minimal_data(system).vertices[lp]
    if dim < 0:
        raise RuntimeError(f"infeasible fiber for {lp}, violating its invariant")
    gens = pair_fiber(system, lp.pair).gens
    out = []
    for u in vertices:
        d = math.lcm(*(x.denominator for x in u)) if u else 1
        r = tuple(int(x * d) for x in u)
        out.append(RationalRepresentation(d, gens, r))
    return out


def denominator_set(system: SupportSystem, data: MinimalData) -> frozenset[int]:
    """Denominators of all vertex representations over Zmin, together with 1;
    data is minimal_data(system).

    1 is always adjoined: it never changes the admissibility modulus
    lcm(D) when other denominators are present, and it keeps the set
    meaningful for systems whose minimal fibers are all fractional.
    """
    out = {1}
    for pairs in data.zmin.values():
        for lp in pairs:
            for rep in rational_representations(system, lp):
                out.add(rep.d)
    return frozenset(out)


def check_sparsity_criterion(system: SupportSystem) -> bool:
    """True when every minimal level-1 fiber is a single integral point.

    This is the checkable sufficient condition for D = {1}: a zero-dimensional
    fiber with an integral vertex admits no fractional representation at all.
    """
    for vertices, dim in minimal_data(system).vertices.values():
        if dim != 0:
            return False
        if any(x.denominator != 1 for x in vertices[0]):
            return False
    return True


def conditional_number(system: SupportSystem) -> ConditionalReport:
    """D, multiplicities, sparsity verdict, and c = sum over K of
    (-1)^{w_Z} * sum of multiplicities, defined only when D = {1}."""
    data = minimal_data(system)
    D = denominator_set(system, data)
    warnings: list[str] = []
    multiplicities: dict[LatticePair, int] = {}
    for lp, (_, dim) in data.vertices.items():
        if dim > 0:
            warnings.append(
                f"fiber of (t={lp.t}, v={lp.v}) at {lp.pair.B}/{lp.pair.C} has dimension "
                f"{dim}; vertex denominators understate the representation set")
        # the number of integral fiber points: G with every weight 1
        fiber = pair_fiber(system, lp.pair)
        ones = [[1] * (max(lp.t) + 1)] * len(fiber.gens)
        multiplicities[lp] = fiber_sum(fiber, lp.t, lp.v, ones, 0, 1)
    c: int | None = None
    if D == {1}:
        c = 0
        for pair, w in data.K:
            c += (-1) ** w * sum(multiplicities[lp] for lp in data.zmin[pair])
    sparsity = check_sparsity_criterion(system)
    return ConditionalReport(D, c, multiplicities, sparsity, tuple(warnings))


def primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1) if limit >= 0 else bytearray()
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, limit + 1, p):
                sieve[m] = 0
    return out


def default_theta(system: SupportSystem) -> int:
    """Heuristic size threshold: twice the largest coordinate times r.

    Large enough that distinct points of the enumerated windows stay distinct
    mod p for every admitted prime; overridable wherever it is consumed.
    """
    return 2 * system.r * system.max_coordinate()


def admissible_primes(D_set: frozenset[int] | set[int], theta: int, limit: int) -> list[int]:
    """Primes p <= limit with p > theta and p = 1 mod lcm(D)."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    modulus = math.lcm(*D_set) if D_set else 1
    return [p for p in primes_upto(limit) if p > theta and p % modulus == 1 % modulus]
