"""The classical divisibility bounds and the two routes to mu.

ax_katz_bound and moreno_moreno_bound are closed formulas in the degrees and
p-adic digit sums.  mu comes from two independent computations, the minimal
dilation of the Newton polytope and the combinatorial minimum over subset
pairs; minimal_data cross-checks them once per system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import minimal_data
from .model import ExponentVector, SupportSystem


@dataclass(frozen=True)
class BoundReport:
    """The three bounds plus both mu routes for one system."""

    ax_katz: int
    ax_katz_vacuous: bool
    moreno_moreno: Fraction
    w_polytope: int
    mu_polytope: int
    mu_combinatorial: int


def ax_katz_bound(n: int, degrees: Sequence[int]) -> int:
    """ceil((n - sum of degrees) / max degree); may be negative (vacuous)."""
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("degrees must be a nonempty sequence of positive integers")
    return math.ceil(Fraction(n - sum(degrees), max(degrees)))


def digit_sum(g: ExponentVector | int, p: int) -> int:
    """Sum of base-p digits, summed over the entries for a vector."""
    if isinstance(g, int):
        total, x = 0, g
        while x:
            total += x % p
            x //= p
        return total
    return sum(digit_sum(int(e), p) for e in g)


def moreno_moreno_bound(system: SupportSystem, p: int, a: int = 1) -> Fraction:
    """(1/a) * ceil(a * (n - sum sigma_p(f_j)) / max sigma_p(f_j))."""
    if a < 1:
        raise ValueError("a must be >= 1")
    sigmas = [max(digit_sum(g, p) for g in gs) for gs in system.supports]
    if any(s < 1 for s in sigmas):
        raise ValueError("every polynomial needs a nonconstant monomial")
    top = a * (system.n - sum(sigmas))
    return Fraction(math.ceil(Fraction(top, max(sigmas))), a)


def mu(system: SupportSystem) -> int:
    """w(f) - r, cross-checked against the combinatorial minimum.

    ConsistencyError from the lattice layer means the two routes disagree,
    which would be an implementation bug rather than unusual input.
    """
    return minimal_data(system).mu


def bound_report(system: SupportSystem, p: int = 2, a: int = 1) -> BoundReport:
    """The bounds of one system; both mu fields hold minimal_data's mu, which
    exists only when the polytope and combinatorial routes agree."""
    ak = ax_katz_bound(system.n, system.degrees())
    mm = moreno_moreno_bound(system, p, a)
    data = minimal_data(system)
    return BoundReport(
        ax_katz=ak,
        ax_katz_vacuous=ak < 0,
        moreno_moreno=mm,
        w_polytope=data.mu + system.r,
        mu_polytope=data.mu,
        mu_combinatorial=data.mu,
    )
