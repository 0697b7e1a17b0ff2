"""Artin-Hasse coefficients, the coefficient polynomials G, and Hasse polynomials.

H_p^{[a]}(A) is a polynomial over F_p in one variable A_{j,g} per monomial of
the system.  Its blocks are traces of matrices indexed by the minimal lattice
pairs, with entries G built from integral fiber points weighted by Artin-Hasse
series coefficients.  Everything is exact: rational series first, one
reduction mod p at the end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .geometry import enumerate_integral_points, fiber_polytope
from .lattice import LatticePair, minimal_data
from .model import CoefficientKey, SubsetPair, SupportSystem, restrict_support


def artin_hasse_coefficients(p: int, D: int) -> tuple[Fraction, ...]:
    """Coefficients delta_0..delta_D of exp(sum over i of x^(p^i)/p^i).

    Uses the standard recurrence for exp of a sparse series: with
    s = sum x^(p^i)/p^i, each term i*s_i equals 1, so
    k*e_k = sum over powers p^i <= k of e_(k - p^i).
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    powers = []
    q = 1
    while q <= D:
        powers.append(q)
        q *= p
    out = [Fraction(1)]
    for k in range(1, D + 1):
        acc = sum((out[k - q] for q in powers if q <= k), Fraction(0))
        out.append(acc / k)
    return tuple(out)


def _delta_residues(deltas: Sequence[Fraction], p: int) -> list[int]:
    out = []
    for d in deltas:
        if d.denominator % p == 0:
            raise ArithmeticError("Artin-Hasse coefficient with negative p-adic valuation")
        out.append(d.numerator * pow(d.denominator, -1, p) % p)
    return out


@dataclass(frozen=True)
class SparsePolynomialModP:
    """Multivariate polynomial over F_p, one variable per coefficient key.

    terms maps full exponent tuples (aligned with variables) to nonzero
    residues; the zero polynomial has no terms.
    """

    p: int
    variables: tuple[CoefficientKey, ...]
    terms: Mapping[tuple[int, ...], int] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def _like(self, terms: dict) -> "SparsePolynomialModP":
        clean = {e: c % self.p for e, c in terms.items() if c % self.p}
        return SparsePolynomialModP(self.p, self.variables, clean)

    def __add__(self, other: "SparsePolynomialModP") -> "SparsePolynomialModP":
        if (self.p, self.variables) != (other.p, other.variables):
            raise ValueError("polynomial ring mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return self._like(terms)

    def __mul__(self, other: "SparsePolynomialModP") -> "SparsePolynomialModP":
        if (self.p, self.variables) != (other.p, other.variables):
            raise ValueError("polynomial ring mismatch")
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return self._like(terms)

    def scale(self, c: int) -> "SparsePolynomialModP":
        return self._like({e: c * v for e, v in self.terms.items()})

    def frobenius_twist(self, k: int) -> "SparsePolynomialModP":
        """Substitute A -> A^k in every variable."""
        return self._like({tuple(k * x for x in e): c for e, c in self.terms.items()})

    def monomials(self) -> set[tuple[int, ...]]:
        return set(self.terms)

    def total_degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def max_variable_degree(self) -> int:
        return max((max(e) for e in self.terms), default=0)

    def evaluate(self, assignment: Mapping[CoefficientKey, int | Fraction]) -> int:
        """Value at nonzero residues; raises on missing or p-divisible entries."""
        residues = []
        for key in self.variables:
            if key not in assignment:
                if any(e[self.variables.index(key)] for e in self.terms):
                    raise ValueError(f"unassigned variable {key}")
                residues.append(0)
                continue
            val = Fraction(assignment[key])
            if val.denominator % self.p == 0:
                raise ValueError(f"coefficient at {key} has denominator divisible by p")
            res = val.numerator * pow(val.denominator, -1, self.p) % self.p
            if res == 0:
                raise ValueError(f"coefficient at {key} reduces to zero mod p")
            residues.append(res)
        total = 0
        for e, c in self.terms.items():
            term = c
            for res, exp in zip(residues, e):
                if exp:
                    term = term * pow(res, exp, self.p) % self.p
            total = (total + term) % self.p
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms):
            factors = [str(self.terms[e])]
            for key, exp in zip(self.variables, e):
                if exp:
                    j, g = key
                    gtxt = ",".join(str(x) for x in g)
                    factors.append(f"A[{j},({gtxt})]^{exp}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)


def zero_polynomial(system: SupportSystem, p: int) -> SparsePolynomialModP:
    return SparsePolynomialModP(p, system.coefficient_keys(), {})


def _g_general(system: SupportSystem, pair: SubsetPair, budgets: Sequence[int],
               target: Sequence[int], p: int,
               delta_res: Sequence[int]) -> SparsePolynomialModP:
    """G at arbitrary integer budgets and target; zero when the fiber is empty."""
    variables = system.coefficient_keys()
    if any(b < 0 for b in budgets) or any(x < 0 for x in target):
        return SparsePolynomialModP(p, variables, {})
    fiber = fiber_polytope(system, pair, budgets, target)
    index = {key: i for i, key in enumerate(variables)}
    terms: dict[tuple[int, ...], int] = {}
    for u in enumerate_integral_points(fiber):
        coef = 1
        for x in u:
            coef = coef * delta_res[x] % p
        if coef == 0:
            continue
        e = [0] * len(variables)
        for key, x in zip(fiber.gens, u):
            e[index[key]] = x
        e = tuple(e)
        terms[e] = (terms.get(e, 0) + coef) % p
    return SparsePolynomialModP(p, variables, {e: c for e, c in terms.items() if c})


def _g_value(system: SupportSystem, pair: SubsetPair, budgets: Sequence[int],
             target: Sequence[int], p: int, delta_res: Sequence[int],
             residues: Mapping[CoefficientKey, int]) -> int:
    """Value of _g_general at unit residues, without building the polynomial.

    Dynamic programming over the fiber generators: a state is the pair of
    remaining per-polynomial budgets and remaining target coordinates, so
    points sharing a partial sum are folded together instead of enumerated.
    """
    if any(b < 0 for b in budgets) or any(x < 0 for x in target):
        return 0
    gens = tuple((j, g) for j in pair.B for g in restrict_support(system, j, pair.C))
    cidx = tuple(i - 1 for i in pair.C)
    start = (tuple(budgets), tuple(target[i] for i in cidx))
    if not gens:
        return 1 if not any(start[0]) and not any(start[1]) else 0
    jpos = {j: k for k, j in enumerate(pair.B)}
    last = {j: max(k for k, (gj, _) in enumerate(gens) if gj == j) for j in pair.B}
    dp = {start: 1}
    for idx, (j, g) in enumerate(gens):
        k = jpos[j]
        gc = tuple(g[i] for i in cidx)
        res = residues[(j, g)]
        closing = idx == last[j]
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (tb, tv), coef in dp.items():
            cap = tb[k]
            for gi, vi in zip(gc, tv):
                if gi:
                    cap = min(cap, vi // gi)
            lo = tb[k] if closing else 0
            if lo > cap:
                continue
            power = pow(res, lo, p) if lo else 1
            for u in range(lo, cap + 1):
                c = coef * delta_res[u] % p * power % p
                if c:
                    key = (tb[:k] + (tb[k] - u,) + tb[k + 1:],
                           tuple(vi - u * gi for vi, gi in zip(tv, gc)))
                    new[key] = (new.get(key, 0) + c) % p
                power = power * res % p
        dp = new
    zero = (tuple(0 for _ in pair.B), tuple(0 for _ in cidx))
    return dp.get(zero, 0)


def g_polynomial(system: SupportSystem, lp: LatticePair, scale: int,
                 p: int) -> SparsePolynomialModP:
    """G at the scaled pair (scale*t, scale*v), the building block of the traces."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    budgets = tuple(scale * x for x in lp.t)
    target = tuple(scale * x for x in lp.v)
    deltas = artin_hasse_coefficients(p, max(budgets))
    return _g_general(system, lp.pair, budgets, target, p, _delta_residues(deltas, p))


def hasse_blocks(system: SupportSystem, p: int, a: int = 1
                 ) -> dict[SubsetPair, SparsePolynomialModP]:
    """Signed per-pair trace blocks of H_p^[a], keyed by the pairs of K."""
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if a == 2 and p > 13:
        raise ValueError("a=2 is limited to p <= 13 (degree growth)")
    data = minimal_data(system)
    max_budget = max((p * lp.total for pairs in data.zmin.values() for lp in pairs),
                     default=0)
    delta_res = _delta_residues(artin_hasse_coefficients(p, max_budget), p)
    blocks: dict[SubsetPair, SparsePolynomialModP] = {}
    for pair, w in data.K:
        zmin = data.zmin[pair]
        block = zero_polynomial(system, p)
        if a == 1:
            for lp in zmin:
                budgets = tuple((p - 1) * x for x in lp.t)
                target = tuple((p - 1) * x for x in lp.v)
                block = block + _g_general(system, pair, budgets, target, p, delta_res)
        else:
            for x in zmin:
                for y in zmin:
                    gxy = _g_general(system, pair,
                                     tuple(p * ty - tx for tx, ty in zip(x.t, y.t)),
                                     tuple(p * vy - vx for vx, vy in zip(x.v, y.v)),
                                     p, delta_res)
                    gyx = _g_general(system, pair,
                                     tuple(p * tx - ty for tx, ty in zip(x.t, y.t)),
                                     tuple(p * vx - vy for vx, vy in zip(x.v, y.v)),
                                     p, delta_res)
                    block = block + gxy.frobenius_twist(p) * gyx
        sign = (-1) ** (len(pair.B) + len(pair.C) + a * w)
        blocks[pair] = block.scale(sign)
    return blocks


def _sum_blocks(system: SupportSystem, p: int,
                blocks: Mapping[SubsetPair, SparsePolynomialModP]) -> SparsePolynomialModP:
    """H as the sum of its blocks; warns when distinct blocks share a monomial."""
    total = zero_polynomial(system, p)
    seen: set[tuple[int, ...]] = set()
    for pair, block in blocks.items():
        overlap = seen & block.monomials()
        if overlap:
            warnings.warn(f"blocks share monomials at {pair.B}/{pair.C}", stacklevel=3)
        seen |= block.monomials()
        total = total + block
    return total


def hasse_polynomial(system: SupportSystem, p: int, a: int = 1) -> SparsePolynomialModP:
    """H_p^[a](A) over F_p; warns when distinct blocks share a monomial."""
    return _sum_blocks(system, p, hasse_blocks(system, p, a))


def hasse_value(system: SupportSystem, p: int,
                coeffs: Mapping[CoefficientKey, int | Fraction], a: int = 1) -> int:
    """H_p^[a] evaluated at a full unit-residue assignment.

    Agrees with hasse_polynomial(...).evaluate(coeffs) but skips the
    symbolic polynomial, whose term count grows quickly with p; the per-pair
    block values come from the partial-sum form of G instead.
    """
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    if a == 2 and p > 13:
        raise ValueError("a=2 is limited to p <= 13 (degree growth)")
    data = minimal_data(system)
    residues: dict[CoefficientKey, int] = {}
    for key in system.coefficient_keys():
        if key not in coeffs:
            raise ValueError(f"unassigned variable {key}")
        val = Fraction(coeffs[key])
        if val.denominator % p == 0:
            raise ValueError(f"coefficient at {key} has denominator divisible by p")
        res = val.numerator * pow(val.denominator, -1, p) % p
        if res == 0:
            raise ValueError(f"coefficient at {key} reduces to zero mod p")
        residues[key] = res
    max_budget = max((p * lp.total for pairs in data.zmin.values() for lp in pairs),
                     default=0)
    delta_res = _delta_residues(artin_hasse_coefficients(p, max_budget), p)
    total = 0
    for pair, w in data.K:
        zmin = data.zmin[pair]
        block = 0
        if a == 1:
            for lp in zmin:
                budgets = tuple((p - 1) * x for x in lp.t)
                target = tuple((p - 1) * x for x in lp.v)
                block += _g_value(system, pair, budgets, target, p, delta_res,
                                  residues)
        else:
            for x in zmin:
                for y in zmin:
                    # the Frobenius twist raises exponents to the p-th power,
                    # which is the identity on residues mod p
                    gxy = _g_value(system, pair,
                                   tuple(p * ty - tx for tx, ty in zip(x.t, y.t)),
                                   tuple(p * vy - vx for vx, vy in zip(x.v, y.v)),
                                   p, delta_res, residues)
                    gyx = _g_value(system, pair,
                                   tuple(p * tx - ty for tx, ty in zip(x.t, y.t)),
                                   tuple(p * vx - vy for vx, vy in zip(x.v, y.v)),
                                   p, delta_res, residues)
                    block += gxy * gyx
        sign = (-1) ** (len(pair.B) + len(pair.C) + a * w)
        total = (total + sign * block) % p
    return total


@dataclass(frozen=True)
class HomogeneityReport:
    ok: bool
    block_degrees: Mapping[SubsetPair, int]
    issues: tuple[str, ...]


def homogeneity_report(H: SparsePolynomialModP, system: SupportSystem, p: int,
                       a: int = 1) -> HomogeneityReport:
    """Structural checks: each block homogeneous of degree (p^a - 1) * w_Z with
    per-variable degree below p^a, blocks disjoint and summing to H, H nonzero."""
    return _block_report(H, system, p, a, hasse_blocks(system, p, a))


def checked_hasse_polynomial(system: SupportSystem, p: int, a: int = 1
                             ) -> tuple[SparsePolynomialModP, HomogeneityReport]:
    """hasse_polynomial and its homogeneity_report from one set of blocks."""
    blocks = hasse_blocks(system, p, a)
    H = _sum_blocks(system, p, blocks)
    return H, _block_report(H, system, p, a, blocks)


def _block_report(H: SparsePolynomialModP, system: SupportSystem, p: int, a: int,
                  blocks: Mapping[SubsetPair, SparsePolynomialModP]) -> HomogeneityReport:
    issues: list[str] = []
    degrees: dict[SubsetPair, int] = {}
    weights = dict(minimal_data(system).K)
    total = zero_polynomial(system, p)
    seen: set[tuple[int, ...]] = set()
    for pair, block in blocks.items():
        expected = (p ** a - 1) * weights[pair]
        degs = block.total_degrees()
        degrees[pair] = expected
        if block.is_zero():
            issues.append(f"block {pair.B}/{pair.C} vanished mod {p}")
            continue
        if degs != {expected}:
            issues.append(f"block {pair.B}/{pair.C} not homogeneous of degree {expected}")
        if block.max_variable_degree() > p ** a - 1:
            issues.append(f"block {pair.B}/{pair.C} exceeds per-variable degree {p ** a - 1}")
        if seen & block.monomials():
            issues.append(f"block {pair.B}/{pair.C} shares monomials with another block")
        seen |= block.monomials()
        total = total + block
    if total.terms != H.terms:
        issues.append("blocks do not sum to the supplied polynomial")
    if H.is_zero():
        issues.append("polynomial is identically zero mod p")
    return HomogeneityReport(not issues, degrees, tuple(issues))
