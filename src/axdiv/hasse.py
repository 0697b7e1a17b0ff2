"""Artin-Hasse coefficients, the coefficient polynomials G, and Hasse polynomials.

H_p^{[a]}(A) is a polynomial over F_p in one variable A_{j,g} per monomial of
the system.  Its blocks are traces of matrices indexed by the minimal lattice
pairs, with entries G built from integral fiber points weighted by Artin-Hasse
series coefficients.  Everything is exact: rational series first, one
reduction mod p at the end.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .geometry import FiberReduction, fiber_sum
from .lattice import LatticePair, minimal_data, pair_fiber
from .model import CoefficientKey, SubsetPair, SupportSystem, coefficient_residue


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


def artin_hasse_residues(p: int, D: int, modulus: int) -> list[int]:
    """delta_0..delta_D reduced mod modulus, a power of p; the series is
    p-integral, so no coefficient has a denominator divisible by p."""
    out = []
    for d in artin_hasse_coefficients(p, D):
        if d.denominator % p == 0:
            raise ArithmeticError("Artin-Hasse coefficient with negative p-adic valuation")
        out.append(d.numerator * pow(d.denominator, -1, modulus) % modulus)
    return out


def artin_hasse_weights(deltas: Sequence[int], c: int, modulus: int) -> list[int]:
    """The weight table of one generator with coefficient c:
    deltas[x] * c^x mod modulus for every x."""
    out = []
    power = 1
    for d in deltas:
        out.append(d * power % modulus)
        power = power * c % modulus
    return out


def _unit_residues(p: int, keys: Sequence[CoefficientKey],
                   assignment: Mapping[CoefficientKey, int | Fraction],
                   optional: frozenset | set = frozenset()) -> list[int]:
    """Residues mod p of the assignment at keys, each a unit; a key in
    optional may be unassigned and then reads 0."""
    out = []
    for key in keys:
        if key not in assignment:
            if key not in optional:
                raise ValueError(f"unassigned variable {key}")
            out.append(0)
            continue
        val = Fraction(assignment[key])
        if val.denominator % p == 0:
            raise ValueError(f"coefficient at {key} has denominator divisible by p")
        res = coefficient_residue(val, p)
        if res == 0:
            raise ValueError(f"coefficient at {key} reduces to zero mod p")
        out.append(res)
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
        used = {i for e in self.terms for i, x in enumerate(e) if x}
        unused = {key for i, key in enumerate(self.variables) if i not in used}
        residues = _unit_residues(self.p, self.variables, assignment, unused)
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


def _max_budget(system: SupportSystem, p: int) -> int:
    """Largest per-polynomial budget of any G in the blocks of H_p^[a]."""
    data = minimal_data(system)
    return max((p * lp.total for pairs in data.zmin.values() for lp in pairs), default=0)


def _monomial_tables(system: SupportSystem, p: int, deltas: Sequence[int]
                     ) -> dict[CoefficientKey, list[SparsePolynomialModP]]:
    """Per coefficient key, the terms delta_x * A^x for x = 0..len(deltas)-1."""
    variables = system.coefficient_keys()
    tables = {}
    for idx, key in enumerate(variables):
        column = []
        for x, d in enumerate(deltas):
            e = [0] * len(variables)
            e[idx] = x
            column.append(SparsePolynomialModP(p, variables, {tuple(e): d} if d else {}))
        tables[key] = column
    return tables


def _entry(fiber: FiberReduction, p: int, x: LatticePair, y: LatticePair,
           weights: Sequence[Sequence], zero, one):
    """The matrix entry G at budgets p*t_y - t_x and target p*v_y - v_x."""
    return fiber_sum(fiber, [p * ty - tx for tx, ty in zip(x.t, y.t)],
                     [p * vy - vx for vx, vy in zip(x.v, y.v)], weights, zero, one)


def _trace_power(fiber: FiberReduction, basis: Sequence[LatticePair], p: int, a: int,
                 weights: Sequence[Sequence], zero, one, twist):
    """Tr(M^(sigma^(a-1)) ... M^sigma M) for the matrix M of _entry values
    over basis, as the sum over closed walks x_0 -> ... -> x_(a-1) -> x_0 of
    the products of sigma^(a-1-k) M(x_k, x_(k+1)); twist(g, k) applies
    sigma^k.  An entry is computed on first use, at most once."""
    entries: dict[tuple[int, int], object] = {}
    total = zero
    for walk in itertools.product(range(len(basis)), repeat=a):
        term = one
        for k, (i, j) in enumerate(zip(walk, walk[1:] + walk[:1])):
            if (i, j) not in entries:
                entries[i, j] = _entry(fiber, p, basis[i], basis[j], weights, zero, one)
            term = term * twist(entries[i, j], a - 1 - k)
        total = total + term
    return total


def _trace_blocks(system: SupportSystem, p: int, a: int, tables: Mapping,
                  zero, one, twist) -> dict[SubsetPair, tuple[int, object]]:
    """Sign and unsigned value of every per-pair block of H_p^[a], keyed by
    the pairs of K, with G summed over the given weight tables.

    The block of a pair of weight w is (-1)^(|B|+|C|+a*w) times
    Tr(M^(sigma^(a-1)) ... M^sigma M), where M is the matrix with entries G
    at budgets p*t_y - t_x and target p*v_y - v_x over its minimal lattice
    pairs x, y and sigma is the Frobenius twist A -> A^p (twist; on residues
    mod p it is the identity).
    """
    if a not in (1, 2):
        raise ValueError("a must be 1 or 2")
    data = minimal_data(system)
    blocks = {}
    for pair, w in data.K:
        fiber = pair_fiber(system, pair)
        weights = [tables[key] for key in fiber.gens]
        block = _trace_power(fiber, data.zmin[pair], p, a, weights, zero, one, twist)
        blocks[pair] = ((-1) ** (len(pair.B) + len(pair.C) + a * w), block)
    return blocks


def hasse_blocks(system: SupportSystem, p: int, a: int = 1
                 ) -> dict[SubsetPair, SparsePolynomialModP]:
    """Signed per-pair trace blocks of H_p^[a], keyed by the pairs of K.
    The symbolic blocks grow quickly with p, so a = 2 stops at p = 13."""
    if a == 2 and p > 13:
        raise ValueError("a=2 is limited to p <= 13 (degree growth)")
    tables = _monomial_tables(system, p, artin_hasse_residues(p, _max_budget(system, p), p))
    keys = system.coefficient_keys()
    one = SparsePolynomialModP(p, keys, {(0,) * len(keys): 1})
    blocks = _trace_blocks(system, p, a, tables, zero_polynomial(system, p), one,
                           lambda g, k: g.frobenius_twist(p ** k) if k else g)
    return {pair: block.scale(sign) for pair, (sign, block) in blocks.items()}


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
    symbolic polynomial, whose term count grows quickly with p: the same
    blocks are summed over scalar weights delta_x * c^x mod p, on which the
    Frobenius twist is the identity, so a = 2 has no limit on p here.
    """
    keys = system.coefficient_keys()
    residues = _unit_residues(p, keys, coeffs)
    deltas = artin_hasse_residues(p, _max_budget(system, p), p)
    tables = {key: artin_hasse_weights(deltas, res, p) for key, res in zip(keys, residues)}
    blocks = _trace_blocks(system, p, a, tables, 0, 1, lambda g, k: g)
    return sum(sign * block for sign, block in blocks.values()) % p


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
