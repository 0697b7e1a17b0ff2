"""Exact point counts of the affine variety over small finite fields.

F_p counting runs on numpy residue grids.  Extension fields F_{p^a} (a <= 3)
use integer-coded elements with dense add/mul tables, built once per field
from an irreducible modulus found by exhaustive search.  Counts are exact
integers; the only approximations in this package live in dwork.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import minimal_data
from .model import VarietySpec, coefficient_residue

# q**n above this raises instead of grinding; counting is meant for unit tests
# and sharpness verification on small instances, not production enumeration.
POINT_BUDGET = 10 ** 8
TABLE_LIMIT = 1024


class CountGuardError(RuntimeError):
    """Raised when a requested count exceeds the enumeration budget."""


@dataclass(frozen=True)
class FiniteField:
    """F_{p^a} with elements coded 0..q-1 as base-p digit strings of polynomials."""

    p: int
    a: int
    modulus: tuple[int, ...]  # monic, length a+1, coefficients mod p, low degree first

    @property
    def q(self) -> int:
        return self.p ** self.a


def _poly_from_code(code: int, p: int, a: int) -> list[int]:
    digits = []
    for _ in range(a):
        digits.append(code % p)
        code //= p
    return digits


def _code_from_poly(poly: list[int], p: int) -> int:
    code = 0
    for c in reversed(poly):
        code = code * p + c
    return code


def _mul_mod(x: list[int], y: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    a = len(modulus) - 1
    prod = [0] * (2 * a - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] = (prod[i + j] + xi * yj) % p
    # reduce by the monic modulus
    for k in range(len(prod) - 1, a - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(a):
                prod[k - a + i] = (prod[k - a + i] - c * modulus[i]) % p
    return prod[:a]


def _has_root(modulus: tuple[int, ...], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    # degree <= 3: irreducible iff no root in F_p
    return not _has_root(modulus, p)


def build_field(p: int, a: int) -> FiniteField:
    """Smallest irreducible monic modulus of degree a, by integer code order."""
    if a < 1 or a > 3:
        raise ValueError("extension degree must be between 1 and 3")
    if a == 1:
        return FiniteField(p, 1, (0, 1))
    for low in range(p ** a):
        modulus = tuple(_poly_from_code(low, p, a)) + (1,)
        if _is_irreducible(modulus, p):
            return FiniteField(p, a, modulus)
    raise RuntimeError("no irreducible modulus found")  # unreachable


def _field_tables(field: FiniteField) -> tuple[np.ndarray, np.ndarray]:
    p, a, q = field.p, field.a, field.q
    if q > TABLE_LIMIT:
        raise CountGuardError(f"field with q={q} exceeds the table limit {TABLE_LIMIT}")
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    polys = [_poly_from_code(code, p, a) for code in range(q)]
    for i, x in enumerate(polys):
        for j in range(i, q):
            y = polys[j]
            s = _code_from_poly([(u + v) % p for u, v in zip(x, y)], p)
            m = _code_from_poly(_mul_mod(x, y, field.modulus, p), p)
            add[i, j] = add[j, i] = s
            mul[i, j] = mul[j, i] = m
    return add, mul


# rows of the first axis handled per chunk, sized to keep the residue grid
# around a few million int64 entries
CHUNK_CELLS = 4 * 10 ** 6


def _run_chunks(count_chunk, axis_len: int, cells_per_row: int) -> int:
    step = max(1, CHUNK_CELLS // max(1, cells_per_row))
    bounds = list(range(0, axis_len, step)) + [axis_len]
    starts, stops = bounds[:-1], bounds[1:]
    return sum(count_chunk(lo, hi) for lo, hi in zip(starts, stops))


def _count_prime_field(spec: VarietySpec, p: int) -> int:
    """Vectorized count over F_p: per-variable power tables, broadcast sum."""
    n = spec.system.n
    keys = spec.system.coefficient_keys()
    coeffs = np.array([coefficient_residue(spec.coefficients[k], p) for k in keys],
                      dtype=np.int64)
    x = np.arange(p, dtype=np.int64)
    # pow_table[i][e] = column vector of x^e along axis i
    pow_cache: list[dict[int, np.ndarray]] = [{} for _ in range(n)]

    def axis_pow(i: int, e: int) -> np.ndarray:
        tab = pow_cache[i]
        if e not in tab:
            shape = [1] * n
            shape[i] = p
            tab[e] = np.array([pow(int(v), e, p) for v in x],
                              dtype=np.int64).reshape(shape)
        return tab[e]

    def count_chunk(lo: int, hi: int) -> int:
        mask = np.ones((hi - lo,) + (p,) * (n - 1), dtype=bool)
        for j in range(1, spec.system.r + 1):
            total = np.zeros((hi - lo,) + (p,) * (n - 1), dtype=np.int64)
            for key, c in zip(keys, coeffs):
                if key[0] != j:
                    continue
                term = np.full((1,) * n, int(c), dtype=np.int64)
                for i, e in enumerate(key[1]):
                    if e:
                        axis = axis_pow(i, e)
                        if i == 0:
                            axis = axis[lo:hi]
                        term = term * axis % p
                total = (total + term) % p
            mask &= total == 0
        return int(np.count_nonzero(mask))

    return _run_chunks(count_chunk, p, p ** (n - 1))


def _count_extension_field(spec: VarietySpec, field: FiniteField) -> int:
    n = spec.system.n
    q = field.q
    add, mul = _field_tables(field)
    keys = spec.system.coefficient_keys()
    # coefficients lie in the prime subfield, whose codes are the residues
    coeffs = [coefficient_residue(spec.coefficients[k], field.p) for k in keys]
    codes = np.arange(q, dtype=np.int64)

    pow_cache: list[dict[int, np.ndarray]] = [{} for _ in range(n)]

    def axis_pow(i: int, e: int) -> np.ndarray:
        tab = pow_cache[i]
        if e not in tab:
            acc = np.ones(q, dtype=np.int64)  # code 1 is the unit
            base = codes
            k = e
            while k:
                if k & 1:
                    acc = mul[acc, base]
                base = mul[base, base]
                k >>= 1
            shape = [1] * n
            shape[i] = q
            tab[e] = acc.reshape(shape)
        return tab[e]

    def count_chunk(lo: int, hi: int) -> int:
        mask = np.ones((hi - lo,) + (q,) * (n - 1), dtype=bool)
        for j in range(1, spec.system.r + 1):
            total = np.zeros((hi - lo,) + (q,) * (n - 1), dtype=np.int64)
            for key, c in zip(keys, coeffs):
                if key[0] != j:
                    continue
                term = np.full((1,) * n, c, dtype=np.int64)
                for i, e in enumerate(key[1]):
                    if e:
                        axis = axis_pow(i, e)
                        if i == 0:
                            axis = axis[lo:hi]
                        # advanced indexing broadcasts the two index arrays
                        term = mul[term, axis]
                total = add[total, term]
            mask &= total == 0
        return int(np.count_nonzero(mask))

    return _run_chunks(count_chunk, q, q ** (n - 1))


def count_points(spec: VarietySpec, field: FiniteField) -> int:
    """Number of solutions of f = 0 in the affine space over the field."""
    n = spec.system.n
    if field.q ** n > POINT_BUDGET:
        raise CountGuardError(
            f"q^n = {field.q ** n} exceeds the enumeration budget {POINT_BUDGET}")
    if field.a == 1:
        return _count_prime_field(spec, field.p)
    return _count_extension_field(spec, field)


def ord_q(count: int, p: int, a: int = 1) -> Fraction | float:
    """q-adic valuation of an integer count; infinity for zero."""
    if count == 0:
        return math.inf
    if count < 0:
        raise ValueError("counts are nonnegative")
    v = 0
    while count % p == 0:
        count //= p
        v += 1
    return Fraction(v, a)


@dataclass(frozen=True)
class CountReport:
    p: int
    a: int
    count: int
    valuation: Fraction | float
    mu: int
    meets_bound: bool


def count_report(spec: VarietySpec, p: int, a: int = 1) -> CountReport:
    mu = minimal_data(spec.system).mu
    field = build_field(p, a)
    c = count_points(spec, field)
    val = ord_q(c, p, a)
    return CountReport(p, a, c, val, mu, bool(val >= mu))
