"""Support systems and varieties: the combinatorial input data.

A system is r sets of exponent vectors G_1,...,G_r in Z_{>=0}^n; a variety
attaches a nonzero rational coefficient to every exponent vector.  Everything
downstream (bounds, weights, Hasse polynomials, point counts) is a function
of these data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

ExponentVector = tuple[int, ...]
# (j, g) with j 1-based; identifies one monomial of one polynomial.
CoefficientKey = tuple[int, ExponentVector]

_COEFF_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")


class SpecError(ValueError):
    """Input document violates the schema; message carries a path."""


@dataclass(frozen=True)
class SupportSystem:
    """Exponent sets G_1,...,G_r in Z_{>=0}^n, each stored sorted."""

    n: int
    supports: tuple[tuple[ExponentVector, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.supports:
            raise ValueError("need at least one support set")
        normalized = []
        for j, gs in enumerate(self.supports, start=1):
            gs = tuple(tuple(int(e) for e in g) for g in gs)
            if not gs:
                raise ValueError(f"support set {j} is empty")
            if len(set(gs)) != len(gs):
                raise ValueError(f"support set {j} has a duplicate exponent vector")
            for g in gs:
                if len(g) != self.n:
                    raise ValueError(f"vector {g} in set {j} has length != n={self.n}")
                if any(e < 0 for e in g):
                    raise ValueError(f"vector {g} in set {j} has a negative entry")
            normalized.append(tuple(sorted(gs)))
        object.__setattr__(self, "supports", tuple(normalized))

    @property
    def r(self) -> int:
        return len(self.supports)

    def degrees(self) -> tuple[int, ...]:
        """Total degree of each polynomial, max |g| over its support."""
        return tuple(max(sum(g) for g in gs) for gs in self.supports)

    def coefficient_keys(self) -> tuple[CoefficientKey, ...]:
        return tuple((j, g) for j, gs in enumerate(self.supports, start=1) for g in gs)

    def max_coordinate(self) -> int:
        return max(e for gs in self.supports for g in gs for e in g)

    def covered_variables(self) -> frozenset[int]:
        """1-based indices i such that some exponent vector has g_i > 0."""
        out = set()
        for gs in self.supports:
            for g in gs:
                out.update(i + 1 for i, e in enumerate(g) if e > 0)
        return frozenset(out)


def support_system(n: int, supports: Iterable[Iterable[Iterable[int]]]) -> SupportSystem:
    """Build a SupportSystem from nested iterables."""
    return SupportSystem(n, tuple(tuple(tuple(g) for g in gs) for gs in supports))


@dataclass(frozen=True)
class VarietySpec:
    """A SupportSystem with a nonzero rational coefficient per exponent vector."""

    system: SupportSystem
    coefficients: Mapping[CoefficientKey, Fraction]

    def __post_init__(self) -> None:
        keys = set(self.system.coefficient_keys())
        got = set(self.coefficients)
        if got != keys:
            raise ValueError("coefficient domain does not match the support sets")
        for key, value in self.coefficients.items():
            if value == 0:
                raise ValueError(f"zero coefficient at {key}")


def coefficient_residue(value: Fraction, p: int, modulus: int | None = None) -> int:
    """A rational coefficient mod modulus, a power of p (default p itself)."""
    if value.denominator % p == 0:
        raise ZeroDivisionError(f"coefficient {value} has denominator divisible by {p}")
    if modulus is None:
        modulus = p
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def variety_spec(system: SupportSystem,
                 coefficients: Mapping[CoefficientKey, Fraction | int | str]) -> VarietySpec:
    coeffs = {(j, tuple(g)): Fraction(c) for (j, g), c in coefficients.items()}
    return VarietySpec(system, coeffs)


def unit_variety(system: SupportSystem) -> VarietySpec:
    """All coefficients equal to 1."""
    return VarietySpec(system, {key: Fraction(1) for key in system.coefficient_keys()})


@dataclass(frozen=True)
class SubsetPair:
    """Nonempty B within {1..r} and nonempty C within {1..n}, both sorted."""

    B: tuple[int, ...]
    C: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, part in (("B", self.B), ("C", self.C)):
            if not part:
                raise ValueError(f"{name} must be nonempty")
            if tuple(sorted(set(part))) != tuple(part):
                raise ValueError(f"{name} must be sorted and duplicate-free")
            if part[0] < 1:
                raise ValueError(f"{name} indices are 1-based")


def subset_pair(B: Iterable[int], C: Iterable[int]) -> SubsetPair:
    return SubsetPair(tuple(sorted(set(B))), tuple(sorted(set(C))))


def restrict_support(system: SupportSystem, j: int, C: Iterable[int]) -> tuple[ExponentVector, ...]:
    """All g in G_j supported inside C, i.e. with g_i = 0 for every i outside C."""
    if not 1 <= j <= system.r:
        raise ValueError(f"polynomial index {j} out of range")
    cset = set(C)
    out = []
    for g in system.supports[j - 1]:
        if all(e == 0 for i, e in enumerate(g, start=1) if i not in cset):
            out.append(g)
    return tuple(out)


def enumerate_subset_pairs(n: int, r: int) -> list[SubsetPair]:
    """All (2^r - 1)(2^n - 1) pairs, B outer then C, each by size then lex."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    def parts(m: int) -> list[tuple[int, ...]]:
        subsets = (tuple(i for i in range(1, m + 1) if mask >> (i - 1) & 1)
                   for mask in range(1, 1 << m))
        return sorted(subsets, key=lambda c: (len(c), c))
    return [SubsetPair(B, C) for B in parts(r) for C in parts(n)]


def _fail(path: str, message: str) -> SpecError:
    return SpecError(f"{path}: {message}")


def parse_variety_spec(document: str | bytes | dict) -> VarietySpec:
    """Parse and validate a JSON document describing a variety.

    Accepted shape: {"n": int, "polynomials": [{"support": [[int,...],...],
    "coefficients": [str,...]}, ...]} with coefficient strings that are
    integers or reduced fractions.  Unknown fields are rejected.  Errors name
    the offending path inside the document.
    """
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise _fail("$", f"invalid JSON ({exc.msg})") from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise _fail("$", "document must be an object")
    unknown = set(data) - {"n", "polynomials"}
    if unknown:
        raise _fail("$", f"unknown field {sorted(unknown)[0]!r}")
    if "n" not in data or "polynomials" not in data:
        raise _fail("$", "fields 'n' and 'polynomials' are required")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise _fail("$.n", "must be a positive integer")
    polys = data["polynomials"]
    if not isinstance(polys, list) or not polys:
        raise _fail("$.polynomials", "must be a nonempty array")

    supports: list[list[ExponentVector]] = []
    coefficients: dict[CoefficientKey, Fraction] = {}
    for idx, entry in enumerate(polys):
        path = f"$.polynomials[{idx}]"
        if not isinstance(entry, dict):
            raise _fail(path, "must be an object")
        unknown = set(entry) - {"support", "coefficients"}
        if unknown:
            raise _fail(path, f"unknown field {sorted(unknown)[0]!r}")
        if "support" not in entry or "coefficients" not in entry:
            raise _fail(path, "fields 'support' and 'coefficients' are required")
        raw_support = entry["support"]
        raw_coeffs = entry["coefficients"]
        if not isinstance(raw_support, list) or not raw_support:
            raise _fail(f"{path}.support", "must be a nonempty array")
        if not isinstance(raw_coeffs, list):
            raise _fail(f"{path}.coefficients", "must be an array")
        if len(raw_coeffs) != len(raw_support):
            raise _fail(f"{path}.coefficients",
                        f"expected {len(raw_support)} entries, got {len(raw_coeffs)}")
        seen: set[ExponentVector] = set()
        for k, raw_g in enumerate(raw_support):
            gpath = f"{path}.support[{k}]"
            if not isinstance(raw_g, list):
                raise _fail(gpath, "must be an array of integers")
            if len(raw_g) != n:
                raise _fail(gpath, f"dimension mismatch (expected length {n})")
            for e in raw_g:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise _fail(gpath, "entries must be nonnegative integers")
            g = tuple(raw_g)
            if g in seen:
                raise _fail(gpath, "duplicate exponent vector")
            seen.add(g)
            raw_c = raw_coeffs[k]
            cpath = f"{path}.coefficients[{k}]"
            if not isinstance(raw_c, str) or not _COEFF_RE.match(raw_c):
                raise _fail(cpath, "must be an integer or num/den string")
            value = Fraction(raw_c)
            if value == 0:
                raise _fail(cpath, "zero coefficient")
            coefficients[(idx + 1, g)] = value
        supports.append(sorted(seen))
    system = support_system(n, supports)
    return VarietySpec(system, coefficients)


def serialize_variety_spec(V: VarietySpec) -> dict:
    """Inverse of parse_variety_spec on normalized specs."""
    polys = []
    for j, gs in enumerate(V.system.supports, start=1):
        polys.append({
            "support": [list(g) for g in gs],
            "coefficients": [str(V.coefficients[(j, g)]) for g in gs],
        })
    return {"n": V.system.n, "polynomials": polys}


def variety_spec_to_json(V: VarietySpec) -> str:
    return json.dumps(serialize_variety_spec(V), sort_keys=True)
