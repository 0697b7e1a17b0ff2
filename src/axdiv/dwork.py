"""Truncated Dwork trace formula over Z_p[pi]/(pi^(p-1) + p).

Ring elements carry a per-element precision exponent me: coefficients are
known mod p^me.  The splitting constant gamma is computed by Newton iteration
on the truncated series l(x) = sum x^(p^i)/p^i, and Teichmuller lifts by
iterating Frobenius.  trace_formula_count assembles the point count of a
variety from window traces and certifies it mod p^(T+1-s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hasse import _entry, _trace_power, _unit_residues, artin_hasse_residues, artin_hasse_weights
from .lattice import INFINITE_WEIGHT, lattice_window, pair_fiber, weight_floor, zmin_for_pair
from .model import (
    SubsetPair,
    SupportSystem,
    VarietySpec,
    coefficient_residue,
    enumerate_subset_pairs,
)


class NonIntegralError(ArithmeticError):
    """Division by p requested on an element not divisible by p."""


class GammaError(RuntimeError):
    """Newton iteration for gamma failed to converge or verify."""


@dataclass(frozen=True)
class PiElt:
    """Element of Z_p[pi]/(pi^(p-1) + p), coefficients mod p^me, low degree first."""

    p: int
    me: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.p - 1:
            raise ValueError("coefficient tuple must have length p - 1")
        mod = self.p ** self.me
        object.__setattr__(self, "coeffs", tuple(c % mod for c in self.coeffs))

    @property
    def modulus(self) -> int:
        return self.p ** self.me

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _binop(self, other: "PiElt", op) -> "PiElt":
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        me = min(self.me, other.me)
        return PiElt(self.p, me, tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other: "PiElt") -> "PiElt":
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other: "PiElt") -> "PiElt":
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self) -> "PiElt":
        return PiElt(self.p, self.me, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "PiElt") -> "PiElt":
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        p = self.p
        me = min(self.me, other.me)
        deg = p - 1
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        # pi^(p-1) = -p
        for k in range(len(prod) - 1, deg - 1, -1):
            if prod[k]:
                prod[k - deg] -= p * prod[k]
                prod[k] = 0
        return PiElt(p, me, tuple(prod[:deg]))

    def scale(self, c: int) -> "PiElt":
        return PiElt(self.p, self.me, tuple(c * x for x in self.coeffs))

    def __pow__(self, k: int) -> "PiElt":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = from_int(1, self.p, self.me)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def val_pi(self) -> float:
        """pi-adic valuation of the stored representative; inf for zero."""
        best = math.inf
        for i, c in enumerate(self.coeffs):
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                best = min(best, (self.p - 1) * v + i)
        return best

    def divide_p(self, k: int = 1) -> "PiElt":
        """Exact division by p^k; precision drops by k."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return self
        q = self.p ** k
        if any(c % q for c in self.coeffs):
            raise NonIntegralError(f"element is not divisible by p^{k}")
        if self.me - k < 1:
            raise NonIntegralError("no precision left after division")
        return PiElt(self.p, self.me - k, tuple(c // q for c in self.coeffs))

    def with_precision(self, me: int) -> "PiElt":
        """Re-tag at precision me.  Raising precision asserts knowledge the
        element may not have; only do so where later steps self-correct."""
        return PiElt(self.p, me, self.coeffs)

    def residue(self) -> int:
        """Image mod pi, an element of F_p."""
        return self.coeffs[0] % self.p


def from_int(c: int, p: int, me: int) -> PiElt:
    return PiElt(p, me, (c,) + (0,) * (p - 2))


def pi_element(p: int, me: int) -> PiElt:
    if p == 2:
        # pi = -2 when p = 2: the ring is Z_2 itself
        return PiElt(2, me, (-2,))
    return PiElt(p, me, (0, 1) + (0,) * (p - 3))


def invert_unit(u: PiElt) -> PiElt:
    """Inverse of a unit congruent to 1 mod pi, by y <- y(2 - u y)."""
    if u.residue() % u.p == 0:
        raise ZeroDivisionError("element is not a unit")
    y = from_int(pow(u.residue(), -1, u.p), u.p, u.me)
    two = from_int(2, u.p, u.me)
    for _ in range(max(3, (u.me * (u.p - 1)).bit_length() + 2)):
        y = y * (two - u * y)
    return y


def _ell(x: PiElt, K: int) -> PiElt:
    """Truncated logarithm sum of x^(p^i)/p^i for i = 0..K."""
    p = x.p
    total = x
    power = x
    for i in range(1, K + 1):
        for _ in range(p ** i - p ** (i - 1)):
            power = power * x
        total = total + power.divide_p(i).with_precision(total.me)
    return total


def _ell_prime(x: PiElt, K: int) -> PiElt:
    p = x.p
    total = from_int(1, x.p, x.me)
    for i in range(1, K + 1):
        total = total + x ** (p ** i - 1)
    return total


def gamma_approximation(p: int, m: int) -> PiElt:
    """Root of the truncated logarithm near pi, accurate mod p^m.

    The tail terms beyond index K have valuation p^i - (p-1)i at a point of
    valuation 1, so K is the least index making the first dropped term
    invisible at the target precision.
    """
    if m < 2:
        raise ValueError("precision must be >= 2")
    target = (p - 1) * m
    K = 0
    while p ** (K + 1) - (p - 1) * (K + 1) < target:
        K += 1
    work = m + K + 2
    x = pi_element(p, work)
    seen = x.with_precision(m)
    for _ in range(60):
        correction = _ell(x, K) * invert_unit(_ell_prime(x, K))
        x = (x - correction).with_precision(work)
        now = x.with_precision(m)
        if now == seen:
            break
        seen = now
    else:
        raise GammaError("Newton iteration did not stabilize")
    gamma = x.with_precision(m)
    if (gamma - pi_element(p, m)).val_pi() < 2:
        raise GammaError("gamma is not congruent to pi mod pi^2")
    if ((gamma ** (p - 1)) + from_int(p, p, m)).val_pi() < p:
        raise GammaError("gamma^(p-1) + p is not divisible by pi^p")
    return gamma


def teichmuller_lift(a: int, p: int, m: int) -> int:
    """The (q-1)-st root of unity (or zero) congruent to a mod p, mod p^m."""
    mod = p ** m
    x = a % mod
    for _ in range(4 * m + 8):
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y
    raise RuntimeError("Teichmuller iteration did not stabilize")


def window_trace(spec: VarietySpec, pair: SubsetPair, p: int, m: int, T: int,
                 gamma: PiElt | None = None) -> PiElt:
    """Trace of the Dwork operator on the window of lattice points with
    |t| <= T: the sum over the window of gamma^((p-1)|t_x|) times the scalar
    G at budgets (p-1)*t_x and target (p-1)*v_x, the diagonal entries of the
    truncated matrix, over Teichmuller weights mod p^m.  An empty window
    gives 0 before any table is built."""
    if m < T + 2:
        raise ValueError("precision must exceed the truncation level by 2")
    system = spec.system
    window = lattice_window(system, pair, T)
    if not window:
        return from_int(0, p, m if gamma is None else min(gamma.me, m))
    if gamma is None:
        gamma = gamma_approximation(p, m)
    else:
        gamma = gamma.with_precision(min(gamma.me, m))
    modulus = p ** gamma.me
    deltas = artin_hasse_residues(p, p * T, modulus)
    teich = {key: teichmuller_lift(coefficient_residue(val, p, modulus), p, gamma.me)
             for key, val in spec.coefficients.items()}
    fiber = pair_fiber(system, pair)
    tables = [artin_hasse_weights(deltas, teich[key], modulus) for key in fiber.gens]
    gpow = {}
    total = from_int(0, p, gamma.me)
    for x in window:
        e = (p - 1) * x.total
        if e not in gpow:
            gpow[e] = gamma ** e
        total = total + gpow[e].scale(_entry(fiber, p, x, x, tables, 0, 1) % modulus)
    return total


@dataclass(frozen=True)
class TraceCount:
    p: int
    T: int
    s: int
    window: int      # count is certified mod p^window
    modulus: int
    residue: int
    me: int


def _active_pairs(system: SupportSystem) -> tuple[list[SubsetPair], int]:
    """Pairs whose restricted supports are all nonempty, and the shift s.

    Without constant terms every monomial has a positive lambda-degree, so
    a pair has an empty restricted support exactly when its weight floor is
    infinite."""
    active = [pair for pair in enumerate_subset_pairs(system.n, system.r)
              if weight_floor(system, pair) != INFINITE_WEIGHT]
    s = max((len(pair.B) + len(pair.C) - system.n for pair in active), default=0)
    return active, max(0, s)


def trace_formula_count(spec: VarietySpec, p: int, m: int | None = None,
                        T: int = 2) -> TraceCount:
    """Point count over F_p from window traces, certified mod p^(T+1-s).

    Constant terms are rejected: the sector decomposition behind the count
    identity assumes f_j(0) = 0, and f = c is already a counterexample
    otherwise (empty variety, empty windows, residue p^n).
    """
    system = spec.system
    n, r = system.n, system.r
    if any(not any(g) for gs in system.supports for g in gs):
        raise ValueError("trace formula requires supports without the zero vector")
    if m is None:
        m = T + n + r + 2
    active, s = _active_pairs(system)
    W = max(0, T + 1 - s)
    gamma = gamma_approximation(p, m)
    # common denominator p^s, divided out once at the end
    acc = from_int(p ** (n + s), p, m)
    for pair in active:
        tr = window_trace(spec, pair, p, m, T, gamma=gamma)
        scale = (p - 1) ** (len(pair.B) + len(pair.C)) * p ** (n - len(pair.B) - len(pair.C) + s)
        acc = acc + tr.scale(scale)
    total = acc.divide_p(s)
    residue_mod = p ** W
    for c in total.coeffs[1:]:
        if c % residue_mod:
            raise NonIntegralError(
                f"pi-part of the trace total does not vanish mod p^{W}")
    return TraceCount(p, T, s, W, residue_mod, total.coeffs[0] % residue_mod, total.me)


@dataclass(frozen=True)
class LeadingTraceReport:
    pair: SubsetPair
    weight: int
    lhs_residue: int
    rhs_residue: int
    ok: bool


def leading_trace_congruence(spec: VarietySpec, pair: SubsetPair, p: int,
                             m: int | None = None) -> LeadingTraceReport:
    """Checks Tr / p^w == (-1)^w * Tr(N(a)) mod p, where the left side is the
    window trace at truncation w = w_Z and the right side is the mod-p trace
    block evaluated at the coefficients."""
    system = spec.system
    zmin = zmin_for_pair(system, pair)
    w = zmin[0].total
    if m is None:
        m = w + system.n + system.r + 2
    lhs = window_trace(spec, pair, p, m, w).divide_p(w).residue()
    fiber = pair_fiber(system, pair)
    residues = _unit_residues(p, fiber.gens, spec.coefficients)
    deltas = artin_hasse_residues(p, p * w, p)
    tables = [artin_hasse_weights(deltas, res, p) for res in residues]
    rhs = _trace_power(fiber, zmin, p, 1, tables, 0, 1, lambda g, k: g)
    rhs = (-1) ** w * rhs % p
    return LeadingTraceReport(pair, w, lhs, rhs, lhs == rhs)
