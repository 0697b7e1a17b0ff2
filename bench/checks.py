"""Correctness checks the benchmark applies to every op, outside the timed batch.

Each check recomputes a value independently of axdiv, or tests a property the
mathematics requires, and returns a list of failure messages (empty when the
op's output is right).  Nothing here compares against stored output.  The
functions take plain integers and tuples, so the negative controls in
test_checks.py can feed them wrong values directly.

A polynomial system is given as ``polys``: one list per polynomial of
(coefficient, exponent vector) terms with integer or Fraction coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# q^n above this is not recounted point by point
BRUTE_FORCE_LIMIT = 2500


def p_valuation(x: int, p: int) -> float:
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _residue(c, p: int) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _irreducible(p: int, a: int) -> tuple[int, ...]:
    """A monic irreducible of degree a <= 3 over F_p, low degree first
    (no root in F_p suffices at these degrees)."""
    if a == 1:
        return (0, 1)
    for tail in product(range(p), repeat=a):
        poly = tail + (1,)
        if all(sum(c * pow(x, k, p) for k, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise ValueError(f"no irreducible of degree {a} over F_{p}")


class SmallField:
    """F_{p^a} as coefficient tuples modulo a monic irreducible, for recounts."""

    def __init__(self, p: int, a: int) -> None:
        self.p, self.a = p, a
        self.modulus = _irreducible(p, a)
        self.elements = list(product(range(p), repeat=a))

    def embed(self, c) -> tuple[int, ...]:
        return (_residue(c, self.p),) + (0,) * (self.a - 1)

    def add(self, x, y):
        return tuple((u + v) % self.p for u, v in zip(x, y))

    def mul(self, x, y):
        p, a = self.p, self.a
        prod = [0] * (2 * a - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        for k in range(2 * a - 2, a - 1, -1):
            c = prod[k] % p
            for i in range(a):
                prod[k - a + i] -= c * self.modulus[i]
        return tuple(c % p for c in prod[:a])

    def power(self, x, e: int):
        out = (1,) + (0,) * (self.a - 1)
        for _ in range(e):
            out = self.mul(out, x)
        return out


def brute_force_count(polys, n: int, p: int, a: int = 1) -> int:
    """|V(F_q)| by evaluating every polynomial at every point of F_q^n."""
    field = SmallField(p, a)
    zero = (0,) * a
    embedded = [[(field.embed(c), g) for c, g in poly] for poly in polys]
    powers = {}
    for poly in embedded:
        for _, g in poly:
            for e in g:
                if e not in powers:
                    powers[e] = {x: field.power(x, e) for x in field.elements}
    count = 0
    for point in product(field.elements, repeat=n):
        for poly in embedded:
            total = zero
            for c, g in poly:
                term = c
                for x, e in zip(point, g):
                    if e:
                        term = field.mul(term, powers[e][x])
                total = field.add(total, term)
            if total != zero:
                break
        else:
            count += 1
    return count


def check_brute_force(count: int, polys, n: int, p: int, a: int = 1) -> list[str]:
    """Recount point by point when q^n is small; larger counts pass untested."""
    if (p ** a) ** n > BRUTE_FORCE_LIMIT:
        return []
    expect = brute_force_count(polys, n, p, a)
    if count != expect:
        return [f"count {count} over F_{p}^{a} differs from the recount {expect}"]
    return []


def legendre(x: int, p: int) -> int:
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def quadric_count(p: int, a: int, coeffs) -> int:
    """Points of sum c_i x_i^2 = 0 over F_q, q = p^a odd, every c_i nonzero mod p.

    N = q^(n-1) for n odd; for n even N = q^(n-1) + (q-1) q^(n/2-1) eta((-1)^(n/2) det),
    where eta is the quadratic character of F_q, which is 1 on F_p when a is even.
    """
    if p == 2:
        raise ValueError("closed form needs odd q")
    n = len(coeffs)
    q = p ** a
    if n % 2:
        return q ** (n - 1)
    det = math.prod(_residue(c, p) for c in coeffs)
    eta = 1 if a % 2 == 0 else legendre((-1) ** (n // 2) * det, p)
    return q ** (n - 1) + (q - 1) * q ** (n // 2 - 1) * eta


def check_quadric(count: int, p: int, a: int, coeffs) -> list[str]:
    expect = quadric_count(p, a, coeffs)
    if count != expect:
        return [f"quadric count {count} over F_{p}^{a} differs from the closed form {expect}"]
    return []


def check_family(count: int, q: int) -> list[str]:
    """c1 x^3 y^3 + c2 y^2 z^2 has q(2q-1) zeros for all nonzero c1, c2."""
    if count != q * (2 * q - 1):
        return [f"count {count} differs from q(2q-1) = {q * (2 * q - 1)} at q={q}"]
    return []


def diagonal_mu(degrees) -> int:
    """mu of sum x_i^(d_i): min{t : sum v_i/d_i = t, integers 1 <= v_i <= d_i} - 1.

    Dynamic programme over the reachable sums, scaled by L = lcm(d) to integers.
    """
    L = math.lcm(*degrees)
    sums = {0}
    for d in degrees:
        step = L // d
        sums = {s + v * step for s in sums for v in range(1, d + 1)}
    return min(s // L for s in sums if s % L == 0 and s) - 1


def ax_katz(n: int, degrees) -> int:
    return -((sum(degrees) - n) // max(degrees))


def check_analysis(mu_polytope: int, mu_combinatorial: int | None, ax_katz_value: int,
                   n: int, degrees, D: frozenset, sparsity: bool,
                   diagonal_degrees=None) -> list[str]:
    """mu_combinatorial is the benchmark's own uncapped minimum over the subset
    pairs, or None where the diagonal closed form pins mu instead."""
    out = []
    if mu_combinatorial is not None and mu_polytope != mu_combinatorial:
        out.append(f"mu routes disagree: polytope {mu_polytope}, "
                   f"combinatorial {mu_combinatorial}")
    expect_ak = ax_katz(n, degrees)
    if ax_katz_value != expect_ak:
        out.append(f"Ax-Katz bound {ax_katz_value} differs from recomputed {expect_ak}")
    if mu_polytope < expect_ak:
        out.append(f"mu {mu_polytope} below the Ax-Katz bound {expect_ak}")
    if sparsity and D != {1}:
        out.append(f"sparsity criterion holds but D = {sorted(D)}")
    if diagonal_degrees is not None:
        expect = diagonal_mu(diagonal_degrees)
        if mu_polytope != expect:
            out.append(f"diagonal form {tuple(diagonal_degrees)}: mu {mu_polytope}, "
                       f"closed form {expect}")
    return out


def check_divisibility(count: int, p: int, mu: int) -> list[str]:
    """The bound itself: ord_p |V(F_p)| >= mu."""
    if p_valuation(count, p) < mu:
        return [f"ord_{p} of count {count} is below mu = {mu}"]
    return []


def check_sharpness(count: int, p: int, mu: int, hasse: int,
                    predicted: bool, observed: bool) -> list[str]:
    """|V|/p^mu = H_p(a) mod p, recomputed from the reported count and H, and
    the reported verdicts: predicted sharp iff H != 0 mod p, observed sharp iff
    ord_p |V| = mu.  Given the congruence the two verdicts agree, so
    predicted = observed needs no check of its own."""
    unit = p ** mu
    if count % unit:
        return [f"p={p}: count {count} not divisible by p^mu = {unit}"]
    out = []
    if (count // unit) % p != hasse % p:
        out.append(f"p={p}: count/p^mu = {count // unit % p} mod p but H = {hasse}")
    if predicted != (hasse % p != 0):
        out.append(f"p={p}: reported predicted sharp {predicted} with H = {hasse}")
    if observed != (p_valuation(count, p) == mu):
        out.append(f"p={p}: reported observed sharp {observed} with ord_p count "
                   f"{p_valuation(count, p)}, mu = {mu}")
    return out


def check_dwork(residue: int, modulus: int, count: int) -> list[str]:
    if count % modulus != residue:
        return [f"trace residue {residue} differs from count {count} mod {modulus}"]
    return []
