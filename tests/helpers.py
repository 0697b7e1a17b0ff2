"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: nested loops, plain integer
arithmetic, no shortcuts.  The point is independence from the code under
test, not speed.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from axdiv import (
    SubsetPair,
    SupportSystem,
    VarietySpec,
    artin_hasse_coefficients,
    build_field,
    minimal_data,
    restrict_support,
)

# (criterion number, ok, detail) tuples; the conftest summary hook prints them.
ACCEPTANCE_LOG: list[tuple[int, bool, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> bool:
    ACCEPTANCE_LOG.append((num, ok, detail))
    return ok


def count_calls(monkeypatch, fn) -> list:
    """Count the calls of fn made through any axdiv module namespace; the
    modules import each other's names, so patching one would miss calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "axdiv" or name.startswith("axdiv."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def naive_prime_count(spec: VarietySpec, p: int) -> int:
    """Common zeros over F_p by direct enumeration (0^0 = 1)."""
    vals = {key: c.numerator * pow(c.denominator, -1, p) % p
            for key, c in spec.coefficients.items()}
    n = spec.system.n
    count = 0
    for x in itertools.product(range(p), repeat=n):
        ok = True
        for j, support in enumerate(spec.system.supports, start=1):
            total = 0
            for g in support:
                term = vals[(j, g)]
                for xi, e in zip(x, g):
                    term = term * pow(xi, e, p) % p
                total = (total + term) % p
            if total != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def naive_extension_count(spec: VarietySpec, p: int, a: int) -> int:
    """Common zeros over F_{p^a} with hand-rolled polynomial arithmetic.

    Elements are digit tuples (low power first) reduced by the same monic
    modulus that build_field fixes, so the two counters agree on which
    concrete field they enumerate.
    """
    field = build_field(p, a)
    mod = field.modulus

    def reduce(poly: list[int]) -> tuple[int, ...]:
        for k in range(len(poly) - 1, a - 1, -1):
            c = poly[k] % p
            if c:
                for i in range(a + 1):
                    poly[k - a + i] = (poly[k - a + i] - c * mod[i]) % p
        return tuple(x % p for x in poly[:a])

    def mul(x, y):
        out = [0] * (2 * a - 1)
        for i, xi in enumerate(x):
            for k, yk in enumerate(y):
                out[i + k] += xi * yk
        return reduce(out)

    def power(x, e):
        result = (1,) + (0,) * (a - 1)
        while e:
            if e & 1:
                result = mul(result, x)
            x = mul(x, x)
            e >>= 1
        return result

    consts = {key: (c.numerator * pow(c.denominator, -1, p) % p,) + (0,) * (a - 1)
              for key, c in spec.coefficients.items()}
    elements = list(itertools.product(range(p), repeat=a))
    count = 0
    for point in itertools.product(elements, repeat=spec.system.n):
        ok = True
        for j, support in enumerate(spec.system.supports, start=1):
            total = (0,) * a
            for g in support:
                term = consts[(j, g)]
                for x, e in zip(point, g):
                    if e:
                        term = mul(term, power(x, e))
                total = tuple((u + v) % p for u, v in zip(total, term))
            if any(total):
                ok = False
                break
        if ok:
            count += 1
    return count


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of the given length summing to total."""
    if total < 0:
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def naive_fiber_points(system: SupportSystem, pair: SubsetPair,
                       t, v) -> list[tuple[int, ...]]:
    """Integral fiber points by brute force: every way of splitting each
    budget t_j over the restricted generators of polynomial j, combined
    across the polynomials and kept when the generators sum to v exactly.
    A split that alone overshoots some coordinate of v is dropped early,
    since every generator is nonnegative."""
    v = tuple(v)
    options = []
    for j, tj in zip(pair.B, t):
        gs = restrict_support(system, j, pair.C)
        splits = _compositions(tj, len(gs)) if gs else ([()] if tj == 0 else [])
        opts = []
        for part in splits:
            vec = tuple(sum(uk * g[i] for uk, g in zip(part, gs)) for i in range(system.n))
            if all(x <= y for x, y in zip(vec, v)):
                opts.append((part, vec))
        options.append(opts)
    points = []
    for combo in itertools.product(*options):
        total = tuple(sum(xs) for xs in zip(*(vec for _, vec in combo)))
        if total == v:
            points.append(tuple(x for part, _ in combo for x in part))
    return sorted(points)


def naive_g(system: SupportSystem, pair: SubsetPair, t, v, tables, zero, one):
    """G as the plain sum over naive_fiber_points of the product of
    tables[k][u_k], generators in fiber order."""
    total = zero
    for u in naive_fiber_points(system, pair, t, v):
        term = one
        for column, x in zip(tables, u):
            term = term * column[x]
        total = total + term
    return total


def naive_hasse_value(system: SupportSystem, p: int, coeffs, a: int) -> int:
    """H_p^[a] at the coefficients, straight from its definition: per pair of
    K the trace of the G matrix over Zmin (a = 1) or of its square (a = 2),
    G summed over naive_fiber_points with weights delta_x * c^x mod p."""
    data = minimal_data(system)
    top = max(p * lp.total for lps in data.zmin.values() for lp in lps)
    deltas = [d.numerator * pow(d.denominator, -1, p) % p
              for d in artin_hasse_coefficients(p, top)]
    res = {key: Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p
           for key, c in coeffs.items()}
    total = 0
    for pair, w in data.K:
        keys = [(j, g) for j in pair.B for g in restrict_support(system, j, pair.C)]
        tables = [[d * pow(res[key], x, p) % p for x, d in enumerate(deltas)] for key in keys]

        def G(x, y):
            budgets = [p * ty - tx for tx, ty in zip(x.t, y.t)]
            target = [p * vy - vx for vx, vy in zip(x.v, y.v)]
            return naive_g(system, pair, budgets, target, tables, 0, 1)

        lps = data.zmin[pair]
        if a == 1:
            block = sum(G(x, x) for x in lps)
        else:
            entries = {(x, y): G(x, y) for x in lps for y in lps}
            block = sum(entries[x, y] * entries[y, x] for x in lps for y in lps)
        total += (-1) ** (len(pair.B) + len(pair.C) + a * w) * block
    return total % p
