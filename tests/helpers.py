"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: nested loops, plain integer
arithmetic, no shortcuts.  The point is independence from the code under
test, not speed.
"""

from __future__ import annotations

import itertools
import sys

from axdiv import SubsetPair, SupportSystem, VarietySpec, build_field, restrict_support

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


def naive_fiber_points(system: SupportSystem, pair: SubsetPair,
                       t, v) -> list[tuple[int, ...]]:
    """Integral fiber points by brute force over the budget box."""
    gens = [(j, g) for j in pair.B for g in restrict_support(system, j, pair.C)]
    budget = dict(zip(pair.B, t))
    points = []
    for u in itertools.product(*(range(budget[j] + 1) for j, _ in gens)):
        by_j = {j: 0 for j in pair.B}
        coord = [0] * system.n
        for uk, (j, g) in zip(u, gens):
            by_j[j] += uk
            for i in range(system.n):
                coord[i] += uk * g[i]
        if all(by_j[j] == budget[j] for j in pair.B) and tuple(coord) == tuple(v):
            points.append(u)
    return sorted(points)
