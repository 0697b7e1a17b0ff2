"""Exact point counts of the affine variety over F_q, q = p^a with a <= 3.

Elements are coded 0..q-1 by the base-p digits (low power first) of their
polynomial modulo the irreducible modulus of build_field; for a = 1 the code
is the residue.  Arithmetic on codes is integer numpy: mod p for a = 1, and
for a >= 2 an addition table with log/antilog tables of a primitive element,
built on first use and kept per field.

count_points counts #V = sum_x prod_j [f_j(x) = 0] by variable elimination
(bucket elimination, Dechter 1999).  Monomials whose coefficient vanishes
mod p are dropped; a variable left in no monomial gives a factor q, and
polynomials sharing no variable are counted apart.  Variables split into
blocks, joined when they share a monomial.  Each block gives the exact
histogram of its partial values in F_q^r, the histograms are convolved over
(F_q^r, +), and the count is read at the target value.  A block that does
not split is split by fixing its most-shared variable as a batch axis over
all q values at once (y in x^3 y^3 + y^2 z^2).  Every plan is priced in
array cells; where one grid over the variables is cheaper, or a histogram
would not fit in CHUNK_CELLS, that grid is counted directly, in chunks.
Counts are exact int64: no weights, no floats, no sampling; the only
approximations in this package live in dwork.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .lattice import minimal_data
from .model import VarietySpec, coefficient_residue

# q**n above this raises instead of grinding; counting is meant for unit tests
# and sharpness verification on small instances, not production enumeration.
POINT_BUDGET = 10 ** 8
TABLE_LIMIT = 1024
# largest grid chunk, histogram or batch array of a count, in entries
CHUNK_CELLS = 4 * 10 ** 6


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

    @cached_property
    def _arith(self) -> _Arith:
        """The field's arithmetic tables, built on first use."""
        return _Arith(self)


def _poly_from_code(code: int, p: int, a: int) -> list[int]:
    digits = []
    for _ in range(a):
        digits.append(code % p)
        code //= p
    return digits


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


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, a dozen modular powers
    for any p.  Exact for p < 318665857834031151167461, the least strong
    pseudoprime to all twelve (Sorenson and Webster 2017); beyond it p is a
    strong probable prime, and no such field fits POINT_BUDGET."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def build_field(p: int, a: int) -> FiniteField:
    """Smallest irreducible monic modulus of degree a, by integer code order."""
    if a < 1 or a > 3:
        raise ValueError("extension degree must be between 1 and 3")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if a == 1:
        return FiniteField(p, 1, (0, 1))
    for low in range(p ** a):
        modulus = tuple(_poly_from_code(low, p, a)) + (1,)
        if _is_irreducible(modulus, p):
            return FiniteField(p, a, modulus)
    raise RuntimeError("no irreducible modulus found")  # unreachable


def _antilog(field: FiniteField, digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Powers g^0..g^(q-2) of the first primitive element g by code."""
    p, a, q = field.p, field.a, field.q
    # codes below p are the prime field, whose units have order dividing p - 1
    for g in range(p, q):
        poly = _poly_from_code(g, p, a)
        # multiplication by g is F_p-linear; row i holds the digits of g * x^i
        rows = np.array([_mul_mod(poly, [int(i == k) for k in range(a)], field.modulus, p)
                         for i in range(a)])
        times_g = (digits @ rows % p @ weights).tolist()
        walk, e = [1], times_g[1]
        while e != 1:
            walk.append(e)
            e = times_g[e]
        if len(walk) == q - 1:
            return np.array(walk, dtype=np.int64)
    raise RuntimeError(f"no primitive element of F_{q}")  # unreachable


class _Arith:
    """Integer numpy arithmetic on the codes of one field."""

    def __init__(self, field: FiniteField):
        p, a, q = field.p, field.a, field.q
        self.p, self.q = p, q
        self._powers: dict[int, np.ndarray] = {}
        self.add_table = None
        if a == 1:
            return
        if q > TABLE_LIMIT:
            raise CountGuardError(f"field with q={q} exceeds the table limit {TABLE_LIMIT}")
        weights = p ** np.arange(a)
        digits = np.arange(q)[:, None] // weights % p
        # digit-wise addition, the high digit on the outer axes
        digit_sum = np.add.outer(np.arange(p), np.arange(p)) % p
        self.add_table = digit_sum
        for m in weights[1:].tolist():
            self.add_table = (digit_sum[:, None, :, None] * m
                              + self.add_table[None, :, None, :]).reshape(m * p, m * p)
        self.neg_table = -digits % p @ weights
        antilog = _antilog(field, digits, weights)
        # a permutation of the units proves the generator primitive
        if not np.array_equal(np.sort(antilog), np.arange(1, q)):
            raise RuntimeError(f"antilog table of F_{q} is not a permutation of its units")
        # log 0 = 2(q-1) sends every product with a zero factor past the two
        # periods of the antilog table, into its zero tail
        self.log = np.empty(q, dtype=np.int64)
        self.log[antilog] = np.arange(q - 1)
        self.log[0] = 2 * (q - 1)
        self.exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        self.exp[:2 * (q - 1)] = np.tile(antilog, 2)

    def add(self, x, y):
        return (x + y) % self.p if self.add_table is None else self.add_table[x, y]

    def neg(self, x):
        return -x % self.p if self.add_table is None else self.neg_table[x]

    def mul(self, x, y):
        return x * y % self.p if self.add_table is None else self.exp[self.log[x] + self.log[y]]

    def power(self, e: int) -> np.ndarray:
        """x^e for every code x, e >= 1, by repeated squaring."""
        if e not in self._powers:
            acc, base, k = None, np.arange(self.q), e
            while k:
                if k & 1:
                    acc = base if acc is None else self.mul(acc, base)
                k >>= 1
                if k:
                    base = self.mul(base, base)
            self._powers[e] = acc
        return self._powers[e]


def _components(nodes, groups) -> list[tuple]:
    """Connected components of nodes, each group joining the nodes it holds."""
    root = {v: v for v in nodes}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for group in groups:
        first = None
        for v in group:
            if v in root:
                if first is None:
                    first = find(v)
                else:
                    root[find(v)] = first
    comps: dict = {}
    for v in nodes:
        comps.setdefault(find(v), []).append(v)
    return [tuple(c) for c in comps.values()]


class _Part:
    """Variable elimination over one part of the system: variables linked
    through shared polynomials, with their monomials.  Values in F_q^P, P the
    part's polynomials, are coded sum_k v_k q^k; Q = q^|P| codes in all.

    A plan node gives, for every value of its batch variables, the number of
    points of its variables at the target (counting) or the histogram of
    their values (not counting):
      ("grid", vars, monos, batch)  one grid over batch + vars, chunked;
      ("split", plans, batch)       blocks of vars, convolved;
      ("sep", plan, batch)          a variable moved to the batch, summed.
    """

    def __init__(self, arith: _Arith, monos: list, target: list[int]):
        polys = sorted({j for j, _, _ in monos})
        self.arith, self.q = arith, arith.q
        self.Q = arith.q ** len(polys)
        self.monos = [(polys.index(j), powers, c) for j, powers, c in monos]
        self.target = [target[j] for j in polys]
        self.vars_of = [tuple(v for v, _ in powers) for _, powers, _ in monos]

    def count(self, variables: tuple[int, ...]) -> int:
        _, plan = self._plan(variables, tuple(range(len(self.monos))), (), True)
        return int(self._run(plan, True)[0])

    def _plan(self, variables, monos, batch, counting):
        """(cells, plan) of the cheapest plan; cells is math.inf if none fits."""
        q, Q = self.q, self.Q
        B = q ** len(batch)
        best = (math.inf, None)
        if counting or B * Q <= CHUNK_CELLS:
            best = (B * q ** len(variables) * (len(monos) + 1),
                    ("grid", variables, monos, batch))
        if B * Q > CHUNK_CELLS or len(variables) == 1:
            return best
        blocks = self._blocks(variables, monos)
        if len(blocks) > 1:
            pieces = [self._plan(vs, ms, batch, False) for vs, ms in blocks]
            cells = (sum(c for c, _ in pieces) + (len(pieces) - 2) * B * Q * Q
                     + (B * Q if counting else B * Q * Q))
            if cells < best[0]:
                best = (cells, ("split", [pl for _, pl in pieces], batch))
        elif B * q * (1 if counting else Q) <= CHUNK_CELLS:
            s = self._most_shared(variables, monos)
            cells, child = self._plan(tuple(v for v in variables if v != s), monos,
                                      batch + (s,), counting)
            cells += B * q * (1 if counting else Q)
            if cells < best[0]:
                best = (cells, ("sep", child, batch))
        return best

    def _blocks(self, variables, monos) -> list[tuple[tuple, tuple]]:
        """Connected blocks of the variables, each with the monomials on it;
        the monomials on batch variables only go with the first block."""
        blocks = _components(variables, (self.vars_of[m] for m in monos))
        out = [(vs, tuple(m for m in monos if any(v in vs for v in self.vars_of[m])))
               for vs in blocks]
        rest = tuple(m for m in monos if not any(v in variables for v in self.vars_of[m]))
        out[0] = (out[0][0], out[0][1] + rest)
        return out

    def _most_shared(self, variables, monos) -> int:
        """The variable with the most neighbours in the block, then the most
        monomials, then the lowest index."""
        def key(v):
            touching = [self.vars_of[m] for m in monos if v in self.vars_of[m]]
            neighbours = {u for vs in touching for u in vs if u in variables}
            return len(neighbours), len(touching), -v
        return max(variables, key=key)

    def _run(self, plan, counting: bool) -> np.ndarray:
        """(B,) counts at the target, or the (B, Q) histogram."""
        kind = plan[0]
        if kind == "grid":
            return self._grid(*plan[1:], counting)
        if kind == "sep":
            _, child, batch = plan
            out = self._run(child, counting)
            return out.reshape((self.q ** len(batch), self.q) + out.shape[1:]).sum(axis=1)
        hists = [self._run(pl, False) for pl in plan[1]]
        acc = hists[0]
        for h in hists[1:-1]:
            acc = self._convolve(acc, h)
        if counting:
            return (acc * hists[-1][:, self._minus_target]).sum(axis=1)
        return self._convolve(acc, hists[-1])

    def _grid(self, variables, monos, batch, counting) -> np.ndarray:
        q, Q = self.q, self.Q
        axes = batch + variables
        B = q ** len(batch)
        shape_rest = (q,) * (len(axes) - 1)
        out = np.zeros(B if counting else B * Q, dtype=np.int64)
        step = max(1, CHUNK_CELLS // q ** len(shape_rest))
        for lo in range(0, q, step):
            hi = min(q, lo + step)
            values = self._values(axes, monos, lo, hi)
            shape = (hi - lo,) + shape_rest
            b0, b1 = lo * B // q, hi * B // q
            if counting:
                hit = True
                for k, t in enumerate(self.target):
                    hit = hit & (values.get(k, 0) == t)
                if batch:
                    hit = np.broadcast_to(hit, shape).reshape(b1 - b0, -1)
                    out[b0:b1] += np.count_nonzero(hit, axis=1)
                else:  # every axis is a variable of some monomial, so hit fills the chunk
                    out[0] += np.count_nonzero(hit)
            else:
                key = sum(val * q ** k for k, val in values.items())
                if batch:
                    key = (np.broadcast_to(key, shape).reshape(b1 - b0, -1)
                           + np.arange(b1 - b0)[:, None] * Q)
                    out[b0 * Q:b1 * Q] += np.bincount(key.ravel(), minlength=(b1 - b0) * Q)
                else:
                    out += np.bincount(key.ravel(), minlength=Q)
        return out if counting else out.reshape(B, Q)

    def _values(self, axes, monos, lo: int, hi: int) -> dict[int, np.ndarray]:
        """Each polynomial's sum over the given monomials on the chunk
        [lo, hi) of the first axis; the arrays broadcast to the chunk."""
        arith = self.arith
        position = {v: i for i, v in enumerate(axes)}
        totals: dict[int, np.ndarray] = {}
        for m in monos:
            k, powers, term = self.monos[m]
            for v, e in powers:
                i = position[v]
                table = arith.power(e)[lo:hi] if i == 0 else arith.power(e)
                shape = [1] * len(axes)
                shape[i] = -1
                term = arith.mul(term, table.reshape(shape))
            totals[k] = arith.add(totals[k], term) if k in totals else term
        return totals

    @cached_property
    def _digits(self) -> list[np.ndarray]:
        """Coordinate k of every code of F_q^P."""
        codes = np.arange(self.Q)
        return [codes // self.q ** k % self.q for k in range(len(self.target))]

    @cached_property
    def _minus_target(self) -> np.ndarray:
        """Code of target - s for every code s."""
        return sum(self.arith.add(t, self.arith.neg(d)) * self.q ** k
                   for k, (t, d) in enumerate(zip(self.target, self._digits)))

    def _convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """out[:, s + w] = sum of a[:, s] * b[:, w], batch by batch."""
        out = np.zeros_like(a)
        for s in np.flatnonzero(a.any(axis=0)).tolist():
            shift = sum(self.arith.add(s // self.q ** k % self.q, d) * self.q ** k
                        for k, d in enumerate(self._digits))
            out[:, shift] += a[:, s, None] * b
        return out


def count_points(spec: VarietySpec, field: FiniteField) -> int:
    """Number of solutions of f = 0 in the affine space over the field."""
    system = spec.system
    n, q = system.n, field.q
    if q ** n > POINT_BUDGET:
        raise CountGuardError(
            f"q^n = {q ** n} exceeds the enumeration budget {POINT_BUDGET}")
    # every residue first: a denominator divisible by p raises even where the
    # monomial's residue would be dropped
    residues = [(j - 1, g, coefficient_residue(spec.coefficients[(j, g)], field.p))
                for j, g in system.coefficient_keys()]
    arith = field._arith
    target = [0] * system.r  # minus each constant term, a prime-field code
    monos = []
    for j, g, c in residues:
        powers = tuple((i, e) for i, e in enumerate(g) if e)
        if c and powers:
            monos.append((j, powers, c))
        elif c:
            target[j] = -c % field.p
    live = {j for j, _, _ in monos}
    if any(t for j, t in enumerate(target) if j not in live):
        return 0
    variables = sorted({v for _, powers, _ in monos for v, _ in powers})
    linked = [[v for j, powers, _ in monos if j == k for v, _ in powers] for k in live]
    count = q ** (n - len(variables))
    for part_vars in _components(variables, linked):
        part = [(j, powers, c) for j, powers, c in monos if powers[0][0] in part_vars]
        count *= _Part(arith, part, target).count(part_vars)
    return count


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
    field = build_field(p, a)
    mu = minimal_data(spec.system).mu
    c = count_points(spec, field)
    val = ord_q(c, p, a)
    return CountReport(p, a, c, val, mu, bool(val >= mu))
