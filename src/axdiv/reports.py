"""Sharpness scans, density estimates, and report serialization.

A scan couples the exact point count with the Hasse polynomial value at the
variety's coefficients, prime by prime.  Reports render as versioned JSON
(schema tag axdiv/1) or CSV with a header row; JSON reports round-trip
through parse_report.
"""

from __future__ import annotations

import io
import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .ffcount import build_field, count_points, ord_q
from .hasse import hasse_value
from .lattice import minimal_data
from .model import SpecError, VarietySpec
from .representations import admissible_primes, default_theta, denominator_set, primes_upto

SCHEMA = "axdiv/1"


@dataclass(frozen=True)
class SharpnessRecord:
    p: int
    a: int
    mu: int
    admissible: bool
    count: int | None
    ord_q: Fraction | float | None
    hasse_value: int | None
    predicted_sharp: bool | None
    observed_sharp: bool | None
    congruent: bool | None
    skipped_reason: str | None = None


@dataclass(frozen=True)
class DensityEstimate:
    window: tuple[int, int]
    primes_considered: int
    admissible_count: int
    sharp_count: int
    sharp_fraction: Fraction
    admissible_fraction: Fraction


class _Blocker(Enum):
    """Why a prime cannot be used as is: no count at all (DENOMINATOR) or a
    count without a Hasse value (ZERO_RESIDUE)."""

    DENOMINATOR = "denominator"
    ZERO_RESIDUE = "zero residue"


def _coefficient_blockers(spec: VarietySpec, p: int) -> tuple[_Blocker, str] | None:
    for key, value in spec.coefficients.items():
        if value.denominator % p == 0:
            return _Blocker.DENOMINATOR, f"denominator of coefficient at {key} divisible by {p}"
    for key, value in spec.coefficients.items():
        if value.numerator % p == 0:
            return _Blocker.ZERO_RESIDUE, f"coefficient at {key} reduces to zero mod {p}"
    return None


def sharpness_record(spec: VarietySpec, p: int, a: int = 1,
                     admissible: bool = True) -> SharpnessRecord:
    """One prime's worth of evidence: count, valuation, Hasse value, congruence."""
    system = spec.system
    mu = minimal_data(system).mu
    blocker = _coefficient_blockers(spec, p)
    if blocker is not None and blocker[0] is _Blocker.DENOMINATOR:
        return SharpnessRecord(p, a, mu, admissible, None, None, None, None, None,
                               None, blocker[1])
    count = count_points(spec, build_field(p, a))
    val = ord_q(count, p, a)
    observed = val == mu
    if blocker is not None:
        return SharpnessRecord(p, a, mu, admissible, count, val, None, None,
                               observed, None, blocker[1])
    value = hasse_value(system, p, spec.coefficients, a)
    predicted = value != 0
    unit_mod = p ** (a * mu)
    congruent = count % unit_mod == 0 and (count // unit_mod) % p == value
    return SharpnessRecord(p, a, mu, admissible, count, val, value, predicted,
                           observed, congruent)


def sharpness_scan(spec: VarietySpec, primes: list[int], a: int = 1,
                   theta: int | None = None) -> list[SharpnessRecord]:
    """Records for the given primes in order; inadmissible primes are scanned
    too but flagged, since only admissible ones carry the sharpness theorem."""
    system = spec.system
    if theta is None:
        theta = default_theta(system)
    D = denominator_set(system, minimal_data(system))
    limit = max(primes, default=2)
    admissible = set(admissible_primes(D, theta, limit))
    return [sharpness_record(spec, p, a, p in admissible) for p in primes]


def density_estimate(spec: VarietySpec, limit: int,
                     theta: int | None = None) -> DensityEstimate:
    """Observed fraction of admissible primes up to limit with ord = mu.

    This is an empirical window statistic, not the density itself.
    """
    if limit > 200:
        raise ValueError("density window is capped at 200")
    ps = [p for p in primes_upto(limit) if p > 2]
    records = sharpness_scan(spec, ps, a=1, theta=theta)
    usable = [rec for rec in records
              if rec.admissible and rec.skipped_reason is None]
    sharp = sum(1 for rec in usable if rec.observed_sharp)
    n_adm = sum(1 for rec in records if rec.admissible)
    return DensityEstimate(
        (3, limit), len(ps), n_adm, sharp,
        Fraction(sharp, len(usable)) if usable else Fraction(0),
        Fraction(n_adm, len(ps)) if ps else Fraction(0))


def _scalar(value) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def record_document(rec: SharpnessRecord) -> dict:
    return {
        "p": rec.p, "a": rec.a, "mu": rec.mu, "admissible": rec.admissible,
        "count": rec.count, "ord_q": _scalar(rec.ord_q),
        "hasse_value": rec.hasse_value, "predicted_sharp": rec.predicted_sharp,
        "observed_sharp": rec.observed_sharp, "congruent": rec.congruent,
        "skipped_reason": rec.skipped_reason,
    }


def density_document(est: DensityEstimate) -> dict:
    return {
        "window": list(est.window), "primes_considered": est.primes_considered,
        "admissible_count": est.admissible_count, "sharp_count": est.sharp_count,
        "sharp_fraction": _scalar(est.sharp_fraction),
        "admissible_fraction": _scalar(est.admissible_fraction),
        "note": "window estimate, not a density",
    }


def render_json(kind: str, body: dict) -> str:
    return json.dumps({"schema": SCHEMA, "kind": kind, **body}, indent=2)


def parse_report(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise SpecError(f"$.schema: expected {SCHEMA!r}")
    return data


def render_csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _scalar(row.get(k)) for k in fields})
    return buf.getvalue()
