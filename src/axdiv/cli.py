"""Command-line workbench.

Exit codes are a stable contract: 0 all checks pass, 1 a mathematical check
failed, 2 input error.  Reports go to stdout as text (default), JSON
(schema axdiv/1), or CSV.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .bounds import bound_report
from .corpus import generate_corpus
from .dwork import GammaError, NonIntegralError, trace_formula_count
from .ffcount import CountGuardError, _is_prime, build_field, count_points, count_report
from .hasse import checked_hasse_polynomial
from .lattice import ConsistencyError, WeightUnreachableError
from .model import (
    SpecError,
    VarietySpec,
    parse_variety_spec,
    serialize_variety_spec,
    variety_spec_to_json,
)
from .reports import (
    density_document,
    density_estimate,
    record_document,
    render_csv,
    render_json,
    sharpness_scan,
)
from .representations import conditional_number, primes_upto

_RANGE_RE = re.compile(r"([0-9]+)\.\.([0-9]+)\Z")

RECORD_FIELDS = ["p", "a", "mu", "admissible", "count", "ord_q", "hasse_value",
                 "predicted_sharp", "observed_sharp", "congruent", "skipped_reason"]


class InputError(Exception):
    pass


def _load_spec(path: str) -> VarietySpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_variety_spec(text)


def _prime_list(args) -> list[int]:
    if getattr(args, "prime", None) is not None:
        return [args.prime]
    if getattr(args, "primes", None) is not None:
        m = _RANGE_RE.match(args.primes)
        if not m:
            raise InputError("--primes expects LO..HI")
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise InputError("--primes range is empty")
        return [p for p in primes_upto(hi) if p >= lo]
    raise InputError("one of --prime or --primes is required")


def _emit(args, kind: str, body: dict, text_lines: list[str],
          csv_rows: list[dict] | None = None, csv_fields: list[str] | None = None) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(render_json(kind, body))
    elif fmt == "csv":
        if csv_rows is None:
            raise InputError(f"no CSV form for {kind} reports")
        print(render_csv(csv_rows, csv_fields or list(csv_rows[0])), end="")
    else:
        for line in text_lines:
            print(line)


def cmd_bounds(args) -> int:
    spec = _load_spec(args.spec)
    report = bound_report(spec.system, p=args.prime or 2, a=args.a)
    body = {
        "ax_katz": report.ax_katz, "ax_katz_vacuous": report.ax_katz_vacuous,
        "moreno_moreno": str(report.moreno_moreno),
        "w_polytope": report.w_polytope, "mu": report.mu_polytope,
        "mu_combinatorial": report.mu_combinatorial,
    }
    lines = [f"ax_katz: {report.ax_katz}" + (" (vacuous)" if report.ax_katz_vacuous else ""),
             f"moreno_moreno (p={args.prime or 2}, a={args.a}): {report.moreno_moreno}",
             f"w (polytope): {report.w_polytope}",
             f"mu: {report.mu_polytope} (combinatorial route agrees: "
             f"{report.mu_combinatorial == report.mu_polytope})"]
    _emit(args, "bounds", body, lines, [body], list(body))
    return 0


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    primes = _prime_list(args)
    records = sharpness_scan(spec, primes, a=args.a, theta=args.theta)
    rows = [record_document(rec) for rec in records]
    lines = []
    failed = False
    for rec in records:
        if rec.skipped_reason is not None:
            lines.append(f"p={rec.p}: skipped ({rec.skipped_reason})")
            continue
        lines.append(
            f"p={rec.p} a={rec.a}: count={rec.count} ord_q={rec.ord_q} mu={rec.mu} "
            f"H={rec.hasse_value} congruent={rec.congruent} "
            f"sharp predicted/observed={rec.predicted_sharp}/{rec.observed_sharp}"
            + ("" if rec.admissible else " (inadmissible, informative only)"))
        if rec.congruent is False or (rec.admissible and
                                      rec.predicted_sharp != rec.observed_sharp):
            failed = True
    _emit(args, "verify", {"records": rows}, lines, rows, RECORD_FIELDS)
    return 1 if failed else 0


def cmd_density(args) -> int:
    spec = _load_spec(args.spec)
    est = density_estimate(spec, args.limit, theta=args.theta)
    body = density_document(est)
    lines = [f"primes <= {args.limit}: {est.primes_considered}",
             f"admissible: {est.admissible_count} "
             f"(fraction {est.admissible_fraction})",
             f"sharp among admissible: {est.sharp_count} "
             f"(fraction {est.sharp_fraction})",
             "note: window estimate, not a density"]
    _emit(args, "density", body, lines, [body], list(body))
    return 0


def cmd_conditional(args) -> int:
    spec = _load_spec(args.spec)
    report = conditional_number(spec.system)
    c_text = "undefined" if report.c_value is None else str(report.c_value)
    body = {
        "D": sorted(report.D_set), "sparsity": report.sparsity, "c": report.c_value,
        "warnings": list(report.warnings),
    }
    lines = [f"D: {sorted(report.D_set)}",
             f"sparsity criterion: {report.sparsity}",
             f"c: {c_text}"]
    if report.c_value:
        lines.append("prediction: sharp for all large admissible primes")
    lines.extend(f"warning: {w}" for w in report.warnings)
    _emit(args, "conditional", body, lines, [body], list(body))
    return 0


def cmd_hasse(args) -> int:
    spec = _load_spec(args.spec)
    H, hom = checked_hasse_polynomial(spec.system, args.prime, args.a)
    body = {"p": args.prime, "a": args.a, "polynomial": str(H),
            "homogeneous": hom.ok, "issues": list(hom.issues)}
    lines = [f"H_{args.prime}^[{args.a}] = {H}",
             f"structure checks: {'ok' if hom.ok else '; '.join(hom.issues)}"]
    _emit(args, "hasse", body, lines, [body], list(body))
    return 0 if hom.ok else 1


def cmd_count(args) -> int:
    spec = _load_spec(args.spec)
    report = count_report(spec, args.prime, args.a)
    body = {"p": report.p, "a": report.a, "count": report.count,
            "ord_q": str(report.valuation), "mu": report.mu,
            "meets_bound": report.meets_bound}
    lines = [f"|V(F_{report.p}^{report.a})| = {report.count}",
             f"ord_q = {report.valuation}, mu = {report.mu}, "
             f"bound met: {report.meets_bound}"]
    _emit(args, "count", body, lines, [body], list(body))
    return 0 if report.meets_bound else 1


def cmd_dwork(args) -> int:
    spec = _load_spec(args.spec)
    p = args.prime
    trace = trace_formula_count(spec, p, m=args.precision, T=args.truncation)
    exact = count_points(spec, build_field(p, 1))
    expected = exact % trace.modulus
    match = trace.residue == expected
    body = {"p": p, "T": trace.T, "s": trace.s, "modulus": trace.modulus,
            "trace_residue": trace.residue, "exact_residue": expected,
            "exact_count": exact, "match": match}
    lines = [f"trace formula residue mod {trace.modulus}: {trace.residue}",
             f"exact count {exact} mod {trace.modulus}: {expected}",
             f"window: p^{trace.window} (T={trace.T}, s={trace.s})",
             "match" if match else "MISMATCH"]
    _emit(args, "dwork", body, lines, [body], list(body))
    return 0 if match else 1


def cmd_corpus(args) -> int:
    specs = generate_corpus(args.seed, args.count)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for idx, spec in enumerate(specs):
            path = outdir / f"system-{args.seed}-{idx:03d}.json"
            path.write_text(variety_spec_to_json(spec) + "\n", encoding="utf-8")
        print(f"wrote {len(specs)} files to {outdir} (seed {args.seed})")
        return 0
    body = {"seed": args.seed, "count": args.count,
            "systems": [serialize_variety_spec(spec) for spec in specs]}
    print(render_json("corpus", body) if args.format == "json"
          else json.dumps(body["systems"], indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axdiv",
        description="p-divisibility bounds, Hasse polynomials, and sharpness "
                    "verification for point counts of affine varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, spec_file=True):
        if spec_file:
            sp.add_argument("spec", help="variety spec file (JSON)")
        sp.add_argument("--format", choices=["json", "csv", "text"], default="text")

    sp = sub.add_parser("bounds", help="Ax-Katz, digit-sum, and polytope bounds")
    common(sp)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--a", type=int, default=1, choices=[1, 2])
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="count vs Hasse value per prime")
    common(sp)
    sp.add_argument("--prime", type=int)
    sp.add_argument("--primes", help="LO..HI")
    sp.add_argument("--a", type=int, default=1, choices=[1, 2])
    sp.add_argument("--theta", type=int)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("density", help="sharp fraction over a prime window")
    common(sp)
    sp.add_argument("--limit", type=int, default=100)
    sp.add_argument("--theta", type=int)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("conditional", help="denominators, sparsity, conditional number")
    common(sp)
    sp.set_defaults(func=cmd_conditional)

    sp = sub.add_parser("hasse", help="print the Hasse polynomial")
    common(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--a", type=int, default=1, choices=[1, 2])
    sp.set_defaults(func=cmd_hasse)

    sp = sub.add_parser("count", help="exact point count over F_{p^a}")
    common(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--a", type=int, default=1, choices=[1, 2, 3])
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("dwork", help="truncated trace formula vs exact count")
    common(sp)
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--precision", type=int)
    sp.add_argument("--truncation", type=int, default=2)
    sp.set_defaults(func=cmd_dwork)

    sp = sub.add_parser("corpus", help="write seeded random systems")
    common(sp, spec_file=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--out", help="directory for one JSON file per system")
    sp.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every --prime is checked here, before any subcommand reads it
        if getattr(args, "prime", None) is not None and not _is_prime(args.prime):
            raise InputError(f"p = {args.prime} is not a prime")
        return args.func(args)
    except (NonIntegralError, GammaError, ConsistencyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, SpecError, CountGuardError, WeightUnreachableError, OSError,
            ValueError, ZeroDivisionError) as exc:
        # ValueError from the library means the request was out of scope
        # (constant terms, oversized a, ...), and an uncovered variable gives
        # no weight at all: both are input problems here.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
