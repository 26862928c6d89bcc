"""Command-line front end: verification suites with deterministic reports.

Every subcommand assembles a report {subcommand, inputs, results, verdict}
and renders it as line-oriented text or as stable JSON (sorted keys, no
timestamps), so identical invocations are byte-identical.  Exit codes:
0 for verified/info, 1 for refuted, 2 for bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import construct, semigroup, strata, witness
from .strata import index_and_degree_report


class UsageError(ValueError):
    """Bad flag value; rendered with the offending flag name, exit code 2."""


# Input caps that bound time and memory, timed on a 2-CPU x86_64 host with
# Python 3.11: `hypersurface --d 17 --n 17` about 0.4 s cold, `witness --e 10^12`
# about 0.8 s, 64 samples of height 10^100 about 0.8 s.  `semigroup` shares the
# cap on --d, which also bounds its O(k * d) Apery-set precompute; `witness`
# --a and --b share the cap on --e, which keeps n = 4ab far below the digit
# limit on printing integers.
MAX_D = 17
MAX_E = 10 ** 12
MAX_SAMPLES = 64
MAX_HEIGHT_DIGITS = 100  # sample numerators and denominators at most 10^100


def _positive(value: int, flag: str, cap: int | None = None) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be a positive integer, got {value}")
    if cap is not None and value > cap:
        raise UsageError(f"{flag} must be at most {cap}, got {value}")
    return value


def _report(subcommand: str, inputs: dict, results: dict, verdict: str) -> dict:
    return {
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
    }


def run_hypersurface(d: int, n: int) -> dict:
    model = strata.hypersurface_pencil_model(d, n)
    report = index_and_degree_report(model)
    semi = semigroup.sdn_generators(d, n)
    min_positive, g = semigroup.semigroup_min_and_gcd(semi)
    results = report.to_json_dict()
    results["semigroup"] = {
        "generators": list(semi.generators),
        "min": min_positive,
        "gcd": g,
    }
    results["strata"] = [
        {"name": s.name, "divisor": s.divisor} for s in model.strata]
    checks_ok = (report.divisors == semi.generators
                 and report.min_degree_lower == min_positive
                 and report.index_divisor_lower == g)
    return _report("hypersurface", {"d": d, "n": n}, results,
                   "verified" if checks_ok else "refuted")


def run_enriques() -> dict:
    cover = strata.k3_cover_pencil_model()
    model = strata.enriques_pencil_model()
    report = index_and_degree_report(model)
    results = report.to_json_dict()
    results["cover_divisors"] = list(cover.divisors())
    results["realized_provenance"] = [
        {"degree": r.degree, "provenance": r.provenance}
        for r in model.realized_degrees]
    ok = (cover.divisors() == (8, 12, 6)
          and report.divisors == (4, 6, 3)
          and report.exact_min == 3
          and report.exact_index == 1)
    return _report("enriques", {}, results, "verified" if ok else "refuted")


def run_semigroup(d: int, n: int, query: int) -> dict:
    semi = semigroup.sdn_generators(d, n)
    min_positive, g = semigroup.semigroup_min_and_gcd(semi)
    results = {
        "generators": list(semi.generators),
        "min": min_positive,
        "gcd": g,
        "query": query,
        "contains": semi.contains(query),
    }
    return _report("semigroup", {"d": d, "n": n, "query": query}, results, "info")


def run_witness(a: int, b: int, e: int | None) -> dict:
    if e is None:
        report = witness.witness_parameters(a, b)
        ok = report.basepoint_ok
    else:
        report = witness.choose_ab_and_certify(a, b, e)
        ok = report.basepoint_ok and bool(report.no_section_ok)
    inputs = {"a": a, "b": b}
    if e is not None:
        inputs["e"] = e
    return _report("witness", inputs, report.to_json_dict(),
                   "verified" if ok else "refuted")


def _check(name: str, ok: bool, detail, informational: bool = False) -> dict:
    return {"check": name, "ok": ok, "detail": detail,
            "informational": informational}


def run_verify_construction(samples: tuple) -> dict:
    j = construct.corrected_j()
    jp = construct.corrected_jprime()
    action = construct.standard_weight_action()
    dual_action = construct.dual_weight_action()
    checks: list[dict] = []

    eq_j = construct.check_weighted_equivariance(j, action)
    checks.append(_check("equivariance_j_corrected",
                         eq_j.ok and eq_j.offset == 0,
                         {"status": eq_j.status, "offset": eq_j.offset}))

    eq_printed = construct.check_weighted_equivariance(construct.printed_j(), action)
    checks.append(_check("equivariance_j_printed_flagged",
                         eq_printed.status == "not-homogeneous",
                         {"status": eq_printed.status,
                          "entry_degrees": [d["degree"] for d in eq_printed.entry_details]},
                         informational=True))

    eq_jp = construct.check_weighted_equivariance(jp, dual_action)
    checks.append(_check("equivariance_jprime_corrected",
                         eq_jp.ok and eq_jp.offset == 5,
                         {"status": eq_jp.status, "offset": eq_jp.offset}))

    printed_jp = construct.printed_jprime_entries()
    deduped = construct.dedupe_consecutive_entries(printed_jp)
    checks.append(_check("printed_jprime_deduplicates_to_corrected",
                         deduped == jp.entries,
                         {"printed_entries": len(printed_jp),
                          "deduplicated_entries": len(deduped)},
                         informational=True))

    comparison = construct.derive_jprime_and_compare(j, jp, samples)
    checks.append(_check("derived_jprime_matches_closed_form",
                         comparison.all_match,
                         {"samples": [str(t) for t in comparison.samples],
                          "point_checks": len(comparison.checks),
                          "mismatches": len(comparison.mismatches())}))

    table = construct.quadratic_pullback_table(jp)
    table_rows = [{"monomial": f"{a}*{b}", "image": q.canonical_str()}
                  for (a, b), q in table.rows]
    checks.append(_check("pullback_table_rank",
                         table.rank == 6,
                         {"rank": table.rank, "rows": table_rows}))

    family = construct.paired_quadric_descend(j)
    degrees_ok = all(q.is_homogeneous() and q.total_degree() == 5
                     for q in family.coefficients.values())
    # the paired family reproduces the table rows after swapping the curve
    # coordinates, up to the block sign and the off-diagonal factor 2
    swap_ok = True
    for (a, b), quintic in table.rows:
        sign = 1 if a.startswith("X+") else -1
        factor = 1 if a == b else 2
        expected = (sign * factor) * quintic.apply_variable_permutation((1, 0))
        if family.coefficient(a, b) != expected:
            swap_ok = False
    checks.append(_check("paired_quadrics_descend",
                         degrees_ok and swap_ok,
                         {"coefficient_degree_5": degrees_ok,
                          "matches_table_after_swap": swap_ok}))

    degree_j = construct.normalized_map_degree(j)
    degree_jp = construct.normalized_map_degree(jp)
    checks.append(_check("normalized_degrees",
                         degree_j == 5 and degree_jp == 5,
                         {"j": degree_j, "jprime": degree_jp}))

    t0_plus_t1 = construct.SparseMultiPoly(
        construct.CURVE_VARS, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    norm3 = construct.monomial_norm(t0_plus_t1, 3)
    norm2 = construct.monomial_norm(t0_plus_t1, 2)
    checks.append(_check("norm_spot_checks",
                         norm3.canonical_str() == "U0 + U1"
                         and norm2.canonical_str() == "-U0 + U1",
                         {"norm3": norm3.canonical_str(),
                          "norm2": norm2.canonical_str()}))

    splitting = construct.pushforward_splitting_type(3, 5)
    checks.append(_check("pushforward_splitting",
                         splitting == (1, 1, 1),
                         {"twists": list(splitting)}))

    verified = all(c["ok"] for c in checks if not c["informational"])
    results = {"checks": checks}
    return _report("verify-construction",
                   {"samples": [str(Fraction(t)) for t in samples]},
                   results, "verified" if verified else "refuted")


def render_report(report: dict, output_format: str) -> str:
    """Stable rendering: sorted-key JSON or one line per entry/check."""
    if output_format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"subcommand: {report['subcommand']}"]
    for key, value in sorted(report["inputs"].items()):
        lines.append(f"input {key} = {value}")
    results = report["results"]
    if "checks" in results:
        for c in results["checks"]:
            status = "ok" if c["ok"] else "FAIL"
            tag = " (informational)" if c["informational"] else ""
            lines.append(f"{status:4s} {c['check']}{tag}")
    else:
        for key, value in sorted(results.items()):
            lines.append(f"{key} = {json.dumps(value, sort_keys=True)}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def _parse_samples(text: str) -> tuple:
    parts = text.split(",")
    try:  # read each exponent before Fraction expands it to 10**exponent
        huge = len(parts) > MAX_SAMPLES or any(
            abs(int(p.lower().partition("e")[2] or 0)) > MAX_HEIGHT_DIGITS for p in parts)
        values = () if huge else tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--samples must be comma-separated rationals: {exc}")
    cap = 10 ** MAX_HEIGHT_DIGITS
    if huge or any(abs(t.numerator) > cap or t.denominator > cap for t in values):
        raise UsageError(f"--samples takes at most {MAX_SAMPLES} values, each of "
                         f"height at most 10^{MAX_HEIGHT_DIGITS}")
    if 0 in values or len(set(values)) != len(values):
        raise UsageError("--samples must be pairwise distinct nonzero values")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisec",
        description="Exact verification of multi-section degree bounds.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_hyp = sub.add_parser("hypersurface",
                           help="divisor and index report for a hypersurface pencil")
    p_hyp.add_argument("--d", type=int, required=True,
                       help=f"fiber degree, at most {MAX_D}")
    p_hyp.add_argument("--n", type=int, required=True, help="twisting degree")
    p_hyp.add_argument("--json", action="store_true")

    p_enr = sub.add_parser("enriques",
                           help="cube-strata report for the quotient pencil")
    p_enr.add_argument("--json", action="store_true")

    p_semi = sub.add_parser("semigroup", help="degree-semigroup membership")
    p_semi.add_argument("--d", type=int, required=True, help=f"at most {MAX_D}")
    p_semi.add_argument("--n", type=int, required=True)
    p_semi.add_argument("--query", type=int, required=True)
    p_semi.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify-construction",
                           help="full exact-arithmetic construction suite")
    p_ver.add_argument("--samples", type=str, default="1,2,3,5,7",
                       help=f"at most {MAX_SAMPLES} distinct nonzero rationals of "
                            f"height at most 10^{MAX_HEIGHT_DIGITS}, comma-separated; "
                            "a list that starts with a negative one needs --samples=-1,2")
    p_ver.add_argument("--json", action="store_true")

    p_wit = sub.add_parser("witness", help="witness-family arithmetic")
    p_wit.add_argument("--a", type=int, required=True, help=f"at most {MAX_E}")
    p_wit.add_argument("--b", type=int, required=True, help=f"at most {MAX_E}")
    p_wit.add_argument("--e", type=int, default=None, help=f"at most {MAX_E}")
    p_wit.add_argument("--json", action="store_true")

    return parser


def run_command(args: argparse.Namespace) -> dict:
    if args.subcommand == "hypersurface":
        return run_hypersurface(_positive(args.d, "--d", MAX_D), _positive(args.n, "--n"))
    if args.subcommand == "enriques":
        return run_enriques()
    if args.subcommand == "semigroup":
        d = _positive(args.d, "--d", MAX_D)
        n = _positive(args.n, "--n")
        if args.query < 0:
            raise UsageError(f"--query must be nonnegative, got {args.query}")
        return run_semigroup(d, n, args.query)
    if args.subcommand == "verify-construction":
        return run_verify_construction(_parse_samples(args.samples))
    if args.subcommand == "witness":
        a = _positive(args.a, "--a", MAX_E)
        b = _positive(args.b, "--b", MAX_E)
        e = args.e if args.e is None else _positive(args.e, "--e", MAX_E)
        return run_witness(a, b, e)
    raise UsageError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output_format = "json" if getattr(args, "json", False) else "text"
    sys.stdout.write(render_report(report, output_format))
    return 0 if report["verdict"] in ("verified", "info") else 1


if __name__ == "__main__":
    raise SystemExit(main())
