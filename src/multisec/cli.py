"""Command-line front end: verification suites with deterministic reports.

Every subcommand checks its flags, runs one check of the library
(`strata`, `semigroup`, `witness` or `construct`), assembles a report
{subcommand, inputs, results, verdict} and renders it as line-oriented
text or as stable JSON (sorted keys, no timestamps), so identical
invocations are byte-identical.  Exit codes: 0 for verified/info, 1 for
refuted, 2 for bad input, 3 for an internal fault (any other exception,
reported as one stderr line naming the subcommand and the exception type).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import construct, semigroup, strata, witness


class UsageError(ValueError):
    """Bad flag value; rendered with the offending flag name, exit code 2."""


# Input caps that bound time and memory, timed cold (least of seven runs,
# bytecode compiled) on a 2-CPU x86_64 host with Python 3.11:
# `hypersurface --d 17 --n 17` about 0.09 s, `witness --a 2 --b 1 --e 10^12`
# about 0.5 s, 64 samples of height 10^100 about 0.1 s.  `semigroup` shares the
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


def _report(subcommand: str, inputs: dict, results: dict, ok: bool | None) -> dict:
    """The report of one run; `ok` None means the results carry no verdict."""
    verdict = "info" if ok is None else "verified" if ok else "refuted"
    return {
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
    }


def run_verify_construction(samples: tuple) -> dict:
    checks = [{"check": name, "ok": ok, "detail": detail, "informational": informational}
              for name, informational, ok, detail in construct.construction_checks(samples)]
    return _report("verify-construction", {"samples": [str(t) for t in samples]},
                   {"checks": checks},
                   all(c["ok"] for c in checks if not c["informational"]))


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
        inputs = {"d": _positive(args.d, "--d", MAX_D), "n": _positive(args.n, "--n")}
        return _report("hypersurface", inputs, *strata.check_hypersurface_pencil(**inputs))
    if args.subcommand == "enriques":
        return _report("enriques", {}, *strata.check_enriques_pencil())
    if args.subcommand == "semigroup":
        d = _positive(args.d, "--d", MAX_D)
        n = _positive(args.n, "--n")
        if args.query < 0:
            raise UsageError(f"--query must be nonnegative, got {args.query}")
        semi = semigroup.sdn_generators(d, n)
        results = semi.to_json_dict() | {"query": args.query,
                                         "contains": semi.contains(args.query)}
        return _report("semigroup", {"d": d, "n": n, "query": args.query}, results, None)
    if args.subcommand == "verify-construction":
        return run_verify_construction(_parse_samples(args.samples))
    if args.subcommand == "witness":
        inputs = {"a": _positive(args.a, "--a", MAX_E), "b": _positive(args.b, "--b", MAX_E)}
        if args.e is not None:
            inputs["e"] = _positive(args.e, "--e", MAX_E)
        return _report("witness", inputs, *witness.check_witness(**inputs))
    raise UsageError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_command(args)
        text = render_report(report, "json" if getattr(args, "json", False) else "text")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not a refutation
        print(f"error: {args.subcommand} failed: internal {type(exc).__name__}",
              file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0 if report["verdict"] in ("verified", "info") else 1


if __name__ == "__main__":
    raise SystemExit(main())
