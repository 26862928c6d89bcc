"""Self-test of the output checks in oracle.py.

    python3 bench/selftest.py

Each check must accept the program's answer and reject a deliberately
wrong one: a perturbed norm, a wrong dual point, a non-minimal (a, b), a
wrong row of the verify report's pullback table, and a few more.  Exits 1 if any check lets a wrong answer through or refuses
a right one.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracle
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from multisec import cli, construct  # noqa: E402

MS = SimpleNamespace(cli=cli, construct=construct)
FAILURES = []


def expect(name: str, problems: list, accepted: bool) -> None:
    if (not problems) != accepted:
        FAILURES.append(f"{name}: expected {'accept' if accepted else 'reject'}, "
                        f"got {problems or 'accept'}")


def answer(job):
    return workloads.summarize(job, workloads.prepare(job, MS)())


def edited(job, output, edit):
    """The CLI output of `job` with its JSON report changed by `edit`."""
    code, text = output
    report = json.loads(text)
    edit(report)
    return oracle.check(job, (code, json.dumps(report)))


def first_job(workload, kind):
    stream = workloads.JobStream(workload, 0)
    while True:
        for job in stream.next_round():
            if kind(job):
                return job


def test_norm():
    t0_plus_t1 = (Fraction(1), Fraction(1))
    expect("norm3(T0+T1) = U0 + U1",
           oracle.check_norm(3, t0_plus_t1, {(1, 0): Fraction(1), (0, 1): Fraction(1)}), True)
    expect("norm2(T0+T1) = U0 + U1",
           oracle.check_norm(2, t0_plus_t1, {(1, 0): Fraction(1), (0, 1): Fraction(1)}), False)
    job = first_job("norm-pullback", lambda j: j.kind == "norm" and j.spec[0] == 6
                    and len(j.spec[1]) == 9)
    norm = answer(job)
    expect("program norm", oracle.check(job, norm), True)
    exps = next(iter(norm))
    perturbed = {**norm, exps: norm[exps] + Fraction(1, 7)}
    expect("perturbed norm", oracle.check(job, perturbed), False)
    expect("norm of the wrong degree",
           oracle.check(job, {(e[0] + 1, e[1]): c for e, c in norm.items()}), False)


def test_dual_point():
    def problems(t, k, point):
        return [] if oracle.dual_point_ok(t, k, point) else ["not the dual point"]

    for t in (Fraction(1), Fraction(-7), Fraction(123456, 654321)):
        for k in range(6):
            right = oracle.jprime_at(t, k)
            expect(f"j'(s) at t={t} k={k}", problems(t, k, right), True)
            doubled = right[:1] + (right[1] * 2,) + right[2:]
            expect(f"wrong dual point at t={t} k={k}", problems(t, k, doubled), False)
            partner = oracle.jprime_at(t, (k + 3) % 6)
            expect(f"partner's dual point at t={t} k={k}", problems(t, k, partner), False)
    job = workloads.Job("verify", (Fraction(2), Fraction(-3, 5)))
    output = answer(job)
    expect("program verify-construction", oracle.check(job, output), True)

    def mismatch(report):
        for c in report["results"]["checks"]:
            if c["check"] == "derived_jprime_matches_closed_form":
                c["detail"]["mismatches"] = 1
    expect("reported mismatch", edited(job, output, mismatch), False)
    expect("refuted verdict",
           edited(job, output, lambda r: r.update(verdict="refuted")), False)

    def detail(name, change):
        def edit(report):
            for c in report["results"]["checks"]:
                if c["check"] == name:
                    change(c["detail"])
        return edit
    expect("pullback row with a wrong image", edited(job, output, detail(
        "pullback_table_rank", lambda d: d["rows"][3].update(image="T0^3*T1^2"))), False)
    expect("pullback rank 5", edited(job, output, detail(
        "pullback_table_rank", lambda d: d.update(rank=5))), False)
    expect("paired quadrics not matching", edited(job, output, detail(
        "paired_quadrics_descend", lambda d: d.update(matches_table_after_swap=False))), False)
    expect("normalized degree 4", edited(job, output, detail(
        "normalized_degrees", lambda d: d.update(j=4))), False)
    expect("norm2(T0 + T1) = U0 + U1", edited(job, output, detail(
        "norm_spot_checks", lambda d: d.update(norm2="U0 + U1"))), False)
    expect("pushforward twists (0, 1, 2)", edited(job, output, detail(
        "pushforward_splitting", lambda d: d.update(twists=[0, 1, 2]))), False)


def test_pullback():
    job = first_job("norm-pullback", lambda j: j.kind == "pullback")
    output = answer(job)
    expect("program pullback", oracle.check(job, output), True)
    wrong = copy.deepcopy(output)
    wrong["rank"] = 5
    expect("pullback rank 5", oracle.check(job, wrong), False)
    wrong = copy.deepcopy(output)
    pair, terms = wrong["rows"][0]
    wrong["rows"][0] = (pair, {e: -c for e, c in terms.items()})
    expect("negated pullback row", oracle.check(job, wrong), False)


def witness_report(report, a, b):
    n = 4 * a * b
    span = n - b - (a - 1) * (b - 1)
    report["results"].update(a=a, b=b, n=n, d=n - 1, min_degree_claim=n - 1,
                             span_bound=span, basepoint_ok=span + 1 <= n,
                             no_section_ok=report["results"]["e"] < n - 1)


def test_witness():
    # 4ab > 47 first holds at ab = 12: (1, 12), (2, 6) and (3, 4) tie
    job = workloads.Job("cli", ("witness", 1, 1, 46))
    output = answer(job)
    expect("program witness", oracle.check(job, output), True)
    expect("witness (1, 12) as found", [] if json.loads(output[1])["results"]["a"] == 1
           else ["tie not to the smaller a"], True)
    expect("non-minimal (a, b) = (1, 13)",
           edited(job, output, lambda r: witness_report(r, 1, 13)), False)
    expect("tie not broken to the smaller a: (2, 6)",
           edited(job, output, lambda r: witness_report(r, 2, 6)), False)
    expect("inadmissible (a, b) = (1, 11)",
           edited(job, output, lambda r: witness_report(r, 1, 11)), False)
    for e in (1, 2, 3, 5, 10 ** 6):
        for a_min in (1, 2, 3):
            for b_min in (1, 3):
                job = workloads.Job("cli", ("witness", a_min, b_min, e))
                expect(f"program witness {job.spec}", oracle.check(job, answer(job)), True)


def test_pencil():
    for spec in (("semigroup", 6, 3, 7), ("semigroup", 6, 3, 41), ("semigroup", 4, 2, 10),
                 ("semigroup", 7, 3, 15), ("semigroup", 7, 3, 14)):
        job = workloads.Job("cli", spec)
        output = answer(job)
        expect(f"program {spec}", oracle.check(job, output), True)
        flip = not json.loads(output[1])["results"]["contains"]
        expect(f"flipped membership {spec}",
               edited(job, output, lambda r: r["results"].update(contains=flip)), False)
    job = workloads.Job("cli", ("hypersurface", 7, 3))
    output = answer(job)
    expect("program hypersurface", oracle.check(job, output), True)
    expect("wrong hypersurface divisor",
           edited(job, output, lambda r: r["results"]["divisors"].__setitem__(1, 20)), False)
    job = workloads.Job("cli", ("enriques",))
    output = answer(job)
    expect("program enriques", oracle.check(job, output), True)
    expect("enriques index 2",
           edited(job, output, lambda r: r["results"]["index"].update(exact=2)), False)


def main() -> int:
    for test in (test_norm, test_dual_point, test_pullback, test_witness, test_pencil):
        test()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if FAILURES else "every check accepts the right "
          "answer and rejects the wrong ones")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
