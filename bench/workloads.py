"""Seeded job streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
template of job shapes (kind and size band; on pencil-degrees the
hypersurface band rotates over three rounds); the seed picks the values
inside each band and the order of the jobs inside the round.  Running whole
rounds keeps the cost mix of a run the same whatever the seed, so the
medians compare across seeds.  Inputs are redrawn until they are new to
the run, and so are the single samples of dual-derive, so a cache of
repeated inputs finds nothing to reuse.  The exceptions are the input-free
`enriques` job and the work of pencil-degrees' `hypersurface` and
dynamic-program `semigroup` jobs, which depends only on (d, min(d, n)):
with d up to 14 there are 104 such pairs, fewer than a run has jobs, so
`Repeats` counts how much of that work a run has already done.

Jobs are plain data.  `prepare` turns one into a zero-argument call on the
live `multisec` modules, and `summarize` turns the call's result into plain
data for the output checks, so nothing here imports the program.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

WORKLOADS = ("dual-derive", "norm-pullback", "pencil-degrees")

# The CLI's default sample list; it is the five-sample job of round 0.
DEFAULT_SAMPLES = (1, 2, 3, 5, 7)

NORM_DEGREES = tuple(range(1, 9))
COVER_DEGREES = (2, 3, 4, 6)
PULLBACK_JOBS_PER_ROUND = 8


@dataclass(frozen=True)
class Job:
    kind: str
    spec: tuple  # hashable plain data; distinct within a run


def _nonzero_fraction(rng: random.Random, top: int) -> Fraction:
    num = rng.randint(1, top) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, top))


def _dual_sample(rng: random.Random) -> Fraction:
    # small integers mixed with rationals of six-digit numerator/denominator
    if rng.random() < 0.5:
        return Fraction(rng.randint(1, 10 ** 4) * rng.choice((1, -1)))
    return Fraction(rng.randint(10 ** 5, 10 ** 6 - 1) * rng.choice((1, -1)),
                    rng.randint(10 ** 5, 10 ** 6 - 1))


def _distinct(seen, draw, attempts=1000):
    # redraw a repeated input; a band whose inputs are used up repeats one.
    # `seen` keeps hashes, so memory barely grows with the run's length; a
    # collision of two different inputs would only cost a redraw.
    for _ in range(attempts):
        spec = draw()
        if hash(spec) not in seen:
            break
    seen.add(hash(spec))
    return spec


def _dual_samples(rng, size, used):
    # the program derives each sample on its own, so no sample repeats in a
    # run, not only no job; the samples of a job are thus pairwise distinct
    samples = []
    while len(samples) < size:
        t = _dual_sample(rng)
        if t not in used:
            used.add(t)
            samples.append(t)
    return tuple(samples)


def _dual_derive_round(rng, index, seen, used):
    jobs = []
    for size in range(1, 6):
        if index == 0 and size == 5:
            samples = tuple(Fraction(t) for t in DEFAULT_SAMPLES)
        else:
            samples = _dual_samples(rng, size, used)
        jobs.append(Job("verify", samples))
    return jobs


def _dual_cycles():
    # the samples used in the run, the CLI default's among them from the start
    return {Fraction(t) for t in DEFAULT_SAMPLES}


def _binary_form(rng, m):
    # every coefficient nonzero, so the term count (and the cost) is fixed
    return tuple(_nonzero_fraction(rng, 99 if i % 2 else 9) for i in range(m + 1))


# The fixture maps' entries are rescaled by these nonzero rationals; the
# rescaled maps stay equivariant and descendable.
def _rescaling(rng):
    return tuple(_nonzero_fraction(rng, 999) for _ in range(6))


def _norm_pullback_round(rng, index, seen, cycles):
    jobs = [Job("norm", _distinct(seen, lambda: (d, _binary_form(rng, m))))
            for m in NORM_DEGREES for d in COVER_DEGREES]
    jobs += [Job("pullback", _distinct(seen, lambda: (_rescaling(rng), _rescaling(rng))))
             for _ in range(PULLBACK_JOBS_PER_ROUND)]
    return jobs


def semigroup_gcd(d: int, n: int) -> int:
    return gcd(*(comb(d, i) for i in range(1, min(d, n) + 1)))


# (d, n) with n < d: coprime generators take the dynamic program, the
# others are rejected by the gcd test before it.
_COPRIME_PAIRS = tuple((d, n) for d in range(2, 15) for n in range(1, d)
                       if semigroup_gcd(d, n) == 1)
_NONCOPRIME_PAIRS = tuple((d, n) for d in range(2, 15) for n in range(1, d)
                          if semigroup_gcd(d, n) > 1)

HYPERSURFACE_BANDS = ((2, 8), (9, 11), (12, 14))
QUERY_BANDS = ((10, 10 ** 3), (10 ** 3, 10 ** 5), (5 * 10 ** 5, 10 ** 6))
WITNESS_BANDS = ((1, 10 ** 3), (10 ** 3, 10 ** 5), (5 * 10 ** 5, 10 ** 6))


class _Cycle:
    """Seeded draws from a finite list without replacement, restarting when used up.

    Over a run every item is drawn about equally often, so the cost of the
    jobs built from them hardly depends on the seed.
    """

    def __init__(self, items):
        self.items = list(items)
        self.left: list = []

    def draw(self, rng):
        if not self.left:
            self.left = self.items[:]
            rng.shuffle(self.left)
        return self.left.pop()


def _pencil_cycles():
    # the work of a hypersurface job depends only on (d, min(d, n)), so each
    # band deals n = 1..d: every pair is distinct work until the band is used up
    return {
        "hypersurface": [_Cycle((d, n) for d in range(lo, hi + 1) for n in range(1, d + 1))
                         for lo, hi in HYPERSURFACE_BANDS],
        "coprime": [_Cycle(_COPRIME_PAIRS) for _ in QUERY_BANDS],
        "noncoprime": _Cycle(_NONCOPRIME_PAIRS),
        "witness": [_Cycle((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
                    for _ in WITNESS_BANDS],
    }


def _semigroup(rng, pair, lo, hi):
    d, n = pair
    g = semigroup_gcd(d, n)
    query = rng.randint(lo, hi)
    if g > 1 and query % g == 0:
        query += 1  # keep the gcd-rejected queries off the dynamic program
    return ("semigroup", d, n, query)


def _pencil_round(rng, index, seen, cycles):
    # enriques takes no input, so it is the one job that repeats every round;
    # the hypersurface band rotates with the round, each band's (d, n) pairs
    # coming up once before any repeats
    specs = [("enriques",),
             ("hypersurface", *cycles["hypersurface"][index % 3].draw(rng))]
    specs += [_distinct(seen, lambda: _semigroup(rng, pairs.draw(rng), lo, hi))
              for pairs, (lo, hi) in zip(cycles["coprime"], QUERY_BANDS)]
    specs += [_distinct(seen, lambda: _semigroup(rng, cycles["noncoprime"].draw(rng),
                                                 1, 10 ** 6))
              for _ in range(2)]
    specs += [_distinct(seen, lambda: ("witness", *pairs.draw(rng), rng.randint(lo, hi)))
              for pairs, (lo, hi) in zip(cycles["witness"], WITNESS_BANDS)]
    return [Job("cli", spec) for spec in specs]


_ROUND_MAKERS = {
    "dual-derive": (_dual_derive_round, _dual_cycles),
    "norm-pullback": (_norm_pullback_round, dict),
    "pencil-degrees": (_pencil_round, _pencil_cycles),
}


class Repeats:
    """How much of the run's pencil-degrees work was done before in the run.

    A `hypersurface` or `semigroup` job builds the semigroup of (d, min(d, n)),
    and a `hypersurface` job decomposes `perm.induced_subset_action(d, i)` for
    i = 1..min(d, n).  A cache kept across jobs would reuse whatever repeats,
    so these shares say how far such a cache could read as a gain.
    """

    def __init__(self):
        self._seen: set = set()
        self.counts = {"hypersurface": [0, 0], "semigroup": [0, 0], "subset_action": [0, 0]}

    def _add(self, kind, key):
        count = self.counts[kind]
        count[0] += 1
        count[1] += (kind, key) in self._seen
        self._seen.add((kind, key))

    def add(self, job: Job) -> None:
        if job.kind != "cli" or job.spec[0] not in ("hypersurface", "semigroup"):
            return
        kind, d, n = job.spec[:3]
        m = min(d, n)
        self._add(kind, (d, m))
        if kind == "hypersurface":
            for i in range(1, m + 1):
                self._add("subset_action", (d, i))

    def shares(self) -> dict:
        """{kind: [calls, repeated calls, repeated share]}"""
        return {kind: [total, again, again / total if total else 0.0]
                for kind, (total, again) in self.counts.items()}


class JobStream:
    """The rounds of one workload for one seed, generated in order."""

    def __init__(self, workload: str, seed: int):
        if workload not in _ROUND_MAKERS:
            raise ValueError(f"unknown workload {workload!r}")
        self._rng = random.Random(f"{workload}/{seed}")
        self._make, make_cycles = _ROUND_MAKERS[workload]
        self._cycles = make_cycles()
        self._seen: set = set()
        self.rounds = 0
        self.repeats = Repeats()

    def next_round(self) -> list[Job]:
        jobs = self._make(self._rng, self.rounds, self._seen, self._cycles)
        self.rounds += 1
        self._rng.shuffle(jobs)
        for job in jobs:
            self.repeats.add(job)
        return jobs


def cli_argv(job: Job) -> list[str]:
    if job.kind == "verify":
        if job.spec == tuple(Fraction(t) for t in DEFAULT_SAMPLES):
            return ["verify-construction", "--json"]
        # the '=' form keeps a leading minus sign from reading as a flag
        return ["verify-construction", "--json",
                "--samples=" + ",".join(str(t) for t in job.spec)]
    kind, *args = job.spec
    if kind == "enriques":
        return ["enriques", "--json"]
    if kind == "hypersurface":
        d, n = args
        return ["hypersurface", "--d", str(d), "--n", str(n), "--json"]
    if kind == "semigroup":
        d, n, query = args
        return ["semigroup", "--d", str(d), "--n", str(n),
                "--query", str(query), "--json"]
    a, b, e = args
    return ["witness", "--a", str(a), "--b", str(b), "--e", str(e), "--json"]


def label(job: Job) -> str:
    """The job's shape: kind and size, the same in every round."""
    if job.kind == "verify":
        return f"verify-{len(job.spec)}"
    if job.kind == "norm":
        return f"norm-m{len(job.spec[1]) - 1}-d{job.spec[0]}"
    if job.kind == "pullback":
        return "pullback"
    return job.spec[0]


def run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def prepare(job: Job, ms):
    """A zero-argument call running the job on the live modules `ms`."""
    if job.kind in ("verify", "cli"):
        argv = cli_argv(job)
        return lambda: run_cli(ms.cli, argv)
    construct = ms.construct
    if job.kind == "norm":
        d, coeffs = job.spec
        m = len(coeffs) - 1
        p = construct.SparseMultiPoly(
            construct.CURVE_VARS, {(i, m - i): c for i, c in enumerate(coeffs)})
        return lambda: construct.monomial_norm(p, d)
    cj, cjp = job.spec
    j, jp = construct.corrected_j(), construct.corrected_jprime()
    j = construct.ProjectiveCurveMap(
        j.source_vars, tuple(e * c for e, c in zip(j.entries, cj)), j.target_labels)
    jp = construct.ProjectiveCurveMap(
        jp.source_vars, tuple(e * c for e, c in zip(jp.entries, cjp)),
        jp.target_labels)

    def pullback():
        return (construct.quadratic_pullback_table(jp),
                construct.paired_quadric_descend(j),
                construct.normalized_map_degree(j),
                construct.normalized_map_degree(jp))
    return pullback


def _terms(poly) -> dict:
    return dict(poly.terms)


def summarize(job: Job, result):
    """Plain data from a job's result, for checks made after the run."""
    if job.kind in ("verify", "cli"):
        return result  # (exit code, stdout)
    if job.kind == "norm":
        return _terms(result)
    table, family, degree_j, degree_jp = result
    return {
        "rows": [(pair, _terms(q)) for pair, q in table.rows],
        "rank": table.rank,
        "family": {pair: _terms(q) for pair, q in family.coefficients.items()},
        "degree_j": degree_j,
        "degree_jp": degree_jp,
    }


def warmup_job(workload: str) -> Job:
    """The fixed job that every set-up runs once."""
    if workload == "dual-derive":
        return Job("verify", (Fraction(1),))
    if workload == "norm-pullback":
        return Job("pullback", ((Fraction(1),) * 6, (Fraction(1),) * 6))
    return Job("cli", ("enriques",))
