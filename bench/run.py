"""Closed-loop benchmark of the multisec verifier.

    python3 bench/run.py --workload dual-derive --seed 1 --seconds 40 --trace 0

One client, no threads: each job starts when the previous one has ended.
The run imports `multisec` from `src/` of the checkout it sits in and runs
whole rounds of seeded jobs (see workloads.py) until `--seconds` have
passed, setting the program up afresh at several points of that window.
Only the program's calls are timed.  Peak RSS is read before the output
checks (oracle.py) are imported; the checks then run on every job's output.

With `--trace 0` the last line of stdout is one JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run over a fixed job set (see spans.py).  Full results go to
bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import pickle
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

# The highest percentile with at least ten jobs beyond it at the default run
# length, fixed per workload; for dual-derive it falls among the five-sample
# jobs, which are the top fifth of every round.
TAIL_PERCENTILE = {"dual-derive": 85, "norm-pullback": 99, "pencil-degrees": 99}
SETUPS = 5
MIN_ROUNDS = 2
# Traced runs cover this many rounds, so their counts repeat exactly.
TRACE_ROUNDS = {"dual-derive": 2, "norm-pullback": 12, "pencil-degrees": 12}
FIXTURES = ("j_printed", "j_corrected", "jprime_printed", "jprime_corrected")


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its default of 128 KiB; False without glibc.

    glibc raises the threshold to the size of each large block it frees, so
    blocks up to that size then stay on the heap once freed.  Whether the
    query-sized lists of `semigroup` stay resident then depends on the order
    of the queries, and peak RSS on pencil-degrees read 30 or 37.5 MB by
    seed.  With the threshold fixed, every large block goes back to the
    system when freed, and the peak is the live memory plus the largest list.
    """
    try:
        return ctypes.CDLL(None).mallopt(-3, 128 * 1024) == 1  # -3: M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return False


def set_up(workload: str, baseline: set) -> tuple[SimpleNamespace, float]:
    """Import multisec afresh, parse its fixtures and run the warm-up job.

    Every module loaded since `baseline` is dropped first, so each set-up
    pays for the program's imports again.
    """
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    gc.collect()  # free the previous set-up's modules before timing this one
    t0 = time.perf_counter()
    ms = SimpleNamespace(cli=importlib.import_module("multisec.cli"),
                         construct=importlib.import_module("multisec.construct"))
    for name in FIXTURES:
        ms.construct.load_curve_fixture(name)
    workloads.prepare(workloads.warmup_job(workload), ms)()
    return ms, time.perf_counter() - t0


def calibrate() -> float:
    """Milliseconds for a fixed loop of `Fraction` arithmetic that uses no multisec code.

    It is taken after every set-up, outside the window, and kept in the
    run's detail file: a change in the host's speed shows in it apart from
    any change in the program.
    """
    t0 = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * x
        if acc.denominator > 10 ** 6:
            acc = Fraction(1, 2)
    return (time.perf_counter() - t0) * 1000


class Run:
    """Wall times of the jobs run, and their outputs spooled to a file.

    Outputs go to disk as each job ends, so that the memory of a run does
    not grow with the number of jobs it gets through and the peak RSS is
    the program's own.  A run without a spool keeps only the times.
    """

    def __init__(self, spool: Path | None = None):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.errors: list[str] = []
        self.spool = spool
        self._file = open(spool, "wb") if spool else None

    def execute(self, job, ms, tracer=None) -> None:
        call = workloads.prepare(job, ms)
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed job is counted, the run goes on
            result = exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
            tracer.end_job()
        self.times.append(elapsed)
        self.labels.append(sys.intern(workloads.label(job)))
        if isinstance(result, Exception):
            self.errors.append(f"{job}: {type(result).__name__}: {result}")
        elif self._file:
            pickle.dump((job, workloads.summarize(job, result)), self._file)

    def outputs(self):
        """(job, output) of every job that did not fail, read back from the spool."""
        self._file.close()
        with open(self.spool, "rb") as f:
            while True:
                try:
                    yield pickle.load(f)
                except EOFError:
                    break
        self.spool.unlink()

    @property
    def failed(self) -> int:
        return len(self.errors)


def timed_run(workload: str, seed: int, seconds: float, spool: Path,
              set_up_again) -> tuple[Run, list[float], list[float], workloads.JobStream]:
    """Whole rounds for `seconds` of wall time, set-ups spread through it.

    The set-ups run at the start and at equal steps of the window, so their
    median samples the machine at several moments of the run; their time,
    and that of the calibration loop after each, is not part of the window.
    """
    ms, first = set_up_again()
    setups, calibration = [first], [calibrate()]
    run = Run(spool)
    stream = workloads.JobStream(workload, seed)
    start = time.perf_counter()
    while stream.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        due = seconds * len(setups) / SETUPS
        if len(setups) < SETUPS and time.perf_counter() - start >= due:
            t0 = time.perf_counter()
            ms, took = set_up_again()
            setups.append(took)
            calibration.append(calibrate())
            start += time.perf_counter() - t0
        for job in stream.next_round():
            run.execute(job, ms)
    while len(setups) < SETUPS:  # a run shorter than its rounds
        setups.append(set_up_again()[1])
        calibration.append(calibrate())
    return run, setups, calibration, stream


def check_outputs(run: Run) -> list[str]:
    import oracle  # imported only after the peak RSS is read

    problems = list(run.errors)
    for job, output in run.outputs():
        problems += [f"{job.kind} {job.spec}: {p}" for p in oracle.check(job, output)]
    return problems


def end_to_end(workload: str, run: Run, setups: list[float], rss_kb: int) -> dict:
    times_ms = [t * 1000 for t in run.times]
    pct = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(times_ms, n=100)[pct - 1]
    beyond = sum(t > tail for t in times_ms)
    print(f"tail percentile: p{pct}, {beyond} of {len(times_ms)} jobs beyond it")
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p{pct}", file=sys.stderr)
    return {
        "job_p50_ms": (statistics.median(times_ms), "ms"),
        "job_tail_ms": (tail, "ms"),
        "jobs_per_s": (len(times_ms) / sum(run.times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced(workload: str, stream: workloads.JobStream, ms,
           spool: Path) -> tuple[dict, Run, list]:
    import spans

    jobs = []
    for _ in range(TRACE_ROUNDS[workload]):
        jobs += stream.next_round()
    plain = Run()
    for job in jobs:
        plain.execute(job, ms)
    tracer = spans.Tracer()
    tracer.install()
    run = Run(spool)
    for job in jobs:
        run.execute(job, ms, tracer)
    metrics = tracer.metrics(len(jobs))
    overhead = (sum(run.times) / sum(plain.times) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"untraced {sum(plain.times):.3f} s, traced {sum(run.times):.3f} s "
          f"over the same {len(jobs)} jobs")
    return metrics, run, tracer.per_job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multisec" / "__init__.py").is_file():
        print(f"error: no multisec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not pin_mmap_threshold():
        print("warning: mmap threshold not fixed, peak RSS depends on the seed",
              file=sys.stderr)

    baseline = set(sys.modules)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spool = OUT / f"{stem}.outputs.pickle"
    setups = []
    if args.trace:
        ms, _ = set_up(args.workload, baseline)
        calibration = [calibrate()]
        stream = workloads.JobStream(args.workload, args.seed)
        metrics, run, per_job = traced(args.workload, stream, ms, spool)
    else:
        run, setups, calibration, stream = timed_run(
            args.workload, args.seed, args.seconds, spool,
            lambda: set_up(args.workload, baseline))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(args.workload, run, setups, rss_kb)
        per_job = None

    t0 = time.perf_counter()
    problems = check_outputs(run)
    print(f"output checks took {time.perf_counter() - t0:.2f} s")
    for p in problems[:10]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    attempted = len(run.times)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs attempted, "
          f"{run.failed} failed, {len(problems)} problems")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"calibration loop (no multisec code): median {statistics.median(calibration):.2f} ms "
          f"of {len(calibration)}")
    repeats = stream.repeats.shares()
    if args.workload == "pencil-degrees":
        for kind, (total, again, share) in repeats.items():
            print(f"{kind}: {again} of {total} repeat work done earlier in the run "
                  f"({share:.0%})")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, setups_s=setups, calibration_ms=calibration, repeats=repeats,
                  problems=problems[:100],
                  jobs=[[label, t * 1000] for label, t in zip(run.labels, run.times)])
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if per_job is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for row in per_job:
                f.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
