"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions and methods of each layer
module of a loaded `multisec`, and rebinds every module-level name that
refers to a wrapped function, so calls made through `from x import f`
names are seen as well.  Each call is a span; a layer's self time is the
sum over its spans of the span's duration minus the time of the spans it
encloses.  Spans are kept in memory as per-job totals.

Leaf predicates, conversions and hashing (`__eq__`, `__hash__`, `__bool__`,
`Permutation.__call__`, `scalar_is_zero`, `euler_phi`, `as_fraction`, ...)
are left unwrapped: each costs less than a span, and their time stays in
the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "construct", "exactalg.scalars", "exactalg.matrix",
          "exactalg.poly", "perm", "strata", "semigroup", "witness")

_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
            "__pow__"}
_LEAVES = {"scalar_is_zero", "euler_phi", "as_fraction", "to_fraction",
           "is_zero", "is_rational", "is_homogeneous", "total_degree"}

# (layer, qualified name) -> counter name, for the counted calls
COUNTED = {
    ("construct", "dual_point_on_fiber"): "dual_point_calls",
    ("construct", "monomial_norm"): "norm_calls",
    ("exactalg.scalars", "Cyclotomic.__mul__"): "cyclo_mul_calls",
    ("exactalg.scalars", "Cyclotomic.__rmul__"): "cyclo_mul_calls",
    ("exactalg.scalars", "Cyclotomic.inverse"): "cyclo_inv_calls",
    ("exactalg.matrix", "exact_matrix_nullspace"): "nullspace_calls",
    ("exactalg.matrix", "exact_matrix_rank"): "rank_calls",
    ("exactalg.poly", "SparseMultiPoly.__mul__"): "mul_calls",
    ("exactalg.poly", "SparseMultiPoly.__rmul__"): "mul_calls",
    ("exactalg.poly", "SparseMultiPoly.evaluate"): "evaluate_calls",
    ("semigroup", "NumericalSemigroup.contains"): "contains_calls",
    ("witness", "choose_ab_and_certify"): "choose_calls",
}
COUNTERS = {
    "construct": ("dual_point_calls", "norm_calls"),
    "exactalg.scalars": ("cyclo_mul_calls", "cyclo_inv_calls"),
    "exactalg.matrix": ("nullspace_calls", "rank_calls"),
    "exactalg.poly": ("mul_calls", "evaluate_calls"),
    "perm": ("orbit_points",),
    "semigroup": ("contains_calls",),
    "witness": ("choose_calls",),
}


class Tracer:
    """Self time and counts per layer, over the jobs run while `active`."""

    def __init__(self):
        self.active = False
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.evaluate_pairs = 0  # distinct (polynomial, point) pairs per job
        self.per_job: list[dict] = []  # each job's self ms and counts
        self._stack: list[list[int]] = []  # per open span: enclosed ns
        self._job_pairs: set = set()
        self._job_polys: dict = {}
        self._before = (Counter(), Counter())

    def end_job(self) -> None:
        self.evaluate_pairs += len(self._job_pairs)
        self_ns, counts = self._before
        self.per_job.append({
            "self_ms": {layer: (ns - self_ns[layer]) / 1e6
                        for layer, ns in self.self_ns.items() if ns != self_ns[layer]},
            "counts": {f"{layer}.{name}": n - counts[(layer, name)]
                       for (layer, name), n in self.counts.items()
                       if n != counts[(layer, name)]},
            "evaluate_pairs": len(self._job_pairs),
        })
        self._before = (Counter(self.self_ns), Counter(self.counts))
        self._job_pairs.clear()
        self._job_polys.clear()

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"multisec.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and name not in _LEAVES:
                    wrapper = self._wrap(layer, name, obj)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != "multisec" and not name.startswith("multisec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_class(self, layer, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name in _LEAVES or (name.startswith("_") and name not in _DUNDERS):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(self._wrap(layer, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(layer, qualname, raw))

    def _wrap(self, layer, qualname, fn):
        counter = COUNTED.get((layer, qualname))
        hook = None
        if qualname == "SparseMultiPoly.evaluate":
            hook = self._record_evaluate
        elif qualname == "orbit_decomposition":
            hook = self._record_orbit
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter:
                counts[(layer, counter)] += 1
            if hook:
                h0 = clock()
                hook(args)
                if stack:  # the hook's time belongs to no layer
                    stack[-1][0] += clock() - h0
            enclosed = [0]
            stack.append(enclosed)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_ns[layer] += elapsed - enclosed[0]
                if stack:
                    stack[-1][0] += elapsed
        return span

    def _record_evaluate(self, args) -> None:
        # a polynomial counts once per object: j and j' share their
        # monomials, and a key by value would merge the two maps' entries;
        # holding the polynomial keeps its id from being reused in the job
        poly, point = args[0], args[1]
        self._job_polys[id(poly)] = poly
        self._job_pairs.add((id(poly), tuple(point)))

    def _record_orbit(self, args) -> None:
        self.counts[("perm", "orbit_points")] += len(args[0].points)

    def metrics(self, jobs: int) -> dict:
        """Per-job self time and counts of every layer."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self.self_ns[layer] / 1e6 / jobs, "ms/job")
            for counter in COUNTERS.get(layer, ()):
                out[f"{layer}.{counter}"] = (self.counts[(layer, counter)] / jobs,
                                             "calls/job" if counter.endswith("_calls")
                                             else "points/job")
        calls = self.counts[("exactalg.poly", "evaluate_calls")]
        out["exactalg.poly.evaluate_distinct_frac"] = (
            self.evaluate_pairs / calls if calls else 1.0, "ratio")
        return out
