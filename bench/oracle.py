"""Output checks made apart from the program.

Nothing here imports `multisec`.  Each check recomputes what a job's answer
must be by another method, or tests a property the method guarantees, and
returns a list of problems (empty when the answer is right):

- dual-derive: j'(s) solves the five sign-twisted hyperplane equations at
  every fiber point s, and those rows have rank 5, in this module's own
  Q(zeta_6) arithmetic; so the closed form is the derived dual map and the
  verdict must be `verified` with no mismatch.  That recomputation reads
  nothing from the program: it shows the closed form is right, while the
  program's own derivation is seen only through its `point_checks` and
  `mismatches` counts.  The parts of the report that carry values (the
  pullback table, the normalized degrees, the norm spot checks and the
  pushforward splitting) are compared with hand expansions.
- norm-pullback: the norm N satisfies N(u, 1) = Res_w(w^d - u, p(w, 1)) at
  deg p + 1 points u, the resultant being the determinant of multiplication
  by p(w, 1) on Q[w]/(w^d - u); the pullback rows, the paired quadrics and
  the rank come from expanding the rescaled monomial maps by hand.
- pencil-degrees: divisors from `math.comb`, index bounds from `math.gcd`,
  semigroup membership from the Apery set of the least generator, and the
  witness pair from an O(sqrt e) scan of both factors.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

LABELS = ("X+0", "X+1", "X+2", "X-0", "X-1", "X-2")
# S0-exponents of the degree-5 monomial entries of the paper's corrected
# maps j and j' (the S1-exponent is 5 minus this), and the sign twist of the
# dual pairing: minus on the involution-odd block X-.
J_EXPONENTS = (5, 3, 1, 4, 2, 0)
JPRIME_EXPONENTS = (0, 2, 4, 1, 3, 5)
DUAL_SIGNS = (1, 1, 1, -1, -1, -1)
QUINTIC_BASIS = tuple((5 - i, i) for i in range(6))


class Q6:
    """a + b*w in Q(w), w a primitive sixth root of unity: w^2 = w - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b  # int or Fraction

    def __add__(self, o):
        return Q6(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Q6(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        if not isinstance(o, Q6):
            return Q6(self.a * o, self.b * o)
        bd = self.b * o.b
        return Q6(self.a * o.a - bd, self.a * o.b + self.b * o.a + bd)

    def __truediv__(self, o):
        # the conjugate of a + b*w is (a + b) - b*w; the norm is a^2 + ab + b^2
        norm = o.a * o.a + o.a * o.b + o.b * o.b
        return self * Q6(Fraction(o.a + o.b, norm), Fraction(-o.b, norm))

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        return f"Q6({self.a}, {self.b})"


OMEGA = Q6(0, 1)


def rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over any exact field."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def int_determinant(m) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


# -- dual-derive ---------------------------------------------------------

def fiber_values(t) -> list[list[Q6]]:
    """values[i][a] = S0^a S1^(5-a) at the fiber point [w^i p : q], t = p/q.

    The six points [w^i t : 1] of the sixth-cover fiber are taken with
    these integral coordinates, so every value lies in Z[w]; the hyperplane
    equations are homogeneous, so the common factor q^5 changes nothing.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    values = []
    s = Q6(p)
    for _ in range(6):
        power = Q6(1)
        row = []
        for a in range(6):
            row.append(power * q ** (5 - a))
            power = power * s
        values.append(row)
        s = s * OMEGA
    return values


def jprime_at(t, k, values=None) -> tuple[Q6, ...]:
    row = (values or fiber_values(t))[k]
    return tuple(row[a] for a in JPRIME_EXPONENTS)


def _selection(k):
    return [k] + [i for i in range(6) if i not in (k, (k + 3) % 6)]


def _rows(values, k):
    return [[values[i][a] * sign for a, sign in zip(J_EXPONENTS, DUAL_SIGNS)]
            for i in _selection(k)]


@lru_cache(maxsize=None)
def _hyperplane_rank(k) -> int:
    """Rank of the hyperplane rows at s_k, the same for every sample t.

    Row i is sign_e (w^i t)^(a_e) over the entries e: the t-free matrix
    sign_e w^(i a_e) times diag(t^(a_e)), which is invertible for t != 0.
    """
    return rank(_rows(fiber_values(1), k))


def dual_point_ok(t, k, point, values=None) -> bool:
    """Whether `point` lies on the five hyperplanes cutting out the dual at s_k.

    The hyperplanes are those of s_k and of the four fiber points outside
    its double-cover fiber {s_k, -s_k}; their rows must have rank 5, so the
    point they meet in is unique.
    """
    if not any(point) or _hyperplane_rank(k) != 5:
        return False
    for row in _rows(values or fiber_values(t), k):
        total = Q6(0)
        for x, y in zip(row, point):
            total = total + x * y
        if total:
            return False
    return True


def check_verify(samples, code, stdout) -> list[str]:
    report = json.loads(stdout)
    problems = []
    if code != 0 or report["verdict"] != "verified":
        problems.append(f"exit {code}, verdict {report['verdict']}")
    if report["inputs"]["samples"] != [str(t) for t in samples]:
        problems.append(f"samples echoed as {report['inputs']['samples']}")
    checks = {c["check"]: c for c in report["results"]["checks"]}
    failed = [name for name, c in checks.items()
              if not c["ok"] and not c["informational"]]
    if failed:
        problems.append(f"failed checks {failed}")
    derived = checks["derived_jprime_matches_closed_form"]["detail"]
    if derived["point_checks"] != 6 * len(samples) or derived["mismatches"]:
        problems.append(f"dual-point checks {derived}")
    for t in samples:
        values = fiber_values(t)
        for k in range(6):
            if not dual_point_ok(t, k, jprime_at(t, k, values), values):
                problems.append(f"j'(s) is not the dual point at t={t}, k={k}")
    return problems + _check_report_values(checks)


def _monomial(exps, names=("T0", "T1")) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e) or "1"


def _linear_form(text) -> dict:
    """{exponents: coefficient} of a form like '-U0 + 3/2*U1' over (U0, U1)."""
    terms = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        coeff, _, var = token.lstrip("-").rpartition("*")
        terms[(1, 0) if var == "U0" else (0, 1)] = sign * Fraction(coeff or 1)
    return terms


def _check_report_values(checks) -> list[str]:
    """The valued details of a verify-construction report, from hand expansions."""
    problems = []
    units = (1,) * 6
    rows = expected_pullback_rows(units)
    table = checks["pullback_table_rank"]["detail"]
    want = [{"monomial": f"{a}*{b}", "image": _monomial(next(iter(q)))} for (a, b), q in rows]
    matrix = [[q.get(e, Fraction(0)) for e in QUINTIC_BASIS] for _, q in rows]
    if table["rows"] != want or table["rank"] != rank(matrix) or table["rank"] != 6:
        problems.append(f"pullback table {table}")
    if not all(checks["paired_quadrics_descend"]["detail"].values()):
        problems.append(f"paired quadrics {checks['paired_quadrics_descend']['detail']}")
    degrees = checks["normalized_degrees"]["detail"]
    if degrees != {"j": 5, "jprime": 5}:
        problems.append(f"normalized degrees {degrees}")
    norms = checks["norm_spot_checks"]["detail"]
    for name, d in (("norm2", 2), ("norm3", 3)):
        if check_norm(d, (Fraction(1), Fraction(1)), _linear_form(norms[name])):
            problems.append(f"{name}(T0 + T1) = {norms[name]}")
    # the cyclic cover t -> t^3 pushes O(5) forward to the sum of O(floor((5 - i)/3))
    twists = checks["pushforward_splitting"]["detail"]["twists"]
    if sorted(twists) != sorted((5 - i) // 3 for i in range(3)):
        problems.append(f"pushforward twists {twists}")
    return problems


# -- norm-pullback -------------------------------------------------------

def norm_at(coeffs, d, u) -> Fraction:
    """Res_w(w^d - u, f) for f(w) = sum coeffs[i] w^i and an integer u.

    The resultant is the determinant of multiplication by f on
    Q[w]/(w^d - u) in the basis 1, w, ..., w^(d-1), taken after scaling f
    to integer coefficients by the lcm L of their denominators.
    """
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    mult = [[0] * d for _ in range(d)]
    for j in range(d):
        for i, c in enumerate(ints):
            e = i + j
            mult[e % d][j] += c * u ** (e // d)
    return Fraction(int_determinant(mult), scale ** d)


def check_norm(d, coeffs, terms) -> list[str]:
    """coeffs[i] multiplies T0^i T1^(m-i); `terms` is the norm over (U0, U1)."""
    m = len(coeffs) - 1
    problems = []
    if not terms or any(sum(e) != m for e in terms):
        problems.append(f"norm is not a nonzero form of degree {m}")
        return problems
    for u in range(1, m + 2):
        got = sum(c * u ** e[0] for e, c in terms.items())
        want = norm_at(coeffs, d, u)
        if got != want:
            problems.append(f"N({u}, 1) = {got}, resultant gives {want}")
    return problems


def _monomial_map(exponents, scales):
    return [((a, 5 - a), Fraction(c)) for a, c in zip(exponents, scales)]


def _halve(exps):
    if exps[0] % 2 or exps[1] % 2:
        return None
    return (exps[0] // 2, exps[1] // 2)


def expected_pullback_rows(cjp):
    rows = []
    jp = _monomial_map(JPRIME_EXPONENTS, cjp)
    for block in (0, 3):
        for a in range(block, block + 3):
            for b in range(a, block + 3):
                (ea, ca), (eb, cb) = jp[a], jp[b]
                exps = _halve((ea[0] + eb[0], ea[1] + eb[1]))
                rows.append(((LABELS[a], LABELS[b]), {exps: ca * cb}))
    return rows


def expected_paired_quadrics(cj):
    """Coefficients of L(X) * L(X)|S1->-S1 within each block, descended."""
    j = _monomial_map(J_EXPONENTS, cj)
    family = {}
    for block in (0, 3):
        for a in range(block, block + 3):
            for b in range(a, block + 3):
                (ea, ca), (eb, cb) = j[a], j[b]
                exps = _halve((ea[0] + eb[0], ea[1] + eb[1]))
                sign_a, sign_b = (-1) ** ea[1], (-1) ** eb[1]
                coeff = ca * ca * sign_a if a == b else ca * cb * (sign_a + sign_b)
                family[(LABELS[a], LABELS[b])] = {exps: coeff} if coeff else {}
    return family


def check_pullback(cj, cjp, summary) -> list[str]:
    problems = []
    rows = expected_pullback_rows(cjp)
    if summary["rows"] != rows:
        problems.append("pullback rows differ from the hand expansion")
    matrix = [[q.get(e, Fraction(0)) for e in QUINTIC_BASIS] for _, q in rows]
    if summary["rank"] != rank(matrix) or summary["rank"] != 6:
        problems.append(f"pullback rank {summary['rank']}, expected {rank(matrix)} = 6")
    if summary["family"] != expected_paired_quadrics(cj):
        problems.append("paired quadrics differ from the hand expansion")
    # monomial entries: the gcd is S0^min * S1^min, every entry has degree 5
    for name, exponents in (("degree_j", J_EXPONENTS), ("degree_jp", JPRIME_EXPONENTS)):
        want = 5 - min(exponents) - min(5 - a for a in exponents)
        if summary[name] != want:
            problems.append(f"{name} = {summary[name]}, expected {want}")
    return problems


# -- pencil-degrees ------------------------------------------------------

def semigroup_contains(generators, x) -> bool:
    """Membership via the Apery set of the least reduced generator."""
    g = gcd(*generators)
    if x % g:
        return False
    coins = sorted({c // g for c in generators})
    x //= g
    m = coins[0]
    least = [None] * m  # least element of the semigroup in each class mod m
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        value, r = heapq.heappop(heap)
        if value != least[r]:
            continue
        for c in coins[1:]:
            nv, nr = value + c, (r + c) % m
            if least[nr] is None or nv < least[nr]:
                least[nr] = nv
                heapq.heappush(heap, (nv, nr))
    return least[x % m] is not None and x >= least[x % m]


def least_witness(a_min, b_min, e) -> tuple[int, int]:
    """Least product a*b with a >= a_min, b >= b_min, 4ab > e + 1; ties to least a.

    An optimal pair has a factor at most sqrt of its product, and for a
    fixed factor the other one is the least admissible, so scanning each
    factor up to sqrt of any admissible product finds every optimal pair.
    """
    need = (e + 1) // 4 + 1  # 4ab > e + 1  <=>  ab >= need

    def other(x, low):
        return max(low, -(-need // x))

    start = max(a_min, isqrt(need))
    bound = isqrt(start * other(start, b_min)) + 1
    pairs = [(a, other(a, b_min)) for a in range(a_min, max(a_min, bound) + 1)]
    pairs += [(other(b, a_min), b) for b in range(b_min, max(b_min, bound) + 1)]
    return min(pairs, key=lambda p: (p[0] * p[1], p[0]))


def _index_bounds(divisors, realized):
    return ({"lower": min(divisors), "upper": min(realized)},
            {"lower_divisor": gcd(*divisors), "upper": gcd(*realized)})


def _with_exact(bounds, lower_key):
    if bounds[lower_key] == bounds["upper"]:
        bounds["exact"] = bounds["upper"]
    return bounds


def check_cli(spec, code, stdout) -> list[str]:
    report = json.loads(stdout)
    res = report["results"]
    problems = []
    kind, *args = spec
    want_verdict = "info" if kind == "semigroup" else "verified"
    if code != 0 or report["verdict"] != want_verdict:
        problems.append(f"exit {code}, verdict {report['verdict']}")
    if kind == "enriques":
        if (res["divisors"] != [4, 6, 3] or res["cover_divisors"] != [8, 12, 6]
                or res["min_degree"].get("exact") != 3
                or res["index"].get("exact") != 1):
            problems.append(f"enriques report {res}")
    elif kind == "hypersurface":
        d, n = args
        divisors = [comb(d, i) for i in range(1, min(d, n) + 1)]
        min_degree, index = _index_bounds(divisors, [d])
        want = {
            "divisors": divisors,
            "realized": [d],
            "min_degree": _with_exact(min_degree, "lower"),
            "index": _with_exact(index, "lower_divisor"),
            "semigroup": {"generators": divisors, "min": min(divisors),
                          "gcd": gcd(*divisors)},
            "strata": [{"name": f"X^{i}", "divisor": c}
                       for i, c in enumerate(divisors, start=1)],
        }
        if res != want:
            problems.append(f"hypersurface d={d} n={n}: {res}")
        if d > n and res["min_degree"].get("exact") != d:
            problems.append(f"exact_min {res['min_degree']} is not d={d}")
    elif kind == "semigroup":
        d, n, query = args
        generators = [comb(d, i) for i in range(1, min(d, n) + 1)]
        want = {"generators": generators, "min": min(generators),
                "gcd": gcd(*generators), "query": query,
                "contains": semigroup_contains(generators, query)}
        if res != want:
            problems.append(f"semigroup {spec}: {res}, expected {want}")
    else:
        a_min, b_min, e = args
        a, b = least_witness(a_min, b_min, e)
        n = 4 * a * b
        span = n - b - (a - 1) * (b - 1)
        want = {"a": a, "b": b, "n": n, "d": n - 1, "min_degree_claim": n - 1,
                "span_bound": span, "basepoint_ok": span + 1 <= n, "e": e,
                "no_section_ok": e < n - 1}
        if not 4 * res["a"] * res["b"] > e + 1:
            problems.append(f"witness {spec}: 4ab <= e + 1 for {res}")
        if res != want:
            problems.append(f"witness {spec}: {res}, expected {want}")
    return problems


def check(job, output) -> list[str]:
    """Problems with one job's output; `job` as made by workloads.JobStream."""
    if job.kind == "verify":
        return check_verify(job.spec, *output)
    if job.kind == "cli":
        return check_cli(job.spec, *output)
    if job.kind == "norm":
        d, coeffs = job.spec
        return check_norm(d, coeffs, output)
    return check_pullback(*job.spec, output)
