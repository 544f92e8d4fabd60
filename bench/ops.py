"""Workloads of the pathpairs benchmark: the ops one pass serves, and the
checks that hold every result to a second route or an exact identity.

A pass is one fresh interpreter serving a list of ops in a closed loop (one
client, the next op starts when the previous one returns). An op is a
verification suite (``verify-all``), one CLI query (``query-mix``) or one
large library call (``large-exact``). Ops are built from (seed, pass index)
alone, so a seed pins the inputs. Sizes are pinned per workload; the seed
varies values that leave the cost nearly unchanged (k, p, rates, splits and
order), so every seed measures about the same amount of work.

Only the op calls are timed. Checks run after the timed section, with the
tracer (if any) switched off, and a failed check, a nonzero exit code, a
``"consistency": false`` record or an exception all count as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, log
from typing import Callable

from hostclock import PlainClock
from pathpairs import bijection, cli, formulas, oracle, series, verify

WORKLOADS = ("verify-all", "query-mix", "large-exact")

# Instance counts of ``pathpairs verify --all``; a faster run that checks
# fewer cases fails here.
PINNED_SUITES = {
    "theorem1": 276,
    "recurrence": 196,
    "eq8": 72,
    "wz": 999,
    "barrier": 12565,
    "same-start": 75,
    "bijection": 36,
    "nkr": 656,
    "doubling": 88,
    "mrs": 1187,
    "fnk": 136,
    "pnk": 72,
    "diag": 111,
    "avg": 10,
    "vandermonde": 3042,
    "legendre": 91,
    "series-uk": 596,
    "series-f": 609,
    "series-fk": 441,
    "lagrange": 140,
}


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its result.

    ``check(result, results)`` returns a failure message or None; ``results``
    maps every op label of the pass to its result, so two jobs can serve as
    each other's second route. ``digest`` renders the exact result.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]
    digest: Callable[[object], str]


@dataclass
class OpRecord:
    label: str
    seconds: float
    failure: str | None
    digest: str


@dataclass
class PassReport:
    """Times are on the pass's clock (see ``hostclock``). ``span`` is the
    timed section; ``intervals`` are the queries a user waits for: one per
    op, except on ``verify-all``, where it is the whole ``verify --all``."""

    span: tuple[float, float]
    peak_rss_mib: float
    ops: list[OpRecord]
    intervals: list[tuple[float, float]]
    bytes_out: int = 0

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.label}\t{op.digest}\n".encode())
        return h.hexdigest()


class _Crash:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hexq(value) -> str:
    """Exact rendering without the decimal-digit limit on huge integers."""
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    return f"{value:x}"


# --- serving ops -------------------------------------------------------------


def serve(ops: list[Op], tracer=None, clock=PlainClock()) -> PassReport:
    """Run the ops back to back, then check each result untimed."""
    values, intervals = [], []
    start = clock.now()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        t0 = clock.now()
        try:
            value = op.run()
        except Exception as exc:  # a crashing route is a failed op, not a failed pass
            value = _Crash(exc)
        intervals.append((t0, clock.now()))
        if tracer is not None:
            tracer.enabled = False
        values.append(value)
    span = (start, clock.now())
    rss = peak_rss_mib()
    by_label = {op.label: v for op, v in zip(ops, values)}
    records = []
    bytes_out = 0
    for op, value, (t0, t1) in zip(ops, values, intervals):
        if isinstance(value, _Crash):
            failure, digest = value.text, ""
        else:
            try:
                failure = op.check(value, by_label)
                digest = op.digest(value)
            except Exception as exc:  # a malformed result fails its op
                failure, digest = f"check raised {type(exc).__name__}: {exc}", ""
            if isinstance(value, CliResult):
                bytes_out += len(value.out.encode())
        records.append(OpRecord(op.label, t1 - t0, failure, digest))
    return PassReport(span, rss, records, intervals, bytes_out)


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """One query through ``cli.main``, in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def run_pass(workload: str, seed: int, pass_index: int, tracer=None, clock=PlainClock()) -> PassReport:
    """One pass; times come from ``clock`` (see ``hostclock``)."""
    if workload == "verify-all":
        return verify_pass(tracer, clock)
    if workload == "query-mix":
        return serve(query_ops(seed, pass_index), tracer, clock)
    if workload == "large-exact":
        return serve(large_jobs(seed, pass_index), tracer, clock)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# --- verify-all ----------------------------------------------------------------


class SuiteClock:
    """Times each suite of one ``verify --all`` by wrapping the module's
    ``check_*`` functions, which ``run_all`` looks up at call time. Twenty
    wrapper calls per pass; this is the op boundary, not tracing."""

    def __init__(self, tracer, clock):
        self.seconds: dict[str, float] = {}
        self._tracer = tracer
        self._clock = clock
        self._saved: dict[str, object] = {}

    def __enter__(self):
        for suite in PINNED_SUITES:
            attr = "check_" + suite.replace("-", "_")
            fn = getattr(verify, attr, None)
            if fn is None:
                continue
            self._saved[attr] = fn
            setattr(verify, attr, self._timed(suite, fn))
        return self

    def __exit__(self, *exc) -> None:
        for attr, fn in self._saved.items():
            setattr(verify, attr, fn)

    def _timed(self, suite: str, fn):
        def timed(*args, **kwargs):
            if self._tracer is not None:
                self._tracer.op = suite
            t0 = self._clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[suite] = self.seconds.get(suite, 0.0) + self._clock.now() - t0

        return timed


def check_verify_records(code: int, rows: list[dict]) -> dict[str, str | None]:
    """Failure (or None) per pinned suite, from the rows ``verify --all``
    printed. A missing suite, a failing one or a changed instance count
    fails that suite's op."""
    seen = {}
    for row in rows:
        seen[row.get("check")] = row
    failures: dict[str, str | None] = {}
    for suite, pinned in PINNED_SUITES.items():
        row = seen.get(suite)
        if row is None:
            failures[suite] = "suite missing from the verify output"
        elif row.get("status") != "pass":
            failures[suite] = f"suite failed: {row.get('first_failure')}"
        elif row.get("instances") != str(pinned):
            failures[suite] = f"instance count {row.get('instances')} != pinned {pinned}"
        elif code != 0:
            failures[suite] = f"verify exited {code}"
        else:
            failures[suite] = None
    return failures


def verify_pass(tracer=None, clock=PlainClock()) -> PassReport:
    """One ``pathpairs verify --all``; each pinned suite is one op."""
    suites = SuiteClock(tracer, clock)
    if tracer is not None:
        tracer.enabled = True
    with suites:
        start = clock.now()
        try:
            result = run_cli(["verify", "--all"])
        except Exception as exc:  # counted below as every suite failing
            result = CliResult(-1, "", f"{type(exc).__name__}: {exc}")
        span = (start, clock.now())
    if tracer is not None:
        tracer.enabled = False
    rss = peak_rss_mib()
    try:
        rows = json.loads(result.out)["results"]
    except (ValueError, KeyError, TypeError):
        rows = []
    failures = check_verify_records(result.code, rows)
    records = [
        OpRecord(
            suite,
            suites.seconds.get(suite, 0.0),
            failures[suite],
            f"pass {pinned}" if failures[suite] is None else "",
        )
        for suite, pinned in PINNED_SUITES.items()
    ]
    return PassReport(span, rss, records, [span], len(result.out.encode()))


# --- query-mix -----------------------------------------------------------------


def _stratum(rng: random.Random, i: int, count: int, lo: int, hi: int) -> int:
    """A size from slice i of ``count`` equal slices of [log lo, log hi],
    jittered inside the slice: the size multiset is nearly the same for
    every seed."""
    span = log(hi) - log(lo)
    return max(lo, min(hi, round(exp(log(lo) + (i + rng.random()) * span / count))))


def _cli_check(inner: Callable[[dict], str | None]):
    """Check a CLI result: exit code 0, no ``"consistency": false``, then
    ``inner`` on the parsed record."""

    def check(result: CliResult, _results) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}: {result.err.strip()[:200]}"
        record = json.loads(result.out)
        if record.get("consistency") is False:
            return 'record carries "consistency": false'
        return inner(record)

    return check


def _cli_digest(result: CliResult) -> str:
    return hashlib.sha256(result.out.encode()).hexdigest()


def _values(record: dict, route: str | None = None) -> dict[int, str]:
    return {
        int(row["k"]): row["value"]
        for row in record["results"]
        if route is None or row["provenance"] == route
    }


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, want {want}"


def _routes_agree(record: dict, routes_per_k: Callable[[int], int]) -> str | None:
    """Every route printed for a k gives the same value, and none is missing."""
    by_k: dict[str, list[str]] = {}
    for row in record["results"]:
        by_k.setdefault(row["k"], []).append(row.get("value", row.get("probability")))
    for k, values in by_k.items():
        if len(set(values)) != 1:
            return f"routes disagree at k={k}: {values}"
        if len(values) != routes_per_k(int(k)):
            return f"k={k}: {len(values)} routes printed, want {routes_per_k(int(k))}"
    return None


def _q_nkr_form(n, r, k, form):
    other = formulas.rect_pair_count_b if form == "formula-a" else formulas.rect_pair_count_a

    def inner(rec):
        return _expect(int(_values(rec)[k]), other(n, r, k), f"{form} vs other form")

    return ["nkr", "--n", str(n), "--r", str(r), "--k", str(k), "--method", form], inner


def _q_mrs(n, r, s, k):
    def inner(rec):
        got = int(_values(rec)[k])
        if r == s:  # equal endpoints reduce to the rectangle count with one fewer meeting
            return _expect(got, formulas.rect_pair_count_a(n, r, k - 1), "equal-endpoint reduction")
        return _expect(got, formulas.endpoint_pair_count_k0(n, r, s), "k=0 form")

    return ["mrs", "--n", str(n), "--r", str(r), "--s", str(s), "--k", str(k)], inner


def _q_pnk_k(n, k):
    def inner(rec):
        row = rec["results"][0]
        return _expect(
            Fraction(row["probability"]) * comb(2 * n, n), int(row["count"]), "probability vs count form"
        )

    return ["pnk", "--n", str(n), "--k", str(k)], inner


def _q_pnk_row(n):
    def inner(rec):
        probs = [Fraction(row["probability"]) for row in rec["results"]]
        bad = _expect(sum(probs), 1, "probability total")
        if bad is None and n >= 2:
            bad = _expect(probs[1], 2 * probs[0], "p(n,1) vs 2 p(n,0)")
        return bad

    return ["pnk", "--n", str(n)], inner


def _q_fnk_row(n):
    def inner(rec):
        values = [int(row["value"]) for row in rec["results"]]
        return _expect(sum(values), 4 ** n, "row total 4^n") or _expect(
            values[0], comb(2 * n, n), "nonmeeting count C(2n,n)"
        )

    return ["fnk", "--n", str(n)], inner


def _q_diag_row(n):
    def inner(rec):
        total = sum(int(row["value"]) for row in rec["results"])
        # the k = n-1 entry (identical walks, 2^n pairs) is outside diag's range
        return _expect(total, comb(2 * n, n) - 2 ** n, "row total C(2n,n) - 2^n")

    return ["diag", "--n", str(n)], inner


def _q_avg(n):
    def inner(rec):
        want = Fraction((2 * n + 1) * comb(2 * n, n), 4 ** n) - 1
        return _expect(Fraction(rec["results"][0]["value"]), want, "(2n+1)C(2n,n)/4^n - 1")

    return ["avg", "--n", str(n)], inner


def _q_nkr_all(n, r, k):
    def inner(rec):
        bad = _routes_agree(rec, lambda kk: 4 if kk <= n - 2 else 2)
        if bad is None and k is None:
            bad = _expect(sum(int(v) for v in _values(rec, "oracle").values()), comb(n, r) ** 2, "row total C(n,r)^2")
        return bad

    argv = ["nkr", "--n", str(n), "--r", str(r), "--method", "all"]
    return (argv + ["--k", str(k)] if k is not None else argv), inner


def _q_mrs_all(n, r, s, k):
    def inner(rec):
        bad = _routes_agree(rec, lambda kk: 2)
        if bad is None and k is None:
            total = sum(int(v) for v in _values(rec, "oracle").values())
            bad = _expect(total, comb(n, r) * comb(n, s), "row total C(n,r)C(n,s)")
        return bad

    argv = ["mrs", "--n", str(n), "--r", str(r), "--s", str(s), "--method", "all"]
    return (argv + ["--k", str(k)] if k is not None else argv), inner


def _q_fnk_all(n, k):
    def inner(rec):
        bad = _routes_agree(rec, lambda kk: 2)
        if bad is None and k is None:
            bad = _expect(sum(int(v) for v in _values(rec, "oracle").values()), 4 ** n, "row total 4^n")
        return bad

    argv = ["fnk", "--n", str(n), "--method", "all"]
    return (argv + ["--k", str(k)] if k is not None else argv), inner


def _q_pnk_all(n, k):
    def inner(rec):
        bad = _routes_agree(rec, lambda kk: 2)
        if bad is None and k is None:
            total = sum(Fraction(row["probability"]) for row in rec["results"] if row["provenance"] == "oracle")
            bad = _expect(total, 1, "probability total")
        return bad

    argv = ["pnk", "--n", str(n), "--method", "all"]
    return (argv + ["--k", str(k)] if k is not None else argv), inner


def _q_series(n, r, k):
    def inner(rec):
        return _expect(int(_values(rec)[k]), formulas.rect_pair_count_a(n, r, k), "series vs formula-a")

    return ["nkr", "--n", str(n), "--r", str(r), "--k", str(k), "--method", "series"], inner


def _q_barrier(a, b, x, p: Fraction):
    def inner(rec):
        values = {row["provenance"]: Fraction(row["value"]) for row in rec["results"]}
        if set(values) != {"dp", "single-walker", "formula"}:
            return f"routes printed: {sorted(values)}"
        if len(set(values.values())) != 1:
            return f"routes disagree: {values}"
        # u + l - 1: the two single walkers reaching their axis targets
        rate = oracle.ConstantRate(p)
        steps = a + b + x
        u = oracle.endpoint_probability((a, b + x + 1), steps, [(-t, 1 + t) for t in range(b + x + 1)], rate)
        l = oracle.endpoint_probability((a + x + 1, b), steps, [(1 + t, -t) for t in range(a + x + 1)], rate)
        return _expect(values["dp"], u + l - 1, "pair walk vs u + l - 1")

    return ["barrier", "--a", str(a), "--b", str(b), "--x", str(x), "--p", str(p)], inner


def _q_bijection(r, s):
    n = r + s

    def inner(rec):
        bad = _expect(rec["nonmeeting"], formulas.narayana(n, r), "nonmeeting vs Narayana count")
        bad = bad or _expect(rec["one_meeting"], 2 * rec["nonmeeting"], "one-meeting vs twice nonmeeting")
        if bad is None and n >= 3:
            bad = _expect(2 * rec["one_meeting"], formulas.rect_pair_count_a(n, r, 1), "one-meeting vs formula-a")
        return bad or _expect(len(rec["results"]), rec["nonmeeting"], "rows vs nonmeeting pairs")

    return ["bijection", "--r", str(r), "--s", str(s)], inner


# Shapes whose cost is fixed by the shape alone; every pass serves each once.
_NKR_ALL_ROWS = ((5, 2), (6, 3), (7, 3), (8, 3), (8, 4), (9, 2))


class _Stream:
    """Groups of queries kept together in serving order. A group that
    repeats a query already drawn is drawn again, so whole answers never
    repeat within a pass and every pass serves the same number of queries."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.groups: list[list] = []
        self._seen: set[tuple[str, ...]] = set()

    def add(self, draw: Callable[[random.Random], list]) -> None:
        for _ in range(200):
            group = draw(self.rng)
            keys = [tuple(argv) for argv, _ in group]
            if len(set(keys)) == len(keys) and self._seen.isdisjoint(keys):
                self._seen.update(keys)
                self.groups.append(group)
                return
        raise ValueError("query space exhausted; widen the size ranges")

    def ordered(self) -> list:
        self.rng.shuffle(self.groups)
        return [query for group in self.groups for query in group]


def _rect_pair(n: int, kmax: int, make):
    """Two neighbouring rectangle queries that share sub-results: the same
    (n, r) with another k, or the next nested rectangle."""

    def draw(rng):
        r = rng.randint(0, n)
        top = min(n - 2, kmax)
        k = rng.randint(0, top)
        if top >= 1 and rng.random() < 0.5:
            return [make(n, r, k), make(n, r, rng.choice([j for j in range(top + 1) if j != k]))]
        return [make(n, r, k), make(n + 1, min(n + 1, r + rng.randint(0, 1)), k)]

    return draw


def query_stream(seed: int, pass_index: int) -> list[tuple[list[str], Callable]]:
    """The queries of one pass, in serving order, each with its check.

    280 distinct queries: 112 closed-form (40%), 70 ``--method all`` at
    n <= 10 (25%), 28 series (10%), 42 barrier (15%) and 28 bijection (10%).
    """
    stream = _Stream(random.Random(f"query-mix:{seed}:{pass_index}"))
    add = stream.add
    # closed forms, n up to 3000
    for form in ("formula-a", "formula-b"):
        for i in range(12):
            add(lambda rng, i=i, form=form: _rect_pair(
                _stratum(rng, i, 12, 4, 3000), 30, lambda n, r, k: _q_nkr_form(n, r, k, form))(rng))
    for i in range(8):
        def mrs_k0(rng, i=i):
            n = _stratum(rng, i, 8, 4, 3000)
            r = rng.randint(0, n - 1)
            return [_q_mrs(n, r, rng.randint(r + 1, n), 0)]

        def mrs_equal(rng, i=i):
            n = _stratum(rng, i, 8, 4, 3000)
            r = rng.randint(0, n)
            return [_q_mrs(n, r, r, rng.randint(1, min(n - 1, 30)))]

        add(mrs_k0)
        add(mrs_equal)
    for i in range(12):
        def pnk_k(rng, i=i):
            n = _stratum(rng, i, 12, 4, 3000)
            return [_q_pnk_k(n, rng.randint(0, min(n - 1, 30)))]

        add(pnk_k)
        add(lambda rng, i=i: [_q_avg(_stratum(rng, i, 12, 1, 3000))])
    for i in range(8):
        add(lambda rng, i=i: [_q_pnk_row(_stratum(rng, i, 8, 2, 300))])
        add(lambda rng, i=i: [_q_fnk_row(_stratum(rng, i, 8, 1, 200))])
        add(lambda rng, i=i: [_q_diag_row(_stratum(rng, i, 8, 2, 300))])
    # every route at n <= 10
    for i in range(20):
        add(_rect_pair(3 + i % 7, 30, _q_nkr_all))  # n in 3..9; a nested neighbour reaches 10
    for n, r in _NKR_ALL_ROWS:
        add(lambda rng, n=n, r=r: [_q_nkr_all(n, r, None)])
    for i, n in enumerate(range(3, 11)):
        def mrs_all(rng, i=i, n=n):
            r = rng.randint(0, n - 1)
            s = rng.randint(r + 1, n)
            return [_q_mrs_all(n, r, s, rng.randint(0, n - 1) if i % 2 else None)]

        add(mrs_all)
    for i, n in enumerate(range(1, 9)):
        add(lambda rng, i=i, n=n: [_q_fnk_all(n, rng.randint(0, n) if i % 2 else None)])
    for i, n in enumerate(range(2, 10)):
        add(lambda rng, i=i, n=n: [_q_pnk_all(n, rng.randint(0, n - 1) if i % 2 else None)])
    # series at n <= 12: the same rectangle at two k. r <= n/2 keeps the
    # series degree n + r, and so the cost, below the fixed rows above.
    for i in range(14):
        def series_pair(rng, n=3 + i % 10):
            r = rng.randint(0, n // 2)
            k1, k2 = rng.sample(range(n - 1), 2)
            return [_q_series(n, r, k1), _q_series(n, r, k2)]

        add(series_pair)
    # barrier walks with a, b, x <= 8 and a seeded rational p
    for i in range(42):
        def barrier(rng, total=3 + (i * 5) % 22, den=(3, 5, 7, 11, 13)[i % 5]):
            a = rng.randint(max(0, total - 16), min(8, total))
            b = rng.randint(max(0, total - a - 8), min(8, total - a))
            return [_q_barrier(a, b, total - a - b, Fraction(rng.randint(1, den - 1), den))]

        add(barrier)
    # the correspondence on every rectangle with r + s <= 8
    for t in range(2, 9):
        for r in range(1, t):
            add(lambda rng, r=r, s=t - r: [_q_bijection(r, s)])
    return stream.ordered()


def query_ops(seed: int, pass_index: int) -> list[Op]:
    return [
        Op(" ".join(argv), (lambda argv=argv: run_cli(argv)), _cli_check(check), _cli_digest)
        for argv, check in query_stream(seed, pass_index)
    ]


# --- large-exact ----------------------------------------------------------------


def _level_rate(rng: random.Random, length: int) -> oracle.LevelRate:
    values = []
    for _ in range(length):
        den = rng.randint(2, 16)
        values.append(Fraction(rng.randint(1, den - 1), den))
    return oracle.LevelRate(tuple(values))


def _series_digest(s) -> str:
    coeffs = s.coeffs.items() if isinstance(s.coeffs, dict) else enumerate(s.coeffs)
    text = ";".join(f"{key}:{_hexq(c)}" for key, c in sorted(coeffs) if c)
    return hashlib.sha256(text.encode()).hexdigest()


def _table_digest(table: oracle.CountTable) -> str:
    return ";".join(f"{k}:{table.entries[k]}" for k in table.keys())


def _check_rect_series(k: int, degree: int):
    def check(power, _results):
        for n in range(degree + 1):
            for r in range(degree - n + 1):
                if r > n or n <= k:  # no such rectangle, or fewer than k interior vertices
                    want = 0
                elif n == k + 1:  # every interior vertex shared: identical walks
                    want = comb(n, r)
                else:
                    want = formulas.rect_pair_count_a(n, r, k)
                got = power.coeff(n, r)
                if got != want:
                    return f"coefficient (n={n}, r={r}): {got} != {want}"
        return None

    return check


def _check_meeting_poly(k: int, degree: int):
    def check(poly, _results):
        for n in range(k + 2, degree + 1):
            for r in range(n + 1):
                got, want = poly.coeff(r, n - r), formulas.rect_pair_count_a(n, r, k)
                if got != want:
                    return f"coefficient (n={n}, r={r}): {got} != {want}"
        return None

    return check


def _check_free_series(k: int, degree: int):
    def check(fk, _results):
        for n in range(degree + 1):
            want = (1 << k) * comb(2 * n - k, n) if n >= k else 0
            if fk.coeff(n) != want:
                return f"coefficient x^{n}: {fk.coeff(n)} != 2^k C(2n-k, n) = {want}"
        return None

    return check


def _check_rect_table(n: int, r: int):
    def check(table, _results):
        if table.total != comb(n, r) ** 2:
            return f"total {table.total} != C(n,r)^2"
        for k in range(n):
            want = formulas.rect_pair_count_a(n, r, k) if k <= n - 2 else comb(n, r)
            if table.get(k) != want:
                return f"k={k}: {table.get(k)} != {want}"
        return None

    return check


def _check_same_endpoint_table(n: int):
    def check(table, _results):
        if table.total != comb(2 * n, n):
            return f"total {table.total} != C(2n,n)"
        for k in range(n):
            if table.get(k) != formulas.same_endpoint_pair_count(n, k):
                return f"k={k}: {table.get(k)} != count form"
        return None

    return check


def _check_meet_probs(n: int):
    def check(probs, _results):
        if sum(probs) != 1:
            return "probabilities do not total 1"
        if probs[1] != 2 * probs[0]:
            return "p(n,1) != 2 p(n,0)"
        return _expect(probs[0] * comb(2 * n, n), formulas.same_endpoint_pair_count(n, 0), "p(n,0) vs count form")

    return check


def _check_correspondence(r: int, s: int):
    n = r + s

    def check(report, _results):
        if not report.passed:
            return f"replay failed: {report.failures[:2]}"
        return (
            _expect(report.nonmeeting_count, formulas.narayana(n, r), "nonmeeting vs Narayana count")
            or _expect(2 * report.one_meeting_count, formulas.rect_pair_count_a(n, r, 1), "one-meeting vs formula-a")
        )

    return check


def _same(other_label: str):
    def check(value, results):
        return _expect(value, results.get(other_label), f"vs {other_label}")

    return check


def large_jobs(seed: int, pass_index: int) -> list[Op]:
    """Fourteen single large library calls at pinned sizes (about 9.5 s in
    all on the reference machine). Closed forms and series carry about half
    the time; the walker runs three large DPs instead of thousands of small
    ones."""
    rng = random.Random(f"large-exact:{seed}:{pass_index}")
    jobs: list[Op] = []

    n_avg = 40000 + rng.randint(0, 99)
    jobs.append(Op(
        f"average_crossings({n_avg})",
        lambda: formulas.average_crossings(n_avg),
        lambda v, _r: _expect(v, Fraction((2 * n_avg + 1) * comb(2 * n_avg, n_avg), 4 ** n_avg) - 1, "(2n+1)C(2n,n)/4^n - 1"),
        _hexq,
    ))
    n_p = 1000 + rng.randint(0, 19)
    jobs.append(Op(
        f"same_endpoint_meet_prob({n_p}, all k)",
        lambda: [formulas.same_endpoint_meet_prob(n_p, k) for k in range(n_p)],
        _check_meet_probs(n_p),
        lambda v: hashlib.sha256(";".join(map(_hexq, v)).encode()).hexdigest(),
    ))
    r, k = 1000 + rng.randint(-20, 20), 500 + rng.randint(-20, 20)
    label_a, label_b = f"rect_pair_count_a(2000, {r}, {k})", f"rect_pair_count_b(2000, {r}, {k})"
    jobs.append(Op(label_a, lambda: formulas.rect_pair_count_a(2000, r, k), _same(label_b), _hexq))
    jobs.append(Op(label_b, lambda: formulas.rect_pair_count_b(2000, r, k), _same(label_a), _hexq))
    re, ke = 1000 + rng.randint(-20, 20), 500 + rng.randint(-20, 20)
    jobs.append(Op(
        f"endpoint_pair_count(2000, {re}, {re}, {ke})",
        lambda: formulas.endpoint_pair_count(2000, re, re, ke),
        lambda v, _r: _expect(v, formulas.rect_pair_count_a(2000, re, ke - 1), "equal-endpoint reduction"),
        _hexq,
    ))
    jobs.append(Op("free_pair_series(10, 120)", lambda: series.free_pair_series(10, 120),
                   _check_free_series(10, 120), _series_digest))
    jobs.append(Op("rect_pair_power(5, 36)", lambda: series.rect_pair_power(5, 36),
                   _check_rect_series(5, 36), _series_digest))
    jobs.append(Op("meeting_poly_power(6, 28)", lambda: series.meeting_poly_power(6, 28),
                   _check_meeting_poly(6, 28), _series_digest))

    a = 22 + rng.randint(-2, 2)
    b = 22 + rng.randint(-2, 2)
    x = 66 - a - b
    p = Fraction(rng.randint(2, 5), 7)
    const = oracle.BarrierConfig(a, b, x, oracle.ConstantRate(p))
    jobs.append(Op(
        f"barrier_meet_prob({a}, {b}, {x}, p={p})",
        lambda: oracle.barrier_meet_prob(const),
        lambda v, _r: _expect(v, formulas.barrier_meet_formula(a, b, x, p), "pair walk vs closed form"),
        _hexq,
    ))
    la = 20 + rng.randint(-2, 2)
    lb = 20 + rng.randint(-2, 2)
    lx = 60 - la - lb
    level = oracle.BarrierConfig(la, lb, lx, _level_rate(rng, 64))
    jobs.append(Op(
        f"barrier_meet_prob({la}, {lb}, {lx}, level rates)",
        lambda: oracle.barrier_meet_prob(level),
        lambda v, _r: _expect(
            v,
            oracle.endpoint_probability((la, lb + lx + 1), la + lb + lx, [(-t, 1 + t) for t in range(lx + 1)], level.rate),
            "pair walk vs single walker",
        ),
        _hexq,
    ))
    sa = 25 + rng.randint(-2, 2)
    sb = 50 - sa
    sp = Fraction(rng.randint(2, 5), 7)
    jobs.append(Op(
        f"same_start_meet_prob({sa}, {sb}, p={sp})",
        lambda: oracle.same_start_meet_prob(sa, sb, sp),
        lambda v, _r: _expect(v, formulas.same_start_meet_formula(sa, sb, sp), "pair walk vs closed form"),
        _hexq,
    ))
    jobs.append(Op("rect_pair_table(12, 6)", lambda: oracle.rect_pair_table(12, 6),
                   _check_rect_table(12, 6), _table_digest))
    jobs.append(Op("same_endpoint_pair_table(10)", lambda: oracle.same_endpoint_pair_table(10),
                   _check_same_endpoint_table(10), _table_digest))
    jobs.append(Op(
        "verify_correspondence(5, 5)",
        lambda: bijection.verify_correspondence(5, 5),
        _check_correspondence(5, 5),
        lambda rep: f"{rep.passed} {rep.nonmeeting_count} {rep.one_meeting_count} {len(rep.rows)}",
    ))
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order]
