"""Identity-check suites tying the enumeration oracle, closed forms, series,
correspondence, and walker probabilities together.

This is the one module that compares a route with another, so the routes
import nothing from each other. Each check sweeps a bounded grid of
instances, comparing two or more independently computed exact values, and
each suite yields one :class:`CheckReport`. Reports are reproducible:
enumeration order is fixed and the pseudo-random level-rate sequences come
from a fixed seed with denominators at most 16 so the walker arithmetic
stays small. A failing report always carries the first counterexample in
scan order, with every input and both computed values. A report also
carries the suite's wall time, ``elapsed_s``, which report equality ignores.

Each instance is stated once, as ``rec.passes(left, right)``, and compared
once: a passing instance costs that compare and a count, rationals compared
by cross-multiplying integer numerators and denominators. Only a refused
instance reaches ``rec.fail(**inputs)``, the one failure path, which builds
the context dict and any ``Fraction``.

A suite is its name in ``SUITE_NAMES`` and one ``check_<name>(rec, cap)``,
which states its instances to the recorder ``rec`` and its sweep sizes once,
each capped by ``cap``: ``inf`` for ``n_max`` None runs its default grid, and
a given ``n_max`` shrinks it, never below the suite's smallest meaningful
size. Every enumerated table, from any of the four
``oracle.*_pair_table`` functions, is read through one memo, ``_table``.
The barrier suite runs one single-walker distribution per level and rate.

The ``routes`` suite reads the route table, ``routes.ROUTES``, through the
same ``routes.plan`` and ``routes.tabulate`` steps the command line runs,
with ``--method all``, so every route the command line can print is held
to the others; it is not pinned by the benchmark.

``run_all`` owns the harness and is the engine behind the command line's
``verify`` subcommand. It runs a configurable selection of suites in
``SUITE_NAMES`` order: for each, it builds the suite's recorder, hands it and
the cap, resolved once from ``n_max``, to the check, and collects the
recorder's report. A check returns nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import comb, inf, lcm
from time import perf_counter
from types import SimpleNamespace

from . import bijection, formulas, oracle, paths, routes, series


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    passed: bool
    instances: int
    first_failure: dict | None = None
    #: wall seconds the suite took; left out of equality, so reports of two
    #: runs still compare equal
    elapsed_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.passed and self.first_failure is not None:
            raise ValueError("a passing report cannot carry a counterexample")


class _Recorder:
    """Collects instance counts and the first failing comparison.

    Every instance is one ``passes``: a passing one costs one compare and a
    count, rationals cross-multiplied. A refused one is handed to ``fail``
    with its inputs, which counts it and, for the suite's first failure,
    records the refused pair as ``left`` and ``right`` and then the inputs,
    all as strings. A refused predicate, ``passes(ok)``, has no pair. A site
    that compares cross-multiplied integers shows the values as ``Fraction``s
    by passing ``left`` and ``right`` to ``fail`` itself."""

    def __init__(self, check_id: str):
        self.check_id = check_id
        self.instances = 0
        self.failure: dict | None = None
        self.refused: dict = {}
        self.started = perf_counter()

    def passes(self, left, right=True) -> bool:
        """True, counting the instance, if ``left == right``; else False,
        keeping the pair for ``fail``, or no pair for a predicate: ``ok``
        compared with the default ``True``."""
        if left == right:
            self.instances += 1
            return True
        self.refused = {} if right is True else {"left": left, "right": right}
        return False

    def fail(self, **context) -> None:
        """Count the instance ``passes`` refused; keep it if it is the first."""
        self.instances += 1
        if self.failure is None:
            self.failure = {k: str(v) for k, v in {**self.refused, **context}.items()}

    def report(self) -> CheckReport:
        return CheckReport(
            self.check_id, self.failure is None, self.instances, self.failure,
            elapsed_s=perf_counter() - self.started,
        )


def _cap(n_max: int | None) -> int | float:
    """The caller's sweep-size cap; None leaves every suite's default."""
    if n_max is None:
        return inf
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return n_max


@lru_cache(maxsize=None)
def _table(build, *args) -> oracle.CountTable:
    """Each enumerated table, built once per process. ``build`` is an
    ``oracle.*_pair_table`` function looked up on the module at the call
    site, so a traced or patched function is the one that runs."""
    return build(*args)


paths.MEMOS.setdefault("verify._table", _table.cache_clear)


# --- formula-level checks -----------------------------------------------------


def check_theorem1(rec: _Recorder, cap: int | float) -> None:
    """The two rectangle-count closed forms agree on their whole range."""
    n_max = max(2, min(9, cap))
    for n in range(2, n_max + 1):
        for r in range(n + 1):
            for k in range(n - 1):
                if not rec.passes(formulas.rect_pair_count_a(n, r, k), formulas.rect_pair_count_b(n, r, k)):
                    rec.fail(n=n, r=r, k=k, sides="form a vs form b")


def check_recurrence(rec: _Recorder, cap: int | float) -> None:
    """Splitting pairs at their last meeting: the k-meeting count is the
    convolution of the (k-1)-meeting counts with the nonmeeting counts."""
    n_max = max(2, min(8, cap))
    rect = partial(_table, oracle.rect_pair_table)
    for n in range(2, n_max + 1):
        for r in range(n + 1):
            table = rect(n, r)
            for k in range(1, n):
                conv = 0
                for m in range(1, n):
                    for q in range(max(0, r - (n - m)), min(r, m) + 1):
                        conv += rect(m, q).get(k - 1) * rect(n - m, r - q).get(0)
                if not rec.passes(table.get(k), conv):
                    rec.fail(n=n, r=r, k=k, sides="oracle vs convolution")


def check_eq8(rec: _Recorder, cap: int | float) -> None:
    """Free pairs with k meetings decompose over the first same-endpoint
    meeting: convolving same-endpoint tables against nonmeeting free counts
    reproduces the free table. Checked on oracle tables and on closed forms."""
    n_max = min(8, cap)
    free = partial(_table, oracle.free_pair_table)
    same = partial(_table, oracle.same_endpoint_pair_table)
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            conv = sum(same(j).get(k - 1) * free(n - j).get(0) for j in range(k, n + 1))
            if not rec.passes(free(n).get(k), conv):
                rec.fail(n=n, k=k, sides="oracle table vs convolution")
            closed = sum(
                formulas.same_endpoint_pair_count(j, k - 1) * formulas.free_pair_count(n - j, 0)
                for j in range(k, n + 1)
            )
            if not rec.passes(formulas.free_pair_count(n, k), closed):
                rec.fail(n=n, k=k, sides="closed forms")


def check_wz(rec: _Recorder, cap: int | float) -> None:
    """Telescoping certificate for the meeting-probability distribution:
    p(n+1,k) - p(n,k) = g(n,k+1) - g(n,k) exactly, the k-sums are exactly 1,
    and p(n,1) = 2 p(n,0).

    Each row p(n, .) is evaluated once and serves the differences at n - 1
    and n, its total (one numerator over the lcm of its denominators) and
    its doubling; those two are recorded after the differences, in scan
    order. The companion row g(n, .) is asked for alongside p(n, .): g(n, k)
    reads p(n, k - 1), the value asked for just before it, which the
    one-slot memo of ``same_endpoint_meet_prob`` returns as it is."""
    sum_n_max = min(60, cap)
    n_max = min(40, cap)
    meet, companion = formulas.same_endpoint_meet_prob, formulas.telescoping_companion
    totals, doublings, row, g = [], [], [], []
    for n in range(1, max(sum_n_max, n_max + 1) + 1):
        below, g_below, row, g = row, g, [], []
        for k in range(n + 3):
            if n <= n_max:
                g.append(companion(n, k).as_integer_ratio())
            if k < n:
                row.append(meet(n, k).as_integer_ratio())
        if 1 < n <= n_max + 1:
            # for k = 0..n, p(n, k) - p(n - 1, k) = a/b - c/d, p zero past
            # its row, against g(n - 1, k + 1) - g(n - 1, k) = h/i - e/f
            terms = zip(row + [(0, 1)], below + [(0, 1)] * 2, g_below, g_below[1:])
            for k, ((a, b), (c, d), (e, f), (h, i)) in enumerate(terms):
                if not rec.passes((a * d - c * b) * f * i, (h * f - e * i) * b * d):
                    rec.fail(
                        left=Fraction(a, b) - Fraction(c, d), right=Fraction(h, i) - Fraction(e, f),
                        n=n - 1, k=k, sides="difference vs companion",
                    )
        if n <= sum_n_max:
            common = lcm(*(den for _, den in row))
            totals.append((sum(num * (common // den) for num, den in row), common))
        if 1 < n <= n_max:
            doublings.append((n, row[0], row[1]))
    for n, (total, common) in enumerate(totals, 1):
        if not rec.passes(total, common):
            rec.fail(left=Fraction(total, common), right=1, n=n, sides="probability total")
    for n, (a, b), (c, d) in doublings:
        if not rec.passes(c * b, 2 * a * d):
            rec.fail(left=Fraction(c, d), right=2 * Fraction(a, b), n=n, sides="k=1 vs twice k=0")


# --- oracle-vs-formula sweeps ---------------------------------------------------


def check_nkr(rec: _Recorder, cap: int | float) -> None:
    """Both closed forms reproduce the enumerated rectangle tables, and the
    tables total C(n, r)^2."""
    n_max = max(2, min(9, cap))
    for n in range(2, n_max + 1):
        for r in range(n + 1):
            table = _table(oracle.rect_pair_table, n, r)
            if not rec.passes(table.total, comb(n, r) ** 2):
                rec.fail(n=n, r=r, sides="total")
            reflected = _table(oracle.rect_pair_table, n, n - r).entries
            if not rec.passes(table.entries, reflected):
                rec.fail(n=n, r=r, sides="reflection")
            for k in range(n - 1):
                count = table.get(k)
                if not rec.passes(formulas.rect_pair_count_a(n, r, k), count):
                    rec.fail(n=n, r=r, k=k, sides="form a vs oracle")
                if not rec.passes(formulas.rect_pair_count_b(n, r, k), count):
                    rec.fail(n=n, r=r, k=k, sides="form b vs oracle")


def check_doubling(rec: _Recorder, cap: int | float) -> None:
    """One-meeting pairs are exactly twice the nonmeeting pairs, on the
    closed forms."""
    n_max = max(3, min(10, cap))
    for n in range(3, n_max + 1):
        for r in range(1, n):
            one, none = formulas.rect_pair_count_a(n, r, 1), formulas.rect_pair_count_a(n, r, 0)
            if not rec.passes(one, 2 * none):
                rec.fail(n=n, r=r, sides="k=1 vs twice k=0")
            if not rec.passes(2 * formulas.narayana(n, r), none):
                rec.fail(n=n, r=r, sides="half count")


def check_bijection(rec: _Recorder, cap: int | float) -> None:
    """The correspondence verifies on every rectangle with r + s <= 9."""
    total_max = max(2, min(9, cap))
    for total in range(2, total_max + 1):
        for r in range(1, total):
            report = bijection.verify_correspondence(r, total - r)
            if not rec.passes(report.passed):
                rec.fail(r=r, s=total - r, failures="; ".join(report.failures[:3]) or "none")


def check_mrs(rec: _Recorder, cap: int | float) -> None:
    """The two-endpoint closed form reproduces the enumerated tables, its
    k = 0 specialization matches both, and the equal-endpoint boundary
    reduces to the rectangle counts. One instance holds the expression
    itself, which ``endpoint_pair_count`` bypasses at r = s, to the
    rectangle table at k - 1 on every (n, r, k) and names the first that
    differs."""
    n_max = min(8, cap)
    boundary = next(
        (
            (n, r, k)
            for n in range(1, n_max + 1)
            for r in range(n + 1)
            for k in range(1, n)
            if formulas.endpoint_pair_expression(n, r, r, k) != _table(oracle.rect_pair_table, n, r).get(k - 1)
        ),
        None,
    )
    if not rec.passes(boundary is None):
        rec.fail(first=boundary, sides="expression at r = s vs rectangle table")
    for n in range(1, n_max + 1):
        for r in range(n + 1):
            for s in range(r + 1, n + 1):
                table = _table(oracle.endpoint_pair_table, n, r, s)
                if not rec.passes(table.total, comb(n, r) * comb(n, s)):
                    rec.fail(n=n, r=r, s=s, sides="total")
                if not rec.passes(formulas.endpoint_pair_count_k0(n, r, s), table.get(0)):
                    rec.fail(n=n, r=r, s=s, sides="k0 form vs oracle")
                for k in range(n):
                    if not rec.passes(formulas.endpoint_pair_count(n, r, s, k), table.get(k)):
                        rec.fail(n=n, r=r, s=s, k=k, sides="formula vs oracle")
            for k in range(1, n):
                want = _table(oracle.rect_pair_table, n, r).get(k - 1)
                if not rec.passes(formulas.endpoint_pair_count(n, r, r, k), want):
                    rec.fail(n=n, r=r, s=r, k=k, sides="equal endpoints vs rectangle table")


def check_fnk(rec: _Recorder, cap: int | float) -> None:
    """Free-pair closed form versus enumeration; the powers-of-two totals
    sum to 4^n; the nonmeeting probability is C(2n,n)/4^n."""
    identity_n_max = min(40, cap)
    n_max = min(8, cap)
    rows = [[formulas.free_pair_count(n, k) for k in range(n + 1)] for n in range(identity_n_max + 1)]
    for n in range(n_max + 1):
        table = _table(oracle.free_pair_table, n)
        if not rec.passes(table.total, 4 ** n):
            rec.fail(n=n, sides="total")
        for k, count in enumerate(rows[n]):
            if not rec.passes(count, table.get(k)):
                rec.fail(n=n, k=k, sides="formula vs oracle")
    for n, row in enumerate(rows):
        if not rec.passes(sum(row), 4 ** n):
            rec.fail(n=n, sides="sum vs 4^n")
        # both probabilities are over 4^n, so their numerators decide
        if not rec.passes(row[0], comb(2 * n, n)):
            rec.fail(
                left=Fraction(row[0], 4 ** n), right=Fraction(comb(2 * n, n), 4 ** n), n=n,
                sides="nonmeeting probability",
            )


def check_pnk(rec: _Recorder, cap: int | float) -> None:
    """Meeting-probability closed form versus normalized enumeration."""
    n_max = min(8, cap)
    for n in range(1, n_max + 1):
        table = _table(oracle.same_endpoint_pair_table, n)
        denom = comb(2 * n, n)
        for k in range(n):
            p, count = formulas.same_endpoint_meet_prob(n, k), table.get(k)
            if not rec.passes(p.numerator * denom, count * p.denominator):
                rec.fail(left=p, right=Fraction(count, denom), n=n, k=k, sides="formula vs oracle")
            if not rec.passes(formulas.same_endpoint_pair_count(n, k), count):
                rec.fail(n=n, k=k, sides="count form vs oracle")


def check_diag(rec: _Recorder, cap: int | float) -> None:
    """Summing the rectangle counts over every split r gives the
    same-endpoint count, in closed form and against enumeration."""
    oracle_n_max = max(1, min(9, cap))
    n_max = max(2, min(12, cap))
    for n in range(2, n_max + 1):
        for k in range(n - 1):
            row = sum(formulas.rect_pair_count_a(n, r, k) for r in range(n + 1))
            if not rec.passes(formulas.same_endpoint_pair_count(n, k), row):
                rec.fail(n=n, k=k, sides="closed form vs row sum")
    for n in range(1, oracle_n_max + 1):
        table = _table(oracle.same_endpoint_pair_table, n)
        for k in range(n):
            if not rec.passes(formulas.same_endpoint_pair_count(n, k), table.get(k)):
                rec.fail(n=n, k=k, sides="closed form vs oracle")


def check_avg(rec: _Recorder, cap: int | float) -> None:
    """Exact mean crossing count versus the enumerated mean, and the float
    value of the exact mean against its asymptotic form at n = 1000, within
    a relative 2%."""
    for n in range(min(8, cap) + 1):
        if not rec.passes(formulas.average_crossings(n), _table(oracle.free_pair_table, n).mean):
            rec.fail(n=n, sides="closed form vs oracle mean")
    exact = float(formulas.average_crossings(1000))
    approx = formulas.average_crossings_asymptote(1000)
    if not rec.passes(abs(exact - approx) <= 0.02 * abs(approx)):
        rec.fail(n=1000, exact=exact, asymptote=approx, rel_tol=0.02)


# --- walker probability checks ---------------------------------------------------


def _level_rates(seed: int, count: int, length: int) -> list[oracle.LevelRate]:
    """Deterministic pseudo-random level-rate tables, denominators <= 16."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        values = []
        for _ in range(length):
            den = rng.randint(2, 16)
            values.append(Fraction(rng.randint(0, den), den))
        out.append(oracle.LevelRate(tuple(values)))
    return out


def _walker_levels(rate: oracle.RateModel, top_level: int) -> dict[int, tuple[list[int], int]]:
    """One single-walker distribution per level 1..top_level under one rate:
    ``levels[m] = (running, den)``, where ``running[w]`` is the integer mass
    ``oracle.endpoint_distribution((0, m), m - 1, rate)`` puts on fewer than
    w West steps, that is on the points (-v, 1 + v) with v < w, over ``den``."""
    levels = {}
    for m in range(1, top_level + 1):
        masses, den = oracle.endpoint_distribution((0, m), m - 1, rate)
        levels[m] = [0, *accumulate(masses.get((-w, 1 + w), 0) for w in range(m))], den
    return levels


#: The constant West rates of the walker suites.
_PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))

#: The seed of the level-rate tables the barrier and routes suites draw.
_LEVEL_RATE_SEED = 20114


def _pair_walk(table: dict, a: int, b: int, x: int) -> tuple[int, int]:
    """The pair-walk probability of the configuration (a, b, x) as
    ``(mass, den)``, read off its rate's ``oracle.barrier_survival_table``:
    the walkers' x's a and a+x+1 on level a+b+x+1."""
    masses, den = table[a + b + x + 1]
    return masses[a, a + x + 1], den


def _walker_checks(rec, a: int, b: int, x: int, pair: tuple[int, int], levels) -> None:
    """Theorem-4 style cross checks of the pair walk of (a, b, x) against its
    level's single walker in ``levels``, from ``_walker_levels``."""
    running, den = levels[a + b + x + 1]
    # A rate model states one rate per level (``at_level``), so a walker
    # started anywhere on level m spreads its m - 1 steps over West-step
    # counts w exactly as the one from (0, m) does. The upper walker from
    # (a, b+x+1) reaches the target (-t, 1+t) after w = a + t West steps, for
    # t <= b + x; the lower walker from (a+x+1, b) reaches (1+t, -t) after
    # w = a + x - t, t <= a + x.
    first_x = running[a + x + 1] - running[a]
    upper, lower = den - running[a], running[a + x + 1]
    mass, pair_den = pair
    if not rec.passes(mass * den, first_x * pair_den):
        rec.fail(
            left=Fraction(*pair), right=Fraction(first_x, den), a=a, b=b, x=x, sides="pair walk vs single walker"
        )
    if not rec.passes(mass * den, (upper + lower - den) * pair_den):
        rec.fail(
            left=Fraction(*pair), right=Fraction(upper + lower - den, den), a=a, b=b, x=x,
            sides="pair walk vs u + l - 1",
        )


def check_barrier(rec: _Recorder, cap: int | float, seed: int = _LEVEL_RATE_SEED) -> None:
    """Three-way agreement for the two-walker meeting probability.

    Constant rates: pair DP == binomial closed form == single-walker DP,
    and u + l - 1, for a, b, x <= 4. Level-dependent rates: pair DP ==
    single-walker DP and u + l - 1 over 20 rate tables drawn from ``seed``,
    for a + b + x <= 10. The pair DP is one backward sweep per rate,
    ``oracle.barrier_survival_table``, read once per configuration. The
    single walker is one distribution per level and rate,
    ``_walker_levels``, shared by every configuration on that level and
    never fed to the pair DP. Both walker DPs carry integer masses over one
    denominator.

    Under one distribution per level, u + l - 1 = (den - R[a]) + R[a+x+1] -
    den = R[a+x+1] - R[a] (R the running West-step masses), so the
    "u + l - 1" row reads the same integer as the "single walker" row. It
    stays for its pinned count, not as evidence of its own.

    A full sweep answers every start pair up to its top level at once, so it
    suits this suite, which asks for every pair; a single query (the CLI,
    ``barrier_meet_prob``) runs the same sweep limited to the positions its
    own two walkers can reach.
    """
    level_total = min(10, cap)
    const_limit = min(4, level_total)
    for p in _PROBS:
        rate = oracle.ConstantRate(Fraction(p))
        table = oracle.barrier_survival_table(rate, 3 * const_limit + 1)
        levels = _walker_levels(rate, 3 * const_limit + 1)
        for a in range(const_limit + 1):
            for b in range(const_limit + 1):
                for x in range(const_limit + 1):
                    pair = _pair_walk(table, a, b, x)
                    closed = formulas.barrier_meet_formula(a, b, x, p)
                    if not rec.passes(pair[0] * closed.denominator, closed.numerator * pair[1]):
                        rec.fail(
                            left=Fraction(*pair), right=closed, a=a, b=b, x=x, p=p,
                            sides="pair walk vs closed form",
                        )
                    _walker_checks(rec, a, b, x, pair, levels)
    for rate in _level_rates(seed, 20, level_total + 2):
        table = oracle.barrier_survival_table(rate, level_total + 1)
        levels = _walker_levels(rate, level_total + 1)
        for a in range(level_total + 1):
            for b in range(level_total + 1 - a):
                for x in range(level_total + 1 - a - b):
                    _walker_checks(rec, a, b, x, _pair_walk(table, a, b, x), levels)


def check_same_start(rec: _Recorder, cap: int | float) -> None:
    """Two walkers released together: the DP equals 2 C(a+b, a) p^(a+1) q^(b+1)
    for a, b <= 4."""
    limit = min(4, cap)
    for p in _PROBS:
        for a in range(limit + 1):
            for b in range(limit + 1):
                if not rec.passes(oracle.same_start_meet_prob(a, b, p), formulas.same_start_meet_formula(a, b, p)):
                    rec.fail(a=a, b=b, p=p, sides="pair walk vs closed form")


# --- series checks -----------------------------------------------------------------


def check_vandermonde(rec: _Recorder, cap: int | float) -> None:
    """Both convolution identities over a grid including negative upper
    arguments (falling-factorial binomials)."""
    span = min(8, cap)
    for a in range(-span // 2, span + 1):
        for b in range(-span // 2, span + 1):
            for m in range(span + 1):
                if not rec.passes(formulas.vandermonde_a(a, b, m)):
                    rec.fail(a=a, b=b, m=m, identity="plain")
                if not rec.passes(formulas.vandermonde_b(a, b, m)):
                    rec.fail(a=a, c=b, m=m, identity="alternating")


def check_legendre(rec: _Recorder, cap: int | float) -> None:
    """The reciprocal square root of the rectangle kernel expands to the
    squared binomials: 1/sqrt(kernel) = sum C(n,r)^2 x^n y^r.

    The kernel is the classical Legendre-polynomial generating kernel
    evaluated along (x(y-1), (y+1)/(y-1)); its square root is one minus the
    nonmeeting base series, so this is also the geometric sum of the base
    powers over every meeting count.
    """
    degree = min(12, cap)
    inv = (1 - series.rect_pair_base(degree)).inverse()
    for n in range(degree + 1):
        for r in range(degree + 1 - n):
            if not rec.passes(inv.coeff(n, r), comb(n, r) ** 2):
                rec.fail(n=n, r=r, sides="series vs C(n,r)^2")


def check_series_uk(rec: _Recorder, cap: int | float) -> None:
    """Three-way agreement: power-series coefficients == closed form ==
    enumeration, for every rectangle with n <= 9."""
    n_max = max(2, min(9, cap))
    for k, power in enumerate(series.rect_pair_powers(n_max - 2, 2 * n_max)):
        for n in range(k + 1, n_max + 1):
            for r in range(n + 1):
                coeff = power.coeff(n, r)
                if k <= n - 2:
                    if not rec.passes(coeff, formulas.rect_pair_count_a(n, r, k)):
                        rec.fail(n=n, r=r, k=k, sides="series vs closed form")
                if not rec.passes(coeff, _table(oracle.rect_pair_table, n, r).get(k)):
                    rec.fail(n=n, r=r, k=k, sides="series vs oracle")


def check_series_f(rec: _Recorder, cap: int | float) -> None:
    """The quadratic functional equation holds coefficientwise, and the
    meeting polynomial powers reproduce the rectangle counts."""
    degree = max(3, min(12, cap))
    f = series.narayana_base(degree)
    y = series.BiSeries(degree, {(1, 0): 1})
    z = series.BiSeries(degree, {(0, 1): 1})
    residual = f - (y + f) * (z + f)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if not rec.passes(residual.coeff(i, j), 0):
                rec.fail(i=i, j=j, sides="residual")
    for k in range(min(6, degree - 2) + 1):
        poly = series.meeting_poly_power(k, degree)
        for n in range(k + 2, degree + 1):
            for r in range(n + 1):
                if not rec.passes(poly.coeff(r, n - r), formulas.rect_pair_count_a(n, r, k)):
                    rec.fail(n=n, r=r, k=k, sides="meeting polynomial vs closed form")


def check_series_fk(rec: _Recorder, cap: int | float) -> None:
    """Free-pair generating series coefficients equal 2^k C(2n-k, n), and
    vanish below the k-th power."""
    degree = min(20, cap)
    for k in range(degree + 1):
        fk = series.free_pair_series(k, degree)
        for n in range(degree + 1):
            if not rec.passes(fk.coeff(n), formulas.free_pair_count(n, k) if n >= k else 0):
                rec.fail(n=n, k=k, sides="series vs closed form")


_LAGRANGE_POINTS = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1)),
    (Fraction(1), Fraction(3)),
    (Fraction(1, 2), Fraction(3, 4)),
    (Fraction(2, 3), Fraction(5, 2)),
)


def check_lagrange(rec: _Recorder, cap: int | float) -> None:
    """Coefficient extraction through f = x (y+f)(z+f) reproduces the first
    closed form, at rational specializations of (y, z).

    Over one common denominator, y0 = y_num/den and z0 = z_num/den, the
    direct row sum of the counts times y0^r z0^(n-r) is one integer
    numerator, the sum of the counts times y_num^r z_num^(n-r), over den^n.
    Each row of counts is evaluated once, and each phi once per point and k."""
    n_max = max(2, min(8, cap))
    rows = {
        (n, k): [formulas.rect_pair_count_a(n, r, k) for r in range(n + 1)]
        for n in range(2, n_max + 1)
        for k in range(n - 1)
    }
    for y0, z0 in _LAGRANGE_POINTS:
        y_num, z_num = y0.numerator * z0.denominator, z0.numerator * y0.denominator
        den = y0.denominator * z0.denominator
        base = y0 + z0
        g = [y0 * z0, base, 1]
        phis = [[comb(k + 1, m) * base ** (k + 1 - m) * 2 ** m for m in range(k + 2)] for k in range(n_max - 1)]
        for n in range(2, n_max + 1):
            for k in range(n - 1):
                extracted = series.lagrange_coefficient(phis[k], g, n - k - 1)
                direct = sum(count * y_num ** r * z_num ** (n - r) for r, count in enumerate(rows[n, k]))
                if not rec.passes(extracted.numerator * den ** n, direct * extracted.denominator):
                    rec.fail(
                        left=extracted, right=Fraction(direct, den ** n), y=y0, z=z0, n=n, k=k,
                        sides="extraction vs row",
                    )


# --- the route table -------------------------------------------------------------


def _route_queries(n_max: int, level_total: int):
    """The ``routes`` suite's grid as ``(command, query)``: every counting
    query with n <= n_max (and r < s for ``mrs``, whose enumeration needs
    it), and every barrier configuration with a + b + x <= level_total under
    the constant rates and two level-rate tables from ``_LEVEL_RATE_SEED``."""
    for n in range(n_max + 1):
        yield "fnk", SimpleNamespace(n=n, k=None)
    for n in range(1, n_max + 1):
        yield "pnk", SimpleNamespace(n=n, k=None)
        for r in range(n + 1):
            yield "nkr", SimpleNamespace(n=n, r=r, k=None)
            for s in range(r + 1, n + 1):
                yield "mrs", SimpleNamespace(n=n, r=r, s=s, k=None)
    rates = [oracle.ConstantRate(p) for p in _PROBS] + _level_rates(_LEVEL_RATE_SEED, 2, level_total + 2)
    for rate in rates:
        for a in range(level_total + 1):
            for b in range(level_total + 1 - a):
                for x in range(level_total + 1 - a - b):
                    yield "barrier", oracle.BarrierConfig(a, b, x, rate)


def check_routes(rec: _Recorder, cap: int | float) -> None:
    """Every route in ``routes.ROUTES`` agrees with the first route that
    answers the same k, under the plan ``--method all`` runs, for n <= 5
    and a + b + x <= 3. This holds the barrier ``dp`` and ``single-walker``
    routes, which no other suite calls, and any route added to the table,
    to the others. A command with one route has nothing to compare, so the
    grid holds the five commands with several: ``bijection``'s one route is
    replayed by the ``bijection`` suite, and ``diag``'s and ``avg``'s closed
    forms are held to enumeration by the ``diag`` and ``avg`` suites."""
    for command, query in _route_queries(min(5, cap), min(3, cap)):
        tabled = routes.tabulate(command, query, routes.plan(command, "all", query))
        for k, ((first, want), *others) in tabled.items():
            for name, got in others:
                if not rec.passes(want, got):
                    rec.fail(query=query, k=k, sides=f"{first} vs {name}")


# --- the aggregate runner -----------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """Which suites to run and an optional sweep-size override."""

    suites: tuple[str, ...] | None = None  # None selects every suite
    n_max: int | None = None

    def __post_init__(self) -> None:
        _cap(self.n_max)  # rejects an n_max below 1 before any suite runs
        if self.suites is not None:
            unknown = [name for name in self.suites if name not in SUITE_NAMES]
            if unknown:
                raise ValueError(f"unknown suites {unknown}; known: {', '.join(SUITE_NAMES)}")
            repeated = sorted({name for name in self.suites if self.suites.count(name) > 1})
            if repeated:
                raise ValueError(f"suites named more than once: {repeated}")


SUITE_NAMES = (
    "theorem1", "recurrence", "eq8", "wz", "barrier", "same-start", "bijection",
    "nkr", "doubling", "mrs", "fnk", "pnk", "diag", "avg", "vandermonde",
    "legendre", "series-uk", "series-f", "series-fk", "lagrange", "routes",
)


def run_all(config: VerifyConfig = VerifyConfig()) -> list[CheckReport]:
    """Run the selected suites in registry order and return their reports.
    Each suite gets a ``_Recorder`` named for it, built just before its
    ``check_*`` function, which is looked up by name when it runs, and the
    sweep-size cap; its report is read off the recorder."""
    selected = SUITE_NAMES if config.suites is None else config.suites
    cap = _cap(config.n_max)
    reports = []
    for name in SUITE_NAMES:
        if name in selected:
            rec = _Recorder(name)
            globals()["check_" + name.replace("-", "_")](rec, cap)
            reports.append(rec.report())
    return reports
