"""Brute-force enumerators and exact dynamic programs used as ground truth.

Nothing in this module knows a closed form. Every pair of paths is
counted, bit-parallel, through ``paths.meeting_census``; probabilities come
from evolving exact integer masses over walker states. At each step every
live state moves with integer weights over one scale, the lcm of the
denominators of the West rates in use, and the running denominator grows by
that scale (its square for the two-walker DP); one Fraction is built from
the final masses, so no per-step rational is ever normalised. The
closed-form and series modules are checked against these outputs, never
the other way around.

Paths come from ``paths.all_paths`` and every table is a
``paths.meeting_census`` under the named convention its docstring states, so
this module knows no step window and compares no vertices. Enumeration
order is fixed, so results are reproducible.

Walker model for the meeting probabilities: two walkers move simultaneously,
one step per time unit, West or South. Strictly inside the first quadrant
the West probability at (r, s) is supplied by a rate model; a walker that
reaches an axis is swept deterministically along it toward the origin (West
on the x-axis, South on the y-axis). Both coordinate sums shrink by one per
step, so the walkers stay on a common diagonal and can only meet at equal
times; both hit the origin exactly when the diagonal runs out. A walker on
level m = r + s is therefore named by its x-coordinate r alone, and the
pair DP keys its positions that way. Both rate models depend only on the
level, so one *unconstrained* walker (``endpoint_distribution``) is placed
after t steps by its number of West steps alone, and its DP counts West
steps.

The pair walk has one implementation, ``_survival_levels``. It sweeps the
levels upward from level 1, where the one pair of x's (0, 1) has mass 1,
and gives each pair (u, l) of x's on level m the moves-weighted sum of the
masses of its non-meeting successor pairs on level m - 1. Neither x grows,
and each drops by at most 1 per step, so two walkers change order only by
meeting: the pairs with u < l are all it needs. ``barrier_survival_table``
keeps every pair of every level, which is what a suite over all
configurations asks for; the single queries (``barrier_meet_prob``,
``same_start_meet_prob``) keep only the x's their own walkers can reach,
and only the last level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from . import paths


@dataclass(frozen=True)
class CountTable:
    """Counts keyed by number of shared vertices, plus their exact total."""

    entries: dict[int, int]
    total: int

    @classmethod
    def from_entries(cls, entries: dict[int, int]) -> "CountTable":
        if any(k < 0 or v < 0 for k, v in entries.items()):
            raise ValueError("count table needs nonnegative keys and values")
        return cls(dict(entries), sum(entries.values()))

    def get(self, k: int) -> int:
        return self.entries.get(k, 0)

    def keys(self):
        return sorted(self.entries)

    @property
    def mean(self) -> Fraction:
        """Exact average key value, weighted by counts."""
        if self.total == 0:
            return Fraction(0)
        return Fraction(sum(k * v for k, v in self.entries.items()), self.total)


def rect_pair_table(n: int, r: int) -> CountTable:
    """All ordered pairs of corner-to-corner paths on an r x (n-r) rectangle,
    keyed by interior shared vertices. Total is C(n, r)^2."""
    ps = paths.all_paths(n, r)
    return CountTable.from_entries(paths.meeting_census(ps, ps, paths.intersections_interior))


def endpoint_pair_table(n: int, r: int, s: int) -> CountTable:
    """Unordered pairs of origin walks ending at (r, n-r) and (s, n-s), r < s,
    keyed by shared vertices excluding the start.

    Distinct endpoints mean every unordered pair has exactly one
    representative with the r-path first, so the iteration is already
    unordered. Total is C(n, r) * C(n, s).
    """
    if not 0 <= r < s <= n:
        raise ValueError(f"need 0 <= r < s <= n, got r={r}, s={s}, n={n}")
    census = paths.meeting_census(
        paths.all_paths(n, r), paths.all_paths(n, s), paths.intersections_excluding_start
    )
    return CountTable.from_entries(census)


def free_pair_table(n: int) -> CountTable:
    """All 4^n ordered pairs of free n-step E/N walks from the origin, keyed
    by shared vertices excluding the origin (shared endpoints count)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    walks = [p for r in range(n + 1) for p in paths.all_paths(n, r)]
    return CountTable.from_entries(paths.meeting_census(walks, walks, paths.intersections_excluding_origin))


def same_endpoint_pair_table(n: int) -> CountTable:
    """Ordered pairs of free n-step walks with equal endpoints, keyed by
    interior shared vertices. Total is C(2n, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table: dict[int, int] = {}
    for r in range(n + 1):
        ps = paths.all_paths(n, r)
        for k, v in paths.meeting_census(ps, ps, paths.intersections_interior).items():
            table[k] = table.get(k, 0) + v
    out = CountTable.from_entries(table)
    if out.total != comb(2 * n, n):  # not an assert: ``python -O`` would strip it
        raise paths.InvariantError(
            f"same_endpoint_pair_table({n}): enumerated {out.total} pairs, not C(2n, n)"
        )
    return out


# --- exact walker probabilities -------------------------------------------


@dataclass(frozen=True)
class ConstantRate:
    """Every interior point has the same West probability."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", paths.as_probability(self.p))

    def west(self, r: int, s: int) -> Fraction:
        return self.p


@dataclass(frozen=True)
class LevelRate:
    """West probability depends only on the level m = r + s.

    ``values[m - 1]`` is the rate on level m; levels past the end of the
    table reuse the last entry, and levels below 1 use the first. The same
    rate applies at every point of a level, including points with
    nonpositive coordinates, which is what makes an unconstrained walker's
    step distribution depend on time alone.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("LevelRate needs at least one value")
        object.__setattr__(self, "values", tuple(paths.as_probability(v) for v in self.values))

    def west(self, r: int, s: int) -> Fraction:
        m = min(max(r + s, 1), len(self.values))
        return self.values[m - 1]


RateModel = ConstantRate | LevelRate


@dataclass(frozen=True)
class BarrierConfig:
    """A two-walker instance: starts (a, b+x+1) and (a+x+1, b), plus rates."""

    a: int
    b: int
    x: int
    rate: RateModel

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.x < 0:
            raise ValueError("a, b, x must be nonnegative")


def _move_tables(m: int, xs, rate: RateModel) -> tuple[int, dict[int, tuple[tuple[int, int], ...]]]:
    """One step's integer move tables for constrained walkers at the x's
    ``xs`` of level m >= 1: ``tables[x]`` lists ``(x', weight)`` for each x'
    the walker at (x, m - x) reaches on level m - 1.

    Every weight is over the returned scale d, the lcm of the denominators
    of the West rates the interior x's use: a West move (to x - 1) weighs
    p.numerator * (d // p.denominator), a South move (x stays) weighs d
    minus that, and the forced axis sweeps, South from x = 0 and West from
    x = m, weigh d; those two tables are always present. Zero-weight moves
    are left out.
    """
    west = {x: rate.west(x, m - x) for x in xs if 0 < x < m}
    d = lcm(*{p.denominator for p in west.values()})
    tables = {0: ((0, d),), m: ((m - 1, d),)}
    for x, p in west.items():
        w = p.numerator * (d // p.denominator)
        tables[x] = tuple(move for move in ((x - 1, w), (x, d - w)) if move[1])
    return d, tables


SurvivalLevel = tuple[dict[tuple[int, int], int], int]


def _survival_levels(rate: RateModel, top: int, start: tuple[int, int] | None = None):
    """Yield ``(m, masses, den)`` for levels 1..top, where
    ``masses[u, l] / den`` is the probability that walkers started at the
    x's u < l of level m, at (u, m - u) and (l, m - l), reach level 1
    without meeting.

    Level m reads level m - 1 through the moves of ``_move_tables`` on its
    own x's, drops the moves that land both walkers on one x, and
    multiplies the running denominator by d * d. Without ``start`` every
    pair u < l is kept. With a start pair (u0, l0) of x's on level ``top``,
    level m keeps for each walker only the x's x0 - (top - m) <= x <= x0 it
    can reach from its own start x0; every successor of a kept x is kept
    one level down, so the lookups into level m - 1 never miss. Only the
    current and the previous level are held here.
    """
    masses = {(0, 1): 1}
    den = 1
    yield 1, masses, den
    for m in range(2, top + 1):
        if start is None:
            uppers = lowers = range(m + 1)
        else:
            uppers, lowers = (range(max(0, x0 - (top - m)), min(x0, m) + 1) for x0 in start)
        d, moves = _move_tables(m, {*uppers, *lowers}, rate)
        below = masses
        masses = {}
        for u in uppers:
            upper = moves[u]
            for l in range(max(u + 1, lowers.start), lowers.stop):
                lower = moves[l]
                total = 0
                for qu, wu in upper:
                    for ql, wl in lower:
                        if qu != ql:
                            total += wu * wl * below[qu, ql]
                masses[u, l] = total
        den *= d * d
        yield m, masses, den


def barrier_survival_table(rate: RateModel, top_level: int) -> dict[int, SurvivalLevel]:
    """Survival masses of every ordered start pair on levels 1..top_level,
    from one backward sweep: ``table[m] = (masses, den)``.

    A pair is keyed by its walkers' x-coordinates: ``masses[u, l] / den``,
    for 0 <= u < l <= m, is the probability that walkers started at
    (u, m - u) and (l, m - l) reach level 1 without meeting, i.e.
    ``barrier_meet_prob`` of that pair. The configuration (a, b, x) is the
    pair (a, a + x + 1) on level a + b + x + 1."""
    if top_level < 1:
        raise ValueError(f"top_level must be at least 1, got {top_level}")
    return {m: (masses, den) for m, masses, den in _survival_levels(rate, top_level)}


def barrier_meet_prob(config: BarrierConfig) -> Fraction:
    """Exact probability that the two walkers first meet at the origin.

    After a+b+x steps both walkers sit on the diagonal x + y = 1; survivors
    are at (0, 1) and (1, 0) in some order and the single remaining forced
    step lands both on the origin together. The survival mass of the start
    pair, the x's a and a+x+1 on level a+b+x+1, is therefore exactly the
    wanted probability.
    """
    a, b, x = config.a, config.b, config.x
    u, l = a, a + x + 1
    for _, masses, den in _survival_levels(config.rate, a + b + x + 1, (u, l)):
        pass
    return Fraction(masses[u, l], den)


def same_start_meet_prob(a: int, b: int, p) -> Fraction:
    """Both walkers start at (a+1, b+1); probability their first meeting
    after time zero is at the origin. Same sweep rules as the barrier walk.

    The shared start is exempt from the meeting rule, so it is filled from
    its own moves: West to x = a and South to x = a+1 on level a+b+1 split
    the walkers in either order, each with the mass of that pair.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    rate = ConstantRate(p)
    top = a + b + 1
    for _, masses, den in _survival_levels(rate, top, (a, a + 1)):
        pass
    d, moves = _move_tables(top + 1, [a + 1], rate)
    total = sum(wu * wl * masses[qu, ql] for (qu, wu), (ql, wl) in combinations(moves[a + 1], 2))
    return Fraction(2 * total, den * d * d)


def endpoint_distribution(start: paths.Point, steps: int, rate: RateModel) -> tuple[dict[paths.Point, int], int]:
    """Where one *unconstrained* West/South walker is after exactly ``steps``
    steps, as integer masses over one denominator: the walker ends at q with
    probability ``masses[q] / den``, and the masses sum to ``den``. No axis
    rules; coordinates may go negative.
    """
    return _endpoint_masses(start, steps, rate)


def _endpoint_masses(start: paths.Point, steps: int, rate: RateModel) -> tuple[dict[paths.Point, int], int]:
    """The single-walker DP behind both public single-walker functions.
    ``endpoint_probability`` calls it rather than ``endpoint_distribution``
    so that a trace wrapping the public functions counts one walker call
    per probability query.

    Both rate models depend only on the level, so after i steps from (r, s)
    the walker sits at (r - w, s - i + w), fixed by its count w of West
    steps, whose weight is ``masses[w]``. Each step reads one rate p, at
    (r, s - i); endpoints are named, and zero masses dropped, at the end.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    r, s = start
    masses = [1]
    den = 1
    for i in range(steps):
        p = rate.west(r, s - i)
        west, d = p.numerator, p.denominator
        masses = [stay * (d - west) + moved * west for stay, moved in zip(masses + [0], [0] + masses)]
        den *= d
    return {(r - w, s - steps + w): mass for w, mass in enumerate(masses) if mass}, den


def endpoint_probability(start: paths.Point, steps: int, targets, rate: RateModel) -> Fraction:
    """Probability that one *unconstrained* West/South walker is in ``targets``
    after exactly ``steps`` steps. No axis rules; coordinates may go negative."""
    masses, den = _endpoint_masses(start, steps, rate)
    return Fraction(sum(masses.get(t, 0) for t in set(targets)), den)
