"""Brute-force enumerators and exact dynamic programs used as ground truth.

Nothing in this module knows a closed form. Every pair of paths is
counted, bit-parallel, through ``paths.meeting_census``; probabilities come
from evolving exact integer masses over walker states. At each step every
live state moves with integer weights over one scale, the denominator of
the level's West rate, and the running denominator grows by that scale
(its square for the two-walker DP); one Fraction is built from the final
masses, so no per-step rational is ever normalised. The closed-form and
series modules are checked against these outputs, never the other way
around.

Paths come from ``paths.all_paths`` and every table is a
``paths.meeting_census`` under the named convention its docstring states, so
this module knows no step window and compares no vertices. Enumeration
order is fixed, so results are reproducible.

Walker model for the meeting probabilities: two walkers move simultaneously,
one step per time unit, West or South. Strictly inside the first quadrant
the West probability on level m = r + s is ``rate.at_level(m)``; a walker
that reaches an axis is swept deterministically along it toward the origin
(West on the x-axis, South on the y-axis). Both coordinate sums shrink by
one per step, so the walkers stay on a common diagonal and can only meet at
equal times; both hit the origin exactly when the diagonal runs out. A
walker on level m is therefore named by its x-coordinate r alone, and the
pair DP keys its positions that way. A rate model states one rate per
level, so one *unconstrained* walker (``endpoint_distribution``) is placed
after t steps by its number of West steps alone, and its DP counts West
steps. The walkers read the rate once per level they step through; the
pair walk reads each level once more to size its slots.

The pair walk has one implementation, ``_sweep``. It sweeps the levels
upward from level 1, where the one pair of x's (0, 1) has mass 1. Row u of
a level is one int whose slot l - lo holds the integer mass of the pair
(u, l). A level is the one below taken through both walkers' steps,
A B A^T, as two single-walker passes on whole rows: the lower walker steps
along each row (South keeps l, West shifts the row up one slot, and the
x-axis end is swept West), then the upper walker combines neighbouring rows
(row 0, on the y-axis, is swept South) and clearing the slots l <= u drops
the meetings. Neither x grows, and each drops by at most 1 per step, so two
walkers change order only by meeting: the pairs with u < l are all it
needs. A slot is 2 + sum(2 * d.bit_length()) bits wide over the levels'
scales d, which exceeds the bit length of the top level's denominator; no
mass exceeds its level's denominator, so no slot carries into the next.

``barrier_survival_table`` keeps every pair of every level, which is what a
suite over all configurations asks for, and unpacks it into a dict; the
single queries (``barrier_meet_prob``, ``same_start_meet_prob``) keep only
the x's their own walkers can reach and read one slot of the last level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

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
    return CountTable.from_entries(paths.meeting_census(ps, ps, paths.INTERIOR))


def endpoint_pair_table(n: int, r: int, s: int) -> CountTable:
    """Unordered pairs of origin walks ending at (r, n-r) and (s, n-s), r < s,
    keyed by shared vertices excluding the origin (shared endpoints count).

    Distinct endpoints mean every unordered pair has exactly one
    representative with the r-path first, so the iteration is already
    unordered. Total is C(n, r) * C(n, s).
    """
    if not 0 <= r < s <= n:
        raise ValueError(f"need 0 <= r < s <= n, got r={r}, s={s}, n={n}")
    census = paths.meeting_census(paths.all_paths(n, r), paths.all_paths(n, s), paths.EXCLUDING_ORIGIN)
    return CountTable.from_entries(census)


def free_pair_table(n: int) -> CountTable:
    """All 4^n ordered pairs of free n-step E/N walks from the origin, keyed
    by shared vertices excluding the origin (shared endpoints count)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    walks = [p for r in range(n + 1) for p in paths.all_paths(n, r)]
    return CountTable.from_entries(paths.meeting_census(walks, walks, paths.EXCLUDING_ORIGIN))


def same_endpoint_pair_table(n: int) -> CountTable:
    """Ordered pairs of free n-step walks with equal endpoints, keyed by
    interior shared vertices. Total is C(2n, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table: dict[int, int] = {}
    for r in range(n + 1):
        ps = paths.all_paths(n, r)
        for k, v in paths.meeting_census(ps, ps, paths.INTERIOR).items():
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

    def at_level(self, m: int) -> Fraction:
        return self.p


@dataclass(frozen=True)
class LevelRate:
    """West probability depends only on the level m = r + s.

    ``at_level(m)`` is ``values[m - 1]``; levels past the end of the table
    reuse the last entry, and levels below 1, which an unconstrained walker
    reaches once its coordinate sum runs out, use the first.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("LevelRate needs at least one value")
        object.__setattr__(self, "values", tuple(paths.as_probability(v) for v in self.values))

    def at_level(self, m: int) -> Fraction:
        return self.values[min(max(m, 1), len(self.values)) - 1]


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


SurvivalLevel = tuple[dict[tuple[int, int], int], int]


def _slot_width(rate: RateModel, top: int) -> int:
    """The slot width of a pair walk to level ``top``; see ``_sweep``."""
    return 2 + sum(2 * rate.at_level(m).denominator.bit_length() for m in range(2, top + 1))


def _sweep(rate: RateModel, top: int, start: tuple[int, int] | None = None):
    """The pair walk over levels 1..top, yielding ``(m, rows, den)``.

    Without ``start`` level m keeps every pair: uppers 0..m-1, lowers 1..m.
    With a start pair (u0, l0) on level ``top`` it keeps, for each walker,
    only the x's x0 - (top - m) <= x <= x0 it can reach from its own x0.
    ``rows[i]`` packs row u = ulo + i of level m, over the uppers ulo..uhi
    kept there: its slot j, ``_slot_width(rate, top)`` bits wide, holds the
    integer mass of the pair (u, l) with l = llo + j, and ``mass / den`` is
    the probability that walkers started at (u, m - u) and (l, m - l) reach
    level 1 without meeting. Level 1 is the one pair (0, 1) with mass 1, and
    only the current level is held.

    Level m reads one rate p = ``rate.at_level(m)``: the West weight is
    ``west`` = p.numerator over the scale d = p.denominator. Each level is
    A B A^T, with B the level below and A the one-walker step, done as two
    single-walker passes over whole rows:

    - the lower walker, along each row of B: l takes South weight from slot
      l and West weight from slot l - 1, i.e. ``south * row + west * (row
      << width)``; at l = m the x-axis sweep adds ``(d - west) * slot(m -
      1)``, so that x moves West with weight d. The row is then cut to the
      lowers kept on level m.
    - the upper walker, across the rows this gives:
      ``row_u = south * t[u] + west * t[u - 1]``, and ``d * t[0]`` for the
      y-axis sweep at u = 0. Clearing the slots l <= u then drops the
      meetings.

    Neither x grows and each drops by at most 1 per step, so the walkers
    change order only by meeting, and the pairs u < l are all the walk
    needs. A mass never exceeds its level's ``den``, the product of the
    squared scales of levels 2..m, so ``width = 2 + sum(2 * d.bit_length())``
    leaves every slot room for its value and no carry crosses slots.
    """
    width = _slot_width(rate, top)
    rows, ulo, llo, lhi = [1], 0, 1, 1
    den = 1
    yield 1, rows, den
    for m in range(2, top + 1):
        if start is None:
            ulo_m, uhi_m, llo_m, lhi_m = 0, m - 1, 1, m
        else:
            back = top - m
            ulo_m, uhi_m = max(0, start[0] - back), min(start[0], m - 1)
            llo_m, lhi_m = max(1, start[1] - back), min(start[1], m)
        p = rate.at_level(m)
        d, west = p.denominator, p.numerator
        south = d - west
        top_slot = width * (lhi - llo)
        keep = (1 << width * (lhi_m - llo + 1)) - 1
        drop = width * (llo_m - llo)
        t = []
        for row in rows:
            moved = south * row + west * (row << width)
            if lhi_m == m:
                moved += south * (row >> top_slot) << top_slot + width
            t.append((moved & keep) >> drop)
        rows = []
        for u in range(ulo_m, uhi_m + 1):
            i = u - ulo
            if u == 0:
                row = d * t[0]
            else:
                row = west * t[i - 1]
                if i < len(t):  # the level below kept no row u = m - 1: it has no l > u
                    row += south * t[i]
            if u >= llo_m:
                cut = width * (u - llo_m + 1)
                row = row >> cut << cut
            rows.append(row)
        ulo, llo, lhi = ulo_m, llo_m, lhi_m
        den *= d * d
        yield m, rows, den


def _start_mass(rate: RateModel, top: int, start: tuple[int, int]) -> tuple[int, int]:
    """``(mass, den)`` of the start pair on level ``top``, from a sweep that
    keeps only the x's its walkers can reach: the last level is one row of
    one slot."""
    for _, rows, den in _sweep(rate, top, start):
        pass
    return rows[0], den


def barrier_survival_table(rate: RateModel, top_level: int) -> dict[int, SurvivalLevel]:
    """Survival masses of every ordered start pair on levels 1..top_level,
    from one backward sweep: ``table[m] = (masses, den)``.

    A pair is keyed by its walkers' x-coordinates: ``masses[u, l] / den``,
    for 0 <= u < l <= m, is the probability that walkers started at
    (u, m - u) and (l, m - l) reach level 1 without meeting, i.e.
    ``barrier_meet_prob`` of that pair. The configuration (a, b, x) is the
    pair (a, a + x + 1) on level a + b + x + 1. Every pair is unpacked from
    the sweep's rows, zeros included."""
    if top_level < 1:
        raise ValueError(f"top_level must be at least 1, got {top_level}")
    width = _slot_width(rate, top_level)
    mask = (1 << width) - 1
    table = {}
    for m, rows, den in _sweep(rate, top_level):
        masses = {}
        for u, row in enumerate(rows):
            row >>= width * u
            for l in range(u + 1, m + 1):
                masses[u, l] = row & mask
                row >>= width
        table[m] = masses, den
    return table


def barrier_meet_prob(config: BarrierConfig) -> Fraction:
    """Exact probability that the two walkers first meet at the origin.

    After a+b+x steps both walkers sit on the diagonal x + y = 1; survivors
    are at (0, 1) and (1, 0) in some order and the single remaining forced
    step lands both on the origin together. The survival mass of the start
    pair, the x's a and a+x+1 on level a+b+x+1, is therefore exactly the
    wanted probability.
    """
    a, b, x = config.a, config.b, config.x
    return Fraction(*_start_mass(config.rate, a + b + x + 1, (a, a + x + 1)))


def same_start_meet_prob(a: int, b: int, p) -> Fraction:
    """Both walkers start at (a+1, b+1); probability their first meeting
    after time zero is at the origin. Same sweep rules as the barrier walk.

    The shared start is exempt from the meeting rule, so it is filled from
    its own moves: West to x = a and South to x = a+1 on level a+b+1 split
    the walkers in either order, each with the mass of the pair (a, a+1),
    so the answer is 2 west south mass / (den d^2).
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    rate = ConstantRate(p)
    mass, den = _start_mass(rate, a + b + 1, (a, a + 1))
    d, west = rate.p.denominator, rate.p.numerator
    return Fraction(2 * west * (d - west) * mass, den * d * d)


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

    After i steps from (r, s) the walker sits at (r - w, s - i + w), fixed
    by its count w of West steps, whose weight is ``masses[w]``. Step i
    reads its level's rate once, ``rate.at_level(r + s - i)``; endpoints are
    named, and zero masses dropped, at the end.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    r, s = start
    masses = [1]
    den = 1
    for i in range(steps):
        p = rate.at_level(r + s - i)
        west, d = p.numerator, p.denominator
        masses = [stay * (d - west) + moved * west for stay, moved in zip(masses + [0], [0] + masses)]
        den *= d
    return {(r - w, s - steps + w): mass for w, mass in enumerate(masses) if mass}, den


def endpoint_probability(start: paths.Point, steps: int, targets, rate: RateModel) -> Fraction:
    """Probability that one *unconstrained* West/South walker is in ``targets``
    after exactly ``steps`` steps. No axis rules; coordinates may go negative."""
    masses, den = _endpoint_masses(start, steps, rate)
    return Fraction(sum(masses.get(t, 0) for t in set(targets)), den)
