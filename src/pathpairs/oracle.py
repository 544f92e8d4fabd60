"""Brute-force enumerators and exact dynamic programs used as ground truth.

Nothing in this module knows a closed form. Pair counts come from iterating
every pair of paths; probabilities come from evolving exact Fraction masses
over walker states. The closed-form and series modules are checked against
these outputs, never the other way around.

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
times; both hit the origin exactly when the diagonal runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import paths

Point = tuple[int, int]

DEFAULT_ENUM_LIMIT = 12


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

    def __getitem__(self, k: int) -> int:
        return self.entries.get(k, 0)

    def keys(self):
        return sorted(self.entries)

    @property
    def mean(self) -> Fraction:
        """Exact average key value, weighted by counts."""
        if self.total == 0:
            return Fraction(0)
        return Fraction(sum(k * v for k, v in self.entries.items()), self.total)


def _check_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise ValueError(f"{what}: n={n} exceeds the enumeration limit {limit}")


def rect_pair_table(n: int, r: int, limit: int = DEFAULT_ENUM_LIMIT) -> CountTable:
    """All ordered pairs of corner-to-corner paths on an r x (n-r) rectangle,
    keyed by interior shared vertices. Total is C(n, r)^2."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    _check_limit(n, limit, "rect_pair_table")
    ps = paths.all_paths(n, r)
    return CountTable.from_entries(paths.meeting_census(ps, ps, paths.intersections_interior))


def endpoint_pair_table(n: int, r: int, s: int, limit: int = DEFAULT_ENUM_LIMIT) -> CountTable:
    """Unordered pairs of origin walks ending at (r, n-r) and (s, n-s), r < s,
    keyed by shared vertices excluding the start.

    Distinct endpoints mean every unordered pair has exactly one
    representative with the r-path first, so the iteration is already
    unordered. Total is C(n, r) * C(n, s).
    """
    if not 0 <= r < s <= n:
        raise ValueError(f"need 0 <= r < s <= n, got r={r}, s={s}, n={n}")
    _check_limit(n, limit, "endpoint_pair_table")
    census = paths.meeting_census(
        paths.all_paths(n, r), paths.all_paths(n, s), paths.intersections_excluding_start
    )
    return CountTable.from_entries(census)


def free_pair_table(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> CountTable:
    """All 4^n ordered pairs of free n-step E/N walks from the origin, keyed
    by shared vertices excluding the origin (shared endpoints count)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_limit(n, limit, "free_pair_table")
    walks = [p for r in range(n + 1) for p in paths.all_paths(n, r)]
    return CountTable.from_entries(paths.meeting_census(walks, walks, paths.intersections_excluding_origin))


def same_endpoint_pair_table(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> CountTable:
    """Ordered pairs of free n-step walks with equal endpoints, keyed by
    interior shared vertices. Total is C(2n, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_limit(n, limit, "same_endpoint_pair_table")
    table: dict[int, int] = {}
    for r in range(n + 1):
        ps = paths.all_paths(n, r)
        for k, v in paths.meeting_census(ps, ps, paths.intersections_interior).items():
            table[k] = table.get(k, 0) + v
    out = CountTable.from_entries(table)
    assert out.total == comb(2 * n, n)
    return out


# --- exact walker probabilities -------------------------------------------


def _as_prob(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class ConstantRate:
    """Every interior point has the same West probability."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_prob(self.p))

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
        object.__setattr__(self, "values", tuple(_as_prob(v) for v in self.values))

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
    rate: RateModel = field(default_factory=lambda: ConstantRate(Fraction(1, 2)))

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.x < 0:
            raise ValueError("a, b, x must be nonnegative")


def _walker_moves(pos: Point, rate: RateModel):
    """Next-position distribution for one constrained walker."""
    r, s = pos
    if r == 0 and s == 0:
        return ((pos, Fraction(1)),)
    if s == 0:  # swept West along the x-axis
        return (((r - 1, 0), Fraction(1)),)
    if r == 0:  # swept South along the y-axis
        return (((0, s - 1), Fraction(1)),)
    p = rate.west(r, s)
    moves = []
    if p:
        moves.append(((r - 1, s), p))
    if p != 1:
        moves.append(((r, s - 1), 1 - p))
    return tuple(moves)


def _surviving_mass(u: Point, l: Point, rate: RateModel, steps: int) -> Fraction:
    """Probability that two constrained walkers take ``steps`` simultaneous
    steps without ever occupying the same vertex at the same time.

    The starting state is exempt: callers that start both walkers on one
    vertex are asking about meetings *after* time zero.
    """
    states: dict[tuple[Point, Point], Fraction] = {(u, l): Fraction(1)}
    for _ in range(steps):
        nxt: dict[tuple[Point, Point], Fraction] = {}
        for (pu, pl), mass in states.items():
            for qu, wu in _walker_moves(pu, rate):
                w = mass * wu
                for ql, wl in _walker_moves(pl, rate):
                    if qu == ql:
                        continue  # met strictly before the origin
                    key = (qu, ql)
                    prev = nxt.get(key)
                    nxt[key] = w * wl if prev is None else prev + w * wl
        states = nxt
    total = sum(states.values(), Fraction(0))
    return total


def barrier_meet_prob(config: BarrierConfig) -> Fraction:
    """Exact probability that the two walkers first meet at the origin.

    After a+b+x steps both walkers sit on the diagonal x + y = 1; survivors
    are at (0, 1) and (1, 0) in some order and the single remaining forced
    step lands both on the origin together. The survivor mass after a+b+x
    steps is therefore exactly the wanted probability.
    """
    u = (config.a, config.b + config.x + 1)
    l = (config.a + config.x + 1, config.b)
    return _surviving_mass(u, l, config.rate, config.a + config.b + config.x)


def same_start_meet_prob(a: int, b: int, p) -> Fraction:
    """Both walkers start at (a+1, b+1); probability their first meeting
    after time zero is at the origin. Same sweep rules as the barrier walk."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    start = (a + 1, b + 1)
    return _surviving_mass(start, start, ConstantRate(_as_prob(p)), a + b + 1)


def endpoint_probability(start: Point, steps: int, targets, rate: RateModel) -> Fraction:
    """Probability that one *unconstrained* West/South walker is in ``targets``
    after exactly ``steps`` steps. No axis rules; coordinates may go negative."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    dist: dict[Point, Fraction] = {start: Fraction(1)}
    for _ in range(steps):
        nxt: dict[Point, Fraction] = {}
        for (r, s), mass in dist.items():
            p = rate.west(r, s)
            if p:
                key = (r - 1, s)
                nxt[key] = nxt.get(key, Fraction(0)) + mass * p
            if p != 1:
                key = (r, s - 1)
                nxt[key] = nxt.get(key, Fraction(0)) + mass * (1 - p)
        dist = nxt
    return sum((dist.get(t, Fraction(0)) for t in set(targets)), Fraction(0))
