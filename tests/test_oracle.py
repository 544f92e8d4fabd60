"""Enumeration tables and exact walker dynamic programs.

Core claims:
    - the four pair tables reproduce hand-enumerated small cases and their
      totals are the expected binomial quantities
    - table keys stay inside the documented windows and tables reflect
      under r -> n - r
    - at the bench's sizes, the (12, 6) rectangle table and the n = 10
      same-endpoint table equal their closed forms at every k
    - the tables agree with applying the named path operation pair by pair,
      and the endpoint, free and same-endpoint tables with a tally that
      walks both vertex lists in step
    - the walker programs reproduce hand-computed meeting probabilities and
      the documented degenerate cases
    - the integer-mass walker DPs equal a Fraction-mass reference DP exactly,
      and a single walker's endpoint masses sum to their denominator
    - under both rate models, every start on a level spreads its steps over
      West-step counts as the start (0, m) does, shifted by the start
    - the pair DP names each walker by its x on the level; the backward
      survival table holds every pair u < l of x's of every level, equals
      the reference DP on each, and equals the sweep limited to one start
      pair on every small barrier configuration
    - the limited sweep equals the closed forms and the single-walker
      reduction at levels past 30, and the full table's entry up to level
      40 under level rates with per-level scales
    - a rate states one West probability per level through ``at_level``;
      the pair walk weighs each level over that value's denominator and its
      axis sweeps by the whole scale, the walkers read one rate per level
      (t reads for t single-walker steps, at most 2(L - 1) for a pair query
      to level L), and a rate object without ``at_level`` is refused at
      every walker entry point
    - preconditions (ranges, probability bounds) are enforced, and a
      float probability is refused
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathpairs import formulas, oracle
from pathpairs.paths import INTERIOR, PathNE, meeting_points


def test_rect_table_two_steps():
    table = oracle.rect_pair_table(2, 1)
    assert table.entries == {0: 2, 1: 2}
    assert table.total == 4


def test_rect_table_three_steps():
    table = oracle.rect_pair_table(3, 1)
    assert table.entries == {0: 2, 1: 4, 2: 3}
    assert table.total == 9


def test_rect_table_single_path_column():
    for n in (1, 2, 5):
        assert oracle.rect_pair_table(n, 0).entries == {n - 1: 1}
        assert oracle.rect_pair_table(n, n).entries == {n - 1: 1}


def test_rect_table_totals_and_reflection():
    from math import comb

    for n in range(1, 7):
        for r in range(n + 1):
            table = oracle.rect_pair_table(n, r)
            assert table.total == comb(n, r) ** 2
            assert table.entries == oracle.rect_pair_table(n, n - r).entries
            assert all(0 <= k <= n - 1 for k in table.entries)


def test_rect_table_matches_path_objects():
    # the batch census is the same count the per-pair operation defines
    def by_paths(n, r):
        vocab = [
            "".join("E" if t in epos else "N" for t in range(n))
            for epos in combinations(range(n), r)
        ]
        table = {}
        for wa in vocab:
            for wb in vocab:
                k = len(meeting_points(PathNE.from_word(wa), PathNE.from_word(wb), INTERIOR))
                table[k] = table.get(k, 0) + 1
        return table

    for n in range(1, 6):
        for r in range(n + 1):
            assert oracle.rect_pair_table(n, r).entries == by_paths(n, r)


def _vertex_lists(n, r):
    """Every n-step walk from the origin with r east steps, as its list of
    vertices, built here from the E-step positions."""
    out = []
    for epos in combinations(range(n), r):
        x = y = 0
        walk = [(x, y)]
        for t in range(n):
            if t in epos:
                x += 1
            else:
                y += 1
            walk.append((x, y))
        out.append(walk)
    return out


def _stepwise_tally(left, right, interior):
    """Pairs of ``left`` x ``right`` keyed by the steps past the origin at
    which both walks stand on the same vertex; ``interior`` leaves out the
    last step."""
    table = {}
    for a in left:
        for b in right:
            stop = len(a) - 1 if interior else len(a)
            k = sum(u == v for u, v in zip(a[1:stop], b[1:stop]))
            table[k] = table.get(k, 0) + 1
    return table


def test_endpoint_free_and_same_endpoint_tables_match_a_stepwise_walk():
    # no census and no vertex masks: both vertex lists walked in step
    for n in range(7):
        for r, s in combinations(range(n + 1), 2):
            expected = _stepwise_tally(_vertex_lists(n, r), _vertex_lists(n, s), interior=False)
            assert oracle.endpoint_pair_table(n, r, s).entries == expected
    for n in range(6):
        walks = [walk for r in range(n + 1) for walk in _vertex_lists(n, r)]
        assert oracle.free_pair_table(n).entries == _stepwise_tally(walks, walks, interior=False)
    for n in range(1, 7):
        expected = {}
        for r in range(n + 1):
            family = _vertex_lists(n, r)
            for k, v in _stepwise_tally(family, family, interior=True).items():
                expected[k] = expected.get(k, 0) + v
        assert oracle.same_endpoint_pair_table(n).entries == expected


def test_rect_table_rejects_bad_r():
    with pytest.raises(ValueError):
        oracle.rect_pair_table(3, 4)


def test_endpoint_table_examples():
    assert oracle.endpoint_pair_table(2, 0, 1).entries == {0: 1, 1: 1}
    assert oracle.endpoint_pair_table(1, 0, 1).entries == {0: 1}
    assert oracle.endpoint_pair_table(3, 0, 3).entries == {0: 1}


def test_endpoint_table_rejects_equal_or_swapped():
    with pytest.raises(ValueError):
        oracle.endpoint_pair_table(3, 2, 2)
    with pytest.raises(ValueError):
        oracle.endpoint_pair_table(3, 2, 1)


def test_free_table_examples():
    assert oracle.free_pair_table(1).entries == {0: 2, 1: 2}
    assert oracle.free_pair_table(0).entries == {0: 1}
    assert oracle.free_pair_table(8).get(0) == 12870  # C(16, 8)


def test_free_table_total():
    for n in range(6):
        table = oracle.free_pair_table(n)
        assert table.total == 4 ** n
        assert all(0 <= k <= n for k in table.entries)


def test_same_endpoint_table_examples():
    assert oracle.same_endpoint_pair_table(1).entries == {0: 2}
    assert oracle.same_endpoint_pair_table(2).entries == {0: 2, 1: 4}
    assert oracle.same_endpoint_pair_table(3).total == 20  # C(6, 3)


def test_tables_at_the_bench_sizes_equal_the_closed_forms():
    # the largest tables the bench enumerates: a corner-to-corner table at
    # its size cap and the same-endpoint table summed over eleven censuses
    rect = oracle.rect_pair_table(12, 6)
    assert rect.entries == {
        **{k: formulas.rect_pair_count_a(12, 6, k) for k in range(11)},
        11: comb(12, 6),  # a path meets itself, and only itself, at all 11 interior vertices
    }
    same = oracle.same_endpoint_pair_table(10)
    assert same.entries == {k: formulas.same_endpoint_pair_count(10, k) for k in range(10)}


def test_same_endpoint_rejects_zero():
    with pytest.raises(ValueError):
        oracle.same_endpoint_pair_table(0)


def test_count_table_rejects_negative():
    with pytest.raises(ValueError):
        oracle.CountTable.from_entries({-1: 2})
    with pytest.raises(ValueError):
        oracle.CountTable.from_entries({0: -2})


def test_count_table_mean():
    table = oracle.CountTable.from_entries({0: 2, 1: 2})
    assert table.mean == Fraction(1, 2)


# --- walker programs ---------------------------------------------------------


def test_barrier_walkers_starting_on_axes_always_reach_origin_first():
    for p in (Fraction(0), Fraction(2, 5), Fraction(1)):
        config = oracle.BarrierConfig(0, 0, 0, oracle.ConstantRate(p))
        assert oracle.barrier_meet_prob(config) == 1
    config = oracle.BarrierConfig(0, 0, 2, oracle.ConstantRate(Fraction(1, 3)))
    assert oracle.barrier_meet_prob(config) == 1


def test_barrier_single_interior_step():
    for p in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        config = oracle.BarrierConfig(1, 0, 0, oracle.ConstantRate(p))
        assert oracle.barrier_meet_prob(config) == p


def test_barrier_symmetric_square():
    config = oracle.BarrierConfig(1, 1, 0, oracle.ConstantRate(Fraction(1, 2)))
    assert oracle.barrier_meet_prob(config) == Fraction(1, 2)


def test_barrier_rejects_negative_geometry():
    with pytest.raises(ValueError):
        oracle.BarrierConfig(-1, 0, 0, oracle.ConstantRate(Fraction(1, 2)))


def test_rates_reject_bad_probabilities():
    with pytest.raises(ValueError):
        oracle.ConstantRate(Fraction(3, 2))
    with pytest.raises(ValueError):
        oracle.LevelRate((Fraction(1, 2), Fraction(-1, 4)))
    with pytest.raises(ValueError):
        oracle.LevelRate(())


def test_every_probability_argument_refuses_a_float():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not the 1/10 meant
    message = "^probability 0.1 is a float; give an int, a Fraction or a 'p/q' string$"
    calls = [
        lambda: oracle.ConstantRate(0.1),
        lambda: oracle.LevelRate((Fraction(1, 2), 0.1)),
        lambda: formulas.barrier_meet_formula(1, 1, 1, 0.1),
        lambda: formulas.same_start_meet_formula(1, 1, 0.1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert oracle.ConstantRate("1/10").p == oracle.ConstantRate(Fraction(1, 10)).p == Fraction(1, 10)


def test_level_rate_reuses_last_value():
    rate = oracle.LevelRate((Fraction(1, 3), Fraction(1, 4)))
    assert rate.at_level(2) == Fraction(1, 4)
    assert rate.at_level(10) == Fraction(1, 4)  # beyond the table
    assert rate.at_level(1) == Fraction(1, 3)
    assert rate.at_level(0) == Fraction(1, 3)  # below level 1
    assert rate.at_level(-4) == Fraction(1, 3)


def test_at_level_gives_each_level_one_weight():
    """A rate states one West probability per level, and each level of the
    pair walk multiplies the denominator by that value's squared scale:
    p = 0 and p = 1 give scale 1. Walkers kept on the two axes still weigh
    their sweeps by the whole scale."""
    rate = oracle.LevelRate((Fraction(1, 3), Fraction(1), Fraction(0), Fraction(1, 4)))
    assert [rate.at_level(m) for m in range(1, 5)] == list(rate.values)
    assert {oracle.ConstantRate(Fraction(2, 5)).at_level(m) for m in (-3, 0, 1, 7)} == {Fraction(2, 5)}
    assert [den for _, _, den in oracle._sweep(rate, 4)] == [1, 1, 1, 16]
    # the start pair (0, 5) on level 5 keeps x = 0 and x = 5 there
    assert oracle._start_mass(rate, 5, (0, 5)) == (256, 256)


def test_axis_sweeps_weigh_the_scale():
    """Walkers on the two axes never meet before level 1, so every pair
    (0, m) keeps the whole denominator, a product of the squared scales."""
    rate = oracle.LevelRate((Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(1, 4), Fraction(7, 16)))
    table = oracle.barrier_survival_table(rate, 7)
    want_den = 1
    for m, (masses, den) in table.items():
        if m > 1:
            want_den *= rate.at_level(m).denominator ** 2
        assert den == want_den
        assert masses[0, m] == den, m


class _PointOnlyRate:
    """A rate with a per-point West accessor and no ``at_level``."""

    def west(self, r: int, s: int) -> Fraction:
        return Fraction(1, 2) if r % 2 else Fraction(1, 3)


def test_a_rate_that_varies_along_a_level_is_refused():
    """The pair walk reads a rate only through ``at_level``, so a rate that
    varies along a level, stated per point, raises before any value is
    computed: the full table, a single barrier query and the same-start
    window (``same_start_meet_prob`` itself takes one constant p)."""
    rate = _PointOnlyRate()
    with pytest.raises(AttributeError, match="at_level"):
        oracle.barrier_survival_table(rate, 5)
    with pytest.raises(AttributeError, match="at_level"):
        oracle.barrier_meet_prob(oracle.BarrierConfig(1, 1, 1, rate))
    with pytest.raises(AttributeError, match="at_level"):
        oracle._start_mass(rate, 5, (2, 3))


def test_single_walker_refuses_a_rate_that_varies_along_a_level():
    """The single walker reads one rate per step through ``at_level``, so
    it refuses the per-point rate the pair walk refuses."""
    rate = _PointOnlyRate()
    with pytest.raises(AttributeError, match="at_level"):
        oracle.endpoint_probability((3, 3), 4, [(3, -1), (2, 0)], rate)
    with pytest.raises(AttributeError, match="at_level"):
        oracle.endpoint_distribution((3, 3), 4, rate)


@dataclass(frozen=True)
class _CountingRate(oracle.LevelRate):
    """A level rate that records the level of every ``at_level`` read."""

    reads: list[int] = field(default_factory=list)

    def at_level(self, m: int) -> Fraction:
        self.reads.append(m)
        return super().at_level(m)


def test_walkers_read_one_rate_per_level():
    """A single walker reads one rate per step; a pair query to level L
    reads each of levels 2..L at most twice (slot width and step)."""
    values = tuple(Fraction(m % 4, m % 5 + 4) for m in range(12))
    for start, steps in (((5, 20), 0), ((5, 20), 1), ((5, 20), 24), ((-2, 3), 9)):
        rate = _CountingRate(values)
        oracle.endpoint_probability(start, steps, [(0, 0)], rate)
        assert len(rate.reads) == steps, (start, steps)
    for a, b, x in ((0, 0, 0), (0, 0, 9), (3, 4, 2), (0, 9, 5), (7, 0, 6), (8, 8, 8)):
        rate = _CountingRate(values)
        oracle.barrier_meet_prob(oracle.BarrierConfig(a, b, x, rate))
        assert len(rate.reads) <= 2 * (a + b + x), (a, b, x)


def test_same_start_one_step_split():
    for p in (Fraction(1, 2), Fraction(1, 5), Fraction(3, 4)):
        assert oracle.same_start_meet_prob(0, 0, p) == 2 * p * (1 - p)
    assert oracle.same_start_meet_prob(0, 0, Fraction(1, 2)) == Fraction(1, 2)


def test_same_start_hand_case():
    assert oracle.same_start_meet_prob(1, 0, Fraction(1, 3)) == Fraction(4, 27)


def test_endpoint_probability_basics():
    rate = oracle.ConstantRate(Fraction(1, 2))
    assert oracle.endpoint_probability((0, 1), 0, [(0, 1)], rate) == 1
    for p in (Fraction(1, 3), Fraction(1, 2)):
        rate_p = oracle.ConstantRate(p)
        assert oracle.endpoint_probability((1, 1), 1, [(0, 1)], rate_p) == p
    assert oracle.endpoint_probability((1, 2), 2, [(0, 1)], rate) == Fraction(1, 2)


def test_endpoint_probability_mass_is_conserved():
    rate = oracle.LevelRate((Fraction(1, 3), Fraction(2, 7), Fraction(5, 16)))
    start, steps = (2, 3), 4
    targets = [(start[0] - w, start[1] - (steps - w)) for w in range(steps + 1)]
    assert oracle.endpoint_probability(start, steps, targets, rate) == 1


# --- integer-mass DPs against a Fraction-mass reference ------------------------


def _reference_moves(pos, rate):
    """Next-position distribution for one constrained walker, as Fractions."""
    r, s = pos
    if r == 0 and s == 0:
        return ((pos, Fraction(1)),)
    if s == 0:
        return (((r - 1, 0), Fraction(1)),)
    if r == 0:
        return (((0, s - 1), Fraction(1)),)
    p = rate.at_level(r + s)
    return tuple(move for move in (((r - 1, s), p), ((r, s - 1), 1 - p)) if move[1])


def _reference_surviving_mass(u, l, rate, steps):
    """The pair DP with a normalised Fraction mass on every state."""
    states = {(u, l): Fraction(1)}
    for _ in range(steps):
        nxt = {}
        for (pu, pl), mass in states.items():
            for qu, wu in _reference_moves(pu, rate):
                for ql, wl in _reference_moves(pl, rate):
                    if qu != ql:
                        nxt[(qu, ql)] = nxt.get((qu, ql), Fraction(0)) + mass * wu * wl
        states = nxt
    return sum(states.values(), Fraction(0))


def _reference_endpoint_probability(start, steps, targets, rate):
    """The unconstrained single-walker DP with Fraction masses."""
    dist = {start: Fraction(1)}
    for _ in range(steps):
        nxt = {}
        for (r, s), mass in dist.items():
            p = rate.at_level(r + s)
            for key, w in (((r - 1, s), p), ((r, s - 1), 1 - p)):
                if w:
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * w
        dist = nxt
    return sum((dist.get(t, Fraction(0)) for t in set(targets)), Fraction(0))


# rates with denominators up to 16, always including the forced 0 and 1
_probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(1, 16).flatmap(lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))),
)
_rates = st.one_of(
    st.builds(oracle.ConstantRate, _probabilities),
    st.lists(_probabilities, min_size=1, max_size=10).map(lambda v: oracle.LevelRate(tuple(v))),
)
_small = st.integers(0, 4)
_mixed_levels = oracle.LevelRate(
    (Fraction(1, 3), Fraction(0), Fraction(3, 16), Fraction(1), Fraction(5, 7), Fraction(2, 9))
)


@settings(max_examples=150, deadline=None)
@example(a=1, b=2, x=1, rate=oracle.ConstantRate(Fraction(0)))
@example(a=2, b=1, x=1, rate=oracle.ConstantRate(Fraction(1)))
@example(a=2, b=2, x=1, rate=_mixed_levels)
@given(a=_small, b=_small, x=_small, rate=_rates)
def test_barrier_dp_equals_fraction_reference(a, b, x, rate):
    config = oracle.BarrierConfig(a, b, x, rate)
    want = _reference_surviving_mass((a, b + x + 1), (a + x + 1, b), rate, a + b + x)
    got = oracle.barrier_meet_prob(config)
    assert isinstance(got, Fraction)
    assert got == want


@settings(max_examples=60, deadline=None)
@example(a=1, b=1, p=Fraction(0))
@example(a=1, b=1, p=Fraction(1))
@given(a=_small, b=_small, p=_probabilities)
def test_same_start_dp_equals_fraction_reference(a, b, p):
    start = (a + 1, b + 1)
    want = _reference_surviving_mass(start, start, oracle.ConstantRate(p), a + b + 1)
    assert oracle.same_start_meet_prob(a, b, p) == want


@settings(max_examples=150, deadline=None)
@example(start=(2, 3), steps=5, west_steps=[0, 2, 5], rate=oracle.ConstantRate(Fraction(0)))
@example(start=(2, 3), steps=5, west_steps=[0, 2, 5], rate=oracle.ConstantRate(Fraction(1)))
@example(start=(4, 3), steps=6, west_steps=[1, 3, 4], rate=_mixed_levels)
@given(
    start=st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
    steps=st.integers(0, 9),
    west_steps=st.lists(st.integers(0, 9), max_size=6),
    rate=_rates,
)
def test_single_walker_equals_fraction_reference(start, steps, west_steps, rate):
    targets = [(start[0] - w, start[1] - (steps - w)) for w in west_steps] + [(99, 99)]
    got = oracle.endpoint_probability(start, steps, targets, rate)
    assert isinstance(got, Fraction)
    assert got == _reference_endpoint_probability(start, steps, targets, rate)
    masses, den = oracle.endpoint_distribution(start, steps, rate)
    assert all(isinstance(m, int) and m > 0 for m in masses.values())
    assert sum(masses.values()) == den


@pytest.mark.parametrize(
    "rate",
    [oracle.ConstantRate(Fraction(3, 7)), oracle.LevelRate(_mixed_levels.values + (Fraction(7, 11),) * 3)],
)
def test_every_start_on_a_level_spreads_like_the_axis_start(rate):
    for m in range(1, 10):
        masses, den = oracle.endpoint_distribution((0, m), m - 1, rate)
        for r in range(m + 1):
            shifted = {(q[0] + r, q[1] - r): mass for q, mass in masses.items()}
            assert oracle.endpoint_distribution((r, m - r), m - 1, rate) == (shifted, den), (m, r)


# --- the backward survival table ----------------------------------------------


def _ordered_pairs(m):
    return {(u, l) for u in range(m + 1) for l in range(u + 1, m + 1)}


def _point(m, x):
    """The vertex of level m whose x-coordinate is x."""
    return (x, m - x)


@settings(max_examples=80, deadline=None)
@example(top_level=6, rate=oracle.ConstantRate(Fraction(0)))
@example(top_level=6, rate=oracle.ConstantRate(Fraction(1)))
@example(top_level=7, rate=_mixed_levels)
@given(top_level=st.integers(1, 7), rate=_rates)
def test_survival_table_equals_fraction_reference(top_level, rate):
    table = oracle.barrier_survival_table(rate, top_level)
    assert sorted(table) == list(range(1, top_level + 1))
    for m, (masses, den) in table.items():
        assert set(masses) == _ordered_pairs(m)
        assert isinstance(den, int) and den > 0
        for (u, l), mass in masses.items():
            assert isinstance(mass, int) and 0 <= mass <= den
            want = _reference_surviving_mass(_point(m, u), _point(m, l), rate, m - 1)
            assert Fraction(mass, den) == want, (m, u, l)


# the constant rates of the walker suites, and two level tables
_TABLE_RATES = (
    oracle.ConstantRate(Fraction(1, 2)),
    oracle.ConstantRate(Fraction(1, 3)),
    oracle.ConstantRate(Fraction(2, 5)),
    _mixed_levels,
    oracle.LevelRate((Fraction(4, 5), Fraction(1, 16), Fraction(1), Fraction(7, 9), Fraction(0))),
)


@pytest.mark.parametrize("rate", _TABLE_RATES)
def test_survival_table_equals_forward_dp_on_small_configs(rate):
    table = oracle.barrier_survival_table(rate, 7)
    checked = 0
    for a in range(7):
        for b in range(7 - a):
            for x in range(7 - a - b):
                m, u, l = a + b + x + 1, a, a + x + 1
                assert (_point(m, u), _point(m, l)) == ((a, b + x + 1), (a + x + 1, b))
                masses, den = table[m]
                got = Fraction(masses[u, l], den)
                assert got == oracle.barrier_meet_prob(oracle.BarrierConfig(a, b, x, rate)), (a, b, x)
                checked += 1
    assert checked == 84  # every a + b + x <= 6


def test_single_queries_at_large_levels():
    """The single queries sweep only what their walkers can reach; past
    level 30 they still equal the closed forms and the single-walker
    reduction, with either walker starting on an axis."""
    for a, b, x, p in (
        (10, 10, 10, Fraction(1, 2)), (0, 16, 14, Fraction(2, 7)),
        (17, 0, 13, Fraction(3, 5)), (0, 0, 31, Fraction(1, 3)),
    ):
        config = oracle.BarrierConfig(a, b, x, oracle.ConstantRate(p))
        assert oracle.barrier_meet_prob(config) == formulas.barrier_meet_formula(a, b, x, p), (a, b, x)
    rate = oracle.LevelRate(tuple(Fraction(m % 5, m % 3 + 5) for m in range(32)))
    for a, b, x in ((9, 12, 10), (0, 20, 11)):
        targets = [(-t, 1 + t) for t in range(x + 1)]
        want = oracle.endpoint_probability((a, b + x + 1), a + b + x, targets, rate)
        assert oracle.barrier_meet_prob(oracle.BarrierConfig(a, b, x, rate)) == want, (a, b, x)
    for a, b in ((15, 15), (0, 30), (31, 0)):
        p = Fraction(3, 7)
        assert oracle.same_start_meet_prob(a, b, p) == formulas.same_start_meet_formula(a, b, p), (a, b)


def _high_level_rates():
    rng = random.Random(4122)
    return [
        oracle.LevelRate(tuple(Fraction(rng.randint(0, den), den) for den in (rng.randint(1, 16) for _ in range(40))))
        for _ in range(3)
    ]


@pytest.mark.parametrize("rate", _high_level_rates())
def test_windowed_queries_equal_the_full_sweep_at_high_levels(rate):
    """Up to level 40 the window of a single query moves far; its one slot
    still equals the full table's entry, for an upper walker on the y-axis
    (a = 0), a lower walker on the x-axis (b = 0), both walkers on the axes
    at every level (a = b = 0) and two interior walkers."""
    table = oracle.barrier_survival_table(rate, 40)
    configs = [
        (0, 20, 19), (0, 1, 37), (0, 30, 2),
        (20, 0, 19), (37, 0, 1), (3, 0, 30),
        (0, 0, 39), (13, 13, 13), (1, 37, 0), (25, 2, 5), (9, 16, 4),
    ]
    for a, b, x in configs:
        masses, den = table[a + b + x + 1]
        want = Fraction(masses[a, a + x + 1], den)
        assert oracle.barrier_meet_prob(oracle.BarrierConfig(a, b, x, rate)) == want, (a, b, x)


def test_survival_table_rejects_empty_range():
    with pytest.raises(ValueError):
        oracle.barrier_survival_table(oracle.ConstantRate(Fraction(1, 2)), 0)
