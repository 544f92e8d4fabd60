"""Check-report plumbing and the aggregate runner.

Core claims:
    - recorders count instances and keep only the first failure, with every
      input and both values rendered as strings; each instance is compared
      once, so a refused one fails whatever values its failure shows
    - reports are reproducible: the same configuration yields identical
      report objects; the suite's wall time rides along outside equality
    - suite selection is honored in registry order, unknown names raise, an
      empty selection runs nothing, an n_max below 1 is rejected
    - a suite is one name in SUITE_NAMES and one check_<name>(rec, cap):
      the runner builds the suite's recorder, resolves the cap once, has
      suite_check look the check up by name as it runs and reads the
      report, so adding a suite takes nothing more, and a lone suite from
      cold memos reports what it reports in a full run
    - a shrunken n_max still passes every suite (smoke run)
    - every suite reads the four enumerated tables through one memo, so a
      full run builds each (function, arguments) table exactly once; under
      it, a full run from cleared memos tallies each census key at most once
    - a warm series memo hides a perturbed chain step from the series
      suites, and once every memo is cleared the same mutant fails all three
    - the barrier suite compares its two walker DPs in integers, but a
      perturbed single-walker or pair mass fails it with the configuration
      and both values shown as reduced probabilities
    - the routes suite runs every route the command line prints: a barrier
      route shifted by 10^-12 at every argument fails it, naming the route
    - a passing instance is counted after one compare, rationals
      cross-multiplied, yet one wrong value fails its comparison with the
      very counterexample it reported when every instance built its context
      and its Fractions; with the tests above, this runs every one of the
      43 failure branches
    - wz asks for each meeting probability once, bar the companion's own
      reads, and lagrange for each rectangle row once for all its points
"""

import inspect
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import count

import pytest

from pathpairs import bijection, formulas, oracle, paths, series, verify
from pathpairs.series import BiSeries
from pathpairs.verify import CheckReport, VerifyConfig, _Recorder


def test_recorder_counts_and_first_failure():
    rec = _Recorder("demo")
    assert rec.passes(1, 1)
    assert not rec.passes(2, 3)
    rec.fail(n=2, side="left vs right")
    assert not rec.passes(4, 5)
    rec.fail(n=3)
    report = rec.report()
    assert report.check_id == "demo"
    assert not report.passed
    assert report.instances == 3
    assert report.first_failure == {"left": "2", "right": "3", "n": "2", "side": "left vs right"}
    # a refused instance fails whatever values its failure shows
    rec = _Recorder("demo")
    assert not rec.passes(1, 2)
    rec.fail(left=5, right=5)
    assert not rec.report().passed


def test_recorder_predicate_form():
    rec = _Recorder("demo")
    assert rec.passes(True)
    assert not rec.passes(False)
    rec.fail(note="broken")
    report = rec.report()
    assert not report.passed
    assert report.first_failure == {"note": "broken"}


def test_passing_report_carries_no_counterexample():
    with pytest.raises(ValueError):
        CheckReport("x", True, 1, {"left": "1"})


def test_reports_are_reproducible():
    config = VerifyConfig(suites=("theorem1", "barrier", "series-fk"), n_max=4)
    assert verify.run_all(config) == verify.run_all(config)


def test_elapsed_time_is_recorded_but_not_compared():
    (report,) = verify.run_all(VerifyConfig(suites=("theorem1",), n_max=4))
    assert report.elapsed_s > 0
    assert report == CheckReport(report.check_id, report.passed, report.instances, elapsed_s=123.0)


def test_selection_and_order():
    config = VerifyConfig(suites=("fnk", "theorem1"))  # registry order wins
    reports = verify.run_all(config)
    assert [r.check_id for r in reports] == ["theorem1", "fnk"]


def test_empty_selection():
    assert verify.run_all(VerifyConfig(suites=())) == []


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match=r"^unknown suites \['no-such-suite'\]; known: theorem1, "):
        VerifyConfig(suites=("theorem1", "no-such-suite"))


def test_n_max_below_one_rejected():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            VerifyConfig(n_max=n_max)
    assert VerifyConfig(n_max=1).n_max == 1
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        verify.run_all(VerifyConfig(suites=("theorem1",), n_max=0))


def test_each_check_takes_only_rec_and_cap():
    for name in verify.SUITE_NAMES:
        assert list(inspect.signature(verify.suite_check(name)).parameters) == ["rec", "cap"], name


def test_run_all_looks_up_each_check_when_it_runs(monkeypatch):
    sizes = []
    stub = CheckReport("theorem1", True, 1)
    monkeypatch.setattr(verify, "check_theorem1", lambda rec, cap: sizes.append(cap) or rec.passes(True))
    assert verify.run_all(VerifyConfig(suites=("theorem1",), n_max=4)) == [stub]
    assert sizes == [4]


def test_adding_a_suite_takes_one_name_and_one_function(monkeypatch):
    def check_demo(rec, cap):
        for n, (left, right) in enumerate([(1, 1), (2, 2), (3, 4)]):
            if not rec.passes(left, right):
                rec.fail(n=n, sides="demo")

    monkeypatch.setattr(verify, "SUITE_NAMES", (*verify.SUITE_NAMES, "demo"))
    monkeypatch.setattr(verify, "check_demo", check_demo, raising=False)
    (report,) = verify.run_all(VerifyConfig(suites=("demo",)))
    assert (report.check_id, report.passed, report.instances) == ("demo", False, 3)
    assert report.first_failure == {"left": "3", "right": "4", "n": "2", "sides": "demo"}
    assert report.elapsed_s > 0


def test_smoke_run_all_passes():
    reports = verify.run_all(VerifyConfig(n_max=3))
    assert len(reports) == len(verify.SUITE_NAMES)
    assert all(r.passed for r in reports)
    assert all(r.instances > 0 for r in reports)


@pytest.fixture(scope="module")
def full_run_at_6():
    return {report.check_id: report for report in verify.run_all(VerifyConfig(n_max=6))}


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_each_suite_passes_at_moderate_size(name, full_run_at_6, cold_memos):
    (report,) = verify.run_all(VerifyConfig(suites=(name,), n_max=6))
    assert report.passed, report.first_failure
    # the runner carries nothing from one suite to the next
    assert report == full_run_at_6[name]


TABLE_SUITES = ("recurrence", "eq8", "nkr", "mrs", "fnk", "pnk", "diag", "avg", "series-uk")
TABLE_FUNCTIONS = ("rect_pair_table", "endpoint_pair_table", "free_pair_table", "same_endpoint_pair_table")


def test_every_enumerated_table_is_built_once(monkeypatch, cold_memos):
    builds = Counter()

    def counting(name):
        build = getattr(oracle, name)
        return lambda *args: builds.update([(name, args)]) or build(*args)

    for name in TABLE_FUNCTIONS:
        monkeypatch.setattr(oracle, name, counting(name))
    # cold_memos empties the table memo afterwards too: its entries are keyed
    # by the counting wrappers
    reports = verify.run_all(VerifyConfig(suites=TABLE_SUITES))
    assert all(report.passed for report in reports)
    assert {name for name, _ in builds} == set(TABLE_FUNCTIONS)
    assert max(builds.values()) == 1, [key for key, count in builds.items() if count > 1]
    assert builds[("free_pair_table", (8,))] == builds[("same_endpoint_pair_table", (9,))] == 1


def test_a_full_run_tallies_each_census_at_most_once(monkeypatch, cold_memos):
    runs = Counter()
    tally = paths._tally
    monkeypatch.setattr(paths, "_tally", lambda *key: runs.update([key]) or tally(*key))
    reports = verify.run_all()
    assert all(report.passed for report in reports)
    assert runs and max(runs.values()) == 1, [key[2] for key, count in runs.items() if count > 1]


SERIES_SUITES = ("series-uk", "series-f", "series-fk")


def test_a_perturbed_chain_fails_every_series_suite_from_cold_memos(monkeypatch, cold_memos):
    config = VerifyConfig(suites=SERIES_SUITES)
    assert all(report.passed for report in verify.run_all(config))
    chain = series._chain

    def perturbed(first, second, c):
        # one count added at x^3 to every stepped term: the power k = 1 at
        # (n, r) = (3, 0) is the first coefficient each suite reads there
        for m, term in enumerate(chain(first, second, c)):
            yield term + BiSeries(term.degree, {(3, 0): 1}) if m >= 2 else term

    monkeypatch.setattr(series, "_chain", perturbed)
    # every chain the three suites read is kept, so the mutant never runs
    assert all(report.passed for report in verify.run_all(config))
    cold_memos()
    reports = verify.run_all(config)
    assert [report.check_id for report in reports if not report.passed] == list(SERIES_SUITES)


def test_barrier_suite_fails_on_a_perturbed_single_walker(monkeypatch):
    distribution = oracle.endpoint_distribution

    def perturbed(start, steps, rate):
        masses, den = distribution(start, steps, rate)
        if start == (0, 5):  # level 5: four steps, den 16 at p = 1/2
            masses = {**masses, (0, 1): masses.get((0, 1), 0) + 4}
        return masses, den

    monkeypatch.setattr(oracle, "endpoint_distribution", perturbed)
    (report,) = verify.run_all(VerifyConfig(suites=("barrier",)))
    assert not report.passed
    # the first configuration on level 5 whose targets include w = 0: the
    # pair walk from (0, 5) and (5, 0) meets at the origin surely
    assert report.first_failure == {
        "left": "1", "right": "5/4", "a": "0", "b": "0", "x": "4", "sides": "pair walk vs single walker",
    }


def test_barrier_suite_fails_on_a_perturbed_pair_mass(monkeypatch):
    survival_table = oracle.barrier_survival_table
    shown = []

    def perturbed(rate, top_level):
        table = survival_table(rate, top_level)
        if isinstance(rate, oracle.LevelRate):
            masses, den = table[4]
            mass = masses[1, 3]
            table[4] = {**masses, (1, 3): mass + 1}, den
            shown.append({"left": str(Fraction(mass + 1, den)), "right": str(Fraction(mass, den))})
        return table

    monkeypatch.setattr(oracle, "barrier_survival_table", perturbed)
    (report,) = verify.run_all(VerifyConfig(suites=("barrier",)))
    assert not report.passed
    # the x's 1 and 3 on level 4 are the configuration a = b = x = 1; the
    # single walker still shows the unperturbed pair-walk probability
    assert report.first_failure == {
        **shown[0], "a": "1", "b": "1", "x": "1", "sides": "pair walk vs single walker",
    }


@pytest.mark.parametrize("name, route", [("barrier_meet_prob", "dp"), ("endpoint_probability", "single-walker")])
def test_routes_suite_fails_on_a_shifted_barrier_route(monkeypatch, name, route):
    original = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: original(*args) + Fraction(1, 10**12))
    (report,) = verify.run_all(VerifyConfig(suites=("routes",)))
    assert not report.passed
    failure = report.first_failure
    left, right = failure["sides"].split(" vs ")
    values = {left: Fraction(failure["left"]), right: Fraction(failure["right"])}
    (other,) = set(values) - {route}
    assert values[route] - values[other] == Fraction(1, 10**12)


def _changed_at(point, change):
    """Patch maker: the function's value passed through ``change`` at the
    arguments ``point``."""
    return lambda original: lambda *args: change(original(*args)) if args == point else original(*args)


def _shift_at(point, delta):
    """Patch maker: the function plus ``delta`` at the arguments ``point``."""
    return _changed_at(point, lambda value: value + delta)


def _false_at(point):
    """Patch maker: the predicate reads False at the arguments ``point``."""
    return _changed_at(point, lambda ok: False)


def _shift_at_call(call, delta):
    """Patch maker: the function plus ``delta`` on its ``call``-th call."""

    def patch(original):
        calls = count(1)
        return lambda *args: original(*args) + (delta if next(calls) == call else 0)

    return patch


def _entry_shifted(k, delta):
    """A count table's change: entry ``k`` plus ``delta``, its total with it."""
    return lambda table: oracle.CountTable.from_entries({**table.entries, k: table.get(k) + delta})


def _entries_swapped(i, j):
    """A count table's change: entries ``i`` and ``j`` trade places, the
    total kept."""
    return lambda table: oracle.CountTable.from_entries({**table.entries, i: table.get(j), j: table.get(i)})


def _replay_failed(report):
    """A replay report's change: four failures, of which a suite shows three."""
    return replace(report, passed=False, failures=("row 1", "row 2", "row 3", "row 4"))


def _term_added(term):
    """A series' change: one count added at ``term``."""
    return lambda s: s + BiSeries(s.degree, {term: 1})


ONE_WRONG_VALUE = {
    "wz difference": (
        "wz", formulas, "telescoping_companion", _shift_at((7, 4), Fraction(1, 10**9)),
        {"left": "-8/429", "right": "-7999999571/429000000000", "n": "7", "k": "3",
         "sides": "difference vs companion"},
    ),
    # n = 50 is past the difference rows, so only its total reads it
    "wz total": (
        "wz", formulas, "same_endpoint_meet_prob", _shift_at((50, 10), Fraction(1, 10**9)),
        {"left": "1000000001/1000000000", "right": "1", "n": "50", "sides": "probability total"},
    ),
    "barrier closed form": (
        "barrier", formulas, "barrier_meet_formula", _shift_at((2, 1, 3, Fraction(1, 3)), Fraction(1, 10**9)),
        {"left": "472/729", "right": "472000000729/729000000000", "a": "2", "b": "1", "x": "3", "p": "1/3",
         "sides": "pair walk vs closed form"},
    ),
    "vandermonde plain": (
        "vandermonde", formulas, "vandermonde_a", _false_at((-2, 5, 3)),
        {"a": "-2", "b": "5", "m": "3", "identity": "plain"},
    ),
    "vandermonde alternating": (
        "vandermonde", formulas, "vandermonde_b", _false_at((3, -1, 4)),
        {"a": "3", "c": "-1", "m": "4", "identity": "alternating"},
    ),
    # call 100 falls on the point (1/2, 3/4), whose row is over 8^n
    "lagrange": (
        "lagrange", series, "lagrange_coefficient", _shift_at_call(100, 1),
        {"left": "41371/4096", "right": "37275/4096", "y": "1/2", "z": "3/4", "n": "7", "k": "0",
         "sides": "extraction vs row"},
    ),
    "pnk probability": (
        "pnk", formulas, "same_endpoint_meet_prob", _shift_at((6, 2), Fraction(1, 10**9)),
        {"left": "8000000033/33000000000", "right": "8/33", "n": "6", "k": "2", "sides": "formula vs oracle"},
    ),
    # a wrong free_pair_count(n, 0) fails the row sum at n first, so the
    # probability row is reached through its other side, C(2n, n)
    "fnk probability": (
        "fnk", verify, "comb", _shift_at((40, 20), 1),
        {"left": "34461632205/274877906944", "right": "137846528821/1099511627776", "n": "20",
         "sides": "nonmeeting probability"},
    ),
    "theorem1": (
        "theorem1", formulas, "rect_pair_count_b", _shift_at((5, 2, 1), 1),
        {"left": "24", "right": "25", "n": "5", "r": "2", "k": "1", "sides": "form a vs form b"},
    ),
    # the convolution at n reads only smaller tables, so (4, 2) fails first
    # where it is the oracle side
    "recurrence": (
        "recurrence", oracle, "rect_pair_table", _changed_at((4, 2), _entry_shifted(1, 1)),
        {"left": "13", "right": "12", "n": "4", "r": "2", "k": "1", "sides": "oracle vs convolution"},
    ),
    "eq8 oracle": (
        "eq8", oracle, "free_pair_table", _changed_at((5,), _entry_shifted(2, 1)),
        {"left": "225", "right": "224", "n": "5", "k": "2", "sides": "oracle table vs convolution"},
    ),
    "eq8 closed forms": (
        "eq8", formulas, "free_pair_count", _shift_at((6, 3), 1),
        {"left": "673", "right": "672", "n": "6", "k": "3", "sides": "closed forms"},
    ),
    "nkr total": (
        "nkr", oracle, "rect_pair_table", _changed_at((5, 2), _entry_shifted(1, 1)),
        {"left": "101", "right": "100", "n": "5", "r": "2", "sides": "total"},
    ),
    "nkr reflection": (
        "nkr", oracle, "rect_pair_table", _changed_at((5, 2), _entries_swapped(0, 1)),
        {"left": "{0: 24, 1: 12, 2: 30, 3: 24, 4: 10}", "right": "{0: 12, 1: 24, 2: 30, 3: 24, 4: 10}", "n": "5",
         "r": "2", "sides": "reflection"},
    ),
    "nkr form a": (
        "nkr", formulas, "rect_pair_count_a", _shift_at((5, 2, 1), 1),
        {"left": "25", "right": "24", "n": "5", "r": "2", "k": "1", "sides": "form a vs oracle"},
    ),
    "nkr form b": (
        "nkr", formulas, "rect_pair_count_b", _shift_at((5, 2, 1), 1),
        {"left": "25", "right": "24", "n": "5", "r": "2", "k": "1", "sides": "form b vs oracle"},
    ),
    "doubling": (
        "doubling", formulas, "rect_pair_count_a", _shift_at((5, 2, 1), 1),
        {"left": "25", "right": "24", "n": "5", "r": "2", "sides": "k=1 vs twice k=0"},
    ),
    "doubling half": (
        "doubling", formulas, "narayana", _shift_at((5, 2), 1),
        {"left": "14", "right": "12", "n": "5", "r": "2", "sides": "half count"},
    ),
    "bijection": (
        "bijection", bijection, "verify_correspondence",
        _changed_at((2, 3), _replay_failed),
        {"r": "2", "s": "3", "failures": "row 1; row 2; row 3"},
    ),
    "mrs total": (
        "mrs", oracle, "endpoint_pair_table", _changed_at((4, 1, 3), _entry_shifted(1, 1)),
        {"left": "17", "right": "16", "n": "4", "r": "1", "s": "3", "sides": "total"},
    ),
    "mrs k0": (
        "mrs", formulas, "endpoint_pair_count_k0", _shift_at((4, 1, 3), 1),
        {"left": "9", "right": "8", "n": "4", "r": "1", "s": "3", "sides": "k0 form vs oracle"},
    ),
    # at r = s the count reads the rectangle form; the boundary instance
    # reads endpoint_pair_expression, which is left alone
    "mrs equal endpoints": (
        "mrs", formulas, "endpoint_pair_count", _shift_at((4, 2, 2, 1), 1),
        {"left": "7", "right": "6", "n": "4", "r": "2", "s": "2", "k": "1",
         "sides": "equal endpoints vs rectangle table"},
    ),
    "fnk total": (
        "fnk", oracle, "free_pair_table", _changed_at((5,), _entry_shifted(2, 1)),
        {"left": "1025", "right": "1024", "n": "5", "sides": "total"},
    ),
    "fnk formula": (
        "fnk", formulas, "free_pair_count", _shift_at((5, 2), 1),
        {"left": "225", "right": "224", "n": "5", "k": "2", "sides": "formula vs oracle"},
    ),
    # past the oracle's n = 8 only the row sum reads the row
    "fnk sum": (
        "fnk", formulas, "free_pair_count", _shift_at((20, 3), 1),
        {"left": "1099511627777", "right": "1099511627776", "n": "20", "sides": "sum vs 4^n"},
    ),
    "pnk count": (
        "pnk", formulas, "same_endpoint_pair_count", _shift_at((6, 2), 1),
        {"left": "225", "right": "224", "n": "6", "k": "2", "sides": "count form vs oracle"},
    ),
    "diag row sum": (
        "diag", formulas, "same_endpoint_pair_count", _shift_at((6, 2), 1),
        {"left": "225", "right": "224", "n": "6", "k": "2", "sides": "closed form vs row sum"},
    ),
    "diag oracle": (
        "diag", oracle, "same_endpoint_pair_table", _changed_at((6,), _entry_shifted(2, 1)),
        {"left": "224", "right": "225", "n": "6", "k": "2", "sides": "closed form vs oracle"},
    ),
    "avg mean": (
        "avg", formulas, "average_crossings", _shift_at((5,), Fraction(1, 10**9)),
        {"left": "1707031251/1000000000", "right": "437/256", "n": "5", "sides": "closed form vs oracle mean"},
    ),
    "avg asymptote": (
        "avg", formulas, "average_crossings_asymptote", _shift_at((1000,), 1.0),
        {"n": "1000", "exact": "34.695861302854496", "asymptote": "35.682482323055424", "rel_tol": "0.02"},
    ),
    "same-start": (
        "same-start", formulas, "same_start_meet_formula", _shift_at((2, 3, Fraction(1, 3)), Fraction(1, 10**9)),
        {"left": "320/2187", "right": "320000002187/2187000000000", "a": "2", "b": "3", "p": "1/3",
         "sides": "pair walk vs closed form"},
    ),
    "legendre": (
        "legendre", series, "rect_pair_base", _changed_at((12,), _term_added((3, 1))),
        {"left": "10", "right": "9", "n": "3", "r": "1", "sides": "series vs C(n,r)^2"},
    ),
    "series-f residual": (
        "series-f", series, "narayana_base", _changed_at((12,), _term_added((2, 1))),
        {"left": "1", "right": "0", "i": "2", "j": "1", "sides": "residual"},
    ),
}


@pytest.mark.parametrize("suite, module, name, patch, failure", ONE_WRONG_VALUE.values(), ids=ONE_WRONG_VALUE)
def test_one_wrong_value_fails_its_comparison_as_before(
    monkeypatch, cold_memos, suite, module, name, patch, failure
):
    # from cold memos, no memo over the patched function (the table memo,
    # the series chains) hides the wrong value, or keeps it for later tests
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    (report,) = verify.run_all(VerifyConfig(suites=(suite,)))
    assert not report.passed
    assert report.first_failure == failure


def test_wz_doubling_fails_alone_on_rows_the_companion_still_telescopes(monkeypatch):
    # under the true companion the differences and the n = 1 total imply
    # p(n, 1) = 2 p(n, 0), so no one wrong value fails the doubling first:
    # p(12, 0) and p(12, 1) trade places, which keeps the total, and the
    # companion is the running sum of the patched differences
    meet = formulas.same_endpoint_meet_prob

    def swapped(n, k):
        return meet(n, 1 - k) if n == 12 and k < 2 else meet(n, k)

    def p(n, k):
        return swapped(n, k) if 0 <= k < n else Fraction(0)

    def companion(n, k):
        return sum((p(n + 1, j) - p(n, j) for j in range(k)), Fraction(0))

    monkeypatch.setattr(formulas, "same_endpoint_meet_prob", swapped)
    monkeypatch.setattr(formulas, "telescoping_companion", companion)
    (report,) = verify.run_all(VerifyConfig(suites=("wz",)))
    assert not report.passed
    assert report.first_failure == {"left": "1/23", "right": "4/23", "n": "12", "sides": "k=1 vs twice k=0"}


@pytest.mark.parametrize(
    "suite, name, calls, distinct",
    [("wz", "same_endpoint_meet_prob", 2650, 1830), ("lagrange", "rect_pair_count_a", 196, 196)],
)
def test_a_suite_evaluates_each_exact_value_once(monkeypatch, cold_memos, suite, name, calls, distinct):
    # wz reads each row p(n, .), n <= 60, once (1,830 values), and the
    # companion reads p(n, .) again for n <= 40 (820); lagrange reads the
    # 196 rectangle counts once for its five points
    asked = Counter()
    original = getattr(formulas, name)
    monkeypatch.setattr(formulas, name, lambda *args: asked.update([args]) or original(*args))
    (report,) = verify.run_all(VerifyConfig(suites=(suite,)))
    assert report.passed
    assert (sum(asked.values()), len(asked)) == (calls, distinct)
