"""Check-report plumbing and the aggregate runner.

Core claims:
    - recorders count instances and keep only the first failure, with every
      input and both values rendered as strings
    - reports are reproducible: the same configuration yields identical
      report objects; the suite's wall time rides along outside equality
    - suite selection is honored in registry order, unknown names raise, an
      empty selection runs nothing, an n_max below 1 is rejected
    - each suite states its sizes once: its check takes only n_max (barrier
      also its seed), and the runner looks each check up by name as it runs
    - a shrunken n_max still passes every suite (smoke run)
    - every suite reads the four enumerated tables through one memo, so a
      full run builds each (function, arguments) table exactly once
    - the barrier suite compares its two walker DPs in integers, but a
      perturbed single-walker or pair mass fails it with the configuration
      and both values shown as reduced probabilities
    - the routes suite runs every route the command line prints: a barrier
      route shifted by 10^-12 at every argument fails it, naming the route
"""

import inspect
from collections import Counter
from fractions import Fraction

import pytest

from pathpairs import oracle, verify
from pathpairs.verify import CheckReport, VerifyConfig, _Recorder


def test_recorder_counts_and_first_failure():
    rec = _Recorder("demo")
    rec.expect_equal(1, 1, n=1)
    rec.expect_equal(2, 3, n=2, side="left vs right")
    rec.expect_equal(4, 5, n=3)
    report = rec.report()
    assert report.check_id == "demo"
    assert not report.passed
    assert report.instances == 3
    assert report.first_failure == {"left": "2", "right": "3", "n": "2", "side": "left vs right"}


def test_recorder_predicate_form():
    rec = _Recorder("demo")
    rec.expect(True, note="fine")
    rec.expect(False, note="broken")
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
        verify.check_theorem1(0)


def test_each_check_takes_only_n_max():
    for name in verify.SUITE_NAMES:
        check = getattr(verify, "check_" + name.replace("-", "_"))
        expected = ["n_max", "seed"] if name == "barrier" else ["n_max"]
        assert list(inspect.signature(check).parameters) == expected, name


def test_run_all_looks_up_each_check_when_it_runs(monkeypatch):
    sizes = []
    stub = CheckReport("theorem1", True, 1)
    monkeypatch.setattr(verify, "check_theorem1", lambda n_max: sizes.append(n_max) or stub)
    assert verify.run_all(VerifyConfig(suites=("theorem1",), n_max=4)) == [stub]
    assert sizes == [4]


def test_smoke_run_all_passes():
    reports = verify.run_all(VerifyConfig(n_max=3))
    assert len(reports) == len(verify.SUITE_NAMES)
    assert all(r.passed for r in reports)
    assert all(r.instances > 0 for r in reports)


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_each_suite_passes_at_moderate_size(name):
    (report,) = verify.run_all(VerifyConfig(suites=(name,), n_max=6))
    assert report.passed, report.first_failure


TABLE_SUITES = ("recurrence", "eq8", "nkr", "mrs", "fnk", "pnk", "diag", "avg", "series-uk")
TABLE_FUNCTIONS = ("rect_pair_table", "endpoint_pair_table", "free_pair_table", "same_endpoint_pair_table")


def test_every_enumerated_table_is_built_once(monkeypatch):
    builds = Counter()

    def counting(name):
        build = getattr(oracle, name)
        return lambda *args: builds.update([(name, args)]) or build(*args)

    for name in TABLE_FUNCTIONS:
        monkeypatch.setattr(oracle, name, counting(name))
    verify._table.cache_clear()
    try:
        reports = verify.run_all(VerifyConfig(suites=TABLE_SUITES))
    finally:
        verify._table.cache_clear()  # its entries are keyed by the counting wrappers
    assert all(report.passed for report in reports)
    assert {name for name, _ in builds} == set(TABLE_FUNCTIONS)
    assert max(builds.values()) == 1, [key for key, count in builds.items() if count > 1]
    assert builds[("free_pair_table", (8,))] == builds[("same_endpoint_pair_table", (9,))] == 1


def test_barrier_suite_fails_on_a_perturbed_single_walker(monkeypatch):
    distribution = oracle.endpoint_distribution

    def perturbed(start, steps, rate):
        masses, den = distribution(start, steps, rate)
        if start == (0, 5):  # level 5: four steps, den 16 at p = 1/2
            masses = {**masses, (0, 1): masses.get((0, 1), 0) + 4}
        return masses, den

    monkeypatch.setattr(oracle, "endpoint_distribution", perturbed)
    report = verify.check_barrier()
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
    report = verify.check_barrier()
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
