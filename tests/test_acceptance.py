"""Acceptance suite: every exit criterion at its stated size and tolerance.

Each test prints one pass/fail line. All comparisons are exact (tolerance
zero) except the single asymptotic check, which is pinned at 2% relative
error at n = 1000. Stated runtime ceilings are asserted where given.
"""

import time
from fractions import Fraction
from math import comb

from pathpairs import bijection, formulas, oracle, series, verify

_RECT_TABLES: dict[tuple[int, int], oracle.CountTable] = {}


def rect_table(n: int, r: int) -> oracle.CountTable:
    key = (n, r)
    if key not in _RECT_TABLES:
        _RECT_TABLES[key] = oracle.rect_pair_table(n, r)
    return _RECT_TABLES[key]


def report(criterion: str, label: str, ok: bool) -> None:
    print(f"acceptance {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {label}"


def test_criterion_1_closed_forms_equal_enumeration():
    start = time.time()
    ok = True
    for n in range(2, 10):
        for r in range(n + 1):
            table = rect_table(n, r)
            for k in range(n - 1):
                count = table.get(k)
                ok = ok and formulas.rect_pair_count_a(n, r, k) == count
                ok = ok and formulas.rect_pair_count_b(n, r, k) == count
    elapsed = time.time() - start
    report("1", "both closed forms equal brute force, n <= 9, exact", ok and elapsed < 60)


def test_criterion_2_totals_are_squared_binomials():
    ok = all(
        rect_table(n, r).total == comb(n, r) ** 2
        for n in range(2, 10)
        for r in range(n + 1)
    )
    report("2", "table totals equal C(n,r)^2, n <= 9, exact", ok)


def test_criterion_3_doubling_and_correspondence():
    start = time.time()
    ok = True
    for n in range(3, 11):
        for r in range(1, n):
            ok = ok and formulas.rect_pair_count_a(n, r, 1) == 2 * formulas.rect_pair_count_a(n, r, 0)
            ok = ok and formulas.rect_pair_count_b(n, r, 1) == 2 * formulas.rect_pair_count_b(n, r, 0)
    for total in range(2, 10):
        for r in range(1, total):
            result = bijection.verify_correspondence(r, total - r)
            ok = ok and result.passed
            ok = ok and result.one_meeting_count == 2 * result.nonmeeting_count
    elapsed = time.time() - start
    report("3", "one-meeting doubling and exhaustive correspondence, r+s <= 9", ok and elapsed < 120)


def test_criterion_4_free_pair_counts():
    ok = True
    for n in range(9):
        table = oracle.free_pair_table(n)
        for k in range(n + 1):
            ok = ok and formulas.free_pair_count(n, k) == table.get(k)
    for n in range(41):
        total = sum(formulas.free_pair_count(n, k) for k in range(n + 1))
        ok = ok and total == 4 ** n
        ok = ok and Fraction(formulas.free_pair_count(n, 0), 4 ** n) == Fraction(
            comb(2 * n, n), 4 ** n
        )
    report("4", "free-pair closed form vs oracle (n <= 8) and totals (n <= 40), exact", ok)


def test_criterion_5_average_crossings():
    ok = all(
        formulas.average_crossings(n) == oracle.free_pair_table(n).mean for n in range(9)
    )
    exact = float(formulas.average_crossings(1000))
    approx = formulas.average_crossings_asymptote(1000)
    ok = ok and abs(exact - approx) <= 0.02 * abs(approx)
    report("5", "mean crossings exact (n <= 8) and within 2% of asymptote at n = 1000", ok)


def test_criterion_6_meeting_probabilities():
    ok = True
    for n in range(1, 9):
        table = oracle.same_endpoint_pair_table(n)
        denom = comb(2 * n, n)
        for k in range(n):
            ok = ok and formulas.same_endpoint_meet_prob(n, k) == Fraction(table.get(k), denom)
    for n in range(1, 61):
        ok = ok and sum(formulas.same_endpoint_meet_prob(n, k) for k in range(n)) == 1
    for n in range(1, 41):
        for k in range(n + 2):
            lhs = formulas.meet_prob_or_zero(n + 1, k) - formulas.meet_prob_or_zero(n, k)
            rhs = formulas.telescoping_companion(n, k + 1) - formulas.telescoping_companion(n, k)
            ok = ok and lhs == rhs
    for n in range(2, 41):
        ok = ok and formulas.same_endpoint_meet_prob(n, 1) == 2 * formulas.same_endpoint_meet_prob(n, 0)
    report("6", "meeting probabilities: oracle, unit sums, telescoping, doubling, exact", ok)


def test_criterion_7_two_endpoint_counts():
    ok = True
    for n in range(1, 9):
        for r in range(n + 1):
            for s in range(r + 1, n + 1):
                table = oracle.endpoint_pair_table(n, r, s)
                ok = ok and formulas.endpoint_pair_count_k0(n, r, s) == table.get(0)
                for k in range(n):
                    ok = ok and formulas.endpoint_pair_count(n, r, s, k) == table.get(k)
            for k in range(1, n + 1):
                boundary = rect_table(n, r).get(k - 1)
                ok = ok and formulas.endpoint_pair_count(n, r, r, k) == boundary
                # the expression itself, which endpoint_pair_count bypasses at r = s
                ok = ok and (k == n or formulas.endpoint_pair_expression(n, r, r, k) == boundary)
    report("7", "two-endpoint formula vs oracle (n <= 8), boundary identity, expression at r = s", ok)


def test_criterion_8_series_routes():
    ok = True
    degree = 12
    base = series.rect_pair_base(degree)
    power = base
    for k in range(degree - 1):
        if k:
            power = power * base
        for n in range(max(2, k + 2), degree + 1):
            for r in range(min(n, degree - n) + 1):
                if k <= n - 2:
                    ok = ok and power.coeff(n, r) == formulas.rect_pair_count_a(n, r, k)
    (legendre,) = verify.run_all(verify.VerifyConfig(suites=("legendre",), n_max=degree))
    ok = ok and legendre.passed
    f = series.narayana_base(degree)
    y = series.BiSeries(degree, {(1, 0): 1})
    z = series.BiSeries(degree, {(0, 1): 1})
    ok = ok and f == (y + f) * (z + f)
    for k in range(21):
        fk = series.free_pair_series(k, 20)
        for n in range(21):
            expect = formulas.free_pair_count(n, k) if n >= k else 0
            ok = ok and fk.coeff(n) == expect
    for n in range(2, 13):
        for k in range(n - 1):
            row = sum(formulas.rect_pair_count_a(n, r, k) for r in range(n + 1))
            ok = ok and row == formulas.same_endpoint_pair_count(n, k)
    report("8", "series coefficients (degree 12 / 20) and diagonal sums (n <= 12), exact", ok)


def test_criterion_9_walker_probabilities(monkeypatch):
    # the verify suites with this criterion's pinned level-rate seed: pair DP
    # vs closed form, vs single walker and vs u + l - 1, and the same-start walk
    monkeypatch.setattr(verify, "_LEVEL_RATE_SEED", 90125)
    barrier, same_start = verify.run_all(verify.VerifyConfig(suites=("barrier", "same-start")))
    ok = barrier.passed and barrier.instances == 12565
    ok = ok and same_start.passed and same_start.instances == 75
    report("9", "walker probabilities: closed form, single-walker reduction, u+l-1, same start", ok)
