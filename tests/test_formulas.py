"""Closed forms against frozen values and the enumeration oracle.

Core claims:
    - both rectangle-count forms give the documented small values, agree on
      the big frozen instance (n=17, r=9, k=5), and equal the enumerated
      counts on a sweep
    - the two-endpoint formula's leading fraction is read as printed: of
      three readings, termwise references kept below, only the printed one
      matches the enumerated tables, a wrong one gives wrong and non-integer
      values, and the mrs suite alone rejects both wrong readings and a
      broken equal-endpoint boundary
    - the equal-endpoint counts over every k sum to C(n, r)^2, n = 0
      included
    - the free-pair, meeting-probability, same-endpoint-count, and average
      formulas match their oracles and special values
    - counts that fail to reduce to integers raise IntegralityError, an
      ArithmeticError naming the function and its inputs, instead of rounding;
      a value too long to print is named by its bit lengths; the divmod
      reduction agrees with Fraction(num, den) for either sign of den
    - binom_gen, read off math.comb, equals the falling-factorial product
    - the integer-arithmetic forms equal their factorial-ratio references:
      rect_pair_count_b equals rect_pair_count_a on every instance with
      n <= 40 (its r = 0 column without calling form a), and the average
      and same-endpoint forms equal the factorial expressions kept below;
      the cached central binomial they read is bounded and changes no value,
      and its prime factorisation equals math.comb(2n, n)
    - the row-stepped free-pair, same-endpoint count and meeting-probability
      forms equal a plain-comb reference under any query order: k ascending,
      descending, repeated or random, rows in turn or interleaved; the
      meeting probability, stepped as a reduced fraction, equals the
      same-endpoint count over C(2n, n) at every n < 60, swept forward,
      backward and shuffled, and equals a fresh reduced Fraction when sweeps
      of rows n and n + 1 interleave; the binomial-row memo gives exact
      values to eight threads calling it at once, and the test fixture
      ``cold_memos``, through the resets the two memos register in
      ``paths.MEMOS``, puts it and the last meeting probability back to the
      values a new process starts with, even after a second copy of the
      module has registered resets of its own
    - the ratio-stepped sums equal the one-binom-per-factor references kept
      below: both rectangle forms on every instance with n <= 30 and on a
      sparse grid at n = 100 and 301, the two-endpoint expression to n = 9
      and at n = 60 and 150, and the barrier closed form, one integer
      numerator, equals its one-Fraction-per-term sum for every a, b, x <= 8
      at five rates and at a = b = x = 200
    - at k = 0, far past enumeration, both rectangle forms and the
      two-endpoint count equal the Lindstrom-Gessel-Viennot 2x2
      determinants of nonintersecting path pairs
    - the telescoping companion satisfies its difference identity
"""

import importlib.util
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, zip_longest
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpairs import formulas, oracle, verify


def test_rect_count_a_examples():
    assert formulas.rect_pair_count_a(3, 1, 0) == 2
    assert formulas.rect_pair_count_a(3, 1, 1) == 4
    assert formulas.rect_pair_count_a(3, 1, 1) == 2 * formulas.rect_pair_count_a(3, 1, 0)


def test_rect_count_b_examples():
    assert formulas.rect_pair_count_b(3, 1, 0) == 2
    assert formulas.rect_pair_count_b(4, 2, 0) == 6
    assert formulas.rect_pair_count_b(5, 2, 1) == 2 * formulas.rect_pair_count_b(5, 2, 0)


def test_rect_count_frozen_large_instance():
    # the 17-step, r=9, k=5 configuration; both forms agree on the value
    assert formulas.rect_pair_count_a(17, 9, 5) == 75598380
    assert formulas.rect_pair_count_b(17, 9, 5) == 75598380


def test_rect_count_range_checks():
    with pytest.raises(ValueError):
        formulas.rect_pair_count_a(3, 1, 2)  # k > n - 2
    with pytest.raises(ValueError):
        formulas.rect_pair_count_a(3, 1, -1)
    with pytest.raises(ValueError):
        formulas.rect_pair_count_b(3, 4, 0)  # r > n


def test_rect_count_b_equals_a_on_every_instance_to_n_40():
    for n in range(2, 41):
        for r in range(n + 1):
            for k in range(n - 1):
                assert formulas.rect_pair_count_b(n, r, k) == formulas.rect_pair_count_a(n, r, k), (n, r, k)


def test_rect_count_b_r0_column_uses_its_own_form(monkeypatch):
    # the r = 0 column is form b's own transpose, not a call into form a
    expected = {
        (n, r, k): formulas.rect_pair_count_a(n, r, k)
        for n in range(2, 13)
        for r in range(n + 1)
        for k in range(n - 1)
    }

    def form_a_called(*args):
        raise AssertionError(f"rect_pair_count_b called rect_pair_count_a{args}")

    monkeypatch.setattr(formulas, "rect_pair_count_a", form_a_called)
    for (n, r, k), want in expected.items():
        assert formulas.rect_pair_count_b(n, r, k) == want, (n, r, k)


def test_non_integral_count_raises_integrality_error():
    with pytest.raises(formulas.IntegralityError, match=r"rect_pair_count_a\(5, 2, 1\)") as info:
        formulas._as_count(272, 3, "rect_pair_count_a(5, 2, 1)")
    assert isinstance(info.value, ArithmeticError)
    with pytest.raises(formulas.IntegralityError):
        formulas._as_count(-4, 1, "narayana(3, 1)")


def test_long_non_integral_count_names_its_size():
    # past the interpreter's 4,300-digit int-to-str limit the message names
    # the bit lengths instead of the value
    with pytest.raises(formulas.IntegralityError, match="16610-bit numerator over a 2-bit denominator"):
        formulas._as_count(10**5000 + 1, 3, "x")


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(10**30), 10**30) | st.integers(-50, 50),
    den=st.integers(-(10**12), 10**12).filter(bool) | st.integers(-12, 12).filter(bool),
)
def test_as_count_agrees_with_the_reduced_fraction(num, den):
    # the divmod reduction returns the int exactly when num/den is a
    # nonnegative integer, for either sign of den, and otherwise names the
    # reduced value as the Fraction would print it
    value = Fraction(num, den)
    if value.denominator == 1 and value >= 0:
        got = formulas._as_count(num, den, "ctx")
        assert type(got) is int and got == value
    else:
        with pytest.raises(formulas.IntegralityError) as info:
            formulas._as_count(num, den, "ctx")
        assert str(info.value) == f"ctx: expected a nonnegative integer, got {value}"


# The rectangle forms as displayed, one binom per factor of every term: the
# references the library's ratio-stepped sums must equal.


def _termwise_rect_a(n, r, k):
    binom = formulas.binom
    total = sum(binom(k, i) * binom(n - k + i - 1, r) * binom(n - i - 1, n - r) for i in range(k + 1))
    return Fraction(2 * (k + 1), n - k - 1) * total


def _termwise_rect_b(n, r, k):
    if r == 0:
        return _termwise_rect_b(n, n, k)
    binom = formulas.binom
    common = perm(n - 1, k + 1)
    total = 0
    for i in range(k // 2 + 1):
        term = binom(k, i) * binom(k - i, i) * binom(n - i - 2, r - 1) * binom(n - i - 1, r - i - 1)
        if term:
            total += (-1) ** i * term * factorial(i) * (common // perm(n - i - 2, i))
    return Fraction(2 * (k + 1) * total, r * common)


def test_rect_forms_equal_termwise_references():
    cases = [(n, r, k) for n in range(2, 31) for r in range(n + 1) for k in range(n - 1)]
    for n in (100, 301):
        cases += [(n, r, k) for r in (0, 1, 2, n // 2, n - 1, n) for k in (0, 1, 2, n // 3, n - 3, n - 2)]
    for args in cases:
        assert formulas.rect_pair_count_a(*args) == _termwise_rect_a(*args), args
        assert formulas.rect_pair_count_b(*args) == _termwise_rect_b(*args), args


def test_k0_counts_equal_lindstrom_gessel_viennot_determinants():
    # a pair that never meets is a nonintersecting pair of paths between the
    # neighbours of its two ends, counted by a 2x2 determinant (Gessel and
    # Viennot 1985): a check that shares no summation with the closed forms
    binom = formulas.binom
    for n in range(2, 201):
        grid = sorted({0, 1, 2, n // 3, n // 2, n - 1, n})
        for r in grid:
            lgv = 2 * (binom(n - 2, r - 1) ** 2 - binom(n - 2, r) * binom(n - 2, r - 2))
            assert formulas.rect_pair_count_a(n, r, 0) == formulas.rect_pair_count_b(n, r, 0) == lgv, (n, r)
            for s in grid:
                if r < s:
                    lgv = binom(n - 1, r) * binom(n - 1, s - 1) - binom(n - 1, r - 1) * binom(n - 1, s)
                    got = formulas.endpoint_pair_count(n, r, s, 0)
                    assert got == formulas.endpoint_pair_count_k0(n, r, s) == lgv, (n, r, s)


def test_rect_counts_match_oracle_sweep():
    for n in range(2, 7):
        for r in range(n + 1):
            table = oracle.rect_pair_table(n, r)
            for k in range(n - 1):
                assert formulas.rect_pair_count_a(n, r, k) == table.get(k)
                assert formulas.rect_pair_count_b(n, r, k) == table.get(k)


def _dyck_count(m: int) -> int:
    # staircase walks on an m x m square that never dip below the diagonal
    total = 0
    for epos in combinations(range(2 * m), m):
        marks = set(epos)
        height = 0
        for t in range(2 * m):
            height += 1 if t in marks else -1
            if height < 0:
                break
        else:
            total += 1
    return total


def test_narayana_examples_and_catalan_total():
    assert formulas.narayana(4, 1) == 1
    assert formulas.narayana(4, 2) == 3
    assert sum(formulas.narayana(4, r) for r in range(1, 4)) == _dyck_count(3)
    with pytest.raises(ValueError):
        formulas.narayana(4, 0)


def test_narayana_is_half_the_nonmeeting_count():
    for n in range(2, 8):
        for r in range(1, n):
            assert 2 * formulas.narayana(n, r) == formulas.rect_pair_count_a(n, r, 0)


# --- two prescribed endpoints -------------------------------------------------


def test_endpoint_count_examples():
    assert formulas.endpoint_pair_count(2, 0, 1, 0) == 1
    assert formulas.endpoint_pair_count(2, 0, 1, 1) == 1


def test_equal_endpoint_counts_sum_to_every_pair():
    # each ordered pair of paths to (r, n - r) shares some number of vertices
    # past the origin, the one pair of empty walks at n = 0 none
    for n in range(13):
        for r in range(n + 1):
            assert sum(formulas.endpoint_pair_count(n, r, r, k) for k in range(n + 1)) == comb(n, r) ** 2, (n, r)


def test_endpoint_count_k0_examples():
    assert formulas.endpoint_pair_count_k0(2, 0, 1) == 1
    assert formulas.endpoint_pair_count_k0(3, 1, 2) == 3
    for n in (1, 4, 7):
        assert formulas.endpoint_pair_count_k0(n, 0, n) == 1
    with pytest.raises(ValueError):
        formulas.endpoint_pair_count_k0(3, 2, 2)


def test_endpoint_count_equal_endpoints_reduce_to_rectangle():
    for n in range(2, 7):
        for r in range(n + 1):
            table = oracle.rect_pair_table(n, r)
            assert formulas.endpoint_pair_count(n, r, r, 0) == 0
            for k in range(1, n + 1):
                assert formulas.endpoint_pair_count(n, r, r, k) == table.get(k - 1)


def test_endpoint_count_matches_oracle_sweep():
    for n in range(1, 7):
        for r in range(n + 1):
            for s in range(r + 1, n + 1):
                table = oracle.endpoint_pair_table(n, r, s)
                for k in range(n):
                    assert formulas.endpoint_pair_count(n, r, s, k) == table.get(k)


# The two-endpoint expression, one Fraction per term, under the printed
# reading of its leading fraction and under two plausible mis-groupings of
# it: the printed one is the reference the library's integer sum, grouped by
# denominator, must equal, and the enumeration oracle rejects the other two.
_READING_PREFACTORS = {
    "printed": lambda n, r, s, j, t: Fraction(s - j - r + 1 + 2 * t, n - 1 - j - 2 * t),
    "minus-2t": lambda n, r, s, j, t: Fraction(s - j - r + 1 - 2 * t, n - 1 - j - 2 * t),
    "r-plus-1": lambda n, r, s, j, t: Fraction(s - j - (r + 1) + 2 * t, n - 1 - j - 2 * t),
}


def _termwise_endpoint_expression(n, r, s, k, reading="printed"):
    binom = formulas.binom
    second = Fraction(0)
    if k < n:
        tot = sum(binom(k, j) * binom(n - k, r - j) * binom(n - k, s - j) for j in range(k + 1))
        second = Fraction(s - r, n - k) * tot
    first = Fraction(0)
    for t in range(k // 2 + 1):
        for j in range(k):
            c = (
                binom(k, 2 * t + 1) * binom(k - 1 - 2 * t, j)
                * binom(n - 1 - j - 2 * t, s - j) * binom(n - 1 - j - 2 * t, r - 1 - 2 * t)
            )
            if c:
                first += (-1) ** j * _READING_PREFACTORS[reading](n, r, s, j, t) * c
    return 2 * first + second


def _reading_mismatches(reading, n_max):
    """Every (n, r, s, k) with n <= n_max where one reading differs from the
    enumerated tables, mapped to (expression, oracle): the two-endpoint table
    at k for r < s, the rectangle table at k - 1 for r = s."""
    out = {}
    for n in range(1, n_max + 1):
        for r in range(n + 1):
            for s in range(r, n + 1):
                if r == s:
                    table = oracle.rect_pair_table(n, r)
                    expected = {k: table.get(k - 1) for k in range(1, n)}
                else:
                    table = oracle.endpoint_pair_table(n, r, s)
                    expected = {k: table.get(k) for k in range(n)}
                for k, want in expected.items():
                    got = _termwise_endpoint_expression(n, r, s, k, reading)
                    if got != want:
                        out[(n, r, s, k)] = (got, want)
    return out


def test_endpoint_reading_resolution():
    tables = {reading: _reading_mismatches(reading, 6) for reading in _READING_PREFACTORS}
    assert [reading for reading, table in tables.items() if not table] == ["printed"]


def test_endpoint_wrong_reading_fails_loudly():
    # a wrong reading gets some instances wrong by an integer and others by
    # a value that is not an integer at all
    table = _reading_mismatches("minus-2t", 7)
    assert table[(7, 3, 4, 3)] == (248, 250)
    assert table[(7, 3, 4, 4)] == (Fraction(518, 3), 170)


@pytest.mark.parametrize("reading", ["minus-2t", "r-plus-1"])
def test_mrs_suite_rejects_a_retired_reading(monkeypatch, cold_memos, reading):
    def terms(n, r, s, k):
        value = _termwise_endpoint_expression(n, r, s, k, reading)
        return value.numerator, value.denominator

    monkeypatch.setattr(formulas, "_endpoint_pair_terms", terms)
    try:
        (report,) = verify.run_all(verify.VerifyConfig(suites=("mrs",), n_max=6))
        assert not report.passed
    except formulas.IntegralityError:
        pass  # a non-integer count is rejected as loudly as a wrong one


def test_mrs_suite_rejects_a_broken_boundary(monkeypatch, cold_memos):
    # endpoint_pair_count answers r = s from the rectangle form, so only the
    # suite's boundary instance reads the expression there
    expression = formulas.endpoint_pair_expression
    monkeypatch.setattr(
        formulas, "endpoint_pair_expression",
        lambda n, r, s, k: expression(n, r, s, k) + ((n, r, s, k) == (5, 2, 2, 3)),
    )
    (report,) = verify.run_all(verify.VerifyConfig(suites=("mrs",), n_max=6))
    assert not report.passed
    assert report.first_failure["first"] == "(5, 2, 3)"


def _value_or_zero_division(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def test_endpoint_expression_equals_termwise_reference():
    small = [
        (n, r, s, k) for n in range(10) for r in range(n + 1) for s in range(r, n + 1) for k in range(n + 1)
    ]
    large = [
        (60, 20, 35, 30), (60, 0, 60, 59), (60, 29, 30, 12), (60, 30, 30, 58),
        (150, 60, 85, 50), (151, 33, 101, 49),
    ]
    # rows whose denominators n-1-j-2t and n-k share factors, so the lcm
    # they are taken over is far below their product
    shared = [(60, 20, 35, k) for k in (4, 11, 20, 36, 48)] + [(150, 60, 85, k) for k in (29, 74)]
    raised = 0
    for args in small + large + shared:
        want = _value_or_zero_division(_termwise_endpoint_expression, *args)
        got = _value_or_zero_division(formulas.endpoint_pair_expression, *args)
        assert got == want, args
        raised += want is ZeroDivisionError
    assert raised  # some instances divide by n-1-j-2t = 0, on both sides


def test_endpoint_count_range_checks():
    with pytest.raises(ValueError):
        formulas.endpoint_pair_count(3, 2, 1, 0)  # r > s
    with pytest.raises(ValueError):
        formulas.endpoint_pair_count(3, 0, 1, 3)  # k too large for r < s


# --- free pairs, probabilities, averages ----------------------------------------


def test_free_pair_count_examples():
    assert formulas.free_pair_count(1, 0) == 2
    assert formulas.free_pair_count(1, 1) == 2
    for n in (0, 3, 8, 20):
        assert formulas.free_pair_count(n, 0) == comb(2 * n, n)
    for n in (1, 4, 9):
        assert formulas.free_pair_count(n, n) == 2 ** n
    with pytest.raises(ValueError):
        formulas.free_pair_count(3, 4)


def test_meet_prob_examples():
    assert formulas.same_endpoint_meet_prob(1, 0) == 1
    assert formulas.same_endpoint_meet_prob(2, 0) == Fraction(1, 3)
    assert formulas.same_endpoint_meet_prob(2, 1) == Fraction(2, 3)
    for n in range(2, 12):
        assert formulas.same_endpoint_meet_prob(n, 1) == 2 * formulas.same_endpoint_meet_prob(n, 0)
    with pytest.raises(ValueError):
        formulas.same_endpoint_meet_prob(3, 3)


def test_same_endpoint_count_examples():
    assert formulas.same_endpoint_pair_count(2, 0) == 2
    assert formulas.same_endpoint_pair_count(3, 0) == 4
    assert formulas.same_endpoint_pair_count(3, 1) == 8
    with pytest.raises(ValueError):
        formulas.same_endpoint_pair_count(3, 3)
    with pytest.raises(ValueError):
        formulas.same_endpoint_pair_count(3, -1)


def test_same_endpoint_count_equals_row_sums():
    for n in range(2, 9):
        for k in range(n - 1):
            row = sum(formulas.rect_pair_count_a(n, r, k) for r in range(n + 1))
            assert formulas.same_endpoint_pair_count(n, k) == row


# The factorial-ratio forms the closed forms were first written in, as
# (numerator, denominator) pairs; the library now evaluates them as binomials
# in integers. Memoised factorials and comparison by cross-multiplication
# keep the references cheap at n = 1000.

_fact = lru_cache(maxsize=None)(factorial)


def _factorial_average_crossings(n):
    den = (1 << (2 * n)) * _fact(n) ** 2
    return _fact(2 * n + 1) - den, den


def _factorial_meet_prob(n, k):
    num = (1 << (k + 1)) * (k + 1) * _fact(2 * n - k - 2) * _fact(n)
    return num, _fact(n - k - 1) * _fact(2 * n)


def _factorial_same_endpoint_count(n, k):
    num = (1 << (k + 1)) * (k + 1) * _fact(2 * n - k - 2)
    return num, _fact(n) * _fact(n - k - 1)


def _equals(value, ratio):
    num, den = ratio
    return value.numerator * den == num * value.denominator


def test_average_crossings_equals_factorial_form():
    for n in [*range(61), 5000]:
        assert _equals(formulas.average_crossings(n), _factorial_average_crossings(n)), n


def test_same_endpoint_forms_equal_factorial_forms():
    for n in [*range(1, 61), 1000]:
        for k in range(n):
            assert _equals(formulas.same_endpoint_meet_prob(n, k), _factorial_meet_prob(n, k)), (n, k)
            count = formulas.same_endpoint_pair_count(n, k)
            assert isinstance(count, int)
            assert _equals(Fraction(count), _factorial_same_endpoint_count(n, k)), (n, k)


def test_central_binomial_cache_is_bounded_and_changes_nothing(cold_memos):
    info = formulas._central_binomial.cache_info()
    assert info.maxsize is not None
    cold = [formulas.same_endpoint_meet_prob(n, k) for n in (1, 7, 1010) for k in range(n)]
    assert formulas._central_binomial.cache_info().misses == 3
    warm = [formulas.same_endpoint_meet_prob(n, k) for n in (1, 7, 1010) for k in range(n)]
    assert cold == warm


_ROW_FUNCTIONS = ("same_endpoint_meet_prob", "same_endpoint_pair_count", "free_pair_count")


def _row_reference(name, n, k):
    if name == "free_pair_count":
        return (1 << k) * comb(2 * n - k, n)
    count = Fraction((1 << (k + 1)) * (k + 1) * comb(2 * n - k - 2, n - 1), n)
    return count if name == "same_endpoint_pair_count" else count / comb(2 * n, n)


@st.composite
def _row_query_orders(draw):
    """Queries (function, n, k): per row, k ascending, descending, each k
    twice, or at random; rows one after another or interleaved, with more
    distinct n than the row memo holds."""
    rows = []
    for n in draw(st.lists(st.integers(1, 45), min_size=1, max_size=40)):
        name = draw(st.sampled_from(_ROW_FUNCTIONS))
        top = n if name == "free_pair_count" else n - 1
        order = draw(st.sampled_from(("ascending", "descending", "repeated", "random")))
        if order == "random":
            ks = draw(st.lists(st.integers(0, top), min_size=1, max_size=2 * top + 2))
        else:
            ks = list(range(top + 1))[:: -1 if order == "descending" else 1]
            if order == "repeated":
                ks = [k for k in ks for _ in range(2)]
        rows.append([(name, n, k) for k in ks])
    if draw(st.booleans()):
        return [q for q in chain.from_iterable(zip_longest(*rows)) if q]
    return list(chain.from_iterable(rows))


@settings(max_examples=60, deadline=None)
@given(queries=_row_query_orders())
def test_row_stepped_forms_equal_comb_reference_in_any_order(queries):
    for name, n, k in queries:
        value = getattr(formulas, name)(n, k)
        assert value == _row_reference(name, n, k), (name, n, k)
        assert type(value) is (Fraction if name == "same_endpoint_meet_prob" else int)
    assert len(formulas._ROW_MEMO) <= formulas._ROW_MEMO_SIZE


def test_row_binomial_is_safe_to_share_between_threads():
    start = threading.Barrier(8)

    def calls(seed):
        rng = random.Random(seed)
        queries = [(b + rng.randrange(3), b) for b in (rng.randrange(256) for _ in range(20_000))]
        start.wait(timeout=60)
        return queries, [formulas._row_binomial(a, b) for a, b in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = list(pool.map(calls, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for queries, values in runs:
        assert values == [comb(a, b) for a, b in queries]


def test_clear_memos_puts_the_row_and_meeting_memos_back_to_their_initial_values(cold_memos):
    # a second copy of the module, loaded from its source, holds the values
    # the memos start with in a new process; its registrations leave the
    # package's resets in place, so cold_memos still resets these memos
    spec = importlib.util.spec_from_file_location("pathpairs._formulas_as_loaded", formulas.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    formulas.same_endpoint_meet_prob(12, 5)
    assert formulas._ROW_MEMO != fresh._ROW_MEMO
    assert formulas._MEET_MEMO != fresh._MEET_MEMO
    cold_memos()
    assert formulas._ROW_MEMO == fresh._ROW_MEMO
    assert formulas._MEET_MEMO == fresh._MEET_MEMO


def test_stepped_meet_prob_is_the_count_over_the_central_binomial_in_any_order():
    shuffle = random.Random(16)
    for n in range(1, 60):
        expected = [Fraction(formulas.same_endpoint_pair_count(n, k), comb(2 * n, n)) for k in range(n)]
        shuffled = list(range(n))
        shuffle.shuffle(shuffled)
        for ks in (range(n), range(n - 1, -1, -1), shuffled):
            assert [formulas.same_endpoint_meet_prob(n, k) for k in ks] == [expected[k] for k in ks], n


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 70),
    descending=st.tuples(st.booleans(), st.booleans()),
    turns=st.lists(st.booleans(), max_size=150),
)
def test_meet_prob_in_interleaved_row_sweeps_is_the_reduced_fraction(n, descending, turns):
    # rows n and n + 1 are swept over k, each up or down, and ``turns``
    # picks which row takes its next step, as the wz suite alternates them
    sweeps = []
    for m, down in zip((n, n + 1), descending):
        ks = range(m - 1, -1, -1) if down else range(m)
        sweeps.append([(m, k) for k in reversed(ks)])  # popped from the end, in ks order
    order = [sweeps[turn].pop() for turn in turns if sweeps[turn]] + sweeps[0][::-1] + sweeps[1][::-1]
    for m, k in order:
        fresh = Fraction((1 << (k + 1)) * (k + 1) * comb(2 * m - k - 2, m - 1), m * comb(2 * m, m))
        assert formulas.same_endpoint_meet_prob(m, k) == fresh, (m, k)


def test_central_binomial_equals_comb():
    # 1021 is prime; 1024 and 4096 put a prime power at 2n
    for n in [*range(301), 1021, 1024, 4096, 5000]:
        assert formulas._central_binomial(n) == comb(2 * n, n), n


def test_telescoping_companion_difference_identity():
    # frozen hand instance first
    lhs = formulas.meet_prob_or_zero(2, 0) - formulas.meet_prob_or_zero(1, 0)
    rhs = formulas.telescoping_companion(1, 1) - formulas.telescoping_companion(1, 0)
    assert lhs == rhs == Fraction(-2, 3)
    for n in range(1, 12):
        for k in range(n + 2):
            lhs = formulas.meet_prob_or_zero(n + 1, k) - formulas.meet_prob_or_zero(n, k)
            rhs = formulas.telescoping_companion(n, k + 1) - formulas.telescoping_companion(n, k)
            assert lhs == rhs


def test_meet_prob_sums_to_one():
    for n in range(1, 20):
        assert sum(formulas.same_endpoint_meet_prob(n, k) for k in range(n)) == 1


def test_average_crossings_examples():
    assert formulas.average_crossings(1) == Fraction(1, 2)
    assert formulas.average_crossings(0) == 0
    exact = float(formulas.average_crossings(1000))
    approx = formulas.average_crossings_asymptote(1000)
    assert abs(exact - approx) <= 0.02 * abs(approx)


def test_average_crossings_matches_oracle_mean():
    for n in range(6):
        assert formulas.average_crossings(n) == oracle.free_pair_table(n).mean


# --- origin-meeting probabilities -------------------------------------------------


def test_barrier_formula_examples():
    for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
        assert formulas.barrier_meet_formula(0, 0, 3, p) == 1
        assert formulas.barrier_meet_formula(1, 0, 0, p) == p
    assert formulas.barrier_meet_formula(1, 1, 0, Fraction(1, 2)) == Fraction(1, 2)
    assert formulas.barrier_meet_formula(2, 1, 1, Fraction(1, 2)) == Fraction(5, 8)
    with pytest.raises(ValueError):
        formulas.barrier_meet_formula(1, 1, 0, Fraction(5, 4))


def test_barrier_formula_matches_walkers():
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        rate = oracle.ConstantRate(p)
        for a in range(3):
            for b in range(3):
                for x in range(3):
                    assert formulas.barrier_meet_formula(a, b, x, p) == oracle.barrier_meet_prob(
                        oracle.BarrierConfig(a, b, x, rate)
                    )


def _termwise_barrier_formula(a, b, x, p):
    """The barrier closed form as a sum of one ``Fraction`` per term."""
    q = 1 - p
    total = Fraction(0)
    for t in range(x + 1):
        total += formulas.binom(a + b + x, a + t) * p ** (a + t) * q ** (b + x - t)
    return total


def test_barrier_formula_equals_termwise_reference():
    for p in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(5, 16)):
        for a in range(9):
            for b in range(9):
                for x in range(9):
                    expected = _termwise_barrier_formula(a, b, x, p)
                    assert formulas.barrier_meet_formula(a, b, x, p) == expected, (a, b, x, p)
    p = Fraction(3, 7)
    assert formulas.barrier_meet_formula(200, 200, 200, p) == _termwise_barrier_formula(200, 200, 200, p)


def test_same_start_formula_examples():
    with pytest.raises(ValueError):
        formulas.same_start_meet_formula(0, 0, Fraction(3, 2))
    for p in (Fraction(1, 4), Fraction(2, 3)):
        assert formulas.same_start_meet_formula(0, 0, p) == 2 * p * (1 - p)
    assert formulas.same_start_meet_formula(1, 0, Fraction(1, 3)) == Fraction(4, 27)
    for a in range(3):
        for b in range(3):
            half = Fraction(1, 2)
            assert formulas.same_start_meet_formula(a, b, half) == formulas.same_start_meet_formula(
                b, a, half
            )


def test_same_start_formula_matches_walkers():
    for p in (Fraction(1, 2), Fraction(1, 3)):
        for a in range(3):
            for b in range(3):
                assert formulas.same_start_meet_formula(a, b, p) == oracle.same_start_meet_prob(
                    a, b, p
                )


# --- binomials -----------------------------------------------------------------------


def test_binom_factorial_convention():
    assert formulas.binom(5, 2) == 10
    assert formulas.binom(5, -1) == 0
    assert formulas.binom(3, 5) == 0
    assert formulas.binom(-2, 1) == 0  # negative upper argument vanishes


def test_binom_gen_negative_upper():
    assert formulas.binom_gen(-1, 1) == -1
    assert formulas.binom_gen(-2, 1) == -2
    assert formulas.binom_gen(-1, 2) == 1
    assert formulas.binom_gen(4, 2) == 6
    assert formulas.binom_gen(4, -1) == 0


def _falling_factorial_binomial(x, m):
    """x(x-1)...(x-m+1)/m! by the product itself: the reference ``binom_gen``
    must equal."""
    if m < 0:
        return 0
    num = 1
    for t in range(m):
        num *= x - t
    return num // factorial(m)


@settings(max_examples=400, deadline=None)
@given(x=st.integers(-60, 60), m=st.integers(-3, 40))
def test_binom_gen_equals_the_falling_factorial(x, m):
    assert formulas.binom_gen(x, m) == _falling_factorial_binomial(x, m)


def test_vandermonde_identities_on_grid():
    for a in range(-3, 7):
        for other in range(-3, 7):
            for m in range(6):
                assert formulas.vandermonde_a(a, other, m)
                assert formulas.vandermonde_b(a, other, m)
