"""Truncated series arithmetic and the generating-series builders.

Core claims:
    - one series type serves one and two variables: a series with no y terms
      reads its coefficients as coeff(i)
    - sqrt and inverse satisfy their defining equations up to truncation and
      enforce their constant-term preconditions
    - the rectangle base series carries the nonmeeting counts, its powers the
      k-meeting counts, and the reciprocal-root kernel the squared binomials
      (through verify.check_legendre)
    - the quadratic-equation series has zero residual and drives the meeting
      polynomial whose coefficients are again the rectangle counts
    - the free-pair series matches 2^k C(2n-k, n) and vanishes below degree k
    - the three builders' three-term chain s_(m+1) = 2 s_m - c s_(m-1) gives
      the very series that pow and inverse give, at every k <= D + 1 for
      D <= 16 and at the large-exact bench sizes
    - Lagrange extraction reproduces its textbook examples and the row sums
      of the rectangle counts at rational specializations
    - the integer-numerator arithmetic equals a Fraction-dict reference on
      random rational series of degree <= 8 under +, -, *, scalar *, pow
      (exponents to 9, so square-and-multiply meets multi-bit exponents),
      sqrt, inverse and the inverse root (dense inputs and sparse
      kernel-shaped ones), obeys the ring laws, hands out Fractions, and
      keeps a canonical form: equal values give equal, equally hashed series
    - a series never changes once built: its degree is read-only
    - a float coefficient, scalar or Lagrange input is refused by name, and
      a 'p/q' string is read exactly
    - each chain of degree <= 24 (twice the series route's bound) is kept once
      per process: in any request order, from any number of threads, every
      kept term equals the term a fresh chain steps, repeated calls share one
      object, terms past the degree are zero and step nothing, and no chain
      above the bound is kept
"""

import functools
import random
import sys
import threading
from fractions import Fraction
from itertools import islice, product
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathpairs import formulas, oracle, routes, series, verify
from pathpairs.series import BiSeries


def one_var(coeffs, degree: int) -> BiSeries:
    return BiSeries(degree, {(i, 0): c for i, c in enumerate(coeffs)})


def test_sqrt_of_one():
    one = one_var([1], 5)
    assert one.sqrt() == one
    bi_one = BiSeries(4, {(0, 0): 1})
    assert bi_one.sqrt() == bi_one


def test_sqrt_binomial_series():
    s = one_var([1, -4], 3).sqrt()
    assert [s.coeff(i) for i in range(4)] == [1, -2, -2, -4]
    assert [s.coeff(i, 0) for i in range(4)] == [1, -2, -2, -4]
    with pytest.raises(IndexError):
        s.coeff(4)


def test_sqrt_squares_back():
    # fixed "random" rational series with unit constant term
    coeffs = [Fraction(1), Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3), Fraction(-1, 8)]
    s = one_var(coeffs, 8)
    assert s.sqrt() * s.sqrt() == s
    bs = BiSeries(5, {(0, 0): 1, (1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 7), (1, 1): 4})
    root = bs.sqrt()
    assert root * root == bs
    assert root.coeff(0, 0) == 1


def test_sqrt_requires_unit_constant_term():
    with pytest.raises(ValueError):
        one_var([2, 1], 3).sqrt()
    with pytest.raises(ValueError):
        BiSeries(3, {(0, 0): 0}).sqrt()


def test_inverse_defining_property():
    s = one_var([Fraction(2), 1, Fraction(1, 3)], 6)
    assert s * s.inverse() == one_var([1], 6)
    bs = BiSeries(4, {(0, 0): Fraction(5, 2), (1, 0): -1, (0, 1): Fraction(2, 7)})
    product = bs * bs.inverse()
    assert product == BiSeries(4, {(0, 0): 1})
    with pytest.raises(ValueError):
        one_var([0, 1], 3).inverse()


def test_mixed_truncation_rejected():
    with pytest.raises(ValueError):
        one_var([1, 2], 3) + one_var([1], 5)
    with pytest.raises(ValueError):
        BiSeries(3) * BiSeries(4)


def test_rect_base_coefficients():
    u0 = series.rect_pair_base(8)
    assert u0.coeff(2, 1) == 2
    assert u0.coeff(3, 1) == 2
    for n in range(2, 8):
        assert u0.coeff(n, 0) == 0
    # one-step rectangles hold a single nonmeeting identical pair
    assert u0.coeff(1, 0) == 1
    assert u0.coeff(1, 1) == 1


def test_rect_power_coefficients():
    u1 = series.rect_pair_power(1, 8)
    assert u1.coeff(3, 1) == 4
    assert u1.coeff(3, 2) == 4


def test_rect_powers_sum_to_squared_binomials():
    degree = 7
    powers = series.rect_pair_powers(degree - 1, degree)
    assert powers[3] == series.rect_pair_power(3, degree)
    for n in range(1, degree):
        for r in range(min(n, degree - n) + 1):
            total = sum(p.coeff(n, r) for p in powers[:n])
            assert total == comb(n, r) ** 2


def test_rect_power_matches_oracle_including_top_key():
    u0 = series.rect_pair_base(10)
    power = u0
    for k in range(4):
        if k:
            power = power * u0
        for n in range(k + 1, 6):
            for r in range(n + 1):
                assert power.coeff(n, r) == oracle.rect_pair_table(n, r).get(k)


def test_total_pairs_identity():
    (report,) = verify.run_all(verify.VerifyConfig(suites=("legendre",), n_max=8))
    assert report.passed
    assert report.first_failure is None
    assert report.instances == 45
    # the same expansion as a geometric sum of base powers: 1 + sum u0^(k+1)
    base = series.rect_pair_base(6)
    geometric = BiSeries(6, {(0, 0): 1})
    power = BiSeries(6, {(0, 0): 1})
    for _ in range(6):
        power = power * base
        geometric = geometric + power
    assert geometric.coeff(2, 1) == 4 == comb(2, 1) ** 2
    assert geometric.coeff(0, 0) == 1
    assert geometric.coeff(3, 3) == 1


def test_narayana_base_small_coefficients():
    f = series.narayana_base(8)
    assert f.coeff(0, 0) == 0
    assert f.coeff(1, 1) == 1
    for n in range(2, 8):
        for r in range(1, n):
            assert f.coeff(r, n - r) == formulas.narayana(n, r)


def test_narayana_base_satisfies_quadratic():
    degree = 10
    f = series.narayana_base(degree)
    y = BiSeries(degree, {(1, 0): 1})
    z = BiSeries(degree, {(0, 1): 1})
    assert f == (y + f) * (z + f)


def test_meeting_poly_matches_rect_counts():
    degree = 9
    for k in range(3):
        poly = series.meeting_poly_power(k, degree)
        for n in range(k + 2, degree + 1):
            for r in range(n + 1):
                assert poly.coeff(r, n - r) == formulas.rect_pair_count_a(n, r, k)


def test_free_pair_series_examples():
    f0 = series.free_pair_series(0, 10)
    for n in range(11):
        assert f0.coeff(n) == comb(2 * n, n)
    f1 = series.free_pair_series(1, 6)
    assert f1.coeff(1) == 2
    f2 = series.free_pair_series(2, 6)
    assert f2.coeff(2) == 4


def test_free_pair_series_matches_closed_form():
    for k in range(6):
        fk = series.free_pair_series(k, 12)
        for n in range(13):
            expect = formulas.free_pair_count(n, k) if n >= k else 0
            assert fk.coeff(n) == expect


# each builder's series by square-and-multiply ``pow`` and Newton ``inverse``
def _rect_reference(k, degree):
    return series.rect_pair_base(degree).pow(k + 1)


def _meeting_reference(k, degree):
    base = BiSeries(degree, {(1, 0): 1, (0, 1): 1}) + 2 * series.narayana_base(degree)
    return base.pow(k + 1)


def _free_reference(k, degree):
    root = one_var([1, -4], degree).sqrt()
    return (1 - root).pow(k) * root.inverse()


_BUILDERS = [
    (series.rect_pair_power, _rect_reference),
    (series.meeting_poly_power, _meeting_reference),
    (series.free_pair_series, _free_reference),
]


@pytest.mark.parametrize("degree", range(17))
def test_builders_equal_square_and_multiply(degree):
    """The chain gives the very series square-and-multiply does, at every
    k <= degree + 1: numerators and denominator equal."""
    powers = series.rect_pair_powers(degree + 1, degree)
    assert powers == [_rect_reference(k, degree) for k in range(degree + 2)]
    for build, reference in _BUILDERS:
        for k in range(degree + 2):
            assert build(k, degree) == reference(k, degree), (build.__name__, k)


@pytest.mark.parametrize(
    "build, reference, k, degree",
    [
        (series.rect_pair_power, _rect_reference, 5, 36),
        (series.meeting_poly_power, _meeting_reference, 6, 28),
        (series.free_pair_series, _free_reference, 10, 120),
    ],
    ids=["rect_pair_power", "meeting_poly_power", "free_pair_series"],
)
def test_builders_equal_square_and_multiply_at_bench_sizes(build, reference, k, degree):
    assert build(k, degree) == reference(k, degree)


def test_lagrange_textbook_examples():
    one = [Fraction(1)]
    t = [Fraction(0), Fraction(1)]
    assert series.lagrange_coefficient(t, [1, 1], 3) == 1
    assert series.lagrange_coefficient(t, [1, 2, 1], 2) == 2  # Catalan
    assert series.lagrange_coefficient(one, [1, 1], 4) == 0
    with pytest.raises(ValueError):
        series.lagrange_coefficient(t, [0, 1], 2)
    with pytest.raises(ValueError):
        series.lagrange_coefficient(t, [1, 1], 0)


def test_lagrange_catalan_row():
    # f = x (1+f)^2 generates Catalan numbers
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        value = series.lagrange_coefficient([0, 1], [1, 2, 1], n)
        assert value == catalan[n]


def test_lagrange_reproduces_rect_row_sums():
    y0, z0 = Fraction(1, 2), Fraction(3)
    for n in range(2, 7):
        for k in range(n - 1):
            order = n - k - 1
            base = y0 + z0
            phi = [comb(k + 1, m) * base ** (k + 1 - m) * Fraction(2) ** m for m in range(k + 2)]
            g = [y0 * z0, base, Fraction(1)]
            direct = sum(
                formulas.rect_pair_count_a(n, r, k) * y0 ** r * z0 ** (n - r)
                for r in range(n + 1)
            )
            assert series.lagrange_coefficient(phi, g, order) == direct


# --- integer numerators against a Fraction-dict reference -----------------------
# The reference keeps one normalised Fraction per monomial in a plain dict;
# its inverse sums a geometric series rather than taking Newton steps.


def _ref_clean(d, coeffs):
    return {key: Fraction(c) for key, c in coeffs.items() if c and sum(key) <= d}


def _ref_add(d, a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _ref_clean(d, out)


def _ref_scale(d, a, c):
    return _ref_clean(d, {key: v * c for key, v in a.items()})


def _ref_mul(d, a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return _ref_clean(d, out)


def _ref_pow(d, a, m):
    out = {(0, 0): Fraction(1)}
    for _ in range(m):
        out = _ref_mul(d, out, a)
    return out


def _ref_sqrt(d, a):
    # (1 + w)^(1/2) = sum_m C(1/2, m) w^m with w = a - 1
    w = _ref_add(d, a, {(0, 0): -1})
    out = wpow = {(0, 0): Fraction(1)}
    half = Fraction(1)
    for m in range(1, d + 1):
        half = half * (Fraction(1, 2) - (m - 1)) / m
        wpow = _ref_mul(d, wpow, w)
        out = _ref_add(d, out, _ref_scale(d, wpow, half))
    return out


def _ref_inverse(d, a):
    # 1 / a = (1/c0) sum_m u^m with u = 1 - a/c0, which has no constant term
    c0 = a[(0, 0)]
    u = _ref_add(d, {(0, 0): 1}, _ref_scale(d, a, -1 / c0))
    out = upow = {(0, 0): Fraction(1)}
    for _ in range(d):
        upow = _ref_mul(d, upow, u)
        out = _ref_add(d, out, upow)
    return _ref_scale(d, out, 1 / c0)


def _matches(s, ref):
    assert s.coeffs == ref
    assert all(type(c) is Fraction for c in s.coeffs.values())
    assert all(type(s.coeff(i, j)) is Fraction for i in range(s.degree + 1) for j in range(s.degree + 1 - i))


_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_values = st.one_of(_rationals, st.integers(-5, 5))


@st.composite
def _series_dicts(draw, count, constant=None):
    """A truncation degree <= 8 and ``count`` coefficient dicts of that
    degree, mixing Fraction and int values; ``constant`` draws (0, 0)."""
    d = draw(st.integers(0, 8))
    keys = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    out = []
    for _ in range(count):
        coeffs = draw(st.dictionaries(st.sampled_from(keys), _values, max_size=12))
        if constant is not None:
            coeffs[(0, 0)] = draw(constant)
        out.append(coeffs)
    return d, out


@settings(max_examples=100, deadline=None)
@given(case=_series_dicts(2), scalar=_values, m=st.integers(0, 9))
def test_ring_operations_equal_fraction_reference(case, scalar, m):
    d, (ca, cb) = case
    a, b = BiSeries(d, ca), BiSeries(d, cb)
    ra, rb = _ref_clean(d, ca), _ref_clean(d, cb)
    _matches(a, ra)
    _matches(a + b, _ref_add(d, ra, rb))
    _matches(a - b, _ref_add(d, ra, _ref_scale(d, rb, -1)))
    _matches(-a, _ref_scale(d, ra, -1))
    _matches(a * b, _ref_mul(d, ra, rb))
    _matches(a * scalar, _ref_scale(d, ra, scalar))
    _matches(scalar * a, _ref_scale(d, ra, scalar))
    _matches(scalar - a, _ref_add(d, {(0, 0): scalar}, _ref_scale(d, ra, -1)))
    _matches(a.pow(m), _ref_pow(d, ra, m))


_nonzero = _values.filter(bool)


@st.composite
def _kernel_dicts(draw):
    """Kernel-shaped input: a truncation degree <= 8, constant term 1 and
    at most five other terms, as in every kernel a builder takes a root of."""
    d = draw(st.integers(0, 8))
    keys = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i or j]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), _values, max_size=5)) if keys else {}
    coeffs[(0, 0)] = 1
    return d, coeffs


@settings(max_examples=60, deadline=None)
@given(
    root=_series_dicts(1, constant=st.just(1)),
    inv=_series_dicts(1, constant=_nonzero),
    kernel=_kernel_dicts(),
)
def test_sqrt_and_inverse_equal_fraction_reference(root, inv, kernel):
    d, (coeffs,) = root
    _matches(BiSeries(d, coeffs).sqrt(), _ref_sqrt(d, _ref_clean(d, coeffs)))
    d, (coeffs,) = inv
    _matches(BiSeries(d, coeffs).inverse(), _ref_inverse(d, _ref_clean(d, coeffs)))
    d, coeffs = kernel
    ref = _ref_clean(d, coeffs)
    _matches(BiSeries(d, coeffs).sqrt(), _ref_sqrt(d, ref))
    _matches(BiSeries(d, coeffs).inverse(), _ref_inverse(d, ref))


@settings(max_examples=60, deadline=None)
@given(root=_series_dicts(1, constant=st.just(1)), kernel=_kernel_dicts())
def test_inverse_root_equals_fraction_reference(root, kernel):
    for d, coeffs in ((root[0], root[1][0]), kernel):
        s = BiSeries(d, coeffs)
        _matches(s._half_power(-1), _ref_inverse(d, _ref_sqrt(d, _ref_clean(d, coeffs))))
        assert s._half_power(-1) == s.sqrt().inverse()


def test_half_powers_require_unit_constant_term():
    for e in (1, -1):
        with pytest.raises(ValueError, match="constant term 1"):
            one_var([2, 1], 3)._half_power(e)


def test_chain_needs_integer_c():
    """The chain keeps every term over one denominator, which a rational c
    would break, so it refuses one."""
    one = one_var([1], 3)
    with pytest.raises(ValueError, match="integer coefficients"):
        next(series._chain(one, one, one_var([0, Fraction(1, 2)], 3)))


@settings(max_examples=60, deadline=None)
@given(case=_series_dicts(3))
def test_ring_laws(case):
    d, dicts = case
    a, b, c = (BiSeries(d, coeffs) for coeffs in dicts)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a - a == BiSeries(d) and hash(a - a) == hash(BiSeries(d))


def test_canonical_form():
    half = BiSeries(3, {(0, 0): Fraction(1, 2)})
    for same in (
        BiSeries(3, {(0, 0): Fraction(2, 4)}),
        BiSeries(3, {(0, 0): 1}) * Fraction(1, 2),
        BiSeries(3, {(0, 0): Fraction(3, 4), (2, 1): Fraction(5, 6)}) - BiSeries(3, {(0, 0): Fraction(1, 4), (2, 1): Fraction(5, 6)}),
    ):
        assert same == half and hash(same) == hash(half)
        assert same.coeffs == {(0, 0): Fraction(1, 2)}
    cancelled = BiSeries(2, {(1, 0): Fraction(1, 3), (0, 2): 7}) + BiSeries(2, {(1, 0): Fraction(-1, 3), (0, 2): -7})
    assert cancelled == BiSeries(2) == BiSeries(2, {(0, 0): 0})
    assert hash(cancelled) == hash(BiSeries(2))
    assert cancelled.coeffs == {} and cancelled.coeff(1, 1) == 0
    assert BiSeries(2, {(0, 0): 1}) != BiSeries(3, {(0, 0): 1})


def test_coeffs_is_a_read_only_fraction_dict():
    s = BiSeries(2, {(0, 0): 3, (1, 0): Fraction(1, 2), (3, 0): 9})  # (3, 0) is past the degree
    assert isinstance(s.coeffs, dict)
    assert s.coeffs == {(0, 0): Fraction(3), (1, 0): Fraction(1, 2)}
    assert type(s.coeffs[(0, 0)]) is Fraction
    with pytest.raises(TypeError):
        s.coeffs[(0, 1)] = Fraction(1)
    with pytest.raises(TypeError):
        s.coeffs.update({(0, 1): 1})
    assert s.coeff(0, 1) == 0


def test_every_coefficient_argument_refuses_a_float():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not the 1/10 meant
    message = "^coefficient 0.1 is a float; give an int, a Fraction or a 'p/q' string$"
    s = BiSeries(2, {(0, 0): 1, (1, 0): 2})
    calls = [
        lambda: BiSeries(2, {(0, 0): 0.1}),
        lambda: s * 0.1,
        lambda: 0.1 * s,
        lambda: s + 0.1,
        lambda: 0.1 + s,
        lambda: s - 0.1,
        lambda: 0.1 - s,
        lambda: series.lagrange_coefficient([0, 0.1], [1, 1], 2),
        lambda: series.lagrange_coefficient([0, 1], [1, 0.1], 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert BiSeries(2, {(0, 0): "1/10"}).coeff(0) == (s * "1/10").coeff(0) == Fraction(1, 10)
    assert series.lagrange_coefficient([0, "1/2"], [1, "1/4"], 2) == Fraction(1, 8)


def test_degree_is_read_only():
    s = series.rect_pair_power(1, 4)
    twin = BiSeries(4, s.coeffs)
    with pytest.raises(AttributeError):
        s.degree = 2
    assert s.degree == 4 and s.coeff(3, 1) == 4
    assert s == twin and hash(s) == hash(twin)


# --- the kept chains ----------------------------------------------------------

# each builder, the chain it reads and the term it reads at k
_KEPT = [
    (series.rect_pair_power, series._rect_chain, 1),
    (series.meeting_poly_power, series._meeting_chain, 1),
    (series.free_pair_series, series._free_chain, 0),
]


@functools.cache
def _fresh_chain(kind, degree):
    """The terms 0 .. degree + 3 of a chain stepped afresh, by ``_chain``
    itself, with no memo in the way."""
    return tuple(islice(series._chain(*kind(degree)), degree + 4))


@st.composite
def _requests(draw):
    """A request order: builders, degrees <= 24 and terms <= degree + 3, with
    ``rect_pair_powers`` reading a run of terms."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        degree = draw(st.integers(0, series._MEMO_DEGREE))
        which = draw(st.integers(0, len(_KEPT)))
        offset = _KEPT[which][2] if which < len(_KEPT) else 1
        out.append((which, degree, draw(st.integers(0, degree + 3 - offset))))
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(requests=_requests())
def test_kept_terms_equal_a_fresh_chain_in_any_request_order(cold_memos, requests):
    cold_memos()
    for which, degree, k in requests:
        if which == len(_KEPT):
            assert series.rect_pair_powers(k, degree) == list(_fresh_chain(series._rect_chain, degree)[1 : k + 2])
            continue
        build, kind, offset = _KEPT[which]
        assert build(k, degree) == _fresh_chain(kind, degree)[k + offset], (build.__name__, degree, k)
    for (kind, degree), (_, terms) in series._CHAINS.items():
        assert terms == _fresh_chain(kind, degree)[: len(terms)]
        assert len(terms) <= degree + 1


def test_every_term_past_the_degree_is_zero_and_steps_nothing(cold_memos):
    for build, kind, offset in _KEPT:
        assert build(7 - offset, 3) == build(30, 3) == BiSeries(3) == _fresh_chain(kind, 3)[4]
        assert build(50, 40) == BiSeries(40)
    assert series._CHAINS == {}


def test_repeated_calls_share_one_kept_series(cold_memos):
    for build, _, _ in _KEPT:
        assert build(3, 12) is build(3, 12)
    powers = series.rect_pair_powers(9, 18)
    for k, power in enumerate(powers):
        assert power is series.rect_pair_power(k, 18) is series.rect_pair_powers(k, 18)[k]
    assert len(series._CHAINS[series._rect_chain, 18][1]) == 11


def test_a_chain_past_the_bound_is_not_kept(cold_memos):
    degree = series._MEMO_DEGREE + 1
    for build, kind, offset in _KEPT:
        assert build(4, degree) == _fresh_chain(kind, degree)[4 + offset]
    assert series.rect_pair_powers(3, degree) == list(_fresh_chain(series._rect_chain, degree)[1:5])
    assert series._CHAINS == {}


def test_threads_extending_one_chain_at_once_get_the_fresh_terms(monkeypatch, cold_memos):
    degree = 16
    fresh = _fresh_chain(series._rect_chain, degree)
    series.rect_pair_power(2, degree)  # keeps the terms 0 .. 3
    chain = series._chain
    both_read = threading.Barrier(2, timeout=10)

    def paused(first, second, c):
        # neither thread steps past the kept terms before both have read them
        both_read.wait()
        yield from chain(first, second, c)

    monkeypatch.setattr(series, "_chain", paused)
    got = {}
    workers = [
        threading.Thread(target=lambda k=k: got.update({k: series.rect_pair_powers(k, degree)}))
        for k in (8, 13)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    monkeypatch.setattr(series, "_chain", chain)
    assert got == {k: list(fresh[1 : k + 2]) for k in (8, 13)}
    _, kept = series._CHAINS[series._rect_chain, degree]
    assert len(kept) in (10, 15) and kept == fresh[: len(kept)]
    assert series.rect_pair_power(degree - 1, degree) == fresh[degree]


def test_many_threads_stepping_the_kept_chains_get_the_fresh_terms(cold_memos):
    requests = [(which, degree, k) for degree in (9, 16, 24) for k in range(degree + 2) for which in range(3)]
    errors = []

    def worker(seed):
        for which, degree, k in random.Random(seed).sample(requests, len(requests)):
            build, kind, offset = _KEPT[which]
            if build(k, degree) != _fresh_chain(kind, degree)[k + offset]:
                errors.append((build.__name__, degree, k))

    for kind, degree in product((series._rect_chain, series._meeting_chain, series._free_chain), (9, 16, 24)):
        _fresh_chain(kind, degree)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert errors == []
    for (kind, degree), (_, terms) in series._CHAINS.items():
        assert terms == _fresh_chain(kind, degree)[: len(terms)]


def test_the_memo_bound_is_twice_the_series_route_bound():
    assert series._MEMO_DEGREE == 2 * routes.ROUTES["nkr"]["series"].bound == 24
