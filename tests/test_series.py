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
    - Lagrange extraction reproduces its textbook examples and the row sums
      of the rectangle counts at rational specializations
"""

from fractions import Fraction
from math import comb

import pytest

from pathpairs import formulas, oracle, series, verify
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
    report = verify.check_legendre(8)
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
