"""Closed-form pair counts and meeting probabilities, evaluated exactly.

The formulas are written as products and sums of binomials and falling
factorials, so they are evaluated in Python ints; a ``Fraction`` is built
once, at the boundary, from one integer numerator and one integer
denominator. A sum whose terms are not integral (the second rectangle form)
is taken over one common denominator that every term divides. Results that
are counts are asserted to reduce to nonnegative integers there, and a failed
reduction raises ``IntegralityError`` instead of rounding. The prefactors of
the rectangle-count formulas are not termwise integral, so the assertion is
load bearing.

Binomials follow the factorial convention used throughout: a term whose
denominator would contain the factorial of a negative integer vanishes.
``binom`` implements that reading for nonnegative upper arguments; the
separate ``binom_gen`` is the falling-factorial binomial, defined for any
integer upper argument, which the two convolution identities in
``vandermonde_a``/``vandermonde_b`` need to hold without restrictions.

No other route is imported here: every comparison with enumeration,
including the table that tells the readings of the two-endpoint formula
apart, lives in ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm


def binom(a: int, b: int) -> int:
    """C(a, b) with the factorial convention: zero when b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def binom_gen(x: int, m: int) -> int:
    """Falling-factorial binomial x(x-1)...(x-m+1)/m!, any integer x."""
    if m < 0:
        return 0
    num = 1
    for t in range(m):
        num *= x - t
    return num // factorial(m)


@lru_cache(maxsize=256)
def _central_binomial(n: int) -> int:
    """C(2n, n), cached by n: a sweep over k at one n asks for it once per
    term."""
    return comb(2 * n, n)


class IntegralityError(ArithmeticError):
    """A closed form that must yield a count did not reduce to a nonnegative
    integer: the program is wrong, not its input. The message names the
    function and its inputs."""


def _as_count(value: Fraction, context: str) -> int:
    if value.denominator != 1 or value < 0:
        # a long value is named by its size: str() would pass the
        # interpreter's int-to-str limit and raise ValueError instead
        bits = (value.numerator.bit_length(), value.denominator.bit_length())
        shown = value if sum(bits) <= 1000 else "a %d-bit numerator over a %d-bit denominator" % bits
        raise IntegralityError(f"{context}: expected a nonnegative integer, got {shown}")
    return int(value)


def _check_rect_args(n: int, r: int, k: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if not 0 <= k <= n - 2:
        raise ValueError(f"need 0 <= k <= n-2, got k={k}, n={n}")


def rect_pair_count_a(n: int, r: int, k: int) -> int:
    """Ordered corner-to-corner pairs with k interior meetings, first form:

        2(k+1)/(n-k-1) * sum_i C(k,i) C(n-k+i-1, r) C(n-i-1, n-r)
    """
    _check_rect_args(n, r, k)
    total = sum(
        binom(k, i) * binom(n - k + i - 1, r) * binom(n - i - 1, n - r)
        for i in range(k + 1)
    )
    return _as_count(Fraction(2 * (k + 1), n - k - 1) * total, f"rect_pair_count_a{(n, r, k)}")


def rect_pair_count_b(n: int, r: int, k: int) -> int:
    """Same count, second form:

        2(k+1)/r * sum_i (-1)^i C(k,i) C(k-i,i) C(n-i-2,r-1) C(n-i-1,r-i-1)
                                 / C(n-i-2,i)

    With 1/C(n-i-2,i) = i! / ((n-i-2)(n-i-3)...(n-2i-1)), term i is an
    integer over that falling product, whose factors lie in n-k-1 .. n-1
    because 2i <= k; so every term divides exactly into the common
    denominator (n-1)(n-2)...(n-k-1) = (n-1)!/(n-k-2)!, and the sum runs in
    integers. ``binom``'s vanishing convention drops the same terms as the
    factorial form. The r = 0 column is defined by the transpose symmetry
    with r = n.
    """
    _check_rect_args(n, r, k)
    if r == 0:
        return rect_pair_count_b(n, n, k)
    common = perm(n - 1, k + 1)
    total = 0
    for i in range(k // 2 + 1):
        term = binom(k, i) * binom(k - i, i) * binom(n - i - 2, r - 1) * binom(n - i - 1, r - i - 1)
        if term:
            total += (-1) ** i * term * factorial(i) * (common // perm(n - i - 2, i))
    return _as_count(Fraction(2 * (k + 1) * total, r * common), f"rect_pair_count_b{(n, r, k)}")


def narayana(n: int, r: int) -> int:
    """Half the nonmeeting pair count: C(n-1, r) C(n-1, n-r) / (n-1)."""
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    return _as_count(
        Fraction(binom(n - 1, r) * binom(n - 1, n - r), n - 1), f"narayana{(n, r)}"
    )


# --- pairs with two prescribed endpoints ------------------------------------

#: Readings (c, e) of the typographically ambiguous leading fraction
#: (s-j-r+c+2et)/(n-1-j-2t) of the two-endpoint count. "printed" is the one
#: displayed and the one the enumeration oracle confirms; the others are the
#: plausible mis-groupings it rules out.
ENDPOINT_COUNT_READINGS = {"printed": (1, 1), "minus-2t": (1, -1), "r-plus-1": (-1, 1)}

RESOLVED_ENDPOINT_READING = "printed"


def endpoint_pair_expression(n: int, r: int, s: int, k: int, reading: str) -> Fraction:
    """Two-term expression for pairs ending at (r, n-r) and (s, n-s) that
    share exactly k vertices beyond the start, under one reading of its
    leading fraction. Valid for r <= s; at r = s the second term vanishes
    and the double sum reduces to the same-endpoint count. Not reduced to
    an integer: a wrong reading may give a fraction. The double sum runs in
    integers, one numerator per denominator n-1-j-2t, made Fractions last."""
    if reading not in ENDPOINT_COUNT_READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    c, e = ENDPOINT_COUNT_READINGS[reading]
    second = Fraction(0)
    if k < n:
        tot = sum(
            binom(k, j) * binom(n - k, r - j) * binom(n - k, s - j) for j in range(k + 1)
        )
        second = Fraction((s - r) * tot, n - k)
    by_den: dict[int, int] = {}
    for t in range((k + 1) // 2):  # C(k, 2t+1) and C(k-1-2t, j) vanish past these ranges
        c1 = binom(k, 2 * t + 1)
        for j in range(k - 2 * t):
            den = n - 1 - j - 2 * t
            term = c1 * binom(k - 1 - 2 * t, j) * binom(den, s - j) * binom(den, r - 1 - 2 * t)
            if term:
                by_den[den] = by_den.get(den, 0) + (-1) ** j * (s - j - r + c + 2 * e * t) * term
    return 2 * sum(Fraction(num, den) for den, num in by_den.items()) + second


def endpoint_pair_count(n: int, r: int, s: int, k: int) -> int:
    """Pairs from the origin to (r, n-r) and (s, n-s) sharing exactly k
    vertices beyond the start.

    For r == s the shared final vertex always contributes, and the count is
    by definition the rectangle count at k-1 meetings. For r < s it is the
    closed form under the resolved reading; ``verify.check_mrs`` holds it to
    the enumeration oracle.
    """
    if not 0 <= r <= s <= n:
        raise ValueError(f"need 0 <= r <= s <= n, got r={r}, s={s}, n={n}")
    if r == s:
        if not 0 <= k <= n:
            raise ValueError(f"equal endpoints need 0 <= k <= n, got k={k}")
        if k == 0:
            return 0  # the shared endpoint alone already gives one meeting
        if k == n:
            return binom(n, r)  # identical-path pairs
        return rect_pair_count_a(n, r, k - 1)
    if not 0 <= k <= n - 1:
        raise ValueError(f"distinct endpoints need 0 <= k <= n-1, got k={k}")
    return _as_count(
        endpoint_pair_expression(n, r, s, k, RESOLVED_ENDPOINT_READING),
        f"endpoint_pair_count{(n, r, s, k)}"
    )


def endpoint_pair_count_k0(n: int, r: int, s: int) -> int:
    """The no-meeting case in closed form: (s-r)/n * C(n, r) C(n, s)."""
    if not 0 <= r < s <= n:
        raise ValueError(f"need 0 <= r < s <= n, got r={r}, s={s}, n={n}")
    return _as_count(
        Fraction((s - r) * binom(n, r) * binom(n, s), n), f"endpoint_pair_count_k0{(n, r, s)}"
    )


# --- free and same-endpoint pairs -------------------------------------------


def free_pair_count(n: int, k: int) -> int:
    """Ordered pairs of free n-step walks sharing exactly k vertices after
    the origin: 2^k C(2n-k, n)."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (1 << k) * binom(2 * n - k, n)


def same_endpoint_pair_count(n: int, k: int) -> int:
    """Ordered same-endpoint pairs of n-step walks with k interior meetings:

        2^(k+1) (k+1) (2n-k-2)! / (n! (n-k-1)!) = 2^(k+1) (k+1) C(2n-k-2, n-1) / n

    Also the diagonal sum of the rectangle counts over every split r.
    """
    if n < 1 or not 0 <= k <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got n={n}, k={k}")
    return _as_count(
        Fraction((1 << (k + 1)) * (k + 1) * comb(2 * n - k - 2, n - 1), n),
        f"same_endpoint_pair_count{(n, k)}",
    )


def same_endpoint_meet_prob(n: int, k: int) -> Fraction:
    """Probability that a uniform same-endpoint pair has k interior meetings:

        2^(k+1) (k+1) (2n-k-2)! n! / ((n-k-1)! (2n)!)
            = 2^(k+1) (k+1) C(2n-k-2, n-1) / (n C(2n, n))
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    return Fraction((1 << (k + 1)) * (k + 1) * comb(2 * n - k - 2, n - 1), n * _central_binomial(n))


def meet_prob_or_zero(n: int, k: int) -> Fraction:
    """``same_endpoint_meet_prob`` extended by zero outside 0 <= k <= n-1."""
    if k < 0 or k > n - 1:
        return Fraction(0)
    return same_endpoint_meet_prob(n, k)


def telescoping_companion(n: int, k: int) -> Fraction:
    """Companion term whose k-difference matches the n-difference of the
    meeting probabilities:

        g(n, k) = -(k+1) p(n, k-1) / (2n+1)

    so that p(n+1, k) - p(n, k) = g(n, k+1) - g(n, k) and the k-sum
    telescopes to zero (both tails vanish outside the support of p).
    """
    return Fraction(-(k + 1), 2 * n + 1) * meet_prob_or_zero(n, k - 1)


def average_crossings(n: int) -> Fraction:
    """Exact mean number of shared vertices (after the origin) over all 4^n
    pairs of free n-step walks: (2n+1)! / (4^n n!^2) - 1 = (2n+1) C(2n, n) / 4^n - 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    four_n = 1 << (2 * n)
    return Fraction((2 * n + 1) * comb(2 * n, n) - four_n, four_n)


def average_crossings_asymptote(n: int) -> float:
    """Leading asymptotic form 2 sqrt(n / pi) - 1 of the mean crossing count."""
    from math import pi, sqrt

    return 2.0 * sqrt(n / pi) - 1.0


# --- meeting-at-the-origin probabilities ------------------------------------


def _probability(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def barrier_meet_formula(a: int, b: int, x: int, p) -> Fraction:
    """Closed form for the constant-rate barrier walk:

        sum_{t=0..x} C(a+b+x, a+t) p^(a+t) q^(b+x-t),  q = 1 - p.
    """
    if a < 0 or b < 0 or x < 0:
        raise ValueError("a, b, x must be nonnegative")
    p = _probability(p)
    q = 1 - p
    total = Fraction(0)
    for t in range(x + 1):
        total += binom(a + b + x, a + t) * p ** (a + t) * q ** (b + x - t)
    return total


def same_start_meet_formula(a: int, b: int, p) -> Fraction:
    """Closed form for two walkers released from the same point (a+1, b+1):

        2 C(a+b, a) p^(a+1) q^(b+1).
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    p = _probability(p)
    return 2 * binom(a + b, a) * p ** (a + 1) * (1 - p) ** (b + 1)


def vandermonde_a(a: int, b: int, m: int) -> bool:
    """sum_i C(a,i) C(b,m-i) == C(a+b,m), falling-factorial binomials."""
    lhs = sum(binom_gen(a, i) * binom_gen(b, m - i) for i in range(m + 1))
    return lhs == binom_gen(a + b, m)


def vandermonde_b(a: int, c: int, m: int) -> bool:
    """sum_i (-1)^i C(a,i) C(c-i,m-i) == C(c-a,m), falling-factorial binomials."""
    lhs = sum((-1) ** i * binom_gen(a, i) * binom_gen(c - i, m - i) for i in range(m + 1))
    return lhs == binom_gen(c - a, m)
