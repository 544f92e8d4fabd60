"""Closed-form pair counts and meeting probabilities, evaluated exactly.

The formulas are written as products and sums of binomials and falling
factorials, so they are evaluated in Python ints, as one integer numerator
over one integer denominator. A sum whose terms are not integral (the second
rectangle form) is taken over one common denominator that every term
divides; the two-endpoint expression takes its terms over the lcm of their
denominators. A count is reduced by one ``divmod``: a nonzero remainder or a
negative quotient raises ``IntegralityError`` instead of rounding, and only
then is a ``Fraction`` built, to name the value. A rational result is one
``Fraction`` built at the boundary. The prefactors of the rectangle-count
formulas are not termwise integral, so the check is load bearing.

Each sum is evaluated by ratio stepping: its first nonzero term is built
from ``binom`` calls, and each later term from the one before by one
multiply and one floor-divide by small ints, the product of the ratios of
consecutive binomials (C(a, b+1) = C(a, b)(a-b)/(b+1), C(a+1, b) =
C(a, b)(a+1)/(a+1-b) and their kin). Every term is an integer, so the
division is exact: the previous term times the numerator is the next term
times the divisor. The sum runs over the displayed index in its order, but
only over the indices with every factor nonzero, so it drops exactly the
terms the vanishing convention drops, and no divisor is zero.

The one-binomial row forms (free-pair counts, same-endpoint counts and
meeting probabilities) step across calls instead: ``_row_binomial`` keeps
the last value of a binomial row in one of 32 fixed slots, so a sweep over
k at one n pays one ``comb`` and then one small-int step per k. The meeting
probability keeps its own last reduced value and steps that by a small
ratio.

Binomials follow the factorial convention used throughout: a term whose
denominator would contain the factorial of a negative integer vanishes.
``binom`` implements that convention for nonnegative upper arguments; the
separate ``binom_gen`` is the falling-factorial binomial, defined for any
integer upper argument and read off ``comb`` by upper negation, which the
two convolution identities in ``vandermonde_a``/``vandermonde_b`` need to
hold without restrictions.

No other route is imported here, only ``paths``, for its probability
check, its memo registry and ``IntegralityError``: every comparison with
enumeration lives in ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, isqrt, lcm, perm, prod

from . import paths


def binom(a: int, b: int) -> int:
    """C(a, b) with the factorial convention: zero when b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def binom_gen(x: int, m: int) -> int:
    """Falling-factorial binomial x(x-1)...(x-m+1)/m!, any integer x: zero
    for m < 0, C(x, m) for x >= 0 (zero when x < m), and by upper negation
    (-1)^m C(m-x-1, m) for x < 0."""
    if m < 0:
        return 0
    if x >= 0:
        return comb(x, m)
    value = comb(m - x - 1, m)
    return -value if m % 2 else value


@lru_cache(maxsize=256)
def _central_binomial(n: int) -> int:
    """C(2n, n) from its prime factorisation, cached by n. It is asked for
    by ``same_endpoint_meet_prob`` on each value built from the formula, not
    stepped from the last one, and by ``average_crossings``; a repeated n is
    a hit: 21 of the 83 calls of ``verify --all`` and 8 of the 40 of a
    seed-1 ``query-mix`` bench pass.

    Each prime p <= 2n enters with Legendre's exponent
    e = sum_i (floor(2n/p^i) - 2 floor(n/p^i)) (Goetgheluck, "Computing
    binomial coefficients", Amer. Math. Monthly 94, 1987), and the powers
    p^e are multiplied pairwise as a balanced tree, so no step multiplies a
    long int by a short one n times over.
    """
    m = 2 * n
    sieve = bytearray(2) + bytearray([1]) * (m - 1)  # sieve[i]: i is prime
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    powers = []
    for p in compress(range(m + 1), sieve):
        e, q = 0, p
        while q <= m:
            e += m // q - 2 * (n // q)
            q *= p
        if e:
            powers.append(p**e)
    while len(powers) > 1:
        powers = [prod(powers[i : i + 2]) for i in range(0, len(powers), 2)]
    return powers[0] if powers else 1


paths.MEMOS.setdefault("formulas._central_binomial", _central_binomial.cache_clear)


# The last C(a, b) asked for at lower index b, as (b, a, value) in slot
# b % _ROW_MEMO_SIZE. A new b takes its slot over, so nothing is evicted, and
# threads sharing the slots only read and write whole tuples.
_ROW_MEMO_SIZE = 32
_ROW_MEMO: list[tuple[int, int, int]] = [(-1, -1, 0)] * _ROW_MEMO_SIZE


def _clear_row_memo() -> None:
    _ROW_MEMO[:] = [(-1, -1, 0)] * _ROW_MEMO_SIZE


paths.MEMOS.setdefault("formulas._ROW_MEMO", _clear_row_memo)


def _row_binomial(a: int, b: int) -> int:
    """C(a, b) for a >= b >= 0, stepped from the last one asked for at the
    same b when its a differs by one: C(a-1, b) = C(a, b)(a-b)/a and
    C(a+1, b) = C(a, b)(a+1)/(a+1-b), both exact. Any other a pays one
    ``comb``. A sweep over k at one n walks a row of a closed form this way,
    one step per k in either direction; the value never depends on what the
    memo holds."""
    slot = b % _ROW_MEMO_SIZE
    last_b, last, value = _ROW_MEMO[slot]
    if last_b != b:
        last = None
    if last == a:
        return value
    if last == a + 1:
        value = value * (a + 1 - b) // (a + 1)
    elif last == a - 1:
        value = value * a // (a - b)
    else:
        value = comb(a, b)
    _ROW_MEMO[slot] = (b, a, value)
    return value


#: What a count that is not a nonnegative integer raises: the class
#: ``paths`` defines, re-exported under its name here.
IntegralityError = paths.IntegralityError


def _as_count(num: int, den: int, context: str) -> int:
    """num / den as a count, by one ``divmod``; the reduced ``Fraction`` is
    built only to name a value that is not a nonnegative integer."""
    q, rem = divmod(num, den)
    if rem or q < 0:
        value = Fraction(num, den)
        # a long value is named by its size: str() would pass the
        # interpreter's int-to-str limit and raise ValueError instead
        bits = (value.numerator.bit_length(), value.denominator.bit_length())
        shown = value if sum(bits) <= 1000 else "a %d-bit numerator over a %d-bit denominator" % bits
        raise IntegralityError(f"{context}: expected a nonnegative integer, got {shown}")
    return q


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
    # C(n-k+i-1, r) needs i >= r-n+k+1 and C(n-i-1, n-r) needs i <= r-1
    lo, hi = max(0, r - n + k + 1), min(k, r - 1)
    total = 0
    term = binom(k, lo) * binom(n - k + lo - 1, r) * binom(n - lo - 1, n - r)
    for i in range(lo, hi + 1):
        total += term
        if i < hi:
            # C(k, i+1) = C(k, i)(k-i)/(i+1); with m = n-k+i-1,
            # C(m+1, r) = C(m, r)(m+1)/(m+1-r); with a = n-i-1,
            # C(a-1, n-r) = C(a, n-r)(a-n+r)/a
            m, a = n - k + i - 1, n - i - 1
            term = term * ((k - i) * (m + 1) * (a - n + r)) // ((i + 1) * (m + 1 - r) * a)
    return _as_count(2 * (k + 1) * total, n - k - 1, f"rect_pair_count_a{(n, r, k)}")


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

    Term i over the common denominator is the integer

        C(k,i) C(k-i,i) i! * C(n-i-2,r-1) C(n-i-1,r-i-1) * common/perm(n-i-2,i)

    and is stepped to term i+1 by one multiply and one floor-divide:
    C(k,i) C(k-i,i) i! = k!/(i!(k-2i)!) gains (k-2i)(k-2i-1)/(i+1),
    C(n-i-2,r-1) gains (n-i-r-1)/(n-i-2), C(n-i-1,r-i-1) gains
    (r-i-1)/(n-i-1), and the quotient gains (n-i-2)/((n-2i-2)(n-2i-3)),
    so n-i-2 cancels. Term i+1 is an integer, so the division is exact. Only indices with
    every factor nonzero are visited: i <= k/2, i <= n-r-1 and i <= r-1.
    """
    _check_rect_args(n, r, k)
    if r == 0:
        return rect_pair_count_b(n, n, k)
    common = perm(n - 1, k + 1)
    hi = min(k // 2, n - r - 1, r - 1)
    total = 0
    term = binom(n - 2, r - 1) * binom(n - 1, r - 1) * common
    for i in range(hi + 1):
        total += -term if i % 2 else term
        if i < hi:  # past hi a divisor can vanish: n-2i-2 = 0 at k = n-2
            term = term * ((k - 2 * i) * (k - 2 * i - 1) * (n - i - r - 1) * (r - i - 1)) // (
                (i + 1) * (n - i - 1) * (n - 2 * i - 2) * (n - 2 * i - 3)
            )
    return _as_count(2 * (k + 1) * total, r * common, f"rect_pair_count_b{(n, r, k)}")


def narayana(n: int, r: int) -> int:
    """Half the nonmeeting pair count: C(n-1, r) C(n-1, n-r) / (n-1)."""
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    return _as_count(binom(n - 1, r) * binom(n - 1, n - r), n - 1, f"narayana{(n, r)}")


# --- pairs with two prescribed endpoints ------------------------------------

def endpoint_pair_expression(n: int, r: int, s: int, k: int) -> Fraction:
    """Two-term expression for pairs ending at (r, n-r) and (s, n-s) that
    share exactly k vertices beyond the start, with the printed leading
    fraction (s-j-r+1+2t)/(n-1-j-2t). Valid for r <= s; at r = s the second
    term vanishes and the double sum reduces to the same-endpoint count. Not
    reduced to an integer."""
    return Fraction(*_endpoint_pair_terms(n, r, s, k))


def _endpoint_pair_terms(n: int, r: int, s: int, k: int) -> tuple[int, int]:
    """``endpoint_pair_expression`` as one integer numerator over one
    denominator, unreduced. The double sum runs in integers, one numerator
    per denominator n-1-j-2t; those numerators and the second term's
    (s-r) tot over n-k are taken over the lcm of their denominators. A zero
    denominator raises ``ZeroDivisionError``, as the Fraction it stands for
    would."""
    by_den: dict[int, int] = {}
    if k < n:
        # C(n-k, r-j) and C(n-k, s-j) are nonzero for j in lo..hi; each step
        # multiplies by (k-j)/(j+1), (r-j)/(n-k-r+j+1) and (s-j)/(n-k-s+j+1)
        lo, hi = max(0, r - n + k, s - n + k), min(k, r, s)
        tot = 0
        term = binom(k, lo) * binom(n - k, r - lo) * binom(n - k, s - lo)
        for j in range(lo, hi + 1):
            tot += term
            if j < hi:
                term = term * ((k - j) * (r - j) * (s - j)) // (
                    (j + 1) * (n - k - r + j + 1) * (n - k - s + j + 1)
                )
        by_den[n - k] = (s - r) * tot
    for t in range((k + 1) // 2):  # C(k, 2t+1) and C(k-1-2t, j) vanish past these ranges
        q = r - 1 - 2 * t
        if q < 0 or s > n - 1 - 2 * t:
            continue  # C(den, r-1-2t) or C(den, s-j) vanishes for every j
        # with den = n-1-j-2t, C(den, s-j) and C(den, q) are nonzero while
        # j <= s and j <= n-r; each step multiplies by (k-1-2t-j)/(j+1),
        # (s-j)/den and (den-q)/den
        hi = min(k - 1 - 2 * t, s, n - r)
        term = binom(k, 2 * t + 1) * binom(n - 1 - 2 * t, s) * binom(n - 1 - 2 * t, q)
        for j in range(hi + 1):
            den = n - 1 - j - 2 * t
            signed = 2 * (s - j - r + 1 + 2 * t) * term
            by_den[den] = by_den.get(den, 0) + (-signed if j % 2 else signed)
            if j < hi:
                term = term * ((k - 1 - 2 * t - j) * (s - j) * (den - q)) // ((j + 1) * den * den)
    common = lcm(*by_den)
    return sum(num * (common // den) for den, num in by_den.items()), common


def endpoint_pair_count(n: int, r: int, s: int, k: int) -> int:
    """Pairs from the origin to (r, n-r) and (s, n-s) sharing exactly k
    vertices beyond the start.

    For r == s the shared final vertex always contributes, and the count is
    by definition the rectangle count at k-1 meetings. For r < s it is the
    closed form ``endpoint_pair_expression``; ``verify.check_mrs`` holds it
    to the enumeration oracle.
    """
    if not 0 <= r <= s <= n:
        raise ValueError(f"need 0 <= r <= s <= n, got r={r}, s={s}, n={n}")
    if r == s:
        if not 0 <= k <= n:
            raise ValueError(f"equal endpoints need 0 <= k <= n, got k={k}")
        if k == n:
            return binom(n, r)  # identical-path pairs, the one pair at n = 0 included
        if k == 0:
            return 0  # the shared endpoint alone already gives one meeting
        return rect_pair_count_a(n, r, k - 1)
    if not 0 <= k <= n - 1:
        raise ValueError(f"distinct endpoints need 0 <= k <= n-1, got k={k}")
    return _as_count(*_endpoint_pair_terms(n, r, s, k), f"endpoint_pair_count{(n, r, s, k)}")


def endpoint_pair_count_k0(n: int, r: int, s: int) -> int:
    """The no-meeting case in closed form: (s-r)/n * C(n, r) C(n, s)."""
    if not 0 <= r < s <= n:
        raise ValueError(f"need 0 <= r < s <= n, got r={r}, s={s}, n={n}")
    return _as_count((s - r) * binom(n, r) * binom(n, s), n, f"endpoint_pair_count_k0{(n, r, s)}")


# --- free and same-endpoint pairs -------------------------------------------


def free_pair_count(n: int, k: int) -> int:
    """Ordered pairs of free n-step walks sharing exactly k vertices after
    the origin: 2^k C(2n-k, n). At k + 1 the binomial steps by
    C(2n-k-1, n) = C(2n-k, n)(n-k)/(2n-k)."""
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (1 << k) * _row_binomial(2 * n - k, n)


def same_endpoint_pair_count(n: int, k: int) -> int:
    """Ordered same-endpoint pairs of n-step walks with k interior meetings:

        2^(k+1) (k+1) (2n-k-2)! / (n! (n-k-1)!) = 2^(k+1) (k+1) C(2n-k-2, n-1) / n

    Also the diagonal sum of the rectangle counts over every split r. At
    k + 1 the binomial steps by C(2n-k-3, n-1) = C(2n-k-2, n-1)(n-k-1)/(2n-k-2).
    """
    if n < 1 or not 0 <= k <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= k <= n-1, got n={n}, k={k}")
    return _as_count(
        (1 << (k + 1)) * (k + 1) * _row_binomial(2 * n - k - 2, n - 1), n, f"same_endpoint_pair_count{(n, k)}"
    )


# The last meeting probability asked for, as (n, k, p) with p reduced.
_MEET_MEMO: tuple[int, int, Fraction] = (0, 0, Fraction(0))


def _clear_meet_memo() -> None:
    global _MEET_MEMO
    _MEET_MEMO = (0, 0, Fraction(0))


paths.MEMOS.setdefault("formulas._MEET_MEMO", _clear_meet_memo)


def same_endpoint_meet_prob(n: int, k: int) -> Fraction:
    """Probability that a uniform same-endpoint pair has k interior meetings:

        2^(k+1) (k+1) (2n-k-2)! n! / ((n-k-1)! (2n)!)
            = 2^(k+1) (k+1) C(2n-k-2, n-1) / (n C(2n, n))

    Next to the last (n, k) asked for, the reduced value is stepped by

        p(n, k+1) / p(n, k) = 2 (k+2) (n-k-1) / ((k+1) (2n-k-2)),

    in either direction, so a sweep over k reduces each value against a
    small ratio, not a long numerator against C(2n, n) by a full gcd. Any
    other (n, k) is built from the formula. A reduced fraction is unique,
    so the value never depends on what was asked before.
    """
    global _MEET_MEMO
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    last_n, last_k, p = _MEET_MEMO
    if last_n != n or abs(k - last_k) > 1:
        p = Fraction((1 << (k + 1)) * (k + 1) * _row_binomial(2 * n - k - 2, n - 1), n * _central_binomial(n))
    elif k == last_k + 1:
        p *= Fraction(2 * (k + 1) * (n - k), k * (2 * n - k - 1))
    elif k == last_k - 1:
        p *= Fraction((k + 1) * (2 * n - k - 2), 2 * (k + 2) * (n - k - 1))
    _MEET_MEMO = (n, k, p)
    return p


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
    return Fraction((2 * n + 1) * _central_binomial(n) - four_n, four_n)


def average_crossings_asymptote(n: int) -> float:
    """Leading asymptotic form 2 sqrt(n / pi) - 1 of the mean crossing count."""
    from math import pi, sqrt

    return 2.0 * sqrt(n / pi) - 1.0


# --- meeting-at-the-origin probabilities ------------------------------------


def barrier_meet_formula(a: int, b: int, x: int, p) -> Fraction:
    """Closed form for the constant-rate barrier walk:

        sum_{t=0..x} C(a+b+x, a+t) p^(a+t) q^(b+x-t),  q = 1 - p.

    With p = P/Q (``west`` over ``scale``) the sum is one integer numerator
    over Q^(a+b+x), the sum of C(a+b+x, a+t) P^(a+t) (Q-P)^(b+x-t). It is taken as P^a (Q-P)^b
    times sum_t C(a+b+x, a+t) P^t (Q-P)^(x-t), by Horner's rule in t, with
    the binomial stepped by C(m, k+1) = C(m, k)(m-k)/(k+1).
    """
    if a < 0 or b < 0 or x < 0:
        raise ValueError("a, b, x must be nonnegative")
    p = paths.as_probability(p)
    west, scale = p.numerator, p.denominator
    south = scale - west
    coeff, west_power, total = binom(a + b + x, a), 1, 0
    for t in range(x + 1):
        total = total * south + coeff * west_power
        west_power *= west
        coeff = coeff * (b + x - t) // (a + t + 1)
    return Fraction(west**a * south**b * total, scale ** (a + b + x))


def same_start_meet_formula(a: int, b: int, p) -> Fraction:
    """Closed form for two walkers released from the same point (a+1, b+1):

        2 C(a+b, a) p^(a+1) q^(b+1).
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    p = paths.as_probability(p)
    return 2 * binom(a + b, a) * p ** (a + 1) * (1 - p) ** (b + 1)


def vandermonde_a(a: int, b: int, m: int) -> bool:
    """sum_i C(a,i) C(b,m-i) == C(a+b,m), falling-factorial binomials."""
    lhs = sum(binom_gen(a, i) * binom_gen(b, m - i) for i in range(m + 1))
    return lhs == binom_gen(a + b, m)


def vandermonde_b(a: int, c: int, m: int) -> bool:
    """sum_i (-1)^i C(a,i) C(c-i,m-i) == C(c-a,m), falling-factorial binomials."""
    lhs = sum((-1) ** i * binom_gen(a, i) * binom_gen(c - i, m - i) for i in range(m + 1))
    return lhs == binom_gen(c - a, m)
