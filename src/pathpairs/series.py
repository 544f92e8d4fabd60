"""Truncated formal power series over exact rationals.

``BiSeries`` is the one series type. It keeps the nonzero coefficients of
every monomial x^i y^j of total degree at most D; since total degree is
additive, ring operations on truncated series are exact in every retained
coefficient. A one-variable series is a ``BiSeries`` with no y terms, read
with ``coeff(i)``. Binary operations require equal truncation degrees so
silent precision loss cannot happen.

The arithmetic runs on Python ints: a series stores integer numerators
keyed by (i, j) over one common positive denominator, kept in canonical
form (the gcd of the denominator and every numerator is 1), so equal series
have equal representations. Sums rescale both operands to the lcm of their
denominators; products multiply numerators and denominators. A ``Fraction``
is built only at the boundary: ``coeff()`` returns one, and ``coeffs`` is a
read-only {(i, j): Fraction} view of the nonzero coefficients.

Square roots expand (1 + w)^(1/2) binomially, where w is the input minus its
constant term; they demand constant term 1 and return the branch whose
constant term is +1. Inverses require a nonzero constant term and are grown
by Newton steps v <- v(2 - s v), which double the number of correct
coefficients each pass.

The builders at the bottom produce the generating series whose coefficients
the enumeration oracle and the closed forms must reproduce, plus a direct
Lagrange-inversion coefficient extractor for solutions of f = x g(f).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, lcm, log2


def _half_binomials(count: int) -> list[Fraction]:
    """C(1/2, m) for m = 0 .. count-1."""
    out = [Fraction(1)]
    for m in range(1, count):
        out.append(out[-1] * (Fraction(1, 2) - (m - 1)) / m)
    return out


class _ReadOnlyDict(dict):
    """A dict whose mutators raise, so a view cannot drift from its series."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("BiSeries coefficients are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class BiSeries:
    """Series in x and y truncated by total degree; a one-variable series
    is one with no y terms.

    ``coeffs`` maps exponent pairs (i, j) with i + j <= degree to their
    nonzero coefficients; absent keys are zero.
    """

    __slots__ = ("degree", "_num", "_den", "_view")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        kept = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            if i + j <= degree:
                kept[(i, j)] = c if isinstance(c, int) else Fraction(c)
        den = lcm(*(c.denominator for c in kept.values()))
        self._store(degree, {key: c.numerator * (den // c.denominator) for key, c in kept.items()}, den)

    def _store(self, degree: int, num: dict, den: int) -> None:
        """Hold num/den in canonical form: zero numerators dropped, and the
        denominator and numerators divided by their common gcd."""
        num = {key: c for key, c in num.items() if c}
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
        self.degree, self._num, self._den, self._view = degree, num, den, None

    @classmethod
    def _of(cls, degree: int, num: dict, den: int) -> "BiSeries":
        out = object.__new__(cls)
        out._store(degree, num, den)
        return out

    @property
    def coeffs(self) -> dict:
        if self._view is None:
            den = self._den
            self._view = _ReadOnlyDict({key: Fraction(c, den) for key, c in self._num.items()})
        return self._view

    def coeff(self, i: int, j: int = 0) -> Fraction:
        if i < 0 or j < 0 or i + j > self.degree:
            raise IndexError(f"monomial {(i, j)} beyond total degree {self.degree}")
        return Fraction(self._num.get((i, j), 0), self._den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self.degree == other.degree
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.degree, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"BiSeries(degree={self.degree}, terms={len(self._num)})"

    def _coerce(self, other) -> "BiSeries":
        if isinstance(other, BiSeries):
            if other.degree != self.degree:
                raise ValueError(
                    f"mixed truncation degrees {self.degree} and {other.degree}"
                )
            return other
        return BiSeries(self.degree, {(0, 0): other})

    def __add__(self, other) -> "BiSeries":
        o = self._coerce(other)
        g = gcd(self._den, o._den)
        # scale both sides to the lcm of the denominators
        mine, theirs = o._den // g, self._den // g
        out = {key: c * mine for key, c in self._num.items()}
        for key, c in o._num.items():
            out[key] = out.get(key, 0) + c * theirs
        return self._of(self.degree, out, self._den * mine)

    __radd__ = __add__

    def __neg__(self) -> "BiSeries":
        return self._of(self.degree, {key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "BiSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BiSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            c = Fraction(other)
            num = {key: v * c.numerator for key, v in self._num.items()}
            return self._of(self.degree, num, self._den * c.denominator)
        o = self._coerce(other)
        d = self.degree
        # the other factor's terms by total degree t, so each term of this
        # one meets only the t <= d - (i1 + j1) that survive truncation
        by_degree: list[list] = [[] for _ in range(d + 1)]
        for (i2, j2), c2 in o._num.items():
            by_degree[i2 + j2].append((i2, j2, c2))
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._num.items():
            for group in by_degree[: d + 1 - i1 - j1]:
                for i2, j2, c2 in group:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
        return self._of(d, out, self._den * o._den)

    __rmul__ = __mul__

    def pow(self, m: int) -> "BiSeries":
        if m < 0:
            raise ValueError("negative powers go through inverse()")
        acc = BiSeries(self.degree, {(0, 0): Fraction(1)})
        for _ in range(m):
            acc = acc * self
        return acc

    def sqrt(self) -> "BiSeries":
        if self.coeff(0, 0) != 1:
            raise ValueError(f"sqrt needs constant term 1, got {self.coeff(0, 0)}")
        w = self - 1
        halves = _half_binomials(self.degree + 1)
        acc = BiSeries(self.degree, {(0, 0): Fraction(1)})
        wpow = acc
        for m in range(1, self.degree + 1):
            wpow = wpow * w
            if not wpow._num:
                break
            acc = acc + wpow * halves[m]
        return acc

    def inverse(self) -> "BiSeries":
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ValueError("inverse needs a nonzero constant term")
        v = BiSeries(self.degree, {(0, 0): 1 / c0})
        for _ in range(max(1, ceil(log2(self.degree + 1)))):
            v = v * (2 - self * v)
        return v


# --- the generating series under study ---------------------------------------


def _rect_kernel(degree: int) -> BiSeries:
    # 1 - 2x(y+1) + x^2 (y-1)^2, exponents ordered (x, y)
    return BiSeries(
        degree,
        {(0, 0): 1, (1, 0): -2, (1, 1): -2, (2, 0): 1, (2, 1): -2, (2, 2): 1},
    )


def rect_pair_base(degree: int) -> BiSeries:
    """Generating series whose (x^n y^r) coefficient counts nonmeeting
    ordered pair walks across an r x (n-r) rectangle: 1 - sqrt(kernel)."""
    return 1 - _rect_kernel(degree).sqrt()


def rect_pair_powers(k_max: int, degree: int) -> list[BiSeries]:
    """The powers 1 .. k_max+1 of the base series, each built from the one
    before it; entry k's (x^n y^r) coefficient counts ordered pairs with
    exactly k interior meetings."""
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    base = rect_pair_base(degree)
    powers = [base]
    for _ in range(k_max):
        powers.append(powers[-1] * base)
    return powers


def rect_pair_power(k: int, degree: int) -> BiSeries:
    """(k+1)-th power of the base series; its (x^n y^r) coefficient counts
    ordered pairs with exactly k interior meetings."""
    return rect_pair_powers(k, degree)[k]


def narayana_base(degree: int) -> BiSeries:
    """The series f(y, z) with f = (y+f)(z+f) and f(0,0) = 0, in closed form
    ((1-y-z) - sqrt((1-y-z)^2 - 4yz)) / 2. Its (y^r z^(n-r)) coefficient is
    half the nonmeeting rectangle pair count."""
    disc = BiSeries(
        degree,
        {(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (1, 1): -2, (0, 2): 1},
    )
    linear = BiSeries(degree, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    return (linear - disc.sqrt()) * Fraction(1, 2)


def meeting_poly_power(k: int, degree: int) -> BiSeries:
    """(y + z + 2 f)^(k+1); its (y^r z^(n-r)) coefficient is the rectangle
    pair count with k interior meetings."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    f = narayana_base(degree)
    base = BiSeries(degree, {(1, 0): 1, (0, 1): 1}) + 2 * f
    return base.pow(k + 1)


def free_pair_series(k: int, degree: int) -> BiSeries:
    """(1 - sqrt(1-4x))^k / sqrt(1-4x); the x^n coefficient counts free pair
    walks with exactly k post-origin meetings (zero for n < k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    sq = BiSeries(degree, {(0, 0): 1, (1, 0): -4}).sqrt()
    return (1 - sq).pow(k) * sq.inverse()


# --- Lagrange inversion -------------------------------------------------------


def lagrange_coefficient(phi_coeffs, g_coeffs, n: int) -> Fraction:
    """[x^n] phi(f) for the solution of f = x g(f), with phi and g given as
    polynomial coefficient sequences: (1/n) [t^(n-1)] phi'(t) g(t)^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    g = [Fraction(c) for c in g_coeffs]
    if not g or g[0] == 0:
        raise ValueError("g must have a nonzero constant term")
    cap = n - 1
    dphi = BiSeries(cap, {(i - 1, 0): i * Fraction(c) for i, c in enumerate(phi_coeffs) if i})
    gn = BiSeries(cap, {(i, 0): c for i, c in enumerate(g)}).pow(n)
    return (dphi * gn).coeff(cap) / n
