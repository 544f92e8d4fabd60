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

The derived operations take few products; each gives the same exact
series as the textbook expansion it replaces:

- Square roots and inverse square roots demand constant term 1 and return
  the branch whose constant term is +1. They take no product: one pass over
  the monomials in order of total degree solves 2 f E(g) = e g E(f) for
  g = f^(e/2), e = +1 or -1, where E = x d/dx + y d/dy (J. C. P. Miller's
  power recurrence; Knuth, TAOCP vol. 2, 4.7). Each coefficient reads only
  the input's few nonzero terms.
- Inverses require a nonzero constant term and are grown by Newton steps
  v <- v - v(s v - 1) with precision doubling (Brent and Kung, J. ACM 25,
  1978): each step runs at its own working degree 1, 3, 7, ..., D, so no
  step carries wrong high-order terms.
- ``pow`` squares and multiplies over the bits of the exponent, about
  2 log2 m products in place of m.

The builders at the bottom produce the generating series whose coefficients
the enumeration oracle and the closed forms must reproduce, plus a direct
Lagrange-inversion coefficient extractor for solutions of f = x g(f). Each
builder powers an h = 1 - sqrt(P) with P a polynomial of at most six terms
(the rectangle kernel, the meeting polynomial's discriminant, 1 - 4x). Such
an h is algebraic, h^2 = 2h - c with c = 1 - P (Wilf,
generatingfunctionology), so its powers obey the three-term chain
s_(m+1) = 2 s_m - c s_(m-1): one product by the few terms of c per power in
place of dense products. Truncation by total degree is a ring
homomorphism, so the chain gives the very series square-and-multiply gives.

Each chain is stepped once per process: ``_CHAINS`` keeps its terms by
kind and truncation degree, and a builder reads term m there, stepping on
only past the terms kept, since the next term needs only the two before it.
Only chains of degree at most 24 are kept (``_MEMO_DEGREE``, twice the
``series`` route's bound on n), so at most 75 chains of at most degree + 1
terms each; a larger degree steps a fresh chain, holding two terms at a
time. Every h has no constant term, so each term past the degree is the
zero series, returned without stepping. A kept chain is a tuple, read and
replaced whole, never edited, and a series never changes once built, so
callers and threads can share the terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from . import paths


class _ReadOnlyDict(dict):
    """A dict whose mutators raise, so a view cannot drift from its series."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("BiSeries coefficients are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def _exact(c):
    """``c`` as an int or a ``Fraction``. A float is refused:
    ``Fraction(0.1)`` is the binary value, not the 1/10 meant."""
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float; give an int, a Fraction or a 'p/q' string")
    return c if isinstance(c, int) else Fraction(c)


class BiSeries:
    """Series in x and y truncated by total degree; a one-variable series
    is one with no y terms.

    ``coeffs`` maps exponent pairs (i, j) with i + j <= degree to their
    nonzero coefficients; absent keys are zero. A series never changes once
    built, its ``degree`` included, so the builders can hand one series to
    every caller.
    """

    __slots__ = ("_degree", "_num", "_den", "_view")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        kept = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            if i + j <= degree:
                kept[(i, j)] = _exact(c)
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
        self._degree, self._num, self._den, self._view = degree, num, den, None

    @classmethod
    def _of(cls, degree: int, num: dict, den: int) -> "BiSeries":
        out = object.__new__(cls)
        out._store(degree, num, den)
        return out

    @property
    def degree(self) -> int:
        """The truncation degree D: every kept monomial has i + j <= D."""
        return self._degree

    @property
    def coeffs(self) -> dict:
        if self._view is None:
            den = self._den
            self._view = _ReadOnlyDict({key: Fraction(c, den) for key, c in self._num.items()})
        return self._view

    def coeff(self, i: int, j: int = 0) -> Fraction:
        if i < 0 or j < 0 or i + j > self._degree:
            raise IndexError(f"monomial {(i, j)} beyond total degree {self._degree}")
        return Fraction(self._num.get((i, j), 0), self._den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiSeries)
            and self._degree == other._degree
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self._degree, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"BiSeries(degree={self._degree}, terms={len(self._num)})"

    def _coerce(self, other) -> "BiSeries":
        if isinstance(other, BiSeries):
            if other._degree != self._degree:
                raise ValueError(
                    f"mixed truncation degrees {self._degree} and {other._degree}"
                )
            return other
        return BiSeries(self._degree, {(0, 0): other})

    def __add__(self, other) -> "BiSeries":
        o = self._coerce(other)
        g = gcd(self._den, o._den)
        # scale both sides to the lcm of the denominators
        mine, theirs = o._den // g, self._den // g
        out = {key: c * mine for key, c in self._num.items()}
        for key, c in o._num.items():
            out[key] = out.get(key, 0) + c * theirs
        return self._of(self._degree, out, self._den * mine)

    __radd__ = __add__

    def __neg__(self) -> "BiSeries":
        return self._of(self._degree, {key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "BiSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BiSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "BiSeries":
        if not isinstance(other, BiSeries):
            c = _exact(other)
            num = {key: v * c.numerator for key, v in self._num.items()}
            return self._of(self._degree, num, self._den * c.denominator)
        o = self._coerce(other)
        d = self._degree
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

    def _truncated(self, degree: int) -> "BiSeries":
        """The same coefficients at another truncation degree: terms past a
        lower degree are dropped, and a higher degree adds no terms."""
        return self._of(degree, {key: c for key, c in self._num.items() if sum(key) <= degree}, self._den)

    def pow(self, m: int) -> "BiSeries":
        if m < 0:
            raise ValueError("negative powers go through inverse()")
        # square-and-multiply over the bits of m, lowest first
        acc = BiSeries(self._degree, {(0, 0): 1})
        square = self
        while m:
            if m & 1:
                acc = acc * square
            m >>= 1
            if m:
                square = square * square
        return acc

    def sqrt(self) -> "BiSeries":
        return self._half_power(1)

    def _half_power(self, e: int) -> "BiSeries":
        """self^(e/2) for e = 1 or -1, the branch whose constant term is +1."""
        if self.coeff(0, 0) != 1:
            raise ValueError(f"the power {e}/2 needs constant term 1, got {self.coeff(0, 0)}")
        # 2 f E(g) = e g E(f) for g = f^(e/2), E = x d/dx + y d/dy, which
        # multiplies x^i y^j by i + j; at the monomial m, with f_0 = g_0 = 1,
        #   g_m = sum_{a != 0} f_a ((2 + e)|a| - 2|m|) g_{m-a} / (2|m|).
        # The run stays in ints: root[m] is g_m times scale[|m|], where
        # scale[t] = prod_{s <= t} 2 s den, so the division by 2t and by the
        # input's denominator is a factor of scale[t] / scale[t-1], and a
        # g_{m-a} is lifted from scale[t-|a|] to scale[t-1] by their ratio.
        # The candidates at degree t are the shifts m' + a of the nonzero
        # g_{m'} with |m'| = t - |a|.
        d, den = self._degree, self._den
        steps = [(i + j, i, j, c) for (i, j), c in self._num.items() if i or j]
        root = {(0, 0): 1}
        by_degree: list[list] = [[(0, 0)]] + [[] for _ in range(d)]
        scale = [1]
        for t in range(1, d + 1):
            scale.append(scale[-1] * 2 * t * den)
            weights = [
                (ai, aj, c * ((2 + e) * size - 2 * t) * (scale[t - 1] // scale[t - size]))
                for size, ai, aj, c in steps
                if size <= t
            ]
            candidates = {
                (i + ai, j + aj)
                for size, ai, aj, _ in steps
                if size <= t
                for i, j in by_degree[t - size]
            }
            for i, j in candidates:
                total = 0
                for ai, aj, w in weights:
                    prev = root.get((i - ai, j - aj))
                    if prev is not None:
                        total += w * prev
                if total:
                    root[(i, j)] = total
                    by_degree[t].append((i, j))
        return self._of(d, {key: h * (scale[d] // scale[sum(key)]) for key, h in root.items()}, scale[d])

    def inverse(self) -> "BiSeries":
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ValueError("inverse needs a nonzero constant term")
        # Newton steps v <- v - v (s v - 1) at working degrees 1, 3, 7, ...:
        # a v exact to degree e is exact to 2e + 1 after one step, and s v - 1
        # has no terms below degree e + 1, so the second product is short
        v = BiSeries(0, {(0, 0): 1 / c0})
        while v._degree < self._degree:
            d = min(2 * v._degree + 1, self._degree)
            v = v._truncated(d)
            v = v - v * (self._truncated(d) * v - 1)
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


def _chain(first: BiSeries, second: BiSeries, c: BiSeries):
    """Yield s_0 = first, s_1 = second and s_(m+1) = 2 s_m - c s_(m-1).

    If h = 1 - sqrt(P) then h^2 = 2h - c with c = 1 - P, so with second =
    h first the terms are s_m = h^m first, each from one product by the
    few terms of c. Truncation by total degree is a ring homomorphism, so
    the truncated terms obey the same recurrence and equal the truncated
    powers exactly. c must have integer coefficients; then every term's
    numerators sit over the lcm of the first two denominators.
    """
    if c._den != 1:
        raise ValueError("the chain needs c with integer coefficients")
    d = first._degree
    den = lcm(first._den, second._den)
    prev = {key: v * (den // first._den) for key, v in first._num.items()}
    cur = {key: v * (den // second._den) for key, v in second._num.items()}
    # each term of c meets only the monomials that stay within degree d
    steps = [(d - i - j, i, j, a) for (i, j), a in c._num.items()]
    yield first
    yield second
    while True:
        nxt = {key: 2 * v for key, v in cur.items()}
        for room, ai, aj, a in steps:
            for (i, j), v in prev.items():
                if i + j <= room:
                    key = (i + ai, j + aj)
                    nxt[key] = nxt.get(key, 0) - a * v
        prev, cur = cur, nxt
        yield BiSeries._of(d, cur, den)


#: A chain is kept once per process only at a truncation degree of at most
#: ``_MEMO_DEGREE``: 2 x 12, the largest n + r the ``series`` route of
#: ``nkr`` reaches within its default bound.
_MEMO_DEGREE = 24

#: The kept chains, by (kind, degree), where the kind is the function that
#: starts the chain: its c and the terms s_0, s_1, ... stepped so far, at
#: most degree + 1 of them. An entry is read and replaced whole, never
#: edited, so threads that extend one chain at once each step a generator of
#: their own; the last to write wins, and if its tuple is the shorter, a
#: later call steps the missing terms again. Every kept tuple is a prefix of
#: the one chain, so no reader sees a wrong term.
_CHAINS: dict[tuple, tuple[BiSeries, tuple[BiSeries, ...]]] = {}
paths.MEMOS.setdefault("series._CHAINS", _CHAINS.clear)


def _terms(kind, degree: int, start: int, stop: int) -> list[BiSeries]:
    """Terms start .. stop - 1 of the chain that ``kind(degree)`` starts.

    Every chain's h has no constant term, so each term past the degree is
    the zero series, returned without stepping. A chain of degree at most
    ``_MEMO_DEGREE`` is read from ``_CHAINS``; any other is stepped afresh,
    holding two terms at a time.
    """
    top = min(stop, degree + 1)
    if top <= start:
        terms = ()
    elif degree <= _MEMO_DEGREE:
        terms = _kept(kind, degree, top)[start:top]
    else:
        terms = islice(_chain(*kind(degree)), start, top)
    return [*terms, *(BiSeries(degree) for _ in range(max(start, top), stop))]


def _kept(kind, degree: int, length: int) -> tuple[BiSeries, ...]:
    """At least the first ``length`` terms of a kept chain, for a length of
    at most degree + 1. The chain is stepped on from the last two terms kept:
    s_(m+1) = 2 s_m - c s_(m-1) reads only the two terms before it, wherever
    the chain started."""
    c, terms = _CHAINS.get((kind, degree), (None, ()))
    if len(terms) >= length:
        return terms
    if len(terms) < 2:
        first, second, c = kind(degree)
        terms, steps = (), _chain(first, second, c)
    else:
        steps = islice(_chain(terms[-2], terms[-1], c), 2, None)
    terms += tuple(islice(steps, length - len(terms)))
    _CHAINS[kind, degree] = c, terms
    return terms


def _rect_chain(degree: int) -> tuple[BiSeries, BiSeries, BiSeries]:
    """The first two terms and c of the rectangle chain: the powers 0, 1,
    2, ... of the base series h = 1 - sqrt(kernel), with c = 1 - kernel."""
    one = BiSeries(degree, {(0, 0): 1})
    return one, rect_pair_base(degree), 1 - _rect_kernel(degree)


def rect_pair_powers(k_max: int, degree: int) -> list[BiSeries]:
    """The powers 1 .. k_max+1 of the base series, terms of the rectangle
    chain (see ``_terms``); entry k's (x^n y^r) coefficient counts ordered
    pairs with exactly k interior meetings."""
    if k_max < 0:
        raise ValueError("k must be nonnegative")
    return _terms(_rect_chain, degree, 1, k_max + 2)


def rect_pair_power(k: int, degree: int) -> BiSeries:
    """(k+1)-th power of the base series, term k + 1 of the rectangle chain
    (see ``_terms``): the kept term up to degree ``_MEMO_DEGREE``, and above
    it one stepped afresh, holding two terms at a time; its (x^n y^r)
    coefficient counts ordered pairs with exactly k interior meetings."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    (power,) = _terms(_rect_chain, degree, k + 1, k + 2)
    return power


def _narayana_disc(degree: int) -> BiSeries:
    # (1-y-z)^2 - 4yz, exponents ordered (y, z)
    return BiSeries(
        degree,
        {(0, 0): 1, (1, 0): -2, (0, 1): -2, (2, 0): 1, (1, 1): -2, (0, 2): 1},
    )


def narayana_base(degree: int) -> BiSeries:
    """The series f(y, z) with f = (y+f)(z+f) and f(0,0) = 0, in closed form
    ((1-y-z) - sqrt((1-y-z)^2 - 4yz)) / 2. Its (y^r z^(n-r)) coefficient is
    half the nonmeeting rectangle pair count."""
    linear = BiSeries(degree, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    return (linear - _narayana_disc(degree).sqrt()) * Fraction(1, 2)


def _meeting_chain(degree: int) -> tuple[BiSeries, BiSeries, BiSeries]:
    """The first two terms and c of the meeting-polynomial chain: the powers
    of y + z + 2f = 1 - sqrt(disc), f built by ``narayana_base``, with
    c = 1 - disc = 2(y+z) - (y-z)^2."""
    one = BiSeries(degree, {(0, 0): 1})
    base = BiSeries(degree, {(1, 0): 1, (0, 1): 1}) + 2 * narayana_base(degree)
    return one, base, 1 - _narayana_disc(degree)


def meeting_poly_power(k: int, degree: int) -> BiSeries:
    """(y + z + 2 f)^(k+1); its (y^r z^(n-r)) coefficient is the rectangle
    pair count with k interior meetings.

    The power is term k + 1 of the meeting-polynomial chain (see
    ``_terms``): the kept term up to degree ``_MEMO_DEGREE``, and above it
    one stepped afresh, holding two terms at a time."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    (power,) = _terms(_meeting_chain, degree, k + 1, k + 2)
    return power


def _free_chain(degree: int) -> tuple[BiSeries, BiSeries, BiSeries]:
    """The first two terms and c of the free-pair chain: with P = 1 - 4x and
    h = 1 - sqrt(P), the terms h^m / sqrt(P), from F_0 = P^(-1/2) (Miller's
    recurrence, as in ``sqrt``) and F_1 = h F_0 = F_0 - 1, with
    c = 1 - P = 4x."""
    kernel = BiSeries(degree, {(0, 0): 1, (1, 0): -4})
    f0 = kernel._half_power(-1)
    return f0, f0 - 1, 1 - kernel


def free_pair_series(k: int, degree: int) -> BiSeries:
    """(1 - sqrt(1-4x))^k / sqrt(1-4x), term k of the free-pair chain (see
    ``_terms``); the x^n coefficient counts free pair walks with exactly k
    post-origin meetings (zero for n < k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    (term,) = _terms(_free_chain, degree, k, k + 1)
    return term


# --- Lagrange inversion -------------------------------------------------------


def lagrange_coefficient(phi_coeffs, g_coeffs, n: int) -> Fraction:
    """[x^n] phi(f) for the solution of f = x g(f), with phi and g given as
    polynomial coefficient sequences: (1/n) [t^(n-1)] phi'(t) g(t)^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    g = [_exact(c) for c in g_coeffs]
    if not g or g[0] == 0:
        raise ValueError("g must have a nonzero constant term")
    cap = n - 1
    dphi = BiSeries(cap, {(i - 1, 0): i * _exact(c) for i, c in enumerate(phi_coeffs) if i})
    gn = BiSeries(cap, {(i, 0): c for i, c in enumerate(g)}).pow(n)
    return (dphi * gn).coeff(cap) / n
