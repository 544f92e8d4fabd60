"""Monotone lattice paths from the origin and the vertex-sharing counts
everything else rests on.

A path is its word of unit steps E (east, +x) and N (north, +y) from the
origin (0, 0). After t steps the coordinate sum is t, so two equal-length
paths can only share a vertex at the same step index; every count below is
therefore the size of the intersection of the two vertex sets over a window
of step indices.

A counting convention is one of two named windows, so no caller can
silently use the wrong one:

* ``INTERIOR``         -- shared vertices excluding both the origin and the
  common end, steps 1..n-1 (endpoints must coincide);
* ``EXCLUDING_ORIGIN`` -- shared vertices excluding the origin, steps 1..n;
  a shared final vertex counts.

This module is the only place that knows a convention's window. The
enumeration oracle and the 2-to-1 correspondence pass the convention to
``meeting_census`` (a tally over a whole family of pairs) or
``meeting_points`` (the shared vertices of one pair). ``meeting_census``
reads only the step words. It resolves the window and checks the
precondition once per call, not once per pair, and is bit-sliced: each pair
is counted exactly, in its own bit lane of big ints. The lane masks of the
right paths at each x are built one step at a time, from that step's column
of E steps read as one int. A left path walks its own x and adds the mask at
that x into a binary counter held as bit planes, so one integer operation
advances its counts against every right path at once. It reuses the
``(planes, x)`` of the step prefix it shares with the path before it, from a
stack kept by prefix length. The planes of up to 16 consecutive left paths
are tallied together, by one popcount of the AND of each subset of planes,
and the histogram is recovered once per call from those popcounts by
inclusion-exclusion. ``meeting_points`` reads each path's ``vertex_mask``,
one int with a bit per vertex, so a pair's shared vertices are the set bits
of the AND of its two masks, inside the window. ``all_paths`` is the one
enumerator, in the fixed order of the E-step positions as combinations.
``PathNE.from_word``, ``column_heights`` and the ``vertices`` it reads stay
as public views of a path only because the benchmark's tracer,
``bench/spans.py``, wraps the first two; nothing in the package calls them,
and the bench rewrite (ROADMAP item 4) deletes them.

Both ``all_paths`` and ``meeting_census`` are memoized behind their
signatures, so every table, the 2-to-1 replay and the command line share
one enumeration and one tally of each family per process. ``_family``, an
``lru_cache`` of 128 slots, keeps the families with at most 12 steps (all 91
fit); ``_census``, one of 256 slots, keeps the tallies of two families of
at most 924 paths (C(12, 6)) of at most 12 steps, keyed by their words and
the convention. Each call returns a fresh list or dict, a family that fails
its checks raises on every call and is never kept, and a larger family is
built and tallied afresh, by the same code.

``MEMOS`` names every memo the package keeps for the life of a process, in
any module, with the call that empties it. Each memo registers itself where
it is defined, when its module is first loaded, so a caller that must start
cold, such as a test that perturbs a route, empties them all without
knowing where they live; a module not loaded yet holds no memo.

All values are immutable and all operations are pure functions.
``InvariantError`` is what a route raises when one of its own
postconditions fails, ``IntegralityError`` what a closed form raises when a
count is not a nonnegative integer, and ``as_probability`` is the one check
the routes apply to a probability argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, count
from math import comb
from operator import add, ne
from typing import Callable

Point = tuple[int, int]

EAST = "E"
NORTH = "N"

_VALID_STEPS = frozenset((EAST, NORTH))

#: The two counting conventions, each a window of step indices (see above).
INTERIOR = "interior"
EXCLUDING_ORIGIN = "excluding-origin"

#: Every process memo by qualified name, with the call that empties it. A
#: memo registers itself with ``setdefault`` right after its definition, so
#: a second copy of its module, loaded from source, keeps the package's own.
MEMOS: dict[str, Callable[[], None]] = {}


class InvariantError(RuntimeError):
    """A route broke one of its own postconditions: the program is wrong,
    not its input. Defined here so every route can raise it without
    importing another route."""


class IntegralityError(ArithmeticError):
    """A closed form that must yield a count did not reduce to a nonnegative
    integer: the program is wrong, not its input. The message names the
    function and its inputs. ``formulas`` raises it, under the same name;
    it is defined here so the command line can catch it without loading
    ``formulas``."""


def as_probability(p) -> Fraction:
    """``p`` as an exact Fraction, checked to lie in [0, 1]. Shared here so
    every route rejects a bad probability with the same message. A float is
    refused: ``Fraction(0.1)`` is the binary value, not the 1/10 meant."""
    if isinstance(p, float):
        raise ValueError(f"probability {p!r} is a float; give an int, a Fraction or a 'p/q' string")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


class PathNE:
    """A monotone lattice path from the origin, stored as its step word.

    The word is canonical: two paths are equal, and hash alike, exactly when
    their words are. A path cannot be changed; the vertex list and mask are
    derived on demand and cached.
    """

    def __init__(self, word: str) -> None:
        if not isinstance(word, str):
            raise ValueError(f"a path is a str of steps, got {word!r}")
        if not _VALID_STEPS.issuperset(word):
            bad = [s for s in word if s not in _VALID_STEPS]
            raise ValueError(f"invalid steps {bad!r}: only {EAST!r} and {NORTH!r} are allowed")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.word == other.word if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.word,))

    def __repr__(self) -> str:
        return f"PathNE(word={self.word!r})"

    @classmethod
    def from_word(cls, word: str) -> "PathNE":
        """The path with this word."""
        return cls(word)

    @property
    def n(self) -> int:
        """Total number of steps."""
        return len(self.word)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        x = y = 0
        out = [(x, y)]
        for s in self.word:
            if s == EAST:
                x += 1
            else:
                y += 1
            out.append((x, y))
        return tuple(out)

    @cached_property
    def vertex_mask(self) -> int:
        """The vertices as one int: vertex (x, y) is bit x * (n + 1) + y. A
        path's y values span at most n, so the bits of distinct vertices
        differ, the origin is bit 0, and increasing bit order is (x, y)
        order, which along a monotone path is step order."""
        side, bit, mask = self.n + 1, 0, 1
        for s in self.word:
            bit += side if s == EAST else 1
            mask |= 1 << bit
        return mask

    def column_heights(self, x: int) -> tuple[int, ...]:
        """All y with (x, y) on the path, in increasing order."""
        return tuple(vy for vx, vy in self.vertices if vx == x)


#: The memos keep a family only if it has at most ``_MEMO_PATHS`` paths of
#: at most ``_MEMO_STEPS`` steps: C(12, 6) = 924 paths of 12 steps, the
#: largest family a route enumerates within its default bound.
_MEMO_STEPS = 12
_MEMO_PATHS = comb(_MEMO_STEPS, _MEMO_STEPS // 2)


def all_paths(n: int, r: int) -> list[PathNE]:
    """Every n-step path from the origin with r east steps, in the order of
    ``itertools.combinations`` over the E-step positions, as a fresh list.
    A family of at most ``_MEMO_STEPS`` steps is built once per process, by
    ``_family``; a longer one is built afresh on every call."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    return list(_family(n, r) if n <= _MEMO_STEPS else _family.__wrapped__(n, r))


@lru_cache(maxsize=128, typed=True)
def _family(n: int, r: int) -> tuple[PathNE, ...]:
    """The paths of ``all_paths(n, r)``, as a tuple. Every (n, r) with
    n <= 12, 91 in all, fits in the memo at once."""
    out = []
    for epos in combinations(range(n), r):
        steps = [NORTH] * n
        for t in epos:
            steps[t] = EAST
        out.append(PathNE("".join(steps)))
    return tuple(out)


MEMOS.setdefault("paths._family", _family.cache_clear)


def _window(convention, words) -> range:
    """Step indices ``convention`` counts on a family of step words, after
    checking on every word that any two of them form a valid pair for it:
    equal lengths, and for ``INTERIOR`` equal E counts, hence equal ends.
    An empty family counts none."""
    if convention not in (INTERIOR, EXCLUDING_ORIGIN):
        raise ValueError(f"unknown counting convention {convention!r}")
    if not words:
        return range(0)
    n = len(words[0])
    for word in words:
        if len(word) != n:
            raise ValueError(f"paths have different step counts: {n} vs {len(word)}")
    if convention == INTERIOR:
        ends = sorted((east, n - east) for east in {word.count(EAST) for word in words})
        if len(ends) > 1:
            raise ValueError(f"interior count needs equal endpoints, got {ends}")
        return range(1, n)
    return range(1, n + 1)


def meeting_points(a: PathNE, b: PathNE, convention) -> tuple[Point, ...]:
    """The vertices ``a`` and ``b`` share under ``convention``, in step
    order: the set bits of ``a.vertex_mask & b.vertex_mask`` inside the
    window, decoded in bit order. ``_window`` checks the two words as a
    family of two."""
    _window(convention, (a.word, b.word))
    common = a.vertex_mask & b.vertex_mask & ~1  # no window counts the origin, bit 0
    if convention == INTERIOR:  # ... and the interior one leaves out the common end, the top bit
        common &= ~(1 << a.vertex_mask.bit_length() - 1)
    side = a.n + 1
    out = []
    while common:
        low = common & -common
        out.append(divmod(low.bit_length() - 1, side))
        common ^= low
    return tuple(out)


#: Reads a column of steps as binary digits, E as 1.
_EAST_BITS = str.maketrans({EAST: "1", NORTH: "0"})

#: How many left paths the census tallies with one set of subset ANDs.
_BATCH = 16


def meeting_census(left, right, convention) -> dict[int, int]:
    """How many pairs (a, b) in ``left`` x ``right`` share k vertices under
    ``convention``, for every k that occurs: the tally of
    ``len(meeting_points(a, b, convention))`` over all pairs, as a fresh
    dict. Only the step words are read.

    Two families the memos keep (``_kept``) are tallied once per process,
    by ``_census``, keyed by their words and the convention; any others are
    tallied afresh, and so is an unknown convention, which ``_tally``
    names in its error even when it cannot be hashed. Either way the count
    is ``_tally``'s. A family that fails ``_window`` raises on every call,
    so it is never kept."""
    lefts = tuple([a.word for a in left])
    rights = tuple([b.word for b in right])
    if convention in (INTERIOR, EXCLUDING_ORIGIN) and _kept(lefts) and _kept(rights):
        return dict(_census(lefts, rights, convention))
    return _tally(lefts, rights, convention)


def _kept(words) -> bool:
    """Whether the memos keep a family of these step words: at most
    ``_MEMO_PATHS`` of them, and the first at most ``_MEMO_STEPS`` steps
    long. A family is kept only once ``_window`` has found all its words
    equally long."""
    return len(words) <= _MEMO_PATHS and (not words or len(words[0]) <= _MEMO_STEPS)


@lru_cache(maxsize=256)
def _census(lefts: tuple[str, ...], rights: tuple[str, ...], convention) -> dict[int, int]:
    """``_tally`` of two kept families, memoized; its callers copy the
    dict."""
    return _tally(lefts, rights, convention)


MEMOS.setdefault("paths._census", _census.cache_clear)


def _tally(lefts, rights, convention) -> dict[int, int]:
    """The census of the step words ``lefts`` x ``rights``.

    Bit-sliced: bit j of every int below is the lane of the pair (a,
    ``right[j]``). The window is steps 1..``counted``, and two paths share
    the vertex after step t exactly when both are at the same x there.
    ``masks[t][x]``, the right paths at x after t steps, is built one step
    at a time from the t-th column of the right words, read as one int with
    E as 1: the paths at x after t steps are those at x after t - 1 steps
    that step N and those at x - 1 that step E. A left path walks its own x
    and adds ``masks[t][x]`` at each counted step into a binary counter kept
    as bit planes (``planes[i]`` holds bit i of every lane's count), so lane
    j ends holding the exact count of the pair. Consecutive left paths share
    step prefixes (long ones in ``all_paths`` order), so ``(planes, x)`` is
    kept on a stack by prefix length and each path steps only past the
    prefix it shares with the path before it; any order is counted alike.

    The planes of up to ``_BATCH`` consecutive left paths are concatenated,
    each path's lanes above the last's, and for each subset S of the planes
    ``above[S]`` adds the ``bit_count`` of the AND of those planes: the lanes
    whose count has every bit of S set. A popcount adds over concatenation,
    so one AND and one ``bit_count`` serve the whole batch. A count is at
    most ``counted``, and a count with every bit of S set is at least S, so
    no subset S > ``counted`` is built. The histogram comes out of ``above``
    once, at the end, by inclusion-exclusion over supersets. Every pair is
    counted, but in big-int operations over all of ``right`` at once, not
    one interpreter step per pair."""
    counted = len(_window(convention, [*lefts, *rights]))
    if not rights:
        return {}
    lanes = len(rights)
    masks = [[(1 << lanes) - 1]]  # masks[t][x]: the right paths at x after t steps
    for column in zip(*rights):
        east = int("".join(column).translate(_EAST_BITS)[::-1], 2)
        row = masks[-1]
        masks.append([stay & ~east | came & east for stay, came in zip(row + [0], [0] + row)])
    depth = counted.bit_length()
    above = [0] * (counted + 1)
    stack = [([0] * depth, 0)]  # stack[t]: (planes, x) after the first t steps of the last path
    last = ""
    batch, size = [0] * depth, 0
    for done, word in enumerate(lefts, 1):
        word = word[:counted]
        # the first step at which word leaves the last path's
        shared = next(compress(count(), map(ne, word, last)), len(last))
        del stack[shared + 1 :]
        planes, x = stack[-1]
        for step in word[shared:]:
            if step == EAST:
                x += 1
            carry = masks[len(stack)][x]
            planes = planes.copy()
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i] = plane ^ carry
                carry &= plane
            stack.append((planes, x))
        last = word
        batch = [high << lanes | plane for high, plane in zip(batch, planes)]
        size += 1
        if size == _BATCH or done == len(lefts):
            # groups[S]: the AND of the planes in S, bit i for planes[i]
            groups = [(1 << lanes * size) - 1]
            for i, plane in enumerate(batch):
                groups += [group & plane for group in groups[: counted + 1 - (1 << i)]]
            above = list(map(add, above, map(int.bit_count, groups)))
            batch, size = [0] * depth, 0
    for i in range(depth):  # keep in above[S] only the lanes whose count is S
        for subset in range(counted + 1 - (1 << i)):
            if not subset >> i & 1:
                above[subset] -= above[subset | 1 << i]
    return {k: pairs for k, pairs in enumerate(above) if pairs}
