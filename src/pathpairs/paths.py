"""Monotone lattice paths and the vertex-sharing counts everything else rests on.

A path is a word of unit steps E (east, +x) and N (north, +y) starting at a
lattice vertex. After t steps the coordinate sum is start.x + start.y + t, so
two equal-length paths with the same start can only share a vertex at the
same step index; every count below is therefore the size of the
intersection of the two vertex sets over a window of step indices.

Three counting conventions coexist on purpose, one operation each, so no
caller can silently use the wrong one:

* ``intersections_interior``         -- shared vertices excluding both the
  common start and the common end (endpoints must coincide);
* ``intersections_excluding_origin`` -- shared vertices excluding the common
  origin; a shared final vertex counts (both paths must start at (0, 0));
* ``intersections_excluding_start``  -- shared vertices excluding the common
  start; a shared final vertex counts.

This module is the only place that knows a convention's window. The
enumeration oracle and the 2-to-1 correspondence pass the convention
operation itself to ``meeting_census`` (a tally over a whole family of
pairs), ``shared_vertices`` (the meeting points of one ``PathPair``) or
``meeting_points`` (the same for two paths, without building the pair).
``meeting_census`` resolves the window and checks the precondition once per
call, not once per pair, and is bit-sliced: each pair is counted exactly, in
its own bit lane of big-int bit planes, so one integer operation advances
the counts of a left path against every right path at once. A left path
reuses the planes of the vertex prefix it shares with the path before it,
from a stack kept by prefix length, and the histogram is recovered once per
call, by inclusion-exclusion, from running popcounts of the AND of each
subset of planes. The per-pair forms read each path's ``vertex_mask``, one
int with a bit per vertex keyed from the path's start, so a pair's shared
vertices are the set bits of the AND of its two masks, inside the window.
``all_paths`` is the one enumerator, in the fixed order of the E-step
positions as combinations.

All values are immutable and all operations are pure functions.
``InvariantError`` is what a route raises when one of its own
postconditions fails, and ``as_probability`` is the one check the routes
apply to a probability argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, count
from operator import add, ne

Point = tuple[int, int]

EAST = "E"
NORTH = "N"

_VALID_STEPS = frozenset((EAST, NORTH))

class InvariantError(RuntimeError):
    """A route broke one of its own postconditions: the program is wrong,
    not its input. Defined here so every route can raise it without
    importing another route."""


def as_probability(p) -> Fraction:
    """``p`` as an exact Fraction, checked to lie in [0, 1]. Shared here so
    every route rejects a bad probability with the same message."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class PathNE:
    """A monotone lattice path stored as its step word.

    The step word is canonical; the vertex list is derived on demand and
    cached. ``start`` defaults to the origin.
    """

    steps: tuple[str, ...]
    start: Point = (0, 0)

    def __post_init__(self) -> None:
        bad = [s for s in self.steps if s not in _VALID_STEPS]
        if bad:
            raise ValueError(f"invalid steps {bad!r}: only {EAST!r} and {NORTH!r} are allowed")

    @classmethod
    def from_word(cls, word: str, start: Point = (0, 0)) -> "PathNE":
        """The path with this word and start."""
        return cls(tuple(word), start)

    @cached_property
    def word(self) -> str:
        return "".join(self.steps)

    @property
    def n(self) -> int:
        """Total number of steps."""
        return len(self.steps)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        x, y = self.start
        out = [(x, y)]
        for s in self.steps:
            if s == EAST:
                x += 1
            else:
                y += 1
            out.append((x, y))
        return tuple(out)

    @cached_property
    def end(self) -> Point:
        x, y = self.start
        east = self.steps.count(EAST)
        return (x + east, y + len(self.steps) - east)

    @cached_property
    def vertex_mask(self) -> int:
        """The vertices as one int: vertex (x, y) of a path from (x0, y0) is
        bit (x - x0) * (n + 1) + (y - y0). A path's y values span at most n,
        so the bits of distinct vertices differ, the start is bit 0, and
        increasing bit order is (x, y) order, which along a monotone path is
        step order."""
        side, bit, mask = self.n + 1, 0, 1
        for s in self.steps:
            bit += side if s == EAST else 1
            mask |= 1 << bit
        return mask

    def column_heights(self, x: int) -> tuple[int, ...]:
        """All y with (x, y) on the path, in increasing order."""
        return tuple(vy for vx, vy in self.vertices if vx == x)


def all_paths(n: int, r: int) -> list[PathNE]:
    """Every n-step path from the origin with r east steps, in the order of
    ``itertools.combinations`` over the E-step positions."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    out = []
    for epos in combinations(range(n), r):
        steps = [NORTH] * n
        for t in epos:
            steps[t] = EAST
        out.append(PathNE(tuple(steps)))
    return out


@dataclass(frozen=True)
class PathPair:
    """Two same-start, same-length paths."""

    first: PathNE
    second: PathNE

    def __post_init__(self) -> None:
        if self.first.n != self.second.n:
            raise ValueError(
                f"paths have different step counts: {self.first.n} vs {self.second.n}"
            )
        if self.first.start != self.second.start:
            raise ValueError(
                f"paths have different starts: {self.first.start} vs {self.second.start}"
            )


def intersections_interior(pair: PathPair) -> int:
    """Shared vertices of a same-endpoints pair, excluding start and end."""
    return len(shared_vertices(pair, intersections_interior))


def intersections_excluding_origin(pair: PathPair) -> int:
    """Shared vertices of an origin-anchored pair, excluding the origin only.

    Endpoints may differ; a shared final vertex is counted.
    """
    return len(shared_vertices(pair, intersections_excluding_origin))


def intersections_excluding_start(pair: PathPair) -> int:
    """Shared vertices excluding the common start; a shared end is counted."""
    return len(shared_vertices(pair, intersections_excluding_start))


_CONVENTIONS = (
    intersections_interior,
    intersections_excluding_origin,
    intersections_excluding_start,
)


def _window(convention, paths) -> slice:
    """Step indices ``convention`` counts on a family of paths, after
    checking on every path that any two of them form a valid pair for it.
    An empty family counts none."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown counting convention {convention!r}")
    if not paths:
        return slice(0)
    first = paths[0]
    n, start = len(first.steps), first.start
    for p in paths:
        if len(p.steps) != n or p.start != start:
            PathPair(first, p)  # raises the pair's message
    if convention is intersections_interior:
        ends = {p.end for p in paths}
        if len(ends) > 1:
            raise ValueError(f"interior count needs equal endpoints, got {sorted(ends)}")
        return slice(1, first.n)
    if convention is intersections_excluding_origin and first.start != (0, 0):
        raise ValueError(f"both paths must start at the origin, got {first.start}")
    return slice(1, first.n + 1)


def shared_vertices(pair: PathPair, convention) -> tuple[Point, ...]:
    """The vertices ``pair`` shares under ``convention``, in step order."""
    return meeting_points(pair.first, pair.second, convention)


def meeting_points(a: PathNE, b: PathNE, convention) -> tuple[Point, ...]:
    """``shared_vertices(PathPair(a, b), convention)`` without building the
    pair: the set bits of ``a.vertex_mask & b.vertex_mask`` inside the
    window, decoded in bit order. ``_window`` checks the two paths as a
    family of two and raises the pair's message."""
    interior = _window(convention, (a, b)).stop == len(a.steps)
    common = a.vertex_mask & b.vertex_mask & ~1  # no window counts the start, bit 0
    if interior:  # ... and the interior one leaves out the common end, the top bit
        common &= ~(1 << a.vertex_mask.bit_length() - 1)
    side = len(a.steps) + 1
    x0, y0 = a.start
    out = []
    while common:
        low = common & -common
        x, y = divmod(low.bit_length() - 1, side)
        out.append((x0 + x, y0 + y))
        common ^= low
    return tuple(out)


def meeting_census(left, right, convention) -> dict[int, int]:
    """How many pairs (a, b) in ``left`` x ``right`` share k vertices under
    ``convention``, for every k that occurs: the tally of
    ``convention(PathPair(a, b))`` over all pairs.

    Bit-sliced: bit j of every int below is the lane of the pair (a,
    ``right[j]``). Each vertex inside the window gets the mask of the right
    paths through it. For one left path ``a``, the masks of a's vertices are
    added into a binary counter kept as bit planes (``planes[i]`` holds bit i
    of every lane's count), so lane j ends holding the exact count of the
    pair. Consecutive left paths share vertex prefixes (long ones in
    ``all_paths`` order), so the counter states are kept on a stack by
    prefix length and each path adds only the vertices after the prefix it
    shares with the path before it; any order is counted alike. For each
    subset S of the planes, ``above[S]`` sums over the left paths the lanes
    whose count has every bit of S set, the ``bit_count`` of the AND of those
    planes. The histogram comes out of ``above`` once, at the end, by
    inclusion-exclusion over supersets. Every pair is counted, but in big-int
    operations over all of ``right`` at once, not one interpreter step per
    pair."""
    window = _window(convention, [*left, *right])
    if not right:
        return {}
    masks: dict[Point, int] = {}
    for j, b in enumerate(right):
        for v in b.vertices[window]:
            masks[v] = masks.get(v, 0) | 1 << j
    full = (1 << len(right)) - 1
    depth = len(range(right[0].n + 1)[window]).bit_length()
    above = [0] * (1 << depth)
    stack = [[0] * depth]  # stack[i]: the planes after the first i vertices of the last path
    last: tuple[Point, ...] = ()
    for a in left:
        vertices = a.vertices[window]
        # the first index at which a's vertices leave the last path's
        shared = next(compress(count(), map(ne, vertices, last)), len(last))
        del stack[shared + 1 :]
        planes = stack[-1]
        for v in vertices[shared:]:
            planes = planes.copy()
            carry = masks.get(v, 0)
            for i, plane in enumerate(planes):
                if not carry:
                    break
                planes[i] = plane ^ carry
                carry &= plane
            stack.append(planes)
        last = vertices
        lanes = [full]  # lanes[S]: the AND of the planes in S, bit i for planes[i]
        for plane in planes:
            lanes += [group & plane for group in lanes]
        above = list(map(add, above, map(int.bit_count, lanes)))
    for i in range(depth):  # keep in above[S] only the lanes whose count is S
        for subset in range(1 << depth):
            if not subset >> i & 1:
                above[subset] -= above[subset | 1 << i]
    return {k: pairs for k, pairs in enumerate(above) if pairs}
