"""Executable 2-to-1 correspondence between nonmeeting and one-meeting pairs.

Pairs here live on an r x s rectangle: both paths run from (0, 0) to (r, s).
Monotone lattice paths cannot cross without sharing a vertex, so a pair that
shares only its corners is strictly ordered columnwise and its north member
is well defined; it is also the lexicographically greater step word under
N > E, which is how pairs are canonicalized.

``insert_meeting`` maps every nonmeeting pair to two distinct one-meeting
pairs and ``remove_meeting`` maps either image back, tagging it by where the
meeting sits:

* group I   -- meeting at (1, 0), or its partner at (r-1, s): both paths
               share a doubled E edge that can be peeled off;
* group II  -- meeting at (0, 1), or its partner at (r, s-1): a doubled
               N edge;
* group III -- interior meeting; the two partners differ by swapping the
               path tails after the meeting, and the flag records whether
               the pre-meeting north path stays north throughout.

The forward map finds the first gap-1 column, the first interior column
where the two paths stand one unit apart, in one pass over both paths'
cached vertices: the first step at which the north path's next vertex sits
just above the south path's.

Meeting points come from ``paths``: a ``RectPair`` finds its own once,
when it is built, as ``paths.meeting_points`` under
``intersections_interior``, which ANDs the two paths' vertex masks.
``RectPair.from_words`` shares the pairs it built last, so the inverse of
an image finds its source without building it again.

``verify_correspondence`` scans no pairs of paths. It walks the nonmeeting
sources directly, in the order of ``paths.all_paths``, and shows that the
images exhaust the one-meeting set by counting them: they are pairwise
distinct, each is a pair on the rectangle with exactly one interior
meeting, and there are as many as ``paths.meeting_census`` counts
one-meeting pairs. Outside that bit-sliced census the work grows with the
pairs replayed, not with the square of the number of paths.

Every constructed path is revalidated (endpoints, exact meeting count and
location), and a violated postcondition raises ``paths.InvariantError`` with
the construction case in the message; the word surgery below has enough
edits that silent slips must fail loudly. ``verify_correspondence`` replays
the whole correspondence on a rectangle and reports, rather than raises, any
defect it finds.

On the 1 x 1 rectangle the boundary meeting points coincide: (1, 0) is also
(r, s-1) and (0, 1) is also (r-1, s). Both one-meeting pairs there arise as
group II images, which is how classification resolves that corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import le

from . import paths
from .paths import EAST, NORTH, InvariantError, PathNE, Point

# Bound on the pairs ``RectPair.from_words`` shares. The replay builds a
# source, its images and their inverses in turn, and each inverse is that
# source again, so a short memory serves it.
_SHARED_PAIRS = 64

NONMEETING = "nonmeeting"
ONE_MEETING = "one-meeting"


@dataclass(frozen=True, slots=True)
class RectPair:
    """An unordered pair of corner-to-corner paths sharing 0 or 1 interior
    vertices; ``upper`` is the canonical (north-first) member. Its meeting
    points are found once, when it is built."""

    upper: PathNE
    lower: PathNE
    _meeting_points: tuple[Point, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        upper, lower = self.upper, self.lower
        if upper.start != (0, 0) or lower.start != (0, 0):
            raise ValueError("rectangle pairs start at the origin")
        if upper.word < lower.word:
            raise ValueError("upper must be the canonical (north-first) member; use RectPair.from_words")
        points = paths.meeting_points(upper, lower, paths.intersections_interior)
        if len(points) > 1:
            raise ValueError(f"pair shares {len(points)} interior vertices; only 0 or 1 allowed")
        object.__setattr__(self, "_meeting_points", points)

    @classmethod
    def from_words(cls, a: str, b: str) -> "RectPair":
        """The pair of these two words, given in either order; a pair built
        lately is shared, not built again."""
        return _shared_pair(cls, a, b) if a >= b else _shared_pair(cls, b, a)

    @property
    def kind(self) -> str:
        return NONMEETING if not self._meeting_points else ONE_MEETING

    @property
    def meeting_point(self) -> Point | None:
        return self._meeting_points[0] if self._meeting_points else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.upper.end

    def words(self) -> tuple[str, str]:
        return (self.upper.word, self.lower.word)


@lru_cache(maxsize=_SHARED_PAIRS)
def _shared_pair(cls, upper: str, lower: str) -> RectPair:
    # an invalid pair raises on every call: lru_cache keeps no exceptions
    return cls(PathNE.from_word(upper), PathNE.from_word(lower))


@dataclass(frozen=True)
class GroupTag:
    """Which group a one-meeting pair belongs to; ``north_throughout`` is
    only meaningful for interior meetings (group III)."""

    group: str
    north_throughout: bool | None = None

    def __post_init__(self) -> None:
        if self.group not in ("I", "II", "III"):
            raise ValueError(f"unknown group {self.group!r}")
        if (self.group == "III") != (self.north_throughout is not None):
            raise ValueError("north_throughout is set exactly for group III")


# remove_meeting hands out these shared tags rather than building new ones
_TAG_I, _TAG_II = GroupTag("I"), GroupTag("II")
_TAG_III = {aligned: GroupTag("III", north_throughout=aligned) for aligned in (True, False)}


def _drop_first_north(word: str) -> str:
    i = word.index(NORTH)
    return word[:i] + word[i + 1 :]


def _validated_image(wa: str, wb: str, point: Point, case: str) -> RectPair:
    try:
        pair = RectPair.from_words(wa, wb)
    except ValueError as exc:
        raise InvariantError(f"construction case {case} produced an invalid pair: {exc}") from exc
    if pair.meeting_point != point:
        raise InvariantError(
            f"construction case {case}: expected a single meeting at {point}, "
            f"got {pair._meeting_points} for {pair.words()}"
        )
    return pair


def insert_meeting(pair: RectPair) -> tuple[RectPair, RectPair]:
    """Map a nonmeeting pair to its two one-meeting images.

    The first gap-1 column x0 is read in one scan of the two vertex tuples:
    the first step t0 at which the south path is at (x0, y0), 0 < x0 < r,
    and the north path's next vertex is (x0, y0 + 1). The north path is
    strictly north in every interior column, so y0 is the south path's top
    there.

    Case A (every interior column gap is at least 2, vacuous for r = 1):
    slide the north path down one unit through its first N edge and re-top
    it, giving a meeting at (r, s-1); independently slide the south path up
    through its last N edge and re-root it with an N edge from the origin,
    giving a meeting at (0, 1).

    Case B (some interior column has gap 1, first at x0, with south-path top
    y0 and (x0, y0) != (1, 0)): lower the north prefix up to (x0, y0+1) by
    one unit and reuse its first N edge to rejoin at x0; that meets at
    (x0, y0) only. The partner image swaps the two tails after the meeting.

    Case C ((x0, y0) = (1, 0)): the first image is built as in case B and
    meets at (1, 0) through a doubled E edge from the origin; the partner
    moves that doubled edge to the northeast corner and shifts the pair one
    unit west, meeting at (r-1, s).
    """
    _, first, second = _insert(pair)
    return first, second


def _insert(pair: RectPair) -> tuple[str, RectPair, RectPair]:
    """``insert_meeting`` with the construction case ("A", "B" or "C") it
    took, ahead of the two images."""
    if pair._meeting_points:
        raise ValueError("insert_meeting needs a nonmeeting pair")
    upper, lower = pair.upper, pair.lower
    r, s = upper.end
    if r == 0 or s == 0:
        raise ValueError("degenerate rectangle: need r >= 1 and s >= 1")
    up, lo = upper.word, lower.word

    north, south = upper.vertices, lower.vertices
    for t0 in range(1, r + s - 1):
        x0, y0 = south[t0]
        if 0 < x0 < r and north[t0 + 1] == (x0, y0 + 1):
            break
    else:
        first = _validated_image(up[1:] + NORTH, lo, (r, s - 1), "A1")
        second = _validated_image(up, NORTH + lo[:-1], (0, 1), "A2")
        return "A", first, second

    prefix, suffix = up[: t0 + 1], up[t0 + 1 :]  # prefix reaches (x0, y0 + 1)
    moved = _drop_first_north(prefix) + NORTH + suffix

    if (x0, y0) != (1, 0):
        first = _validated_image(moved, lo, (x0, y0), "B1")
        swapped_a = moved[:t0] + lo[t0:]
        swapped_b = lo[:t0] + moved[t0:]
        second = _validated_image(swapped_a, swapped_b, (x0, y0), "B2")
        return "B", first, second

    first = _validated_image(moved, lo, (1, 0), "C1")
    second = _validated_image(moved[1:] + EAST, lo[1:] + EAST, (r - 1, s), "C2")
    return "C", first, second


def _classify(r: int, s: int, point: Point) -> tuple[str, str]:
    """(group, role) for a one-meeting pair on the r x s rectangle meeting at
    ``point``; role is 'primary' at the meeting point named by the group and
    'partner' at the mirrored corner point."""
    if (r, s) == (1, 1):
        # both boundary labels coincide here; these pairs arise as group II
        return ("II", "partner") if point == (1, 0) else ("II", "primary")
    if point == (1, 0):
        return ("I", "primary")
    if point == (0, 1):
        return ("II", "primary")
    if point == (r - 1, s):
        return ("I", "partner")
    if point == (r, s - 1):
        return ("II", "partner")
    return ("III", "")


def _north_throughout(a: PathNE, b: PathNE) -> bool:
    # vertices at one step share x + y, so (x, y) order puts the north one first
    return all(map(le, a.vertices, b.vertices))


def remove_meeting(pair: RectPair) -> tuple[RectPair, GroupTag]:
    """Map a one-meeting pair back to its nonmeeting source, with its tag.

    Each branch undoes the matching ``insert_meeting`` edit: group I peels
    the doubled E edge (after shifting the partner image back east), group II
    re-lifts the doubled N edge, and group III removes the inserted N edge
    from the aligned member after un-swapping a crossed one.
    """
    if len(pair._meeting_points) != 1:
        raise ValueError("remove_meeting needs a pair with exactly one meeting")
    (point,) = pair._meeting_points
    r, s = pair.upper.end
    group, role = _classify(r, s, point)
    up, lo = pair.upper.word, pair.lower.word

    if group == "I":
        if role == "partner":
            # move the doubled E edge at the far corner back to the origin
            shifted = RectPair.from_words(EAST + up[:-1], EAST + lo[:-1])
            if shifted.meeting_point != (1, 0):
                raise InvariantError(f"group I partner did not shift back to (1, 0): {pair.words()}")
            up, lo = shifted.words()
        # exactly one member turns north right after (1, 0)
        modified, other = (up, lo) if up[1] == NORTH else (lo, up)
        if modified[:2] != EAST + NORTH:
            raise InvariantError(f"group I pair lacks the E,N corner at (1, 0): {pair.words()}")
        source = RectPair.from_words(NORTH + EAST + modified[2:], other)
        tag = _TAG_I
    elif group == "II":
        if role == "partner":
            # meeting at (r, s-1): the modified member arrives there by an E step
            n = r + s
            modified, other = (up, lo) if up[n - 2] == EAST else (lo, up)
            if modified[-1] != NORTH:
                raise InvariantError(f"group II partner does not end with N: {pair.words()}")
            source = RectPair.from_words(NORTH + modified[:-1], other)
        else:
            # meeting at (0, 1): the modified member turns east right after it
            modified, other = (up, lo) if up[1] == EAST else (lo, up)
            if modified[0] != NORTH:
                raise InvariantError(f"group II pair lacks the leading N edge: {pair.words()}")
            source = RectPair.from_words(modified[1:] + NORTH, other)
        tag = _TAG_II
    else:
        x0, y0 = point
        t0 = x0 + y0
        aligned = _north_throughout(pair.upper, pair.lower)
        if aligned:
            north, south = up, lo
        else:
            # un-swap the tails; the result must be aligned
            cand_a, cand_b = up[:t0] + lo[t0:], lo[:t0] + up[t0:]
            path_a, path_b = PathNE.from_word(cand_a), PathNE.from_word(cand_b)
            if _north_throughout(path_a, path_b):
                north, south = cand_a, cand_b
            elif _north_throughout(path_b, path_a):
                north, south = cand_b, cand_a
            else:
                raise InvariantError(f"group III pair fails to align after unswap: {pair.words()}")
        if north[t0] != NORTH:
            raise InvariantError(
                f"group III aligned member lacks the inserted N edge at {point}"
            )
        source = RectPair.from_words(NORTH + north[:t0] + north[t0 + 1 :], south)
        tag = _TAG_III[aligned]

    if source._meeting_points:
        raise InvariantError(
            f"inverse of group {group} left meetings {source._meeting_points}: {pair.words()}"
        )
    return source, tag


# --- exhaustive verification --------------------------------------------------


@dataclass(frozen=True, slots=True)
class CorrespondenceRow:
    source: RectPair
    images: tuple[RectPair, RectPair]
    case: str
    tags: tuple[GroupTag, GroupTag]


@dataclass(frozen=True)
class CorrespondenceReport:
    r: int
    s: int
    nonmeeting_count: int
    one_meeting_count: int
    passed: bool
    failures: tuple[str, ...]
    rows: tuple[CorrespondenceRow, ...]


_EXPECTED_GROUP = {"A": "II", "B": "III", "C": "I"}


def _nonmeeting_words(r: int, s: int):
    """Yield the ``(upper, lower)`` words of every nonmeeting pair on the
    r x s rectangle, by lower word and then upper word, both ascending: the
    order of ``paths.all_paths``.

    The upper path is strictly north at every interior step, so the lower
    one leaves the origin by E and enters (r, s) by N; its other E steps
    are placed in combination order. Against each lower path the upper one
    is walked step by step, E before N, keeping its x at step t inside
    max(0, t - s) <= x <= x_lower(t) - 1. Both bounds grow by at most one
    per step, so no branch dead-ends and the walk costs in proportion to the
    pairs it yields, with no scan over pairs of paths."""
    n = r + s
    for epos in combinations(range(1, n - 1), r - 1):
        steps = [NORTH] * n
        steps[0] = EAST
        for t in epos:
            steps[t] = EAST
        lower = "".join(steps)
        top = [-1]  # top[t]: the largest x the upper path may have at step t
        for step in steps:
            top.append(top[-1] + (step == EAST))
        stack = [(1, 0, NORTH)]
        while stack:
            t, x, word = stack.pop()
            if t == n - 1:  # x == r - 1 here: the band closes on (r - 1, s)
                yield word + EAST, lower
                continue
            if x >= t + 1 - s:  # pushed first, so E is walked first
                stack.append((t + 1, x, word + NORTH))
            if x < top[t + 1]:
                stack.append((t + 1, x + 1, word + EAST))


def _one_meeting_count(r: int, s: int) -> int:
    """The unordered one-meeting pairs on the r x s rectangle, from the
    census of ordered pairs. That census counts each pair a != b twice and
    each a == b once; a path meets itself at all r + s - 1 interior
    vertices, which is one vertex only on the 1 x 1 rectangle."""
    family = paths.all_paths(r + s, r)
    ordered = paths.meeting_census(family, family, paths.intersections_interior).get(1, 0)
    diagonal = len(family) if r + s == 2 else 0
    return (ordered + diagonal) // 2


def _one_meeting_words(r: int, s: int) -> set[tuple[str, str]]:
    """The canonical ``(upper, lower)`` words of every one-meeting pair on
    the r x s rectangle, by a check of every pair. Only a failing replay
    needs them, to name the pairs it missed or overshot."""
    family = paths.all_paths(r + s, r)  # ascending words: b is the upper one
    return {
        (b.word, a.word)
        for i, a in enumerate(family)
        for b in family[i:]
        if len(paths.meeting_points(a, b, paths.intersections_interior)) == 1
    }


def verify_correspondence(r: int, s: int) -> CorrespondenceReport:
    """Replay the correspondence on every nonmeeting pair of the r x s
    rectangle.

    The sources come from ``_nonmeeting_words``, in the order of
    ``paths.all_paths``. Checks, in order: the forward map is total; the
    inverse returns every image to its source with the group tag the
    construction case dictates; the 2 * nonmeeting images are pairwise
    distinct and exhaust the one-meeting set; and the counts stand in ratio
    2 : 1. Exhaustion needs no list of that set: each image is checked to be
    an r x s pair with exactly one interior meeting, and the number of
    distinct images is compared with the one-meeting count that
    ``paths.meeting_census`` tallies. Only when that fails is the set listed,
    to name the pairs outside it or never hit. Defects are reported, not
    raised.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    failures: list[str] = []
    rows: list[CorrespondenceRow] = []
    images: list[tuple[str, str]] = []
    sources = 0
    inside = True  # every image so far is an r x s pair with one interior meeting
    for words in _nonmeeting_words(r, s):
        sources += 1
        try:
            source = RectPair.from_words(*words)
            case, first, second = _insert(source)
        except (ValueError, RuntimeError) as exc:
            failures.append(f"forward map failed on {words}: {exc}")
            continue
        tags = []
        for image in (first, second):
            images.append(image.words())
            inside = inside and len(image._meeting_points) == 1 and image.upper.end == (r, s)
            try:
                back, tag = remove_meeting(image)
            except (ValueError, RuntimeError) as exc:
                failures.append(f"inverse failed on image {image.words()}: {exc}")
                tags.append(_TAG_III[False])
                continue
            tags.append(tag)
            if back != source:
                failures.append(
                    f"round trip broke: {source.words()} -> {image.words()} -> {back.words()}"
                )
            if tag.group != _EXPECTED_GROUP[case]:
                failures.append(
                    f"image {image.words()} of case {case} tagged group {tag.group}"
                )
        if len(tags) == 2:
            rows.append(CorrespondenceRow(source, (first, second), case, tuple(tags)))

    hit = set(images)
    if len(hit) != len(images):
        failures.append("images are not pairwise distinct")
    one_meeting_count = _one_meeting_count(r, s)
    if not inside or len(hit) != one_meeting_count:
        one_meeting = _one_meeting_words(r, s)
        extra = hit - one_meeting
        missing = one_meeting - hit
        if extra:
            failures.append(f"images outside the one-meeting set: {sorted(extra)}")
        if missing:
            failures.append(f"one-meeting pairs never hit: {sorted(missing)}")
    if one_meeting_count != 2 * sources:
        failures.append(
            f"counts {one_meeting_count} != 2 * {sources}"
        )

    return CorrespondenceReport(
        r=r,
        s=s,
        nonmeeting_count=sources,
        one_meeting_count=one_meeting_count,
        passed=not failures,
        failures=tuple(failures),
        rows=tuple(rows),
    )
