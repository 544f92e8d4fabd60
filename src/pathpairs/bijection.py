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
where the two paths stand one unit apart, from the two paths' vertex
masks (``PathNE.vertex_mask``): it is the lowest south-path vertex
(x0, y0), 0 < x0 < r, whose neighbour above, (x0, y0 + 1), is on the north
path, and one shift and two ANDs find it.

Pairs are step words throughout. ``insert_meeting`` and ``remove_meeting``
take two words in either order and return canonical ``(upper, lower)``
words; ``_insert_words`` and ``_remove_words`` hold the one copy of each
word surgery. Tags are labels: "I", "II", and for group III "III:aligned"
when the pre-meeting north path stays north throughout, "III:crossed"
when it does not.

Every pair is read through one mask mapping per rectangle, ``_RectMasks``:
a word across the r x s rectangle maps to its path's
``PathNE.vertex_mask`` and any other word to 0. The AND of a pair's two
masks inside ``_interior(r, s)`` holds exactly its interior meetings, so
one test checks an image: both words are on the rectangle and that AND is
the one bit of the meeting point its construction case names. The public
functions reject a pair that is not two paths across one rectangle with
r, s >= 1, or that meets the wrong number of times, with ``ValueError``;
an image or source of their own that fails the test raises
``paths.InvariantError``, since the word surgery has enough edits that
silent slips must fail loudly.

``verify_correspondence`` scans no pairs of paths. It walks the nonmeeting
sources directly, in the order of ``paths.all_paths``, and reports, rather
than raises, any defect it finds:

* an image passes the mask test above, run inline;
* a round trip passes when the inverse returns the source's words; the
  source walk yields only meeting-free pairs, so a matching inverse needs
  no second check.

The images exhaust the one-meeting set by count: they are pairwise
distinct, each is a pair on the rectangle with exactly one interior
meeting, and there are as many as ``paths.meeting_census`` counts over the
same family. Outside that bit-sliced census the work grows with the pairs
replayed, not with the square of the number of paths.

On the 1 x 1 rectangle the boundary meeting points coincide: (1, 0) is also
(r, s-1) and (0, 1) is also (r-1, s). Both one-meeting pairs there arise as
group II images, which is how classification resolves that corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from . import paths
from .paths import EAST, NORTH, InvariantError, PathNE, Point


class _RectMasks(dict):
    """``masks[word]`` is the ``PathNE.vertex_mask`` of the word's path when
    the word crosses the r x s rectangle, and 0 for any other word, so a
    pair with a word off the rectangle meets nowhere. A mask is computed
    when first read and kept."""

    def __init__(self, r: int, s: int) -> None:
        super().__init__()
        self.r, self.s = r, s

    def __missing__(self, word) -> int:
        if not (
            isinstance(word, str)
            and word.count(EAST) == self.r
            and word.count(NORTH) == self.s
            and len(word) == self.r + self.s
        ):
            return 0
        mask = self[word] = PathNE(word).vertex_mask
        return mask


def _canonical(a: str, b: str) -> tuple[str, str]:
    """Two words in canonical (upper, lower) order."""
    return (a, b) if a >= b else (b, a)


def _rect_pair(a: str, b: str) -> tuple[str, str, _RectMasks, int]:
    """The canonical words of two paths across one r x s rectangle,
    r, s >= 1, that rectangle's masks and ``_interior(r, s)``; a
    ``ValueError`` for any other input."""
    r, s = (a.count(EAST), a.count(NORTH)) if isinstance(a, str) else (0, 0)
    masks = _RectMasks(r, s)
    if not (masks[a] and masks[b]):
        raise ValueError(f"{a!r} and {b!r} are not two paths across one rectangle")
    if r == 0 or s == 0:
        raise ValueError("degenerate rectangle: need r >= 1 and s >= 1")
    return *_canonical(a, b), masks, _interior(r, s)


def _drop_first_north(word: str) -> str:
    i = word.index(NORTH)
    return word[:i] + word[i + 1 :]


def insert_meeting(a: str, b: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """Map the nonmeeting pair of words ``a`` and ``b``, in either order, to
    the canonical words of its two one-meeting images.

    The first gap-1 column x0 is read from the two vertex masks: (x0, y0)
    is the first south-path vertex with 0 < x0 < r whose neighbour
    (x0, y0 + 1) is on the north path. The north path is strictly north in
    every interior column, so y0 is the south path's top there.

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
    up, lo, masks, interior = _rect_pair(a, b)
    if masks[up] & masks[lo] & interior:
        raise ValueError("insert_meeting needs a nonmeeting pair")
    case, *images = _insert_words(up, lo, masks)
    side = len(up) + 1
    for wa, wb, (x, y), label in images:
        if masks[wa] & masks[wb] & interior != 1 << x * side + y:
            raise InvariantError(
                f"construction case {case}: image {label} of {(up, lo)} does not meet at {(x, y)} only"
            )
    return tuple(_canonical(wa, wb) for wa, wb, _, _ in images)


def _insert_words(up: str, lo: str, masks):
    """The construction case ("A", "B" or "C") of the nonmeeting pair with
    canonical words ``up`` and ``lo`` on an r x s rectangle, r, s >= 1, and
    its two images, in the order ``insert_meeting`` returns them.

    ``masks[word]`` is the ``PathNE.vertex_mask`` of the word's path. Each
    image is ``(wa, wb, point, label)``: its two words, in either order,
    the point where the construction says they meet, and the label of the
    case and image, "A1" to "C2". Nothing here checks the images."""
    n = len(up)
    r = up.count(EAST)
    s, side = n - r, n + 1
    # vertex (x, y) is bit x * side + y, so a north vertex (x, y + 1) shifts
    # onto the south vertex (x, y) below it
    gap = (masks[up] >> 1) & masks[lo] & ((1 << r * side) - (1 << side))  # columns 1 .. r - 1
    if not gap:
        return "A", (up[1:] + NORTH, lo, (r, s - 1), "A1"), (up, NORTH + lo[:-1], (0, 1), "A2")
    point = divmod((gap & -gap).bit_length() - 1, side)
    x0, y0 = point
    t0 = x0 + y0
    prefix, suffix = up[: t0 + 1], up[t0 + 1 :]  # prefix reaches (x0, y0 + 1)
    moved = _drop_first_north(prefix) + NORTH + suffix
    if point != (1, 0):
        return "B", (moved, lo, point, "B1"), (moved[:t0] + lo[t0:], lo[:t0] + moved[t0:], point, "B2")
    return "C", (moved, lo, point, "C1"), (moved[1:] + EAST, lo[1:] + EAST, (r - 1, s), "C2")


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


def _interior(r: int, s: int) -> int:
    """Every vertex-mask bit of the r x s rectangle below the corner's but
    the origin's: ANDed with two paths' masks, it keeps their interior
    meetings."""
    return (1 << r * (r + s + 1) + s) - 2


def _north_throughout(north: int, south: int, bottoms: int) -> bool:
    """Whether the path with vertex mask ``north`` stays weakly north of the
    one with mask ``south`` at every step, both running from the origin to
    the same corner (r, s), r >= 1; ``bottoms`` holds bit (x, 0) of every
    column x = 0 .. r.

    A path enters column x at step x + y, y its lowest vertex there, so the
    first path is never east of the second exactly when, in every column,
    none of its vertices lies below the second's lowest one."""
    lowest = south & ~(south << 1)  # a path's vertices in a column are contiguous
    return not north & (lowest - bottoms)


def remove_meeting(a: str, b: str) -> tuple[tuple[str, str], str]:
    """Map the one-meeting pair of words ``a`` and ``b``, in either order,
    back to the canonical words of its nonmeeting source, with its tag.

    Each branch undoes the matching ``insert_meeting`` edit: group I peels
    the doubled E edge (after shifting the partner image back east), group II
    re-lifts the doubled N edge, and group III removes the inserted N edge
    from the aligned member after un-swapping a crossed one.
    """
    up, lo, masks, interior = _rect_pair(a, b)
    meets = masks[up] & masks[lo] & interior
    if not meets or meets & (meets - 1):
        raise ValueError("remove_meeting needs a pair with exactly one meeting")
    point = divmod(meets.bit_length() - 1, len(up) + 1)
    source, tag = _remove_words(up, lo, point, masks)
    upper, lower = masks[source[0]], masks[source[1]]
    if not (upper and lower) or upper & lower & interior:
        raise InvariantError(f"inverse tagged {tag} left no nonmeeting pair: {(up, lo)} -> {source}")
    return source, tag


def _remove_words(up: str, lo: str, point: Point, masks) -> tuple[tuple[str, str], str]:
    """The canonical words of the nonmeeting source of the one-meeting pair
    with canonical words ``up`` and ``lo`` on an r x s rectangle, meeting
    only at ``point``, and its tag. ``masks[word]`` is the
    ``PathNE.vertex_mask`` of the word's path. Every step is checked but
    the last: that the source shares no vertex is left to the caller."""
    words = (up, lo)
    n = len(up)
    r = up.count(EAST)
    s, side = n - r, n + 1
    group, role = _classify(r, s, point)

    if group == "I":
        if role == "partner":
            # move the doubled E edge at the far corner back to the origin
            up, lo = EAST + up[:-1], EAST + lo[:-1]
            if masks[up] & masks[lo] & _interior(r, s) != 1 << side:  # bit side is (1, 0)
                raise InvariantError(f"group I partner did not shift back to (1, 0): {words}")
        # exactly one member turns north right after (1, 0)
        modified, other = (up, lo) if up[1] == NORTH else (lo, up)
        if modified[:2] != EAST + NORTH:
            raise InvariantError(f"group I pair lacks the E,N corner at (1, 0): {words}")
        return _canonical(NORTH + EAST + modified[2:], other), "I"
    if group == "II":
        if role == "partner":
            # meeting at (r, s-1): the modified member arrives there by an E step
            modified, other = (up, lo) if up[n - 2] == EAST else (lo, up)
            if modified[-1] != NORTH:
                raise InvariantError(f"group II partner does not end with N: {words}")
            return _canonical(NORTH + modified[:-1], other), "II"
        # meeting at (0, 1): the modified member turns east right after it
        modified, other = (up, lo) if up[1] == EAST else (lo, up)
        if modified[0] != NORTH:
            raise InvariantError(f"group II pair lacks the leading N edge: {words}")
        return _canonical(modified[1:] + NORTH, other), "II"

    x0, y0 = point
    t0 = x0 + y0
    bottoms = ((1 << (r + 1) * side) - 1) // ((1 << side) - 1)  # bit x * side for x = 0 .. r
    aligned = _north_throughout(masks[up], masks[lo], bottoms)
    if aligned:
        north, south = up, lo
    else:
        # un-swap the tails; the result must be aligned
        cand_a, cand_b = up[:t0] + lo[t0:], lo[:t0] + up[t0:]
        mask_a, mask_b = masks[cand_a], masks[cand_b]
        if _north_throughout(mask_a, mask_b, bottoms):
            north, south = cand_a, cand_b
        elif _north_throughout(mask_b, mask_a, bottoms):
            north, south = cand_b, cand_a
        else:
            raise InvariantError(f"group III pair fails to align after unswap: {words}")
    if north[t0] != NORTH:
        raise InvariantError(f"group III aligned member lacks the inserted N edge at {point}")
    return _canonical(NORTH + north[:t0] + north[t0 + 1 :], south), "III:aligned" if aligned else "III:crossed"


# --- exhaustive verification --------------------------------------------------


class CorrespondenceRow(NamedTuple):
    """One replayed source: the canonical words of the source and of its
    two images, the images' meeting points, the construction case and the
    images' tags. An image that fails its mask test has no meeting point
    and no tag, and one whose inverse raises has no tag: both read None."""

    source_words: tuple[str, str]
    image_words: tuple[tuple[str, str], tuple[str, str]]
    meeting_points: tuple[Point | None, Point | None]
    case: str
    tags: tuple[str | None, str | None]


@dataclass(frozen=True)
class CorrespondenceReport:
    r: int
    s: int
    nonmeeting_count: int
    one_meeting_count: int
    passed: bool
    failures: tuple[str, ...]
    rows: tuple[CorrespondenceRow, ...]


# The tags the inverse gives the two images of each construction case. A
# row whose tags match shares the tuple here, so the rows of a large replay
# hold fewer objects for the garbage collector to trace.
_CASE_TAGS = {
    "A": ("II", "II"),
    "B": ("III:aligned", "III:crossed"),
    "C": ("I", "I"),
}


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


def _one_meeting_count(family: list[PathNE]) -> int:
    """The unordered one-meeting pairs of a rectangle's paths, from the
    census of ordered pairs. That census counts each pair a != b twice and
    each a == b once; a path meets itself at all r + s - 1 interior
    vertices, which is one vertex only on the 1 x 1 rectangle."""
    ordered = paths.meeting_census(family, family, paths.INTERIOR).get(1, 0)
    diagonal = len(family) if family[0].n == 2 else 0
    return (ordered + diagonal) // 2


def _one_meeting_words(family: list[PathNE]) -> set[tuple[str, str]]:
    """The canonical ``(upper, lower)`` words of every one-meeting pair of a
    rectangle's paths, in ``all_paths`` order, by a check of every pair.
    Only a failing replay needs them, to name the pairs it missed or
    overshot."""
    return {
        (b.word, a.word)  # ascending words: b is the upper one
        for i, a in enumerate(family)
        for b in family[i:]
        if len(paths.meeting_points(a, b, paths.INTERIOR)) == 1
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

    Every pair is read as words, through the masks of the rectangle's
    paths. An image that does not meet at its case's point only is
    reported by its label and gets no inverse.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    side = r + s + 1
    family = paths.all_paths(r + s, r)
    masks = _RectMasks(r, s)
    masks.update({p.word: p.vertex_mask for p in family})
    interior = _interior(r, s)

    failures: list[str] = []
    rows: list[CorrespondenceRow] = []
    images: list[tuple[str, str]] = []
    sources = 0
    inside = True  # every image so far is an r x s pair with one interior meeting
    for source in _nonmeeting_words(r, s):
        sources += 1
        try:
            case, first, second = _insert_words(*source, masks)
        except (ValueError, RuntimeError) as exc:
            failures.append(f"forward map failed on {source}: {exc}")
            continue
        pairs, points, tags = [], [], []
        for wa, wb, point, label in (first, second):
            words = _canonical(wa, wb)
            images.append(words)
            pairs.append(words)
            x, y = point
            if masks[wa] & masks[wb] & interior != 1 << x * side + y:
                failures.append(f"image {label} of {source} does not meet at {point} only: {words}")
                inside = False
                points.append(None)
                tags.append(None)
                continue
            points.append(point)
            try:
                back, tag = _remove_words(*words, point, masks)
            except (ValueError, RuntimeError) as exc:
                failures.append(f"inverse failed on image {words}: {exc}")
                tags.append(None)
                continue
            tags.append(tag)
            if back != source:
                failures.append(f"round trip broke: {source} -> {words} -> {back}")
            if tag not in _CASE_TAGS[case]:
                failures.append(f"image {words} of case {case} tagged group {tag.partition(':')[0]}")
        tags = tuple(tags)
        if tags == _CASE_TAGS[case]:
            tags = _CASE_TAGS[case]
        rows.append(CorrespondenceRow(source, tuple(pairs), tuple(points), case, tags))

    hit = set(images)
    if len(hit) != len(images):
        failures.append("images are not pairwise distinct")
    one_meeting_count = _one_meeting_count(family)
    if not inside or len(hit) != one_meeting_count:
        one_meeting = _one_meeting_words(family)
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
