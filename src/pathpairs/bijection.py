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

Meeting points and the rectangle scan come from ``paths``: the shared
vertices of a pair are ``paths.shared_vertices`` under
``intersections_interior``, and ``verify_correspondence`` walks
``paths.scan_pairs`` over ``paths.all_paths``. It keys the one-meeting set
of the scan by canonical ``(upper, lower)`` step words and compares each
image's ``words()`` against it, so no ``RectPair`` is built for a scanned
one-meeting pair.

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

from dataclasses import dataclass
from functools import cached_property

from . import paths
from .paths import EAST, NORTH, InvariantError, PathNE, PathPair, Point

NONMEETING = "nonmeeting"
ONE_MEETING = "one-meeting"


@dataclass(frozen=True)
class RectPair:
    """An unordered pair of corner-to-corner paths sharing 0 or 1 interior
    vertices; ``upper`` is the canonical (north-first) member."""

    upper: PathNE
    lower: PathNE

    def __post_init__(self) -> None:
        for p in (self.upper, self.lower):
            if p.start != (0, 0):
                raise ValueError("rectangle pairs start at the origin")
        if self.upper.word < self.lower.word:
            raise ValueError("upper must be the canonical (north-first) member; use RectPair.of")
        if len(self._meeting_points) > 1:
            raise ValueError(
                f"pair shares {len(self._meeting_points)} interior vertices; only 0 or 1 allowed"
            )

    @classmethod
    def of(cls, a: PathNE, b: PathNE) -> "RectPair":
        # 'N' sorts above 'E', so plain string order puts the north word first
        return cls(a, b) if a.word >= b.word else cls(b, a)

    @classmethod
    def from_words(cls, a: str, b: str) -> "RectPair":
        return cls.of(PathNE.from_word(a), PathNE.from_word(b))

    @cached_property
    def _meeting_points(self) -> tuple[Point, ...]:
        return paths.shared_vertices(PathPair(self.upper, self.lower), paths.intersections_interior)

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
    if pair.kind != NONMEETING:
        raise ValueError("insert_meeting needs a nonmeeting pair")
    r, s = pair.shape
    if r == 0 or s == 0:
        raise ValueError("degenerate rectangle: need r >= 1 and s >= 1")
    up, lo = pair.words()

    north, south = pair.upper.vertices, pair.lower.vertices
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


def _classify(pair: RectPair) -> tuple[str, str]:
    """(group, role) for a one-meeting pair; role is 'primary' at the meeting
    point named by the group and 'partner' at the mirrored corner point."""
    r, s = pair.shape
    point = pair.meeting_point
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
    return all(va[1] >= vb[1] for va, vb in zip(a.vertices, b.vertices))


def remove_meeting(pair: RectPair) -> tuple[RectPair, GroupTag]:
    """Map a one-meeting pair back to its nonmeeting source, with its tag.

    Each branch undoes the matching ``insert_meeting`` edit: group I peels
    the doubled E edge (after shifting the partner image back east), group II
    re-lifts the doubled N edge, and group III removes the inserted N edge
    from the aligned member after un-swapping a crossed one.
    """
    if pair.kind != ONE_MEETING:
        raise ValueError("remove_meeting needs a pair with exactly one meeting")
    r, s = pair.shape
    group, role = _classify(pair)
    up, lo = pair.words()

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
        tag = GroupTag("I")
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
        tag = GroupTag("II")
    else:
        x0, y0 = pair.meeting_point
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
                f"group III aligned member lacks the inserted N edge at {pair.meeting_point}"
            )
        source = RectPair.from_words(NORTH + north[:t0] + north[t0 + 1 :], south)
        tag = GroupTag("III", north_throughout=aligned)

    if source.kind != NONMEETING:
        raise InvariantError(
            f"inverse of group {group} left meetings {source._meeting_points}: {pair.words()}"
        )
    return source, tag


# --- exhaustive verification --------------------------------------------------


@dataclass(frozen=True)
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


def verify_correspondence(r: int, s: int) -> CorrespondenceReport:
    """Replay the correspondence on every pair of the r x s rectangle.

    Checks, in order: the forward map is total and lands in the one-meeting
    set; its 2 * nonmeeting images are pairwise distinct and exhaust that
    set; the inverse returns every image to its source with the group tag
    the construction case dictates; and the counts stand in ratio 2 : 1.
    Defects are reported, not raised.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    nonmeeting: list[RectPair] = []
    one_meeting: set[tuple[str, str]] = set()  # canonical (upper, lower) words
    scan = paths.scan_pairs(paths.all_paths(r + s, r), paths.intersections_interior)
    for a, b, hits in scan:
        if hits == 0 and a != b:
            nonmeeting.append(RectPair.of(a, b))
        elif hits == 1:
            wa, wb = a.word, b.word
            one_meeting.add((wa, wb) if wa >= wb else (wb, wa))

    failures: list[str] = []
    rows: list[CorrespondenceRow] = []
    images: list[tuple[str, str]] = []
    for source in nonmeeting:
        try:
            case, first, second = _insert(source)
        except (ValueError, RuntimeError) as exc:
            failures.append(f"forward map failed on {source.words()}: {exc}")
            continue
        tags = []
        for image in (first, second):
            images.append(image.words())
            try:
                back, tag = remove_meeting(image)
            except (ValueError, RuntimeError) as exc:
                failures.append(f"inverse failed on image {image.words()}: {exc}")
                tags.append(GroupTag("III", north_throughout=False))
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

    if len(set(images)) != len(images):
        failures.append("images are not pairwise distinct")
    extra = set(images) - one_meeting
    missing = one_meeting - set(images)
    if extra:
        failures.append(f"images outside the one-meeting set: {sorted(extra)}")
    if missing:
        failures.append(f"one-meeting pairs never hit: {sorted(missing)}")
    if len(one_meeting) != 2 * len(nonmeeting):
        failures.append(
            f"counts {len(one_meeting)} != 2 * {len(nonmeeting)}"
        )

    return CorrespondenceReport(
        r=r,
        s=s,
        nonmeeting_count=len(nonmeeting),
        one_meeting_count=len(one_meeting),
        passed=not failures,
        failures=tuple(failures),
        rows=tuple(rows),
    )
