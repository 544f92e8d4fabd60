"""The 2-to-1 correspondence and its inverse.

Core claims:
    - the forward map reproduces the hand-traced images on 1x1 and 1x2 and
      always produces two one-meeting pairs
    - the inverse undoes the forward map on both branches with the group tag
      the construction case dictates
    - group I and II partners reduce to the same smaller nonmeeting pair
      when their doubled edge is peeled off
    - exhaustive replay passes on small rectangles with the documented counts,
      and reports a forward map that repeats an image or leaves the
      one-meeting set, an image that meets elsewhere or twice (by its
      label), and an inverse that raises or returns another source; a passing
      replay never lists that set and builds no ``RectPair``, and each row
      builds the pairs of the words it stores when it is read
    - the direct source walk yields exactly the nonmeeting pairs, in the
      order of ``paths.all_paths``, and as many as the Lindstrom-Gessel-Viennot
      determinant and the Narayana number give on every rectangle with
      r + s <= 12
    - the inverse's mask test of one path staying north of another is the
      step-by-step comparison of their vertices
    - on random rectangles with r + s <= 16, the forward map takes the case
      and meeting points that the first gap-1 column, read from column
      heights, dictates, and the inverse returns both images of a random
      nonmeeting pair to it, with the tag its case dictates
    - degenerate and ill-typed inputs are rejected
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathpairs import bijection, formulas, paths
from pathpairs.bijection import (
    GroupTag,
    RectPair,
    insert_meeting,
    remove_meeting,
    verify_correspondence,
)
from pathpairs.paths import PathNE


def rp(a: str, b: str) -> RectPair:
    return RectPair.from_words(a, b)


def test_rect_pair_canonical_order_and_kind():
    pair = rp("EN", "NE")
    assert pair.upper.word == "NE"
    assert pair.lower.word == "EN"
    assert pair.kind == bijection.NONMEETING
    assert pair.meeting_point is None
    meeting = rp("EN", "EN")
    assert meeting.kind == bijection.ONE_MEETING
    assert meeting.meeting_point == (1, 0)
    with pytest.raises(ValueError, match="use RectPair.from_words$"):
        RectPair(PathNE.from_word("EN"), PathNE.from_word("NE"))


def test_rect_pair_rejects_two_meetings():
    with pytest.raises(ValueError):
        rp("ENEN", "ENEN")  # identical 4-step paths share 3 interior vertices
    with pytest.raises(ValueError):
        RectPair.from_words("EN", "NN")  # unequal endpoints


def test_insert_meeting_unit_square():
    first, second = insert_meeting(rp("NE", "EN"))
    assert first.words() == ("EN", "EN")
    assert first.meeting_point == (1, 0)
    assert second.words() == ("NE", "NE")
    assert second.meeting_point == (0, 1)


def test_insert_meeting_one_by_two():
    first, second = insert_meeting(rp("NNE", "ENN"))
    assert first.words() == ("NEN", "ENN")
    assert first.meeting_point == (1, 1)
    assert second.words() == ("NNE", "NEN")
    assert second.meeting_point == (0, 1)


def test_insert_meeting_postconditions_everywhere():
    for r, s in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 4)):
        report = verify_correspondence(r, s)
        for row in report.rows:
            for image in row.images:
                assert image.kind == bijection.ONE_MEETING


def test_insert_meeting_rejections():
    with pytest.raises(ValueError):
        insert_meeting(rp("EN", "EN"))  # already meets
    with pytest.raises(ValueError):
        insert_meeting(rp("NN", "NN"))  # degenerate rectangle


def test_remove_meeting_examples():
    source, tag = remove_meeting(rp("EN", "EN"))
    assert source.words() == ("NE", "EN")
    assert tag.group == "II"
    source, tag = remove_meeting(rp("NEN", "ENN"))
    assert source.words() == ("NNE", "ENN")
    assert tag.group == "II"


def test_remove_meeting_rejects_nonmeeting():
    with pytest.raises(ValueError):
        remove_meeting(rp("NE", "EN"))


def test_round_trip_with_tags():
    expected_group = {"A": "II", "B": "III", "C": "I"}
    for r, s in ((1, 1), (2, 2), (3, 2), (2, 3), (4, 2)):
        report = verify_correspondence(r, s)
        assert report.passed, report.failures
        for row in report.rows:
            for image, tag in zip(row.images, row.tags):
                back, back_tag = remove_meeting(image)
                assert back == row.source
                assert back_tag == tag
                assert tag.group == expected_group[row.case]


def test_group_three_flags_split_aligned_and_crossed():
    report = verify_correspondence(3, 3)
    seen = set()
    for row in report.rows:
        if row.case == "B":
            flags = tuple(tag.north_throughout for tag in row.tags)
            assert flags == (True, False)
            seen.add(flags)
    assert seen  # 3x3 has interior-meeting groups


def test_group_tag_validation():
    with pytest.raises(ValueError):
        GroupTag("IV")
    with pytest.raises(ValueError):
        GroupTag("I", north_throughout=True)
    with pytest.raises(ValueError):
        GroupTag("III")


def test_partner_images_reduce_to_one_smaller_pair():
    # case C partners carry doubled E edges at (1,0) and at (r-1,s); peeling
    # them off leaves the same nonmeeting pair one column narrower
    found = 0
    for r, s in ((3, 2), (4, 2), (3, 3)):
        for row in verify_correspondence(r, s).rows:
            if row.case != "C":
                continue
            found += 1
            at_origin, at_corner = row.images
            assert at_origin.meeting_point == (1, 0)
            assert at_corner.meeting_point == (r - 1, s)
            a, b = at_origin.words()
            peel_origin = RectPair.from_words(a[1:], b[1:])
            c, d = at_corner.words()
            peel_corner = RectPair.from_words(c[:-1], d[:-1])
            assert peel_origin == peel_corner
            assert peel_origin.kind == bijection.NONMEETING
    assert found


def test_partner_images_group_two_reduce_alike():
    # case A partners carry doubled N edges at (0,1) and at (r,s-1)
    found = 0
    for r, s in ((2, 2), (2, 3), (1, 2)):
        for row in verify_correspondence(r, s).rows:
            if row.case != "A":
                continue
            found += 1
            at_corner, at_origin = row.images
            assert at_corner.meeting_point == (r, s - 1)
            assert at_origin.meeting_point == (0, 1)
            a, b = at_corner.words()
            c, d = at_origin.words()
            assert RectPair.from_words(a[:-1], b[:-1]) == RectPair.from_words(c[1:], d[1:])
    assert found


def test_verify_counts_small_rectangles():
    report = verify_correspondence(1, 2)
    assert (report.nonmeeting_count, report.one_meeting_count) == (1, 2)
    assert report.passed
    report = verify_correspondence(2, 2)
    assert (report.nonmeeting_count, report.one_meeting_count) == (3, 6)
    assert report.passed
    report = verify_correspondence(1, 1)
    assert (report.nonmeeting_count, report.one_meeting_count) == (1, 2)
    assert report.passed


def test_verify_reports_a_repeated_image(monkeypatch):
    real_insert = bijection._insert_words

    def repeat_first(up, lo, masks):
        case, first, _ = real_insert(up, lo, masks)
        return case, first, first

    monkeypatch.setattr(bijection, "_insert_words", repeat_first)
    report = verify_correspondence(2, 2)
    monkeypatch.undo()
    assert not report.passed
    assert "images are not pairwise distinct" in report.failures
    dropped = sorted(insert_meeting(row.source)[1].words() for row in report.rows)
    assert len(dropped) == report.nonmeeting_count == 3
    assert f"one-meeting pairs never hit: {dropped}" in report.failures


def test_verify_reports_an_image_outside_the_one_meeting_set(monkeypatch):
    real_insert = bijection._insert_words

    def return_source(up, lo, masks):
        case, first, (_, _, point, label) = real_insert(up, lo, masks)
        return case, first, (up, lo, point, label)  # the nonmeeting source itself, meeting nowhere

    monkeypatch.setattr(bijection, "_insert_words", return_source)
    report = verify_correspondence(2, 2)
    assert not report.passed
    outside = [f for f in report.failures if f.startswith("images outside the one-meeting set")]
    sources = [("NENE", "EENN"), ("NNEE", "EENN"), ("NNEE", "ENEN")]
    assert outside == [f"images outside the one-meeting set: {sources}"]


def test_verify_reports_an_inverse_that_returns_another_source(monkeypatch):
    real_remove = bijection._remove_words
    sources = [("NENE", "EENN"), ("NNEE", "EENN"), ("NNEE", "ENEN")]
    next_source = dict(zip(sources, sources[1:] + sources[:1]))

    def return_another(up, lo, point, masks):
        words, tag = real_remove(up, lo, point, masks)
        return next_source[words], tag  # a nonmeeting pair, but not the source

    monkeypatch.setattr(bijection, "_remove_words", return_another)
    report = verify_correspondence(2, 2)
    assert not report.passed
    assert list(report.failures) == [
        f"round trip broke: {row.source_words} -> {words} -> {next_source[row.source_words]}"
        for row in report.rows
        for words in row.image_words
    ]
    assert len(report.failures) == 2 * len(sources)


def test_verify_reports_an_image_that_meets_elsewhere(monkeypatch):
    # case A's two images are valid one-meeting pairs, so swapping the
    # points they should meet at leaves each a pair meeting elsewhere
    real_insert = bijection._insert_words

    def swap_points(up, lo, masks):
        case, (a1, b1, p1, l1), (a2, b2, p2, l2) = real_insert(up, lo, masks)
        if case == "A":
            return case, (a1, b1, p2, l1), (a2, b2, p1, l2)
        return case, (a1, b1, p1, l1), (a2, b2, p2, l2)

    monkeypatch.setattr(bijection, "_insert_words", swap_points)
    for r, s in ((2, 2), (3, 3)):
        report = verify_correspondence(r, s)
        assert not report.passed
        expected = []
        for row in report.rows:
            if row.case == "A":
                first, second = row.image_words
                expected += [
                    f"image A1 of {row.source_words} does not meet at {(0, 1)} only: {first}",
                    f"image A2 of {row.source_words} does not meet at {(r, s - 1)} only: {second}",
                ]
                assert row.meeting_points == (None, None)
        assert expected and list(report.failures) == expected


def test_verify_reports_an_image_with_two_meetings(monkeypatch):
    real_insert = bijection._insert_words
    for r, s in ((2, 2), (3, 3)):
        family = paths.all_paths(r + s, r)
        a, b = next(
            (a, b)
            for a in family
            for b in family
            if len(paths.meeting_points(a, b, paths.intersections_interior)) == 2
        )
        twice = paths.meeting_points(a, b, paths.intersections_interior)

        def meet_twice(up, lo, masks):
            case, first, (_, _, _, label) = real_insert(up, lo, masks)
            return case, first, (a.word, b.word, twice[0], label)

        monkeypatch.setattr(bijection, "_insert_words", meet_twice)
        report = verify_correspondence(r, s)
        monkeypatch.undo()
        assert not report.passed
        words = bijection._canonical(a.word, b.word)
        for row in report.rows:
            label = row.case + "2"
            message = f"image {label} of {row.source_words} does not meet at {twice[0]} only: {words}"
            assert message in report.failures
        assert "images are not pairwise distinct" in report.failures
        assert f"images outside the one-meeting set: {[words]}" in report.failures


def test_verify_reports_an_inverse_that_raises(monkeypatch):
    def refuse(up, lo, point, masks):
        raise paths.InvariantError(f"no source for {(up, lo)}")

    monkeypatch.setattr(bijection, "_remove_words", refuse)
    for r, s in ((2, 2), (3, 3)):
        report = verify_correspondence(r, s)
        assert not report.passed
        assert list(report.failures) == [
            f"inverse failed on image {words}: no source for {words}"
            for row in report.rows
            for words in row.image_words
        ]


def test_passing_replay_never_lists_the_one_meeting_set(monkeypatch):
    def refuse(r, s):
        raise AssertionError("listed the one-meeting set")

    monkeypatch.setattr(bijection, "_one_meeting_words", refuse)
    for r, s in ((1, 1), (1, 4), (3, 3), (4, 2)):
        assert verify_correspondence(r, s).passed


def test_passing_replay_builds_no_rect_pair(monkeypatch):
    built = []
    real_post_init = RectPair.__post_init__

    def counted(pair):
        built.append(pair)
        real_post_init(pair)

    monkeypatch.setattr(RectPair, "__post_init__", counted)
    for total in range(2, 9):
        for r in range(1, total):
            assert verify_correspondence(r, total - r).passed, (r, total - r)
    assert built == []
    row = verify_correspondence(2, 2).rows[0]
    assert row.source.kind == bijection.NONMEETING  # pairs are built when a row is read
    assert len(built) == 1


def test_rows_build_the_pairs_of_their_stored_words():
    for total in range(2, 9):
        for r in range(1, total):
            for row in verify_correspondence(r, total - r).rows:
                assert row.source == RectPair.from_words(*row.source_words)
                assert row.source.words() == row.source_words
                images = row.images
                assert images == tuple(RectPair.from_words(*words) for words in row.image_words)
                assert tuple(image.words() for image in images) == row.image_words
                assert tuple(image.meeting_point for image in images) == row.meeting_points


def test_source_walk_yields_the_nonmeeting_pairs_in_path_order():
    for total in range(2, 9):
        for r in range(1, total):
            ps = paths.all_paths(total, r)
            scanned = [
                (b.word, a.word)
                for i, a in enumerate(ps)
                for b in ps[i + 1 :]
                if not paths.meeting_points(a, b, paths.intersections_interior)
            ]
            assert list(bijection._nonmeeting_words(r, total - r)) == scanned, (r, total - r)


def test_source_walk_counts_the_lgv_determinant_and_the_narayana_number():
    for n in range(2, 13):
        for r in range(1, n):
            s = n - r
            walked = sum(1 for _ in bijection._nonmeeting_words(r, s))
            lgv = comb(n - 2, r - 1) * comb(n - 2, s - 1) - comb(n - 2, r) * comb(n - 2, s)
            assert walked == lgv == formulas.narayana(n, r), (r, s)


def test_north_throughout_on_masks_is_the_vertex_walk():
    # no vertex below the other path's lowest vertex in its column, against
    # the step-by-step definition, on every ordered pair of paths
    for n in range(2, 8):
        for r in range(1, n):
            side = n + 1
            bottoms = sum(1 << x * side for x in range(r + 1))
            family = paths.all_paths(n, r)
            for a in family:
                for b in family:
                    walk = all(u[0] <= v[0] for u, v in zip(a.vertices, b.vertices))
                    assert bijection._north_throughout(a.vertex_mask, b.vertex_mask, bottoms) == walk


def test_verify_rejects_degenerate():
    with pytest.raises(ValueError):
        verify_correspondence(0, 3)


def test_nonmeeting_upper_is_strictly_north_inside():
    for r, s in ((2, 2), (3, 2), (2, 4)):
        for row in verify_correspondence(r, s).rows:
            pair = row.source
            for x in range(1, r):
                low = min(pair.upper.column_heights(x))
                high = max(pair.lower.column_heights(x))
                assert low > high


# --- random round trips ------------------------------------------------------


def _word(length: int, east_positions) -> str:
    return "".join("E" if t in east_positions else "N" for t in range(length))


@st.composite
def nonmeeting_pairs(draw):
    """A nonmeeting pair on a random r x s rectangle with r + s <= 16.

    Two paths from the origin to (r-1, s-1), read as their west and east
    envelopes at each step, run weakly ordered. Prefixing N to the west one
    and E to the east one (and closing them with E and N) separates them by
    one column at every interior step, and every nonmeeting pair arises
    this way, so no draw is filtered out.
    """
    r = draw(st.integers(1, 15))
    s = draw(st.integers(1, 16 - r))
    length = r + s - 2
    words = [
        _word(length, set(draw(st.permutations(range(length)))[: r - 1])) for _ in range(2)
    ]
    vertices = [PathNE.from_word(w).vertices for w in words]
    west = [min(a, b) for a, b in zip(*vertices)]  # fewer east steps so far
    east = [max(a, b) for a, b in zip(*vertices)]

    def steps(points):
        return "".join("E" if q[0] > p[0] else "N" for p, q in zip(points, points[1:]))

    return RectPair.from_words("N" + steps(west) + "E", "E" + steps(east) + "N")


def _reference_case(pair: RectPair):
    """The construction case and the two images' meeting points, from the
    first interior column x0 whose gap min(upper) - max(lower) is 1, with
    y0 the lower path's top there."""
    r, s = pair.shape
    for x0 in range(1, r):
        y0 = max(pair.lower.column_heights(x0))
        if min(pair.upper.column_heights(x0)) - y0 == 1:
            if (x0, y0) == (1, 0):
                return "C", (1, 0), (r - 1, s)
            return "B", (x0, y0), (x0, y0)
    return "A", (r, s - 1), (0, 1)


@settings(max_examples=300, deadline=None)
@given(source=nonmeeting_pairs())
def test_random_round_trip_returns_source_with_its_tag(source):
    assert source.kind == bijection.NONMEETING
    case, *images = bijection._insert_words(*source.words(), bijection._PATH_MASKS)
    first, second = (bijection._validated_image(*image) for image in images)
    assert (case, first.meeting_point, second.meeting_point) == _reference_case(source)
    assert first != second
    expected = {"A": "II", "B": "III", "C": "I"}[case]
    flags = []
    for image in (first, second):
        assert image.kind == bijection.ONE_MEETING
        back, tag = remove_meeting(image)
        assert back == source
        assert tag.group == expected
        flags.append(tag.north_throughout)
    if case == "B":
        assert flags == [True, False]
