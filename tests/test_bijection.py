"""The 2-to-1 correspondence and its inverse.

Core claims:
    - the word API takes a pair in either order, returns canonical words,
      and rejects words off one rectangle, a degenerate rectangle, letters
      other than E and N, and a pair meeting the wrong number of times
    - the forward map reproduces the hand-traced images on 1x1 and 1x2 and
      always produces two one-meeting pairs; a construction that breaks
      its mask test, or an inverse that leaves a meeting, raises an
      invariant error naming it
    - the inverse undoes the forward map on both branches with the group tag
      the construction case dictates; tags are the four labels I, II,
      III:aligned and III:crossed
    - group I and II partners reduce to the same smaller nonmeeting pair
      when their doubled edge is peeled off
    - exhaustive replay passes on small rectangles with the documented counts,
      and reports a forward map that repeats an image or leaves the
      one-meeting set, an image that meets elsewhere or twice (by its
      label), and an inverse that raises, returns another source or tags
      an image with another case's group; a passing
      replay never lists that set and validates no pair through the word
      API, and each row's words, meeting points and tags agree with the
      word API and the vertex walk; every row word is the family's own str,
      and the rows share their meeting-point objects
    - the replay's interior vertex mask keeps exactly the meetings that
      ``paths.meeting_points`` finds under ``INTERIOR``
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
from pathpairs.bijection import insert_meeting, remove_meeting, verify_correspondence
from pathpairs.paths import InvariantError, PathNE


def meetings(words: tuple[str, str]) -> tuple:
    """The interior meeting points of a pair of words, by the vertex walk
    of ``paths.meeting_points``."""
    a, b = (PathNE.from_word(w) for w in words)
    return paths.meeting_points(a, b, paths.INTERIOR)


def test_word_api_takes_either_order_and_returns_canonical_words():
    images = (("EN", "EN"), ("NE", "NE"))
    assert insert_meeting("NE", "EN") == insert_meeting("EN", "NE") == images
    assert remove_meeting("EN", "EN") == (("NE", "EN"), "II")
    assert remove_meeting("ENN", "NEN") == remove_meeting("NEN", "ENN") == (("NNE", "ENN"), "II")


def test_word_api_rejects_pairs_off_one_rectangle():
    for api in (insert_meeting, remove_meeting):
        with pytest.raises(ValueError, match="not two paths across one rectangle"):
            api("EN", "NN")  # unequal rectangles
        with pytest.raises(ValueError, match="not two paths across one rectangle"):
            api("EX", "EN")  # a letter other than E or N
        with pytest.raises(ValueError, match="not two paths across one rectangle"):
            api("EN", ("E", "N"))  # not a word
        with pytest.raises(ValueError, match="degenerate rectangle"):
            api("NN", "NN")
        with pytest.raises(ValueError, match="meeting"):
            api("ENEN", "ENEN")  # identical 4-step paths share 3 interior vertices


@pytest.mark.parametrize("other", [["N", "E"], {"N": "E"}, {"N", "E"}], ids=["list", "dict", "set"])
@pytest.mark.parametrize("api", [insert_meeting, remove_meeting])
def test_word_api_rejects_unhashable_arguments(api, other):
    for pair in (("EN", other), (other, "EN")):
        with pytest.raises(ValueError, match="not two paths across one rectangle"):
            api(*pair)


def test_insert_meeting_unit_square():
    first, second = insert_meeting("NE", "EN")
    assert first == ("EN", "EN")
    assert meetings(first) == ((1, 0),)
    assert second == ("NE", "NE")
    assert meetings(second) == ((0, 1),)


def test_insert_meeting_one_by_two():
    first, second = insert_meeting("NNE", "ENN")
    assert first == ("NEN", "ENN")
    assert meetings(first) == ((1, 1),)
    assert second == ("NNE", "NEN")
    assert meetings(second) == ((0, 1),)


def test_insert_meeting_postconditions_everywhere():
    for r, s in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 4)):
        report = verify_correspondence(r, s)
        for row in report.rows:
            for image, point in zip(row.image_words, row.meeting_points):
                assert meetings(image) == (point,)


def test_insert_meeting_rejections():
    with pytest.raises(ValueError, match="needs a nonmeeting pair"):
        insert_meeting("EN", "EN")  # already meets
    with pytest.raises(ValueError):
        insert_meeting("NN", "NN")  # degenerate rectangle


def test_word_api_raises_on_a_broken_construction(monkeypatch):
    real_insert = bijection._insert_words

    def return_source(up, lo, masks):
        case, first, (_, _, point, label) = real_insert(up, lo, masks)
        return case, first, (up, lo, point, label)  # meets nowhere

    monkeypatch.setattr(bijection, "_insert_words", return_source)
    with pytest.raises(InvariantError, match=r"construction case A: image A2 of \('NE', 'EN'\)"):
        insert_meeting("NE", "EN")
    monkeypatch.undo()

    monkeypatch.setattr(bijection, "_remove_words", lambda up, lo, point, masks: ((up, lo), "I"))
    with pytest.raises(InvariantError, match="inverse tagged I left no nonmeeting pair"):
        remove_meeting("EN", "EN")


def test_remove_meeting_examples():
    assert remove_meeting("EN", "EN") == (("NE", "EN"), "II")
    assert remove_meeting("NEN", "ENN") == (("NNE", "ENN"), "II")


def test_remove_meeting_rejects_nonmeeting():
    with pytest.raises(ValueError, match="exactly one meeting"):
        remove_meeting("NE", "EN")


def test_round_trip_with_tags():
    expected_group = {"A": "II", "B": "III", "C": "I"}
    for r, s in ((1, 1), (2, 2), (3, 2), (2, 3), (4, 2)):
        report = verify_correspondence(r, s)
        assert report.passed, report.failures
        for row in report.rows:
            for image, tag in zip(row.image_words, row.tags):
                assert remove_meeting(*image) == (row.source_words, tag)
                assert tag.partition(":")[0] == expected_group[row.case]


def test_group_three_flags_split_aligned_and_crossed():
    report = verify_correspondence(3, 3)
    seen = set()
    for row in report.rows:
        if row.case == "B":
            assert row.tags == ("III:aligned", "III:crossed")
            seen.add(row.tags)
    assert seen  # 3x3 has interior-meeting groups


def test_tags_are_the_four_labels():
    tags = {tag for row in verify_correspondence(3, 3).rows for tag in row.tags}
    assert tags == {"I", "II", "III:aligned", "III:crossed"}


def test_partner_images_reduce_to_one_smaller_pair():
    # case C partners carry doubled E edges at (1,0) and at (r-1,s); peeling
    # them off leaves the same nonmeeting pair one column narrower
    found = 0
    for r, s in ((3, 2), (4, 2), (3, 3)):
        for row in verify_correspondence(r, s).rows:
            if row.case != "C":
                continue
            found += 1
            (a, b), (c, d) = row.image_words
            assert row.meeting_points == ((1, 0), (r - 1, s))
            peel_origin = (a[1:], b[1:])
            assert peel_origin == (c[:-1], d[:-1])
            assert meetings(peel_origin) == ()
    assert found


def test_partner_images_group_two_reduce_alike():
    # case A partners carry doubled N edges at (0,1) and at (r,s-1)
    found = 0
    for r, s in ((2, 2), (2, 3), (1, 2)):
        for row in verify_correspondence(r, s).rows:
            if row.case != "A":
                continue
            found += 1
            (a, b), (c, d) = row.image_words
            assert row.meeting_points == ((r, s - 1), (0, 1))
            assert sorted((a[:-1], b[:-1])) == sorted((c[1:], d[1:]))
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
    dropped = sorted(insert_meeting(*row.source_words)[1] for row in report.rows)
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
            if len(paths.meeting_points(a, b, paths.INTERIOR)) == 2
        )
        twice = paths.meeting_points(a, b, paths.INTERIOR)

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


def test_verify_reports_an_image_tagged_with_another_group(monkeypatch):
    real_remove = bijection._remove_words

    def tag_crossed(up, lo, point, masks):
        words, _ = real_remove(up, lo, point, masks)
        return words, "III:crossed"

    monkeypatch.setattr(bijection, "_remove_words", tag_crossed)
    report = verify_correspondence(2, 2)
    assert not report.passed
    assert list(report.failures) == [
        f"image {words} of case {row.case} tagged group III"
        for row in report.rows
        if row.case != "B"
        for words in row.image_words
    ]


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
    # the replay reads the rectangle's masks directly; only the word API
    # validates a pair through _rect_pair
    built = []
    real_rect_pair = bijection._rect_pair

    def counted(a, b):
        built.append((a, b))
        return real_rect_pair(a, b)

    monkeypatch.setattr(bijection, "_rect_pair", counted)
    for total in range(2, 9):
        for r in range(1, total):
            assert verify_correspondence(r, total - r).passed, (r, total - r)
    assert built == []
    row = verify_correspondence(2, 2).rows[0]
    assert insert_meeting(*row.source_words) == row.image_words
    assert len(built) == 1


def test_rows_build_the_pairs_of_their_stored_words():
    for total in range(2, 9):
        for r in range(1, total):
            report = verify_correspondence(r, total - r)
            assert report.passed, (r, total - r)
            for row in report.rows:
                assert meetings(row.source_words) == ()
                assert insert_meeting(*row.source_words) == row.image_words
                for image, point, tag in zip(row.image_words, row.meeting_points, row.tags):
                    assert meetings(image) == (point,)
                    assert remove_meeting(*image) == (row.source_words, tag)


def test_rows_hold_the_familys_words_and_shared_points():
    # every row word is the family's own str, and the points pairs share
    # their point objects, so a replay keeps each value once
    for r, s in ((1, 1), (3, 4), (5, 3)):
        family = paths.all_paths(r + s, r)
        own = {id(p.word) for p in family}
        report = verify_correspondence(r, s)
        assert report.passed, (r, s)
        points = set()
        for row in report.rows:
            for word in (*row.source_words, *row.image_words[0], *row.image_words[1]):
                assert id(word) in own, (r, s, word)
            points.update(id(point) for point in row.meeting_points)
        assert len(points) <= (r + 1) * (s + 1), (r, s)


def test_interior_mask_counts_the_interior_meetings():
    # the replay's INTERIOR window, a vertex mask, against paths.meeting_points
    for r, s in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 2)):
        interior = bijection._RectMasks(r, s).interior
        family = paths.all_paths(r + s, r)
        for a in family:
            for b in family:
                common = a.vertex_mask & b.vertex_mask & interior
                assert common.bit_count() == len(paths.meeting_points(a, b, paths.INTERIOR)), (a, b)


def test_source_walk_yields_the_nonmeeting_pairs_in_path_order():
    for total in range(2, 9):
        for r in range(1, total):
            ps = paths.all_paths(total, r)
            scanned = [
                (b.word, a.word)
                for i, a in enumerate(ps)
                for b in ps[i + 1 :]
                if not paths.meeting_points(a, b, paths.INTERIOR)
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
            upper, lower = (PathNE.from_word(w) for w in row.source_words)
            for x in range(1, r):
                low = min(upper.column_heights(x))
                high = max(lower.column_heights(x))
                assert low > high


# --- random round trips ------------------------------------------------------


def _word(length: int, east_positions) -> str:
    return "".join("E" if t in east_positions else "N" for t in range(length))


@st.composite
def nonmeeting_pairs(draw):
    """The canonical words of a nonmeeting pair on a random r x s
    rectangle with r + s <= 16.

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

    return "N" + steps(west) + "E", "E" + steps(east) + "N"


def _reference_case(words: tuple[str, str]):
    """The construction case and the two images' meeting points, from the
    first interior column x0 whose gap min(upper) - max(lower) is 1, with
    y0 the lower path's top there."""
    upper, lower = (PathNE.from_word(w) for w in words)
    r, s = upper.vertices[-1]
    for x0 in range(1, r):
        y0 = max(lower.column_heights(x0))
        if min(upper.column_heights(x0)) - y0 == 1:
            if (x0, y0) == (1, 0):
                return "C", (1, 0), (r - 1, s)
            return "B", (x0, y0), (x0, y0)
    return "A", (r, s - 1), (0, 1)


@settings(max_examples=300, deadline=None)
@given(source=nonmeeting_pairs())
def test_random_round_trip_returns_source_with_its_tag(source):
    assert meetings(source) == ()
    r, s = source[0].count("E"), source[0].count("N")
    case = bijection._insert_words(*source, bijection._RectMasks(r, s))[0]
    first, second = insert_meeting(*source)
    assert first != second
    (p1,), (p2,) = meetings(first), meetings(second)
    assert (case, p1, p2) == _reference_case(source)
    tags = []
    for image in (first, second):
        back, tag = remove_meeting(*image)
        assert back == source
        tags.append(tag)
    expected = {"A": ["II", "II"], "B": ["III:aligned", "III:crossed"], "C": ["I", "I"]}
    assert tags == expected[case]
