"""Path objects and the two vertex-sharing conventions.

Core claims:
    - vertex lists derive correctly from step words read from the origin
    - a shared vertex of equal-length paths sits at the same index in both,
      so stepwise equality equals vertex-set intersection
    - the two counting conventions give their documented values and differ
      exactly as documented (interior = excluding-origin minus one shared
      end)
    - both counts are symmetric in the pair order
    - the one enumerator lists every path once, in combination order
    - the batch and mask forms (census, meeting points from vertex masks)
      agree with a walk along both vertex lists and enforce the same
      preconditions, with the same messages
    - ``as_probability`` is the one exact, bounded probability check
    - the bit-sliced census equals the per-pair tally on random families of
      unequal sizes, across machine words and with counts that need four
      bit planes or, at 17 meetings, five; for left families either side of
      the 16-path tally batch, families of different sizes and empty
      windows; on shuffled, repeated and single-path families under both
      conventions, and a family of mixed lengths or endpoints raises the
      per-pair message; an empty family on either side gives an empty tally
    - a path is a str of E and N steps, with no start of its own, and
      ``from_word`` rejects an invalid word on every call; the end counted
      from the steps is the last vertex
    - two paths are equal and hash alike exactly when their words are, and
      never equal another type; a path prints as ``PathNE(word=...)``,
      cannot be assigned or deleted, copies and pickles to an equal path,
      and computes its vertices and mask once
    - the memos under ``all_paths`` and ``meeting_census`` give what the
      unmemoized builders give, hand out fresh lists and dicts, never keep a
      family that raises, stay within their bounds, and keep no family of
      more than 924 paths or 12 steps
"""

import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathpairs import paths
from pathpairs.paths import (
    EXCLUDING_ORIGIN,
    INTERIOR,
    PathNE,
    all_paths,
    as_probability,
    meeting_census,
    meeting_points,
)

CONVENTIONS = (INTERIOR, EXCLUDING_ORIGIN)


def meetings(a: str, b: str, convention) -> int:
    """How many vertices the paths with words ``a`` and ``b`` share under
    ``convention``."""
    return len(meeting_points(PathNE.from_word(a), PathNE.from_word(b), convention))


def words(n: int, r: int) -> list[str]:
    out = []
    for epos in combinations(range(n), r):
        out.append("".join("E" if t in epos else "N" for t in range(n)))
    return out


def test_vertices_and_end():
    p = PathNE.from_word("ENN")
    assert p.vertices == ((0, 0), (1, 0), (1, 1), (1, 2))
    assert p.n == 3
    assert p.word == "ENN"


def test_column_heights():
    p = PathNE.from_word("NENNE")
    assert p.column_heights(1) == (1, 2, 3)
    assert p.column_heights(0) == (0, 1)


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        PathNE(("E", "X"))
    with pytest.raises(ValueError, match=re.escape("a path is a str of steps, got ('E', 'N')")):
        PathNE(("E", "N"))


def test_paths_are_equal_and_hash_alike_by_word():
    a, b, c = PathNE("ENN"), PathNE.from_word("ENN"), PathNE(word="NEN")
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and len({a, b, c}) == 2
    for other in ("ENN", ("ENN",), None, 3):
        assert a != other and other != a and not a == other
    assert a.__eq__("ENN") is NotImplemented


def test_repr_names_the_word():
    assert repr(PathNE("EN")) == "PathNE(word='EN')"
    assert repr(PathNE("")) == "PathNE(word='')"


def test_a_path_can_be_neither_assigned_nor_deleted():
    p = PathNE("ENE")
    p.vertices, p.vertex_mask  # cached before the attempts, too
    for name in ("word", "vertices", "vertex_mask", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, "NEE")
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.word, p.vertices, p) == ("ENE", ((0, 0), (1, 0), (1, 1), (2, 1)), PathNE("ENE"))


def test_a_bad_word_raises_its_message():
    _raises("invalid steps ['X', 'x']: only 'E' and 'N' are allowed", lambda: PathNE("EXNx"))
    _raises("a path is a str of steps, got ['E']", lambda: PathNE(["E"]))
    _raises("a path is a str of steps, got None", lambda: PathNE.from_word(None))


def test_vertices_and_mask_are_computed_once_and_kept():
    p = PathNE("E" * 20 + "N" * 20)
    assert p.vertices is p.vertices
    assert p.vertex_mask is p.vertex_mask
    assert p.vertex_mask == sum(1 << x * 41 + y for x, y in p.vertices)


def test_a_path_copies_and_pickles_to_an_equal_path():
    p = PathNE("NEE")
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.vertex_mask == p.vertex_mask


def test_pair_requires_equal_lengths_and_starts():
    for convention in CONVENTIONS:
        with pytest.raises(ValueError):
            meetings("EN", "E", convention)
    # every path starts at the origin: there is no start to differ
    with pytest.raises(TypeError):
        PathNE("EN", (1, 0))


def test_interior_examples():
    assert meetings("EN", "NE", INTERIOR) == 0
    assert meetings("EN", "EN", INTERIOR) == 1
    assert meetings("ENN", "NEN", INTERIOR) == 1


def test_interior_identical_paths_share_all_inner_vertices():
    word = "ENNEE"
    assert meetings(word, word, INTERIOR) == len(word) - 1


def test_interior_rejects_different_endpoints():
    with pytest.raises(ValueError):
        meetings("EN", "EE", INTERIOR)


def test_excluding_origin_examples():
    assert meetings("E", "E", EXCLUDING_ORIGIN) == 1
    assert meetings("E", "N", EXCLUDING_ORIGIN) == 0
    assert meetings("EN", "NE", EXCLUDING_ORIGIN) == 1  # shared endpoint counts


def test_excluding_origin_one_step_census():
    counts = {}
    for a, b in product(["E", "N"], repeat=2):
        k = meetings(a, b, EXCLUDING_ORIGIN)
        counts[k] = counts.get(k, 0) + 1
    assert counts == {0: 2, 1: 2}


def test_excluding_start_examples():
    assert meetings("NN", "EN", EXCLUDING_ORIGIN) == 0
    assert meetings("NN", "NE", EXCLUDING_ORIGIN) == 1
    for word in ("EE", "EN", "NE", "NN"):
        assert meetings(word, word, EXCLUDING_ORIGIN) == 2


def _vertex_set_interior(p: PathNE, q: PathNE) -> int:
    shared = set(p.vertices) & set(q.vertices)
    shared.discard(p.vertices[0])
    shared.discard(p.vertices[-1])
    return len(shared)


def test_stepwise_equality_matches_vertex_sets():
    # coordinate sums force shared vertices onto equal step indices
    for r in range(4):
        vocab = words(3, r)
        for wa in vocab:
            for wb in vocab:
                p, q = PathNE.from_word(wa), PathNE.from_word(wb)
                assert len(meeting_points(p, q, INTERIOR)) == _vertex_set_interior(p, q)


def test_all_conventions_symmetric():
    vocab = [w for r in range(4) for w in words(3, r)]
    for wa in vocab:
        for wb in vocab:
            assert meetings(wa, wb, EXCLUDING_ORIGIN) == meetings(wb, wa, EXCLUDING_ORIGIN)
            if wa.count("E") == wb.count("E"):  # equal lengths, so equal ends
                assert meetings(wa, wb, INTERIOR) == meetings(wb, wa, INTERIOR)


def test_interior_is_excluding_origin_minus_shared_end():
    for wa in words(4, 2):
        for wb in words(4, 2):
            assert meetings(wa, wb, INTERIOR) == meetings(wa, wb, EXCLUDING_ORIGIN) - 1


def test_all_paths_in_combination_order():
    assert [p.word for p in all_paths(4, 2)] == words(4, 2)
    assert [p.word for p in all_paths(3, 0)] == ["NNN"]
    assert all_paths(0, 0) == [PathNE("")]
    with pytest.raises(ValueError):
        all_paths(3, 4)


def test_meeting_points_are_the_counted_points():
    a, b = PathNE.from_word("ENEN"), PathNE.from_word("EENN")
    assert meeting_points(a, b, INTERIOR) == ((1, 0), (2, 1))
    assert meeting_points(a, b, EXCLUDING_ORIGIN) == ((1, 0), (2, 1), (2, 2))
    assert meeting_points(PathNE.from_word("NE"), PathNE.from_word("EN"), INTERIOR) == ()


def _tally(left, right, convention):
    out = {}
    for a in left:
        for b in right:
            k = len(meeting_points(a, b, convention))
            out[k] = out.get(k, 0) + 1
    return out


def test_census_matches_per_pair_counts():
    for n in range(5):
        walks = [p for r in range(n + 1) for p in all_paths(n, r)]
        assert meeting_census(walks, walks, EXCLUDING_ORIGIN) == _tally(walks, walks, EXCLUDING_ORIGIN)
        for r in range(n + 1):
            ps = all_paths(n, r)
            assert meeting_census(ps, ps, INTERIOR) == _tally(ps, ps, INTERIOR)
    left, right = all_paths(5, 1), all_paths(5, 3)
    assert meeting_census(left, right, EXCLUDING_ORIGIN) == _tally(left, right, EXCLUDING_ORIGIN)


def test_census_enforces_preconditions():
    with pytest.raises(ValueError):
        meeting_census(all_paths(3, 1), all_paths(3, 2), INTERIOR)
    with pytest.raises(ValueError):
        meeting_census(all_paths(3, 1), all_paths(2, 1), EXCLUDING_ORIGIN)
    with pytest.raises(ValueError):
        meeting_census(all_paths(3, 1), all_paths(3, 1), len)


def test_census_of_an_empty_family_is_empty():
    family = all_paths(4, 2)
    for convention in CONVENTIONS:
        assert meeting_census(family, [], convention) == {}
        assert meeting_census([], family, convention) == {}
        assert meeting_census([], [], convention) == {}
    # the other family is still checked, and so is the convention
    _raises("interior count needs equal endpoints, got [(1, 3), (2, 2)]",
            lambda: meeting_census(family + all_paths(4, 1), [], INTERIOR))
    _raises(f"unknown counting convention {len!r}", lambda: meeting_census([], [], len))


def test_census_is_the_per_pair_tally_in_any_order_and_with_repeats():
    # prefix sharing keeps counter states by the prefix each path shares with
    # the one before it, so neither order nor repeats may change a count
    rng = random.Random(19)
    for n in range(7):
        walks = [p for r in range(n + 1) for p in all_paths(n, r)]
        for convention in CONVENTIONS:
            if convention == INTERIOR:
                families = [all_paths(n, r) for r in range(n + 1)]
            else:
                families = [walks]
            for family in families:
                shuffled = rng.sample(family, len(family))
                repeated = family + rng.choices(family, k=len(family))
                rng.shuffle(repeated)
                cases = [
                    (shuffled, family),
                    (family[::-1], shuffled),
                    (repeated, shuffled),
                    (shuffled, repeated),
                    (family[-1:], family),
                    (family, family[:1]),
                    (repeated[:1], repeated[:1]),
                ]
                for left, right in cases:
                    assert meeting_census(left, right, convention) == _tally(left, right, convention)


def test_census_of_a_mixed_family_raises_the_per_pair_message():
    rng = random.Random(23)
    short, long = all_paths(3, 1), all_paths(4, 1)
    ends = all_paths(4, 1) + all_paths(4, 2)
    cases = [
        (short[:1] + long, "paths have different step counts: 3 vs 4", CONVENTIONS),
        (long[:1] + short, "paths have different step counts: 4 vs 3", CONVENTIONS),
        (ends, "interior count needs equal endpoints, got [(1, 3), (2, 2)]", (INTERIOR,)),
    ]
    for family, message, conventions in cases:
        for convention in conventions:
            rest = family[1:]
            for left, right in ((family[:1], rng.sample(rest, len(rest))), (family, family)):
                _raises(message, lambda: meeting_census(left, right, convention))
                _raises(message, lambda: _tally(left, right, convention))


@st.composite
def _census_cases(draw):
    """Two sub-families of ``all_paths(n, r)`` (n <= 9) valid together under a
    drawn convention: one small list and one random subset of a whole
    family, in either order."""
    convention = draw(st.sampled_from(CONVENTIONS))
    n = draw(st.integers(0, 9))
    r_small = draw(st.integers(0, n))
    r_large = r_small if convention == INTERIOR else draw(st.integers(0, n))
    small = draw(st.lists(st.sampled_from(all_paths(n, r_small)), min_size=1, max_size=5))
    pool = all_paths(n, r_large)
    picks = draw(st.integers(1, (1 << len(pool)) - 1))
    large = [p for i, p in enumerate(pool) if picks >> i & 1]
    left, right = (small, large) if draw(st.booleans()) else (large, small)
    return left, right, convention


@settings(max_examples=40, deadline=None)
@example(case=(all_paths(9, 4)[:1], all_paths(9, 4), INTERIOR))
@example(case=(all_paths(8, 3), all_paths(8, 5)[-1:], EXCLUDING_ORIGIN))
@example(case=(all_paths(9, 5)[::8], all_paths(9, 4), EXCLUDING_ORIGIN))
@given(case=_census_cases())
def test_bit_sliced_census_equals_per_pair_tally(case):
    left, right, convention = case
    assert list(meeting_census(left, right, convention).items()) == sorted(
        _tally(left, right, convention).items()
    )


def test_census_counts_up_to_eight_meetings():
    # identical 8-step walks meet at all 8 vertices past the origin, a count
    # that needs a fourth bit plane; 70 lanes cross a 64-bit word
    walks = all_paths(8, 4)
    census = meeting_census(walks, walks, EXCLUDING_ORIGIN)
    assert census == _tally(walks, walks, EXCLUDING_ORIGIN)
    assert census[8] == len(walks)


def test_census_counts_up_to_seventeen_meetings():
    # a 17-step window needs a fifth bit plane for the count and for x
    walks = all_paths(17, 1) + all_paths(17, 2)
    census = meeting_census(walks, walks, EXCLUDING_ORIGIN)
    assert census == _tally(walks, walks, EXCLUDING_ORIGIN)
    assert census[17] == len(walks)


def test_census_tallies_left_families_on_either_side_of_a_batch():
    # the planes of 16 left paths are tallied together: 1, 15, 16, 17 and
    # 33 paths leave a whole, a partial or no batch at the end
    walks = all_paths(8, 4)
    for size in (1, 15, 16, 17, 33):
        left = walks[-size:]
        for right in (walks, walks[:size], walks[5:6], walks[::3]):
            for convention in CONVENTIONS:
                assert meeting_census(left, right, convention) == _tally(left, right, convention)


def test_census_of_families_of_different_sizes():
    for left, right in ((all_paths(9, 2), all_paths(9, 6)), (all_paths(9, 6)[:7], all_paths(9, 2))):
        assert meeting_census(left, right, EXCLUDING_ORIGIN) == _tally(left, right, EXCLUDING_ORIGIN)
    left, right = all_paths(9, 4)[::4], all_paths(9, 4)[:50]
    assert meeting_census(left, right, INTERIOR) == _tally(left, right, INTERIOR)


def test_census_of_an_empty_window_counts_every_pair_at_zero():
    cases = [
        (all_paths(0, 0), EXCLUDING_ORIGIN),
        (all_paths(0, 0), INTERIOR),
        (all_paths(1, 0), INTERIOR),
        (all_paths(1, 1) * 3, INTERIOR),
    ]
    for family, convention in cases:
        census = meeting_census(family, family, convention)
        assert census == _tally(family, family, convention) == {0: len(family) ** 2}


def _zipped_points(a, b, convention):
    """The shared vertices read by walking both vertex lists in step."""
    stop = -1 if convention == INTERIOR else None
    return tuple(u for u, v in zip(a.vertices[1:stop], b.vertices[1:stop]) if u == v)


def test_mask_meeting_points_equal_the_vertex_walk():
    ps = all_paths(4, 2)
    # one bit per vertex, the origin at bit 0
    assert all(p.vertex_mask.bit_count() == p.n + 1 and p.vertex_mask & 1 for p in ps)
    for a in ps:
        for b in ps:
            for convention in CONVENTIONS:
                assert meeting_points(a, b, convention) == _zipped_points(a, b, convention)


# --- built paths and their fast preconditions ----------------------------------


def test_from_word_rejects_an_invalid_word_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid steps"):
            PathNE.from_word("ENX")


def test_end_counted_from_steps_is_the_last_vertex():
    for n in range(9):
        for steps in product("EN", repeat=n):
            p = PathNE("".join(steps))
            assert (steps.count("E"), steps.count("N")) == p.vertices[-1]


def _raises(message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_as_probability_is_exact_and_bounded():
    assert as_probability("2/6") == Fraction(1, 3)
    assert as_probability(0) == 0 and as_probability(1) == 1
    for bad in (Fraction(3, 2), Fraction(-1, 4)):
        _raises(f"probability {bad} outside [0, 1]", lambda: as_probability(bad))


def test_batch_forms_keep_the_pair_messages():
    en, e, ee = PathNE.from_word("EN"), PathNE.from_word("E"), PathNE.from_word("EE")
    cases = [
        ("paths have different step counts: 2 vs 1", en, e, EXCLUDING_ORIGIN),
        ("paths have different step counts: 2 vs 1", en, e, INTERIOR),
        ("interior count needs equal endpoints, got [(1, 1), (2, 0)]", en, ee, INTERIOR),
        (f"unknown counting convention {len!r}", en, en, len),
    ]
    for message, a, b, convention in cases:
        _raises(message, lambda: meeting_census([a], [b], convention))
        _raises(message, lambda: meeting_points(a, b, convention))


# --- the memos under the enumerator and the census ------------------------------


def _words(family):
    return tuple(p.word for p in family)


def test_a_mutated_result_does_not_leak_into_the_next_call():
    family = all_paths(5, 2)
    words_before = [p.word for p in family]
    family.reverse()
    family.append(PathNE("EEEEE"))
    assert [p.word for p in all_paths(5, 2)] == words_before
    assert all_paths(5, 2) is not all_paths(5, 2)
    for convention in CONVENTIONS:
        census = meeting_census(all_paths(5, 2), all_paths(5, 2), convention)
        expected = dict(census)
        census[0] = -1
        census[99] = 1
        assert meeting_census(all_paths(5, 2), all_paths(5, 2), convention) == expected


def test_an_invalid_family_raises_on_every_call_and_is_never_kept(cold_memos):
    short, long = all_paths(3, 1), all_paths(4, 1)
    cases = [
        (short[:1], long, EXCLUDING_ORIGIN, "paths have different step counts: 3 vs 4"),
        (long, long + short, INTERIOR, "paths have different step counts: 4 vs 3"),
        (long, all_paths(4, 2), INTERIOR, "interior count needs equal endpoints, got [(1, 3), (2, 2)]"),
        (long, long, len, f"unknown counting convention {len!r}"),
        (long, long, ["interior"], "unknown counting convention ['interior']"),
    ]
    for _ in range(3):
        for left, right, convention, message in cases:
            _raises(message, lambda: meeting_census(left, right, convention))
    assert paths._census.cache_info().currsize == 0


@st.composite
def _families(draw):
    """An (n, r) with n <= 12, and two sub-families of ``all_paths(n, r)``."""
    n = draw(st.integers(0, 12))
    r = draw(st.integers(0, n))
    family = paths._family.__wrapped__(n, r)
    left = draw(st.lists(st.sampled_from(family), min_size=0, max_size=20))
    right = draw(st.lists(st.sampled_from(family), min_size=1, max_size=20))
    return n, r, left, right


@settings(max_examples=60, deadline=None)
@given(case=_families(), convention=st.sampled_from(CONVENTIONS))
def test_memoized_results_equal_the_unmemoized_builders(case, convention):
    n, r, left, right = case
    assert all_paths(n, r) == list(paths._family.__wrapped__(n, r))
    kernel = paths._census.__wrapped__(_words(left), _words(right), convention)
    assert meeting_census(left, right, convention) == kernel
    assert meeting_census(left, right, convention) == kernel  # now from the memo
    assert meeting_census(left, right, convention) == _tally(left, right, convention)


def test_the_memos_stay_within_their_bounds(cold_memos):
    for n in range(paths._MEMO_STEPS + 1):
        for r in range(n + 1):
            all_paths(n, r)
    family_info = paths._family.cache_info()
    assert family_info.currsize == 91 <= family_info.maxsize
    # 2 x 252 distinct keys, past the census bound of 256
    family, right = all_paths(10, 5), all_paths(10, 5)[:8]
    for convention in CONVENTIONS:
        for i in range(1, len(family) + 1):
            meeting_census(family[:i], right, convention)
    census_info = paths._census.cache_info()
    assert census_info.currsize == census_info.maxsize == 256
    assert census_info.misses == 2 * len(family)


def test_no_family_past_924_paths_or_12_steps_is_kept(cold_memos):
    assert comb(13, 6) > paths._MEMO_PATHS == comb(12, 6) == 924
    big = all_paths(13, 6)
    assert len(big) == comb(13, 6)
    long = all_paths(13, 1)  # 13 paths, but of 13 steps
    walks = [p for r in range(11) for p in all_paths(10, r)]  # 1,024 walks of 10 steps
    assert paths._family.cache_info().currsize == 11  # only the ten-step families
    cases = [
        (big[:3], big, INTERIOR),
        (big, big[:3], EXCLUDING_ORIGIN),
        (long, long, INTERIOR),
        (walks[:5], walks, EXCLUDING_ORIGIN),
    ]
    for left, right, convention in cases:
        census = meeting_census(left, right, convention)
        assert census == paths._census.__wrapped__(_words(left), _words(right), convention)
    assert paths._census.cache_info().currsize == 0
