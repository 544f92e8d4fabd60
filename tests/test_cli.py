"""Command-line behavior: exact rendering, schema, routes, and exit codes.

Core claims:
    - every documented invocation produces the documented exact values
    - JSON records share the command/params/results(/consistency) shape and
      all numbers round-trip through Fraction parsing
    - CSV output carries the same rows under a header
    - probabilities must be rational strings; decimals and bad ranges exit 2
    - a level file that cannot be opened or is not UTF-8 exits 2 with a
      message that names the file; one behind a byte-order mark reads as
      the same file without it
    - routes.plan refuses a method that misses a k and names no fallback
    - fnk's probability column prints exactly str(Fraction(value, 4**n))
    - verification failures and routes that disagree under --method all
      exit 1 (the record is still emitted), verify --suite none exits 0
      and a --suite that names no suite otherwise exits 2, as do --all
      beside --suite and a suite named twice
    - JSON output has the bytes of json.dumps(record, indent=2) and a
      newline, for any value json can encode, and refuses with TypeError
      what json refuses
    - a reader that closes the pipe early gets exit 141 and no traceback,
      in either format
    - a closed-form count that fails its integrality check, or a route that
      breaks its own postcondition, is a program bug and exits 3, not 2
    - verify --timings writes one line per selected suite to stderr and
      leaves stdout unchanged; verify --all keeps the stdout bytes CI pins
    - exact values print in full past the interpreter's digit limit, and
      main leaves that process-wide limit as it found it
    - the parser is built once per process: a rejected query leaves it as
      new, help text is unchanged, and each command is looked up when main
      runs, so a patched cmd_* is the one called
    - a plain query is parsed from its command's option table into the
      namespace argparse gives, value types included, for any argv list or
      tuple; help, --n=5, abbreviations, repeats, negative or empty values,
      --suite, unknown tokens and failed conversions are left to argparse
    - a failing correspondence replay exits 1, prints each image's stored
      words, and gives a failed image no group label
    - every command with a bounded route in routes.ROUTES refuses a costly
      query one past its bound with one exact message, runs it under
      --unsafe-nmax, and runs a closed-form-only query of that size;
      --unsafe-nmax exists on exactly those commands
    - a route registered in routes.ROUTES, on nkr or on barrier, is printed
      under --method all, bounds the query by its own bound, and is held to
      the others by the verify routes suite, with no edit to the CLI
    - routes.answer plans first, hands the smallest planned bound to its
      admit check before building any route, builds each planned route
      once in table order, and lists each (k, route) whose value differs
      from the first route's at that k; the CLI names the first such k
    - diag and avg print the value of their one route in routes.ROUTES, and
      diag refuses a k past its table
    - a golden set of invocations keeps its exit code, stdout bytes and
      stderr text exactly, in process, with every argv left to argparse
      and, for one row of each command, in a fresh interpreter; every
      golden row that exits 0 without --suite is served without argparse
    - the correspondence table of every rectangle with r + s <= 10 keeps its
      stdout bytes, rows in the order the enumerated pairs come in
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathpairs
from pathpairs import bijection, cli, formulas, oracle, paths, routes, verify
from pathpairs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def values(record, **match):
    out = []
    for row in record["results"]:
        if all(row.get(k) == v for k, v in match.items()):
            out.append(row)
    return out


def test_nkr_all_routes_consistent(capsys):
    record = run_json(capsys, "nkr", "--n", "3", "--r", "1", "--k", "0", "--method", "all")
    assert record["command"] == "nkr"
    assert record["consistency"] is True
    rows = record["results"]
    assert {row["provenance"] for row in rows} == {"formula-a", "formula-b", "series", "oracle"}
    assert all(row["value"] == "2" for row in rows)


def test_nkr_table_top_entry_from_oracle(capsys):
    record = run_json(capsys, "nkr", "--n", "2", "--r", "1")
    assert [(row["k"], row["value"]) for row in record["results"]] == [("0", "2"), ("1", "2")]
    assert record["results"][0]["provenance"] == "formula-a"
    assert record["results"][1]["provenance"] == "oracle"


def test_nkr_large_frozen_value(capsys):
    record = run_json(
        capsys, "nkr", "--n", "17", "--r", "9", "--k", "5", "--method", "formula-a"
    )
    assert record["results"] == [{"k": "5", "value": "75598380", "provenance": "formula-a"}]


def test_nkr_range_error_exits_2(capsys):
    code, _, err = run(capsys, "nkr", "--n", "3", "--r", "5")
    assert code == 2
    assert "error:" in err


def test_nkr_oracle_cap(capsys):
    code, _, err = run(capsys, "nkr", "--n", "20", "--r", "3", "--method", "oracle")
    assert code == 2
    assert "--unsafe-nmax" in err


def test_mrs_table_with_oracle(capsys):
    record = run_json(capsys, "mrs", "--n", "2", "--r", "0", "--s", "1", "--method", "all")
    assert record["consistency"] is True
    assert values(record, k="0", provenance="formula")[0]["value"] == "1"
    assert values(record, k="1", provenance="oracle")[0]["value"] == "1"


def test_mrs_equal_endpoints_formula_only(capsys):
    record = run_json(capsys, "mrs", "--n", "3", "--r", "1", "--s", "1", "--k", "2")
    assert record["results"][0]["value"] == "4"  # rectangle count at k-1 = 1
    code, _, err = run(capsys, "mrs", "--n", "3", "--r", "1", "--s", "1", "--method", "oracle")
    assert code == 2
    assert "r < s" in err


def test_fnk_probability_field(capsys):
    record = run_json(capsys, "fnk", "--n", "8", "--k", "0")
    row = record["results"][0]
    assert row["value"] == "12870"
    assert Fraction(row["probability"]) == Fraction(12870, 4 ** 8)


def test_fnk_probability_prints_the_reduced_fraction(capsys):
    """The probability column shifts out shared factors of two; it prints
    str(Fraction(value, 4**n)) for every k, the denominator-1 rows too."""
    for n in range(65):
        record = run_json(capsys, "fnk", "--n", str(n))
        assert [row["k"] for row in record["results"]] == [str(k) for k in range(n + 1)]
        for row in record["results"]:
            assert row["probability"] == str(Fraction(int(row["value"]), 4 ** n))
    for value in (0, 1, 6, 2 ** 10, 3 * 2 ** 12):
        assert cli._over_power_of_two(value, 10) == str(Fraction(value, 2 ** 10))


def test_fnk_table_round_trips(capsys):
    record = run_json(capsys, "fnk", "--n", "5", "--method", "all")
    assert record["consistency"] is True
    total = sum(Fraction(row["value"]) for row in record["results"] if row["provenance"] == "formula")
    assert total == 4 ** 5


def test_pnk_exact_thirds(capsys):
    record = run_json(capsys, "pnk", "--n", "2")
    assert [row["probability"] for row in record["results"]] == ["1/3", "2/3"]


def test_diag_values(capsys):
    record = run_json(capsys, "diag", "--n", "3")
    assert [(row["k"], row["value"]) for row in record["results"]] == [("0", "4"), ("1", "8")]


def test_avg_exact_and_float(capsys):
    record = run_json(capsys, "avg", "--n", "1")
    row = record["results"][0]
    assert row["value"] == "1/2"
    assert row["value_float"] == 0.5


def test_avg_prints_exact_values_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    record = run_json(capsys, "avg", "--n", "8000")
    assert sys.get_int_max_str_digits() == limit
    text = record["results"][0]["value"]
    assert len(text) > sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert value == formulas.average_crossings(8000)


def test_integrality_failure_exits_3(capsys, monkeypatch):
    # an off-by-one binomial in the first term of the first rectangle form
    # leaves its value at 64/3 instead of 4
    binom = formulas.binom
    monkeypatch.setattr(formulas, "binom", lambda a, b: binom(a, b) + 1)
    code, out, err = run(capsys, "nkr", "--n", "5", "--r", "1", "--k", "1", "--method", "formula-a")
    assert code == 3
    assert out == ""
    assert err == "error: internal check failed: rect_pair_count_a(5, 1, 1): expected a nonnegative integer, got 64/3\n"


def test_invariant_failure_exits_3(capsys, monkeypatch):
    # a wrong C(2n, n) makes the enumerated same-endpoint total fail its
    # postcondition inside the oracle
    from math import comb

    from pathpairs import oracle

    monkeypatch.setattr(oracle, "comb", lambda a, b: comb(a, b) + 1)
    code, out, err = run(capsys, "pnk", "--n", "3", "--method", "oracle")
    assert (code, out) == (3, "")
    assert err == (
        "error: internal check failed: same_endpoint_pair_table(3): "
        "enumerated 20 pairs, not C(2n, n)\n"
    )


def test_barrier_all_routes(capsys):
    record = run_json(
        capsys, "barrier", "--a", "1", "--b", "1", "--x", "0", "--p", "1/2", "--method", "all"
    )
    assert record["consistency"] is True
    assert [row["value"] for row in record["results"]] == ["1/2", "1/2", "1/2"]
    assert [row["provenance"] for row in record["results"]] == ["dp", "single-walker", "formula"]


def test_barrier_axis_start_and_corollary_sum(capsys):
    record = run_json(capsys, "barrier", "--a", "0", "--b", "0", "--x", "3", "--p", "2/5")
    assert all(row["value"] == "1" for row in record["results"])
    record = run_json(
        capsys, "barrier", "--a", "2", "--b", "1", "--x", "1", "--p", "1/2", "--method", "formula"
    )
    assert record["results"][0]["value"] == "5/8"


def test_barrier_rejects_decimals_and_bad_ranges(capsys):
    code, _, err = run(capsys, "barrier", "--a", "1", "--b", "1", "--x", "0", "--p", "0.5")
    assert code == 2
    assert "p/q" in err
    code, _, err = run(capsys, "barrier", "--a", "1", "--b", "1", "--x", "0", "--p", "7/5")
    assert code == 2


def test_barrier_level_file(capsys, tmp_path):
    level = tmp_path / "levels.txt"
    level.write_text("1/2\n1/3\n2/7\n")
    record = run_json(
        capsys,
        "barrier", "--a", "1", "--b", "0", "--x", "1",
        "--level-file", str(level), "--method", "all",
    )
    # the closed form needs a constant rate, so only two routes appear
    assert [row["provenance"] for row in record["results"]] == ["dp", "single-walker"]
    assert record["consistency"] is True


def test_barrier_level_file_with_a_byte_order_mark(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ("barrier", "--a", "1", "--b", "0", "--x", "1", "--level-file", "levels.txt", "--method", "all")
    Path("levels.txt").write_text("1/2\n1/3\n2/7\n", encoding="utf-8")
    plain = run(capsys, *argv)
    assert plain[0] == 0
    Path("levels.txt").write_text("1/2\n1/3\n2/7\n", encoding="utf-8-sig")
    assert Path("levels.txt").read_bytes().startswith(b"\xef\xbb\xbf1/2")
    assert run(capsys, *argv) == plain


def test_plan_refuses_a_method_that_cannot_answer():
    # the closed form covers a constant rate only and names no fallback
    config = oracle.BarrierConfig(1, 0, 1, oracle.LevelRate((Fraction(1, 2),)))
    with pytest.raises(ValueError, match="barrier: method 'formula' cannot answer"):
        routes.plan("barrier", "formula", config)
    assert routes.plan("barrier", "dp", config) == {None: ["dp"]}


def test_barrier_level_file_diagnostics(capsys, tmp_path):
    level = tmp_path / "levels.txt"
    level.write_text("1/2\nnot-a-rational\n")
    code, _, err = run(
        capsys, "barrier", "--a", "1", "--b", "0", "--x", "0", "--level-file", str(level)
    )
    assert code == 2
    assert "levels.txt:2" in err
    code, _, err = run(
        capsys, "barrier", "--a", "1", "--b", "0", "--x", "0",
        "--level-file", str(tmp_path / "missing.txt"),
    )
    assert code == 2


def test_barrier_level_file_that_is_not_utf8_is_named(capsys, tmp_path):
    level = tmp_path / "levels.txt"
    level.write_bytes(b"\xff1/2\n")
    code, out, err = run(capsys, "barrier", "--a", "1", "--b", "0", "--x", "0", "--level-file", str(level))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read level file {level}: 'utf-8' codec can't decode byte 0xff")


def test_barrier_requires_exactly_one_rate_source(capsys, tmp_path):
    code, _, err = run(capsys, "barrier", "--a", "1", "--b", "0", "--x", "0")
    assert code == 2
    level = tmp_path / "levels.txt"
    level.write_text("1/2\n")
    code, _, err = run(
        capsys, "barrier", "--a", "1", "--b", "0", "--x", "0",
        "--p", "1/2", "--level-file", str(level),
    )
    assert code == 2


def test_bijection_correspondence_table(capsys):
    record = run_json(capsys, "bijection", "--r", "1", "--s", "2")
    assert record["nonmeeting"] == 1
    assert record["one_meeting"] == 2
    assert record["consistency"] is True
    row = record["results"][0]
    assert row["source"] == "NNE|ENN"
    assert {row["image_1"], row["image_2"]} == {"NEN|ENN", "NNE|NEN"}
    record = run_json(capsys, "bijection", "--r", "2", "--s", "2")
    assert record["nonmeeting"] == 3 and record["one_meeting"] == 6
    record = run_json(capsys, "bijection", "--r", "1", "--s", "1")
    assert record["nonmeeting"] == 1 and record["one_meeting"] == 2


def test_bijection_gives_a_failed_image_no_tag(capsys, monkeypatch):
    def refuse(up, lo, point, masks):
        raise paths.InvariantError("no source")

    monkeypatch.setattr(bijection, "_remove_words", refuse)
    code, out, _ = run(capsys, "bijection", "--r", "2", "--s", "2")
    record = json.loads(out)
    assert (code, record["consistency"]) == (1, False)
    assert [(row["tag_1"], row["tag_2"]) for row in record["results"]] == [(None, None)] * 3
    code, out, _ = run(capsys, "bijection", "--r", "2", "--s", "2", "--format", "csv")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["case"] for row in rows] == ["C", "A", "B"]
    assert [(row["tag_1"], row["tag_2"]) for row in rows] == [("", "")] * 3


def test_bijection_prints_an_image_that_meets_twice(capsys, monkeypatch):
    family = paths.all_paths(4, 2)
    a, b = next(
        (a, b)
        for a in family
        for b in family
        if len(paths.meeting_points(a, b, paths.INTERIOR)) == 2
    )
    twice = paths.meeting_points(a, b, paths.INTERIOR)
    real_insert = bijection._insert_words

    def meet_twice(up, lo, masks):
        case, first, (_, _, _, label) = real_insert(up, lo, masks)
        return case, first, (a.word, b.word, twice[0], label)

    monkeypatch.setattr(bijection, "_insert_words", meet_twice)
    code, out, _ = run(capsys, "bijection", "--r", "2", "--s", "2")
    record = json.loads(out)
    assert (code, record["consistency"]) == (1, False)
    words = "|".join(bijection._canonical(a.word, b.word))
    assert [(row["image_2"], row["meeting_2"], row["tag_2"]) for row in record["results"]] == [(words, None, None)] * 3
    assert [row["tag_1"] for row in record["results"]] == ["I", "II", "III:aligned"]
    assert all(row["meeting_1"] not in (None, "None") for row in record["results"])
    code, out, _ = run(capsys, "bijection", "--r", "2", "--s", "2", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 1
    assert [(row["meeting_2"], row["tag_2"]) for row in rows] == [("", "")] * 3


# SHA-256 of `bijection --r R --s S` stdout, taken when the replay still
# scanned every pair of paths; the direct source walk must print the same.
BIJECTION_STDOUT = {
    (1, 1): "6e973fbc4ae5757abee574f503b893a426321623793b5a5b47e3a259270a3d2f",
    (1, 2): "4b5042cf1ef5617f9671a50075eaccf0d19502e29075220b48fe529ec10b7204",
    (2, 1): "87e9e5ab9e0b2702bbea700835dfd0b86a7b65194e29c423cd8ed39f407f6d0f",
    (1, 3): "bc83d37de4e151d60c82eaad88c0adc9635dda7b44cc4ac43555b04c858865b8",
    (2, 2): "e6310020b35aeb050f848b71e04fa83b76a4a9b539fcdba9955f92ba3209125e",
    (3, 1): "f01810327baeee33525deb691dcfdd72d370c351c139c5bc3597f4cb01f64c91",
    (1, 4): "f0ddd7283530f98f06486e65e1a083ca71391ea477c31245af2ba6c83bce8e70",
    (2, 3): "da51cfd01ebcca5435575a201e0537b4e1a790fa90474dbb5a5b2b541f256db7",
    (3, 2): "e9438c436243f7ac12c2caa26db59f6395a6d5cdf7504e73358098673d3ba087",
    (4, 1): "7c44fee1398024f9d3dc98140265952daf923ccb4f7947690774c22f03ffb819",
    (1, 5): "04cba9cd7eaa535f3c3e046cf51c6708f989f2b136ff052404ef731d72dbe452",
    (2, 4): "bf4adea9d3ffdb01f5f15e18851c5a2e0cc2c3286df3683166873af73e08ce1d",
    (3, 3): "a167cbf624cfa18dfaf032fc925642ab0d9ce285b583518dcbedb306cb4e8284",
    (4, 2): "be99ebec0752276d8118cd5724afae3111c33de32e2f69b1bba48913e445fdd8",
    (5, 1): "7e2d1bcbc15768b2f8ce949cb91c0bd1483fe4c64e0518603129691529c03acc",
    (1, 6): "3fd318c6315a794a0839feb453e6c06e4e8ba67cb1cf45fe577c6e3a0948d757",
    (2, 5): "e70076952c154579a70ac03be1df9169085ed5a986651afffdde37b5df16f9ea",
    (3, 4): "9e63011fa3201ab60b37e139035a438e4b99859f3c80e7978d14b757543ee278",
    (4, 3): "7e82b8ae6b5998fd9bdac57b34f1ea1f2121c2b4f30b84ce453dddebc5335faf",
    (5, 2): "f01ed16e2e00d0c53c7f2df7a0777f561f99b48723f28a71ce55accc6160ce98",
    (6, 1): "526b594619012d7a48bf1a26deaa385a745335a97ae80baaad2efebacefe8d59",
    (1, 7): "5dc7cb86fe4b8a2de33fe0b9cfb32c7b045643a7c7f434a5675ff97a059e1d01",
    (2, 6): "b03d0770a5b719ef9a60cb909a9baed164c42ed2eafc7e5a3738453108a07de4",
    (3, 5): "b6ee7e8dcea243255a576fed73eda4fe6a973b9bb09f1f95af7dc558c3737554",
    (4, 4): "287a3d91cb4ff00eb6d60d0b14137d81befb95056c09712907d7a0b792bc22dc",
    (5, 3): "33c39a2f53799eebcee756eea3ac90aed6dcfcb4d7e05c56e4ee7e7393d8a5bb",
    (6, 2): "d5748e6bda1bc754e9a9fe2a4c9f721312bb5ecf25f02c852cc85bf72b55d386",
    (7, 1): "6a47eef5a7fcc2cb97b2290a2c4816dbe8a958019d9498a08036e4489e70c10a",
    (1, 8): "0a91665ae7118934e34556550a4f74d05df945bcb655cbb5f13dd44182dee205",
    (2, 7): "a75ec6ad922ab11bab5baf123130ac93229ccc431f359b9c37771cc774f86b65",
    (3, 6): "374c19b6282065edb11cf9cce2b6903dfd9fac5981be92c0bb2bf8cf91f91871",
    (4, 5): "97107caa37325898c17595b7e15a291368b4adc2f1a3d2f34312b8241ac47b98",
    (5, 4): "8d24cc4e55353292de75fee183ec7081f93c3f2f7e624aa74e31f249158e1c2e",
    (6, 3): "f6f8f23c70dc71988002d5e3cee26743bd0930a5b568f6db7dc01bec88fbbdad",
    (7, 2): "8130f5716da063ac700092e5df3fee8541d10b3459e933b69ba8d37f7c850f79",
    (8, 1): "8808a369d5cdca69dcef99be4e48885b78990a6cf6d8c3e61e1a6539b5f50949",
    (1, 9): "4855754ca4967a141513a90d43005f479bfa85f15f413143aedc24781ea4dd3a",
    (2, 8): "c7f57fa7877899676599da527f2a263e0db875a0a7796002768359e09a14d621",
    (3, 7): "ad2fb1289a9950a2930e5d9a59b83e7f62e5b84e5d6dc2e971531993c47995ee",
    (4, 6): "62a7970888b1d8e3306d810e052aa00660e65c99f07f046076fc4fd3752070ad",
    (5, 5): "f10b0ba04c9c5afab7596a1b94e6c3f7933c9d937f088de1b463de1c1b8bdea7",
    (6, 4): "a5261bfdbf83f6ab33203d7940688d3aaaec056bd255bbcddf712c79354cbf89",
    (7, 3): "bea1ea8da6639894c3195676eaf7ca2a5f06ef7e5c401be59e824a7668dd9be1",
    (8, 2): "1e855f16b8c3195408571e37b3f1096a924efe79496affae97cb9929aa84c22a",
    (9, 1): "371406b2cd9b18ef5bd0cd548e5c26abbc2e93cc5f243c98c00486d8f6a55548",
}


def test_bijection_stdout_is_pinned_on_small_rectangles(capsys):
    assert set(BIJECTION_STDOUT) == {(r, t - r) for t in range(2, 11) for r in range(1, t)}
    got = {}
    for r, s in BIJECTION_STDOUT:
        code, out, err = run(capsys, "bijection", "--r", str(r), "--s", str(s))
        assert (code, err) == (0, ""), (r, s)
        got[r, s] = hashlib.sha256(out.encode()).hexdigest()
    assert got == BIJECTION_STDOUT


def test_verify_all_smoke(capsys):
    from pathpairs.verify import SUITE_NAMES

    record = run_json(capsys, "verify", "--all", "--nmax", "3")
    assert [row["check"] for row in record["results"]] == list(SUITE_NAMES)
    assert all(row["status"] == "pass" for row in record["results"])
    assert record["consistency"] is True


#: ``verify --all`` stdout, as CI pins it in plain, ``-O`` and warm, cold and
#: emptied-memo runs; memos do not change the bytes
VERIFY_ALL_SHA256 = "88e0853e831ac1a0c11815b9abbd88f9dadc62f325e809d2bd3fa5a9aa3832c9"


def test_verify_all_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "--all")
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, VERIFY_ALL_SHA256, "")


def test_verify_single_suite(capsys):
    record = run_json(capsys, "verify", "--suite", "theorem1", "--nmax", "5")
    assert record["results"][0]["check"] == "theorem1"
    assert record["results"][0]["status"] == "pass"


def test_verify_none_is_empty_success(capsys):
    record = run_json(capsys, "verify", "--suite", "none")
    assert record["results"] == []


@pytest.mark.parametrize("spelling", [",", ""])
def test_verify_suite_naming_no_suite_exits_2(capsys, spelling):
    code, out, err = run(capsys, "verify", "--suite", spelling)
    assert (code, out) == (2, "")
    assert err == "error: --suite names no suite; give a suite name, or 'none' for an empty run\n"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suites" in err


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--nmax", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["check", "status", "instances"]
    assert lines[1].startswith("theorem1,pass,")


def test_csv_rows_match_json(capsys):
    code, out, _ = run(capsys, "nkr", "--n", "3", "--r", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,value,provenance"
    assert lines[1] == "0,2,formula-a"
    record = run_json(capsys, "nkr", "--n", "3", "--r", "1")
    assert len(lines) - 1 == len(record["results"])


def test_every_emitted_number_round_trips(capsys):
    record = run_json(capsys, "pnk", "--n", "6", "--method", "all")
    for row in record["results"]:
        assert Fraction(row["probability"]) <= 1
        assert Fraction(row["count"]) == Fraction(row["probability"]) * Fraction(924)  # C(12,6)


# --- the JSON writer ------------------------------------------------------------


# quotes, backslashes, control characters, a percent sign, non-ASCII text
# and lone surrogates, beside whatever characters() draws
_TEXT = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f%\u00e9\u20ac\u2028\ud800\udfff\U0001f600') | st.characters(), max_size=6
)
_SCALARS = (
    _TEXT
    | st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, -(2**63), 2**64, -(2**100) - 1])
    | st.floats()
    | st.sampled_from([-0.0, 1e308, math.nan, math.inf, -math.inf])
)


@st.composite
def _rows(draw, values):
    """A list of flat dicts of text under one key order, as the CLI builds;
    a row may take the keys in another order, or one value that is not text."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(keys)) if draw(st.booleans()) else keys
        row = {key: draw(_TEXT) for key in order}
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.sampled_from(keys))] = draw(values)
        rows.append(row)
    return rows


_VALUES = st.recursive(
    _SCALARS,
    lambda values: (
        st.lists(values, max_size=3)
        | st.lists(values, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, values, max_size=3)
        | _rows(values)
    ),
    max_leaves=12,
)


def _emitted(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(value, "json", [])
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(value=_VALUES)
@example(value=[{"k": "1", "v": "\u00e9"}, {"v": "2", "k": "3"}, {"k": "4", "v": ["5", {"w": None}]}])
@example(value=[{}, {}, {"k": "1"}])
@example(value={"floats": [-0.0, 1e308, math.nan, math.inf, -math.inf], "rows": [{"x": math.nan}, {"x": ()}]})
@example(
    value={
        "consistency": False, "count": 2**64 + 1, "failures": [], "params": {}, "words": (),
        "results": [{"m": "1", "v": "2"}, {"m": None, "v": "3"}, {"m": "4", "v": -0.0}, {"m": math.nan, "v": "5"}],
    }
)
def test_json_output_is_the_bytes_of_json_dumps(value):
    assert _emitted(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [{"a": {(1, 2): "b"}}, [{"a": "1"}, {"a": b"x"}], [{"a": "1", "b": object()}], {"a": {1, 2}}, [Fraction(1, 2)]],
    ids=["tuple key", "bytes in a row", "object in a row", "set", "Fraction"],
)
def test_json_output_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _emitted(value)


def test_json_output_takes_str_keys_only():
    # json writes an int key as a string; no record has one
    for value in ({1: "a"}, {"a": [{1: "b"}]}):
        with pytest.raises(TypeError):
            _emitted(value)


def test_barrier_rejects_zero_denominator(capsys, tmp_path):
    code, out, err = run(capsys, "barrier", "--a", "1", "--b", "1", "--x", "0", "--p", "1/0")
    assert (code, out) == (2, "")
    assert "zero denominator" in err and "'1/0'" in err
    level = tmp_path / "levels.txt"
    level.write_text("1/2\n1/0\n")
    code, _, err = run(capsys, "barrier", "--a", "1", "--b", "0", "--x", "0", "--level-file", str(level))
    assert code == 2
    assert "levels.txt:2" in err and "zero denominator" in err


@pytest.mark.parametrize(
    "selection",
    [["--all", "--nmax", "2"], ["--suite", "wz,barrier", "--suite", "theorem1", "--nmax", "3"]],
)
def test_verify_timings_cover_every_selected_suite(capsys, selection):
    code, out, err = run(capsys, "verify", *selection)
    assert (code, err) == (0, "")
    timed_code, timed_out, timed_err = run(capsys, "verify", *selection, "--timings")
    assert (timed_code, timed_out) == (0, out)
    suites = [row["check"] for row in json.loads(out)["results"]]
    lines = [line.split(" ") for line in timed_err.splitlines()]
    assert [name for name, _ in lines] == suites
    assert all(float(seconds) >= 0 for _, seconds in lines)


def test_verify_rejects_nmax_below_one(capsys):
    for nmax in ("-5", "0"):
        code, out, err = run(capsys, "verify", "--suite", "theorem1", "--nmax", nmax)
        assert (code, out) == (2, "")
        assert err == f"error: n_max must be at least 1, got {nmax}\n"


def test_negative_unsafe_nmax_rejected(capsys):
    for argv in (
        ["nkr", "--n", "3", "--r", "1", "--k", "0"],
        ["mrs", "--n", "3", "--r", "1", "--s", "2", "--method", "oracle"],
        ["fnk", "--n", "3"],
        ["pnk", "--n", "3", "--method", "all"],
        ["barrier", "--a", "1", "--b", "1", "--x", "0", "--p", "1/2"],
        ["bijection", "--r", "1", "--s", "2"],
    ):
        code, out, err = run(capsys, *argv, "--unsafe-nmax", "-3")
        assert (code, out) == (2, ""), argv
        assert "--unsafe-nmax must be nonnegative" in err


def test_each_route_is_built_once_per_query(capsys, monkeypatch):
    from pathpairs import oracle, series

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(oracle, "rect_pair_table")
    counted(series, "rect_pair_powers")
    record = run_json(capsys, "nkr", "--n", "7", "--r", "3", "--method", "all")
    assert sorted(calls) == ["rect_pair_powers", "rect_pair_table"]
    assert record["consistency"] is True
    assert len(record["results"]) == 4 * 6 + 2  # the top k has no formula rows


def _off_by_one(build):
    """A route builder whose values are one more than ``build``'s."""

    def built(module, query):
        route = build(module, query)

        def value(k):
            v = route(k)
            return (v[0], v[1] + 1) if isinstance(v, tuple) else v + 1  # pnk: (probability, count)

        return value

    return built


@pytest.mark.parametrize(
    "argv, route",
    [
        ("nkr --n 5 --r 2 --method all", "formula-b"),
        ("mrs --n 4 --r 1 --s 2 --method all", "oracle"),
        ("fnk --n 3 --method all", "formula"),
        ("pnk --n 3 --method all", "oracle"),
        ("barrier --a 1 --b 1 --x 1 --p 1/3 --method all", "single-walker"),
    ],
)
def test_disagreeing_routes_exit_1(capsys, monkeypatch, argv, route):
    command = argv.split()[0]
    table = routes.ROUTES[command]
    monkeypatch.setitem(table, route, table[route]._replace(build=_off_by_one(table[route].build)))
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert f"{command}: the routes disagree" in err
    record = json.loads(out)  # the record is still emitted in full
    assert record["consistency"] is False
    assert route in {row["provenance"] for row in record["results"]}


@pytest.mark.parametrize("argv, value", [("diag --n 3 --k 1", "9"), ("avg --n 1", "3/2")])
def test_a_single_route_command_prints_the_route_in_the_table(capsys, monkeypatch, argv, value):
    table = routes.ROUTES[argv.split()[0]]
    monkeypatch.setitem(table, "formula", table["formula"]._replace(build=_off_by_one(table["formula"].build)))
    record = run_json(capsys, *argv.split())
    assert [(row["value"], row["provenance"]) for row in record["results"]] == [(value, "formula")]


def test_diag_refuses_a_k_past_its_table(capsys):
    assert run(capsys, "diag", "--n", "5", "--k", "4") == (2, "", "error: meeting count k must lie in [0, 3]\n")


def _register_nkr_route(monkeypatch, build):
    """Add a route to nkr under a new name, with its own bound of 8."""
    monkeypatch.setitem(routes.ROUTES["nkr"], "oracle-8", routes.Route("oracle", build, bound=8))


def _register_barrier_route(monkeypatch, build):
    """Add a route to barrier under a new name, with its own bound of 8."""
    monkeypatch.setitem(routes.ROUTES["barrier"], "dp-8", routes.Route("oracle", build, bound=8))


# Each command a test registers a route on: the registration, the route it
# copies, a --method all query, the routes that query prints at its first
# k before the new one, a query one past the new bound of 8 and the words
# naming its size, the stderr words of a disagreement, and the comparisons
# the new route adds to the routes suite: one per (n, r, k) of the nkr grid,
# n <= 5, and one per barrier configuration, 20 with a + b + x <= 3 under
# each of five rates.
REGISTERED = {
    "nkr": SimpleNamespace(
        register=_register_nkr_route, copies="oracle", query="nkr --n 5 --r 2 --method all",
        printed=["formula-a", "formula-b", "series", "oracle"], past="nkr --n 9 --r 3 --method all",
        what="nkr: n=9", disagree="nkr: the routes disagree at k=0", added=sum(n * (n + 1) for n in range(1, 6)),
    ),
    "barrier": SimpleNamespace(
        register=_register_barrier_route, copies="dp", query="barrier --a 1 --b 1 --x 1 --p 1/3 --method all",
        printed=["dp", "single-walker", "formula"], past="barrier --a 9 --b 0 --x 0 --p 1/2 --method all",
        what="barrier: a+b+x=9", disagree="barrier: the routes disagree (consistency false)", added=5 * 20,
    ),
}


def test_a_registered_route_is_printed_bounded_and_checked(capsys, monkeypatch):
    (before,) = verify.run_all(verify.VerifyConfig(suites=("routes",)))
    for command, case in REGISTERED.items():
        with monkeypatch.context() as patch:
            case.register(patch, routes.ROUTES[command][case.copies].build)
            (name,) = set(routes.ROUTES[command]) - set(case.printed)
            record = run_json(capsys, *case.query.split())
            assert record["consistency"] is True
            first = record["results"][0].get("k")  # barrier rows have no k
            assert [row["provenance"] for row in record["results"] if row.get("k") == first] == [*case.printed, name]
            assert run(capsys, *case.past.split()) == (
                2, "", f"error: {case.what} exceeds the default bound 8; pass --unsafe-nmax 9 to allow it\n"
            )
            (report,) = verify.run_all(verify.VerifyConfig(suites=("routes",)))
            assert report.passed, report.first_failure
            assert report.instances - before.instances == case.added, command


def test_a_registered_route_that_is_off_fails_the_cli_and_the_routes_suite(capsys, monkeypatch):
    for command, case in REGISTERED.items():
        with monkeypatch.context() as patch:
            case.register(patch, _off_by_one(routes.ROUTES[command][case.copies].build))
            (name,) = set(routes.ROUTES[command]) - set(case.printed)
            code, out, err = run(capsys, *case.query.split())
            assert code == 1
            assert case.disagree in err
            assert json.loads(out)["consistency"] is False
            (report,) = verify.run_all(verify.VerifyConfig(suites=("routes",)))
            assert not report.passed
            assert report.first_failure["sides"].endswith(f" vs {name}")


def test_answer_plans_admits_builds_and_lists_each_disagreement(capsys, monkeypatch):
    oracle_build = routes.ROUTES["nkr"]["oracle"].build
    query = SimpleNamespace(n=5, r=2, k=None)
    _register_nkr_route(monkeypatch, _off_by_one(oracle_build))
    assert routes.answer("nkr", "all", query)[1] == [(k, "oracle-8") for k in range(5)]

    def wrong_at_two(module, q):
        value = oracle_build(module, q)
        return lambda k: value(k) + (k == 2)

    _register_nkr_route(monkeypatch, wrong_at_two)
    code, _, err = run(capsys, "nkr", "--n", "5", "--r", "2", "--method", "all")
    assert code == 1
    assert "nkr: the routes disagree at k=2" in err

    built, admitted = [], []
    for name, route in routes.ROUTES["nkr"].items():
        def counted(module, q, name=name, build=route.build):
            built.append(name)
            return build(module, q)

        monkeypatch.setitem(routes.ROUTES["nkr"], name, route._replace(build=counted))

    def refuse(bound):
        admitted.append(bound)
        raise ValueError("refused")

    with pytest.raises(ValueError, match="refused"):
        routes.answer("nkr", "all", query, admit=refuse)
    assert (admitted, built) == ([8], [])
    values, disagree = routes.answer("nkr", "all", query, admit=admitted.append)
    assert admitted == [8, 8]
    assert built == ["formula-a", "formula-b", "series", "oracle", "oracle-8"]  # once each, in table order
    assert disagree == [(2, "oracle-8")]
    assert [name for name, _ in values[4]] == ["series", "oracle", "oracle-8"]


# For each command with a bounded route, at size s: a query that runs a
# costly route, the words naming s in the refusal, and a query of size s that
# runs closed forms only (bijection has none). m is s - 1.
CAPPED_QUERIES = {
    "nkr": ("nkr --n {s} --r 2 --method oracle", "nkr: n={s}", "nkr --n {s} --r 2 --k 0"),
    "mrs": ("mrs --n {s} --r 1 --s 2 --method oracle", "mrs: n={s}", "mrs --n {s} --r 1 --s 2 --k 0"),
    "fnk": ("fnk --n {s} --method oracle", "fnk: n={s}", "fnk --n {s} --k 0"),
    "pnk": ("pnk --n {s} --method oracle", "pnk: n={s}", "pnk --n {s} --k 0"),
    "barrier": (
        "barrier --a {s} --b 0 --x 0 --p 1/2 --method dp", "barrier: a+b+x={s}",
        "barrier --a {s} --b 0 --x 0 --p 1/2 --method formula",
    ),
    "bijection": ("bijection --r {m} --s 1", "r + s = {s}", None),
}


def _bounds(command):
    return [route.bound for route in routes.ROUTES[command].values() if route.bound is not None]


BOUNDED = sorted(command for command in routes.ROUTES if _bounds(command))


@pytest.mark.parametrize("command", BOUNDED)
def test_size_cap_table(capsys, monkeypatch, command):
    size = min(_bounds(command)) + 1
    costly, what, cheap = (text and text.format(s=size, m=size - 1) for text in CAPPED_QUERIES[command])
    assert run(capsys, *costly.split()) == (
        2, "", f"error: {what} exceeds the default bound {size - 1}; pass --unsafe-nmax {size} to allow it\n"
    )
    # past the cap, the costly routes are stubbed so that nothing enumerates
    built = []
    value = {  # pnk: (probability, count); bijection: the replay's report
        "pnk": (0, 0),
        "bijection": SimpleNamespace(rows=[], passed=True, nonmeeting_count=0, one_meeting_count=0, failures=()),
    }.get(command, 0)
    table = routes.ROUTES[command]
    for name, route in table.items():
        if route.bound is not None:
            stub = route._replace(build=lambda module, q: built.append(q) or (lambda k: value))
            monkeypatch.setitem(table, name, stub)
    code, _, err = run(capsys, *costly.split(), "--unsafe-nmax", str(size))
    assert (code, err, len(built)) == (0, "", 1)
    if cheap is not None:
        assert run(capsys, *cheap.split())[0] == 0
        assert len(built) == 1


def test_unsafe_nmax_is_on_exactly_the_capped_commands(capsys):
    commands = [name[len("cmd_"):] for name in dir(cli) if name.startswith("cmd_")]
    having = set()
    for command in commands:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        if "--unsafe-nmax" in capsys.readouterr().out:
            having.add(command)
    assert having == set(BOUNDED)


@pytest.mark.parametrize("fmt, first_line", [("csv", b"source,"), ("json", b"{")], ids=["csv", "json"])
def test_closed_pipe_exits_141_quietly(fmt, first_line):
    # the table is far larger than a pipe buffer, so writes go on after the
    # reader has closed its end; JSON goes out row by row, so the reader
    # may see a record cut off part way
    env = {**os.environ, "PYTHONPATH": str(Path(pathpairs.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathpairs.cli", "bijection", "--r", "5", "--s", "5", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(first_line)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# --- one parser per process -------------------------------------------------------


def _fresh_process(*argv):
    """Exit code and stdout of ``pathpairs.cli`` run once in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(pathpairs.__file__).parents[1]), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-m", "pathpairs.cli", *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_rejected_queries_leave_the_parser_as_new(capsys):
    query = ["nkr", "--n", "4", "--r", "2"]
    code, reference = _fresh_process(*query)
    assert code == 0
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value
        main(["nkr", "--n", "x", "--r", "2", "--method", "all"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *query)[:2] == (0, reference)
    assert run(capsys, "nkr", "--n", "4", "--r", "9", "--method", "oracle")[0] == 2  # UsageError
    assert run(capsys, *query)[:2] == (0, reference)


def test_commands_are_looked_up_when_main_runs(capsys, monkeypatch):
    assert run(capsys, "avg", "--n", "2")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_avg", lambda args: seen.append(args.n) or 7)
    assert run(capsys, "avg", "--n", "3") == (7, "", "")
    assert seen == [3]


@pytest.mark.parametrize("argv", [["--help"], ["barrier", "--help"]])
def test_help_is_unchanged_after_earlier_queries(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    run(capsys, "barrier", "--a", "1", "--b", "0", "--x", "0", "--p", "1/2", "--method", "dp")
    run(capsys, "fnk", "--n", "3", "--format", "csv")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == _fresh_process(*argv)[1]


def _tables():
    cli.build_parser()
    return cli._PARSER[1]


# Tokens that are no option string of any command, or a form argparse alone
# parses: help, an attached value, an abbreviation, an appending option.
_NOISE = st.sampled_from(["-h", "--help", "--n=5", "--meth", "--suite", "--bogus", "--", "-n", "nkr", "5"])
_INTS = st.one_of(
    st.integers(0, 10**4).map(str),
    st.sampled_from(["+3", "+0", " 7", "7 ", "1_000", "\u0663", "\u0661\u0662"]),
)
_TEXT = st.text(min_size=1, max_size=4)
_JUNK = st.sampled_from(["", "-1", "-0", " ", "x", "1/3", "0.5", "1e3", "--n", "\u00e9", "all", "csv"])


@st.composite
def _argvs(draw):
    """An argv of one command, as a list or a tuple: its required flags and
    some others, in any order, with fitting values, and at times one fault:
    a dropped flag, a repeated flag, a noise token or a junk value."""
    tables = _tables()
    command = sorted(tables)[draw(st.integers(0, len(tables) - 1))]
    table = tables[command]
    order, keep = draw(st.permutations(list(table))), draw(st.integers(0, 2 ** len(table) - 1))
    flags = [flag for i, flag in enumerate(order) if table[flag].required or keep >> i & 1]
    fault = draw(st.integers(0, 7))
    if fault == 0 and flags:
        del flags[draw(st.integers(0, len(flags) - 1))]
    elif fault == 1 and flags:
        flags.insert(draw(st.integers(0, len(flags))), flags[draw(st.integers(0, len(flags) - 1))])
    junk = draw(st.integers(0, len(flags))) if fault == 2 else None
    argv = [command]
    for i, flag in enumerate(flags):
        action = table[flag]
        argv.append(flag)
        if action.nargs == 0:
            pass
        elif i == junk:
            argv.append(draw(_JUNK))
        elif action.choices is not None:
            argv.append(action.choices[draw(st.integers(0, len(action.choices) - 1))])
        else:
            argv.append(draw(_INTS if action.type is int else _TEXT))
    if fault == 3:
        argv.insert(draw(st.integers(1, len(argv))), draw(_NOISE))
    return tuple(argv) if draw(st.booleans()) else argv


@settings(max_examples=80, deadline=None)
@given(argv=_argvs())
@example(argv=("verify", "--timings", "--nmax", "\u0663", "--all"))
@example(argv=["barrier", "--a", "+1", "--b", " 2 ", "--x", "1_0", "--level-file", "a b", "--method", "dp"])
def test_the_table_parse_equals_argparse(argv):
    got = cli._parse_plain(_tables(), argv)
    if got is not None:
        want = cli.build_parser().parse_args(argv)
        assert vars(got) == vars(want)
        assert {key: type(value) for key, value in vars(got).items()} == {
            key: type(value) for key, value in vars(want).items()
        }


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no command"),
        pytest.param(["--help"], id="top-level help"),
        pytest.param(["nope", "--n", "5"], id="unknown command"),
        pytest.param(["nkr", "-h"], id="short help"),
        pytest.param(["nkr", "--n", "5", "--r", "2", "--help"], id="long help"),
        pytest.param(["nkr", "--n=5", "--r", "2"], id="attached value"),
        pytest.param(["nkr", "--n", "5", "--r", "2", "--meth", "all"], id="abbreviation"),
        pytest.param(["nkr", "--n", "5", "--r", "2", "--n", "6"], id="repeat"),
        pytest.param(["verify", "--all", "--all"], id="repeated switch"),
        pytest.param(["nkr", "--n", "-1", "--r", "0"], id="negative value"),
        pytest.param(["nkr", "--n", "", "--r", "2"], id="empty value"),
        pytest.param(["avg", "--n"], id="missing value"),
        pytest.param(["avg", "--", "--n", "5"], id="double dash"),
        pytest.param(["verify", "--suite", "theorem1"], id="suite"),
        pytest.param(["nkr", "--n", "5", "--r", "2", "--q", "1"], id="unknown flag"),
        pytest.param(["avg", "--n", "5", "6"], id="stray value"),
        pytest.param(["verify", "--all", "yes"], id="switch with a value"),
        pytest.param(["nkr", "--n", "x", "--r", "2"], id="failed conversion"),
        pytest.param(["nkr", "--n", "5", "--r", "2", "--method", "bogus"], id="failed choice"),
        pytest.param(["nkr", "--n", "5"], id="missing required flag"),
    ],
)
def test_the_table_parse_declines_all_but_plain_queries(argv):
    assert cli._parse_plain(_tables(), argv) is None
    assert cli._parse_plain(_tables(), tuple(argv)) is None


# --- golden outputs -------------------------------------------------------------

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, SHA-256 of stdout, stderr text). Every subcommand, every
# --method value and both formats, the nkr top-k oracle fallback, and the
# usage errors. Level files are read from the working directory so the
# echoed path is fixed.
GOLDEN = [
    ("nkr --n 3 --r 1 --k 0 --method all", 0,
     "7ed6f648113d406580593cbb1db068e02f560ad1e5f2336857daa71ab5b5f878", ""),
    ("nkr --n 6 --r 2 --method all", 0,
     "af7a1ebccfed402982128ca9466fb4b40ef57ef0465c5bc4015829f1597a5e46", ""),
    ("nkr --n 7 --r 3 --method formula-a", 0,
     "33184d48c8edf74cdf0ff07ec5e96ddef8302ad46b3b78d4e2425fb8699b89c7", ""),
    ("nkr --n 7 --r 3 --method formula-b --format csv", 0,
     "ad8e2ce62b9a48dd32ba36465229d5c52183dc39f38a17141e2e119c2a8054b0", ""),
    ("nkr --n 8 --r 3 --k 2 --method series", 0,
     "799ede122aeffa81aa222dfe452ca3e427d881053f6250fa2c0ef60f6f3c7950", ""),
    ("nkr --n 6 --r 4 --method series", 0,
     "454182bb4ed329eba2a1ebfe774e6a45b20f56299a46f3778ee5f81fbf0a4cb3", ""),
    ("nkr --n 6 --r 0 --method oracle --format csv", 0,
     "68bdf21ad32b2ebd949fbfa33bcf82a910a71c2b8269f4038521c48b3b3628e8", ""),
    ("nkr --n 17 --r 9 --k 5 --method formula-b", 0,
     "b3c0d8e943c81096e8bfd21f062b058140b5a78e53d703eccc207ace0d5ee53e", ""),
    ("nkr --n 2 --r 1", 0,
     "6d0d5e637238a4133beb0b6442a13a43bc258c25136e81542a59f127da91c0be", ""),
    ("nkr --n 5 --r 2 --k 4", 0,
     "dee74452f4f2f85da3a9d438b1b3430fadac2f9962fefb5a8674a5cd95286a62", ""),
    ("nkr --n 13 --r 2 --k 3 --method oracle --unsafe-nmax 13", 0,
     "3e3ff6b15e37c74cbded38a6a123328ead97a5d9c919ed3e431164549c77fe37", ""),
    ("nkr --n 3 --r 5", 2, EMPTY,
     "error: need n >= 1 and 0 <= r <= n, got n=3, r=5\n"),
    ("nkr --n 5 --r 2 --k 5", 2, EMPTY,
     "error: meeting count k must lie in [0, 4]\n"),
    ("nkr --n 20 --r 3 --method oracle", 2, EMPTY,
     "error: nkr: n=20 exceeds the default bound 12; pass --unsafe-nmax 20 to allow it\n"),
    ("nkr --n 13 --r 2 --method formula-a", 2, EMPTY,
     "error: nkr: n=13 exceeds the default bound 12; pass --unsafe-nmax 13 to allow it\n"),
    # the fallback to the oracle brings in its bound, so a top-k query of
    # a closed form is capped and a lower k is not
    ("nkr --n 13 --r 2 --k 3 --method formula-a", 0,
     "5a76433a6042c08b334fa13a8695ac629331a76c40407bb3af9eb9d2711b2103", ""),
    ("nkr --n 13 --r 2 --k 12 --method formula-a", 2, EMPTY,
     "error: nkr: n=13 exceeds the default bound 12; pass --unsafe-nmax 13 to allow it\n"),
    ("nkr --n 3 --r 1 --method bogus", 2, EMPTY,
     "usage: pathpairs nkr [-h] --n N --r R [--k K]\n                     [--method {formula-a,formula-b,series,oracle,all}]\n                     [--format {json,csv}] [--unsafe-nmax UNSAFE_NMAX]\npathpairs nkr: error: argument --method: invalid choice: 'bogus' (choose from 'formula-a', 'formula-b', 'series', 'oracle', 'all')\n"),
    ("mrs --n 5 --r 1 --s 3 --method all", 0,
     "3850d8b03b53fcf0123b59439dc35a1132a90a61c0641dea292644b1694ecb4e", ""),
    ("mrs --n 4 --r 1 --s 3 --k 2 --method all", 0,
     "b5056120684bdf16b55b3fa77afd4b76baee33d6e56a5718a2dd8c96c5685f80", ""),
    ("mrs --n 6 --r 2 --s 2", 0,
     "00a0a49b0b808de36421c2abc876002f4f1c230343796434c284f9691937cdef", ""),
    ("mrs --n 6 --r 2 --s 4 --method oracle --format csv", 0,
     "16400df6de6d564856529bf7ce657b1da772740f4fe7592eb38d2bf83c477d5a", ""),
    ("mrs --n 40 --r 10 --s 25 --k 0 --method formula", 0,
     "c92948bdb0c562125a65d63b199c72df911407bb28700a2d564edfa34f0a1ee4", ""),
    ("mrs --n 3 --r 1 --s 1 --method oracle", 2, EMPTY,
     "error: the enumeration route needs r < s; equal endpoints reduce to nkr\n"),
    # the k range is checked before the routes' own needs
    ("mrs --n 3 --r 1 --s 1 --k 9 --method oracle", 2, EMPTY,
     "error: meeting count k must lie in [0, 3]\n"),
    ("fnk --n 5 --method all", 0,
     "3e7631389b0e382b7e24bc71168c72c7516a56716c5c11f6984bfcf1f1fe0845", ""),
    ("fnk --n 6 --k 2 --method oracle --format csv", 0,
     "42f3d5fb31d7287d5828ecad06db573228ef49e058647b41739f9f07975a2508", ""),
    ("fnk --n 30 --method formula", 0,
     "53de223652d71f0e849bf4580717280e4f479834222714016959db6fdf11bf21", ""),
    ("fnk --n 10 --method oracle", 2, EMPTY,
     "error: fnk: n=10 exceeds the default bound 9; pass --unsafe-nmax 10 to allow it\n"),
    ("pnk --n 6 --method all", 0,
     "e8b8831c00ebfbbe32c29d5ea9c7c46a704d5f7bec2cad0484976a01cfdb8829", ""),
    ("pnk --n 5 --k 1 --method oracle", 0,
     "9fb194677b3a49af8527a4e784efa7a1bc06abdf1ea3fb16297be2c68256849c", ""),
    ("pnk --n 40 --k 3 --format csv", 0,
     "aaa2dd01978424142cda42f291ef5a7dba2c7d46c920c7ac8a17f6c6f0b3f8b0", ""),
    ("pnk --n 0", 2, EMPTY,
     "error: n must be at least 1\n"),
    ("diag --n 7", 0,
     "36d205bbd08a8690987e62eba5f46a7d4aea212b4fa787ad04c0e45b3507262d", ""),
    ("diag --n 9 --k 3 --format csv", 0,
     "61c877883e7a8a6a79cd3b2ad61b463fe5a007842b474b79d8c07006ac1a7b26", ""),
    ("diag --n 1", 2, EMPTY,
     "error: n must be at least 2\n"),
    ("avg --n 12", 0,
     "726506d71a49ad114e354ae68ae4d601a59d1896fcfff35b146775497192946e", ""),
    ("avg --n 5 --format csv", 0,
     "88d33f0b030ab2f848415a1423e1367a15919468bde9e043a51e3528062d1092", ""),
    ("barrier --a 1 --b 1 --x 0 --p 1/2 --method all", 0,
     "57abe9cd3849f6bd61b193088b594f3bd93ee42abe31e545fb91e3cf8e38c9fe", ""),
    ("barrier --a 2 --b 1 --x 1 --p 1/3 --method dp", 0,
     "f3ad0a997b78f8dfaabb518feda53590618e9371bd622deef6af657b4bd616ae", ""),
    ("barrier --a 2 --b 3 --x 2 --p 2/5 --method single-walker --format csv", 0,
     "4546e43788c98fb45db62e7b988b70eb202b7cc51f7428e180a4a8f5d568ed81", ""),
    ("barrier --a 3 --b 2 --x 1 --p 3/7 --method formula", 0,
     "101d5b5853525c7c479778cbf42c6173d74ea14b60765f2be3d3f41b2697fe84", ""),
    ("barrier --a 1 --b 0 --x 1 --level-file levels.txt --method all", 0,
     "1afa01e4e21da7a6ca980bf301ad4f37c5825d8c27ceeb5da8f3e43a24fbf7ee", ""),
    ("barrier --a 2 --b 1 --x 1 --level-file levels.txt --method formula", 2, EMPTY,
     "error: the closed form needs a constant rate; use dp or single-walker\n"),
    ("barrier --a 1 --b 1 --x 0 --p 0.5", 2, EMPTY,
     "error: '0.5' is not an exact rational; write it as p/q (decimals are rejected)\n"),
    ("barrier --a 1 --b 1 --x 0 --p 7/5", 2, EMPTY,
     "error: probability 7/5 outside [0, 1]\n"),
    ("barrier --a 1 --b 0 --x 0", 2, EMPTY,
     "error: give exactly one of --p RATIONAL or --level-file PATH\n"),
    ("barrier --a 1 --b 0 --x 0 --level-file bad.txt", 2, EMPTY,
     "error: bad.txt:2: 'not-a-rational' is not an exact rational; write it as p/q (decimals are rejected)\n"),
    ("barrier --a -1 --b 0 --x 0 --p 1/2", 2, EMPTY,
     "error: a, b, x must be nonnegative\n"),
    ("barrier --a -1 --b 0 --x 0 --level-file levels.txt", 2, EMPTY,
     "error: a, b, x must be nonnegative\n"),
    ("barrier --a 41 --b 40 --x 40 --p 1/2", 2, EMPTY,
     "error: barrier: a+b+x=121 exceeds the default bound 120; pass --unsafe-nmax 121 to allow it\n"),
    ("barrier --a 41 --b 40 --x 40 --level-file levels.txt --method all", 2, EMPTY,
     "error: barrier: a+b+x=121 exceeds the default bound 120; pass --unsafe-nmax 121 to allow it\n"),
    ("barrier --a 41 --b 40 --x 40 --p 1/2 --method formula", 0,
     "3482826fe7c989fec8c62fec28893b830c34e0c0662a5beb6c43bd8cc4130505", ""),
    ("bijection --r 2 --s 3", 0,
     "da51cfd01ebcca5435575a201e0537b4e1a790fa90474dbb5a5b2b541f256db7", ""),
    ("bijection --r 3 --s 3 --format csv", 0,
     "799c2c563b39b9bd7c70389d7e16632687a17993a058f6e106df9ccb40960aa5", ""),
    ("bijection --r 7 --s 6", 2, EMPTY,
     "error: r + s = 13 exceeds the default bound 12; pass --unsafe-nmax 13 to allow it\n"),
    ("verify --suite theorem1,legendre --nmax 4", 0,
     "8c66a14598961e9e3ae93b70c4b8f95919b4205b910dfd5ce96379918f7c0892", ""),
    ("verify --all --nmax 2 --format csv", 0,
     "0f137fc0bf183a40eb3ef169b463a9332e2a03e26fda35cb172522e16eda731a", ""),
    ("verify --suite none", 0,
     "dd19475cfe60523879ae09497757573b22178a378ca58a5cf29007ff23f4162e", ""),
    ("verify --suite nope", 2, EMPTY,
     "error: unknown suites ['nope']; known: theorem1, recurrence, eq8, wz, barrier, same-start, bijection, nkr, doubling, mrs, fnk, pnk, diag, avg, vandermonde, legendre, series-uk, series-f, series-fk, lagrange, routes\n"),
    ("verify --all --suite nope", 2, EMPTY, "error: give --all or --suite, not both\n"),
    ("verify --all --suite theorem1", 2, EMPTY, "error: give --all or --suite, not both\n"),
    ("verify --suite theorem1,theorem1", 2, EMPTY, "error: suites named more than once: ['theorem1']\n"),
    ("verify --suite theorem1 --suite wz,theorem1", 2, EMPTY,
     "error: suites named more than once: ['theorem1']\n"),
    ("verify --suite none,theorem1", 2, EMPTY, "error: 'none' cannot be combined with suite names\n"),
    ("verify --suite none --suite theorem1", 2, EMPTY, "error: 'none' cannot be combined with suite names\n"),
    ("verify --suite none,none", 2, EMPTY, "error: 'none' cannot be combined with suite names\n"),
]


def _write_level_files(directory: Path) -> None:
    """The level files the GOLDEN rows read, by the names they echo."""
    (directory / "levels.txt").write_text("1/2\n1/3\n2/7\n")
    (directory / "bad.txt").write_text("1/2\nnot-a-rational\n")


def _golden(capsys, line):
    """(exit code, stdout sha256, stderr) of one GOLDEN row run in process."""
    try:
        got_code = main(line.split())
    except SystemExit as exc:  # argparse rejects before main's handlers run
        got_code = exc.code
    out = capsys.readouterr()
    return got_code, hashlib.sha256(out.out.encode()).hexdigest(), out.err


@pytest.fixture
def golden_dir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    _write_level_files(tmp_path)


@pytest.mark.parametrize("line, code, digest, err", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_output(capsys, golden_dir, line, code, digest, err):
    assert _golden(capsys, line) == (code, digest, err)


@pytest.mark.parametrize("line, code, digest, err", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_output_with_every_argv_left_to_argparse(capsys, monkeypatch, golden_dir, line, code, digest, err):
    monkeypatch.setattr(cli, "_parse_plain", lambda tables, argv: None)
    assert _golden(capsys, line) == (code, digest, err)


def test_every_plain_golden_row_is_served_without_argparse(capsys, monkeypatch, golden_dir):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, *args: calls.append(args) or parse_args(self, *args),
    )
    for line, *pinned in (row for row in GOLDEN if row[1] == 0 and "--suite" not in row[0]):
        assert _golden(capsys, line) == tuple(pinned), line
    assert calls == []


# --- golden rows in a fresh interpreter --------------------------------------------


def golden_in_fresh_processes(lines: list[str], workdir: Path) -> list[tuple[int, str, str]]:
    """(exit code, stdout sha256, stderr) of each GOLDEN row run by ``python
    -m pathpairs.cli`` in a new interpreter, four at a time, in ``workdir``
    with the level files. A new interpreter holds only the modules the row
    loads itself, so a command that misses a deferred import fails here,
    though it passes in process."""
    _write_level_files(workdir)
    env = {**os.environ, "PYTHONPATH": str(Path(pathpairs.__file__).parents[1]), "COLUMNS": "80"}

    def fresh(line):
        proc = subprocess.run(
            [sys.executable, "-m", "pathpairs.cli", *line.split()], capture_output=True, cwd=workdir, env=env,
            timeout=120,
        )
        return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode()

    with ThreadPoolExecutor(4) as pool:
        return list(pool.map(fresh, lines))


# One GOLDEN row per command, each run in a fresh interpreter; CI runs every row.
FRESH_GOLDEN = [
    "nkr --n 7 --r 3 --method formula-a",
    "mrs --n 5 --r 1 --s 3 --method all",
    "fnk --n 5 --method all",
    "pnk --n 6 --method all",
    "diag --n 7",
    "avg --n 12",
    "barrier --a 1 --b 0 --x 1 --level-file levels.txt --method all",
    "bijection --r 2 --s 3",
    "verify --suite theorem1,legendre --nmax 4",
]


def test_a_golden_row_of_every_command_in_a_fresh_interpreter(tmp_path):
    commands = sorted(name.removeprefix("cmd_") for name in vars(cli) if name.startswith("cmd_"))
    assert sorted(line.split()[0] for line in FRESH_GOLDEN) == commands
    pinned = {line: (code, digest, err) for line, code, digest, err in GOLDEN}
    assert golden_in_fresh_processes(FRESH_GOLDEN, tmp_path) == [pinned[line] for line in FRESH_GOLDEN]
