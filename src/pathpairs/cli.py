"""Command-line surface: tables, probabilities, the correspondence, and the
verification suites, with machine-readable output.

Every numeric result is rendered exactly, as a decimal integer string or a
``numerator/denominator`` rational; the only floating-point fields are the
explicitly ``*_float`` labeled ones. JSON output shares one shape across
commands: ``{"command", "params", "results", "consistency"?}`` where each
result row carries its value(s) and a ``provenance`` naming the computation
route. CSV output emits the same rows with a header line.

The commands with several routes (``nkr``, ``mrs``, ``fnk``, ``pnk`` and
``barrier``) each check their own arguments and name their k range; the
``ROUTES`` table holds their routes, and one runner picks the ``--method``
routes, applies the size cap, builds each route once, tabulates it over the
k range, sets the ``consistency`` flag under ``--method all`` and emits.

The argument parser is built once per process, by the first ``main`` call,
and every later call parses with it. Commands are dispatched by name when
``main`` runs: ``nkr`` calls whatever ``cmd_nkr`` is at that moment, so a
patched or wrapped command function is the one that runs.

Probabilities are accepted only as rational strings like ``1/3`` (or an
integer); decimal notation and zero denominators are rejected so exactness
survives end to end. Exit codes: 0 success, 1 verification failure or
routes that disagree under ``--method all``, 2 usage or range error, 3 an
internal check failed (a closed-form count that is not a nonnegative
integer, or a route that broke its own postcondition: a program bug), 141
when stdout is a pipe the reader closed early. Exact values print in full
however many digits they have. ``verify --timings`` writes each suite's
wall seconds to stderr, so stdout holds the same record with or without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from math import comb

from . import bijection, formulas, oracle, paths, series, verify

# Commands that enumerate pairs refuse n beyond this unless --unsafe-nmax
# raises it; chosen so the defaults stay interactive on desk hardware.
SAFE_ORACLE_N = {"nkr": 12, "mrs": 12, "fnk": 9, "pnk": 10}
SAFE_BIJECTION_TOTAL = 12

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class UsageError(Exception):
    """Bad arguments or out-of-range requests; exits with status 2."""


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise UsageError(
            f"{text!r} is not an exact rational; write it as p/q (decimals are rejected)"
        )
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise UsageError(f"{text!r} has a zero denominator; write it as p/q with q >= 1") from None


def parse_probability(text: str) -> Fraction:
    value = parse_rational(text)
    if not 0 <= value <= 1:
        raise UsageError(f"probability {text} outside [0, 1]")
    return value


def read_level_file(path: str) -> oracle.LevelRate:
    """One rational per line; line m holds the West rate on level m = 1, 2, ...
    Levels beyond the last line reuse its value."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(parse_probability(line))
                except UsageError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read level file {path}: {exc}") from exc
    if not values:
        raise UsageError(f"level file {path} holds no rates")
    return oracle.LevelRate(tuple(values))


def fmt(value) -> str:
    """Exact decimal-integer or numerator/denominator rendering."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit(record: dict, fmt_name: str, row_fields: list[str]) -> None:
    if fmt_name == "json":
        sys.stdout.write(json.dumps(record, indent=2) + "\n")
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(row_fields)
    for row in record["results"]:
        writer.writerow([row.get(field, "") for field in row_fields])


def _limit(default: int, unsafe: int | None) -> int:
    """The size bound in force: ``default``, raised by ``--unsafe-nmax``."""
    if unsafe is not None and unsafe < 0:
        raise UsageError(f"--unsafe-nmax must be nonnegative, got {unsafe}")
    return max(default, unsafe or 0)


def _record(command: str, params: dict, results: list[dict], consistency: bool | None = None) -> dict:
    shown = {k: fmt(v) for k, v in params.items() if v is not None}
    out = {"command": command, "params": shown, "results": results}
    if consistency is not None:
        out["consistency"] = consistency
    return out


# --- the route runner ------------------------------------------------------------


def _rect_series(n: int, r: int, k: int | None):
    """Rectangle counts read off the base-series powers up to the k asked
    for, or up to n - 1 for the whole table, built in one pass."""
    powers = series.rect_pair_powers(n - 1 if k is None else k, n + r)
    return lambda k: powers[k].coeff(n, r)


def _same_endpoint_oracle(n: int, limit: int):
    table = oracle.same_endpoint_pair_table(n, limit=limit)
    denom = comb(2 * n, n)
    return lambda k: (Fraction(table.get(k), denom), table.get(k))


# Route builders of every multi-route command, in the order ``--method all``
# reports them; the ``--method`` choices are these names plus "all". A
# builder takes the command's query and the oracle size limit and returns
# the route's value as a function of k (barrier has no k and is passed
# None). Builders look library functions up through their modules when they
# run, so a patched or traced function is the one that gets called.
ROUTES = {
    "nkr": {
        "formula-a": lambda q, _: partial(formulas.rect_pair_count_a, q.n, q.r),
        "formula-b": lambda q, _: partial(formulas.rect_pair_count_b, q.n, q.r),
        "series": lambda q, _: _rect_series(q.n, q.r, q.k),
        "oracle": lambda q, limit: oracle.rect_pair_table(q.n, q.r, limit=limit).get,
    },
    "mrs": {
        "formula": lambda q, _: partial(formulas.endpoint_pair_count, q.n, q.r, q.s),
        "oracle": lambda q, limit: oracle.endpoint_pair_table(q.n, q.r, q.s, limit=limit).get,
    },
    "fnk": {
        "formula": lambda q, _: partial(formulas.free_pair_count, q.n),
        "oracle": lambda q, limit: oracle.free_pair_table(q.n, limit=limit).get,
    },
    "pnk": {
        "formula": lambda q, _: lambda k: (
            formulas.same_endpoint_meet_prob(q.n, k), formulas.same_endpoint_pair_count(q.n, k)
        ),
        "oracle": lambda q, limit: _same_endpoint_oracle(q.n, limit),
    },
    "barrier": {
        "dp": lambda c, _: lambda _: oracle.barrier_meet_prob(c),
        "single-walker": lambda c, _: lambda _: oracle.endpoint_probability(
            (c.a, c.b + c.x + 1), c.a + c.b + c.x, [(-t, 1 + t) for t in range(c.x + 1)], c.rate
        ),
        "formula": lambda c, _: lambda _: formulas.barrier_meet_formula(c.a, c.b, c.x, c.rate.p),
    },
}

# Routes that enumerate or expand series, and so obey SAFE_ORACLE_N.
_CAPPED_ROUTES = {"series", "oracle"}


def _value_row(k, value) -> dict:
    return {"k": str(k), "value": fmt(value)}


def _run_routes(
    command: str, args, query, ks, params: dict, fields: list[str],
    row=_value_row, covers=lambda route, k: True, fallback: str | None = None,
) -> int:
    """Answer one query: pick the routes ``--method`` names, build each once,
    tabulate them over ``ks``, check that they agree, and emit the record.
    Returns 1 when the routes disagree, after emitting the record.

    ``covers(route, k)`` says whether a route reaches k; under ``all`` a
    route skips the k it misses, and a single method hands it to
    ``fallback``, whose rows carry the fallback's provenance.
    """
    routes = ROUTES[command]
    chosen = list(routes) if args.method == "all" else [args.method]
    plan = {k: [route for route in chosen if covers(route, k)] or [fallback] for k in ks}
    used = {route for names in plan.values() for route in names}
    limit = None
    if command in SAFE_ORACLE_N:
        limit = _limit(SAFE_ORACLE_N[command], args.unsafe_nmax)
        if used & _CAPPED_ROUTES and args.n > limit:
            raise UsageError(
                f"{command}: n={args.n} exceeds the default bound {SAFE_ORACLE_N[command]}; "
                f"pass --unsafe-nmax {args.n} to allow it"
            )
    value_at = {route: build(query, limit) for route, build in routes.items() if route in used}
    results = []
    disagree = []
    for k, names in plan.items():
        values = [(route, value_at[route](k)) for route in names]
        if len({value for _, value in values}) > 1:
            disagree.append(k)
        results += [{**row(k, value), "provenance": route} for route, value in values]
    record = _record(
        command, params, results, consistency=not disagree if args.method == "all" else None
    )
    emit(record, args.format, fields)
    if disagree:
        where = "" if disagree[0] is None else f" at k={disagree[0]}"
        print(
            f"error: {command}: the routes disagree{where} (consistency false); "
            "the record on stdout holds every value",
            file=sys.stderr,
        )
        return 1
    return 0


# --- rectangle counts -------------------------------------------------------


def cmd_nkr(args) -> int:
    n, r = args.n, args.r
    if not 0 <= r <= n or n < 1:
        raise UsageError(f"need n >= 1 and 0 <= r <= n, got n={n}, r={r}")
    ks = [args.k] if args.k is not None else list(range(n))
    if any(k < 0 or k > n - 1 for k in ks):
        raise UsageError(f"meeting count k must lie in [0, {n - 1}]")
    return _run_routes(
        "nkr", args, args, ks, {"n": n, "r": r, "k": args.k, "method": args.method},
        ["k", "value", "provenance"],
        # the top entry is outside the formulas' range
        covers=lambda route, k: k <= n - 2 or not route.startswith("formula"),
        fallback="oracle",
    )


def cmd_mrs(args) -> int:
    n, r, s = args.n, args.r, args.s
    if not 0 <= r <= s <= n or n < 1:
        raise UsageError(f"need n >= 1 and 0 <= r <= s <= n, got n={n}, r={r}, s={s}")
    top = n if r == s else n - 1
    ks = [args.k] if args.k is not None else list(range(top + 1))
    if any(k < 0 or k > top for k in ks):
        raise UsageError(f"meeting count k must lie in [0, {top}]")
    if args.method in ("oracle", "all") and r == s:
        raise UsageError("the enumeration route needs r < s; equal endpoints reduce to nkr")
    return _run_routes(
        "mrs", args, args, ks, {"n": n, "r": r, "s": s, "k": args.k, "method": args.method},
        ["k", "value", "provenance"],
    )


def cmd_fnk(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    ks = [args.k] if args.k is not None else list(range(n + 1))
    if any(k < 0 or k > n for k in ks):
        raise UsageError(f"meeting count k must lie in [0, {n}]")
    denom = 4 ** n
    return _run_routes(
        "fnk", args, args, ks, {"n": n, "k": args.k, "method": args.method},
        ["k", "value", "probability", "provenance"],
        row=lambda k, value: {"k": str(k), "value": fmt(value), "probability": fmt(Fraction(value, denom))},
    )


def cmd_pnk(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    ks = [args.k] if args.k is not None else list(range(n))
    if any(k < 0 or k > n - 1 for k in ks):
        raise UsageError(f"meeting count k must lie in [0, {n - 1}]")
    return _run_routes(
        "pnk", args, args, ks, {"n": n, "k": args.k, "method": args.method},
        ["k", "probability", "count", "provenance"],
        row=lambda k, value: {"k": str(k), "probability": fmt(value[0]), "count": fmt(value[1])},
    )


def cmd_diag(args) -> int:
    n = args.n
    if n < 2:
        raise UsageError("n must be at least 2")
    ks = [args.k] if args.k is not None else list(range(n - 1))
    if any(k < 0 or k > n - 2 for k in ks):
        raise UsageError(f"meeting count k must lie in [0, {n - 2}]")
    results = [
        {"k": str(k), "value": fmt(formulas.same_endpoint_pair_count(n, k)), "provenance": "formula"}
        for k in ks
    ]
    emit(_record("diag", {"n": n, "k": args.k}, results), args.format, ["k", "value", "provenance"])
    return 0


def cmd_avg(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    exact = formulas.average_crossings(n)
    results = [
        {
            "value": fmt(exact),
            "value_float": float(exact),
            "provenance": "formula",
        }
    ]
    emit(_record("avg", {"n": n}, results), args.format, ["value", "value_float", "provenance"])
    return 0


# --- walker probabilities ------------------------------------------------------


def cmd_barrier(args) -> int:
    if (args.p is None) == (args.level_file is None):
        raise UsageError("give exactly one of --p RATIONAL or --level-file PATH")
    if args.p is not None:
        rate = oracle.ConstantRate(parse_probability(args.p))
    else:
        rate = read_level_file(args.level_file)
    config = oracle.BarrierConfig(args.a, args.b, args.x, rate)  # rejects negative a, b, x
    constant = isinstance(rate, oracle.ConstantRate)
    if args.method == "formula" and not constant:
        raise UsageError("the closed form needs a constant rate; use dp or single-walker")
    return _run_routes(
        "barrier", args, config, [None],
        {
            "a": args.a, "b": args.b, "x": args.x,
            "p": args.p, "level_file": args.level_file, "method": args.method,
        },
        ["value", "provenance"],
        row=lambda _, value: {"value": fmt(value)},
        covers=lambda route, _: constant or route != "formula",
    )


# --- correspondence and verification ---------------------------------------------


def cmd_bijection(args) -> int:
    r, s = args.r, args.s
    if r < 1 or s < 1:
        raise UsageError("need r >= 1 and s >= 1")
    if r + s > _limit(SAFE_BIJECTION_TOTAL, args.unsafe_nmax):
        raise UsageError(
            f"r + s = {r + s} exceeds the default bound {SAFE_BIJECTION_TOTAL}; "
            f"pass --unsafe-nmax {r + s} to allow it"
        )
    report = bijection.verify_correspondence(r, s)
    results = []
    for row in report.rows:
        tags = []
        for tag in row.tags:
            label = tag.group
            if tag.north_throughout is not None:
                label += ":aligned" if tag.north_throughout else ":crossed"
            tags.append(label)
        results.append(
            {
                "source": "|".join(row.source.words()),
                "image_1": "|".join(row.images[0].words()),
                "meeting_1": str(row.images[0].meeting_point),
                "tag_1": tags[0],
                "image_2": "|".join(row.images[1].words()),
                "meeting_2": str(row.images[1].meeting_point),
                "tag_2": tags[1],
                "case": row.case,
            }
        )
    record = _record(
        "bijection",
        {"r": r, "s": s},
        results,
        consistency=report.passed,
    )
    record["nonmeeting"] = report.nonmeeting_count
    record["one_meeting"] = report.one_meeting_count
    record["failures"] = list(report.failures)
    emit(
        record, args.format,
        ["source", "image_1", "meeting_1", "tag_1", "image_2", "meeting_2", "tag_2", "case"],
    )
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    if args.nmax is not None and args.nmax < 1:
        raise UsageError(f"--nmax must be at least 1, got {args.nmax}")
    if args.all or not args.suite:
        suites = None
    else:
        names = []
        for chunk in args.suite:
            names.extend(part.strip() for part in chunk.split(",") if part.strip())
        if names == ["none"]:
            names = []
        suites = tuple(names)  # VerifyConfig rejects unknown names
    reports = verify.run_all(verify.VerifyConfig(suites=suites, n_max=args.nmax))
    results = []
    for rep in reports:
        row = {
            "check": rep.check_id,
            "status": "pass" if rep.passed else "FAIL",
            "instances": str(rep.instances),
            "first_failure": json.dumps(rep.first_failure) if rep.first_failure else "",
        }
        results.append(row)
    shown = "all" if suites is None else (",".join(suites) or "none")
    record = _record("verify", {"suites": shown, "nmax": args.nmax}, results)
    ok = all(rep.passed for rep in reports)
    record["consistency"] = ok
    if args.format == "json":
        emit(record, "json", [])
    else:
        emit(record, "csv", ["check", "status", "instances", "first_failure"])
    if args.timings:
        for rep in reports:
            print(f"{rep.check_id} {rep.elapsed_s:.3f}", file=sys.stderr)
    return 0 if ok else 1


# --- argument plumbing ------------------------------------------------------------


def _add_common(sub, oracle_cap: bool = False) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if oracle_cap:
        sub.add_argument(
            "--unsafe-nmax", type=int, default=None,
            help="raise the built-in size bound (expect long runtimes)",
        )


# The one parser of this process, built by the first ``build_parser`` call.
# It holds no command functions and parsing leaves it unchanged, so every
# query can share it.
_PARSER: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the life of the
    process; ``main`` picks each command's ``cmd_*`` by name when it runs."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="pathpairs",
        description="Exact counts and probabilities for pairs of lattice walks, by shared vertices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("nkr", help="corner-to-corner pair counts on a rectangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument(
        "--method", choices=(*ROUTES["nkr"], "all"), default="formula-a",
    )
    _add_common(p, oracle_cap=True)

    p = subs.add_parser("mrs", help="pair counts with two prescribed endpoints")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=(*ROUTES["mrs"], "all"), default="formula")
    _add_common(p, oracle_cap=True)

    p = subs.add_parser("fnk", help="free pair counts by post-origin meetings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=(*ROUTES["fnk"], "all"), default="formula")
    _add_common(p, oracle_cap=True)

    p = subs.add_parser("pnk", help="same-endpoint meeting probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method", choices=(*ROUTES["pnk"], "all"), default="formula")
    _add_common(p, oracle_cap=True)

    p = subs.add_parser("diag", help="same-endpoint pair counts (row sums over all splits)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("avg", help="mean crossing count of free pair walks")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("barrier", help="probability two walkers first meet at the origin")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--p", type=str, default=None, help="constant West rate, e.g. 1/3")
    p.add_argument("--level-file", type=str, default=None, help="one rate per line, level 1 first")
    p.add_argument("--method", choices=(*ROUTES["barrier"], "all"), default="all")
    _add_common(p)

    p = subs.add_parser("bijection", help="replay the 2-to-1 correspondence on a rectangle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_common(p, oracle_cap=True)

    p = subs.add_parser("verify", help="run identity-check suites")
    p.add_argument("--all", action="store_true", help="run every suite (the default)")
    p.add_argument("--suite", action="append", default=None, help="suite name, repeatable; 'none' for an empty run")
    p.add_argument("--nmax", type=int, default=None, help="shrink sweep bounds for a quick run")
    p.add_argument(
        "--timings", action="store_true", help="write one 'suite seconds' line per suite to stderr",
    )
    _add_common(p)

    _PARSER = parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Exact results print in full, past the interpreter's default cap on
    # int-to-decimal conversion; the cap is restored on return because
    # callers may run ``main`` in process.
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        # looked up at call time, so a patched or traced command is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (formulas.IntegralityError, paths.InvariantError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at the null device
        # so the flush at exit cannot raise again, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
