"""Command-line surface: tables, probabilities, the correspondence, and the
verification suites, with machine-readable output.

Every numeric result is rendered exactly, as a decimal integer string or a
``numerator/denominator`` rational; the only floating-point fields are the
explicitly ``*_float`` labeled ones. JSON output shares one shape across
commands: ``{"command", "params", "results", "consistency"?}`` where each
result row carries its value(s) and a ``provenance`` naming the computation
route. CSV output emits the same rows with a header line.

The commands with several routes (``nkr``, ``mrs``, ``fnk``, ``pnk`` and
``barrier``) each check their own arguments and ask ``routes.plan`` which
routes answer each k; one runner checks the size, tabulates the plan
through ``routes.tabulate``, sets the ``consistency`` flag under ``--method
all`` and emits. The ``--method`` choices are the names in
``routes.ROUTES``.

Cost is bounded here, at the one boundary that takes outside input, and
nowhere in the library. Each route in ``routes.ROUTES`` carries its own
size bound, and ``_check_size`` refuses a query past the smallest bound
among the routes that run unless ``--unsafe-nmax`` (present exactly on the
commands with a bounded route) raises it; a query that runs only closed
forms is never capped.

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

from . import formulas, oracle, paths, routes, verify

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


def emit(record: dict, fmt_name: str, row_fields: list[str]) -> None:
    if fmt_name == "json":
        sys.stdout.write(json.dumps(record, indent=2) + "\n")
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(row_fields)
    for row in record["results"]:
        writer.writerow([row.get(field, "") for field in row_fields])


def _check_size(command: str, planned: dict, unsafe: int | None, size: int, what: str) -> None:
    """Validate ``--unsafe-nmax`` and refuse a ``size`` past the smallest
    ``Route.bound`` among the routes ``planned`` runs, unless
    ``--unsafe-nmax`` raises it; ``what`` names the size in the message."""
    if unsafe is not None and unsafe < 0:
        raise UsageError(f"--unsafe-nmax must be nonnegative, got {unsafe}")
    bounds = [routes.ROUTES[command][name].bound for names in planned.values() for name in names]
    bound = min((b for b in bounds if b is not None), default=None)
    if bound is not None and size > max(bound, unsafe or 0):
        raise UsageError(f"{what} exceeds the default bound {bound}; pass --unsafe-nmax {size} to allow it")


def _record(command: str, params: dict, results: list[dict], consistency: bool | None = None) -> dict:
    shown = {k: str(v) for k, v in params.items() if v is not None}
    out = {"command": command, "params": shown, "results": results}
    if consistency is not None:
        out["consistency"] = consistency
    return out


# --- the route runner ------------------------------------------------------------


def _value_row(k, value) -> dict:
    return {"k": str(k), "value": str(value)}


def _run_routes(
    command: str, args, query, planned: dict, params: dict, row=_value_row, size: tuple[str, int] | None = None,
) -> int:
    """Answer one query by its ``routes.plan``: check the size (``(label,
    value)``, n by default), tabulate the planned routes, check that they
    agree, and emit the record, whose fields are those of a ``row`` and the
    provenance. Returns 1 when the routes disagree, after emitting it."""
    label, value = size or ("n", args.n)
    _check_size(command, planned, args.unsafe_nmax, value, f"{command}: {label}={value}")
    results = []
    disagree = []
    for k, values in routes.tabulate(command, query, planned).items():
        if len({value for _, value in values}) > 1:
            disagree.append(k)
        results += [{**row(k, value), "provenance": route} for route, value in values]
    record = _record(
        command, params, results, consistency=not disagree if args.method == "all" else None
    )
    emit(record, args.format, list(results[0]))
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
    return _run_routes(
        "nkr", args, args, routes.plan("nkr", args.method, args, args.k),
        {"n": n, "r": r, "k": args.k, "method": args.method},
    )


def cmd_mrs(args) -> int:
    n, r, s = args.n, args.r, args.s
    if not 0 <= r <= s <= n or n < 1:
        raise UsageError(f"need n >= 1 and 0 <= r <= s <= n, got n={n}, r={r}, s={s}")
    planned = routes.plan("mrs", args.method, args, args.k)
    if args.method in ("oracle", "all") and r == s:
        raise UsageError("the enumeration route needs r < s; equal endpoints reduce to nkr")
    return _run_routes(
        "mrs", args, args, planned, {"n": n, "r": r, "s": s, "k": args.k, "method": args.method}
    )


def cmd_fnk(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    return _run_routes(
        "fnk", args, args, routes.plan("fnk", args.method, args, args.k),
        {"n": n, "k": args.k, "method": args.method},
        row=lambda k, value: {"k": str(k), "value": str(value), "probability": _over_power_of_two(value, 2 * n)},
    )


def _over_power_of_two(value: int, bits: int) -> str:
    """``str(Fraction(value, 2**bits))``, reduced by shifting out the factors
    of two that value and 2**bits share rather than by a full gcd."""
    shift = min((value & -value).bit_length() - 1, bits) if value else bits
    num, den = value >> shift, 1 << bits - shift
    return str(num) if den == 1 else f"{num}/{den}"


def cmd_pnk(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    return _run_routes(
        "pnk", args, args, routes.plan("pnk", args.method, args, args.k),
        {"n": n, "k": args.k, "method": args.method},
        row=lambda k, value: {"k": str(k), "probability": str(value[0]), "count": str(value[1])},
    )


def cmd_diag(args) -> int:
    n = args.n
    if n < 2:
        raise UsageError("n must be at least 2")
    results = [
        {"k": str(k), "value": str(formulas.same_endpoint_pair_count(n, k)), "provenance": "formula"}
        for k in routes.k_range(args.k, n - 2)
    ]
    emit(_record("diag", {"n": n, "k": args.k}, results), args.format, ["k", "value", "provenance"])
    return 0


def cmd_avg(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    exact = formulas.average_crossings(n)
    results = [{"value": str(exact), "value_float": float(exact), "provenance": "formula"}]
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
    if args.method == "formula" and not isinstance(rate, oracle.ConstantRate):
        raise UsageError("the closed form needs a constant rate; use dp or single-walker")
    return _run_routes(
        "barrier", args, config, routes.plan("barrier", args.method, config),
        {"a": args.a, "b": args.b, "x": args.x, "p": args.p, "level_file": args.level_file, "method": args.method},
        row=lambda _, value: {"value": str(value)},
        size=("a+b+x", args.a + args.b + args.x),
    )


# --- correspondence and verification ---------------------------------------------


def cmd_bijection(args) -> int:
    r, s = args.r, args.s
    if r < 1 or s < 1:
        raise UsageError("need r >= 1 and s >= 1")
    planned = routes.plan("bijection", "replay", args)
    _check_size("bijection", planned, args.unsafe_nmax, r + s, f"r + s = {r + s}")
    ((_, report),) = routes.tabulate("bijection", args, planned)[None]
    results = []
    for row in report.rows:
        # a failed image has no meeting point: JSON null, an empty CSV cell
        meeting = [None if point is None else str(point) for point in row.meeting_points]
        results.append(
            {
                "source": "|".join(row.source_words),
                "image_1": "|".join(row.image_words[0]),
                "meeting_1": meeting[0],
                "tag_1": row.tags[0],
                "image_2": "|".join(row.image_words[1]),
                "meeting_2": meeting[1],
                "tag_2": row.tags[1],
                "case": row.case,
            }
        )
    record = _record("bijection", {"r": r, "s": s}, results, consistency=report.passed)
    record["nonmeeting"] = report.nonmeeting_count
    record["one_meeting"] = report.one_meeting_count
    record["failures"] = list(report.failures)
    emit(
        record, args.format,
        ["source", "image_1", "meeting_1", "tag_1", "image_2", "meeting_2", "tag_2", "case"],
    )
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    if args.all and args.suite:
        raise UsageError("give --all or --suite, not both")
    if not args.suite:
        suites = None
    else:
        names = []
        for chunk in args.suite:
            names.extend(part.strip() for part in chunk.split(",") if part.strip())
        if names == ["none"]:
            names = []
        elif "none" in names:
            raise UsageError("'none' cannot be combined with suite names")
        elif not names:
            raise UsageError("--suite names no suite; give a suite name, or 'none' for an empty run")
        suites = tuple(names)  # VerifyConfig rejects unknown and repeated names
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
    ok = all(rep.passed for rep in reports)
    record = _record("verify", {"suites": shown, "nmax": args.nmax}, results, consistency=ok)
    emit(record, args.format, ["check", "status", "instances", "first_failure"])
    if args.timings:
        for rep in reports:
            print(f"{rep.check_id} {rep.elapsed_s:.3f}", file=sys.stderr)
    return 0 if ok else 1


# --- argument plumbing ------------------------------------------------------------


# The one parser of this process, built by the first ``build_parser`` call.
# It holds no command functions and parsing leaves it unchanged, so every
# query can share it.
_PARSER: argparse.ArgumentParser | None = None


def _add_choice(parser: argparse.ArgumentParser, flag: str, names: tuple, default: str) -> None:
    """Add an option that takes one of ``names``. Its ``type`` rejects any
    other value itself, quoting every choice, so the message is the same on
    every Python version: newer argparse releases list the choices unquoted."""

    def choice(value: str) -> str:
        if value not in names:
            listed = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {listed})")
        return value

    parser.add_argument(flag, choices=names, type=choice, default=default)


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
    _add_choice(p, "--method", (*routes.ROUTES["nkr"], "all"), "formula-a")

    p = subs.add_parser("mrs", help="pair counts with two prescribed endpoints")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _add_choice(p, "--method", (*routes.ROUTES["mrs"], "all"), "formula")

    p = subs.add_parser("fnk", help="free pair counts by post-origin meetings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _add_choice(p, "--method", (*routes.ROUTES["fnk"], "all"), "formula")

    p = subs.add_parser("pnk", help="same-endpoint meeting probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _add_choice(p, "--method", (*routes.ROUTES["pnk"], "all"), "formula")

    p = subs.add_parser("diag", help="same-endpoint pair counts (row sums over all splits)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = subs.add_parser("avg", help="mean crossing count of free pair walks")
    p.add_argument("--n", type=int, required=True)

    p = subs.add_parser("barrier", help="probability two walkers first meet at the origin")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--p", type=str, default=None, help="constant West rate, e.g. 1/3")
    p.add_argument("--level-file", type=str, default=None, help="one rate per line, level 1 first")
    _add_choice(p, "--method", (*routes.ROUTES["barrier"], "all"), "all")

    p = subs.add_parser("bijection", help="replay the 2-to-1 correspondence on a rectangle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = subs.add_parser("verify", help="run identity-check suites")
    p.add_argument("--all", action="store_true", help="run every suite (the default)")
    p.add_argument("--suite", action="append", default=None, help="suite name, repeatable; 'none' for an empty run")
    p.add_argument("--nmax", type=int, default=None, help="shrink sweep bounds for a quick run")
    p.add_argument(
        "--timings", action="store_true", help="write one 'suite seconds' line per suite to stderr",
    )

    # added last, so they close every usage line
    for name, sub in subs.choices.items():
        _add_choice(sub, "--format", ("json", "csv"), "json")
        if any(route.bound is not None for route in routes.ROUTES.get(name, {}).values()):
            sub.add_argument(
                "--unsafe-nmax", type=int, default=None,
                help="raise the built-in size bound (expect long runtimes)",
            )

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
