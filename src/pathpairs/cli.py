"""Command-line surface: tables, probabilities, the correspondence, and the
verification suites, with machine-readable output.

Every numeric result is rendered exactly, as a decimal integer string or a
``numerator/denominator`` rational; the only floating-point fields are the
explicitly ``*_float`` labeled ones. JSON output shares one shape across
commands: ``{"command", "params", "results", "consistency"?}`` where each
result row carries its value(s) and a ``provenance`` naming the computation
route. It has exactly the bytes of ``json.dumps(record, indent=2)`` and a
newline, written row by row rather than built as one string: the writer
lays out the lines, and ``json`` spells every key and value. CSV output
emits the same rows with a header line.

Every command that computes a table or a value (``nkr``, ``mrs``, ``fnk``,
``pnk``, ``diag``, ``avg`` and ``barrier``) checks its own arguments and
hands them to one runner. The runner has ``routes.answer`` answer the
query, under ``--method`` or, for ``diag`` and ``avg``, which have none, the
command's one route, with ``_check_size`` as its size check; it sets the
``consistency`` flag under ``--method all`` from the routes ``answer``
finds in disagreement, and emits. The ``--method`` choices are the names in
``routes.ROUTES``. A record's params are the parsed options in option
order, less the command, ``--format`` and ``--unsafe-nmax``, and its CSV
header is its first row's keys; ``verify`` states both itself, as its
empty run has no row.

Cost is bounded here, at the one boundary that takes outside input, and
nowhere in the library. Each route in ``routes.ROUTES`` carries its own
size bound, and ``_check_size`` refuses a query past the smallest bound
among the routes that run unless ``--unsafe-nmax`` (present exactly on the
commands with a bounded route) raises it; a query that runs only closed
forms is never capped.

The argument parser is built once per process, by the first ``main`` call,
and every later call parses with it. The same build keeps, for each
command, a table from option string to the action its ``add_argument``
call returned. A plain query, ``COMMAND (--flag VALUE | --switch)...`` with
exact option strings, is read from that table through each action's own
``type``, ``choices``, ``required`` and ``default`` into the namespace
argparse would return, at about a tenth of argparse's cost; any other
command line, help and every rejection included, goes to argparse, which
alone writes help, usage and error text. Commands are dispatched by name
when ``main`` runs: ``nkr`` calls whatever ``cmd_nkr`` is at that moment,
so a patched or wrapped command function is the one that runs.

A command loads only the modules it runs. This module imports ``paths`` and
``routes`` alone, and neither loads a route module, so parsing the arguments
loads none. ``routes.answer`` imports the modules of the routes a query
runs, and ``barrier`` and ``verify`` import ``oracle`` or ``verify`` when
they run. Both errors that exit 3 are defined in ``paths``.

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
from json.encoder import encode_basestring_ascii

from . import paths, routes

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


def read_level_file(path: str):
    """The ``oracle.LevelRate`` a file holds: one rational per line; line m
    holds the West rate on level m = 1, 2, ... Levels beyond the last line
    reuse its value. A leading UTF-8 byte-order mark is skipped."""
    from . import oracle

    values = []
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(parse_probability(line))
                except UsageError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read level file {path}: {exc}") from exc
    if not values:
        raise UsageError(f"level file {path} holds no rates")
    return oracle.LevelRate(tuple(values))


def _write_json(value, write, pad: str = "\n") -> None:
    """Pass ``json.dumps(value, indent=2)`` to ``write`` in pieces, one per
    key or row; ``pad`` is the newline and indent of ``value``'s own line.
    This function only lays out the lines: ``json`` spells every key and
    value, strings through its C string encoder and any other leaf through
    ``json.dumps``. A list's rows that hold the first row's keys in its
    order, and only strings, go out through one ``%`` template built for
    the list."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, write, inner)
            sep = "," + inner
        write(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        first = value[0]
        keys = tuple(first) if type(first) is dict and first else None
        if keys is not None:
            quoted = (encode_basestring_ascii(key).replace("%", "%%") for key in keys)
            row = "%s{" + ",".join(f"{inner}  {key}: %s" for key in quoted) + inner + "}"
        sep = inner
        write("[")
        for item in value:
            text = None
            if type(item) is dict and tuple(item) == keys:
                try:
                    text = row % (sep, *map(encode_basestring_ascii, item.values()))
                except TypeError:  # a value that is not a str
                    pass
            if text is None:
                write(sep)
                _write_json(item, write, inner)
            else:
                write(text)
            sep = "," + inner
        write(pad + "]")
    else:
        write(encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value))


def emit(record: dict, fmt_name: str, row_fields: list[str] | None = None) -> None:
    """Write ``record`` to stdout as JSON, or its rows as CSV under the
    header ``row_fields``, by default the first row's keys."""
    if fmt_name == "json":
        write = sys.stdout.write
        _write_json(record, write)
        write("\n")
        return
    writer = csv.writer(sys.stdout)
    if row_fields is None:
        row_fields = list(record["results"][0])
    writer.writerow(row_fields)
    for row in record["results"]:
        writer.writerow([row.get(field, "") for field in row_fields])


def _check_size(args, size: int, what: str, bound: int | None) -> None:
    """Refuse a negative ``--unsafe-nmax``, and then a query whose ``size``
    is past ``bound``, the smallest ``Route.bound`` among the routes it runs
    (None for closed forms only), unless ``--unsafe-nmax`` raises it;
    ``what`` names the size in the message. ``routes.answer`` calls it, as
    its ``admit``, before it builds a route."""
    unsafe = getattr(args, "unsafe_nmax", None)
    if unsafe is not None and unsafe < 0:
        raise UsageError(f"--unsafe-nmax must be nonnegative, got {unsafe}")
    if bound is not None and size > max(bound, unsafe or 0):
        raise UsageError(f"{what} exceeds the default bound {bound}; pass --unsafe-nmax {size} to allow it")


def _record(args, results: list[dict], consistency: bool | None = None, params: dict | None = None) -> dict:
    """The record of one query of ``args.command``. Its params are
    ``params``, by default every parsed option of ``args`` but the command,
    the output format and the size override, in option order; an option
    that is None is left out."""
    shown = {
        key: str(value)
        for key, value in (vars(args) if params is None else params).items()
        if value is not None and key not in ("command", "format", "unsafe_nmax")
    }
    out = {"command": args.command, "params": shown, "results": results}
    if consistency is not None:
        out["consistency"] = consistency
    return out


# --- the route runner ------------------------------------------------------------


def _value_row(k, value) -> dict:
    return {"k": str(k), "value": str(value)}


def _run_routes(args, query=None, row=_value_row, size: tuple[str, int] | None = None) -> int:
    """Answer one query of ``args.command`` through ``routes.answer``, read
    from ``query`` (``args`` by default), under ``--method`` or else the
    command's one route, its size (``(label, value)``, n by default) checked
    by ``_check_size``, and emit the record, whose fields are those of a
    ``row`` and the provenance. Returns 1 when the routes disagree, after
    emitting it."""
    command, query = args.command, args if query is None else query
    method = getattr(args, "method", None) or next(iter(routes.ROUTES[command]))
    label, amount = size or ("n", args.n)
    admit = partial(_check_size, args, amount, f"{command}: {label}={amount}")
    answered, disagree = routes.answer(command, method, query, getattr(args, "k", None), admit)
    results = [
        {**row(k, value), "provenance": route} for k, values in answered.items() for route, value in values
    ]
    emit(_record(args, results, consistency=not disagree if method == "all" else None), args.format)
    if disagree:
        where = "" if disagree[0][0] is None else f" at k={disagree[0][0]}"
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
    return _run_routes(args)


def cmd_mrs(args) -> int:
    n, r, s = args.n, args.r, args.s
    if not 0 <= r <= s <= n or n < 1:
        raise UsageError(f"need n >= 1 and 0 <= r <= s <= n, got n={n}, r={r}, s={s}")
    if args.method in ("oracle", "all") and r == s:
        routes.k_range(args.k, routes.K_TOP["mrs"](args))  # a k out of range is refused first
        raise UsageError("the enumeration route needs r < s; equal endpoints reduce to nkr")
    return _run_routes(args)


def cmd_fnk(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    return _run_routes(
        args,
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
        args, row=lambda k, value: {"k": str(k), "probability": str(value[0]), "count": str(value[1])},
    )


def cmd_diag(args) -> int:
    if args.n < 2:
        raise UsageError("n must be at least 2")
    return _run_routes(args)


def cmd_avg(args) -> int:
    if args.n < 0:
        raise UsageError("n must be nonnegative")
    return _run_routes(args, row=lambda _, value: {"value": str(value), "value_float": float(value)})


# --- walker probabilities ------------------------------------------------------


def cmd_barrier(args) -> int:
    if (args.p is None) == (args.level_file is None):
        raise UsageError("give exactly one of --p RATIONAL or --level-file PATH")
    from . import oracle

    if args.p is not None:
        rate = oracle.ConstantRate(parse_probability(args.p))
    else:
        rate = read_level_file(args.level_file)
    config = oracle.BarrierConfig(args.a, args.b, args.x, rate)  # rejects negative a, b, x
    if args.method == "formula" and not isinstance(rate, oracle.ConstantRate):
        raise UsageError("the closed form needs a constant rate; use dp or single-walker")
    return _run_routes(
        args, config, row=lambda _, value: {"value": str(value)}, size=("a+b+x", args.a + args.b + args.x),
    )


# --- correspondence and verification ---------------------------------------------


def cmd_bijection(args) -> int:
    r, s = args.r, args.s
    if r < 1 or s < 1:
        raise UsageError("need r >= 1 and s >= 1")
    admit = partial(_check_size, args, r + s, f"r + s = {r + s}")
    ((_, report),) = routes.answer("bijection", "replay", args, admit=admit)[0][None]
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
    record = _record(args, results, consistency=report.passed)
    record["nonmeeting"] = report.nonmeeting_count
    record["one_meeting"] = report.one_meeting_count
    record["failures"] = list(report.failures)
    emit(record, args.format)
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
    from . import verify

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
    record = _record(args, results, consistency=ok, params={"suites": shown, "nmax": args.nmax})
    emit(record, args.format, ["check", "status", "instances", "first_failure"])
    if args.timings:
        for rep in reports:
            print(f"{rep.check_id} {rep.elapsed_s:.3f}", file=sys.stderr)
    return 0 if ok else 1


# --- argument plumbing ------------------------------------------------------------


# The one parser of this process and each command's table from option
# string to the action that ``add_argument`` returned for it, both built by
# the first ``build_parser`` call. Neither holds a command function and
# parsing changes neither, so every query can share them.
_PARSER: tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]] | None = None


def _forget_parser() -> None:
    global _PARSER
    _PARSER = None


paths.MEMOS.setdefault("cli._PARSER", _forget_parser)


def _add_choice(add, flag: str, names: tuple, default: str) -> None:
    """Add, through ``add``, an option that takes one of ``names``. Its
    ``type`` rejects any other value itself, quoting every choice, so the
    message is the same on every Python version: newer argparse releases
    list the choices unquoted."""

    def choice(value: str) -> str:
        if value not in names:
            listed = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {listed})")
        return value

    add(flag, choices=names, type=choice, default=default)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the life of the
    process; ``main`` picks each command's ``cmd_*`` by name when it runs.
    The same call builds each command's option table, which ``main`` reads
    through ``_parse_plain``."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER[0]
    parser = argparse.ArgumentParser(
        prog="pathpairs",
        description="Exact counts and probabilities for pairs of lattice walks, by shared vertices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    tables: dict[str, dict[str, argparse.Action]] = {}
    adders = {}

    def command(name: str, help: str):
        """Add the command ``name``; returns its ``add_argument`` for one
        flag, which also enters the action in the command's table."""
        sub, table = subs.add_parser(name, help=help), tables.setdefault(name, {})

        def add(flag: str, **kwargs) -> None:
            table[flag] = sub.add_argument(flag, **kwargs)

        adders[name] = add
        return add

    add = command("nkr", "corner-to-corner pair counts on a rectangle")
    add("--n", type=int, required=True)
    add("--r", type=int, required=True)
    add("--k", type=int, default=None)
    _add_choice(add, "--method", (*routes.ROUTES["nkr"], "all"), "formula-a")

    add = command("mrs", "pair counts with two prescribed endpoints")
    add("--n", type=int, required=True)
    add("--r", type=int, required=True)
    add("--s", type=int, required=True)
    add("--k", type=int, default=None)
    _add_choice(add, "--method", (*routes.ROUTES["mrs"], "all"), "formula")

    add = command("fnk", "free pair counts by post-origin meetings")
    add("--n", type=int, required=True)
    add("--k", type=int, default=None)
    _add_choice(add, "--method", (*routes.ROUTES["fnk"], "all"), "formula")

    add = command("pnk", "same-endpoint meeting probabilities")
    add("--n", type=int, required=True)
    add("--k", type=int, default=None)
    _add_choice(add, "--method", (*routes.ROUTES["pnk"], "all"), "formula")

    add = command("diag", "same-endpoint pair counts (row sums over all splits)")
    add("--n", type=int, required=True)
    add("--k", type=int, default=None)

    add = command("avg", "mean crossing count of free pair walks")
    add("--n", type=int, required=True)

    add = command("barrier", "probability two walkers first meet at the origin")
    add("--a", type=int, required=True)
    add("--b", type=int, required=True)
    add("--x", type=int, required=True)
    add("--p", type=str, default=None, help="constant West rate, e.g. 1/3")
    add("--level-file", type=str, default=None, help="one rate per line, level 1 first")
    _add_choice(add, "--method", (*routes.ROUTES["barrier"], "all"), "all")

    add = command("bijection", "replay the 2-to-1 correspondence on a rectangle")
    add("--r", type=int, required=True)
    add("--s", type=int, required=True)

    add = command("verify", "run identity-check suites")
    add("--all", action="store_true", help="run every suite (the default)")
    add("--suite", action="append", default=None, help="suite name, repeatable; 'none' for an empty run")
    add("--nmax", type=int, default=None, help="shrink sweep bounds for a quick run")
    add(
        "--timings", action="store_true", help="write one 'suite seconds' line per suite to stderr",
    )

    # added last, so they close every usage line
    for name, add in adders.items():
        _add_choice(add, "--format", ("json", "csv"), "json")
        if any(route.bound is not None for route in routes.ROUTES.get(name, {}).values()):
            add(
                "--unsafe-nmax", type=int, default=None,
                help="raise the built-in size bound (expect long runtimes)",
            )

    _PARSER = parser, tables
    return parser


def _parse_plain(tables: dict[str, dict[str, argparse.Action]], argv) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, read from the command's
    table, for an ``argv`` of the plain form ``COMMAND (--flag VALUE |
    --switch)...``: exact option strings, each given at most once, every
    required flag present, and each value nonempty, not starting with
    ``-`` and accepted by its action's ``type`` and ``choices``. None for
    any other argv, such as help, ``--n=5``, an abbreviation, a repeat or
    ``--suite``, which ``parse_args`` then parses itself, so argparse alone
    writes every help, usage and error message."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = table.get(token)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:  # a switch stores its constant
            given[action.dest] = action.const
            continue
        value = next(tokens, "")
        # an option without a ``type`` is ``--suite``, which appends
        if action.type is None or not value or value[0] == "-":
            return None
        try:
            value = action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command=argv[0])
    for action in table.values():
        if action.dest in given:
            value = given[action.dest]
        elif action.required:
            return None
        else:
            value = action.default
            if isinstance(value, str) and action.type is not None:  # as argparse converts a string default
                value = action.type(value)
        setattr(args, action.dest, value)
    return args


def main(argv=None) -> int:
    """Run one command line, ``argv`` or else ``sys.argv[1:]``, and return
    its exit code. A plain query is parsed from its command's option table
    by ``_parse_plain``; any other command line, help and every rejection
    included, goes to argparse's ``parse_args``. Either gives the same
    namespace, and the command it names runs."""
    parser = build_parser()
    # Exact results print in full, past the interpreter's default cap on
    # int-to-decimal conversion; the cap is restored on return because
    # callers may run ``main`` in process.
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _parse_plain(_PARSER[1], sys.argv[1:] if argv is None else argv)
        if args is None:
            args = parser.parse_args(argv)
        # looked up at call time, so a patched or traced command is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (paths.IntegralityError, paths.InvariantError) as exc:
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
