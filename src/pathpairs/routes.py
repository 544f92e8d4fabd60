"""The route table: every route by which a command computes its answer, with
the size bound and the k range that route covers, and the plan that says
which routes answer each k of a query.

A query is answered one way, by ``answer``: it plans the routes, hands
their smallest size bound to the caller's ``admit`` check, builds each
route, reads it at every k it answers and compares each later route's
value with the first route's. The command line answers every query it
computes through ``answer``, and ``verify``'s ``routes`` suite answers
every query of its grid there, under ``--method all``, so every route of
every command is held to the others. Each route names the module it
computes in, and ``answer`` imports that module when it builds the route,
so importing the table loads no route module. No route module imports the
table, so the routes stay independent of each other.

A query is the object a route builder reads: the parsed arguments (n, r,
s and k) for the counting commands, n and k for ``diag``, n for ``avg``, an
``oracle.BarrierConfig`` for ``barrier`` and the parsed r and s for
``bijection``. ``diag`` and ``avg`` have one route each, a closed form, and
no ``--method``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from importlib import import_module
from math import comb
from typing import Callable, NamedTuple


class Route(NamedTuple):
    """One route of a command.

    ``module`` names the package module the route computes in, which
    ``answer`` imports and hands to ``build(module, query)``; that returns
    the route's value as a function of k (a command without k passes None).
    Builders look library functions up through the module when they run,
    so a patched or traced function is the one that gets called. ``bound`` is the largest query
    size the route runs by default, in the command's own unit: n, a + b + x
    for ``barrier``, r + s for ``bijection``; None marks a closed form,
    which runs at any size. ``covers(query, k)`` says whether the route
    reaches k: under ``--method all`` a route skips the k it misses, and as
    the one method asked for it hands that k to the route ``fallback``
    names; ``plan`` refuses a query at such a k when ``fallback`` is None.
    """

    module: str
    build: Callable
    bound: int | None = None
    covers: Callable = lambda query, k: True
    fallback: str | None = None


def _rect_series(series, q):
    """Rectangle counts read off the base-series powers up to the k asked
    for, or up to n - 1 for the whole table, built in one pass."""
    powers = series.rect_pair_powers(q.n - 1 if q.k is None else q.k, q.n + q.r)
    return lambda k: powers[k].coeff(q.n, q.r)


def _same_endpoint_oracle(oracle, q):
    table = oracle.same_endpoint_pair_table(q.n)
    denom = comb(2 * q.n, q.n)
    return lambda k: (Fraction(table.get(k), denom), table.get(k))


def _below_top(q, k) -> bool:
    """The top rectangle entry, k = n - 1, is outside the closed forms' range."""
    return k <= q.n - 2


def _constant_rate(c, k) -> bool:
    """The barrier closed form takes a constant rate only."""
    from .oracle import ConstantRate  # already loaded: it built ``c``

    return isinstance(c.rate, ConstantRate)


# Every route of every command, in the order ``--method all`` reports them;
# the ``--method`` choices are these names plus "all".
ROUTES = {
    "nkr": {
        "formula-a": Route(
            "formulas", lambda formulas, q: partial(formulas.rect_pair_count_a, q.n, q.r),
            covers=_below_top, fallback="oracle",
        ),
        "formula-b": Route(
            "formulas", lambda formulas, q: partial(formulas.rect_pair_count_b, q.n, q.r),
            covers=_below_top, fallback="oracle",
        ),
        "series": Route("series", _rect_series, bound=12),
        "oracle": Route("oracle", lambda oracle, q: oracle.rect_pair_table(q.n, q.r).get, bound=12),
    },
    "mrs": {
        "formula": Route("formulas", lambda formulas, q: partial(formulas.endpoint_pair_count, q.n, q.r, q.s)),
        "oracle": Route("oracle", lambda oracle, q: oracle.endpoint_pair_table(q.n, q.r, q.s).get, bound=12),
    },
    "fnk": {
        "formula": Route("formulas", lambda formulas, q: partial(formulas.free_pair_count, q.n)),
        "oracle": Route("oracle", lambda oracle, q: oracle.free_pair_table(q.n).get, bound=9),
    },
    "pnk": {
        "formula": Route("formulas", lambda formulas, q: lambda k: (
            formulas.same_endpoint_meet_prob(q.n, k), formulas.same_endpoint_pair_count(q.n, k)
        )),
        "oracle": Route("oracle", _same_endpoint_oracle, bound=10),
    },
    "diag": {
        "formula": Route("formulas", lambda formulas, q: partial(formulas.same_endpoint_pair_count, q.n)),
    },
    "avg": {
        "formula": Route("formulas", lambda formulas, q: lambda _: formulas.average_crossings(q.n)),
    },
    "barrier": {
        "dp": Route("oracle", lambda oracle, c: lambda _: oracle.barrier_meet_prob(c), bound=120),
        "single-walker": Route("oracle", lambda oracle, c: lambda _: oracle.endpoint_probability(
            (c.a, c.b + c.x + 1), c.a + c.b + c.x, [(-t, 1 + t) for t in range(c.x + 1)], c.rate
        ), bound=120),
        "formula": Route(
            "formulas", lambda formulas, c: lambda _: formulas.barrier_meet_formula(c.a, c.b, c.x, c.rate.p),
            covers=_constant_rate,
        ),
    },
    "bijection": {
        "replay": Route(
            "bijection", lambda bijection, q: lambda _: bijection.verify_correspondence(q.r, q.s), bound=12,
        ),
    },
}

# The largest meeting count each command with a k range reaches; the
# others answer one row, at k None.
K_TOP = {
    "nkr": lambda q: q.n - 1,
    "mrs": lambda q: q.n if q.r == q.s else q.n - 1,
    "fnk": lambda q: q.n,
    "pnk": lambda q: q.n - 1,
    "diag": lambda q: q.n - 2,
}


def k_range(k: int | None, top: int) -> list[int]:
    """The meeting counts a query asks for: every count in [0, top], or
    ``k`` alone once it is checked to lie there."""
    if k is None:
        return list(range(top + 1))
    if not 0 <= k <= top:
        raise ValueError(f"meeting count k must lie in [0, {top}]")
    return [k]


def plan(command: str, method: str, query, k: int | None = None) -> dict:
    """Which routes answer each k a query asks for, as ``{k: [route name,
    ...]}``: under ``method`` "all", every route of ``command`` that covers
    k; otherwise the one method, or its fallback at a k it misses. ``k``
    None asks for the command's whole k range. Raises ``ValueError`` when
    the one method misses a k and names no fallback, so no plan names a
    route that cannot answer."""
    ks = k_range(k, K_TOP[command](query)) if command in K_TOP else [None]
    table = ROUTES[command]
    if method == "all":
        return {k: [name for name, route in table.items() if route.covers(query, k)] for k in ks}
    route = table[method]
    planned = {k: [method if route.covers(query, k) else route.fallback] for k in ks}
    if [None] in planned.values():
        raise ValueError(f"{command}: method {method!r} cannot answer this query and names no fallback")
    return planned


def answer(command: str, method: str, query, k: int | None = None, admit=lambda bound: None):
    """Answer ``query`` of ``command`` by ``method`` at ``k`` (None for the
    whole k range), as ``(values, disagree)``. ``values`` is ``{k: [(route
    name, value), ...]}`` in ``plan`` order; ``disagree`` lists the ``(k,
    route name)`` pairs, in the same order, whose value differs from the
    first route's at that k. ``plan`` runs first, and then ``admit`` is
    called with the smallest ``Route.bound`` among the planned routes (None
    when all are closed forms), so a refusal it raises comes before any route
    is built. Each planned route is then built once, in table order, from
    its module, and read at every k it answers."""
    planned = plan(command, method, query, k)
    asked = {name for names in planned.values() for name in names}
    used = {name: route for name, route in ROUTES[command].items() if name in asked}
    admit(min((route.bound for route in used.values() if route.bound is not None), default=None))
    value_at = {
        name: route.build(import_module(f"{__package__}.{route.module}"), query) for name, route in used.items()
    }
    values = {k: [(name, value_at[name](k)) for name in names] for k, names in planned.items()}
    return values, [(k, name) for k, ((_, first), *rest) in values.items() for name, value in rest if value != first]
