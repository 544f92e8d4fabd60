"""Outside-in tracing of pathpairs: timing wrappers on module attributes.

Replacing module attributes is enough to see every layer boundary, because
``verify`` and ``cli`` call ``oracle.X``, ``formulas.X`` and ``series.X``
through the module, ``formulas``, ``series`` and ``bijection`` call their own
functions by global name, and ``cli.build_parser`` looks up ``cmd_*`` when it
runs. ``paths`` is counted, not timed: ``PathNE.from_word`` and
``column_heights`` run once per path inside the correspondence replay.

The binomial helpers ``formulas.binom``/``binom_gen`` and ``Fraction``
arithmetic stay unwrapped so the overhead stays small.

Spans (name, start, end, parent span, op id) are kept in memory and written
out once at the end. A span's self time is its duration minus the durations
of its direct children; a layer's self time sums its spans' self times.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from pathpairs import bijection, cli, formulas, oracle, paths, series, verify

ENUM_FUNCTIONS = ("rect_pair_table", "endpoint_pair_table", "free_pair_table", "same_endpoint_pair_table")
UNWRAPPED = {("formulas", "binom"), ("formulas", "binom_gen")}

MODULES = {
    "oracle": oracle,
    "formulas": formulas,
    "series": series,
    "bijection": bijection,
    "verify": verify,
    "cli": cli,
}

LAYERS = ("oracle.walker", "oracle.enum", "formulas", "series", "bijection", "paths", "verify", "cli")

# Boundary functions reported one by one: <module>.<function>.self_s / .calls
HOT_FUNCTIONS = (
    "oracle.endpoint_probability",
    "oracle.barrier_meet_prob",
    "oracle.rect_pair_table",
    "oracle.endpoint_pair_table",
    "oracle.free_pair_table",
    "oracle.same_endpoint_pair_table",
    "series.rect_pair_power",
    "series.free_pair_series",
    "series.meeting_poly_power",
    "formulas.average_crossings",
    "formulas.same_endpoint_meet_prob",
    "formulas.rect_pair_count_a",
    "formulas.rect_pair_count_b",
    "formulas.endpoint_pair_count",
    "bijection.verify_correspondence",
    "cli.build_parser",
    "cli.emit",
)


def suite_function(suite: str) -> str:
    return "check_" + suite.replace("-", "_")


def layer_of(module: str, function: str) -> str:
    if module == "oracle":
        return "oracle.enum" if function in ENUM_FUNCTIONS else "oracle.walker"
    return module


def public_functions(module) -> list[str]:
    """Module-level functions defined in ``module`` whose names are public."""
    return sorted(
        name
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    )


def per_layer_metrics(suites) -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [
        ("oracle.walker.self_s", "s"),
        ("oracle.walker.calls", "count"),
        ("oracle.walker_steps", "count"),
        ("oracle.walker.distinct_inputs", "count"),
        ("oracle.walker.distinct_ratio", "ratio"),
        ("oracle.enum.self_s", "s"),
        ("oracle.enum.calls", "count"),
        ("oracle.pairs_enumerated", "count"),
        ("oracle.enum.distinct_inputs", "count"),
        ("oracle.enum.distinct_ratio", "ratio"),
        ("series.self_s", "s"),
        ("series.calls", "count"),
        ("series.terms_out", "count"),
        ("series.distinct_inputs", "count"),
        ("series.distinct_ratio", "ratio"),
        ("formulas.self_s", "s"),
        ("formulas.calls", "count"),
        ("formulas.result_bits", "bits"),
        ("bijection.self_s", "s"),
        ("bijection.calls", "count"),
        ("bijection.pairs_replayed", "count"),
        ("paths.calls", "count"),
        ("verify.self_s", "s"),
        ("verify.calls", "count"),
    ]
    out += [(f"verify.{suite}.s", "s") for suite in suites]
    out += [
        ("cli.self_s", "s"),
        ("cli.calls", "count"),
        ("cli.cmd.self_s", "s"),
        ("cli.bytes_out", "bytes"),
    ]
    for name in HOT_FUNCTIONS:
        out += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


def _bits(value) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length() + value.denominator.bit_length()
    return 0


def _terms(value) -> int:
    coeffs = getattr(value, "coeffs", None)
    if isinstance(coeffs, dict):
        return len(coeffs)  # BiSeries drops zero coefficients
    if coeffs is not None:
        return sum(1 for c in coeffs if c)
    if isinstance(value, Fraction):
        return 1 if value else 0
    return 0


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder installed over the pathpairs modules. Off until
    ``enabled`` is set, so set-up and result checks are not traced."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.inputs: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, module in MODULES.items():
            for fn_name in public_functions(module):
                if (module_name, fn_name) in UNWRAPPED:
                    continue
                fn = getattr(module, fn_name)
                self._replace(module, fn_name, self._span_wrapper(fn, module_name, fn_name))
        pathne = paths.PathNE
        from_word = pathne.__dict__["from_word"].__func__
        self._replace(pathne, "from_word", classmethod(self._count_wrapper(from_word, "paths.calls")))
        self._replace(pathne, "column_heights", self._count_wrapper(pathne.column_heights, "paths.calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _after(self, module: str, function: str):
        """Work counter run after a call returns, or None."""
        counts, inputs = self.counts, self.inputs
        layer = layer_of(module, function)
        if function == "endpoint_probability":
            def after(args, kwargs, result):
                steps = _arg(args, kwargs, 1, "steps")
                counts["oracle.walker_steps"] += steps
                inputs["oracle.walker"].append((_arg(args, kwargs, 0, "start"), steps, _arg(args, kwargs, 3, "rate")))
        elif function == "barrier_meet_prob":
            def after(args, kwargs, result):
                c = _arg(args, kwargs, 0, "config")
                counts["oracle.walker_steps"] += c.a + c.b + c.x
        elif function == "same_start_meet_prob":
            def after(args, kwargs, result):
                counts["oracle.walker_steps"] += _arg(args, kwargs, 0, "a") + _arg(args, kwargs, 1, "b") + 1
        elif layer == "oracle.enum":
            def after(args, kwargs, result):
                counts["oracle.pairs_enumerated"] += result.total
                inputs["oracle.enum"].append((function, args))
        elif layer == "series":
            def after(args, kwargs, result):
                counts["series.terms_out"] += _terms(result)
                inputs["series"].append((function, args))
        elif layer == "formulas":
            def after(args, kwargs, result):
                counts["formulas.result_bits"] += _bits(result)
        elif function == "verify_correspondence":
            def after(args, kwargs, result):
                counts["bijection.pairs_replayed"] += result.nonmeeting_count
        else:
            after = None
        return after

    def _span_wrapper(self, fn, module: str, function: str):
        name_id = len(self.names)
        self.names.append(f"{module}.{function}")
        self.layers.append(layer_of(module, function))
        spans, stack = self.spans, self._stack
        after = self._after(module, function)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, key: str):
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            if tracer.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, suites, wall_s: float, bytes_out: int) -> dict[str, float]:
        """Per-layer metrics of the traced pass; ``trace.overhead_s`` needs
        the untraced pass and is added by the caller."""
        selfs = self.self_times()
        fn_self: Counter = Counter()
        fn_total: Counter = Counter()
        fn_calls: Counter = Counter()
        layer_self: Counter = Counter()
        layer_calls: Counter = Counter()
        for (name_id, start, end, _, _), own in zip(self.spans, selfs):
            name = self.names[name_id]
            fn_self[name] += own
            fn_total[name] += end - start
            fn_calls[name] += 1
            layer_self[self.layers[name_id]] += own
            layer_calls[self.layers[name_id]] += 1

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        out["paths.calls"] = self.counts["paths.calls"]
        for key in ("oracle.walker_steps", "oracle.pairs_enumerated", "series.terms_out",
                    "formulas.result_bits", "bijection.pairs_replayed"):
            out[key] = self.counts[key]
        # distinct ratios: distinct inputs per call, with the call count as base
        bases = {
            "oracle.walker": fn_calls["oracle.endpoint_probability"],
            "oracle.enum": layer_calls["oracle.enum"],
            "series": layer_calls["series"],
        }
        for layer, base in bases.items():
            distinct = len({_freeze(key) for key in self.inputs[layer]})
            out[f"{layer}.distinct_inputs"] = distinct
            out[f"{layer}.distinct_ratio"] = distinct / base if base else 0.0
        for suite in suites:
            out[f"verify.{suite}.s"] = fn_total[f"verify.{suite_function(suite)}"]
        out["cli.cmd.self_s"] = sum(v for k, v in fn_self.items() if k.startswith("cli.cmd_"))
        out["cli.bytes_out"] = bytes_out
        for name in HOT_FUNCTIONS:
            out[f"{name}.self_s"] = fn_self[name]
            out[f"{name}.calls"] = fn_calls[name]
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name_id, start, end, parent, op in self.spans:
                handle.write(json.dumps([self.names[name_id], start, end, parent, op]) + "\n")
