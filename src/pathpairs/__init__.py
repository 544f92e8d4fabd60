"""Exact counting of lattice-walk pairs by shared vertices.

Four independent routes to every quantity -- brute-force enumeration, closed
forms, generating-series coefficients, and executable constructions -- plus
the verification suites that hold them to exact agreement.

Importing the package loads none of its modules. Each name in ``__all__``
is looked up in the module that defines it, which ``__getattr__`` imports
on first access (PEP 562), so a command-line query loads only the modules
it runs. The name is not kept in the package's globals: every access reads
the defining module, and ``pathpairs.X is module.X`` always holds.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, in ``__all__`` order, with the module that defines it.
_EXPORTS = {
    "EAST": "paths",
    "NORTH": "paths",
    "InvariantError": "paths",
    "PathNE": "paths",
    "CountTable": "oracle",
    "BarrierConfig": "oracle",
    "ConstantRate": "oracle",
    "LevelRate": "oracle",
    "rect_pair_table": "oracle",
    "endpoint_pair_table": "oracle",
    "free_pair_table": "oracle",
    "same_endpoint_pair_table": "oracle",
    "barrier_meet_prob": "oracle",
    "barrier_survival_table": "oracle",
    "same_start_meet_prob": "oracle",
    "endpoint_distribution": "oracle",
    "endpoint_probability": "oracle",
    "IntegralityError": "paths",
    "rect_pair_count_a": "formulas",
    "rect_pair_count_b": "formulas",
    "narayana": "formulas",
    "endpoint_pair_count": "formulas",
    "endpoint_pair_count_k0": "formulas",
    "free_pair_count": "formulas",
    "same_endpoint_meet_prob": "formulas",
    "same_endpoint_pair_count": "formulas",
    "average_crossings": "formulas",
    "barrier_meet_formula": "formulas",
    "same_start_meet_formula": "formulas",
    "insert_meeting": "bijection",
    "remove_meeting": "bijection",
    "verify_correspondence": "bijection",
    "CheckReport": "verify",
    "VerifyConfig": "verify",
    "run_all": "verify",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
