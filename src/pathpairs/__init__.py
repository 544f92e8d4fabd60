"""Exact counting of lattice-walk pairs by shared vertices.

Four independent routes to every quantity -- brute-force enumeration, closed
forms, generating-series coefficients, and executable constructions -- plus
the verification suites that hold them to exact agreement.
"""

from .paths import (
    EAST,
    NORTH,
    InvariantError,
    PathNE,
)
from .oracle import (
    BarrierConfig,
    ConstantRate,
    CountTable,
    LevelRate,
    barrier_meet_prob,
    barrier_survival_table,
    endpoint_distribution,
    endpoint_pair_table,
    endpoint_probability,
    free_pair_table,
    rect_pair_table,
    same_endpoint_pair_table,
    same_start_meet_prob,
)
from .formulas import (
    IntegralityError,
    average_crossings,
    barrier_meet_formula,
    endpoint_pair_count,
    endpoint_pair_count_k0,
    free_pair_count,
    narayana,
    rect_pair_count_a,
    rect_pair_count_b,
    same_endpoint_meet_prob,
    same_endpoint_pair_count,
    same_start_meet_formula,
)
from .bijection import (
    insert_meeting,
    remove_meeting,
    verify_correspondence,
)
from .verify import CheckReport, VerifyConfig, run_all

__version__ = "0.1.0"

__all__ = [
    "EAST",
    "NORTH",
    "InvariantError",
    "PathNE",
    "CountTable",
    "BarrierConfig",
    "ConstantRate",
    "LevelRate",
    "rect_pair_table",
    "endpoint_pair_table",
    "free_pair_table",
    "same_endpoint_pair_table",
    "barrier_meet_prob",
    "barrier_survival_table",
    "same_start_meet_prob",
    "endpoint_distribution",
    "endpoint_probability",
    "IntegralityError",
    "rect_pair_count_a",
    "rect_pair_count_b",
    "narayana",
    "endpoint_pair_count",
    "endpoint_pair_count_k0",
    "free_pair_count",
    "same_endpoint_meet_prob",
    "same_endpoint_pair_count",
    "average_crossings",
    "barrier_meet_formula",
    "same_start_meet_formula",
    "insert_meeting",
    "remove_meeting",
    "verify_correspondence",
    "CheckReport",
    "VerifyConfig",
    "run_all",
]
