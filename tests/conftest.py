"""Shared fixtures.

``cold_memos`` empties every memo the package keeps for the life of a
process, before the test and after it, and hands the test the function that
empties them, so a test that patches code under a memo can start each run
cold. A warm memo returns what an earlier run computed, so without the clear
a perturbed function under it would never run, and a mutant would survive
for no fault of the checks.
"""

from fractions import Fraction

import pytest

from pathpairs import formulas, paths, series, verify


def clear_memos() -> None:
    """Empty the memos of tables, families, censuses, central binomials and
    series chains, and put the binomial-row slots and the last meeting
    probability back to the values ``formulas`` starts with."""
    for memo in (verify._table, paths._family, paths._census, formulas._central_binomial):
        memo.cache_clear()
    series._CHAINS.clear()
    formulas._ROW_MEMO[:] = [(-1, -1, 0)] * formulas._ROW_MEMO_SIZE
    formulas._MEET_MEMO = (0, 0, Fraction(0))


@pytest.fixture
def cold_memos():
    clear_memos()
    yield clear_memos
    clear_memos()
