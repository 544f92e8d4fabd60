"""Shared fixtures.

``cold_memos`` empties every memo the package keeps for the life of a
process, before the test and after it, and hands the test the function that
empties them, so a test that patches code under a memo can start each run
cold. A warm memo returns what an earlier run computed, so without the clear
a perturbed function under it would never run, and a mutant would survive
for no fault of the checks. The memos are those in ``paths.MEMOS``, where
each registers itself; ``tests/test_memos.py`` checks that none is missing.
"""

import pytest

from pathpairs import paths


def clear_memos() -> None:
    """Empty every registered memo, putting each back to the value it holds
    when its module is first imported."""
    for clear in paths.MEMOS.values():
        clear()


@pytest.fixture
def cold_memos():
    clear_memos()
    yield clear_memos
    clear_memos()
