"""Fixtures shared by the test modules."""

import pytest

from minicode.minimality import projective_classes
from minicode.witness import lift_witness, theorem_witness


@pytest.fixture(scope="session")
def witness_reference():
    """(thm, f) -> the certificate entries of the per-class reference, theorem_witness.

    Each (thm, f) is computed once per session: acceptance test 10 and the
    batched-builder comparisons read the same exhaustive reference pass.
    """
    cache = {}

    def entries(thm, f):
        if (thm, f) not in cache:
            cache[thm, f] = tuple(
                (y, lift_witness(f, theorem_witness(thm, f, y[0], y[1:], _validated=True)))
                for y in projective_classes(f.field, f.m + 1)
            )
        return cache[thm, f]

    return entries
