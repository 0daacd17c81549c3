"""Fixtures shared by the test modules."""

import pytest

from scalar_reference import lift_witness, projective_classes
from witness_oracle import reference_witness


@pytest.fixture(scope="session")
def witness_reference():
    """(thm, f) -> the certificate entries of the test oracle, reference_witness.

    The oracle is the per-class pure-Python construction in
    tests/witness_oracle.py, not the library's builder.  Each (thm, f) is
    computed once per session: acceptance test 10 and the batched-builder
    comparisons read the same exhaustive oracle pass.
    """
    cache = {}

    def entries(thm, f):
        if (thm, f) not in cache:
            cache[thm, f] = tuple(
                (y, lift_witness(f, reference_witness(thm, f, y[0], y[1:])))
                for y in projective_classes(f.field, f.m + 1)
            )
        return cache[thm, f]

    return entries
