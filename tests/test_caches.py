"""The tables kept per (q, k), (q, m) or field: shared read-only arrays, and
results that do not depend on what the caches hold."""

import random

import numpy as np
import pytest

import minicode.code as code_mod
import minicode.families as families_mod
import minicode.linalg as linalg_mod
from minicode.code import (
    DefiningSet,
    defining_set,
    linearity_check,
    scan_order,
    weight_distribution,
)
from minicode.errors import GuardError
from minicode.families import FunctionSpec, MonomialSum, TableFunction, paper_presets
from minicode.gf import field_by_order, make_field
from minicode.linalg import np_class_chunks, np_class_reps, np_indices, np_point_chunks, np_points
from minicode.minimality import (
    dhz_criterion,
    is_minimal_definition,
    rank_criterion_code,
    verify_certificate,
)

CACHES = (linalg_mod.np_points, linalg_mod.np_point_chunks, linalg_mod._class_reps,
          linalg_mod._class_chunks, linalg_mod._count_index, families_mod._powers,
          code_mod.scan_order)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def test_cached_arrays_are_shared_and_read_only():
    F3 = field_by_order(3)
    arrays = [np_points(3, 4), np_point_chunks(F3, 4), np_class_reps(3, 4),
              np_class_reps(3, 4, 5, 20), np_class_chunks(F3, 4), np_class_chunks(F3, 4, 5, 20),
              linalg_mod._count_index(F3, 0), linalg_mod._count_index(F3, 1),
              linalg_mod._count_index(F3, 3), families_mod._powers(F3, 5), scan_order(80),
              F3.np_chunks.minus, F3.np_chunks.mulq]
    for A in arrays:
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[(0,) * A.ndim] = 1
    # one array per key: a range past the last class is the whole list
    assert np_class_reps(3, 4) is np_class_reps(3, 4, 0, 10**9)
    assert np_class_chunks(F3, 4) is np_class_chunks(F3, 4, 0, None)
    assert np_points(3, 4) is np_points(3, 4)
    assert np_class_reps(3, 4).dtype == np_points(3, 4).dtype == F3.element_dtype


def test_narrow_cached_arrays_meet_int_scalars_without_wrapping():
    # the cached tables hold elements in the narrowest type, uint16 at q = 257;
    # the kernels that meet them with a Python int form the result wide, as
    # NumPy 1's value-based casting would otherwise wrap it in that type
    F = make_field(257)
    points = np_points(257, 2)
    assert points.dtype == np.uint16
    assert np_indices(257, points).tolist() == list(range(257**2))  # past 2^16
    reps = np_class_reps(257, 2)
    assert F.vmul(reps, 256).tolist() == [[F.mul(256, a) for a in y] for y in reps.tolist()]
    F3 = field_by_order(3)
    reps = np_class_reps(3, 6)
    assert reps.dtype == np.uint8
    assert F3.vadd(reps, 2).tolist() == [[F3.add(a, 2) for a in y] for y in reps.tolist()]
    assert F3.vmul(2, np_points(3, 6)).tolist() == [
        [F3.mul(2, a) for a in x] for x in np_points(3, 6).tolist()]


def outcome(field, k, rows, f=None):
    """What the cached tables feed, on a D built afresh so that it holds no cached property."""
    D = DefiningSet(field, k, rows)
    small = field.q ** (k + 1) <= 2**20  # the count transform holds q^(k+1) values
    out = {}

    def run(name, fn):
        try:
            out[name] = fn()
        except GuardError as exc:
            out[name] = ("GuardError", str(exc))

    def rank():
        report = rank_criterion_code(D)
        if not report.is_minimal:
            return report
        classes = report.witness.classes
        return (classes.reps.dtype, classes.reps.tolist(), classes.entries.dtype,
                classes.entries.tolist(), verify_certificate(D, report.witness))

    if small:
        run("wdist", lambda: weight_distribution(D))
        run("dhz", lambda: dhz_criterion(D))
    run("definition", lambda: is_minimal_definition(D))
    run("rank", rank)
    if f is not None:
        out["linear"] = linearity_check(f)
        out["rows"] = defining_set(f).vectors.tolist()
        out["at"] = f.at(np_points(field.q, f.m)).tolist()
    return out


def codes():
    """Every preset and seeded small codes over F_2, F_3, F_4, F_8, F_9 and F_257."""
    out = []
    for name, preset in sorted(paper_presets().items()):
        f = preset.function
        out.append((name, f.field, f.m + 1, defining_set(f).vectors, f))
    rng = random.Random(97)
    for q, m, count in ((2, 3, 3), (2, 4, 2), (3, 2, 2), (3, 3, 2), (4, 2, 2), (8, 2, 1),
                        (9, 2, 1), (257, 1, 2)):
        field = field_by_order(q)
        for i in range(count):
            f = FunctionSpec(field, m, TableFunction(tuple(rng.randrange(q) for _ in range(q**m))))
            out.append((f"F{q}^{m}#{i}", field, m + 1, defining_set(f).vectors, f))
    F3 = field_by_order(3)
    powers = MonomialSum(((1, (2, 1, 0)), (2, (0, 5, 7))))  # power tables for b = 1, 2, 5, 7
    f = FunctionSpec(F3, 3, powers)
    out.append(("F3^3 monomials", F3, 4, defining_set(f).vectors, f))
    return out


def test_results_do_not_depend_on_the_cache_state():
    # every cache cleared before each code, then warm in the same order, then
    # warm again in reverse order, so that other (q, k) pass between two
    # visits of one; certificates keep their values and dtypes
    cases = codes()
    cold = {}
    for name, field, k, rows, f in cases:
        clear_caches()
        cold[name] = outcome(field, k, rows, f)
    assert any(isinstance(o["rank"], tuple) for o in cold.values())  # some certificates
    assert any(not isinstance(o["rank"], tuple) for o in cold.values())  # and some failures
    for order in (cases, cases[::-1]):
        for name, field, k, rows, f in order:
            assert outcome(field, k, rows, f) == cold[name], name
