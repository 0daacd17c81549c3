"""Witness bases: lemma-level constructions and the per-theorem cases."""

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest

import minicode.linalg as linalg_mod
import minicode.witness as witness_mod
from minicode.code import defining_set
from minicode.errors import ConstructionError
from minicode.families import (
    ComplementThreshold,
    FunctionSpec,
    MaioranaMcFarland,
    MonomialSum,
    TableFunction,
    TheoremId,
    WeightThreshold,
    get_preset,
    paper_presets,
    validate_hypotheses,
)
from minicode.gf import field_by_order, make_field
from minicode.linalg import (
    dot,
    index_to_vector,
    scale,
    weight,
)
from minicode.minimality import normalize_class, verify_certificate
from minicode.witness import theorem_witness, witness_certificate
from scalar_reference import (
    EchelonBasis,
    full_weight_basis,
    hyperplane_low_weight_basis,
    lift_witness,
    linear_system_solutions,
    projective_classes,
    rank,
    reference_value,
    unit_inner_basis,
    unit_vector,
    vector_to_index,
)
from witness_oracle import reference_witness, vec_sub

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def test_full_weight_basis_all_small_fields():
    for q in (2, 3, 4, 5, 7):
        field = field_by_order(q)
        for m in range(1, 9):
            if q == 2 and m < 2:
                continue
            wb = full_weight_basis(field, m)
            assert rank(field, wb.vectors) == m
            if q >= 3:
                assert all(weight(v) == m for v in wb.vectors)
            elif m % 2 == 0:
                assert all(weight(v) >= m - 1 for v in wb.vectors)
            else:
                assert all(weight(v) >= m - 2 for v in wb.vectors)


def test_full_weight_basis_examples():
    # q = 5, m = 3, b = 2: rows (1,-1,-1), (-1,1,-1), (-1,-1,1)
    wb = full_weight_basis(F5, 3)
    assert wb.vectors == ((1, 4, 4), (4, 1, 4), (4, 4, 1))
    # q = 2, m = 4: zero diagonal, ones elsewhere, weights m-1
    wb2 = full_weight_basis(F2, 4)
    assert all(weight(v) == 3 for v in wb2.vectors)
    # q = 3, m = 5 (5 = 2 mod 3): the special first-row-all-(-1) matrix
    wb3 = full_weight_basis(F3, 5)
    assert wb3.vectors[0] == (2, 2, 2, 2, 2)
    assert rank(F3, wb3.vectors) == 5


def test_full_weight_basis_rejects_q2_m1():
    with pytest.raises(ValueError):
        full_weight_basis(F2, 1)


def test_case1_rows_are_the_full_weight_basis():
    # the builder's closed-form A1 and A2 case-1 rows are the lemma's basis on
    # every branch of its formula, also at (q, m) no preset or seeded spec has
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_by_order(q)
        thm = TheoremId.A2 if q == 2 else TheoremId.A1
        for m in range(2 if q == 2 else 1, 9):
            rows = witness_mod._case1_vectors(thm, SimpleNamespace(field=field, m=m))
            assert tuple(map(tuple, rows.tolist())) == full_weight_basis(field, m).vectors, (q, m)


def test_unit_inner_basis_examples_and_randoms():
    wb = unit_inner_basis(F3, (1, 0, 0))
    assert wb.vectors[0] == (1, 0, 0)
    assert all(dot(F3, (1, 0, 0), v) == 1 for v in wb.vectors)
    wb2 = unit_inner_basis(F3, (2, 1))
    assert wb2.vectors[0] == (2, 0)
    assert wb2.vectors[1] == (0, 1)
    rng = random.Random(3)
    for q in (2, 3, 5):
        field = field_by_order(q)
        for _ in range(500):
            m = rng.randint(1, 8)
            omega = tuple(rng.randrange(q) for _ in range(m))
            if not any(omega):
                continue
            wb = unit_inner_basis(field, omega)
            assert rank(field, wb.vectors) == m
            for v in wb.vectors:
                assert dot(field, omega, v) == 1
                assert 1 <= weight(v) <= 2
    with pytest.raises(ValueError):
        unit_inner_basis(F3, (0, 0))


def test_hyperplane_low_weight_basis_examples_and_randoms():
    # v = e_m: the basis is e_1..e_{m-1}
    wb = hyperplane_low_weight_basis(F3, (0, 0, 1))
    assert wb.vectors == ((1, 0, 0), (0, 1, 0))
    wb2 = hyperplane_low_weight_basis(F2, (1, 1))
    assert wb2.vectors == ((1, 1),)
    rng = random.Random(5)
    for q in (2, 3, 5):
        field = field_by_order(q)
        for _ in range(500):
            m = rng.randint(2, 8)
            v = tuple(rng.randrange(q) for _ in range(m))
            if not any(v):
                continue
            wb = hyperplane_low_weight_basis(field, v)
            assert len(wb.vectors) == m - 1
            assert rank(field, wb.vectors) == m - 1
            for b in wb.vectors:
                assert dot(field, v, b) == 0
                assert 1 <= weight(b) <= 2
    with pytest.raises(ValueError):
        hyperplane_low_weight_basis(F3, (0, 0, 0))


def test_linear_system_solutions_examples():
    # zero matrix: the kernel is everything, n independent solutions
    sols = linear_system_solutions(F3, [(0, 0, 0)], (0,))
    assert sols == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # x + y = 1 over F_2: 2 = n - rank + 1 independent solutions
    sols2 = linear_system_solutions(F2, [(1, 1)], (1,))
    assert sols2 == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        linear_system_solutions(F2, [(1, 1), (1, 1)], (1, 0))


def test_linear_system_solutions_counts_random():
    rng = random.Random(9)
    for _ in range(200):
        q = rng.choice((2, 3))
        field = field_by_order(q)
        n = rng.randint(1, 5)
        l = rng.randint(1, 3)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(l)]
        r = rank(field, rows)
        # consistent rhs: a combination of the rows
        x = tuple(rng.randrange(q) for _ in range(n))
        rhs = tuple(dot(field, row, x) for row in rows)
        sols = linear_system_solutions(field, rows, rhs)
        expect = n - r if not any(rhs) else n - r + 1
        assert len(sols) == expect
        assert rank(field, sols) == len(sols) if sols else True
        for s in sols:
            assert all(dot(field, row, s) == b for row, b in zip(rows, rhs))


def test_theorem_witness_b_case1_is_standard_basis():
    f = get_preset("sec5_f1").function
    wb = theorem_witness(TheoremId.B, f, 1, (0,) * 5)
    assert wb.vectors == tuple(unit_vector(5, i) for i in range(1, 6))


def test_theorem_witness_d1_case3_shape():
    exps = [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)]
    f = FunctionSpec(F3, 6, MonomialSum(tuple((1, e) for e in exps)))
    wb = theorem_witness(TheoremId.D1, f, 0, (1, 0, 0, 0, 0, 0))
    # slot 1 (i0) carries the anchor alpha_4 + alpha_5 + alpha_6 with f-value 1
    anchor = wb.vectors[0]
    assert anchor == (0, 0, 0, 1, 1, 1)
    assert f.eval(anchor) == 1
    lifts = lift_witness(f, wb)
    assert rank(F3, lifts) == 6  # k - 1 for k = m + 1 = 7


def test_theorem_witness_requires_validation():
    f = get_preset("sec6_q3").function
    with pytest.raises(ValueError):
        theorem_witness(TheoremId.C1, f, 1, (0,) * 7)


def test_theorem_witness_rejects_zero_message():
    f = get_preset("sec5_f1").function
    with pytest.raises(ValueError):
        theorem_witness(TheoremId.B, f, 0, (0,) * 5)


@pytest.mark.parametrize("bad", [7, -1, 1.0], ids=["out-of-range", "negative", "float"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda a: theorem_witness(TheoremId.D1, get_preset("sec7_f1").function,
                                           a, (1,) + (0,) * 7), id="theorem_witness-u"),
    pytest.param(lambda a: theorem_witness(TheoremId.D1, get_preset("sec7_f1").function,
                                           0, (1,) * 7 + (a,)), id="theorem_witness-v"),
    pytest.param(lambda a: unit_inner_basis(F3, (a, 1)), id="unit_inner_basis"),
    pytest.param(lambda a: hyperplane_low_weight_basis(F3, (a, 1)), id="hyperplane"),
    pytest.param(lambda a: linear_system_solutions(F3, [(a, 1)], [1]), id="system-row"),
    pytest.param(lambda a: linear_system_solutions(F3, [(1, 1)], [a]), id="system-rhs"),
])
def test_witness_entry_points_refuse_non_canonical_entries(call, bad):
    # F_3: every entry is checked before a field table is read
    with pytest.raises(ValueError, match="is not a canonical element of F_3"):
        call(bad)


def test_theorem_witness_never_tabulates_f(monkeypatch):
    def refuse(self):
        raise AssertionError("f was tabulated")

    points = []
    at = FunctionSpec.at

    def counted(self, X):
        points.append(np.asarray(X).size // self.m)
        return at(self, X)

    monkeypatch.setattr(FunctionSpec, "table", property(refuse))
    monkeypatch.setattr(FunctionSpec, "at", counted)
    m = 11
    exps = [(1,) * 5 + (0,) * 6, (0,) * 5 + (1,) * 6]  # supports {1..5} and {6..11}
    f = FunctionSpec(F3, m, MonomialSum(tuple((1, e) for e in exps)))
    w = (0, 2, 1, 0, 0, 1, 2, 2, 0, 1, 1)
    for u, v in ((1, (0,) * m), (2, w), (0, w)):  # cases 1, 2 and 3
        y = (u,) + v
        points.clear()
        wb = theorem_witness(TheoremId.D1, f, u, v)
        assert sum(points) == m, (y, points)  # f at the m alphas of the lifts, and nowhere else
        assert wb == reference_witness(TheoremId.D1, f, u, v), y
        lifts = lift_witness(f, wb)  # f-values by the scalar reference
        assert all(dot(F3, y, d) == 0 for d in lifts), y
        assert rank(F3, lifts) == m, y


def sweep_preset(name, sample=None):
    preset = get_preset(name)
    f, thm = preset.function, preset.theorem
    assert validate_hypotheses(f, thm)
    field, m = f.field, f.m
    D = defining_set(f)
    members = set(map(tuple, D.vectors.tolist()))
    classes = list(projective_classes(field, m + 1))
    if sample is not None:
        classes = random.Random(71).sample(classes, sample)
    for y in classes:
        wb = theorem_witness(thm, f, y[0], y[1:])
        lifts = lift_witness(f, wb)
        assert all(d in members for d in lifts)
        assert all(dot(field, y, d) == 0 for d in lifts)
        assert rank(field, lifts) == m


def test_theorem_witness_small_presets_every_class():
    for name in ("sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3", "dhz_m7"):
        sweep_preset(name)


def test_theorem_witness_sec7_sampled_classes():
    for name in ("sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4"):
        sweep_preset(name, sample=120)


def test_theorem_witness_d2_repair_branches():
    # x1x2 + x3x4 over F_3^4 exercises the offending-index repair in case 2
    exps = [(1, 1, 0, 0), (0, 0, 1, 1)]
    f = FunctionSpec(F3, 4, MonomialSum(tuple((1, e) for e in exps)))
    assert validate_hypotheses(f, TheoremId.D2)
    field = f.field
    D = defining_set(f)
    members = set(map(tuple, D.vectors.tolist()))
    for y in projective_classes(field, 5):
        wb = theorem_witness(TheoremId.D2, f, y[0], y[1:])
        lifts = lift_witness(f, wb)
        assert all(d in members for d in lifts)
        assert rank(field, lifts) == 4
        assert all(dot(field, y, d) == 0 for d in lifts)


def random_mm(rng, q, s, t, c2):
    field = field_by_order(q)
    nz = [index_to_vector(q, t, i) for i in range(1, q**t)]
    upts = [(0,) * s] + [
        tuple(a if j == i else 0 for j in range(s))
        for i in range(s) for a in range(1, q)
    ]
    images = rng.sample(nz, len(upts))
    assigned = dict(zip(upts, images))
    table = []
    for i in range(q**s):
        b = index_to_vector(q, s, i)
        if b in assigned:
            table.append(assigned[b])
        elif c2 and weight(b) == 2:
            table.append((0,) * t)
        else:
            table.append(tuple(rng.randrange(q) for _ in range(t)))
    g = (1,) * q**s if c2 else (rng.randrange(1, q),) * q**s
    return FunctionSpec(field, s + t, MaioranaMcFarland(s, t, tuple(table), g))


def test_theorem_witness_mm_randomized_branches():
    # (s, t) kept feasible for an injection: |U| = 1 + s(q-1) <= q^t - 1
    shapes = {2: ((2, 2), (2, 3), (3, 3)), 3: ((2, 2), (2, 3), (3, 2))}
    rng = random.Random(2718)
    for q, thm, c2 in ((3, TheoremId.C1, False), (2, TheoremId.C2, True)):
        for _ in range(6):
            s, t = rng.choice(shapes[q])
            f = random_mm(rng, q, s, t, c2)
            assert validate_hypotheses(f, thm)
            field, m = f.field, f.m
            D = defining_set(f)
            members = set(map(tuple, D.vectors.tolist()))
            for y in projective_classes(field, m + 1):
                wb = theorem_witness(thm, f, y[0], y[1:])
                lifts = lift_witness(f, wb)
                assert all(d in members for d in lifts)
                assert rank(field, lifts) == m


WITNESS_PRESETS = ("sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3",
                   "sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4", "dhz_m7")


def test_witness_presets_are_every_preset_whose_hypotheses_hold():
    held = {name for name, p in paper_presets().items()
            if validate_hypotheses(p.function, p.theorem)}
    assert held == set(WITNESS_PRESETS)


def test_witness_certificate_verifies_against_code():
    for name in WITNESS_PRESETS:
        preset = get_preset(name)
        cert = witness_certificate(preset.theorem, preset.function)
        D = defining_set(preset.function)
        assert verify_certificate(D, cert), name


def assert_matches_reference(ref, thm, f):
    """The batched certificate equals the per-class reference, ref(thm, f).

    Its two arrays are C-contiguous, in the element type.
    """
    cert = witness_certificate(thm, f)
    want_entries = ref(thm, f)
    for A in (cert.classes.reps, cert.classes.entries):
        assert A.dtype == f.field.element_dtype and A.flags.c_contiguous
    assert len(cert.classes) == len(want_entries)
    for got, want in zip(cert.classes, want_entries):
        assert got == want, want[0]
        assert all(type(a) is int for a in got[0] + sum(got[1], ()))


@pytest.mark.parametrize("name", WITNESS_PRESETS)
def test_batched_builder_matches_reference_on_presets(witness_reference, name):
    preset = get_preset(name)
    assert_matches_reference(witness_reference, preset.theorem, preset.function)


def table_spec(rng, field, m, rule):
    """A table led by rule(wt(x)): "zero", "class" (one random nonzero value
    per projective class) or None (a random value)."""
    values, per_class = [], {}
    for i in range(field.q**m):
        x = index_to_vector(field.q, m, i)
        kind = rule(weight(x))
        if kind == "zero":
            values.append(0)
        elif kind == "class":
            values.append(per_class.setdefault(normalize_class(field, x),
                                               rng.randrange(1, field.q)))
        else:
            values.append(rng.randrange(field.q))
    return FunctionSpec(field, m, TableFunction(tuple(values)))


def monomial_spec(rng, field, m, sizes, squarefree):
    coords = list(range(m))
    rng.shuffle(coords)
    terms = []
    for size in sizes:
        exps = [0] * m
        for i in coords[:size]:
            exps[i] = 1 if squarefree else rng.randint(1, 3)
        coords = coords[size:]
        terms.append((rng.randrange(1, field.q), tuple(exps)))
    return FunctionSpec(field, m, MonomialSum(tuple(terms)))


@functools.lru_cache(maxsize=1)
def seeded_instances():
    rng = random.Random(20261018)
    out = []
    for q in (4, 5, 7):
        field = field_by_order(q)
        for m in (3, 4):
            t = rng.randint(2, m - 1)
            coeffs = tuple(rng.randrange(1, q) for _ in range(t))
            out.append((TheoremId.A1, FunctionSpec(field, m, WeightThreshold(t, coeffs))))
            out.append((TheoremId.A1, table_spec(
                rng, field, m,
                lambda w, m=m: "class" if 1 <= w <= 2 else "zero" if w == m else None)))
        out.append((TheoremId.B, FunctionSpec(field, 4, ComplementThreshold(2))))
        out.append((TheoremId.B, table_spec(
            rng, field, 4, lambda w: "zero" if w <= 2 else "class")))
        out.append((TheoremId.D2, monomial_spec(rng, field, 4, (2, 2), True)))
    field = field_by_order(4)
    out.append((TheoremId.D2, monomial_spec(rng, field, 5, (2, 3), True)))
    out.append((TheoremId.D2, monomial_spec(rng, field, 5, (2, 2), True)))  # x_i free
    out.append((TheoremId.D1, monomial_spec(rng, field, 6, (3, 3), False)))
    return out


@pytest.mark.parametrize("index", range(len(seeded_instances())))
def test_batched_builder_matches_reference_on_seeded_instances(witness_reference, index):
    thm, f = seeded_instances()[index]
    assert validate_hypotheses(f, thm)
    assert_matches_reference(witness_reference, thm, f)


def test_batched_builder_d2_repair_both_branches(witness_reference):
    # x1x2 + x3x4 over F_3^4: a case-2 class (1, v) with omega = -v has an
    # offending low vector when omega is nonzero on both coordinates of the
    # pair monomial of i0; the repair is "live" when omega is nonzero on the
    # other monomial's support and not live otherwise.
    exps = [(1, 1, 0, 0), (0, 0, 1, 1)]
    f = FunctionSpec(F3, 4, MonomialSum(tuple((1, e) for e in exps)))
    branches = {"live": 0, "not live": 0}
    for y in projective_classes(F3, 5):
        omega = y[1:]  # -v has the zero pattern of v
        if y[0] == 0 or not any(omega):
            continue
        i0 = next(i for i, a in enumerate(omega) if a)
        pair, other = ((0, 1), (2, 3)) if i0 < 2 else ((2, 3), (0, 1))
        if all(omega[i] for i in pair):
            branches["live" if any(omega[i] for i in other) else "not live"] += 1
    assert branches["live"] and branches["not live"]
    assert_matches_reference(witness_reference, TheoremId.D2, f)


@pytest.mark.parametrize("name, corruption", [  # A1 and C2
    pytest.param("sec4_f1", "rank", id="rank"),
    pytest.param("sec4_f1", "orthogonality", id="orthogonality"),
    pytest.param("dhz_m7", "rank", id="dhz_m7-rank"),
    pytest.param("dhz_m7", "orthogonality", id="dhz_m7-orthogonality"),
])
def test_batched_post_condition_names_the_corrupted_class(monkeypatch, name, corruption):
    preset = get_preset(name)
    f = preset.function
    field, k = f.field, f.m + 1
    # blocks of np_check_rows(k) = 4 DOT_BLOCK / k^2 = 10 classes
    monkeypatch.setattr(linalg_mod, "DOT_BLOCK", -(-10 * k * k // 4))
    assert linalg_mod.np_check_rows(k) == 10
    build = witness_mod._block_alphas
    calls = []

    def corrupt(thm, f, fvals, Y):
        A = build(thm, f, fvals, Y)
        calls.append(tuple(Y[5].tolist()))
        if len(calls) == 7:  # a block in the middle
            y = Y[5]
            if corruption == "rank":
                A[5, 1] = A[5, 0]
            else:  # a vector whose lift is not orthogonal to y
                for i in range(1, field.q**f.m):
                    x = index_to_vector(field.q, f.m, i)
                    if dot(field, y, (reference_value(f, x),) + x):
                        A[5, 0] = x
                        break
        return A

    monkeypatch.setattr(witness_mod, "_block_alphas", corrupt)
    with pytest.raises(ConstructionError) as err:
        witness_certificate(preset.theorem, f)
    assert len(calls) == 7
    assert f"class {calls[-1]} fails" in str(err.value)


def test_witness_certificate_rejects_failing_hypotheses():
    # one message, naming the failing condition and where it fails
    preset = get_preset("sec6_q2")
    f, thm = preset.function, preset.theorem
    result = validate_hypotheses(f, thm)
    message = f"hypotheses of {thm.value} fail: {result.condition} at {result.witness}"
    with pytest.raises(ValueError) as err:
        witness_certificate(thm, f)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        theorem_witness(thm, f, 1, (0,) * f.m)
    assert str(err.value) == message


@functools.lru_cache(maxsize=1)
def mm_instances():
    """Seeded Maiorana-McFarland specs: C2 over F_2, C1 over F_3, F_4 and F_5."""
    rng = random.Random(1)
    shapes = {2: ((2, 2), (2, 3), (3, 3), (4, 3)), 3: ((2, 2), (2, 3), (3, 2), (3, 3)),
              4: ((2, 2), (3, 2)), 5: ((2, 2),)}
    return [(TheoremId.C2 if q == 2 else TheoremId.C1, random_mm(rng, q, s, t, q == 2))
            for q in shapes for s, t in shapes[q]]


@pytest.mark.parametrize("index", range(len(mm_instances())))
def test_batched_builder_matches_reference_on_mm_instances(witness_reference, index):
    thm, f = mm_instances()[index]
    assert validate_hypotheses(f, thm)
    assert_matches_reference(witness_reference, thm, f)


def mm_branch(thm, f, y):
    """The sub-branch of the oracle's _case2_mm or _case3_mm that class y takes."""
    field, mm = f.field, f.variant
    s = mm.s
    u, v = y[0], y[1:]

    def phi_minus(beta, w2):
        return vec_sub(field, mm.phi[vector_to_index(field.q, beta)], w2)

    if u == 0:
        return "case 3, v_2 != 0" if any(v[s:]) else "case 3, v_2 = 0"
    if not any(v):
        return "case 1"
    omega = scale(field, field.neg(field.inv(u)), v)
    w1, w2 = omega[:s], omega[s:]
    zero = (0,) * s
    if any(w1):
        if thm is TheoremId.C1:
            return "omega_1 != 0"
        if any(phi_minus(zero, w2)):
            return "omega_1 != 0, phi(0) != omega_2"
        return "omega_1 != 0, omega_1.e_1 != 1" if w1[0] != 1 else "omega_1 != 0, omega_1.e_1 = 1"
    if any(phi_minus(zero, w2)):
        return "phi(0) != omega_2"
    if thm is TheoremId.C2:
        return "phi(0) = omega_2"
    span = EchelonBasis(field, mm.t)
    span.add(phi_minus(unit_vector(s, 1), w2))
    found = any(not span.contains(phi_minus(scale(field, a, unit_vector(s, 1)), w2))
                for a in field.nonzero())
    return "phi(0) = omega_2, a_out" if found else "phi(0) = omega_2, eta"


def test_mm_instances_hit_every_sub_branch():
    hits = {TheoremId.C1: set(), TheoremId.C2: set()}
    for thm, f in mm_instances():
        hits[thm] |= {mm_branch(thm, f, y) for y in projective_classes(f.field, f.m + 1)}
    cases = {"case 1", "case 3, v_2 != 0", "case 3, v_2 = 0", "phi(0) != omega_2"}
    assert hits[TheoremId.C1] == cases | {
        "omega_1 != 0", "phi(0) = omega_2, a_out", "phi(0) = omega_2, eta"}
    assert hits[TheoremId.C2] == cases | {
        "omega_1 != 0, phi(0) != omega_2", "omega_1 != 0, omega_1.e_1 != 1",
        "omega_1 != 0, omega_1.e_1 = 1", "phi(0) = omega_2"}


def test_every_theorem_is_built_without_the_per_class_reference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("theorem_witness called")

    monkeypatch.setattr(witness_mod, "theorem_witness", refuse)
    rng = random.Random(5)
    a2 = table_spec(rng, F2, 5, lambda w: "class" if 1 <= w <= 2 else "zero" if w >= 3 else None)
    specs = [(get_preset(name).theorem, get_preset(name).function)
             for name in ("sec4_f1", "sec5_f1", "dhz_m7", "sec7_f4", "sec7_f2")]
    specs += [(TheoremId.A2, a2), mm_instances()[4]]
    assert {thm for thm, _ in specs} == set(TheoremId)
    for thm, f in specs:
        assert validate_hypotheses(f, thm)
        assert verify_certificate(defining_set(f), witness_certificate(thm, f)), thm


SMALL_WITNESS_PRESETS = ("sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3", "dhz_m7")


def assert_matches_oracle(thm, f, messages):
    """theorem_witness equals the test oracle's WitnessBasis on each message y = (u, v)."""
    for y in messages:
        assert theorem_witness(thm, f, y[0], y[1:]) == reference_witness(thm, f, y[0], y[1:]), y


def every_message(f):
    q, k = f.field.q, f.m + 1
    return (index_to_vector(q, k, i) for i in range(1, q**k))


@pytest.mark.parametrize("name", SMALL_WITNESS_PRESETS)
def test_theorem_witness_matches_oracle_on_every_message(name):
    preset = get_preset(name)
    assert_matches_oracle(preset.theorem, preset.function, every_message(preset.function))


@pytest.mark.parametrize("name", ("sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4"))
def test_theorem_witness_matches_oracle_on_sampled_messages(name):
    preset = get_preset(name)
    f = preset.function
    q, k = f.field.q, f.m + 1
    rng = random.Random(2026)
    messages = [index_to_vector(q, k, rng.randrange(1, q**k)) for _ in range(200)]
    assert_matches_oracle(preset.theorem, f, messages)


@pytest.mark.parametrize("index", [i for i, (_, f) in enumerate(mm_instances())
                                   if f.field.q ** (f.m + 1) <= 1024])
def test_theorem_witness_matches_oracle_on_mm_instances(index):
    thm, f = mm_instances()[index]
    assert_matches_oracle(thm, f, every_message(f))
