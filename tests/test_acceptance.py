"""Acceptance suite: one test per criterion, each at its stated budget.

Criteria 4 and 7 concern published claims that the computation refutes.
Those tests pin the computed values together with the evidence that refutes
the claim: for `sec6_q2`, a cover found by three independent minimality
criteria; for `dhz_m7`, the exhaustive weight structure and the quoted
distance formula checked on the length-2^m code it actually counts.  The
assertion messages carry the analysis; `minicode repro` reports the same
findings as annotated rows.
"""

import random
import time

import pytest

from minicode.code import (
    DefiningSet,
    codeword,
    defining_set,
    linearity_check,
    params,
    weight_distribution,
)
from minicode.families import (
    FunctionSpec,
    TableFunction,
    TheoremId,
    get_preset,
    paper_presets,
    validate_hypotheses,
)
from minicode.gf import field_by_order, make_field
from minicode.linalg import covers, dot, index_to_vector, scale, weight
from minicode.minimality import (
    ab_condition,
    dhz_criterion,
    is_minimal_definition,
    rank_criterion_code,
)
from scalar_reference import (
    full_weight_basis,
    hyperplane_low_weight_basis,
    linear_system_solutions,
    projective_classes,
    rank,
    unit_inner_basis,
)

F2 = make_field(2)
F3 = make_field(3)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit}s budget"
            )
        return False


def check_example(name, n, k, d, counts, minimal=True):
    """Check parameters, enumerator and the rank criterion's verdict.

    Returns the defining set, enumerator, parameters and the rank report.
    """
    D = defining_set(get_preset(name).function)
    we = weight_distribution(D)
    cp = params(D, we)
    assert (cp.n, cp.k, cp.d) == (n, k, d), f"{name}: got [{cp.n},{cp.k},{cp.d}]"
    if counts is not None:
        assert dict(we.counts) == counts, f"{name}: enumerator differs"
    report = rank_criterion_code(D)
    assert (report.verdict == "minimal") == minimal, (
        f"{name}: rank criterion says {report.verdict}, expected "
        f"{'minimal' if minimal else 'not_minimal'}"
    )
    return D, we, cp, report


def is_cover(field, small, big):
    """small is a nonzero word covered by big and not a scalar multiple of it."""
    return (any(small) and covers(small, big)
            and all(scale(field, c, big) != small for c in field.nonzero()))


def test_criterion_01_sec4_f1():
    with Budget(1.0):
        check_example("sec4_f1", 80, 5, 32,
                      {0: 1, 32: 2, 50: 64, 53: 48, 54: 80, 56: 32, 65: 16})
    print("ACCEPTANCE 1: PASS (sec4_f1 [80,5,32], exact enumerator, minimal)")


def test_criterion_02_sec4_f2():
    with Budget(1.0):
        check_example("sec4_f2", 80, 5, 41,
                      {0: 1, 41: 2, 47: 24, 50: 40, 53: 24, 54: 80, 56: 58, 65: 14})
    print("ACCEPTANCE 2: PASS (sec4_f2 [80,5,41], exact enumerator, minimal)")


def test_criterion_03_sec5_examples():
    with Budget(1.0):
        check_example("sec5_f1", 31, 6, 10, {0: 1, 10: 6, 16: 47, 18: 10})
        check_example("sec5_f2", 31, 6, 6,
                      {0: 1, 6: 1, 12: 5, 14: 5, 16: 41, 18: 10, 20: 1})
        check_example("sec5_f3", 31, 6, 10,
                      {0: 1, 10: 3, 12: 4, 14: 3, 16: 43, 18: 9, 22: 1})
    print("ACCEPTANCE 3: PASS (sec5_f1/f2/f3 parameters, enumerators, minimal)")


def test_criterion_04_sec6_q2():
    """[127, 8, 39] with the published enumerator; not minimal, as computed.

    The parameters and enumerator reproduce exactly.  The published claim
    that the code is minimal is wrong: the rank, definition and
    weight-identity criteria all return not_minimal, and each one's evidence
    is checked here to be a genuine cover (c(b) covered by c(a), not a
    scalar multiple of it).  The phi behind the example is constant on a
    half-space, so the published example is internally inconsistent.
    """
    with Budget(1.0):
        D, _, _, rank_report = check_example(
            "sec6_q2", 127, 8, 39,
            {0: 1, 39: 1, 55: 12, 59: 8, 63: 72, 64: 127, 67: 24, 71: 10, 103: 1},
            minimal=False,
        )
        field = D.field
        refuted = "sec6_q2: the published claim 'minimal' is refuted"

        # rank: the reported class y has a codeword covering another class.
        y = rank_report.witness["y"]
        cy = codeword(y, D)
        assert any(is_cover(field, codeword(b, D), cy)
                   for b in projective_classes(field, D.k)), (
            f"{refuted}, but c({y}) reported by the rank criterion covers no "
            "other codeword"
        )

        definition = is_minimal_definition(D)
        assert definition.verdict == "not_minimal", (
            f"{refuted} by the rank criterion; the definition oracle says "
            f"{definition.verdict}"
        )
        a, b = definition.witness.a, definition.witness.b
        assert is_cover(field, codeword(b, D), codeword(a, D)), (
            f"definition oracle pair a={a}, b={b} is not a cover"
        )

        dhz = dhz_criterion(D)
        assert dhz.verdict == "not_minimal", (
            f"{refuted} by the rank criterion; the weight-identity criterion "
            f"says {dhz.verdict}"
        )
        a, b = dhz.witness.a, dhz.witness.b
        ca, cb = codeword(a, D), codeword(b, D)
        assert dhz.witness.value == (field.q - 1) * weight(ca) - weight(cb), (
            f"weight-identity pair a={a}, b={b} does not satisfy the identity"
        )
        assert is_cover(field, cb, ca), (
            f"weight-identity pair a={a}, b={b} is not a cover"
        )

        cover_a = (1, 0, 0, 0, 0, 1, 0, 0)
        cover_b = (0, 1, 0, 0, 0, 0, 0, 0)
        ca, cb = codeword(cover_a, D), codeword(cover_b, D)
        assert is_cover(field, cb, ca), (
            f"{refuted} by c({cover_b}) covered by c({cover_a}), but that "
            "pair is not a cover"
        )
        assert (weight(cb), weight(ca)) == (64, 103)
    print("ACCEPTANCE 4: PASS (sec6_q2 [127,8,39], exact enumerator, "
          "not minimal by three criteria)")


def test_criterion_05_sec6_q3():
    with Budget(30.0):
        check_example(
            "sec6_q3", 2186, 8, 1295,
            {0: 1, 1295: 2, 1376: 18, 1403: 90, 1439: 108, 1457: 3588,
             1458: 2186, 1466: 378, 1484: 180, 1538: 8, 2024: 2},
        )
    print("ACCEPTANCE 5: PASS (sec6_q3 [2186,8,1295], exact enumerator, minimal)")


def test_criterion_06_sec7_heavy():
    with Budget(600.0):
        for name, d, w_max in (("sec7_f1", 2208, 4602), ("sec7_f3", 2424, 4764),
                               ("sec7_f4", 2664, 4716)):
            _, _, cp, _ = check_example(name, 6560, 9, d, None)
            assert cp.w_max == w_max, f"{name}: w_max {cp.w_max} != {w_max}"
        # f2: the source lists d = 4320 in the parameters but 4302 in the
        # ratio; the computed value 4320 is authoritative and is recorded
        # here against both.
        D2 = defining_set(get_preset("sec7_f2").function)
        we2 = weight_distribution(D2)
        assert we2.w_max == 4401
        assert we2.w_min == 4320, (
            f"sec7_f2 computed d = {we2.w_min}; paper lists 4320 and 4302"
        )
        assert 4302 not in we2.counts  # the ratio line's figure is the typo
        assert rank_criterion_code(D2).verdict == "minimal"
    print("ACCEPTANCE 6: PASS (sec7 heavy cases; f2 d=4320, ratio-line 4302 is the typo)")


def test_criterion_07_dhz_distance_formula():
    """dhz_m7: minimal, d = 51, and the quoted distance formula on length 2^m.

    The quoted formula 2^(m-1) - 2^(t-1)(s-1) = 52 cannot hold at length
    2^m - 1: over all nonzero messages (u, v), every u != 0 weight is 3 mod
    4 and every u = 0 weight is 64, so the computed distance is 51.  The
    formula counts the x = 0 position that this construction drops: since
    f(0) = 1, restoring the coordinate u f(0) adds 1 to every u != 0 weight,
    and that length-2^m code has minimum distance exactly 52.
    """
    m, s, t = 7, 4, 3
    formula = 2**(m - 1) - 2**(t - 1) * (s - 1)
    with Budget(1.0):
        f = get_preset("dhz_m7").function
        D = defining_set(f)
        assert rank_criterion_code(D).verdict == "minimal"
        assert is_minimal_definition(D).verdict == "minimal"
        d = weight_distribution(D).w_min
        assert d == 51, (
            f"dhz_m7 computed d = {d}, expected 51: the quoted formula's "
            f"{formula} is unattainable at length 2^m - 1 and counts the "
            "dropped x = 0 position"
        )

        weights = {0: set(), 1: set()}
        for idx in range(1, 2**D.k):
            y = index_to_vector(2, D.k, idx)
            weights[y[0]].add(weight(codeword(y, D)))
        assert weights[0] == {64}, f"u = 0 weights {sorted(weights[0])}"
        assert all(w % 4 == 3 for w in weights[1]), (
            f"u != 0 weights {sorted(weights[1])} are not all 3 mod 4, "
            "so the formula's even value 52 is not ruled out at length 2^m - 1"
        )

        f0 = f.eval((0,) * m)
        assert f0 == 1
        restored = DefiningSet(D.field, D.k, D.vectors.tolist() + [[f0] + [0] * m])
        assert restored.n == 2**m
        d_restored = weight_distribution(restored).w_min
        assert d_restored == formula, (
            f"with the x = 0 position restored, d = {d_restored}; the quoted "
            f"formula gives {formula}"
        )
    print("ACCEPTANCE 7: PASS (dhz_m7 minimal, d = 51; formula's 52 at length 2^m)")


def _oracle_instances():
    """All 2^8 truth tables on F_2^3 plus 200 random tables on F_3^3."""
    for bits in range(256):
        vals = tuple((bits >> i) & 1 for i in range(8))
        yield FunctionSpec(F2, 3, TableFunction(vals))
    rng = random.Random(20260809)
    for _ in range(200):
        yield FunctionSpec(F3, 3, TableFunction(
            tuple(rng.randrange(3) for _ in range(27))))


def test_criterion_08_criterion_equivalence_oracle():
    with Budget(60.0):
        disagreements = 0
        checked = 0
        for f in _oracle_instances():
            if linearity_check(f) is not None:
                continue
            D = defining_set(f)
            v1 = is_minimal_definition(D).verdict
            v2 = dhz_criterion(D).verdict
            v3 = rank_criterion_code(D).verdict
            if not (v1 == v2 == v3):
                disagreements += 1
            checked += 1
        assert disagreements == 0
        assert checked >= 240 + 190
    print(f"ACCEPTANCE 8: PASS ({checked} instances, zero disagreements)")


def test_criterion_09_ab_one_sidedness():
    with Budget(60.0):
        counterexamples = 0
        positives = 0
        for f in _oracle_instances():
            if linearity_check(f) is not None:
                continue
            D = defining_set(f)
            if ab_condition(D).verdict == "minimal":
                positives += 1
                if is_minimal_definition(D).verdict != "minimal":
                    counterexamples += 1
        assert counterexamples == 0
        assert positives > 0
    print(f"ACCEPTANCE 9: PASS ({positives} ab-positive instances all confirmed)")


def test_criterion_10_witness_soundness(witness_reference):
    checked_presets = []
    for name, preset in sorted(paper_presets().items()):
        f, thm = preset.function, preset.theorem
        if not validate_hypotheses(f, thm):
            continue
        field, m = f.field, f.m
        D = defining_set(f)
        members = set(map(tuple, D.vectors.tolist()))
        # the test oracle's witness for every class y, lifted (tests/witness_oracle.py)
        entries = witness_reference(thm, f)
        assert [y for y, _ in entries] == list(projective_classes(field, m + 1)), name
        for y, lifts in entries:
            assert all(d in members for d in lifts), (name, y)
            assert all(dot(field, y, d) == 0 for d in lifts), (name, y)
            assert rank(field, lifts) == m, (name, y)
        checked_presets.append(name)
    assert set(checked_presets) == {
        "sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3",
        "sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4", "dhz_m7",
    }
    print(f"ACCEPTANCE 10: PASS (witnesses exhaustive on {checked_presets})")


def test_criterion_11_lemma_witness_properties():
    with Budget(60.0):
        for q in (2, 3, 4, 5, 7):
            field = field_by_order(q)
            for m in range(1, 9):
                if q == 2 and m < 2:
                    continue
                wb = full_weight_basis(field, m)
                assert rank(field, wb.vectors) == m
                lo = m if q >= 3 else (m - 1 if m % 2 == 0 else m - 2)
                assert all(weight(v) >= lo for v in wb.vectors)
        rng = random.Random(77)
        for _ in range(500):
            q = rng.choice((2, 3, 5))
            field = field_by_order(q)
            m = rng.randint(1, 8)
            omega = tuple(rng.randrange(q) for _ in range(m))
            if any(omega):
                wb = unit_inner_basis(field, omega)
                assert rank(field, wb.vectors) == m
                assert all(dot(field, omega, b) == 1 and 1 <= weight(b) <= 2
                           for b in wb.vectors)
            if m >= 2:
                v = tuple(rng.randrange(q) for _ in range(m))
                if any(v):
                    hb = hyperplane_low_weight_basis(field, v)
                    assert rank(field, hb.vectors) == m - 1
                    assert all(dot(field, v, b) == 0 and 1 <= weight(b) <= 2
                               for b in hb.vectors)
        for _ in range(300):
            q = rng.choice((2, 3))
            field = field_by_order(q)
            n = rng.randint(1, 5)
            nrows = rng.randint(1, 3)
            rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(nrows)]
            x = tuple(rng.randrange(q) for _ in range(n))
            rhs = tuple(dot(field, row, x) for row in rows)
            sols = linear_system_solutions(field, rows, rhs)
            r = rank(field, rows)
            assert len(sols) == (n - r if not any(rhs) else n - r + 1)
            if sols:
                assert rank(field, sols) == len(sols)
    print("ACCEPTANCE 11: PASS (lemma witness property suites, zero failures)")
