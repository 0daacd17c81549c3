"""Function variants, theorem hypothesis validators, presets, file IO."""

import io
import math
import random
import time

import numpy as np
import pytest

import minicode.families as families_mod
from minicode.code import defining_set, linearity_check
from minicode.families import (
    ComplementThreshold,
    FunctionSpec,
    MaioranaMcFarland,
    MonomialSum,
    TableFunction,
    TheoremId,
    WeightThreshold,
    get_preset,
    monomial_support,
    paper_presets,
    read_function,
    validate_hypotheses,
    vectors_of_weight,
    write_function,
)
from minicode.gf import field_by_order, make_field
from minicode.linalg import index_to_vector, weight
from minicode.minimality import normalize_class, rank_criterion_code
from scalar_reference import (
    reference_table,
    reference_validate,
    reference_value,
)
from scalar_reference import vectors_of_weight as reference_vectors_of_weight

F2 = make_field(2)
F3 = make_field(3)


def test_eval_complement_threshold():
    f = FunctionSpec(F2, 5, ComplementThreshold(2))
    assert f.eval((1, 1, 1, 0, 0)) == 1
    assert f.eval((1, 1, 0, 0, 0)) == 0
    assert f.eval((0, 0, 0, 0, 0)) == 0


def test_eval_monomial_sum():
    exps1 = (1, 1, 1, 0, 0, 0, 0, 0)
    exps2 = (0, 0, 0, 1, 1, 1, 1, 1)
    f = FunctionSpec(F3, 8, MonomialSum(((1, exps1), (1, exps2))))
    assert f.eval((1, 1, 1, 0, 0, 0, 0, 0)) == 1
    assert f.eval((1, 1, 1, 1, 1, 1, 1, 1)) == 2
    assert f.eval((2, 2, 1, 0, 0, 0, 0, 0)) == 1  # 2*2*1 = 4 = 1 mod 3


def test_eval_monomial_zero_exponent_convention():
    # 0^0 = 1: the constant-exponent monomial evaluates to its coefficient
    f = FunctionSpec(F3, 2, MonomialSum(((2, (0, 0)),)))
    assert f.eval((0, 0)) == 2


def test_eval_maiorana_mcfarland():
    phi = tuple((1, 0, 0) for _ in range(27))
    g = (1,) * 27
    f = FunctionSpec(F3, 6, MaioranaMcFarland(3, 3, phi, g))
    assert f.eval((0, 0, 0, 2, 0, 0)) == 0  # 2*1 + 1 = 3 = 0 mod 3
    assert f.eval((1, 2, 0, 0, 0, 0)) == 1


def test_eval_weight_threshold():
    f = FunctionSpec(F3, 4, WeightThreshold(2, (1, 2)))
    assert f.eval((1, 0, 0, 0)) == 1
    assert f.eval((1, 2, 0, 0)) == 2
    assert f.eval((1, 1, 1, 0)) == 0


def test_monomial_support_examples():
    assert monomial_support((2, 0, 1)) == frozenset({1, 3})
    assert monomial_support((0, 0, 0)) == frozenset()
    assert monomial_support((0, 0, 0, 1, 1, 1, 1, 1)) == frozenset({4, 5, 6, 7, 8})


def test_materialize_agrees_with_eval():
    # the dense spec holds the scalar reference's values, and eval agrees
    # with both on a sample of points
    rng = random.Random(76)
    for name in ("sec4_f1", "sec5_f2", "sec6_q3", "sec7_f4", "dhz_m7"):
        f = get_preset(name).function
        table = f.materialize()
        assert f.materialize() is table  # built once per spec
        twin = FunctionSpec(f.field, f.m, f.variant)  # no table cached yet
        assert twin == f and hash(twin) == hash(f)
        assert table.variant.values == tuple(reference_table(f))
        q, m = f.field.q, f.m
        for idx in rng.sample(range(q**m), 20):
            x = index_to_vector(q, m, idx)
            assert f.eval(x) == table.eval(x) == reference_value(f, x)
            assert type(f.eval(x)) is int


@pytest.mark.parametrize("spec, x", [
    (FunctionSpec(F3, 2, TableFunction(tuple(range(3)) * 3)), (0, 5)),  # once f(1, 2), aliased
    (FunctionSpec(F3, 2, WeightThreshold(1, (2,))), (0, 7)),
    (FunctionSpec(F3, 2, WeightThreshold(1, (2,))), (True, 0)),
    (FunctionSpec(F3, 2, WeightThreshold(1, (2,))), (1.5, 0)),
    (FunctionSpec(F3, 2, MonomialSum(((1, (1, 1)),))), (-1, 1)),
], ids=["table-aliased-index", "threshold-beyond", "threshold-bool", "threshold-float",
        "monomial-negative"])
def test_eval_refuses_non_elements(monkeypatch, spec, x):
    # each once returned a value; now refused before any table is read
    def refuse(self, X):
        raise AssertionError("f was evaluated")

    monkeypatch.setattr(FunctionSpec, "at", refuse)
    with pytest.raises(ValueError, match="is not a canonical element of F_3"):
        spec.eval(x)


AT_FIELDS = (2, 3, 4, 5, 7, 8, 9, 17, 257)


def seeded_specs(q):
    """Seeded specs of all five variants over F_q, q^m at most 1,024 (MM: m >= 2).

    The monomial exponents run past q, one Maiorana-McFarland spec has
    s = 1, and one monomial coefficient is the largest a whose a q still
    fits the element type (15 on F_17, 255 on F_257), whose index a
    narrow array would wrap if it were formed in that type.
    """
    rng = random.Random(q)
    field = field_by_order(q)
    m = max(1, math.floor(math.log(1024, q) + 1e-9))

    def element(nonzero=False):
        return rng.randrange(1 if nonzero else 0, q)

    def mm(s, t):
        phi = tuple(tuple(element() for _ in range(t)) for _ in range(q**s))
        return FunctionSpec(field, s + t, MaioranaMcFarland(s, t, phi, tuple(element() for _ in range(q**s))))

    def monomials(coeffs):
        return FunctionSpec(field, m, MonomialSum(tuple(
            (a, tuple(rng.choice((0, 1, rng.randrange(q, 3 * q))) for _ in range(m))) for a in coeffs)))

    t = rng.randint(1, m)
    wide = min(np.iinfo(field.element_dtype).max // q, q - 1)
    specs = [
        FunctionSpec(field, m, TableFunction(tuple(element() for _ in range(q**m)))),
        FunctionSpec(field, m, WeightThreshold(t, tuple(element(True) for _ in range(t)))),
        FunctionSpec(field, m, ComplementThreshold(rng.randint(0, m))),
        mm(1, max(1, m - 1)),
        monomials([element(True) for _ in range(rng.randint(1, 3))]),
        monomials([wide, element(True)]),
    ]
    if m >= 3:
        specs.append(mm(2, m - 2))
    return specs


@pytest.mark.parametrize("q", AT_FIELDS)
def test_at_matches_the_scalar_reference(q):
    # full tables byte-equal, a B x m x m batch of the witness builder's
    # shape, and the same rows in the element type, which NumPy 1 would
    # wrap if an index were formed in it
    rng = np.random.default_rng(q)
    for f in seeded_specs(q):
        field, m = f.field, f.m
        want = np.array(reference_table(f), dtype=field.element_dtype)
        assert f.table.dtype == field.element_dtype and not f.table.flags.writeable
        assert f.table.tobytes() == want.tobytes(), f.variant
        assert f.values() == tuple(want.tolist())
        X = rng.integers(0, q, size=(6, m, m))
        got = f.at(X)
        assert got.dtype == field.element_dtype and got.shape == (6, m)
        assert got.tolist() == [[reference_value(f, row) for row in block] for block in X.tolist()]
        assert f.at(X.astype(field.element_dtype)).tolist() == got.tolist()
        assert f.at(X[0, 0]).tolist() == got[0, 0]  # one row: a 0-d result


def test_at_matches_the_scalar_reference_on_presets():
    for name, preset in paper_presets().items():
        f = preset.function
        want = np.array(reference_table(f), dtype=f.field.element_dtype)
        assert f.table.tobytes() == want.tobytes(), name


def test_vectors_of_weight_rows_follow_the_scalar_order():
    for q, m in ((2, 5), (3, 4), (4, 3), (5, 3)):
        field = field_by_order(q)
        for w in range(m + 1):
            want = [list(x) for x in reference_vectors_of_weight(field, m, w)]
            assert vectors_of_weight(field, m, w).tolist() == want
            assert vectors_of_weight(field, m, w, 3, 11).tolist() == want[3:11]


def hypothesis_tables():
    """Seeded tables over F_2, F_3 and F_4 that pass A1, A2 or B, and copies
    that break each of their conditions at one random point.

    The A shape takes one nonzero value per projective class on weights 1
    and 2 and zero on the top weights (from m - 1 or m - 2 over F_2, m
    otherwise); the B shape zero on weights 1 and 2 and one nonzero value
    per class on weights m - 1 and m.  Other points take random values.
    """
    rng = random.Random(25)
    out = []
    for q, m in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 4)):
        field = field_by_order(q)
        points = [index_to_vector(q, m, i) for i in range(q**m)]
        top = (m - 1 if m % 2 == 0 else m - 2) if q == 2 else m
        for low_kind, high_kind, high in (("class", "zero", top), ("zero", "class", m - 1)):
            per_class, values = {}, []
            for x in points:
                w = weight(x)
                kind = low_kind if 1 <= w <= 2 else high_kind if w >= high else None
                if kind == "class":
                    values.append(per_class.setdefault(normalize_class(field, x),
                                                       rng.randrange(1, q)))
                else:
                    values.append(0 if kind == "zero" else rng.randrange(q))
            out.append(FunctionSpec(field, m, TableFunction(tuple(values))))
            for lo, hi in ((1, 2), (high, m)):
                at = [i for i, x in enumerate(points) if lo <= weight(x) <= hi]
                for change in ("zero", "other"):
                    i = rng.choice(at)
                    bad = list(values)
                    bad[i] = 0 if change == "zero" and values[i] else values[i] % (q - 1) + 1
                    if bad[i] != values[i]:
                        out.append(FunctionSpec(field, m, TableFunction(tuple(bad))))
    return out


@pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "one-row-blocks"])
def test_validators_match_the_scalar_reference(monkeypatch, block):
    # with block = 7, DOT_BLOCK // (scalars x m) is one row: every weight
    # class is walked one row per block
    if block is not None:
        monkeypatch.setattr(families_mod, "DOT_BLOCK", block)
    conditions = set()
    for f in hypothesis_tables():
        for thm in (TheoremId.A1, TheoremId.A2, TheoremId.B):
            got, want = validate_hypotheses(f, thm), reference_validate(f, thm)
            assert repr(got) == repr(want), (f.field.q, f.m, thm)
            conditions.add((want.ok, want.condition, len(want.witness or ())))
    for cond in ("A1(1)", "A1(2)", "A2(1)", "A2(2)", "B(1)", "B(2): f(x) != 0", "B(2): f(ax)"):
        assert any(not ok and c.startswith(cond) for ok, c, _ in conditions), cond
    assert {(True, None, 0)} <= conditions
    assert {n for ok, c, n in conditions if not ok and c.startswith("A1(1)")} == {1, 2}


def test_arity_mismatch():
    f = get_preset("sec4_f1").function
    with pytest.raises(ValueError):
        f.eval((1, 0, 0))


def test_variant_invariants():
    with pytest.raises(ValueError):
        FunctionSpec(F3, 2, TableFunction((0,) * 8))  # wrong length
    with pytest.raises(ValueError):
        FunctionSpec(F3, 4, WeightThreshold(2, (1, 0)))  # zero coefficient
    with pytest.raises(ValueError):
        FunctionSpec(F3, 5, MaioranaMcFarland(3, 3, ((0, 0, 0),) * 27, (0,) * 27))
    with pytest.raises(ValueError):
        FunctionSpec(F3, 2, MonomialSum(((0, (1, 1)),)))  # zero coefficient


@pytest.mark.parametrize("variant", [
    TableFunction((True, 0, 2)),
    TableFunction((1, 0, 2.0)),
    WeightThreshold(1, (True,)),
    WeightThreshold(2, (1, 2.0)),
    WeightThreshold(1, (3,)),
    MonomialSum(((True, (1,)),)),
    MonomialSum(((1.0, (1,)),)),
    MonomialSum(((5, (1,)),)),
])
def test_coefficients_must_be_canonical_elements(variant):
    # a bool is an int to isinstance; True once passed as 1, eval returned
    # True and write_function wrote a file ("True 0 2") that read_function refuses
    m = 2 if isinstance(variant, WeightThreshold) and variant.t == 2 else 1
    with pytest.raises(ValueError, match="canonical element of F_3"):
        FunctionSpec(F3, m, variant)


def test_validate_sec4_presets_pass_a1():
    for name in ("sec4_f1", "sec4_f2"):
        assert validate_hypotheses(get_preset(name).function, TheoremId.A1)


def test_validate_sec5_presets_pass_b():
    for name in ("sec5_f1", "sec5_f2", "sec5_f3"):
        assert validate_hypotheses(get_preset(name).function, TheoremId.B)


def test_validate_d1_vs_d2_support_sizes():
    exps = [(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]
    f = FunctionSpec(F3, 5, MonomialSum(tuple((1, e) for e in exps)))
    assert validate_hypotheses(f, TheoremId.D2)
    res = validate_hypotheses(f, TheoremId.D1)
    assert not res and "D1(2)" in res.condition and res.witness == (1,)


def test_validate_d1_disjointness_failure():
    exps = [(1, 1, 1, 0), (0, 1, 1, 1)]
    f = FunctionSpec(F3, 4, MonomialSum(tuple((1, e) for e in exps)))
    res = validate_hypotheses(f, TheoremId.D1)
    assert not res and "disjoint" in res.condition


def test_validate_sec6_phi_flagged_not_repaired():
    for name, thm in (("sec6_q2", TheoremId.C2), ("sec6_q3", TheoremId.C1)):
        res = validate_hypotheses(get_preset(name).function, thm)
        assert not res
        assert "phi must avoid 0 on U" in res.condition
        assert res.witness == ((0, 0, 0, 0),)


def test_validate_dhz_passes_c2():
    assert validate_hypotheses(get_preset("dhz_m7").function, TheoremId.C2)


def test_validate_side_constraints():
    f = get_preset("sec5_f1").function  # q = 2
    res = validate_hypotheses(f, TheoremId.A1)
    assert not res and "q > 2" in res.condition
    with pytest.raises(ValueError):
        validate_hypotheses(f, TheoremId.C1)  # wrong variant
    with pytest.raises(ValueError):
        validate_hypotheses(f, TheoremId.D1)


def test_validator_failure_witness_points():
    # A table that breaks A1 condition (2) at the all-ones point
    def rule(x):
        w = weight(x)
        if 1 <= w <= 2:
            return 1
        return 1 if x == (1, 1, 1) else 0

    vals = tuple(rule(index_to_vector(3, 3, i)) for i in range(27))
    f = FunctionSpec(F3, 3, TableFunction(vals))
    res = validate_hypotheses(f, TheoremId.A1)
    assert not res and "A1(2)" in res.condition and res.witness == ((1, 1, 1),)


def test_corollary_shapes_pass_their_theorems():
    # all-ones weight threshold over F_2, m >= 7, t <= (m-3)/2 passes A2
    f = FunctionSpec(F2, 7, WeightThreshold(2, (1, 1)))
    assert validate_hypotheses(f, TheoremId.A2)
    # complement threshold over F_2, 2 <= t <= m-2 passes B
    for t in (2, 3):
        assert validate_hypotheses(FunctionSpec(F2, 5, ComplementThreshold(t)),
                                   TheoremId.B)
    # consecutive blocks of length r >= 2 pass D2
    blocks = MonomialSum(((1, (1, 1, 0, 0, 0, 0)), (1, (0, 0, 1, 1, 0, 0)),
                          (1, (0, 0, 0, 0, 1, 1))))
    assert validate_hypotheses(FunctionSpec(F3, 6, blocks), TheoremId.D2)


def test_validator_pass_implies_nonlinear_and_minimal():
    rng = random.Random(17)
    instances = []
    for _ in range(6):
        t = rng.randint(2, 3)
        coeffs = tuple(rng.randrange(1, 3) for _ in range(t))
        instances.append((FunctionSpec(F3, 4, WeightThreshold(t, coeffs)),
                          TheoremId.A1))
    instances.append((FunctionSpec(F2, 6, ComplementThreshold(3)), TheoremId.B))
    instances.append((FunctionSpec(F3, 6, MonomialSum(
        ((1, (1, 1, 1, 0, 0, 0)), (2, (0, 0, 0, 1, 1, 1))))), TheoremId.D1))
    for f, thm in instances:
        result = validate_hypotheses(f, thm)
        if not result:
            continue
        assert linearity_check(f) is None
        assert rank_criterion_code(defining_set(f)).verdict == "minimal"


def test_presets_complete_and_stable():
    presets = paper_presets()
    assert set(presets) == {
        "sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3",
        "sec6_q2", "sec6_q3", "sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4",
        "dhz_m7",
    }
    a = get_preset("sec4_f2").function.materialize().variant.values
    b = get_preset("sec4_f2").function.materialize().variant.values
    assert a == b
    with pytest.raises(KeyError):
        get_preset("nope")


def test_sec4_f2_table_rule():
    f = get_preset("sec4_f2").function
    assert f.eval((1, 0, 0, 0)) == 1
    assert f.eval((2, 1, 0, 0)) == 1
    assert f.eval((2, 1, 1, 0)) == 2  # weight 3: value x_1
    assert f.eval((1, 1, 1, 1)) == 0


def test_sec5_f3_table_rule():
    f = get_preset("sec5_f3").function
    assert f.eval((1, 1, 0, 0, 0)) == 0
    assert f.eval((1, 0, 1, 1, 0)) == 1  # weight 3: x1 + x2 = 1
    assert f.eval((0, 1, 1, 1, 0)) == 1
    assert f.eval((1, 1, 1, 1, 0)) == 1  # weight 4


def test_function_file_round_trip_all_variants():
    cases = [
        get_preset("sec4_f1").function,      # weight threshold
        get_preset("sec5_f1").function,      # complement threshold
        get_preset("sec4_f2").function,      # table
        get_preset("sec6_q3").function,      # maiorana-mcfarland
        get_preset("sec7_f4").function,      # monomial sum
    ]
    for f in cases:
        buf = io.StringIO()
        write_function(buf, f)
        back = read_function(io.StringIO(buf.getvalue()))
        assert back.field is f.field and back.m == f.m
        assert back.variant == f.variant


def test_function_file_rejects_garbage():
    with pytest.raises(ValueError):
        read_function(io.StringIO(""))
    with pytest.raises(ValueError):
        read_function(io.StringIO("3 4 wibble\n1 2 3\n"))
    with pytest.raises(ValueError):
        read_function(io.StringIO("3 2 table\n1 2 3\n"))  # wrong count
    # each of these once ended in an IndexError or TypeError
    with pytest.raises(ValueError, match="arity"):
        read_function(io.StringIO("3 -1 monomial_sum\n4\n"))
    with pytest.raises(ValueError, match="s \\+ t = m"):
        read_function(io.StringIO("2 1 maiorana_mcfarland\n-1 1 5\n"))


@pytest.mark.parametrize("text, message", [
    ("3 10000000 table\n0 1 2\n", r"table length 3 != q\^m = 3\^10000000"),
    ("3 10000000 maiorana_mcfarland\n10000000 0 1 1\n", r"q\^s = 3\^10000000"),
])
def test_function_file_huge_arity_refused_at_once(text, message):
    # q^m is not computed when m exceeds the body length's bit length: the
    # refusal is immediate and its message needs no multi-million-digit integer
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        read_function(io.StringIO(text))
    assert time.perf_counter() - start < 0.1
