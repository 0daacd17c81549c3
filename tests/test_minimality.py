"""The four minimality criteria, projective classes, certificates."""

import io
import itertools
import random

import numpy as np
import pytest

from minicode.code import DefiningSet, codeword, defining_set, linearity_check, read_defining_set
from minicode.errors import BudgetExceededError, CertificateFormatError, GuardError
from minicode.families import FunctionSpec, TableFunction, get_preset
from minicode.gf import make_field
import minicode.linalg as linalg_mod
from minicode.linalg import (
    class_count,
    covers,
    dot,
    enumerate_vectors,
    index_to_vector,
    np_class_codewords,
    np_class_reps,
    rank,
)
from minicode.linalg import weight as weight_of
from minicode.minimality import (
    Certificate,
    CoverViolation,
    DhzViolation,
    MinimalityReport,
    ab_condition,
    cf_case_check,
    dhz_criterion,
    is_minimal_definition,
    normalize_class,
    projective_classes,
    rank_criterion_code,
    rank_criterion_codeword,
    read_certificate,
    verify_certificate,
    write_certificate,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F64 = make_field(2, 6)
F256 = make_field(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x^2 + 1


def random_table_code(field, m, rng):
    vals = tuple(rng.randrange(field.q) for _ in range(field.q**m))
    return FunctionSpec(field, m, TableFunction(vals))


def test_projective_classes_count_and_order():
    reps = list(projective_classes(F3, 3))
    assert len(reps) == class_count(3, 3) == 13
    # ascending canonical index, first nonzero coordinate 1
    from minicode.linalg import vector_to_index

    idxs = [vector_to_index(3, y) for y in reps]
    assert idxs == sorted(idxs)
    for y in reps:
        assert normalize_class(F3, y) == y
    # every nonzero vector normalizes to exactly one listed representative
    seen = {normalize_class(F3, v) for v in enumerate_vectors(F3, 3)}
    assert seen == set(reps)
    # the array the criteria build lists the same representatives in order
    for field, k in ((F2, 1), (F2, 6), (F3, 3), (F4, 4), (F9, 3)):
        assert np_class_reps(field.q, k).tolist() == list(map(list, projective_classes(field, k)))


def test_normalize_class_idempotent_and_zero_rejected():
    y = (0, 2, 1)
    rep = normalize_class(F3, y)
    assert rep == (0, 1, 2)
    assert normalize_class(F3, rep) == rep
    with pytest.raises(ValueError):
        normalize_class(F3, (0, 0, 0))


def test_definition_toy_violation():
    # c(1,1) = (1,1,1) covers both other codewords; the reported witness is
    # the first (a, b) pair in canonical class order.
    from minicode.code import codeword
    from minicode.linalg import covers

    D = DefiningSet(F2, 2, ((1, 0), (1, 0), (0, 1)))
    rep = is_minimal_definition(D)
    assert rep.verdict == "not_minimal"
    w = rep.witness
    assert isinstance(w, CoverViolation)
    assert w.a == (1, 1)
    assert covers(codeword(w.b, D), codeword(w.a, D))
    assert w.b not in ((0, 0), w.a)  # linearly independent messages
    # the hand-enumerated cover from the worked example also holds
    assert covers(codeword((1, 0), D), codeword((1, 1), D))


def test_definition_simplex_minimal():
    vectors = tuple(enumerate_vectors(F3, 3))
    D = DefiningSet(F3, 3, vectors)
    assert is_minimal_definition(D).verdict == "minimal"


def test_definition_sec5_f2_minimal():
    D = defining_set(get_preset("sec5_f2").function)
    assert is_minimal_definition(D).verdict == "minimal"


def test_definition_scale_guard():
    vectors = tuple((1,) * 2 for _ in range(2000))
    D = DefiningSet(F2, 2, vectors)
    with pytest.raises(GuardError):
        is_minimal_definition(D)


def test_ab_condition_examples():
    assert ab_condition(defining_set(get_preset("sec5_f1").function)).verdict == "minimal"
    rep = ab_condition(defining_set(get_preset("sec4_f1").function))
    assert rep.verdict == "inconclusive"
    assert rep.witness == (32, 65)
    # equal-weight (simplex) code: ratio 1 > (q-1)/q
    D = DefiningSet(F3, 2, tuple(enumerate_vectors(F3, 2)))
    assert ab_condition(D).verdict == "minimal"


def test_dhz_toy_violation_binary_specialization():
    # q = 2: the identity degenerates to wt(a + b) = wt(a) - wt(b)
    from minicode.code import codeword

    D = DefiningSet(F2, 2, ((1, 0), (1, 0), (0, 1)))
    rep = dhz_criterion(D)
    assert rep.verdict == "not_minimal"
    w = rep.witness
    assert isinstance(w, DhzViolation)
    assert w.a == (1, 1)
    ca, cb = codeword(w.a, D), codeword(w.b, D)
    lhs = sum(1 for x, y in zip(ca, cb) if (x + y) % 2)
    assert w.value == lhs == weight_of(ca) - weight_of(cb)


def test_dhz_sec4_f2_minimal():
    D = defining_set(get_preset("sec4_f2").function)
    assert dhz_criterion(D).verdict == "minimal"


def projective_words(D):
    """(reps, words): per projective point of C(D), its first class and codeword.

    The codewords are built with linalg.dot, class by class in canonical
    order; a codeword that is zero or a multiple of an earlier one is skipped.
    """
    reps, words, seen = [], [], set()
    for y in projective_classes(D.field, D.k):
        c = tuple(dot(D.field, y, d) for d in D.vectors.tolist())
        if any(c) and normalize_class(D.field, c) not in seen:
            seen.add(normalize_class(D.field, c))
            reps.append(y)
            words.append(c)
    return reps, words


def dhz_reference(D):
    """The first dhz violation over codewords built with linalg.dot, or None.

    Same scan order as dhz_criterion: the projective_words, then ordered
    pairs (a, b) of them.
    """
    field, q = D.field, D.field.q
    reps, words = projective_words(D)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            lhs = sum(weight_of([field.add(x, field.mul(c, z)) for x, z in zip(a, b)])
                      for c in range(1, q))
            if i != j and lhs == (q - 1) * weight_of(a) - weight_of(b):
                return DhzViolation(a=reps[i], b=reps[j], value=lhs)
    return None


def test_dhz_first_violation_matches_codeword_reference():
    # the count-table lookups must find the same first pair and value as a
    # scan over the codewords themselves, also when rank(D) < k
    rng = random.Random(17)
    codes = [defining_set(random_table_code(F, m, rng))
             for F, m, count in ((F2, 3, 12), (F3, 2, 6), (F4, 2, 4), (F8, 1, 2), (F9, 1, 2))
             for _ in range(count)]
    for F in (F3, F4, F8, F9):
        for _ in range(2):
            base = [tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(2)]
            rows = [base[0], base[1], base[0], (0, 0, 0)]
            rows += [tuple(F.add(F.mul(c, a), b) for a, b in zip(*base)) for c in range(1, 3)]
            codes.append(DefiningSet(F, 3, tuple(rows)))  # rank <= 2 < k
    found = 0
    for D in codes:
        expect = dhz_reference(D)
        rep = dhz_criterion(D)
        assert rep.witness == expect
        assert rep.verdict == ("minimal" if expect is None else "not_minimal")
        found += expect is not None
    assert 10 < found < len(codes)


def test_rank_criterion_codeword_examples():
    # all nonzero vectors of F_3^3: every class minimal
    D = DefiningSet(F3, 3, tuple(enumerate_vectors(F3, 3)))
    for y in projective_classes(F3, 3):
        rep = rank_criterion_codeword(y, D)
        assert rep.verdict == "minimal"
        assert len(rep.witness.indices) == 2
    # k = 2, D = {e_1, e_2}, y = (1, 1): empty hyperplane intersection
    D2 = DefiningSet(F2, 2, ((1, 0), (0, 1)))
    rep = rank_criterion_codeword((1, 1), D2)
    assert rep.verdict == "not_minimal"
    with pytest.raises(ValueError):
        rank_criterion_codeword((0, 0), D2)


@pytest.mark.parametrize("y", [(-1, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
def test_rank_criterion_codeword_rejects_a_non_message(y):
    # over F_2, -1 is no element, though the inverse table would take it
    # for 1; cf_case_check's v reaches the same check
    f = get_preset("sec5_f1").function
    D = defining_set(f)
    with pytest.raises(ValueError):
        rank_criterion_codeword(y, D)
    if len(y) == D.k:
        with pytest.raises(ValueError):
            cf_case_check(f, 1, y[:5], D)  # v = (y_1, 0, 0, 0, 0)


def test_rank_criterion_codeword_scalar_invariance():
    D = defining_set(get_preset("sec4_f1").function)
    rng = random.Random(23)
    for _ in range(10):
        y = tuple(rng.randrange(3) for _ in range(5))
        if not any(y):
            continue
        r1 = rank_criterion_codeword(y, D)
        r2 = rank_criterion_codeword(tuple(F3.mul(2, a) for a in y), D)
        assert r1.verdict == r2.verdict


def test_rank_criterion_requires_full_rank():
    f = FunctionSpec(F3, 3, TableFunction((0,) * 27))
    D = defining_set(f)
    with pytest.raises(GuardError):
        rank_criterion_code(D)


def test_rank_criterion_budget():
    D = defining_set(get_preset("sec4_f1").function)
    with pytest.raises(BudgetExceededError):
        rank_criterion_code(D, budget=10)
    assert rank_criterion_code(D, budget=10**9).verdict == "minimal"


def test_budget_env_override(monkeypatch):
    from minicode.minimality import op_budget

    monkeypatch.setenv("MINICODE_BUDGET", "123")
    assert op_budget() == 123
    assert op_budget(10) == 10
    monkeypatch.delenv("MINICODE_BUDGET")
    assert op_budget() == 10**10


def definition_reference(D):
    """The first cover over codewords built with linalg.dot, or None.

    The per-row loop: the projective_words, then ordered pairs (a, b) of
    them with b != a covered by a.
    """
    reps, words = projective_words(D)
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            if i != j and covers(b, a):
                return CoverViolation(a=reps[i], b=reps[j])
    return None


def random_defining_set(field, k, n, r, rng):
    """n random members of a random subspace of F_q^k spanned by r vectors."""
    span = [tuple(rng.randrange(field.q) for _ in range(k)) for _ in range(r)]
    rows = []
    for _ in range(n):
        v = (0,) * k
        for b in span:
            c = rng.randrange(field.q)
            v = tuple(field.add(x, field.mul(c, z)) for x, z in zip(v, b))
        rows.append(v)
    return DefiningSet(field, k, tuple(rows))


def full_rank_defining_set(field, k, n, rng):
    """random_defining_set(field, k, n, k, rng), drawn again until D has rank k."""
    assert n >= k
    while True:
        D = random_defining_set(field, k, n, k, rng)
        if D.rank == k:
            return D


ORACLE_FIELDS = [F2, F3, F4, make_field(5), F8, F9]


def oracle_codes(field, rng):
    """Seeded small codes over field: D_f ones, random full-rank D and rank-deficient D."""
    q = field.q
    if q > 256:
        # elements past one byte: (1, 0) has codeword (1, 0, q - 1), whose
        # last coordinate a byte would wrap to 0; a k = 1 code is minimal
        codes = [DefiningSet(field, 2, ((1, 0), (0, 1), (q - 1, 1))),
                 DefiningSet(field, 1, ((3,), (q - 1,)))]
        codes += [random_defining_set(field, 2, rng.randrange(2, 8), r, rng) for r in (2, 2, 1)]
        return codes
    m = {2: 4, 3: 3, 4: 2, 5: 2}.get(q, 1)
    codes = [defining_set(random_table_code(field, m, rng))
             for _ in range(6 if q <= 3 else 3)]
    for _ in range(4):
        k = 3 if q <= 5 else 2
        codes.append(full_rank_defining_set(field, k, rng.randrange(k, 8 * q), rng))
        codes.append(random_defining_set(field, k, rng.randrange(1, 3 * q), k - 1, rng))
    return codes


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("field", ORACLE_FIELDS + [make_field(257)], ids=lambda F: f"F{F.q}")
def test_definition_and_dhz_match_per_class_reference(monkeypatch, field, block):
    # the blocked oracles report the first (a, b) of the per-row loop, with
    # the same evidence, on rank-deficient D too and across several blocks:
    # at DOT_BLOCK = 1 dhz takes one row per block and definition 64 // R
    if block:
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
    rng = random.Random(61 + field.q)
    verdicts = set()
    for D in oracle_codes(field, rng):
        expect = definition_reference(D)
        got = is_minimal_definition(D)
        assert got.witness == expect
        assert got.verdict == ("minimal" if expect is None else "not_minimal")
        verdicts.add(got.verdict)
        expect = dhz_reference(D)
        got = dhz_criterion(D)
        assert got.witness == expect
        assert got.verdict == ("minimal" if expect is None else "not_minimal")
    assert verdicts == {"minimal", "not_minimal"}


def test_oracles_compare_codewords_up_to_scalars_on_rank_deficient_codes():
    # two classes whose codewords are scalar multiples are one projective
    # point of C(D): no pair of them may be reported as a cover or a dhz
    # violation, since both criteria need linearly independent codewords
    def independent(D, rep):
        a, b = codeword(rep.witness.a, D), codeword(rep.witness.b, D)
        return any(a) and any(b) and normalize_class(D.field, a) != normalize_class(D.field, b)

    # D spans the minimal 1-dimensional code {0, (1, 2, 1), (2, 1, 2)}
    D = read_defining_set(io.StringIO("3 2 3\n0 1\n0 2\n0 1\n"))
    assert D.rank == 1
    assert is_minimal_definition(D).verdict == dhz_criterion(D).verdict == "minimal"
    assert ab_condition(D).verdict == "minimal"
    # {(a, b, a + b)} is not minimal; (0, 0, 1) and (1, 0, 2) give (0, 1, 1) and twice it
    D = DefiningSet(F3, 3, ((0, 1, 0), (0, 0, 1), (0, 1, 1)))
    for rep in (is_minimal_definition(D), dhz_criterion(D)):
        assert rep.verdict == "not_minimal"
        assert independent(D, rep)
        assert (rep.witness.a, rep.witness.b) != ((0, 0, 1), (1, 0, 2))
    # seeded codes, a third of them rank-deficient
    decided = zero = 0
    for field in ORACLE_FIELDS + [make_field(257)]:
        rng = random.Random(83 + field.q)
        for D in oracle_codes(field, rng):
            reps = is_minimal_definition(D), dhz_criterion(D)
            assert reps[0].verdict == reps[1].verdict
            for rep in reps:
                assert rep.is_minimal or independent(D, rep)
            if not reps[0].is_minimal:
                w = reps[0].witness
                assert covers(codeword(w.b, D), codeword(w.a, D))
            if D.rank == 0:  # D is all zero: C(D) has no weight ratio for ab to test
                with pytest.raises(GuardError, match="code has no nonzero-weight codeword"):
                    ab_condition(D)
                zero += 1
            elif ab_condition(D).is_minimal:  # ab is a proof of minimality
                assert reps[0].is_minimal
                decided += D.rank < D.k
    assert decided >= 5
    assert zero >= 1


@pytest.mark.parametrize("block", [1, 4])
def test_definition_blocks_match_single_block(monkeypatch, block):
    # the upper triangle of blocks, read transposed for the lower one,
    # reports the verdict and first pair of the single-block product S S^T;
    # at DOT_BLOCK = 1 a block is one row, so a pair (a, b) with b before a
    # is found only in the transposed read
    rng = random.Random(73)
    codes = [defining_set(random_table_code(F, m, rng))
             for F, m, count in ((F2, 5, 8), (F3, 3, 8), (F4, 2, 4)) for _ in range(count)]
    codes += [full_rank_defining_set(F3, 4, rng.randrange(20, 60), rng) for _ in range(6)]
    codes.append(defining_set(get_preset("sec5_f1").function))
    single = [is_minimal_definition(D) for D in codes]
    monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
    earlier = 0
    for D, want in zip(codes, single):
        Y = D.projective_codewords[0].tolist()
        assert 64 * block // len(Y) < len(Y)  # two blocks or more
        got = is_minimal_definition(D)
        assert got == want
        if not got.is_minimal:
            earlier += Y.index(list(got.witness.b)) < Y.index(list(got.witness.a))
    assert {r.verdict for r in single} == {"minimal", "not_minimal"}
    assert earlier >= 3


def test_distinct_codewords_computed_once_per_defining_set(monkeypatch):
    # definition and dhz share one class-codeword table per D, the cached
    # D.projective_codewords, read-only and gone with D
    import gc
    import weakref

    import minicode.code as code_mod

    calls = []
    table = code_mod.np_class_codewords
    monkeypatch.setattr(code_mod, "np_class_codewords",
                        lambda field, rows: calls.append(len(rows)) or table(field, rows))
    rng = random.Random(79)
    D = defining_set(random_table_code(F3, 3, rng))
    first = is_minimal_definition(D), dhz_criterion(D)
    assert (is_minimal_definition(D), dhz_criterion(D)) == first
    assert len(calls) == 1
    Y, words = D.projective_codewords
    assert not Y.flags.writeable and not words.flags.writeable
    other = DefiningSet(F3, 2, ((1, 0), (0, 1), (1, 1)))
    dhz_criterion(other)
    assert len(calls) == 2
    gone = weakref.ref(D), weakref.ref(words)
    del D, Y, words
    gc.collect()
    assert gone[0]() is None and gone[1]() is None


@pytest.mark.parametrize("field", [F2, F3, F4, F8, F9, F64, F256, make_field(257)],
                         ids=lambda F: f"F{F.q}")
def test_class_codewords_match_per_class_dot(field):
    # the table built one coordinate at a time holds, row by row, the
    # codeword of each class in canonical order, in the narrowest exact type
    q = field.q
    k = {2: 5, 3: 4, 4: 3, 8: 3, 9: 3}.get(q, 2)
    rng = random.Random(71 + q)
    n = rng.randrange(2, 24 if q > 9 else 6 * q)
    codes = [random_defining_set(field, k, n, k, rng),
             random_defining_set(field, k, n, k - 1, rng),  # rank-deficient
             random_defining_set(field, 1, n, 1, rng)]
    top = 0
    for D in codes:
        words = np_class_codewords(field, D.vectors)
        assert words.dtype == np.min_scalar_type(q - 1)
        assert words.tolist() == [[dot(field, y, d) for d in D.vectors.tolist()]
                                  for y in projective_classes(field, D.k)]
        top = max(top, words.max())
    assert top == q - 1  # the largest element was met, past one byte over F_257


@pytest.mark.parametrize("block", [None, 40])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda F: f"F{F.q}")
def test_rank_hit_rounds_match_sequential_scan(monkeypatch, field, block):
    # every class keeps the rows rank_criterion_codeword keeps, and a failing
    # code reports the first failing class with the same rank and cover
    if block:
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
    rng = random.Random(67 + field.q)
    verdicts = set()
    codes = oracle_codes(field, rng)
    codes += [random_defining_set(field, 3, rng.randrange(field.q, 6 * field.q), 3, rng)
              for _ in range(4)]
    for D in codes:
        if D.rank != D.k:
            continue
        got = rank_criterion_code(D)
        verdicts.add(got.verdict)
        if got.is_minimal:
            for y, items in got.witness.classes:
                assert items == rank_criterion_codeword(y, D).witness.indices
            continue
        first = next(r for y in projective_classes(field, D.k)
                     if not (r := rank_criterion_codeword(y, D)).is_minimal)
        assert got.witness == first.witness
    assert verdicts == {"minimal", "not_minimal"}


def test_criterion_agreement_micro_sweep():
    rng = random.Random(41)
    agreed = 0
    for field, m, trials in ((F2, 3, 40), (F3, 3, 25), (F4, 2, 10), (F4, 3, 4), (F9, 2, 4)):
        for _ in range(trials):
            f = random_table_code(field, m, rng)
            if linearity_check(f) is not None:
                continue
            D = defining_set(f)
            v1 = is_minimal_definition(D).verdict
            v2 = dhz_criterion(D).verdict
            v3 = rank_criterion_code(D).verdict
            assert v1 == v2 == v3
            agreed += 1
    assert agreed > 40


def test_rank_not_minimal_reports_smallest_class():
    # functions where some class fails: definition's covering message a
    # and rank's failing class must agree on the earliest canonical index,
    # and the reported rank and covered message must be checkable evidence
    rng = random.Random(43)
    codes = [random_table_code(F2, 3, rng) for _ in range(60)]
    codes.append(FunctionSpec(F4, 2, TableFunction(
        (2, 0, 3, 3, 2, 2, 3, 3, 0, 3, 0, 0, 0, 2, 3, 0))))
    seen = set()
    for f in codes:
        if linearity_check(f) is not None:
            continue
        D = defining_set(f)
        rep = rank_criterion_code(D)
        if rep.verdict != "not_minimal":
            continue
        seen.add(f.field.q)
        failing = rep.witness["y"]
        # recompute the first failing class independently
        expected = next(
            y for y in projective_classes(f.field, D.k)
            if rank_criterion_codeword(y, D).verdict == "not_minimal"
        )
        assert failing == expected
        assert rank_criterion_codeword(failing, D).witness == rep.witness
        assert rep.witness["rank"] < D.k - 1
        b = rep.witness["covered"]
        cy, cb = codeword(failing, D), codeword(b, D)
        assert any(cb) and covers(cb, cy)
        assert normalize_class(f.field, b) != failing  # no scalar multiple of y
    assert seen == {2, 4}


def test_collectors_agree():
    # every class of the batched certificate keeps exactly the rows the
    # sequential EchelonBasis scan of rank_criterion_codeword keeps
    rng = random.Random(47)
    codes = [defining_set(get_preset("sec4_f2").function)]
    for F, m in ((F4, 3), (F8, 2), (F9, 2)):
        f = random_table_code(F, m, rng)
        while linearity_check(f) is not None or not rank_criterion_code(defining_set(f)).is_minimal:
            f = random_table_code(F, m, rng)
        codes.append(defining_set(f))
    for D in codes:
        cert = rank_criterion_code(D).witness
        assert len(cert.classes) == class_count(D.field.q, D.k)
        for y, items in cert.classes:
            assert items == rank_criterion_codeword(y, D).witness.indices


SMALL_BLOCK = 40  # one or two classes per block and window of 20 candidates at k = 4


def test_rank_failure_across_many_blocks(monkeypatch):
    # with many class blocks the smallest failing class and its evidence
    # still match the sequential reference, also past the first block
    monkeypatch.setattr(linalg_mod, "DOT_BLOCK", SMALL_BLOCK)
    rng = random.Random(53)
    late = 0
    for field, m in [(F2, 3)] * 40 + [(F3, 3)] * 10 + [(F4, 2)] * 10:
        f = random_table_code(field, m, rng)
        if linearity_check(f) is not None:
            continue
        D = defining_set(f)
        rep = rank_criterion_code(D)
        classes = list(projective_classes(field, D.k))
        verdicts = [rank_criterion_codeword(y, D) for y in classes]
        failing = [i for i, r in enumerate(verdicts) if not r.is_minimal]
        if not failing:
            assert rep.is_minimal and verify_certificate(D, rep.witness)
            continue
        assert rep.witness == verdicts[failing[0]].witness
        late += failing[0] >= 2
    assert late >= 5


def as_vectors(D, cert):
    """The value-mode form of an index-mode certificate."""
    rows = list(map(tuple, D.vectors.tolist()))
    classes = tuple((y, tuple(rows[i - 1] for i in items)) for y, items in cert.classes)
    return Certificate(cert.q, cert.n, cert.k, "vectors", classes)


def with_last(cert, items):
    """cert with the item list of its last class replaced."""
    y, _ = cert.classes[-1]
    return Certificate(cert.q, cert.n, cert.k, cert.mode, cert.classes[:-1] + ((y, items),))


def test_tampering_in_last_block_detected(monkeypatch):
    monkeypatch.setattr(linalg_mod, "DOT_BLOCK", SMALL_BLOCK)
    D = defining_set(get_preset("sec4_f2").function)
    field, n = D.field, D.n
    cert = rank_criterion_code(D).witness
    vcert = as_vectors(D, cert)
    assert verify_certificate(D, cert) and verify_certificate(D, vcert)
    rows = list(map(tuple, D.vectors.tolist()))
    y, items = cert.classes[-1]
    off = next(i + 1 for i, d in enumerate(rows) if dot(field, y, d))
    for bad in ((off,) + items[1:], (items[0],) * len(items)):
        assert not verify_certificate(D, with_last(cert, bad))
        assert not verify_certificate(D, with_last(vcert, tuple(rows[i - 1] for i in bad)))
    for bad in (items[:-1], items + (items[0],)):  # an entry too few or too many
        with pytest.raises(CertificateFormatError, match="entries, expected k - 1"):
            with_last(cert, bad)
        with pytest.raises(CertificateFormatError, match="entries, expected k - 1"):
            with_last(vcert, tuple(rows[i - 1] for i in bad))
    # a vector that is no member of D: (f(x) + 1, x) for a member (f(x), x)
    d = rows[items[0] - 1]
    absent = (field.add(d[0], 1),) + d[1:]
    assert not verify_certificate(D, with_last(vcert, (absent,) + vcert.classes[-1][1][1:]))
    # indices outside 1..n and a duplicated representative
    for i in (0, n + 1):
        assert not verify_certificate(D, with_last(cert, (i,) + items[1:]))
    dup = cert.classes[:-1] + ((cert.classes[0][0], items),)
    assert not verify_certificate(D, Certificate(cert.q, n, cert.k, cert.mode, dup))


def reference_verify(D, cert):
    """Pure-Python verifier: the same acceptance rule, one class at a time."""
    field, k, n = D.field, D.k, D.n
    if (cert.q, cert.n, cert.k) != (field.q, n, k):
        return False
    expected = set(projective_classes(field, k))
    reps = [y for y, _ in cert.classes]
    if len(reps) != len(expected) or set(reps) != expected:
        return False
    rows = list(map(tuple, D.vectors.tolist()))
    members = set(rows)
    for y, items in cert.classes:
        if len(items) != k - 1:
            return False
        if cert.mode == "indices":
            if not all(1 <= i <= n for i in items):
                return False
            vectors = [rows[i - 1] for i in items]
        else:
            vectors = [tuple(v) for v in items]
            if not all(v in members for v in vectors):
                return False
        if any(dot(field, y, v) for v in vectors) or rank(field, vectors) != k - 1:
            return False
    return True


def tamper(rng, D, cert):
    """cert with one random local change; the change may leave it valid."""
    field, k, n = D.field, D.k, D.n
    classes = list(cert.classes)
    j = rng.randrange(len(classes))
    y, items = classes[j]
    kind = rng.randrange(7)
    if kind == 0:  # any index or any vector of F_q^k, members of D or not
        i = rng.randrange(k - 1)
        new = (rng.randrange(n + 2) if cert.mode == "indices"
               else tuple(rng.randrange(field.q) for _ in range(k)))
        classes[j] = (y, items[:i] + (new,) + items[i + 1:])
    elif kind == 1:  # another class's representative, duplicated
        classes[j] = (classes[rng.randrange(len(classes))][0], items)
    elif kind == 2:  # two classes swap their witnesses
        i = rng.randrange(len(classes))
        classes[i], classes[j] = (classes[i][0], items), (y, classes[i][1])
    elif kind == 3:  # a repeated witness
        classes[j] = (y, (items[-1],) + items[1:])
    elif kind == 4:  # one item too few or too many: refused when the certificate is built
        classes[j] = (y, items[1:] if rng.random() < 0.5 else items + items[:1])
    elif kind == 5:  # a class dropped
        del classes[j]
    else:  # another class's member of D that happens to be orthogonal
        other = classes[rng.randrange(len(classes))][1]
        classes[j] = (y, (other[0],) + items[1:])
    return Certificate(cert.q, cert.n, cert.k, cert.mode, tuple(classes))


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
def test_verifier_agrees_with_reference_sweep(monkeypatch, block):
    if block:
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
    rng = random.Random(59)
    outcomes = set()
    codes = []
    for field, m, count in ((F2, 4, 2), (F2, 5, 1), (F3, 3, 2), (F4, 2, 2), (F9, 2, 1)):
        while sum(D.field == field and D.k == m + 1 for D, _ in codes) < count:
            f = random_table_code(field, m, rng)
            if linearity_check(f) is None:
                D = defining_set(f)
                rep = rank_criterion_code(D)
                if rep.is_minimal:
                    codes.append((D, rep.witness))
    for D, index_cert in codes:
        for cert in (index_cert, as_vectors(D, index_cert)):
            assert verify_certificate(D, cert) and reference_verify(D, cert)
            for _ in range(40):
                try:
                    bad = tamper(rng, D, cert)
                except CertificateFormatError:
                    outcomes.add("refused")
                    continue
                got = verify_certificate(D, bad)
                assert got == reference_verify(D, bad)
                outcomes.add(got)
    assert outcomes == {True, False, "refused"}


def with_classes(cert, change):
    """cert with change(j, rep, items) -> (rep, items) applied to every class j."""
    classes = tuple(change(j, y, items) for j, (y, items) in enumerate(cert.classes))
    return Certificate(cert.q, cert.n, cert.k, cert.mode, classes)


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
def test_verifier_entry_types(monkeypatch, block):
    # one rule whatever the block size: integer entries of any integer type
    # are accepted, and a bool anywhere, in a representative or an entry, is
    # refused when the certificate is built, as are float and ragged entries
    if block:
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)  # one class per block
    D = defining_set(get_preset("sec5_f1").function)  # q = 2, k = 6, 63 classes
    cert = rank_criterion_code(D).witness
    vcert = as_vectors(D, cert)
    flag = lambda v: tuple(map(bool, v))
    at5 = lambda new: lambda j, y, it: new(y, it) if j == 5 else (y, it)
    for c in (cert, vcert):
        vectors = c.mode == "vectors"
        assert verify_certificate(D, c)
        lists = lambda j, y, it: (list(y), [list(map(np.int64, v)) if vectors else np.int64(v)
                                            for v in it])
        assert verify_certificate(D, with_classes(c, lists))
        to_float = (lambda v: tuple(map(float, v))) if vectors else float
        # a bool of the same value: the last coordinate of a 0/1 vector, or index 1
        to_bool = ((lambda it: (it[0][:-1] + (np.bool_(it[0][-1]),),) + it[1:]) if vectors
                   else (lambda it: tuple(True if a == 1 else a for a in it)))
        assert vectors or any(1 in it for _, it in c.classes)
        for bad in (
            lambda j, y, it: (flag(y), it),
            at5(lambda y, it: (flag(y), it)),
            at5(lambda y, it: (y[:-1] + (bool(y[-1]),), it)),
            lambda j, y, it: (y[:-1] + (np.bool_(y[-1]),), it),
            lambda j, y, it: (y, to_bool(it)),
            at5(lambda y, it: (y[:-1] + (float(y[-1]),), it)),
            at5(lambda y, it: (y[:-1], it)),
            at5(lambda y, it: (y + (0,), it)),
            at5(lambda y, it: (y, (to_float(it[0]),) + it[1:])),
            at5(lambda y, it: (y, (it[0][:-1] if vectors else (it[0],),) + it[1:])),
        ):
            with pytest.raises(CertificateFormatError):
                with_classes(c, bad)
    for bad in (
        at5(lambda y, it: (y, (flag(it[0]),) + it[1:])),
        at5(lambda y, it: (y, tuple(map(flag, it)))),
        lambda j, y, it: (y, tuple(map(flag, it))),
    ):
        with pytest.raises(CertificateFormatError):
            with_classes(vcert, bad)


def test_cf_case_check_cases_and_agreement():
    f = get_preset("sec5_f1").function
    D = defining_set(f)
    rep = cf_case_check(f, 1, (0,) * 5, D)
    assert rep.verdict == "minimal" and rep.witness["case"] == 1
    # standard basis works for the pure-f class: f(e_i) = 0
    rep3 = cf_case_check(f, 0, (1, 0, 0, 0, 0), D)
    assert rep3.verdict == "minimal" and rep3.witness["case"] == 3
    rep2 = cf_case_check(f, 1, (1, 0, 0, 0, 0), D)
    assert rep2.verdict == "minimal" and rep2.witness["case"] == 2
    with pytest.raises(ValueError):
        cf_case_check(f, 0, (0,) * 5, D)


def test_cf_case_check_rejects_linear():
    f = FunctionSpec(F3, 3, TableFunction(tuple(
        (x[0] + x[1]) % 3 for x in (index_to_vector(3, 3, i) for i in range(27))
    )))
    with pytest.raises(ValueError):
        cf_case_check(f, 1, (0, 0, 0))


def test_cf_case_check_unsatisfiable_constant():
    # f == 1 and u = 1, v = 0: no x has f(x) = 0
    f = FunctionSpec(F3, 3, TableFunction((1,) * 27))
    rep = cf_case_check(f, 1, (0, 0, 0))
    assert rep.verdict == "not_minimal" and rep.witness["case"] == 1


def test_report_invariants():
    with pytest.raises(ValueError):
        MinimalityReport("rank", "inconclusive")
    with pytest.raises(ValueError):
        MinimalityReport("rank", "not_minimal")


def test_code_verdict_matches_every_class_verdict():
    D = defining_set(get_preset("sec5_f1").function)
    assert rank_criterion_code(D).verdict == "minimal"
    for y in projective_classes(F2, 6):
        assert rank_criterion_codeword(y, D).verdict == "minimal"


def test_k1_repetition_code_trivially_minimal():
    D = DefiningSet(F3, 1, ((1,), (2,), (1,)))
    assert rank_criterion_code(D).verdict == "minimal"
    assert is_minimal_definition(D).verdict == "minimal"
    assert dhz_criterion(D).verdict == "minimal"
    rep = rank_criterion_codeword((1,), D)
    assert rep.verdict == "minimal" and rep.witness.indices == ()
    assert verify_certificate(D, rank_criterion_code(D).witness)


def test_certificate_round_trip_and_verify(tmp_path):
    D = defining_set(get_preset("sec5_f1").function)
    rep = rank_criterion_code(D)
    cert = rep.witness
    assert verify_certificate(D, cert)
    buf = io.StringIO()
    write_certificate(buf, cert)
    back = read_certificate(io.StringIO(buf.getvalue()))
    assert back == cert
    assert verify_certificate(D, back)
    path = tmp_path / "cert.txt"
    write_certificate(str(path), cert)
    assert path.read_text(encoding="utf-8") == buf.getvalue()
    assert read_certificate(str(path)) == cert


def reference_write(cert):
    """The certificate text with one str() per entry: the bytes write_certificate keeps."""
    lines = [f"{cert.q} {cert.n} {cert.k} {len(cert.classes)} {cert.mode}"]
    for rep, items in cert.classes:
        left = " ".join(str(a) for a in rep)
        if cert.mode == "indices":
            right = " ".join(str(i) for i in items)
        else:
            right = " ".join(str(a) for v in items for a in v)
        lines.append(f"{left} | {right}")
    return "\n".join(lines) + "\n"


def certificate_text(cert):
    buf = io.StringIO()
    write_certificate(buf, cert)
    return buf.getvalue()


@pytest.mark.parametrize("field", [F2, F9, F64, F256, F3, make_field(257)])
def test_certificate_round_trip_both_modes(field):
    # F_64 and F_256 put two- and three-digit numbers in every mode's
    # entries; the first class holds the largest element and index, past
    # one byte (256 over F_257) and past two bytes (n > 65,535)
    rng = random.Random(field.q)
    q, k, n = field.q, 4, field.q**3 - 1
    reps = list(itertools.islice(projective_classes(field, k), 2000))
    reps = [(1, q - 1, 0, q - 1)] + rng.sample(reps, min(150, len(reps)))
    pool = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(60)]
    top = {"indices": (n, 1, n - 1), "vectors": ((q - 1,) * k, (0, 0, 0, 1), (1, 0, 0, q - 1))}
    for mode, draw in (("indices", lambda: rng.randint(1, n)), ("vectors", lambda: rng.choice(pool))):
        classes = tuple((y, tuple(draw() for _ in range(k - 1))) for y in reps[1:])
        cert = Certificate(q, n, k, mode, ((reps[0], top[mode]),) + classes)
        assert cert.classes.reps.dtype == np.min_scalar_type(q - 1)
        assert cert.classes.entries.dtype == np.min_scalar_type(n if mode == "indices" else q - 1)
        assert cert.classes[0] == (reps[0], top[mode])
        text = certificate_text(cert)
        assert text == reference_write(cert)
        back = read_certificate(io.StringIO(text))
        assert back == cert
        assert back.classes[0] == (reps[0], top[mode])


def test_certificate_classes_view():
    # classes is a read-only sequence of (rep, items) pairs of plain ints,
    # built from any integer sequences; equality compares every field
    pairs = (((0, 0, 1), (3, 5)), ((0, 1, 0), (1, 7)), ((1, 0, 0), (2, 4)))
    cert = Certificate(2, 7, 3, "indices", [(list(y), list(it)) for y, it in pairs])
    classes = cert.classes
    assert len(classes) == 3
    assert (classes[0], classes[2]) == (pairs[0], pairs[2])
    assert (classes[-1], classes[-3]) == (pairs[2], pairs[0])
    for i in (3, -4):
        with pytest.raises(IndexError):
            classes[i]
    assert classes[1:] == pairs[1:] and classes[::-2] == pairs[::-2] and classes[5:] == ()
    assert tuple(classes) == pairs
    assert all(type(a) is int for y, items in classes for a in y + items)
    with pytest.raises(ValueError):
        classes.reps[0, 0] = 1  # the arrays are read-only
    as_numpy = [(np.array(y), tuple(map(np.int64, it))) for y, it in pairs]
    assert Certificate(2, 7, 3, "indices", as_numpy) == cert
    assert Certificate(2, 7, 3, "indices", classes) == cert
    for other in (Certificate(2, 8, 3, "indices", pairs),
                  Certificate(2, 7, 3, "indices", pairs[:2] + (((1, 0, 0), (2, 5)),)),
                  Certificate(2, 7, 3, "indices", pairs[:2])):
        assert other != cert
    vcert = Certificate(3, 8, 2, "vectors", (((0, 1), [[np.int64(1), 0]]), ((1, 2), ((1, 1),))))
    assert vcert.classes[:] == (((0, 1), ((1, 0),)), ((1, 2), ((1, 1),)))
    assert vcert.classes.entries.shape == (2, 1, 2)
    # refused when built: bools, floats, ragged or wrongly sized entries, an unknown mode
    y, it = pairs[0]
    for bad in (((True, 0, 1), it), (y, (np.bool_(True), 5)), (y, (3.0, 5)), (y, (3,)),
                (y, ((3,), 5)), ((0, 1), it), (y, it[0])):
        with pytest.raises(CertificateFormatError):
            Certificate(2, 7, 3, "indices", (bad,) + pairs[1:])
    v = ((0, 1, 1), (1, 1, 0))
    for bad in ((y, ((0, 1, 1), (1, 0))), (y, ((0, 1, 1), (1, 0, True))),
                (y, ((0, 1, 1), (1, 0, 1.0))), (y, ((0, 1, 1), 3)), (y, v + v[:1])):
        with pytest.raises(CertificateFormatError):
            Certificate(2, 7, 3, "vectors", (bad, ((0, 1, 0), v)))
    assert Certificate(2, 7, 3, "vectors", ((y, v), ((0, 1, 0), v))).classes[0] == (y, v)
    with pytest.raises(CertificateFormatError, match="unknown certificate mode"):
        Certificate(2, 7, 3, "values", pairs)


def test_witness_certificates_round_trip_shared_vectors():
    from minicode.families import paper_presets, validate_hypotheses
    from minicode.witness import witness_certificate

    for name, preset in sorted(paper_presets().items()):
        if preset.theorem is None or not validate_hypotheses(preset.function, preset.theorem):
            continue
        cert = witness_certificate(preset.theorem, preset.function)
        text = certificate_text(cert)
        assert text == reference_write(cert), name
        back = read_certificate(io.StringIO(text))
        assert back == cert, name


def test_certificate_writer_bytes_on_odd_entries():
    # bools, floats and ragged or empty vectors are refused when the
    # certificate is built; numpy ints and lists are integers and write
    # the bytes of their plain-int form
    v = (0, 1, 1)
    for mode, classes in (
        ("vectors", (((0, 0, 1), (v, [1, True, 0])),)),
        ("vectors", (((True, False, 1), ((1, 0, 0), v)),)),
        ("vectors", (((0, 1, 1), ((1, 2.0, 0), v)),)),
        ("vectors", (((0, 1, 1), ((), v)),)),
        ("indices", (((0, 0, 1), (True, np.int64(7))),)),
        ("indices", (((0, 0, 1), (1, 7)), ((0, 1, 0), []))),
    ):
        with pytest.raises(CertificateFormatError):
            Certificate(2, 7, 3, mode, classes)
    odd = Certificate(2, 7, 3, "vectors", (
        ((0, 0, 1), (v, [1, np.int64(1), 0])),
        ([np.uint8(1), 0, 1], ((np.int64(1), 0, 0), v)),
    ))
    plain = Certificate(2, 7, 3, "vectors", (
        ((0, 0, 1), (v, (1, 1, 0))),
        ((1, 0, 1), ((1, 0, 0), v)),
    ))
    assert odd == plain
    assert certificate_text(odd) == reference_write(plain)
    index = Certificate(2, 7, 3, "indices", (((0, 0, 1), [np.int64(1), 7]),))
    assert certificate_text(index) == reference_write(Certificate(2, 7, 3, "indices",
                                                                  (((0, 0, 1), (1, 7)),)))


def test_certificate_tampering_detected():
    D = defining_set(get_preset("sec5_f1").function)
    cert = rank_criterion_code(D).witness
    classes = list(cert.classes)

    # a vector not orthogonal to its class representative
    y0, items0 = classes[0]
    bad_idx = next(
        i + 1 for i, d in enumerate(D.vectors.tolist())
        if sum(a * b for a, b in zip(d, y0)) % 2 != 0
    )
    tampered = Certificate(cert.q, cert.n, cert.k, cert.mode,
                           tuple([(y0, (bad_idx,) + items0[1:])] + classes[1:]))
    assert not verify_certificate(D, tampered)

    # a missing class
    short = Certificate(cert.q, cert.n, cert.k, cert.mode, tuple(classes[1:]))
    assert not verify_certificate(D, short)

    # duplicated class replacing another keeps the count but not the cover
    dup = Certificate(cert.q, cert.n, cert.k, cert.mode,
                      tuple([classes[0]] + classes[:-1]))
    assert not verify_certificate(D, dup)

    # dependent witness set
    rep_y, items = classes[0]
    dep = Certificate(cert.q, cert.n, cert.k, cert.mode,
                      tuple([(rep_y, (items[0],) * len(items))] + classes[1:]))
    assert not verify_certificate(D, dep)

    # wrong header
    wrong = Certificate(cert.q, cert.n + 1, cert.k, cert.mode, cert.classes)
    assert not verify_certificate(D, wrong)


def test_certificate_malformed_raises():
    with pytest.raises(CertificateFormatError):
        read_certificate(io.StringIO(""))
    with pytest.raises(CertificateFormatError):
        read_certificate(io.StringIO("3 80 5 2 indices\n0 0 0 0 1 | 1 2 3 4\n"))
    with pytest.raises(CertificateFormatError):
        read_certificate(io.StringIO("3 80 5 1 wibble\n0 0 0 0 1 | 1 2 3 4\n"))
    with pytest.raises(CertificateFormatError):
        read_certificate(io.StringIO("3 80 5 1 indices\n0 0 0 0 1  1 2 3 4\n"))


@pytest.mark.parametrize("header", [
    "3 8 0 1 vectors",  # k = 0 once divided the vector payload by k
    "3 8 0 1 indices",
    "1 8 2 1 vectors",
    "3 0 2 1 vectors",
    "3 8 2 -1 vectors",
])
def test_certificate_header_out_of_range_is_a_format_error(header, tmp_path):
    text = f"{header}\n | 1 2\n"
    with pytest.raises(CertificateFormatError, match="header needs"):
        read_certificate(io.StringIO(text))
    path = tmp_path / "cert.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CertificateFormatError):
        read_certificate(str(path))


def test_vector_mode_certificate_verifies():
    from minicode.witness import witness_certificate
    from minicode.families import TheoremId

    f = get_preset("sec5_f1").function
    cert = witness_certificate(TheoremId.B, f)
    D = defining_set(f)
    assert cert.mode == "vectors"
    assert verify_certificate(D, cert)
    buf = io.StringIO()
    write_certificate(buf, cert)
    back = read_certificate(io.StringIO(buf.getvalue()))
    assert verify_certificate(D, back)
    # a value not present in D must be rejected: f(1,1,1,1,1) = 1, not 0
    y0, items0 = cert.classes[0]
    fake = tuple([(y0, ((0, 1, 1, 1, 1, 1),) + items0[1:])] + list(cert.classes[1:]))
    assert not verify_certificate(D, Certificate(cert.q, cert.n, cert.k, "vectors", fake))


def test_verifier_tells_elements_apart_past_one_byte():
    # over F_257 the element 256 is no 0: the representatives (1, 0) and
    # (1, 256) are two classes, and the vector (256, 2) is no member (0, 2)
    F257 = make_field(257)
    D = DefiningSet(F257, 2, ((0, 2),) + tuple((1, a) for a in range(257)))
    cert = rank_criterion_code(D).witness
    vcert = as_vectors(D, cert)
    assert verify_certificate(D, cert) and verify_certificate(D, vcert)
    assert vcert.classes[1] == ((1, 0), ((0, 2),))
    forged = with_classes(vcert, lambda j, y, it: (y, ((256, 2),)) if j == 1 else (y, it))
    assert not verify_certificate(D, forged)
