"""Defining sets, function codes, weight distributions, output formats."""

import io
import json
import random
import time
from functools import partial

import numpy as np
import pytest

from minicode.code import (
    DefiningSet,
    codeword,
    defining_set,
    generator_matrix,
    linearity_check,
    params,
    read_defining_set,
    weight_distribution,
    write_defining_set,
)
from minicode.errors import GuardError
from minicode.families import (
    ComplementThreshold,
    FunctionSpec,
    TableFunction,
    TheoremId,
    WeightThreshold,
    get_preset,
    paper_presets,
    validate_hypotheses,
)
from minicode.gf import make_field
from minicode.linalg import (
    dot,
    index_to_vector,
    read_matrix,
    weight,
)
from scalar_reference import rank, reference_value, unit_vector, vector_to_index

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)


def table_fn(field, m, rule):
    vals = tuple(rule(index_to_vector(field.q, m, i)) for i in range(field.q**m))
    return FunctionSpec(field, m, TableFunction(vals))


def test_defining_set_constant_one():
    f = table_fn(F2, 2, lambda x: 1)
    D = defining_set(f)
    assert D.vectors.tolist() == [[1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert D.k == 3 and D.n == 3
    assert D.origin == ("from_function", 2)


def test_defining_set_zero_function_rank():
    f = table_fn(F3, 3, lambda x: 0)
    D = defining_set(f)
    assert all(d[0] == 0 for d in D.vectors.tolist())
    assert D.rank == 3  # rank m, degenerate construction


def test_defining_set_sec4_f1_shape():
    D = defining_set(get_preset("sec4_f1").function)
    assert (D.n, D.k) == (80, 5)
    assert D.rank == 5


def test_defining_set_rows_and_array_agree():
    # D.vectors is one read-only, C-contiguous n x k int64 array holding the
    # rows (f(x), x) in canonical x-order
    rng = random.Random(4)
    fns = [p.function for p in paper_presets().values()]
    fns += [table_fn(F, m, lambda x, F=F: rng.randrange(F.q)) for F, m in ((F4, 3), (F9, 2))]
    for f in fns:
        D = defining_set(f)
        q, m = f.field.q, f.m
        want = [[reference_value(f, index_to_vector(q, m, i)), *index_to_vector(q, m, i)]
                for i in range(1, q**m)]
        assert D.vectors.dtype == np.int64 and D.vectors.shape == (q**m - 1, m + 1)
        assert D.vectors.flags.c_contiguous and not D.vectors.flags.writeable
        assert D.vectors.tolist() == want
        with pytest.raises(ValueError, match="read-only"):
            D.vectors[0, 0] = 0


@pytest.mark.parametrize("rows", [
    ((-1, 0), (0, 1)),     # below the field
    ((5, 0), (0, 1)),      # beyond the field
    ((1.5, 0), (0, 1)),    # a float
    ((True, 0), (0, 1)),   # a bool
    ((1, 0), (0, 1, 1)),   # a row longer than k
    ((1, 0), (0,)),        # a row shorter than k
    np.array([[1.5, 0.0]]),
    np.array([[True, False]]),
    np.array([[3, 0]]),
    np.array([[1, 0, 0]]),
])
def test_defining_set_refuses_malformed_rows(rows):
    with pytest.raises(ValueError):
        DefiningSet(F3, 2, rows)


@pytest.mark.parametrize("variant", [WeightThreshold(1, (1,)), ComplementThreshold(1)])
def test_huge_arity_refused_before_f_is_evaluated(monkeypatch, variant):
    # neither f at m unit vectors of length m nor 3^m is computed, and the
    # theorem validators walk no vector of F_3^m: the guard is raised
    # before FunctionSpec.at, the one evaluator of f, is called
    def refuse(self, X):
        raise AssertionError("f was evaluated")

    monkeypatch.setattr(FunctionSpec, "at", refuse)
    f = FunctionSpec(F3, 2 * 10**6, variant)
    validations = [partial(validate_hypotheses, thm=thm)
                   for thm in (TheoremId.A1, TheoremId.A2, TheoremId.C1)]
    tables = [lambda f: f.values(), lambda f: f.table]
    for build in [linearity_check, defining_set] + tables + validations:
        start = time.perf_counter()
        with pytest.raises(GuardError, match=r"q\^m = 3\^2000000 exceeds the"):
            build(f)
        assert time.perf_counter() - start < 0.1


def test_defining_set_rank_matches_linalg_rank():
    # the batched table-driven elimination against the sequential EchelonBasis
    codes = [defining_set(p.function) for p in paper_presets().values()]
    codes.append(defining_set(table_fn(F3, 3, lambda x: (x[0] + 2 * x[2]) % 3)))
    codes.append(defining_set(table_fn(F9, 2, lambda x: F9.mul(5, x[1]))))
    rng = random.Random(11)
    codes.append(defining_set(table_fn(F8, 2, lambda x: rng.randrange(8))))
    codes.append(DefiningSet(F4, 3, ((1, 2, 3), (2, 3, 1), (0, 0, 0), (3, 1, 2))))
    ranks = [D.rank for D in codes]
    assert ranks == [rank(D.field, D.vectors.tolist()) for D in codes]
    assert ranks[-4:] == [3, 2, 3, 1]


def test_linearity_check_linear():
    f = table_fn(F3, 3, lambda x: (x[0] + 2 * x[2]) % 3)
    assert linearity_check(f) == (1, 0, 2)


def test_linearity_check_constant_absent():
    f = table_fn(F3, 3, lambda x: 1)
    assert linearity_check(f) is None


def test_linearity_check_sec4_f1_absent():
    f = get_preset("sec4_f1").function
    assert linearity_check(f) is None
    assert defining_set(f).rank == 5


def test_codeword_zero_message():
    D = defining_set(get_preset("sec5_f1").function)
    assert weight(codeword((0,) * D.k, D)) == 0


@pytest.mark.parametrize("y", [(-1, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
def test_codeword_rejects_a_non_message(y):
    # over F_2 the table lookups would read -1 as 1 and index past the
    # tables at 5; a message has k = 6 canonical elements
    D = defining_set(get_preset("sec5_f1").function)
    with pytest.raises(ValueError):
        codeword(y, D)


def test_codeword_pure_linear_part_weight():
    # y = (0, v) with v != 0 hits exactly q^m - q^(m-1) nonzero coordinates
    for preset, expect in (("sec4_f1", 81 - 27), ("sec5_f1", 32 - 16)):
        D = defining_set(get_preset(preset).function)
        m = D.k - 1
        rng = random.Random(3)
        for _ in range(5):
            v = tuple(rng.randrange(D.field.q) for _ in range(m))
            if not any(v):
                continue
            assert weight(codeword((0,) + v, D)) == expect


def test_codeword_weight_scalar_invariance():
    D = defining_set(get_preset("sec4_f2").function)
    rng = random.Random(7)
    for _ in range(10):
        y = tuple(rng.randrange(3) for _ in range(5))
        w = weight(codeword(y, D))
        for a in (1, 2):
            ay = tuple((a * c) % 3 for c in y)
            assert weight(codeword(ay, D)) == w


def test_codeword_weights_lie_in_enumerator_support():
    D = defining_set(get_preset("sec4_f1").function)
    allowed = {0, 32, 50, 53, 54, 56, 65}
    rng = random.Random(11)
    for _ in range(25):
        y = tuple(rng.randrange(3) for _ in range(5))
        assert weight(codeword(y, D)) in allowed


def test_weight_distribution_counts_sum_and_scalar_invariance():
    D = defining_set(get_preset("sec5_f2").function)
    we = weight_distribution(D)
    assert sum(we.counts.values()) == 2**6
    assert we.counts[0] == 1
    # rank-deficient defining set: counts[0] = q^(k - rank) > 1
    zero_f = table_fn(F3, 2, lambda x: 0)
    we0 = weight_distribution(defining_set(zero_f))
    assert we0.counts[0] == 3  # rank m = 2 against k = 3
    # scalar invariance over F_3 keeps nonzero counts divisible by q - 1
    D3 = defining_set(get_preset("sec4_f1").function)
    we3 = weight_distribution(D3)
    for w, c in we3.counts.items():
        if w:
            assert c % 2 == 0


def test_weight_distribution_matches_dot_oracle():
    # one kernel serves every field: compare it, over prime and extension
    # fields, with counts taken message by message through linalg.dot
    from itertools import product

    rng = random.Random(5)
    codes = [DefiningSet(F3, 2, ((1, 2), (0, 1), (2, 2)))]
    for field, m in ((F4, 2), (F8, 2), (F9, 2), (F4, 3)):
        codes.append(defining_set(table_fn(field, m, lambda x: rng.randrange(field.q))))
    for D in codes:
        field = D.field
        counts = {}
        for y in product(range(field.q), repeat=D.k):
            w = sum(1 for d in D.vectors.tolist() if dot(field, y, d))
            counts[w] = counts.get(w, 0) + 1
        assert dict(weight_distribution(D).counts) == counts


def test_weight_distribution_brute_force_oracle_sec5():
    # independent oracle: enumerate all 2^6 codewords coordinate by coordinate
    from itertools import product

    D = defining_set(get_preset("sec5_f1").function)
    counts = {}
    for y in product(range(2), repeat=6):
        w = sum(1 for d in D.vectors.tolist() if sum(a * b for a, b in zip(y, d)) % 2)
        counts[w] = counts.get(w, 0) + 1
    assert dict(weight_distribution(D).counts) == counts


def test_weight_distribution_block_size_invariant(monkeypatch):
    # the transform's gathers are chunked by DOT_BLOCK; the chunking must not
    # matter, down to one column and one count value per gather, nor when a
    # chunk size divides neither q nor q^(k-1).  Fresh D each time, since the
    # count table is cached on D.
    import minicode.linalg as linalg_mod

    def codes():
        rng = random.Random(7)
        return [
            defining_set(get_preset("sec4_f1").function),
            defining_set(table_fn(F4, 3, lambda x: rng.randrange(4))),
            defining_set(table_fn(F9, 2, lambda x: rng.randrange(9))),
        ]

    baselines = [weight_distribution(D).counts for D in codes()]
    for block in (1, 2 * 3**3, 2 * 9**2):
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
        assert [weight_distribution(D).counts for D in codes()] == baselines


def test_hyperplane_counts_match_dot_oracle():
    # N[y] = #{d : y.d = 0} message by message through linalg.dot, on D with
    # repeated rows, a zero row, rank(D) < k, k = 1, F_4, F_8, F_9 codes, and
    # k = 2 codes over F_49 and F_64, whose transform is only its first and
    # last steps
    from itertools import product

    rng = random.Random(13)
    codes = [
        DefiningSet(F3, 3, ((1, 2, 0), (1, 2, 0), (0, 0, 0), (2, 1, 1), (1, 2, 0))),
        DefiningSet(F4, 3, ((1, 2, 3), (2, 3, 1), (3, 1, 2), (0, 0, 0))),  # rank 1
        DefiningSet(F9, 1, ((0,), (4,), (7,), (4,))),
        DefiningSet(F2, 1, ((1,),)),
        defining_set(table_fn(F3, 2, lambda x: 0)),  # rank m = 2 < k = 3
    ]
    for field, m in ((F4, 3), (F8, 2), (F9, 2), (make_field(7, 2), 1), (make_field(2, 6), 1)):
        codes.append(defining_set(table_fn(field, m, lambda x: rng.randrange(field.q))))
    for D in codes:
        field, q = D.field, D.field.q
        N = D.hyperplane_counts
        oracle = [sum(1 for d in D.vectors.tolist() if not dot(field, y, d))
                  for y in product(range(q), repeat=D.k)]
        assert N.tolist() == oracle
        assert N[0] == D.n
        # constant on projective classes: N[c y] = N[y] for c != 0
        for i, y in enumerate(product(range(q), repeat=D.k)):
            for c in range(2, q):
                assert N[vector_to_index(q, [field.mul(c, a) for a in y])] == N[i]


def test_hyperplane_counts_past_the_narrow_count_types():
    # the transform holds its tables in the narrowest signed type for n; at
    # n = 300, past int8, and n = 40,000, past int16, every count equals the
    # dot oracle's over D's distinct rows with their multiplicities, and the
    # counts D caches are int64, so callers' arithmetic does not narrow
    from collections import Counter
    from itertools import product

    rng = random.Random(29)
    messages = list(product(range(2), repeat=3))
    for n in (300, 40_000):
        rows = [(1, 0, 0)] * (n // 2) + [rng.choice(messages) for _ in range(n - n // 2)]
        D = DefiningSet(F2, 3, rows)
        N = D.hyperplane_counts
        assert N.dtype == np.int64
        oracle = [sum(c for d, c in Counter(rows).items() if not dot(F2, y, d))
                  for y in messages]
        assert N.tolist() == oracle
        assert N[0] == n  # past int8's 127 and int16's 32,767
        assert D.n - N.min() == weight_distribution(D).w_max


def test_count_table_guard_boundary(monkeypatch):
    import minicode.code as code_mod

    # the guard bounds the q^(k+1) entries of the table: 3^4 is in, 3^5 out
    monkeypatch.setattr(code_mod, "WDIST_GUARD", 3**4)
    assert sum(weight_distribution(DefiningSet(F3, 3, ((1, 0, 2),))).counts.values()) == 27
    with pytest.raises(GuardError, match="guard"):
        weight_distribution(DefiningSet(F3, 4, ((1, 0, 2, 1),)))
    monkeypatch.undo()
    # F_2 with k = 26 was inside the old q^k <= 2^26 guard and is now refused
    with pytest.raises(GuardError, match="guard"):
        DefiningSet(F2, 26, ((1,) * 26,)).hyperplane_counts


def test_count_table_computed_once_per_defining_set(monkeypatch):
    import minicode.code as code_mod
    from minicode.minimality import ab_condition, dhz_criterion

    calls = []
    transform = code_mod.np_hyperplane_counts
    monkeypatch.setattr(code_mod, "np_hyperplane_counts",
                        lambda *a: calls.append(a) or transform(*a))
    D = defining_set(get_preset("sec5_f1").function)
    we = weight_distribution(D)
    assert ab_condition(D).witness == (we.w_min, we.w_max)
    assert params(D) == params(D, we)
    assert dhz_criterion(D).verdict == "minimal"
    assert len(calls) == 1


def test_weight_enumerator_text_golden():
    D = defining_set(get_preset("sec5_f2").function)
    we = weight_distribution(D)
    assert we.text == "1 + 1 z^6 + 5 z^12 + 5 z^14 + 41 z^16 + 10 z^18 + 1 z^20"


def test_weight_enumerator_json_keys_ascend_numerically():
    D = defining_set(get_preset("sec4_f1").function)
    we = weight_distribution(D)
    record = json.loads(we.to_json())
    keys = list(record["counts"])
    assert keys == sorted(keys, key=int)
    assert record["q"] == 3 and record["n"] == 80 and record["k"] == 5
    assert record["counts"]["32"] == 2


def test_params_reports_ratio():
    D = defining_set(get_preset("sec5_f1").function)
    cp = params(D)
    assert (cp.n, cp.k, cp.d, cp.w_max) == (31, 6, 10, 18)
    assert cp.ab_ratio_exceeds  # 10/18 > 1/2
    cp2 = params(defining_set(get_preset("sec4_f1").function))
    assert not cp2.ab_ratio_exceeds  # 32/65 < 2/3


def test_empty_defining_set_guard():
    with pytest.raises(GuardError):
        read_defining_set(io.StringIO("3 5 0\n"))


@pytest.mark.parametrize("text, row", [("3 3 1\n1 2 5\n", (1, 2, 5)),
                                       ("3 3 2\n1 2 0\n-1 0 0\n", (-1, 0, 0))])
def test_read_defining_set_refuses_entries_outside_the_field(text, row):
    # read_matrix only parses the tokens, and the DefiningSet built from them
    # checks that they lie in the field; "-1" is no token, so read_matrix
    # refuses it itself, naming its line
    if min(row) < 0:
        with pytest.raises(ValueError, match="line 3: token '-1'"):
            read_matrix(io.StringIO(text))
    else:
        assert read_matrix(io.StringIO(text))[1][-1].tolist() == list(row)
    with pytest.raises(ValueError, match="0..2" if min(row) >= 0 else "line 3"):
        read_defining_set(io.StringIO(text))


def test_weight_distribution_guard():
    vectors = tuple((1,) * 30 for _ in range(2))
    D = DefiningSet(F2, 30, vectors)
    with pytest.raises(GuardError):
        weight_distribution(D)


def test_generator_matrix_is_defining_set_transpose():
    D = defining_set(get_preset("sec5_f1").function)
    G = generator_matrix(D)
    assert len(G) == D.k and len(G[0]) == D.n
    for i in range(D.k):
        col = tuple(d[i] for d in D.vectors.tolist())
        assert G[i] == col


def test_defining_set_io_round_trip(tmp_path):
    D = defining_set(get_preset("sec5_f3").function)
    path = str(tmp_path / "d.txt")
    write_defining_set(path, D)
    back = read_defining_set(path)
    assert back.vectors.tolist() == D.vectors.tolist()
    assert back.field == D.field  # equal, also once make_field has evicted and remade it
    assert weight_distribution(back).text == weight_distribution(D).text
