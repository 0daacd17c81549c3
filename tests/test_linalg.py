"""Vectors, covering, rank, enumeration, dual facts, matrix IO."""

import io
import itertools
import random
import re

import numpy as np
import pytest

from minicode.errors import GuardError
from minicode.gf import field_by_order, make_field
from minicode.linalg import (
    covers,
    dot,
    index_to_vector,
    np_chunk_rows,
    np_digits,
    np_dots,
    np_orthogonal,
    np_ranks,
    read_matrix,
    split_header,
    support,
    text_pieces,
    weight,
    write_matrix,
    write_text,
)
import minicode.linalg as linalg_mod
from scalar_reference import (
    EchelonBasis,
    enumerate_vectors,
    kernel_basis,
    rank,
    solve,
    unit_vector,
    vector_to_index,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def test_dot_examples():
    assert dot(F3, (1, 2, 0), (2, 2, 1)) == 0
    assert dot(F3, (0, 0, 0), (1, 2, 1)) == 0
    assert dot(F2, (1, 1, 1), (1, 0, 1)) == 0
    with pytest.raises(ValueError):
        dot(F3, (1, 2), (1, 2, 0))


def test_support_weight_examples():
    assert support((0, 2, 0, 1)) == frozenset({2, 4})
    assert weight((0, 2, 0, 1)) == 2
    assert support((0, 0, 0)) == frozenset()
    assert weight((0, 0, 0)) == 0
    assert support((1, 1, 1)) == frozenset({1, 2, 3})


def test_covers_examples():
    for a in F3.elements():
        v = (2, 1, 1)
        assert covers(tuple(F3.mul(a, x) for x in v), v)
    assert not covers((1, 0), (0, 1))
    assert covers((0, 1, 0), (2, 1, 1))
    with pytest.raises(ValueError):
        covers((1,), (1, 0))


def test_covers_reflexive_transitive():
    vecs = [index_to_vector(3, 3, i) for i in range(27)]
    rng = random.Random(1)
    sample = rng.sample(vecs, 12)
    for u in sample:
        assert covers(u, u)
        for v in sample:
            both = covers(u, v) and covers(v, u)
            assert both == (support(u) == support(v))
            for w in sample:
                if covers(u, v) and covers(v, w):
                    assert covers(u, w)


def test_covers_zero_set_equivalence():
    # u covered by v iff Zero(v) is contained in Zero(u)
    rng = random.Random(99)
    for _ in range(60):
        u = tuple(rng.randrange(3) for _ in range(5))
        v = tuple(rng.randrange(3) for _ in range(5))
        zero_u = {i for i, a in enumerate(u) if not a}
        zero_v = {i for i, a in enumerate(v) if not a}
        assert covers(u, v) == (zero_v <= zero_u)


def brute_rank(field, rows):
    """Rank as log_q of the span size, by exhaustive combination."""
    span = set()
    r = len(rows)
    for coeffs in itertools.product(field.elements(), repeat=r):
        v = tuple(0 for _ in rows[0]) if rows else ()
        for c, row in zip(coeffs, rows):
            v = tuple(field.add(a, field.mul(c, b)) for a, b in zip(v, row))
        span.add(v)
    size = len(span)
    out = 0
    while field.q**out < size:
        out += 1
    return out


def test_rank_examples():
    eye = [unit_vector(4, i) for i in range(1, 5)]
    assert rank(F3, eye) == 4
    assert rank(F2, [(1, 0, 1), (1, 0, 1)]) == 1
    # b*E - A over F_5 with m = 3, b = 2: nonzero determinant, full rank.
    b, m = 2, 3
    rows = [tuple((b if i == j else 0) - 1 for j in range(m)) for i in range(m)]
    rows = [tuple(x % 5 for x in r) for r in rows]
    assert rank(F5, rows) == 3


def test_rank_against_brute_force():
    rng = random.Random(7)
    for field in (F2, F3):
        for _ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            rows = [tuple(rng.randrange(field.q) for _ in range(ncols))
                    for _ in range(nrows)]
            assert rank(field, rows) == brute_rank(field, rows)


def test_np_ranks_against_rank():
    rng = random.Random(13)
    for field in (F2, F3, make_field(2, 2), make_field(3, 2)):
        for shape in ((6, 3, 4), (5, 4, 3), (4, 1, 5), (3, 7, 2)):
            B, r, c = shape
            mats = [[tuple(rng.randrange(field.q) if rng.random() < 0.7 else 0
                           for _ in range(c)) for _ in range(r)] for _ in range(B)]
            mats[0] = [mats[0][0]] * r  # a rank-deficient member
            assert np_ranks(field, mats).tolist() == [rank(field, m) for m in mats]


def echelon_rank(field, rows, width):
    basis = EchelonBasis(field, width)
    for row in rows:
        basis.add(row)
    return basis.rank


RANK_FIELDS = [F2, F3, F4, F5, make_field(7), make_field(2, 3), make_field(3, 2),
               make_field(2, 4), make_field(257)]


@pytest.mark.parametrize("field", RANK_FIELDS, ids=lambda F: f"F{F.q}")
def test_np_ranks_matches_echelon_basis_on_seeded_batches(field):
    # batches of products A B with an inner dimension below r and c are
    # rank-deficient by construction; tall, wide and square shapes cover
    # both an early stop at rank r and a loop that runs through every column
    rng = random.Random(field.q)
    F = field

    def product(r, inner, c):
        A = [[rng.randrange(F.q) for _ in range(inner)] for _ in range(r)]
        B = [[rng.randrange(F.q) for _ in range(c)] for _ in range(inner)]
        return [tuple(dot(F, A[i], [B[t][j] for t in range(inner)]) for j in range(c))
                for i in range(r)]

    for r, c in ((3, 6), (5, 5), (7, 3), (1, 4), (4, 1), (9, 9)):
        mats = [product(r, rng.randrange(min(r, c) + 1), c) for _ in range(20)]
        mats += [[tuple(rng.randrange(F.q) for _ in range(c)) for _ in range(r)]
                 for _ in range(20)]
        expected = [echelon_rank(F, m, c) for m in mats]
        assert np_ranks(F, mats).tolist() == expected
        assert min(expected) < min(r, c)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=lambda F: f"F{F.q}")
def test_np_ranks_on_chunk_boundaries(field):
    # np_ranks packs h coordinates into one chunk; widths around h and 2h, a
    # tall single matrix (the shape D.rank passes), no rows and no columns
    # all give the EchelonBasis ranks, for int64 rows and element-typed rows
    F, h = field, field.np_chunks.h
    rng = random.Random(7 * F.q)

    def batch(B, r, c):
        mats = []
        for _ in range(B):
            rows = [[rng.randrange(F.q) if rng.random() < 0.8 else 0 for _ in range(c)]
                    for _ in range(r)]
            if r > 1 and rng.random() < 0.5:  # a row that is a multiple of another
                rows[-1] = [F.mul(rng.randrange(F.q), a) for a in rows[0]]
            mats.append(rows)
        return np.array(mats, dtype=np.int64).reshape(B, r, c)

    shapes = [(12, r, c) for c in {max(h - 1, 1), h, h + 1, 2 * h} for r in (1, c - 1, c, c + 2)]
    shapes += [(1, 4 * h + 5, h + 1), (1, 30, 2 * h), (5, 0, h), (5, 3, 0), (0, 3, h)]
    # both sides of the transpose: a tall batch, ranked as its transposes
    # with rows of several chunks, and a wide single matrix
    shapes += [(6, 3 * h + 2, h + 1), (1, h + 1, 4 * h + 5)]
    seen = set()
    for B, r, c in shapes:
        M = batch(B, r, c)
        expected = [echelon_rank(F, m.tolist(), c) for m in M]
        for A in (M, M.astype(F.element_dtype)):
            assert np_ranks(F, A).tolist() == expected
        seen.update(e == min(r, c) for e in expected)
    assert seen == {True, False}


@pytest.mark.parametrize("q", [F.q for F in RANK_FIELDS] + [17, 1021], ids=lambda q: f"F{q}")
def test_np_dots_matches_scalar_dot(q):
    # y.w read from chunk rows through the chunk dot table equals the scalar
    # dot product, for every pair (Y[:, None] against n rows), for each class
    # against its own rows (Y[:, None] against B x r rows) and for one
    # vector; no rows, one coordinate, widths around h and 2h, zero rows,
    # int64 and element-typed rows.  F_1021, past one byte, is made here
    # so that its 45 MB of tables are not held from import on.
    F = field_by_order(q)
    h = F.np_chunks.h
    rng = np.random.default_rng(F.q)
    for B in (0, 1, 7):
        for c in sorted({1, max(h - 1, 1), h, h + 1, 2 * h, 2 * h + 1}):
            Y = rng.integers(0, F.q, (B, c))
            D = rng.integers(0, F.q, (5, c))
            W = rng.integers(0, F.q, (B, 3, c))
            D[0] = W[:, 0] = 0  # a zero row
            if B:
                Y[0] = 0
            pairs = [[dot(F, y, d) for d in D.tolist()] for y in Y.tolist()]
            paired = [[dot(F, y, w) for w in Wb] for y, Wb in zip(Y.tolist(), W.tolist())]
            C = -(-c // h)
            for dtype in (np.int64, F.element_dtype):
                Yc, Dc, Wc = (np_chunk_rows(F, A.astype(dtype)) for A in (Y, D, W))
                assert Yc.shape == (B, C) and Dc.shape == (5, C) and Wc.shape == (B, 3, C)
                got = np_dots(F, Yc[:, None], Dc)
                assert got.shape == (B, 5) and got.tolist() == pairs
                got = np_dots(F, Yc[:, None], Wc)
                assert got.shape == (B, 3) and got.tolist() == paired
                for y, expected in zip(Yc, pairs):
                    assert np_dots(F, y, Dc).tolist() == expected
    # A 1-D Y against chunks near the top of the chunk type: y Q fits that
    # type and y Q + w does not (y = 1 against w = 242 on F_3, y = 15
    # against w = 16 on F_17), so an index formed in the chunk type wraps.
    ch = F.np_chunks
    top = np.iinfo(ch.mul.dtype).max
    for y0 in sorted({1, min(top // ch.Q, ch.Q - 1)}):
        y = [y0 // F.q**t % F.q for t in range(h)]
        D = [[F.q - 1] * h, [F.q - 1] * (h - 1) + [0], [0] * (h - 1) + [F.q - 1], y]
        yc, Dc = np_chunk_rows(F, np.array(y)), np_chunk_rows(F, np.array(D))
        assert yc.tolist() == [y0] and Dc[0, 0] == ch.Q - 1
        assert np_dots(F, yc, Dc).tolist() == [dot(F, y, d) for d in D]


ORTHOGONAL_FIELDS = [F2, F3, F4, F5, make_field(2, 3), make_field(3, 2), make_field(2, 4),
                     make_field(17), make_field(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)), make_field(257)]


def orthogonal_to(F, y, d):
    """d with its coordinate at y's first nonzero one changed so that y.d = 0."""
    j = next(i for i, a in enumerate(y) if a)
    d = list(d)
    d[j] = 0
    d[j] = F.mul(F.sub(0, dot(F, y, d)), F.inv(y[j]))
    return d


@pytest.mark.parametrize("F", ORTHOGONAL_FIELDS, ids=lambda F: f"F{F.q}")
def test_np_orthogonal_matches_np_dots(F):
    # the zero test compares the first C - 1 chunk dots with the last chunk's
    # entry in the negated dot table; it equals np_dots(...) == 0 on every
    # shape its callers pass: R x n pairs (also against the transposed
    # chunk-major rows of a scan window), each class against its own B x r
    # rows, and a 1-D Y.  The fields give C = 1, 2 and 3 chunks at every
    # chunk width h that occurs (1, 2, 3, 4, 5 and 8).
    h = F.np_chunks.h
    rng = np.random.default_rng(F.q)
    chunks = set()
    for c in sorted({1, h, h + 1, 2 * h, 2 * h + 1, 3 * h}):
        chunks.add(-(-c // h))
        Y = rng.integers(0, F.q, (7, c))
        Y[:, 0] = 1  # nonzero classes
        Y[1] = 0
        D = rng.integers(0, F.q, (40, c))
        W = rng.integers(0, F.q, (7, 5, c))
        D[0] = W[:, 0] = 0
        for i, y in enumerate(Y[2:].tolist()):  # orthogonal pairs in every row and block
            D[1 + i] = orthogonal_to(F, y, D[1 + i].tolist())
            W[2 + i, 1] = orthogonal_to(F, y, W[2 + i, 1].tolist())
        Yc, Dc, Wc = (np_chunk_rows(F, A) for A in (Y, D, W))
        cases = [(Yc[:, None], Dc), (Yc[:, None], np.ascontiguousarray(Dc.T).T),
                 (Yc[:, None], Wc)] + [(y, Dc) for y in Yc]
        for Yx, Wx in cases:
            got, expected = np_orthogonal(F, Yx, Wx), np_dots(F, Yx, Wx) == 0
            assert got.dtype == bool and got.shape == expected.shape
            assert np.array_equal(got, expected)
        pairs = np_orthogonal(F, Yc[:, None], Dc)
        assert pairs.any() and not pairs.all()
    assert chunks >= {1, 2, 3}


@pytest.mark.parametrize("block", [None, 40])
@pytest.mark.parametrize("q, k", [(2, 3), (2, 8), (3, 6), (17, 3)])
def test_np_orthogonal_positions_tables_match_pairs(monkeypatch, q, k, block):
    # the positions listed from per-chunk tables, from Q rows of Y up, are
    # those of np_orthogonal's pairs, with 1 (F_2), 2 (F_3, k = 6) and 3
    # (F_17, k = 3) chunks, in one block of rows or, at the shrunken
    # DOT_BLOCK, in many
    if block:
        monkeypatch.setattr(linalg_mod, "DOT_BLOCK", block)
    F = field_by_order(q)
    pairs = []
    orthogonal = linalg_mod.np_orthogonal
    monkeypatch.setattr(linalg_mod, "np_orthogonal",
                        lambda *args: pairs.append(1) or orthogonal(*args))
    rng = np.random.default_rng(83 + q + k)
    Q = F.np_chunks.Q
    for S in (1, Q - 1, Q, 2 * Q + 5):
        for L in (1, 7, 3 * q * k):
            # rows drawn with repeats, so that a small field meets every chunk value
            Y = np_chunk_rows(F, rng.integers(0, q, (S, k)))
            W = np_chunk_rows(F, rng.integers(0, q, (L, k)))
            del pairs[:]
            total, found = linalg_mod.np_orthogonal_positions(F, Y, W)
            zero = orthogonal(F, Y[:, None], W)
            assert total.tolist() == zero.sum(axis=1).tolist()
            assert found.tolist() == zero.nonzero()[1].tolist()
            assert bool(pairs) == (S < Q), (S, L)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 9, 16, 17, 257, 1021])
def test_np_digits_matches_divmod(q):
    # the digits from floor division and a multiply-subtract equal those of
    # np.divmod, for every index below 2^16 and a sample above, in int64 and
    # in the narrowest type for q - 1, whichever type the indices have; the
    # indices are left as they were.  Base q - 1 = 1 is how the weight-1
    # vectors of F_2 are listed.

    def reference(idx, m, dtype):
        out = np.empty((len(idx), m), dtype=dtype)
        for i in range(m - 1, -1, -1):
            idx, out[:, i] = np.divmod(idx, q)
        return out

    rng = np.random.default_rng(q)
    for m in (1, 2, 3, 4, 6):
        top = q**m
        if top <= 2**16:
            idx = np.arange(top)
        else:
            idx = np.append(rng.integers(0, top, 4096), [0, top - 1])
        for index in (idx, idx.astype(np.min_scalar_type(top - 1))):
            before = index.copy()
            for dtype in (np.int64, np.min_scalar_type(q - 1)):
                got = np_digits(q, m, index, dtype)
                assert got.dtype == dtype and np.array_equal(got, reference(index, m, dtype))
            assert np_digits(q, m, index).dtype == np.int64
            assert np.array_equal(index, before)
        if top <= 2**16:
            assert [tuple(r) for r in np_digits(q, m, idx).tolist()] == [
                index_to_vector(q, m, i) for i in range(top)]


def test_echelon_basis_membership():
    basis = EchelonBasis(F3, 3)
    assert basis.add((1, 2, 0))
    assert not basis.add((2, 1, 0))  # scalar multiple
    assert basis.add((0, 0, 1))
    assert basis.rank == 2
    assert basis.contains((1, 2, 1))
    assert not basis.contains((0, 1, 0))


def test_enumerate_vectors_order_and_count():
    assert list(enumerate_vectors(F2, 2)) == [(0, 1), (1, 0), (1, 1)]
    assert list(enumerate_vectors(F3, 1)) == [(1,), (2,)]
    assert len(list(enumerate_vectors(F3, 4))) == 80
    first = next(enumerate_vectors(F3, 4, include_zero=True))
    assert first == (0, 0, 0, 0)


def test_enumerate_guard():
    with pytest.raises(GuardError):
        list(enumerate_vectors(F3, 64))


def test_index_round_trip():
    for idx in range(81):
        v = index_to_vector(3, 4, idx)
        assert vector_to_index(3, v) == idx


def test_dual_dimension_and_double_perp():
    rng = random.Random(13)
    for field in (F2, F3):
        for _ in range(20):
            k = rng.randint(2, 5)
            nrows = rng.randint(1, 3)
            S = [tuple(rng.randrange(field.q) for _ in range(k)) for _ in range(nrows)]
            perp = kernel_basis(field, S, k)
            assert rank(field, S) + len(perp) == k
            # S is contained in the perp of its perp
            double = kernel_basis(field, perp, k) if perp else None
            for v in S:
                if perp:
                    assert all(dot(field, v, w) == 0 for w in perp)
                if double is not None:
                    basis = EchelonBasis(field, k)
                    for row in double:
                        basis.add(row)
                    assert basis.contains(v)


def test_solve_and_kernel():
    # x + y = 1 over F_2: particular (1, 0), kernel {(1, 1)}
    assert solve(F2, [(1, 1)], (1,)) == (1, 0)
    assert kernel_basis(F2, [(1, 1)], 2) == [(1, 1)]
    assert solve(F2, [(1, 1), (1, 1)], (1, 0)) is None  # inconsistent
    assert solve(F3, [(0, 0)], (0,)) == (0, 0)


def combinations_of(field, vectors, n):
    """Every F_q-linear combination of the vectors, as a set of n-tuples."""
    span = {(0,) * n}
    for v in vectors:
        span = {tuple(field.add(a, field.mul(c, b)) for a, b in zip(x, v))
                for x in span for c in range(field.q)}
    return span


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"F{f.q}")
def test_elimination_matches_brute_force(field):
    # kernel_basis and solve against a walk over all of F_q^n, n <= 4, on
    # seeded matrices with zero rows, repeated rows and row combinations
    rng, q = random.Random(field.q), field.q
    seen = set()
    for trial in range(60):
        n, nrows = rng.randint(1, 4), rng.randint(1, 4)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(nrows)]
        extra = trial % 4
        if extra == 1:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * n)
        elif extra == 2:
            rows.append(rng.choice(rows))
        elif extra == 3:
            c = rng.randrange(1, q)
            rows.append(tuple(field.add(a, field.mul(c, b)) for a, b in zip(rows[0], rows[-1])))
        space = list(enumerate_vectors(field, n, include_zero=True))
        kernel = {x for x in space if not any(dot(field, r, x) for r in rows)}
        # j is free iff some kernel vector ends at j: column j depends on the earlier ones
        free = sorted({max(i for i, a in enumerate(x) if a) for x in kernel if any(x)})
        basis = kernel_basis(field, rows, n)
        assert len(basis) == len(free) and combinations_of(field, basis, n) == kernel
        for j, v in zip(free, basis):
            assert [v[i] for i in free] == [int(i == j) for i in free]
        rhs = [rng.randrange(q) for _ in rows]
        if trial % 3 == 0:
            rhs = [dot(field, r, space[rng.randrange(len(space))]) for r in rows]
        solutions = [x for x in space if [dot(field, r, x) for r in rows] == rhs]
        x = solve(field, rows, rhs)
        if not solutions:
            assert x is None
        else:
            assert x in solutions and not any(x[i] for i in free)
        seen.add(bool(solutions))
    assert seen == {True, False}  # consistent and inconsistent systems both occur


def numbered_lines(text):
    """The header of text and the (number, line) of each non-empty line after it."""
    lines = list(enumerate(re.split("\r\n|\r|\n", text), 1))
    at = next((i for i, (_, ln) in enumerate(lines) if ln.strip(" \t")), len(lines))
    return (lines[at][1] if at < len(lines) else None), [x for x in lines[at + 1:] if x[1]]


def split_lines(src):
    """numbered_lines, from split_header's header and numbered pieces."""
    with text_pieces(src) as pieces:
        first, line, body = split_header(pieces)
        lines = re.split("\r\n|\r|\n", "".join(body))
        return first, [(no, ln) for no, ln in enumerate(lines, line) if ln]


def test_text_pieces_and_write_text(tmp_path, monkeypatch):
    # the header is the first line that is not spaces and tabs alone, and the
    # body's lines keep their numbers in the whole text, from a path or a
    # stream; the writer writes the chunks as they are
    chunks = ["\n  \n3 1 2\r\n", "", "1\x0b\n\t\n2", "\x1c0\n"]
    text = "".join(chunks)
    path = str(tmp_path / "t.txt")
    write_text(path, iter(chunks))
    assert (tmp_path / "t.txt").read_bytes() == text.encode("utf-8")
    buf = io.StringIO()
    write_text(buf, chunks)
    assert buf.getvalue() == text
    for src in (path, io.StringIO(text)):
        with text_pieces(src) as pieces:
            first, line, body = split_header(pieces)
            assert (first, line, "".join(body)) == ("3 1 2", 4, "1\x0b\n\t\n2\x1c0\n")
    # a path is closed when the block exits, also on an error; a stream is left open
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(linalg_mod, "open", recording_open, raising=False)
    with pytest.raises(KeyError):
        with text_pieces(path) as pieces:
            next(pieces)
            raise KeyError
    assert len(opened) == 1 and opened[0].closed
    stream = io.StringIO(text)
    with text_pieces(stream) as pieces:
        next(pieces)
    assert not stream.closed


def test_text_pieces_end_at_line_breaks(monkeypatch):
    # each read of READ_CHARS characters is cut after its last line break,
    # but a "\r" that ends a read waits for the next, so "\r\n" stays in
    # one piece; a line longer than a read grows its piece until a line
    # break, and split_header numbers the lines of the pieces as they are
    # numbered in the whole text
    monkeypatch.setattr(linalg_mod, "READ_CHARS", 4)
    with text_pieces(io.StringIO("abc\r\ndefgh\n\nij")) as pieces:
        assert list(pieces) == ["abc\r\n", "defgh\n\n", "ij"]
    text = "\n  \n3 1 2\r\n1\x0b\n\t\r\r\n2 22 222 2222 22222\n\x1c0\r\n\n \n1\r"
    for chars in (1, 2, 3, 5, 64):
        monkeypatch.setattr(linalg_mod, "READ_CHARS", chars)
        with text_pieces(io.StringIO(text)) as pieces:
            got = list(pieces)
        assert "".join(got) == text and all(got), chars
        assert all(p[-1] in "\r\n" for p in got[:-1]), chars
        assert not any(a.endswith("\r") and b.startswith("\n") for a, b in itertools.pairwise(got))
        assert split_lines(io.StringIO(text)) == numbered_lines(text), chars
    with text_pieces(io.StringIO(" \t\r\n\r")) as pieces:
        assert split_header(pieces)[0] is None


def test_matrix_io_round_trip():
    rows = [(1, 2, 0), (0, 1, 1)]
    buf = io.StringIO()
    write_matrix(buf, F3, rows)
    text = buf.getvalue()
    assert text == "3 3 2\n1 2 0\n0 1 1\n"
    field, back = read_matrix(io.StringIO(text))
    assert field == F3
    assert back.dtype == np.int64 and back.tolist() == [list(r) for r in rows]


def test_matrix_io_rejects_bad_rows():
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("3 3 2\n1 2 0\n"))
    with pytest.raises(ValueError):
        read_matrix(io.StringIO("3 3 1\n1 2\n"))
