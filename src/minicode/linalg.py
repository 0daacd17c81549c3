"""Dense vectors and matrices over F_q.

Vectors are plain tuples of canonical integers; the field travels alongside
as an explicit argument.  Coordinate indices are 1-based in every reported
support/index, matching the x_1..x_m convention used throughout.

The numpy kernels take the same vectors as integer rows and serve every
field.  The inner products and the ranks work on rows packed h
coordinates to an integer (np_chunk_rows, the np_chunks chunks of gf):
np_dots, the inner-product kernel, reads one inner product of two chunks
per lookup in the chunk dot table, np_orthogonal, its zero test, reads
the last chunk in the negated dot table instead of adding it, and
np_chunk_ranks, the one elimination kernel, eliminates in row order on
whole chunks, with
first-nonzero pivoting and exact table arithmetic; np_ranks is its front
for matrices of coordinates.  There are no tolerances anywhere.  The
pure-Python elimination (EchelonBasis, rank, kernel_basis, solve) is kept
in tests/scalar_reference.py as the reference the tests check np_ranks
against.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import GuardError
from .gf import FieldSpec, field_by_order

Vec = tuple[int, ...]

ENUM_GUARD = 2**31  # ceiling on q^m for enumeration streams
DOT_BLOCK = 2**16   # entries one kernel call should produce: np_dots values, count gathers


def check_same_length(u: Sequence[int], v: Sequence[int]) -> None:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent vectors spanning a subspace of F_q^ambient_dim."""

    vectors: tuple[Vec, ...]
    ambient_dim: int


def dot(field: FieldSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """Euclidean inner product sum_i u_i v_i in F_q."""
    check_same_length(u, v)
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def support(v: Sequence[int]) -> frozenset[int]:
    """1-based indices of the nonzero coordinates."""
    return frozenset(i + 1 for i, a in enumerate(v) if a)


def weight(v: Sequence[int]) -> int:
    return sum(1 for a in v if a)


def covers(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff Suppt(u) is contained in Suppt(v), i.e. v covers u."""
    check_same_length(u, v)
    return all(b != 0 for a, b in zip(u, v) if a != 0)


def scale(field: FieldSpec, c: int, v: Sequence[int]) -> Vec:
    return tuple(field.mul(c, a) for a in v)


# -- canonical enumeration ---------------------------------------------------

def index_to_vector(q: int, m: int, idx: int) -> Vec:
    """Vector with canonical integer index idx; x_1 is the most significant digit."""
    out = [0] * m
    for i in range(m - 1, -1, -1):
        idx, out[i] = divmod(idx, q)
    return tuple(out)


def check_enumerable(q: int, m: int, guard: str = "enumeration guard") -> None:
    """Raise GuardError when q^m > ENUM_GUARD, naming the guard.

    q >= 2, so q^m > ENUM_GUARD as soon as m exceeds the guard's bit length;
    q^m is computed only below that, and a huge arity is refused at once.
    """
    if m > ENUM_GUARD.bit_length() or q**m > ENUM_GUARD:
        raise GuardError(f"q^m = {q}^{m} exceeds the {guard}")


# -- numpy kernels (every field) -----------------------------------------------

def int_cells(cells, what: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """cells, an integer ndarray or a flat list of integers, as a new int64 array.

    An ndarray is checked by its dtype.  In a list, a bool is no integer
    cell, even beside integers, where np.array would read it as 0 or 1; it,
    a float, or an integer beyond int64 raises error, naming what.
    """
    A = cells
    if not isinstance(cells, np.ndarray):
        try:
            A = np.array(cells) if cells else np.zeros(0, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            A = None
        if A is not None and (A.ndim != 1 or not {bool, np.bool_}.isdisjoint(map(type, cells))):
            A = None
    if A is None or A.dtype.kind not in "iu" or (A.size and A.max() > np.iinfo(np.int64).max):
        raise error(f"{what} must be integers of at most 64 bits, not bool or float")
    return A.astype(np.int64)


def np_vectors(q: int, m: int, start: int, stop: int) -> np.ndarray:
    """Rows index_to_vector(q, m, i) for start <= i < stop."""
    return np_digits(q, m, np.arange(start, stop, dtype=np.int64))


def np_digits(q: int, m: int, idx: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Rows index_to_vector(q, m, i) for the indices i of the 1-D array idx, in dtype.

    Each coordinate is one floor division and one multiply-subtract, which
    NumPy runs faster than np.divmod or %, with the remainder formed in
    place of the product, so no more arrays are live than np.divmod leaves.
    """
    out = np.empty((len(idx), m), dtype=dtype)
    for i in range(m - 1, -1, -1):
        quo = idx // q
        rem = np.multiply(quo, q)
        out[:, i] = np.subtract(idx, rem, out=rem)
        idx = quo
    return out


@lru_cache(maxsize=8)
def np_points(q: int, m: int) -> np.ndarray:
    """All of F_q^m in canonical order, q^m x m in the narrowest type for q - 1.

    A shared read-only array, made on first use for each (q, m) and kept
    in a bounded cache.
    """
    return _read_only(np_digits(q, m, np.arange(q**m), np.min_scalar_type(q - 1)))


@lru_cache(maxsize=8)
def np_point_chunks(field: FieldSpec, m: int) -> np.ndarray:
    """np_points of the field's order as np_chunk_rows rows: a shared read-only array."""
    return _read_only(np_chunk_rows(field, np_points(field.q, m)))


def _read_only(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


def np_indices(q: int, rows: np.ndarray) -> np.ndarray:
    """The canonical index of each row: np_vectors inverted."""
    return rows @ q ** np.arange(rows.shape[-1] - 1, -1, -1)


def np_hyperplane_counts(field: FieldSpec, D: np.ndarray) -> np.ndarray:
    """N[i] = #{d in D : y.d = 0} for every message y, i its canonical index.

    D is n x k.  The table T[s, x_1..x_k] starts as D's histogram at s = 0
    and trades one coordinate x_j for y_j per step:
        T'[s', y_j, ...] = sum_x T[s' - y_j x, x, ...],
    so after k steps T[s, y] = #{d : y.d = s}.  Each step is one gather of
    rows (s, x) through the field tables and a sum over x; its output puts
    y_j last, which brings x_{j+1} next to s and leaves y in canonical order
    after the last step.  Two steps are cheaper: in the first only s = 0 is
    nonzero, so T'[s', y] is row s'/y of the histogram (y != 0) or, at
    s' = y = 0, its column sum; the last computes only the s' = 0 row that
    is read.  Each costs O(q^{k+1}), the k - 2 others O(q^{k+2}), and
    working memory is O(q^{k+1}): each gather takes at most
    max(DOT_BLOCK, q^2) entries.  No entry of a table exceeds n, so the
    tables hold the narrowest signed type for n (one byte up to n = 127,
    two up to n = 32,767), and only the counts returned are int64.
    """
    n, k = D.shape
    q = field.q
    R = q ** (k - 1)
    count = np.min_scalar_type(-n - 1)  # no count exceeds n
    H = np.bincount(np_indices(q, D), minlength=q**k).astype(count).reshape(q, R)
    T = np.zeros((q, R, q), dtype=count)
    T[0, :, 0] = H.sum(axis=0, dtype=count)
    cols = max(1, DOT_BLOCK // q**2)
    div = _count_index(field, 0)
    for r in range(0, R, cols):
        T[:, r:r + cols, 1:] = H[:, r:r + cols][div].transpose(0, 2, 1)
    cols = max(1, DOT_BLOCK // q**3)
    vals = max(1, min(q, DOT_BLOCK // (q * q * cols)))
    for step in range(1, k):
        T = T.reshape(q * q, R)
        rows = 1 if step == k - 1 else q
        G = _count_index(field, rows)
        out = np.empty((rows, R, q), dtype=count)
        for r in range(0, R, cols):
            part = T[:, r:r + cols]
            for s in range(0, rows, vals):
                summed = part.take(G[:, s:min(s + vals, rows)], axis=0).sum(axis=0, dtype=count)
                out[s:s + vals, r:r + cols] = summed.transpose(0, 2, 1)
        T = out
    return T[0].reshape(q**k).astype(np.int64)


@lru_cache(maxsize=8)
def _count_index(field: FieldSpec, rows: int) -> np.ndarray:
    """np_hyperplane_counts' gather indices of the field: shared, read-only arrays.

    rows = 0 gives the first step's div[s', y] = s'/y (y != 0); rows = 1
    or q the G[x, s', y] of the other steps for s' < rows, G being the row
    (s, x) = s q + x that feeds T'[s', y], s = s' - y x.  The last step
    reads s' = 0 alone, so a k = 2 transform, the only kind q^(k+1) <=
    WDIST_GUARD allows past q = 90, keeps q^2 entries, not q^3.
    """
    q, e = field.q, np.arange(field.q)
    if not rows:
        return _read_only(field.np_mul.reshape(q, q)[e[:, None], field.np_inv[None, 1:]])
    yx = field.np_mul.reshape(q, q).T[:, None, :]
    G = np.multiply(field.np_sub.reshape(q, q)[e[None, :rows, None], yx], q, dtype=np.intp)
    G += e[:, None, None]
    return _read_only(G)


def np_dots(field: FieldSpec, Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The values y.w over F_q of chunk rows Y and W whose leading axes broadcast.

    Y and W are np_chunk_rows rows of C chunks each.  Y[:, None] against an
    n x C W gives every pair (R x n), Y[:, None] against a B x r x C W the
    r dots of each class with its own rows (B x r), and a 1-D Y one
    codeword.  One lookup in the chunk dot table at y Q + w gives the inner
    product of a pair of chunks, so y.w costs C lookups and C - 1 field
    additions.  They run one chunk at a time, so each numpy call runs along
    the pairs, not along C.  The values have the element type.  Callers keep
    the pairs of a call within np_block_rows.
    """
    ch = field.np_chunks
    dots = _chunk_dots(ch.Q, ch.dot, Y, W, 0)
    for j in range(1, Y.shape[-1]):
        dots = field.vadd(dots, _chunk_dots(ch.Q, ch.dot, Y, W, j))
    return dots


def np_orthogonal(field: FieldSpec, Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """np_dots(field, Y, W) == 0, for the same chunk rows and shapes, with one addition less.

    y.w = 0 exactly when the dots of the first C - 1 chunks, summed as
    np_dots sums them, equal minus the dot of the last chunk, which one
    lookup in the negated chunk dot table gives.  So the zero test costs C
    lookups, C - 2 field additions and one comparison.
    """
    ch, C = field.np_chunks, Y.shape[-1]
    last = _chunk_dots(ch.Q, ch.negdot, Y, W, C - 1)
    if C == 1:
        return last == 0
    return np_dots(field, Y[..., :C - 1], W[..., :C - 1]) == last


def _chunk_dots(Q: int, table: np.ndarray, Y: np.ndarray, W: np.ndarray, j: int) -> np.ndarray:
    """table[y_j Q + w_j] for the chunks j of Y and W: a chunk dot table read along the pairs.

    The index is formed in intp on both sides: a 1-D Y gives a scalar
    y_j Q, which NumPy 1 would add to the narrow chunk type of W and wrap.
    """
    at = np.add(np.multiply(Y[..., j], Q, dtype=np.intp), W[..., j], dtype=np.intp)
    return table.take(at)


def np_block_rows(n: int) -> int:
    """Rows per np_dots call against n vectors, so that one call gives about DOT_BLOCK dots."""
    return max(1, DOT_BLOCK // n)


def np_check_rows(k: int) -> int:
    """Classes per block of a certificate check, k x k entries each: 4 DOT_BLOCK a block."""
    return max(1, 4 * DOT_BLOCK // (k * k))


def class_count(q: int, k: int) -> int:
    """The number of projective classes of F_q^k: (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


def np_class_reps(q: int, k: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """The projective classes of F_q^k in canonical order: a shared read-only array.

    Rows start .. stop - 1 of the list of all P classes, every one by
    default, in the narrowest type for q - 1; made on first use for each
    range and kept in a bounded cache.  A class is represented by its
    vector (0..0, 1, tail), whose first nonzero coordinate is 1.  With t
    tail digits its canonical index is q^t + idx(tail), so the classes in
    ascending index are the ranges [q^t, 2 q^t), t = 0..k-1, the range t
    starting at row class_count(q, t).
    """
    P = class_count(q, k)
    return _class_reps(q, k, min(start, P), P if stop is None else min(stop, P))


@lru_cache(maxsize=16)
def _class_reps(q: int, k: int, start: int, stop: int) -> np.ndarray:
    idx, first = [np.zeros(0, dtype=np.int64)], 0
    for t in range(k):
        size = q**t  # the classes with t tail digits: row first + i has index q^t + i
        lo, hi = max(start, first), min(stop, first + size)
        if lo < hi:
            idx.append(np.arange(lo + size - first, hi + size - first))
        first += size
    return _read_only(np_digits(q, k, np.concatenate(idx), np.min_scalar_type(q - 1)))


def np_class_chunks(field: FieldSpec, k: int, start: int = 0,
                    stop: Optional[int] = None) -> np.ndarray:
    """np_class_reps(field.q, k, start, stop) as np_chunk_rows rows: a shared read-only array."""
    P = class_count(field.q, k)
    return _class_chunks(field, k, min(start, P), P if stop is None else min(stop, P))


@lru_cache(maxsize=16)
def _class_chunks(field: FieldSpec, k: int, start: int, stop: int) -> np.ndarray:
    return _read_only(np_chunk_rows(field, _class_reps(field.q, k, start, stop)))


def np_class_codewords(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Codewords (y.d_1, ..., y.d_n) of the np_class_reps rows y, as a P x n matrix.

    rows is D, n x k.  The matrix has the element type of the field.  It is
    built one message coordinate c at a time, right to left.  Tail holds
    the codewords of the q^t messages (0..0, tail) with t tail digits, in
    canonical order.  The next Tail is a col_c + Tail for every a in F_q,
    a most significant, and its a = 1 block is the classes (0..0, 1, tail)
    with their 1 at c; at c = 0 only that block is built.  Each step is one
    take of the flat add table at q x + y.
    """
    n, k = rows.shape
    q, dtype, add = field.q, field.element_dtype, field.np_add
    # scaled[c, a] = q (a col_c), in q x 1 x n blocks: the x of q x + y
    cols = rows.T[:, None, None]
    scaled = np.multiply(field.np_mul.take(np.arange(0, q * q, q)[:, None, None] + cols), q,
                         dtype=np.intp)
    out = np.empty((class_count(q, k), n), dtype=dtype)
    tail = np.zeros((1, n), dtype=dtype)
    start = 0
    for c in range(k - 1, 0, -1):
        t = len(tail)
        tail = add.take(scaled[c] + tail).reshape(-1, n)
        out[start:start + t] = tail[t:2 * t]  # a = 1: the classes with their 1 at c
        start += t
    out[start:] = add.take(scaled[0, 1] + tail)
    return out


def np_row_keys(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Each row of field elements as one byte string, for exact lookup and np.unique."""
    rows = np.ascontiguousarray(rows, dtype=field.element_dtype)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def np_chunk_rows(field: FieldSpec, M: np.ndarray) -> np.ndarray:
    """The rows of M, c coordinates each, as ceil(c/h) chunks of field.np_chunks.

    Chunk j holds coordinates jh .. jh + h - 1, the last chunk zero-padded:
    an array of shape M.shape[:-1] + (ceil(c/h),) in the chunk type.  The
    rows are copied, padded, into float32, reshaped to one group of h
    coordinates per line and packed by one product with the weights; a
    chunk is below Q <= 1024, so float32 holds every sum exactly.
    """
    ch = field.np_chunks
    M = np.asarray(M)
    c, h = M.shape[-1], ch.h
    C = -(-c // h)
    S = np.zeros(M.shape[:-1] + (C * h,), dtype=np.float32)
    S[..., :c] = M
    packed = S.reshape(-1, h) @ ch.weights
    return packed.astype(ch.mul.dtype).reshape(M.shape[:-1] + (C,))


def np_ranks(field: FieldSpec, M) -> np.ndarray:
    """Ranks over F_q of the B matrices of a B x r x c array.

    A batch with r > c is transposed first, which leaves the ranks as
    they are, so the elimination runs over min(r, c) rows; the rows are
    packed by np_chunk_rows and ranked by np_chunk_ranks.
    """
    M = np.asarray(M)
    if M.shape[1] > M.shape[2]:
        M = M.transpose(0, 2, 1)
    return np_chunk_ranks(field, np_chunk_rows(field, M))


def np_chunk_ranks(field: FieldSpec, S: np.ndarray) -> np.ndarray:
    """Ranks over F_q of the B matrices of a B x r x C array of np_chunk_rows rows.

    Row-order elimination on whole chunks, with exact table arithmetic.
    The batch is held rows first (r x C x B), in the chunk type.  Row i in
    turn takes its first nonzero coordinate as its pivot, found through
    lowest in its first nonzero chunk, and is scaled to a leading 1; that
    coordinate is then cleared from the contiguous slab of rows below it:
    minus[mulq[a*Q + pivot] + X], a being each row's coordinate there.
    Every row below a pivot is zero at it, so a row's pivot is new, the
    nonzero rows are independent at the end and the rank is their count.
    A zero row scales to zero and clears nothing.  This costs r(r-1)/2
    chunk-row updates per matrix, in about ten numpy calls per row.  From
    q = 17 up a chunk is one coordinate and this is per-element
    elimination.
    """
    ch = field.np_chunks
    minus, mulq, mul, lowest = ch.minus, ch.mulq, ch.mul, ch.lowest
    digits, scale = ch.digits.ravel(), ch.scale  # x_t Q and (1/x_t) Q at t Q + x
    B, r, C = S.shape
    S = np.ascontiguousarray(S.transpose(1, 2, 0))
    flat = S.reshape(r, C * B)
    offsets = np.arange(B)
    for i in range(r - 1 if C else 0):
        row = S[i]  # C x B
        if C > 1:  # each matrix's lead chunk, flat in C x B, and that chunk of rows i..r-1
            col = flat[i:].take((row != 0).argmax(axis=0) * B + offsets, axis=1)
        else:
            col = flat[i:]
        at = lowest.take(col[0]) + col  # t Q + x: digit t of each chunk x, t the pivot's
        pivot = mul.take(scale.take(at[0]) + row)  # row i with a leading 1
        rest = mulq.take(digits.take(at[1:])[:, None, :] + pivot)
        rest += S[i + 1:]  # below Q^2, which rest's type holds
        S[i + 1:] = minus.take(rest)
    return S.any(axis=1).sum(axis=0)


# -- text files and the matrix format ------------------------------------------

READ_CHARS = 2**16  # characters of text read at once


@contextmanager
def text_pieces(src: Union[str, TextIO]) -> Iterator[Iterator[str]]:
    """The text of a path or a stream in pieces of whole lines.

    The text is read READ_CHARS characters at a time, and each piece is cut
    after its last "\n" or "\r"; the rest begins the next piece, so a
    piece grows until it holds a line break or the text ends.  A cut
    between "\r" and "\n" ends one piece with "\r" and begins the next
    with "\n".  A path is opened as UTF-8, with universal newlines, and
    closed when the block exits, also on an error; a stream is read as it
    is and left open.
    """
    with open(src, "r", encoding="utf-8") if isinstance(src, str) else nullcontext(src) as fh:
        yield _pieces(fh)


def _pieces(fh: TextIO) -> Iterator[str]:
    rest: list[str] = []  # the text read since the last line break
    while read := fh.read(READ_CHARS):
        cut = max(read.rfind("\n"), read.rfind("\r")) + 1
        if cut:
            yield "".join([*rest, read[:cut]])
            rest = []
        rest.append(read[cut:])
    if any(rest):
        yield "".join(rest)


@contextmanager
def text_lines(src: Union[str, TextIO]) -> Iterator[Iterator[str]]:
    """The non-blank lines of a path or a stream, split a text piece at a time.

    Lines are split as str.splitlines splits the whole text: the pieces of
    text_pieces are whole lines, and a cut between "\r" and "\n" only adds
    a blank line, which is dropped with the others.
    """
    with text_pieces(src) as pieces:
        yield filter(str.strip, chain.from_iterable(map(str.splitlines, pieces)))


def write_text(out: Union[str, TextIO], chunks: Iterable[str]) -> None:
    """Write the chunks of text in order to a path, as UTF-8 with LF endings, or a stream."""
    path = isinstance(out, str)
    with open(out, "w", encoding="utf-8", newline="\n") if path else nullcontext(out) as fh:
        fh.writelines(chunks)


def write_matrix(out: Union[str, TextIO], field: FieldSpec, rows: Sequence[Sequence[int]]) -> None:
    """Write the matrix text format: header "q m rows", one row per line."""
    m = len(rows[0]) if rows else 0
    lines = [f"{field.q} {m} {len(rows)}"]
    for r in rows:
        if len(r) != m:
            raise ValueError("ragged matrix")
        lines.append(" ".join(str(a) for a in r))
    write_text(out, ["\n".join(lines) + "\n"])


def read_matrix(src: Union[str, TextIO]) -> tuple[FieldSpec, list[Vec]]:
    """The field and integer rows of the matrix text format; DefiningSet checks the entries."""
    with text_lines(src) as lines:
        first = next(lines, None)
        body = list(lines)
    if first is None:
        raise ValueError("empty matrix file")
    header = first.split()
    if len(header) != 3:
        raise ValueError(f"bad matrix header {first!r}")
    q, m, nrows = (int(t) for t in header)
    field = field_by_order(q)
    if len(body) != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(body)}")
    rows = []
    for ln in body:
        row = tuple(map(int, ln.split()))
        if len(row) != m:
            raise ValueError(f"row {ln!r} has length {len(row)}, expected {m}")
        rows.append(row)
    return field, rows
