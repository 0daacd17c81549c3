"""Minimality of codewords and codes by four criteria, with certificates.

A codeword is minimal when it covers only its own scalar multiples.  All
checks work on one representative per projective class (first nonzero
coordinate normalized to 1), which is sound because supports are
scalar-invariant and H(cy) = H(y) for c != 0.

Criteria:
  definition  brute force over ordered pairs of codewords (oracle scale),
  ab          the one-sided w_min/w_max > (q-1)/q weight-ratio test,
  dhz         the weight-identity test over independent codeword pairs,
  rank        dim Span(D cap H(y)) = k-1 per class, with witness bases.

The class representatives are one array (linalg.np_class_reps), shared
and kept per (q, k).  The rank
criterion scans D in a fixed stride order for a block of classes at a time,
in hit rounds: each class's hits (the candidates orthogonal to it) are
listed in scan order, and a round reduces the next ROUND_HITS hits of
every class still scanning against the echelon rows that class kept and
against each other, so a window of candidates costs about as many rounds
as a class has hits in it over ROUND_HITS, not one step per candidate.
Rows are packed into the np_chunks chunks of gf, so
one table lookup updates several coordinates and one gives the inner
product of two chunks (linalg.np_orthogonal finds the hits), and a block holds
the classes whose round state fits SCAN_BYTES, every class of a preset,
so the few classes that scan longest are waited for once per code.  A
class keeps a hit when a remainder is left and retires at rank k-1,
exactly as a sequential echelon walk over its hits
would (the tests keep that walk as their reference), so a class keeps the
same rows in any block; rank_criterion_codeword runs the scan on a block
of one class.  The
criterion emits a certificate whose per-class entries are indices into the
serialized D order, so verification is exact membership; the verifier
checks large blocks of classes on chunk rows, with the chunk dot table
and row-order elimination.  A certificate is two
arrays, the P x k representatives and the P x (k-1) indices or
P x (k-1) x k vectors, in the narrowest exact type; its producers, the
verifier and the text codec work on them directly, and the writer formats
a block of lines as one byte array.  A failing class is reported with the rank its scan
reached and a message whose codeword it covers: the first class, in
canonical order, orthogonal to every row the scan kept.  The definition and
dhz oracles read D.projective_codewords, one class and its codeword per
projective point of C(D), cached on D, and test a block of rows against
every other row at once: one support product over the upper triangle of
S S^T (all of it, symmetric, when the block is every row), or one gather
from the hyperplane counts.  Every field runs the same numpy kernels.
"""

from __future__ import annotations

import math
import operator
import os
from collections import abc
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .code import (
    DefiningSet,
    check_message,
    defining_set,
    linearity_check,
    params,
    scan_order,
)
from .errors import BudgetExceededError, CertificateFormatError, GuardError
from .families import FunctionSpec
from .gf import FieldSpec
from . import linalg
from .linalg import (
    SubspaceBasis,
    Vec,
    class_count,
    np_block_rows,
    np_check_rows,
    np_chunk_ranks,
    np_chunk_rows,
    np_class_chunks,
    np_class_reps,
    np_indices,
    np_orthogonal,
    scale,
    text_pieces,
    write_text,
)

DEFAULT_BUDGET = 10**10
SCAN_BYTES = 2**23  # round state of one block of the rank scan
ROUND_HITS = 3  # hits of each class one round of the rank scan reduces
DEF_MAX_CLASSES = 10_000
DEF_MAX_N = 1_000

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"
INCONCLUSIVE = "inconclusive"


def op_budget(budget: Optional[int] = None) -> int:
    """The elementary-field-op budget; MINICODE_BUDGET overrides the default.

    A budget is a non-negative integer.  Anything else, given (the CLI's
    --budget) or read from MINICODE_BUDGET, raises ValueError naming where
    it came from.
    """
    if budget is None:
        env = os.environ.get("MINICODE_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        source = "MINICODE_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            budget = env  # refused below
    else:
        source = "--budget"
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 0:
        raise ValueError(f"{source} must be a non-negative integer, not {budget!r}")
    return int(budget)


@dataclass(frozen=True)
class CoverViolation:
    """Messages a, b with codeword(b) covered by codeword(a), b not scalar to a."""

    a: Vec
    b: Vec


@dataclass(frozen=True)
class DhzViolation:
    """Messages a, b with sum_c wt(a + c b) = (q-1) wt(a) - wt(b)."""

    a: Vec
    b: Vec
    value: int


@dataclass(frozen=True)
class RankWitness:
    """Members of D cap H(y) forming a rank-(k-1) basis, 1-based D indices."""

    y: Vec
    indices: tuple[int, ...]
    basis: SubspaceBasis


class CertificateClasses(abc.Sequence):
    """The classes of a Certificate: a read-only sequence view over two arrays.

    reps is P x k; entries is P x (k-1) of 1-based D indices (mode
    "indices") or P x (k-1) x k of witness vectors (mode "vectors").  Item i
    is the pair (rep, items) of plain-int tuples, items being a tuple of
    indices or of k-tuples; a slice is a tuple of such pairs.  Two views are
    equal when their arrays hold the same values in the same dtypes.
    """

    __slots__ = ("reps", "entries")

    def __init__(self, reps: np.ndarray, entries: np.ndarray) -> None:
        reps.flags.writeable = False
        entries.flags.writeable = False
        self.reps, self.entries = reps, entries

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(_pairs(self.reps[i], self.entries[i]))
        i = operator.index(i)
        return next(_pairs(self.reps[i, None], self.entries[i, None]))

    def __iter__(self) -> Iterator[tuple[Vec, tuple]]:
        return _pairs(self.reps, self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CertificateClasses):
            return NotImplemented
        return all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in ((self.reps, other.reps), (self.entries, other.entries)))

    def __repr__(self) -> str:
        return f"CertificateClasses({len(self)} classes)"


def _pairs(reps: np.ndarray, entries: np.ndarray) -> Iterator[tuple[Vec, tuple]]:
    """(rep, items) of plain-int tuples for each row, converted a block at a time."""
    vectors = entries.ndim == 3
    for start in range(0, len(reps), 1024):
        block = entries[start:start + 1024].tolist()
        for rep, items in zip(reps[start:start + 1024].tolist(), block):
            yield tuple(rep), (tuple(map(tuple, items)) if vectors else tuple(items))


@dataclass(frozen=True)
class Certificate:
    """Per projective class: a witness set of rank k-1 inside H(y, D).

    mode "indices" stores 1-based positions into the serialized D order;
    mode "vectors" stores the witness d-vectors by value.  classes may be
    given as any sequence of (rep, items) pairs of integers; they are
    converted once, at construction, to two arrays of the narrowest exact
    type (elements of F_q, or indices up to n), and classes is then a
    CertificateClasses view over them.  A bool, a float, a representative
    of length other than k, or a class with other than k-1 entries (each of
    length k in mode "vectors") raises CertificateFormatError.  Entries
    outside the field or outside 1..n are kept, for verify_certificate to
    refuse.
    """

    q: int
    n: int
    k: int
    mode: str
    classes: Sequence[tuple[Vec, tuple]]

    def __post_init__(self) -> None:
        if self.mode not in ("indices", "vectors"):
            raise CertificateFormatError(f"unknown certificate mode {self.mode!r}")
        classes = self.classes
        if not isinstance(classes, CertificateClasses):
            classes = CertificateClasses(*_pair_arrays(self, classes))
        P, k = len(classes), self.k
        shape = (P, k - 1) if self.mode == "indices" else (P, k - 1, k)
        if classes.reps.shape != (P, k) or classes.entries.shape != shape:
            raise CertificateFormatError(
                f"certificate arrays {classes.reps.shape} and {classes.entries.shape} "
                f"do not fit k = {k} in mode {self.mode!r}"
            )
        object.__setattr__(self, "classes", classes)


def _pair_arrays(cert: Certificate, classes: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The reps and entries arrays of cert's (rep, items) pairs, checked in this order.

    Representative lengths, then entry counts, then vector lengths, then
    the integer types of the representatives and of the entries; the first
    failure raises CertificateFormatError.
    """
    k, vectors = cert.k, cert.mode == "vectors"
    try:
        reps = [rep for rep, _ in classes]
        items = [it for _, it in classes]
        rep_sizes, item_sizes = list(map(len, reps)), list(map(len, items))
        cells = list(chain.from_iterable(items))
        vector_sizes = list(map(len, cells)) if vectors else []
    except (TypeError, ValueError):
        raise CertificateFormatError(
            "certificate classes must be (rep, items) pairs of integer sequences"
        ) from None
    bad = next((i for i, size in enumerate(rep_sizes) if size != k), None)
    if bad is not None:
        raise CertificateFormatError(f"representative {tuple(reps[bad])} has length != k")
    bad = next((i for i, size in enumerate(item_sizes) if size != k - 1), None)
    if bad is not None:
        raise CertificateFormatError(_count_message(tuple(reps[bad]), item_sizes[bad], k))
    bad = next((i for i, size in enumerate(vector_sizes) if size != k), None)
    if bad is not None:
        raise CertificateFormatError(f"witness vector {tuple(cells[bad])} has length != k")
    P = len(reps)
    Y = _int_cells(list(chain.from_iterable(reps)), cert.q - 1).reshape(P, k)
    if vectors:
        return Y, _int_cells(list(chain.from_iterable(cells)), cert.q - 1).reshape(P, k - 1, k)
    return Y, _int_cells(cells, cert.n).reshape(P, k - 1)


def _count_message(rep: tuple, count: int, k: int) -> str:
    return f"class {rep} has {count} entries, expected k - 1 = {k - 1}"


def _int_cells(cells: list, top: int) -> np.ndarray:
    """cells, a flat list of integers checked by linalg.int_cells, as _narrow makes them."""
    return _narrow(linalg.int_cells(cells, "certificate entries", CertificateFormatError), top)


def _narrow(A: np.ndarray, top: int) -> np.ndarray:
    """A in the narrowest unsigned type that holds 0..top, or in int64 if an entry lies outside.

    An entry outside 0..top is kept, so that the verifier can see and refuse it.
    """
    if not A.size or (A.min() >= 0 and A.max() <= top):
        return A.astype(np.min_scalar_type(min(top, np.iinfo(np.int64).max)), copy=False)
    return A.astype(np.int64, copy=False)


# What a criterion reports beside its verdict: a Certificate (rank_criterion_code)
# or RankWitness (rank_criterion_codeword) when minimal, a CoverViolation
# (definition) or DhzViolation (dhz) when not, the dicts of a failing rank class
# ({"y", "rank", "covered"}) and of cf_case_check ({"case", "y"}, plus
# {"alphas", "indices"} when minimal), ab's (w_min, w_max), or None.
Witness = Union[Certificate, RankWitness, CoverViolation, DhzViolation,
                dict[str, object], tuple[int, int], None]


@dataclass(frozen=True)
class MinimalityReport:
    criterion: str
    verdict: str
    witness: Witness = None

    def __post_init__(self) -> None:
        if self.verdict == INCONCLUSIVE and self.criterion != "ab":
            raise ValueError("only the ab criterion may be inconclusive")
        if self.verdict == NOT_MINIMAL and self.witness is None:
            raise ValueError("a not_minimal verdict must carry a witness")

    @property
    def is_minimal(self) -> bool:
        return self.verdict == MINIMAL


# -- projective classes --------------------------------------------------------

def normalize_class(field: FieldSpec, y: Sequence[int]) -> Vec:
    """Scale y so its first nonzero coordinate is 1 (idempotent)."""
    for a in y:
        if a:
            if a == 1:
                return tuple(y)
            return scale(field, field.inv(a), y)
    raise ValueError("the zero vector has no projective class")


def _check_oracle_scale(D: DefiningSet) -> None:
    P = class_count(D.field.q, D.k)
    if P > DEF_MAX_CLASSES or D.n > DEF_MAX_N:
        raise GuardError(
            f"oracle-scale guard: {P} classes x n = {D.n} exceeds "
            f"{DEF_MAX_CLASSES} x {DEF_MAX_N}"
        )


# -- criteria --------------------------------------------------------------------

def is_minimal_definition(D: DefiningSet) -> MinimalityReport:
    """Brute force over ordered pairs of projective points of C(D).

    c_j is covered by c_i when |supp c_j minus supp c_i| = wt_j - S_i . S_j
    is 0, S being the 0/1 support matrix.  For a block of rows i the counts
    against every j come from one product, exact in float32 while n < 2^24.
    S S^T is symmetric, so only its upper triangle of blocks is computed:
    block I of rows meets the columns j >= I's first row, and the part
    beyond I, read transposed against wt_I, gives the lower blocks of the
    later rows.  When one block holds every row (up to 2,048 classes at the
    default DOT_BLOCK) the product is S S^T, which NumPy computes with BLAS
    syrk.  The first zero off the diagonal in row-major order is the first
    violating pair (i, j); it is reported once every pair in its rows has
    been tested.
    """
    _check_oracle_scale(D)
    Y, words = D.projective_codewords
    S = (words != 0).astype(np.float32 if D.n < 2**24 else np.float64)
    wt = S.sum(axis=1)
    R = len(S)
    step = max(1, 64 * linalg.DOT_BLOCK // max(1, R))  # tall blocks keep BLAS busy
    first = R * R  # the first pair found so far, as i R + j
    for start in range(0, R, step):
        stop = min(R, start + step)
        first = min(first, _first_cover(S, wt, start, stop))
        if first < stop * R:  # every pair in rows before stop has been tested
            a, b = Y[list(divmod(first, R))].tolist()
            return MinimalityReport(
                "definition", NOT_MINIMAL, CoverViolation(a=tuple(a), b=tuple(b))
            )
    return MinimalityReport("definition", MINIMAL)


def _first_cover(S: np.ndarray, wt: np.ndarray, start: int, stop: int) -> int:
    """The first covering pair (i, j), as i R + j, that the product of the block shows.

    S[start:stop] S[start:]^T holds the rows i of the block against the
    columns j >= start, and, read transposed against wt of the block, the
    rows i >= stop against the columns j of the block.  R^2 when neither
    holds a pair.
    """
    R = len(S)
    G = S[start:stop] @ S[start:].T
    covered = G == wt[start:]
    at = np.arange(stop - start)
    covered[at, at] = False  # c_i covers itself
    hits = np.flatnonzero(covered)
    del covered
    first = R * R
    if hits.size:
        i, j = divmod(int(hits[0]), R - start)
        first = (start + i) * R + start + j
    a, c = np.nonzero(G[:, stop - start:] == wt[start:stop, None])
    if a.size:
        first = min(first, int(((stop + c) * R + start + a).min()))
    return first


def ab_condition(D: DefiningSet) -> MinimalityReport:
    """Sufficient condition w_min/w_max > (q-1)/q, decided by CodeParams.ab_ratio_exceeds."""
    cp = params(D)
    verdict = MINIMAL if cp.ab_ratio_exceeds else INCONCLUSIVE
    return MinimalityReport("ab", verdict, witness=(cp.w_min, cp.w_max))


def dhz_criterion(D: DefiningSet) -> MinimalityReport:
    """Weight-identity test over ordered pairs of independent codewords.

    Minimal iff sum_{c != 0} wt(a + c b) != (q-1) wt(a) - wt(b) for every
    pair of linearly independent codewords.  Scalar multiples change
    neither side, so the pairs run over D.projective_codewords, whose
    codewords are pairwise independent.  a + c b is the codeword of the
    message y_a + c y_b, so each weight is n - N at that message, N being
    D.hyperplane_counts: a pair costs (q-1) k table lookups, not n.
    """
    _check_oracle_scale(D)
    Y, _ = D.projective_codewords
    field, n, N = D.field, D.n, D.hyperplane_counts
    q, R = field.q, len(Y)
    cY = field.vmul(np.arange(1, q)[:, None, None], Y)  # cY[c-1] = c Y
    wt = n - N.take(np_indices(q, Y))
    # a block of rows i gathers N[y_i + c y_j] for every c and j in one take
    step = max(1, linalg.DOT_BLOCK // max(1, cY.size))
    for start in range(0, R, step):
        Yi = Y[start:start + step, None, None, :]
        msgs = field.vadd(Yi, cY)
        lhs = (q - 1) * n - N.take(np_indices(q, msgs)).sum(axis=1)
        bad = lhs == (q - 1) * wt[start:start + step, None] - wt
        at = np.arange(len(bad))
        bad[at, start + at] = False
        hits = np.flatnonzero(bad)
        if hits.size:
            i, j = divmod(int(hits[0]), R)
            a, b = Y[[start + i, j]].tolist()
            return MinimalityReport(
                "dhz", NOT_MINIMAL, DhzViolation(a=tuple(a), b=tuple(b), value=int(lhs[i, j]))
            )
    return MinimalityReport("dhz", MINIMAL)


def _rank_failure(D: DefiningSet, y: Vec, chosen: np.ndarray) -> MinimalityReport:
    """not_minimal for class y, whose greedy scan of D cap H(y) kept too few rows.

    chosen holds the 1-based D indices of the kept rows, which span
    D cap H(y).  Their orthogonal complement has dimension k - rank >= 2, so
    it holds a class b other than y's; b vanishes wherever c(y) does, so
    c(y) covers c(b), and c(b) is nonzero and no multiple of c(y) because
    rank(D) = k.  The covered message is the first such class in canonical
    order, found by np_orthogonal against the kept chunk rows over np_class_reps
    rows in blocks of np_block_rows, which stop at the first hit, so a
    block of one class never builds all P classes.  Both the rank and b
    depend only on the span, not on the order of the scan.
    """
    field, k = D.field, D.k
    q = field.q
    kept = D.chunk_rows.take(chosen - 1, axis=0)
    step = np_block_rows(max(1, len(chosen)))

    def orthogonal(start: int) -> np.ndarray:
        """The classes of a block, other than y's, that are orthogonal to every kept row."""
        Y = np_class_reps(q, k, start, start + step)
        zero = np_orthogonal(field, np_class_chunks(field, k, start, start + step)[:, None], kept)
        return Y[zero.all(axis=1) & (Y != y).any(axis=1)]

    blocks = map(orthogonal, range(0, class_count(q, k), step))
    covered = tuple(next(h for h in blocks if len(h))[0].tolist())
    return MinimalityReport(
        "rank", NOT_MINIMAL, {"y": y, "rank": len(chosen), "covered": covered}
    )


def _block_scan(D: DefiningSet) -> tuple[Callable, int]:
    """(scan, step): the rank criterion's per-block setup, shared by both rank checks.

    scan(Yc) runs _greedy_block on the classes whose chunk rows are Yc and
    returns (chosen, count): chosen[b, :count[b]] are the 1-based D
    indices class b kept.
    The scan reads D a window of candidates at a time: 2qk of them, among
    which a class meets about 2k hits, or all of D when it is smaller, and
    never more than 2 sqrt(DOT_BLOCK).  A block of step classes holds
    about SCAN_BYTES of round state: per class its kept rows and their scan
    positions, a window of hit positions, and a round's indices (two per
    kept row, one per chunk).  Every preset and
    every benchmark code fits one block, so the tail of near-empty hit
    rounds, the few classes that scan longest, is paid once per code; the
    blocks remain for codes whose P is huge against n.  The scan-order
    chunk rows are the ones D holds.
    """
    field, k, n = D.field, D.k, D.n
    order, rows = scan_order(n), D.scan_rows
    window = min(n, 2 * field.q * k, math.isqrt(4 * linalg.DOT_BLOCK))
    pos = np.min_scalar_type(n).itemsize  # a scan position
    intp = np.dtype(np.intp).itemsize
    C = len(rows)
    state = (k - 1) * (C * rows.itemsize + pos + 2 * intp) + window * pos + C * intp

    def scan(Yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        picked, count = _greedy_block(field, Yc, k, rows, window)
        return order[picked] + 1, count

    return scan, max(1, SCAN_BYTES // state)


def rank_criterion_codeword(y: Sequence[int], D: DefiningSet) -> MinimalityReport:
    """c(y) minimal iff rank(D cap H(y)) = k - 1 (requires rank(D) = k).

    The block scan of rank_criterion_code on a block of one class: it
    keeps the rows that class keeps in every block.
    """
    check_message(y, D)
    if not any(y):
        raise ValueError("y must be nonzero")
    if D.rank != D.k:
        raise GuardError(f"rank criterion needs rank(D) = k; got {D.rank} < {D.k}")
    y = normalize_class(D.field, y)
    scan, _ = _block_scan(D)
    chosen, count = scan(np_chunk_rows(D.field, np.array([y])))
    chosen = chosen[0, :count[0]]
    if count[0] < D.k - 1:
        return _rank_failure(D, y, chosen)
    rows = tuple(map(tuple, D.vectors[chosen - 1].tolist()))
    witness = RankWitness(y, tuple(chosen.tolist()), SubspaceBasis(rows, D.k))
    return MinimalityReport("rank", MINIMAL, witness)


def rank_criterion_code(
    D: DefiningSet,
    budget: Optional[int] = None,
) -> MinimalityReport:
    """Apply the per-codeword rank criterion to every projective class.

    Minimal verdicts carry an index-mode Certificate covering all classes;
    otherwise the failing class with the smallest canonical index is
    reported.  Refuses (without partial answers) when the estimated cost
    P * n * k exceeds the operation budget.  Classes run in blocks of
    _block_scan's step, in canonical order, so a failure stops at its
    block; every preset runs in one block.  The class representatives stay
    in the element type.
    """
    if D.rank != D.k:
        raise GuardError(f"rank criterion needs rank(D) = k; got {D.rank} < {D.k}")
    field, k, n = D.field, D.k, D.n
    q = field.q
    P = class_count(q, k)
    limit = op_budget(budget)
    estimated = P * n * k
    if estimated > limit:
        raise BudgetExceededError(
            f"estimated {estimated} field ops exceed the budget {limit}"
        )
    reps, chunks = np_class_reps(q, k), np_class_chunks(field, k)
    entries = np.empty((P, k - 1), dtype=np.min_scalar_type(n))
    scan, step = _block_scan(D)
    for start in range(0, P, step):
        chosen, count = scan(chunks[start:start + step])
        failed = np.flatnonzero(count < k - 1)
        if failed.size:
            b = int(failed[0])
            return _rank_failure(D, tuple(reps[start + b].tolist()), chosen[b, :count[b]])
        entries[start:start + step] = chosen
    cert = Certificate(q=q, n=n, k=k, mode="indices",
                       classes=CertificateClasses(reps, entries))
    return MinimalityReport("rank", MINIMAL, cert)


def _greedy_block(
    field: FieldSpec, Yc: np.ndarray, k: int, rows: np.ndarray, window: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy scans of D cap H(y) for every class y of a block, run in hit rounds.

    Yc holds the block's classes, vectors of F_q^k, as np_chunks chunk
    rows; rows holds D's members the same way, chunk-major (chunks x n), in
    scan order.  The scan reads D a window of candidates at a time.
    np_orthogonal of the block's classes against the window's chunk rows,
    DOT_BLOCK pairs a call, gives each class still scanning its hits, the
    candidates it is orthogonal to, listed in scan order, one class after
    another, their window positions read by compressing a tiled row of
    positions through the hit mask; each class holds a cursor into its
    hits.  A round takes the
    next ROUND_HITS hits of every class that has them and has not retired,
    a zero candidate past the last of a class's hits, and reduces them
    against that class's kept rows, whole chunks at a time,
    and then each against the ones before it, in order, as a row-order
    elimination does: x - c g is minus[mulq[c Q + g] + x], c being x's
    coordinate at g's pivot, read through digits, and every row is scaled
    to a leading 1 found through the lowest table.  A hit whose remainder
    is not zero is kept, in the class's next free slot; a class retires at
    k-1 rows, and since its hits lie in H(y) it can keep no more.  So each
    class keeps the rows a sequential echelon walk over its hits keeps,
    while a window costs one round per ROUND_HITS hits that its busiest
    class tries, not one step per candidate.  The arrays of a round are
    chunk-major too (chunks x hits x classes), so each numpy call runs
    along the classes, and the kept rows are scattered one chunk at a
    time, which costs less than one 2-D scatter.  A round's index arrays
    are dropped as soon as they are read, so none outlives its round into
    the next one's peak.

    Returns (picked, count): picked[b, :count[b]] are the scan positions
    class b kept.  count[b] < k-1 means its scan exhausted D cap H(y), whose
    rank is then count[b].
    """
    ch = field.np_chunks
    minus, mulq, mul, lowest = ch.minus, ch.mulq, ch.mul, ch.lowest
    digits, scale = ch.digits.ravel(), ch.scale  # x_t Q and (1/x_t) Q at t Q + x
    B, s = len(Yc), ROUND_HITS
    C, n = rows.shape
    # the kept rows scaled to a leading 1 (chunk-major), each pivot's chunk j
    # and its t Q in that chunk, and the rows' scan positions: row i of class
    # b in slot i B + b
    full = (k - 1) * B
    basis = np.zeros((C, full), dtype=rows.dtype)
    chunk = np.zeros(full, dtype=np.min_scalar_type(C))
    digit = np.zeros(full, dtype=lowest.dtype)
    picked = np.zeros(full, dtype=np.min_scalar_type(n))
    slots = np.arange(0, full, B)[:, None]  # where each slot starts
    free = np.arange(B)  # each class's next free slot, full or more once it retires
    live = np.arange(B if k > 1 else 0)  # the classes still scanning
    ticks = np.zeros((0, 0), dtype=np.uint8)
    t = 0
    while live.size and t < n:
        stop = min(n, t + window)
        L = stop - t
        Wx = np.zeros((C, L + 1), dtype=rows.dtype)  # the window's chunk rows, then a zero row
        Wx[:, :L] = rows[:, t:stop]
        part = np_block_rows(L)
        if ticks.shape[1] != L:  # the window position of each entry of a call's hits
            ticks = np.arange(L, dtype=np.min_scalar_type(L))[None].repeat(
                min(part, live.size), axis=0)
        total, found = [], []
        for a in range(0, live.size, part):
            hits = np_orthogonal(field, Yc[live[a:a + part], None], Wx[:, :L].T)
            total.append(hits.sum(axis=1))
            # row-major: each class's hits in scan order
            found.append(ticks[:len(hits)].compress(hits.ravel()))
        # the window positions of the hits of every live class, one class after another
        total, found = (np.concatenate(v) if len(v) > 1 else v[0] for v in (total, found))
        end = total.cumsum()
        # per class with hits: the class, the cursor of its next hit in found, the end of its hits
        state = np.concatenate((live, end - total, end)).reshape(3, -1).take(
            total.nonzero()[0], axis=1)
        del total, end  # here and below: no array outlives its use into a round's peak
        most = int(free.take(live).max()) // B  # kept rows so far; a round adds at most s
        r = 0
        while state.shape[1]:
            h, S = state[0], state.shape[1]
            u = min(s, int((state[2] - state[1]).max()))  # hits left to the busiest class
            cursor = state[1] + np.arange(u)[:, None]
            # u x S, L (the zero row) past the last of a class's hits
            P = np.where(cursor < state[2], found.take(cursor, mode="clip"), L)
            del cursor
            w = Wx.take(P, axis=1)  # C x u x S: the round's hits
            if C > 1:  # flat indices in w of each class's chunk j of its hit i
                rS = np.arange(0, u * S, S, dtype=np.int32)[:, None]
                ar = np.arange(S, dtype=np.int32)
            kept = min(most + r * s, k - 2)
            if kept:
                # rows past a class's count are zero, so they leave it as is
                slot = h + slots[:kept]  # kept x S, flat
                G, T = basis.take(slot, axis=1), digit.take(slot)
                if C > 1:  # J < C u S, which SCAN_BYTES keeps far below 2^31
                    J = np.multiply(chunk.take(slot), u * S, dtype=np.int32)
                    J += ar
                del slot
                for i in range(kept):
                    x = w.take(J[i] + rS) if C > 1 else w[0]  # u x S: each hit's chunk at the pivot
                    # c Q + g, c the coordinate at the pivot, a row index of mulq
                    w = minus.take(_product(mulq, digits.take(T[i] + x) + G[:, i, None], w))
            # the round's hits, in order, as a row-order elimination: pivot, scale, clear below
            low = np.empty((u, S), dtype=lowest.dtype)
            jc = np.empty((u, S), dtype=chunk.dtype) if C > 1 else None
            for i in range(u):
                row = w[:, i]
                if C > 1:
                    jc[i] = (row != 0).argmax(axis=0)
                    at = np.multiply(jc[i], u * S, dtype=np.int32)
                    at += ar
                    x = w.take(at + rS[i])
                else:
                    x = row[0]
                low[i] = lowest.take(x)
                w[:, i] = row = mul.take(scale.take(low[i] + x) + row)
                if i < u - 1:
                    x = w.take(at + rS[i + 1:]) if C > 1 else w[0, i + 1:]
                    cg = digits.take(low[i] + x) + row[:, None]
                    w[:, i + 1:] = minus.take(_product(mulq, cg, w[:, i + 1:]))
                    del cg
            # keep the nonzero rows, each class's in order in its next free slots
            nz = w.any(axis=0)  # u x S
            flat = nz.ravel().nonzero()[0]
            if flat.size:
                slot = nz.cumsum(axis=0)  # a hit's slot: the class's next free one, plus
                slot -= nz  # one for each row kept before it this round
                slot *= B
                slot += free.take(h)
                slot = slot.ravel().take(flat)
                for j in range(C):  # one 1-D scatter a chunk costs half a 2-D one
                    basis[j, slot] = w[j].take(flat)
                digit[slot] = low.ravel().take(flat)
                if C > 1:
                    chunk[slot] = jc.ravel().take(flat)
                picked[slot] = np.add(P.ravel().take(flat), t, dtype=np.intp)
                free[h] += nz.sum(axis=0) * B
                del slot
            del flat
            r += 1
            state[1] += u
            state = state.take(((state[1] < state[2]) & (free.take(h) < full)).nonzero()[0], axis=1)
        live = live[free.take(live) < full]
        t = stop
    return picked.reshape(k - 1, B).T, free // B


def _product(mulq: np.ndarray, at: np.ndarray, w: np.ndarray) -> np.ndarray:
    """mulq[at] + w, the index of w - c g in minus: below Q^2, which mulq's type holds."""
    index = mulq.take(at)
    index += w
    return index


def cf_case_check(
    f: FunctionSpec,
    u: int,
    v: Sequence[int],
    D: Optional[DefiningSet] = None,
) -> MinimalityReport:
    """Case-split check for c(u, v) in C_f; verdict equals the rank criterion.

    The case of (u, v) only shapes the witness: the returned vectors are the
    alpha-vectors in F_q^m (the x-parts of the witnessing d-vectors), not the
    d-vectors themselves.
    """
    field, m = f.field, f.m
    f.field.check_scalar(u)
    if len(v) != m:
        raise ValueError(f"v has length {len(v)}, expected m = {m}")
    if u == 0 and not any(v):
        raise ValueError("(u, v) must be nonzero")
    if linearity_check(f) is not None:
        raise ValueError("f is linear; C_f degenerates and the case split does not apply")
    if D is None:
        D = defining_set(f)
    y = (u,) + tuple(v)
    base = rank_criterion_codeword(y, D)
    if u != 0 and not any(v):
        case = 1
    elif u != 0:
        case = 2
    else:
        case = 3
    if not base.is_minimal:
        return MinimalityReport("cf_case", NOT_MINIMAL, {"case": case, "y": y})
    assert isinstance(base.witness, RankWitness)
    alphas = tuple(d[1:] for d in base.witness.basis.vectors)
    return MinimalityReport(
        "cf_case", MINIMAL,
        {"case": case, "y": y, "alphas": alphas, "indices": base.witness.indices},
    )


# -- certificates -----------------------------------------------------------------

def verify_certificate(D: DefiningSet, cert: Certificate) -> bool:
    """Exact check of a certificate against D.

    Every class of F_q^k must appear once, each entry must be a member of D
    (by index or by value), orthogonal to its class representative, and each
    class's k-1 vectors must have rank exactly k-1.  The check reads the
    certificate's two arrays, whose entry types and shapes its constructor
    checked.  Representatives are told apart, and vector entries found in
    D, through tables of q^k flags, one per canonical index.  Classes are
    checked in blocks of np_check_rows(k) = 4 DOT_BLOCK / k^2 on chunk rows
    (linalg.np_chunk_rows): the zero test of the pairs y.w by
    np_orthogonal, through the chunk dot tables, and the ranks by
    np_chunk_ranks.  A block's vector
    entries are packed as they are, and its index entries gather the
    chunk rows D holds.
    """
    field, k, n = D.field, D.k, D.n
    q = field.q
    if (cert.q, cert.n, cert.k) != (q, n, k):
        return False
    P = class_count(q, k)
    Y, E = cert.classes.reps, cert.classes.entries
    if len(Y) != P or not _within(Y, 0, q - 1):
        return False
    if (Y[np.arange(P), (Y != 0).argmax(axis=1)] != 1).any():
        return False  # a first nonzero entry other than 1
    # P distinct representatives are every projective class once.  Flags are
    # kept per canonical index of F_q^k: q^k is about (q - 1) P, P just counted.
    seen = np.zeros(q**k, dtype=bool)
    seen[np_indices(q, Y)] = True
    if np.count_nonzero(seen) != P:
        return False
    if k > 1:
        vectors = cert.mode == "vectors"
        lo, hi = (0, q - 1) if vectors else (1, n)
        if not _within(E, lo, hi):
            return False
        if vectors:
            member = np.zeros(q**k, dtype=bool)
            member[np_indices(q, D.vectors)] = True
        step = np_check_rows(k)
        for start in range(0, P, step):
            W = E[start:start + step]
            if vectors:
                if not member[np_indices(q, W)].all():
                    return False
                W = np_chunk_rows(field, W)
            else:
                W = D.chunk_rows.take(W.astype(np.intp) - 1, axis=0)
            Yb = np_chunk_rows(field, Y[start:start + step])
            if not np_orthogonal(field, Yb[:, None], W).all() or (
                    np_chunk_ranks(field, W) != k - 1).any():
                return False
    return True


def _within(A: np.ndarray, lo: int, hi: int) -> bool:
    """Whether every entry of A lies in lo..hi."""
    return not A.size or (lo <= A.min() and A.max() <= hi)


def write_certificate(out: Union[str, TextIO], cert: Certificate) -> None:
    """Write cert as text: its header, then "rep | entries" for each class.

    The lines of WRITE_BLOCK classes are formatted as one byte array, with
    no Python work per line or per integer.  Their integers are the rows of
    a token matrix, in the certificate's narrow type (in uint64, signs
    aside, if an array is int64 to keep values the verifier refuses).  A
    token's separator is " ", " | " after the representative or "\n" at
    the end of the line.  A token's last digit lies at its line's start,
    plus its column's offset in a line of one-digit tokens (the widths of
    the separators and digits before it), plus the count of extra digits
    and signs in its line up to it, one cumsum along each line, skipped
    in a block with no second digit and no sign.  The digits are written
    from the units up, pass d writing only the tokens of at least 10^d,
    into a buffer of spaces that then gets its "-", "|" and line breaks.
    The text is str() of every value.
    """
    reps, entries = cert.classes.reps, cert.classes.entries
    P, k = len(reps), cert.k
    R = k + entries[:1].size  # integers per line
    flat = entries.reshape(P, R - k)
    sep = np.ones(R, dtype=np.intp)  # the width of the separator after each integer
    sep[k - 1] = 3
    sep[-1] += R == k  # " | \n" when k = 1
    col = np.cumsum(sep + 1) - sep - 1  # each token's digit in a line of one-digit tokens
    signed = "i" in (reps.dtype.kind, entries.dtype.kind)

    def block(Y: np.ndarray, E: np.ndarray) -> str:
        T = np.concatenate((Y, E), axis=1, dtype=np.uint64 if signed else None, casting="unsafe")
        if signed:
            neg = np.concatenate((Y < 0, E < 0), axis=1)
            np.negative(T, out=T, where=neg)  # |value|, also for -2^63
        # each token's sign and digits past the first
        extra = neg.astype(np.uint8) if signed else np.zeros(T.shape, np.uint8)
        for d in range(1, len(str(int(T.max())))):
            extra += T >= 10**d
        if extra.any():
            units = np.cumsum(extra, axis=1, dtype=np.intp)  # those of its line up to each token
            units += col
        else:
            units = np.broadcast_to(col, T.shape)
        width = units[:, -1] + sep[-1] + 1  # each line's
        units = units + (np.cumsum(width) - width)[:, None]  # plus its line's start: its last digit
        text = np.full(units[-1, -1] + sep[-1] + 1, ord(" "), dtype=np.uint8)
        V, pos = T.ravel(), units.ravel()
        while V.size:
            high = V // 10  # V % 10 is V - 10 high, which costs a fraction of numpy's %
            text[pos] = V - high * 10 + ord("0")
            live = high.nonzero()[0]
            V, pos = high.take(live), pos.take(live) - 1
        if signed:
            text[(units - extra)[neg]] = ord("-")
        text[units[:, k - 1] + 2] = ord("|")
        text[units[:, -1] + sep[-1]] = ord("\n")
        return text.tobytes().decode("ascii")

    def chunks() -> Iterator[str]:
        yield f"{cert.q} {cert.n} {cert.k} {P} {cert.mode}\n"
        for start in range(0, P, WRITE_BLOCK):
            yield block(reps[start:start + WRITE_BLOCK], flat[start:start + WRITE_BLOCK])

    write_text(out, chunks())


WRITE_BLOCK = 1024  # certificate lines formatted at once


def read_certificate(src: Union[str, TextIO]) -> Certificate:
    """Parse a certificate file straight into its two arrays.

    The text is read in the pieces of linalg.text_pieces, whole lines of
    about READ_CHARS characters; no copy of the whole is kept.  A plain
    piece (ASCII digits, spaces, tabs, "|" and line breaks "\n" and "\r",
    where a line with no token and no "|" is blank and every other line
    is k tokens, one "|" and k-1 entries, and no token is over 18 digits)
    is read whole by numpy, which finds its tokens as runs of digits.  Any
    other piece is split into its non-blank lines and read a line and a
    token at a time, with one int() per distinct token; that path reads
    the full language (signs, "1_0", non-ASCII digits, other line breaks)
    and gives every error.  Each piece is narrowed as it is read.  The
    checks and their messages are those of a reader that splits the whole
    text into lines, checks the header and the line count and then each
    line in order: the first failing line is reported only after the
    count, and a class with other than k-1 entries, or an integer beyond
    64 bits, only after every line, with the message Certificate's
    constructor gives.
    """
    with text_pieces(src) as pieces:
        return _parse_certificate(pieces)


def _parse_certificate(pieces: Iterator[str]) -> Certificate:
    first, rest = None, ""
    for piece in pieces:  # the header, the first non-blank line, and the rest of its piece
        lines = piece.splitlines(True)
        at = next((i for i, ln in enumerate(lines) if ln.strip()), None)
        if at is not None:
            first, rest = lines[at].splitlines()[0], "".join(lines[at + 1:])
            break
    if first is None:
        raise CertificateFormatError("empty certificate file")
    head = first.split()
    if len(head) != 5:
        raise CertificateFormatError(f"bad certificate header {first!r}")
    try:
        q, n, k, count = (int(t) for t in head[:4])
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    if q < 2 or n < 1 or k < 1 or count < 0:
        raise CertificateFormatError(
            f"certificate header needs q >= 2, n >= 1, k >= 1 and count >= 0: {first!r}"
        )
    mode = head[4]
    if mode not in ("indices", "vectors"):
        raise CertificateFormatError(f"unknown certificate mode {mode!r}")
    shape = (k - 1,) if mode == "indices" else (k - 1, k)  # the entries of one class
    top = n if mode == "indices" else q - 1
    ints = _IntReader().__getitem__
    reps: list[np.ndarray] = []
    entries: list[np.ndarray] = []
    # the first malformed line, the first class with other than k - 1
    # entries and an integer beyond 64 bits, raised in that order after the count
    found, error, short, overflow = 0, None, None, None
    for piece in chain((rest,), pieces):
        arrays = None if error is not None else _plain_piece(piece, k, shape)
        if arrays is None:
            block = list(filter(str.strip, piece.splitlines()))
            found += len(block)
            if error is not None:
                continue  # only counted
            try:
                rep_cells, cells, short_here = _token_block(block, k, shape, ints)
            except CertificateFormatError as exc:
                error = exc
                continue
            short = short or short_here
            if short is None and overflow is None:
                try:
                    arrays = (_token_ints(rep_cells).reshape(len(block), k),
                              _token_ints(cells).reshape(len(block), *shape))
                except CertificateFormatError as exc:
                    overflow = exc
        else:
            found += len(arrays[0])
        if short is None and overflow is None:
            reps.append(_narrow(arrays[0], q - 1))
            entries.append(_narrow(arrays[1], top))
    if found != count:
        raise CertificateFormatError(f"expected {count} class lines, found {found}")
    for late in (error, short, overflow):
        if late is not None:
            raise late
    return Certificate(q=q, n=n, k=k, mode=mode, classes=CertificateClasses(
        _stack(reps, (0, k), q - 1), _stack(entries, (0, *shape), top)))


def _plain_piece(piece: str, k: int, shape: tuple[int, ...],
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A plain piece's representatives and entries as unsigned arrays; None for any other piece.

    In a plain piece every token is a run of ASCII digits with a value
    below 10^18, and a line, ended by "\n" or "\r", is k of them, "|" and
    prod(shape) of them, or blank.  Each byte-sized temporary is dropped
    once spent, which keeps a piece's peak near its token positions and
    values.
    """
    R = k + math.prod(shape)  # tokens per line
    # padded so that starts + 18 is inside; "\r\n" becomes a blank line
    text = ("\n" + piece + "\n" + " " * 18).replace("\r", "\n")
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    del text
    if raw.translate(None, b"0123456789 \t|\n"):
        return None
    b = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    bars = np.flatnonzero(b == ord("|"))
    digit = b - ord("0")  # 10 or more for any other byte
    del b, raw
    isdigit = digit < 10
    starts = np.flatnonzero(isdigit[1:] > isdigit[:-1])
    starts += 1
    del isdigit
    L = len(bars)
    if len(starts) != L * R:
        return None
    # the tokens before the start of the line of the j-th "|", before that
    # "|" and before the line's end must be j R, j R + k and (j + 1) R; with
    # L R tokens in all, a line without "|" has none and is blank
    line = np.searchsorted(ends, bars)
    bounds = np.concatenate((ends.take(line - 1), bars, ends.take(line)))
    if (np.searchsorted(starts, bounds).reshape(3, L) != R * np.arange(L) + [[0], [k], [R]]).any():
        return None
    del ends, bars, line, bounds
    V = np.take(digit, starts)  # the values so far, widened as longer tokens go on
    live = np.ones(len(starts), dtype=bool)  # tokens whose digits go on
    for j in range(1, 19):
        d = np.take(digit, starts + j)
        live &= d < 10
        if not live.any():
            break
        V = V.astype(np.min_scalar_type(10 ** (j + 1) - 1), copy=False)
        np.multiply(V, 10, out=V, where=live)
        np.add(V, d, out=V, where=live)
    else:
        return None  # a token of 19 digits or more
    V = V.reshape(L, R)
    return V[:, :k], V[:, k:].reshape(L, *shape)


def _token_block(block: list[str], k: int, shape: tuple[int, ...],
                 ints: Callable[[str], int],
                 ) -> tuple[list[int], list[int], Optional[CertificateFormatError]]:
    """A block read a line and a token at a time, with int().

    Returns the representatives' and the entries' integers and, for the
    block's first class with other than k-1 entries, the error to raise
    after every line.  A malformed line raises CertificateFormatError.
    """
    width = math.prod(shape[1:])  # integers per entry
    rep_cells: list[int] = []
    cells: list[int] = []
    short = None
    for ln in block:
        if "|" not in ln:
            raise CertificateFormatError(f"class line without separator: {ln!r}")
        left, right = ln.split("|", 1)
        rep = list(map(ints, left.split()))
        items = list(map(ints, right.split()))
        if len(rep) != k:
            raise CertificateFormatError(f"representative {tuple(rep)} has length != k")
        if len(items) % width:
            raise CertificateFormatError("vector payload not a multiple of k")
        if len(items) != (k - 1) * width and short is None:
            short = CertificateFormatError(_count_message(tuple(rep), len(items) // width, k))
        rep_cells += rep
        cells += items
    return rep_cells, cells, short


def _stack(blocks: list[np.ndarray], empty: tuple[int, ...], top: int) -> np.ndarray:
    """The narrowed blocks as one array, as _narrow would narrow it whole."""
    if not blocks:
        return _narrow(np.zeros(empty, dtype=np.int64), top)
    wide = any(A.dtype == np.int64 for A in blocks)  # a block with an entry outside 0..top
    return np.concatenate(blocks, dtype=np.int64 if wide else blocks[0].dtype, casting="unsafe")


def _token_ints(cells: list[int]) -> np.ndarray:
    """The ints read from tokens as int64, refused beyond it as Certificate refuses them."""
    try:
        return np.fromiter(cells, dtype=np.int64, count=len(cells))
    except OverflowError:
        return _int_cells(cells, 0)  # refuses them


class _IntReader(dict):
    """token -> int(token), each distinct token converted once."""

    def __missing__(self, token: str) -> int:
        try:
            value = self[token] = int(token)
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None
        return value
