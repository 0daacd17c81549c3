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

The class representatives are one array (linalg.np_class_reps).  The rank
criterion scans D in a fixed stride order for a block of classes at a time,
in hit rounds: each class's hits (the candidates orthogonal to it) are
listed in scan order, and round r reduces the r-th hit of every class still
scanning against the echelon rows that class kept, so a window of
candidates costs about k rounds, not one step per candidate.  A class keeps
a hit when a remainder is left and retires at rank k-1, exactly as the
sequential rank_criterion_codeword does.  The criterion emits a certificate
whose per-class entries are indices into the serialized D order, so
verification is exact membership; the verifier checks blocks of classes
with batched elimination.  A certificate is two arrays, the P x k
representatives and the P x (k-1) indices or P x (k-1) x k vectors, in the
narrowest exact type; its producers, the verifier and the text codec work
on them directly.  A failing class is reported with the rank its scan
reached and a message whose codeword it covers.  The definition and dhz
oracles read D.projective_codewords, one class and its codeword per
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
from itertools import chain, islice
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .code import (
    DefiningSet,
    check_message,
    defining_set,
    linearity_check,
    weight_distribution,
)
from .errors import BudgetExceededError, CertificateFormatError, GuardError
from .families import FunctionSpec
from .gf import FieldSpec
from . import linalg
from .linalg import (
    EchelonBasis,
    SubspaceBasis,
    Vec,
    class_count,
    index_to_vector,
    kernel_basis,
    np_block_rows,
    np_class_reps,
    np_dots,
    np_indices,
    np_paired_dots,
    np_ranks,
    np_row_keys,
    scale,
)

DEFAULT_BUDGET = 10**10
DEF_MAX_CLASSES = 10_000
DEF_MAX_N = 1_000

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"
INCONCLUSIVE = "inconclusive"


def op_budget(budget: Optional[int] = None) -> int:
    """The elementary-field-op budget; MINICODE_BUDGET overrides the default."""
    if budget is not None:
        return budget
    env = os.environ.get("MINICODE_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


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
    equal when their arrays hold the same values.
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
        return (np.array_equal(self.reps, other.reps)
                and np.array_equal(self.entries, other.entries))

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
        return A.astype(np.min_scalar_type(min(top, np.iinfo(np.int64).max)))
    return A.astype(np.int64)


@dataclass(frozen=True)
class MinimalityReport:
    criterion: str
    verdict: str
    witness: object = None

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


def projective_classes(field: FieldSpec, k: int) -> Iterator[Vec]:
    """Canonical representatives in ascending canonical-index order."""
    q = field.q
    # Representatives are exactly the vectors whose first nonzero entry is 1:
    # (0...0, 1, tail).  More leading zeros means a smaller canonical index.
    for lead in range(k - 1, -1, -1):
        tail = k - lead - 1
        for idx in range(q**tail):
            yield (0,) * lead + (1,) + index_to_vector(q, tail, idx)


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
    """Sufficient condition w_min/w_max > (q-1)/q, by integer cross-products."""
    we = weight_distribution(D)
    q = we.q
    if q * we.w_min > (q - 1) * we.w_max:
        return MinimalityReport("ab", MINIMAL, witness=(we.w_min, we.w_max))
    return MinimalityReport("ab", INCONCLUSIVE, witness=(we.w_min, we.w_max))


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


def _scan_order(n: int) -> np.ndarray:
    """The 0-based positions of D in the order the rank scans visit them.

    Position i comes i-th, times s, mod n, where s is the first integer from
    round(n / phi) up that is coprime to n (phi the golden ratio), so
    successive candidates spread over D.  Canonical order would start with
    the q^{m-1} - 1 members of D_f that have x_1 = 0, which span slowly.
    """
    s = max(1, round(n * (math.sqrt(5) - 1) / 2))
    while math.gcd(s, n) != 1:
        s += 1
    return np.arange(n, dtype=np.int64) * s % n


def _rank_failure(D: DefiningSet, y: Sequence[int], chosen: Sequence[int]) -> MinimalityReport:
    """not_minimal for class y, whose greedy scan of D cap H(y) chose too few rows.

    chosen spans D cap H(y), so any b orthogonal to it vanishes wherever c(y)
    does: c(y) covers c(b).  A kernel vector that is no multiple of y exists
    because the rank is below k - 1, and c(b) is nonzero and no multiple of
    c(y) because rank(D) = k.  Both the rank and b depend only on the span,
    not on the order of the scan.
    """
    field = D.field
    y = normalize_class(field, y)
    rows = D.vectors[np.array(chosen, dtype=np.intp) - 1].tolist()
    covered = next(
        b for b in kernel_basis(field, rows, D.k) if normalize_class(field, b) != y
    )
    return MinimalityReport(
        "rank", NOT_MINIMAL, {"y": y, "rank": len(chosen), "covered": covered}
    )


def rank_criterion_codeword(y: Sequence[int], D: DefiningSet) -> MinimalityReport:
    """c(y) minimal iff rank(D cap H(y)) = k - 1 (requires rank(D) = k).

    The sequential reference of rank_criterion_code: it scans D in the same
    order and keeps the same rows.
    """
    check_message(y, D)
    if not any(y):
        raise ValueError("y must be nonzero")
    if D.rank != D.k:
        raise GuardError(f"rank criterion needs rank(D) = k; got {D.rank} < {D.k}")
    field, k = D.field, D.k
    basis = EchelonBasis(field, k)
    chosen: list[int] = []
    rows: list[Vec] = []  # the members at chosen, as plain-int tuples
    order = _scan_order(D.n)
    members = order[np_dots(field, [y], D.digit_columns)[0][order] == 0]  # D cap H(y)
    for i in members.tolist():
        if basis.rank == k - 1:
            break
        d = tuple(D.vectors[i].tolist())  # one row at a time: the scan stops after a few
        if basis.add(d):
            chosen.append(i + 1)
            rows.append(d)
    if basis.rank < k - 1:
        return _rank_failure(D, y, chosen)
    witness = RankWitness(normalize_class(field, y), tuple(chosen), SubspaceBasis(tuple(rows), k))
    return MinimalityReport("rank", MINIMAL, witness)


def rank_criterion_code(
    D: DefiningSet,
    budget: Optional[int] = None,
) -> MinimalityReport:
    """Apply the per-codeword rank criterion to every projective class.

    Minimal verdicts carry an index-mode Certificate covering all classes;
    otherwise the failing class with the smallest canonical index is
    reported.  Refuses (without partial answers) when the estimated cost
    P * n * k exceeds the operation budget.  Classes run in blocks of about
    DOT_BLOCK / k^2, in canonical order, so a failure stops at its block.
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
    reps = np_class_reps(q, k).astype(field.element_dtype)
    order = _scan_order(n)
    rows, cols = D.vectors[order], D.digit_columns[:, order]  # D in scan order
    entries = np.empty((P, k - 1), dtype=np.min_scalar_type(n))
    step = np_block_rows(field, k * k)
    for start in range(0, P, step):
        Y = reps[start:start + step].astype(np.int64)
        picked, count = _greedy_block(field, Y, rows, cols)
        failed = np.flatnonzero(count < k - 1)
        if failed.size:
            b = int(failed[0])
            chosen = order[picked[b, :count[b]]] + 1
            return _rank_failure(D, tuple(Y[b].tolist()), chosen.tolist())
        entries[start:start + step] = order[picked] + 1
    cert = Certificate(q=q, n=n, k=k, mode="indices",
                       classes=CertificateClasses(reps, entries))
    return MinimalityReport("rank", MINIMAL, cert)


def _greedy_block(
    field: FieldSpec, Y: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy scans of D cap H(y) for every class y of a block, run in hit rounds.

    rows and cols are D's members and np_dots columns in scan order, visited
    a window of candidates at a time.  np_dots over the window gives each
    live class its hits, the candidates it is orthogonal to, and a stable
    argsort of the hit mask lists them first, in scan order.  Round r then takes the r-th hit of every class that is
    still scanning and has one, reduces it against that class's kept rows
    with the flat field tables, and keeps it when a remainder is left; a
    class retires at k-1 rows.  Each class meets its own hits in scan
    order, so it keeps the rows rank_criterion_codeword keeps, while a
    window costs as many rounds as its busiest class has hits to try
    (about k), not one step per candidate.

    Returns (picked, count): picked[b, :count[b]] are the scan positions
    class b kept.  count[b] < k-1 means its scan exhausted D cap H(y), whose
    rank is then count[b].
    """
    q, sub, mul, inv = field.q, field.np_sub, field.np_mul, field.np_inv
    B, k = Y.shape
    n = len(rows)
    basis = np.zeros((k - 1, B, k), dtype=np.int64)  # kept rows scaled to a leading 1
    pivots = np.zeros((k - 1, B), dtype=np.int64)
    picked = np.zeros((B, k - 1), dtype=np.int64)
    count = np.zeros(B, dtype=np.int64)
    live = np.flatnonzero(count < k - 1)  # the classes still scanning
    t = 0
    while live.size and t < n:
        stop = min(n, t + np_block_rows(field, live.size))
        hits = np_dots(field, Y[live], cols[:, t:stop]) == 0
        ranked = np.argsort(~hits, axis=1, kind="stable") + t  # hits first, in scan order
        total = hits.sum(axis=1)
        sel = np.flatnonzero(total)  # rows of live with an r-th hit
        r = 0
        while sel.size:
            h = live[sel]
            pos = ranked[sel, r]
            w = rows[pos]
            at = np.arange(h.size)
            for i in range(int(count[h].max())):
                # rows past a class's count are zero, so this leaves it as is
                c = w[at, pivots[i, h]]
                w = sub.take(w * q + mul.take(c[:, None] * q + basis[i, h]))
            new = np.flatnonzero(w.any(axis=1))
            if new.size:
                w, hn = w[new], h[new]
                piv = (w != 0).argmax(axis=1)
                lead = w[np.arange(new.size), piv]
                slot = count[hn]
                basis[slot, hn] = mul.take(inv.take(lead)[:, None] * q + w)
                pivots[slot, hn] = piv
                picked[hn, slot] = pos[new]
                count[hn] = slot + 1
            r += 1
            sel = sel[(total[sel] > r) & (count[h] < k - 1)]
        live = live[count[live] < k - 1]
        t = stop
    return picked, count


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
    checked.  Classes are checked in blocks of about DOT_BLOCK / k^2 with
    the flat field tables; a block's vector entries are found in D by one
    sorted lookup of their row keys.
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
    if k > 1:
        vectors = cert.mode == "vectors"
        lo, hi = (0, q - 1) if vectors else (1, n)
        if not _within(E, lo, hi):
            return False
        if vectors:
            keys = np_row_keys(field, D.vectors)
            order = np.argsort(keys)
            members = keys[order]
        step = np_block_rows(field, k * k)
        for start in range(0, P, step):
            Eb = E[start:start + step]
            if vectors:  # the D position of each entry, if it is a member
                wanted = np_row_keys(field, Eb.reshape(-1, k))
                at = np.searchsorted(members, wanted)
                if (at == members.size).any() or (members[at] != wanted).any():
                    return False
                at = order[at]
            else:
                at = Eb.astype(np.intp) - 1
            Yb = Y[start:start + step].astype(np.int64)
            W = D.vectors[at.reshape(len(Yb), k - 1)]
            if np_paired_dots(field, Yb, W).any() or (np_ranks(field, W) != k - 1).any():
                return False
    # P distinct representatives are every projective class once
    rep_keys = np.sort(np_row_keys(field, Y))
    return bool((rep_keys[1:] != rep_keys[:-1]).all())


def _within(A: np.ndarray, lo: int, hi: int) -> bool:
    """Whether every entry of A lies in lo..hi."""
    return not A.size or (lo <= A.min() and A.max() <= hi)


def write_certificate(out: Union[str, TextIO], cert: Certificate) -> None:
    """Write cert as text: its header, then "rep | entries" for each class.

    The lines are formatted from the two arrays a block of classes at a
    time.  Each distinct integer of a representative, and each distinct
    entry (an index or a whole vector, looked up by its bytes), is
    formatted once.
    """
    reps, entries = cert.classes.reps, cert.classes.entries
    P, k = len(reps), cert.k
    width = k if cert.mode == "vectors" else 1  # integers per entry
    cells = np.ascontiguousarray(entries).reshape(P, (k - 1) * width)
    cells = cells.view(np.dtype((np.void, entries.itemsize * width)))
    head = f"{cert.q} {cert.n} {cert.k} {P} {cert.mode}\n"

    def entry_text(raw: bytes) -> str:  # the integers of one index or vector
        return " ".join(map(str, np.frombuffer(raw, entries.dtype).tolist()))

    ints, items = _Text(str).__getitem__, _Text(entry_text).__getitem__

    def write(fh: TextIO) -> None:
        fh.write(head)
        for start in range(0, P, 1024):
            lines = zip(reps[start:start + 1024].tolist(), cells[start:start + 1024].tolist())
            fh.write("".join([" ".join(map(ints, rep)) + " | " + " ".join(map(items, row)) + "\n"
                              for rep, row in lines]))

    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    else:
        write(out)


class _Text(dict):
    """key -> its text, each distinct key formatted once."""

    def __init__(self, format: Callable[[object], str]) -> None:
        super().__init__()
        self.format = format

    def __missing__(self, key: object) -> str:
        text = self[key] = self.format(key)
        return text


def read_certificate(src: Union[str, TextIO]) -> Certificate:
    """Parse a certificate file straight into its two arrays.

    The text is read a line at a time and parsed READ_BLOCK non-blank lines
    at a time; no copy of the whole is kept.  A plain block (ASCII digits,
    spaces and tabs around one "|" per line, with k tokens before it and
    k-1 entries after it, and no token over 18 digits) is read by numpy,
    which finds its tokens as runs of digits.  Any other block is read a
    line and a token at a time, with one int() per distinct token; that
    path reads the full language (signs, "1_0", non-ASCII digits) and gives
    every error.  Each block is narrowed as it is read.  The checks and
    their messages are those of a reader that splits the whole text into
    lines, checks the header and the line count and then each line in
    order: the first failing line is reported only after the count, and a
    class with other than k-1 entries, or an integer beyond 64 bits, only
    after every line, with the message Certificate's constructor gives.
    """
    if isinstance(src, str):
        with open(src, "r", encoding="utf-8") as fh:
            return _parse_certificate(fh)
    return _parse_certificate(src)


READ_BLOCK = 1024  # non-blank certificate lines parsed at once


def _parse_certificate(stream: TextIO) -> Certificate:
    # the non-blank lines, as str.splitlines splits the whole text
    lines = filter(str.strip, chain.from_iterable(map(str.splitlines, stream)))
    first = next(lines, None)
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
    for block in iter(lambda: list(islice(lines, READ_BLOCK)), []):
        found += len(block)
        if error is not None:
            continue  # only counted
        arrays = _plain_block(block, k, shape)
        if arrays is None:
            try:
                rep_cells, cells, short_here = _token_block(block, k, shape, ints)
            except CertificateFormatError as exc:
                error = exc
                continue
            short = short or short_here
            if short is None and overflow is None:
                try:
                    arrays = _token_ints(rep_cells), _token_ints(cells)
                except CertificateFormatError as exc:
                    overflow = exc
        if short is None and overflow is None:
            reps.append(_narrow(arrays[0].reshape(len(block), k), q - 1))
            entries.append(_narrow(arrays[1].reshape(len(block), *shape), top))
    if found != count:
        raise CertificateFormatError(f"expected {count} class lines, found {found}")
    for late in (error, short, overflow):
        if late is not None:
            raise late
    return Certificate(q=q, n=n, k=k, mode=mode, classes=CertificateClasses(
        _stack(reps, (0, k), q - 1), _stack(entries, (0, *shape), top)))


def _plain_block(block: list[str], k: int, shape: tuple[int, ...],
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A plain block's representatives and entries as unsigned arrays; None for any other block.

    In a plain block every token is a run of ASCII digits with a value
    below 10^18, and each line is k of them, "|" and prod(shape) of them.
    Each byte-sized temporary is dropped once spent, which keeps a block's
    peak near its token positions and values.
    """
    L, R = len(block), k + math.prod(shape)  # lines and tokens per line
    text = "\n" + "\n".join(block) + "\n" + " " * 18  # padded so that starts + 18 is inside
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    del text
    if raw.translate(None, b"0123456789 \t|\n"):
        return None
    at = np.int32 if len(raw) < 2**31 else np.int64  # a position in the block
    b = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(b == ord("\n")).astype(at)  # L + 1 line breaks
    bars = np.flatnonzero(b == ord("|")).astype(at)
    if len(bars) != L or not ((ends[:-1] < bars) & (bars < ends[1:])).all():
        return None  # a line without "|" or with two
    digit = b - ord("0")  # 10 or more for any other byte
    del b, raw
    isdigit = digit < 10
    starts = np.flatnonzero(isdigit[1:] > isdigit[:-1]).astype(at)
    del isdigit
    starts += 1
    if len(starts) != L * R:
        return None
    if (np.searchsorted(starts, ends) != R * np.arange(L + 1)).any():
        return None  # a line of other than R tokens
    if (np.searchsorted(starts, bars) != R * np.arange(L) + k).any():
        return None  # a line with other than k tokens before "|"
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
    return V[:, :k], V[:, k:]


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
