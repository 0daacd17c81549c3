"""Minimality of codewords and codes by four criteria, with certificates.

A codeword is minimal when it covers only its own scalar multiples.  All
checks work on one representative per projective class (first nonzero
coordinate normalized to 1), which is sound because supports are
scalar-invariant and H(cy) = H(y) for c != 0.

Criteria:
  definition  brute force over ordered pairs of classes (oracle scale),
  ab          the one-sided w_min/w_max > (q-1)/q weight-ratio test,
  dhz         the weight-identity test over independent codeword pairs,
  rank        dim Span(D cap H(y)) = k-1 per class, with witness bases.

The class representatives are one array, built once per call.  The rank
criterion scans D in a fixed stride order for a block of classes at a time,
in hit rounds: each class's hits (the candidates orthogonal to it) are
listed in scan order, and round r reduces the r-th hit of every class still
scanning against the echelon rows that class kept, so a window of
candidates costs about k rounds, not one step per candidate.  A class keeps
a hit when a remainder is left and retires at rank k-1, exactly as the
sequential rank_criterion_codeword does.  The criterion emits a certificate
whose per-class entries are indices into the serialized D order, so
verification is exact membership; the verifier checks blocks of classes
with batched elimination.  A failing class is reported with the rank its
scan reached and a message whose codeword it covers.  The definition and
dhz oracles read one table of the class codewords, built one message
coordinate at a time with the flat add table, and test a block of rows
against every class at once: one support product S_i S^T (the symmetric
S S^T when the block is every row), or one gather from the hyperplane
counts.  Every field runs the same numpy kernels.
"""

from __future__ import annotations

import math
import os
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
    index_to_vector,
    kernel_basis,
    np_block_rows,
    np_digits,
    np_dots,
    np_indices,
    np_paired_dots,
    np_ranks,
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


@dataclass(frozen=True)
class Certificate:
    """Per projective class: a witness set of rank k-1 inside H(y, D).

    mode "indices" stores 1-based positions into the serialized D order;
    mode "vectors" stores the witness d-vectors by value.  Equal entries may
    be one shared tuple object: read_certificate and witness_certificate
    give each distinct witness vector one tuple.
    """

    q: int
    n: int
    k: int
    mode: str
    classes: tuple[tuple[Vec, tuple], ...]


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


def class_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def projective_classes(field: FieldSpec, k: int) -> Iterator[Vec]:
    """Canonical representatives in ascending canonical-index order."""
    q = field.q
    # Representatives are exactly the vectors whose first nonzero entry is 1:
    # (0...0, 1, tail).  More leading zeros means a smaller canonical index.
    for lead in range(k - 1, -1, -1):
        tail = k - lead - 1
        for idx in range(q**tail):
            yield (0,) * lead + (1,) + index_to_vector(q, tail, idx)


def _class_array(q: int, k: int) -> np.ndarray:
    """All P representatives as a P x k array, in projective_classes order.

    (0..0, 1, tail) with t tail digits has index q^t + idx(tail), so the
    classes in projective_classes order are the ranges [q^t, 2 q^t).
    """
    return np_digits(q, k, np.concatenate([np.arange(q**t, 2 * q**t) for t in range(k)]))


def _class_codewords(D: DefiningSet) -> np.ndarray:
    """Codewords of the _class_array rows as a P x n matrix of the narrowest exact type.

    Built one message coordinate c at a time, right to left.  Tail holds
    the codewords of the q^t messages (0..0, tail) with t tail digits, in
    canonical order.  The next Tail is a col_c + Tail for every a in F_q,
    a most significant, and its a = 1 block is the classes (0..0, 1, tail)
    with their 1 at c; at c = 0 only that block is built.  Each step is one
    take of the flat add table at q x + y.
    """
    field, n = D.field, D.n
    q = field.q
    dtype = _element_dtype(q)
    add = field.np_add.astype(dtype)
    # scaled[c, a] = q (a col_c), in q x 1 x n blocks: the x of q x + y
    cols = D.as_array.T[:, None, None]
    scaled = field.np_mul.take(np.arange(0, q * q, q)[:, None, None] + cols) * q
    out = np.empty((class_count(q, D.k), n), dtype=dtype)
    tail = np.zeros((1, n), dtype=dtype)
    start = 0
    for c in range(D.k - 1, 0, -1):
        t = len(tail)
        tail = add.take(scaled[c] + tail).reshape(-1, n)
        out[start:start + t] = tail[t:2 * t]  # a = 1: the classes with their 1 at c
        start += t
    out[start:] = add.take(scaled[0, 1] + tail)
    return out


def _distinct_codeword_reps(D: DefiningSet) -> tuple[np.ndarray, np.ndarray]:
    """(Y, words): class reps with distinct nonzero codewords, in canonical order.

    Collapsing to distinct codewords keeps the definition and dhz checks
    correct when rank(D) < k (several messages can share one codeword).
    """
    Y = _class_array(D.field.q, D.k)
    words = _class_codewords(D)
    _, first = np.unique(_row_keys(words, D.field.q), return_index=True)  # first of each codeword
    keep = np.sort(first)
    keep = keep[words[keep].any(axis=1)]
    return Y[keep], words[keep]


def _check_oracle_scale(D: DefiningSet, max_classes: int, max_n: int) -> None:
    P = class_count(D.field.q, D.k)
    if P > max_classes or D.n > max_n:
        raise GuardError(
            f"oracle-scale guard: {P} classes x n = {D.n} exceeds "
            f"{max_classes} x {max_n}"
        )


# -- criteria --------------------------------------------------------------------

def is_minimal_definition(
    D: DefiningSet,
    max_classes: int = DEF_MAX_CLASSES,
    max_n: int = DEF_MAX_N,
) -> MinimalityReport:
    """Brute force over ordered pairs of projective classes.

    c_j is covered by c_i when |supp c_j minus supp c_i| = wt_j - S_i . S_j
    is 0, S being the 0/1 support matrix.  For a block of rows i the counts
    against every j come from one product S_i S^T, exact in float32 while
    n < 2^24; when the block is all of S (up to 2,048 classes at the default
    DOT_BLOCK) NumPy computes the symmetric S S^T with BLAS syrk, at half
    the flops.  The first zero off the diagonal in row-major order is the
    first violating pair (i, j).
    """
    _check_oracle_scale(D, max_classes, max_n)
    Y, words = _distinct_codeword_reps(D)
    S = (words != 0).astype(np.float32 if D.n < 2**24 else np.float64)
    wt = S.sum(axis=1)
    R = len(S)
    step = max(1, 64 * linalg.DOT_BLOCK // max(1, R))  # tall blocks keep BLAS busy
    for start in range(0, R, step):
        covered = S[start:start + step] @ S.T == wt
        at = np.arange(len(covered))
        covered[at, start + at] = False  # c_i covers itself
        hits = np.flatnonzero(covered)
        if hits.size:
            i, j = divmod(int(hits[0]), R)
            a, b = Y[[start + i, j]].tolist()
            return MinimalityReport(
                "definition", NOT_MINIMAL, CoverViolation(a=tuple(a), b=tuple(b))
            )
    return MinimalityReport("definition", MINIMAL)


def ab_condition(D: DefiningSet) -> MinimalityReport:
    """Sufficient condition w_min/w_max > (q-1)/q, by integer cross-products."""
    we = weight_distribution(D)
    q = we.q
    if q * we.w_min > (q - 1) * we.w_max:
        return MinimalityReport("ab", MINIMAL, witness=(we.w_min, we.w_max))
    return MinimalityReport("ab", INCONCLUSIVE, witness=(we.w_min, we.w_max))


def dhz_criterion(
    D: DefiningSet,
    max_classes: int = DEF_MAX_CLASSES,
    max_n: int = DEF_MAX_N,
) -> MinimalityReport:
    """Weight-identity test over ordered pairs of independent codewords.

    Minimal iff sum_{c != 0} wt(a + c b) != (q-1) wt(a) - wt(b) for every
    pair of linearly independent codewords; projective representatives
    suffice on both sides of the pair.  a + c b is the codeword of the
    message y_a + c y_b, so each weight is n - N at that message, N being
    D.hyperplane_counts: a pair costs (q-1) k table lookups, not n.
    """
    _check_oracle_scale(D, max_classes, max_n)
    Y, _ = _distinct_codeword_reps(D)
    field, n, N = D.field, D.n, D.hyperplane_counts
    q, R = field.q, len(Y)
    cY = field.np_mul.take(np.arange(1, q)[:, None, None] * q + Y)  # cY[c-1] = c Y
    wt = n - N.take(np_indices(q, Y))
    # a block of rows i gathers N[y_i + c y_j] for every c and j in one take
    step = max(1, linalg.DOT_BLOCK // max(1, cY.size))
    for start in range(0, R, step):
        Yi = Y[start:start + step, None, None, :]
        msgs = field.np_add.take(Yi * q + cY)
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


def _hyperplane_members(D: DefiningSet, y: Sequence[int]) -> list[int]:
    """0-based indices of D members orthogonal to y, in scan order."""
    order = _scan_order(D.n)
    dots = np_dots(D.field, [y], D.digit_columns)[0]
    return order[dots[order] == 0].tolist()


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
    rows = [D.vectors[i - 1] for i in chosen]
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

    def minimal_with(chosen: list[int]) -> MinimalityReport:
        witness = RankWitness(
            y=normalize_class(field, y),
            indices=tuple(chosen),
            basis=SubspaceBasis(tuple(D.vectors[j - 1] for j in chosen), k),
        )
        return MinimalityReport("rank", MINIMAL, witness)

    if k == 1:
        return minimal_with([])
    basis = EchelonBasis(field, k)
    chosen: list[int] = []
    for i in _hyperplane_members(D, y):
        if basis.add(D.vectors[i]):
            chosen.append(i + 1)
            if basis.rank == k - 1:
                return minimal_with(chosen)
    return _rank_failure(D, y, chosen)


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
    Y = _class_array(q, k)
    order = _scan_order(n)
    # D's rows and np_dots columns in scan order, and the 1-based D index of
    # each scan position, one shared int object each
    rows, cols = D.as_array[order], D.digit_columns[:, order]
    labels = (order + 1).astype(object)
    step = np_block_rows(field, k * k)
    entries: list[tuple[Vec, tuple]] = []
    for start in range(0, P, step):
        block = list(map(tuple, Y[start:start + step].tolist()))
        picked, count = _greedy_block(field, Y[start:start + step], rows, cols)
        chosen = labels[picked].tolist()
        for y, kept, c in zip(block, chosen, count.tolist()):
            if c < k - 1:
                return _rank_failure(D, y, kept[:c])
        entries.extend(zip(block, map(tuple, chosen)))
    cert = Certificate(q=q, n=n, k=k, mode="indices", classes=tuple(entries))
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
    class's k-1 vectors must have rank exactly k-1.  Entries are integers:
    a bool anywhere rejects the certificate.  The representatives and
    entries are converted to arrays once per certificate, each distinct
    object once; classes are then checked in blocks of about DOT_BLOCK / k^2
    with the flat field tables.
    """
    field, k, n = D.field, D.k, D.n
    q = field.q
    if (cert.q, cert.n, cert.k) != (q, n, k):
        return False
    if cert.mode not in ("indices", "vectors"):
        raise CertificateFormatError(f"unknown certificate mode {cert.mode!r}")
    P = class_count(q, k)
    if len(cert.classes) != P or any(len(items) != k - 1 for _, items in cert.classes):
        return False
    step = np_block_rows(field, k * k)
    Y = _int_array([rep for rep, _ in cert.classes], (k,))
    if Y is None or ((Y < 0) | (Y >= q)).any():
        return False
    if (Y[np.arange(P), (Y != 0).argmax(axis=1)] != 1).any():
        return False  # a first nonzero entry other than 1
    if k > 1:
        at = _witness_positions(D, cert)
        if at is None:
            return False
        for start in range(0, P, step):
            Yb, W = Y[start:start + step], D.as_array[at[start:start + step]]
            if np_paired_dots(field, Yb, W).any() or (np_ranks(field, W) != k - 1).any():
                return False
    # P distinct representatives are every projective class once
    rep_keys = np.sort(_row_keys(Y, q))
    return bool((rep_keys[1:] != rep_keys[:-1]).all())


_BOOL_TYPES = frozenset((bool, np.bool_))


def _int_array(cells: list, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """cells as an integer array of shape (len(cells),) + shape, or None if they are not one.

    A bool is no integer entry: one bool anywhere makes it None, even
    beside integers, where np.array would read it as 0 or 1.
    """
    try:
        A = np.array(cells)
    except ValueError:  # ragged
        return None
    if A.dtype.kind not in "iu" or A.shape[1:] != shape:
        return None
    if not _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(cells) if shape else cells)):
        return None
    return A


def _distinct(cells: list) -> tuple[list, np.ndarray]:
    """(objects, codes): each distinct object of cells once, and cells[i] is objects[codes[i]].

    Objects are told apart by identity: a certificate that shares one tuple
    per distinct vector then converts each vector once, and 1, True and 1.0
    stay apart.  cells keeps every object alive, so no id is reused.
    """
    ids = np.fromiter(map(id, cells), dtype=np.uint64, count=len(cells))
    _, first, codes = np.unique(ids, return_index=True, return_inverse=True)
    return [cells[i] for i in first.tolist()], codes


def _element_dtype(q: int) -> np.dtype:
    """The narrowest unsigned type that holds every element of F_q: one byte for q <= 256."""
    return np.min_scalar_type(q - 1)


def _row_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """Each row of F_q elements as one byte string, for exact lookup."""
    rows = np.ascontiguousarray(rows, dtype=_element_dtype(q))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _witness_positions(D: DefiningSet, cert: Certificate) -> Optional[np.ndarray]:
    """The 0-based D positions of every class's k-1 entries, a P x (k-1) array.

    None when an entry is no member of D: an index outside 1..n, or a vector
    with a non-field entry or absent from D.
    """
    k, n, q = D.k, D.n, D.field.q
    cells = [a for _, items in cert.classes for a in items]
    if cert.mode == "indices":
        A = _int_array(cells, ())
        if A is None or ((A < 1) | (A > n)).any():
            return None
        return (A - 1).reshape(-1, k - 1)
    vectors, codes = _distinct(cells)
    U = _int_array(vectors, (k,))
    if U is None or ((U < 0) | (U >= q)).any():
        return None
    keys = _row_keys(D.as_array, q)
    order = np.argsort(keys)
    members, wanted = keys[order], _row_keys(U, q)
    at = np.searchsorted(members, wanted)
    if (at == members.size).any() or (members[at] != wanted).any():
        return None
    return order[at][codes].reshape(-1, k - 1)


def write_certificate(out: Union[str, TextIO], cert: Certificate) -> None:
    classes = cert.classes
    if cert.mode == "indices":
        right = [" ".join(map(str, items)) for _, items in classes]
    else:
        # the text of each distinct vector object, built once
        vectors, codes = _distinct([v for _, items in classes for v in items])
        texts = [" ".join(map(str, v)) for v in vectors]
        parts = map(texts.__getitem__, codes.tolist())
        # filter(None, ...) drops empty vectors, as the flat join of their entries did
        right = [" ".join(filter(None, islice(parts, len(items)))) for _, items in classes]
    head = f"{cert.q} {cert.n} {cert.k} {len(classes)} {cert.mode}\n"
    text = head + "".join(
        [" ".join(map(str, rep)) + " | " + r + "\n" for (rep, _), r in zip(classes, right)]
    )
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)


def read_certificate(src: Union[str, TextIO]) -> Certificate:
    """Parse a certificate file; each distinct witness vector is one shared tuple."""
    if isinstance(src, str):
        with open(src, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = src.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CertificateFormatError("empty certificate file")
    head = lines[0].split()
    if len(head) != 5:
        raise CertificateFormatError(f"bad certificate header {lines[0]!r}")
    try:
        q, n, k, count = (int(t) for t in head[:4])
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None
    if q < 2 or n < 1 or k < 1 or count < 0:
        raise CertificateFormatError(
            f"certificate header needs q >= 2, n >= 1, k >= 1 and count >= 0: {lines[0]!r}"
        )
    mode = head[4]
    if mode not in ("indices", "vectors"):
        raise CertificateFormatError(f"unknown certificate mode {mode!r}")
    if len(lines) - 1 != count:
        raise CertificateFormatError(
            f"expected {count} class lines, found {len(lines) - 1}"
        )
    ints = _IntReader().__getitem__
    vectors = _VectorReader(ints)
    classes = []
    for ln in lines[1:]:
        if "|" not in ln:
            raise CertificateFormatError(f"class line without separator: {ln!r}")
        left, right = ln.split("|", 1)
        tokens = right.split()
        whole = len(tokens) - len(tokens) % k  # tokens of whole vectors
        rep = tuple(map(ints, left.split()))
        if mode == "indices":
            items: tuple = tuple(map(ints, tokens))
        else:
            items = tuple(map(vectors.__getitem__, zip(*[iter(tokens)] * k)))
            list(map(ints, tokens[whole:]))  # the tokens after the last whole vector
        if len(rep) != k:
            raise CertificateFormatError(f"representative {rep} has length != k")
        if mode == "vectors" and whole != len(tokens):
            raise CertificateFormatError("vector payload not a multiple of k")
        classes.append((rep, items))
    return Certificate(q=q, n=n, k=k, mode=mode, classes=tuple(classes))


class _IntReader(dict):
    """token -> int(token), each distinct token converted once."""

    def __missing__(self, token: str) -> int:
        try:
            value = self[token] = int(token)
        except ValueError as exc:
            raise CertificateFormatError(str(exc)) from None
        return value


class _VectorReader(dict):
    """k tokens -> their vector, read once; each distinct vector is one shared tuple."""

    def __init__(self, ints: Callable[[str], int]) -> None:
        super().__init__()
        self.ints = ints
        self.vectors: dict[Vec, Vec] = {}

    def __missing__(self, tokens: tuple[str, ...]) -> Vec:
        vector = tuple(map(self.ints, tokens))
        # equal vectors written with different tokens ("+1 0", "1 0") share one tuple
        vector = self[tokens] = self.vectors.setdefault(vector, vector)
        return vector
