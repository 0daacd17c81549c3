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

The rank criterion runs one greedy scan per block of classes: D is visited
in a fixed stride order, each candidate is reduced against the echelon rows
of every class it is orthogonal to, and a class retires at rank k-1.  It
emits a certificate whose per-class entries are indices into the serialized
D order, so verification is exact membership; the verifier checks blocks of
classes with batched elimination.  A failing class is reported with the rank
its scan reached and a message whose codeword it covers.  Every field runs
the same numpy kernels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .code import DefiningSet, defining_set, linearity_check, weight_distribution
from .errors import BudgetExceededError, CertificateFormatError, GuardError
from .families import FunctionSpec
from .gf import FieldSpec
from .linalg import (
    EchelonBasis,
    SubspaceBasis,
    Vec,
    index_to_vector,
    kernel_basis,
    np_block_rows,
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


def _codeword_matrix(D: DefiningSet, reps: list[Vec]) -> np.ndarray:
    """Codewords of all reps as an R x n int matrix."""
    Y = np.asarray(reps, dtype=np.int64)
    out = np.empty((len(reps), D.n), dtype=np.int64)
    step = np_block_rows(D.field, D.n)
    for start in range(0, len(reps), step):
        out[start:start + step] = np_dots(D.field, Y[start:start + step], D.digit_columns)
    return out


def _distinct_codeword_reps(D: DefiningSet) -> tuple[list[Vec], np.ndarray]:
    """Class reps with distinct nonzero codewords, in canonical order.

    Collapsing to distinct codewords keeps the definition and dhz checks
    correct when rank(D) < k (several messages can share one codeword).
    """
    reps = list(projective_classes(D.field, D.k))
    words = _codeword_matrix(D, reps)
    keep: list[int] = []
    seen: set[bytes] = set()
    for i, row in enumerate(words):
        key = row.tobytes()
        if not row.any() or key in seen:
            continue
        seen.add(key)
        keep.append(i)
    return [reps[i] for i in keep], words[keep]


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
    """Brute force over ordered pairs of projective classes."""
    _check_oracle_scale(D, max_classes, max_n)
    reps, words = _distinct_codeword_reps(D)
    supp = words != 0
    for i in range(len(reps)):
        covered = ~((supp & ~supp[i]).any(axis=1))
        covered[i] = False
        hits = np.flatnonzero(covered)
        if hits.size:
            j = int(hits[0])
            return MinimalityReport(
                "definition", NOT_MINIMAL, CoverViolation(a=reps[i], b=reps[j])
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
    reps, _ = _distinct_codeword_reps(D)
    field, n, N = D.field, D.n, D.hyperplane_counts
    q = field.q
    Y = np.asarray(reps, dtype=np.int64).reshape(len(reps), D.k)
    cY = field.np_mul.take(np.arange(1, q)[:, None, None] * q + Y)  # cY[c-1] = c Y
    wt = n - N.take(np_indices(q, Y))
    for i in range(len(reps)):
        msgs = field.np_add.take(Y[i] * q + cY)
        lhs = (q - 1) * n - N.take(np_indices(q, msgs)).sum(axis=0)
        rhs = (q - 1) * wt[i] - wt
        bad = lhs == rhs
        bad[i] = False
        hits = np.flatnonzero(bad)
        if hits.size:
            j = int(hits[0])
            return MinimalityReport(
                "dhz", NOT_MINIMAL,
                DhzViolation(a=reps[i], b=reps[j], value=int(lhs[j])),
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
    reps = list(projective_classes(field, k))
    Y = np.asarray(reps, dtype=np.int64)
    order = _scan_order(n)
    # the 1-based D index of each scan position, one shared int object each
    labels = (order + 1).astype(object)
    step = np_block_rows(field, k * k)
    entries: list[tuple[Vec, tuple]] = []
    for start in range(0, P, step):
        block = reps[start:start + step]
        picked, count = _greedy_block(D, Y[start:start + step], order)
        chosen = labels[picked].tolist()
        for y, kept, c in zip(block, chosen, count.tolist()):
            if c < k - 1:
                return _rank_failure(D, y, kept[:c])
        entries.extend(zip(block, map(tuple, chosen)))
    cert = Certificate(q=q, n=n, k=k, mode="indices", classes=tuple(entries))
    return MinimalityReport("rank", MINIMAL, cert)


def _greedy_block(
    D: DefiningSet, Y: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy scans of D cap H(y) for every class y of a block, run as one pass.

    D is visited in scan order.  At each candidate the classes it is
    orthogonal to reduce it against the rows they kept, with the flat field
    tables, and keep it when a remainder is left; a class retires at k-1
    rows.  This is the choice rank_criterion_codeword makes one class at a
    time.  The dots of the classes still scanning come from np_dots over a
    window of candidates at a time.

    Returns (picked, count): picked[b, :count[b]] are the scan positions
    class b kept.  count[b] < k-1 means its scan exhausted D cap H(y), whose
    rank is then count[b].
    """
    field, rows, cols = D.field, D.as_array, D.digit_columns
    q, sub, mul, inv = field.q, field.np_sub, field.np_mul, field.np_inv
    B, k = Y.shape
    n = D.n
    basis = np.zeros((k - 1, B, k), dtype=np.int64)  # kept rows scaled to a leading 1
    pivots = np.zeros((k - 1, B), dtype=np.int64)
    picked = np.zeros((B, k - 1), dtype=np.int64)
    count = np.zeros(B, dtype=np.int64)
    live = np.flatnonzero(count < k - 1)  # the classes still scanning
    t = 0
    while live.size and t < n:
        stop = min(n, t + np_block_rows(field, live.size))
        hits = np_dots(field, Y[live], cols[:, order[t:stop]]) == 0
        active = np.ones(live.size, dtype=bool)
        for pos in np.flatnonzero(hits.any(axis=0)) + t:
            sel = np.flatnonzero(hits[:, pos - t] & active)
            if not sel.size:
                continue
            h = live[sel]
            w = np.broadcast_to(rows[order[pos]], (h.size, k))
            at = np.arange(h.size)
            for i in range(int(count[h].max())):
                # rows past a class's count are zero, so this leaves it as is
                c = w[at, pivots[i, h]]
                w = sub.take(w * q + mul.take(c[:, None] * q + basis[i, h]))
            new = np.flatnonzero(w.any(axis=1))
            if not new.size:
                continue
            w, h, sel = w[new], h[new], sel[new]
            piv = (w != 0).argmax(axis=1)
            lead = w[np.arange(new.size), piv]
            slot = count[h]
            basis[slot, h] = mul.take(inv.take(lead)[:, None] * q + w)
            pivots[slot, h] = piv
            picked[h, slot] = pos
            count[h] = slot + 1
            active[sel[slot + 1 == k - 1]] = False
            if not active.any():
                break
        live = live[active]
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
    class's k-1 vectors must have rank exactly k-1.  The representatives and
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
    Y = _int_array([rep for rep, _ in cert.classes], (k,), step)
    if Y is None or ((Y < 0) | (Y >= q)).any():
        return False
    if (Y[np.arange(P), (Y != 0).argmax(axis=1)] != 1).any():
        return False  # a first nonzero entry other than 1
    if k > 1:
        at = _witness_positions(D, cert, step)
        if at is None:
            return False
        for start in range(0, P, step):
            Yb, W = Y[start:start + step], D.as_array[at[start:start + step]]
            if np_paired_dots(field, Yb, W).any() or (np_ranks(field, W) != k - 1).any():
                return False
    # P distinct representatives are every projective class once
    rep_keys = np.sort(_row_keys(Y))
    return bool((rep_keys[1:] != rep_keys[:-1]).all())


_BOOL_TYPES = frozenset((bool, np.bool_))


def _int_array(
    cells: list, shape: tuple[int, ...], block: int, codes: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """cells as an integer array of shape (len(cells),) + shape, or None if they are not one.

    The verdict is the one np.array gives on every run of `block` cells of
    the certificate, those being cells[codes] when codes is given: bools
    beside integers count as 0 and 1, but a run of bools alone is no
    integer array.
    """
    try:
        A = np.array(cells)
    except ValueError:  # ragged
        return None
    if A.dtype.kind not in "iu" or A.shape[1:] != shape:
        return None
    for s in range(0, len(cells) if codes is None else len(codes), block):
        run = cells[s:s + block] if codes is None else map(cells.__getitem__, codes[s:s + block])
        # all() stops at the first cell that is not all bools, most often the first
        if all(_BOOL_TYPES.issuperset(map(type, c if shape else (c,))) for c in run):
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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of field elements as one k-byte string (q <= 256), for exact lookup."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _witness_positions(D: DefiningSet, cert: Certificate, step: int) -> Optional[np.ndarray]:
    """The 0-based D positions of every class's k-1 entries, a P x (k-1) array.

    None when an entry is no member of D: an index outside 1..n, or a vector
    with a non-field entry or absent from D.
    """
    k, n, q = D.k, D.n, D.field.q
    cells = [a for _, items in cert.classes for a in items]
    if cert.mode == "indices":
        A = _int_array(cells, (), step * (k - 1))
        if A is None or ((A < 1) | (A > n)).any():
            return None
        return (A - 1).reshape(-1, k - 1)
    vectors, codes = _distinct(cells)
    U = _int_array(vectors, (k,), step * (k - 1), codes)
    if U is None or ((U < 0) | (U >= q)).any():
        return None
    keys = _row_keys(D.as_array)
    order = np.argsort(keys)
    members, wanted = keys[order], _row_keys(U)
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
