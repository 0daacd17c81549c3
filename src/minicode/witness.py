"""Constructive witness bases mirroring the construction-theorem proofs.

For a nonzero message y = (u, v) of C_f, a minimality witness is a set of m
vectors alpha_1..alpha_m in F_q^m whose lifted d-vectors (f(alpha), alpha)
are m linearly independent members of D_f orthogonal to y.  The three case
shapes:

  case 1 (u != 0, v = 0):  a basis of F_q^m with f(alpha_i) = 0,
  case 2 (u != 0, v != 0): a basis with f(alpha_i) = omega.alpha_i,
                           omega = -v/u,
  case 3 (u = 0,  v != 0): m nonzero vectors in the hyperplane v^perp with
                           independent lifts.

The builder validates its own output (inner products and rank) before
returning; a post-condition failure is reported as a construction bug,
never silently repaired.

One builder makes every theorem witness.  witness_certificate runs it on
every class, in blocks of np_check_rows(k) = 4 DOT_BLOCK / k^2 classes
(the block size verify_certificate uses), and theorem_witness runs it on
a block of one: the representative of its message's class, as the
witness depends only on the class.  Case 1 has one set of vectors per
theorem, built as an array from its closed form.  The other classes of a
block are grouped by case and by i0, the first nonzero index of omega
(case 2) or v (case 3).  Each of the A1, A2, B, D1 and D2 proofs builds
its vectors from the "low" vectors e_i - (w_i/w_i0) e_i0 and one anchor,
so a group is a few flat-table operations over a (classes x m x m)
array.  The D2 repair of an offending low vector is done with masks.
The Maiorana-McFarland proofs (C1, C2) group by their sub-branches
instead (minicode.mm_witness).  f is read through a function of an array
of vectors: the certificate looks f up in f.table, and theorem_witness
passes f.at, which evaluates f only at the vectors the proof reads, so a
single witness never tabulates f.  A block's alphas and lifts are built in
the field's element type (one byte per coordinate up to q = 256), the type
the certificate stores.  One post-condition checks a block on the
lifts packed into chunk rows once: every lift (f(alpha), alpha) is
orthogonal to its class (f(alpha) = omega.alpha in cases 1-2,
v.alpha = 0 in case 3), by np_orthogonal, and np_chunk_ranks gives the
lifts rank m, which on orthogonal lifts of cases 1-2 is the rank of the
alphas.  A failure raises ConstructionError naming the first failing
class; verify_certificate remains the independent check of a
certificate.  The per-class constructions, written as the proofs read, are a test-only
oracle (tests/witness_oracle.py) that the tests compare with this
builder; it builds on the lemma-level bases and the scalar elimination
of tests/scalar_reference.py.

One wrinkle: the natural Maiorana-McFarland case-3 argument closes the
basis with the zero vector, whose lift is not a code position.  Here the
basis is completed with a genuine nonzero member instead: 2*alpha_1 when
q > 2 (the constant part of f pushes its lift out of the span), and the
first canonical hyperplane vector that extends the lift rank when q = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import construction_bug
from .families import (
    FunctionSpec,
    MonomialSum,
    TheoremId,
    monomial_support,
    validate_hypotheses,
)
from .gf import FieldSpec
from .linalg import (
    Vec,
    np_check_rows,
    np_chunk_ranks,
    np_chunk_rows,
    np_class_reps,
    np_indices,
    np_orthogonal,
)
from .minimality import Certificate, CertificateClasses, normalize_class
from .mm_witness import Values, case1_alphas, case2_alphas, case3_alphas


@dataclass(frozen=True)
class WitnessBasis:
    """Linearly independent vectors with a kind-specific side condition."""

    kind: tuple
    vectors: tuple[Vec, ...]


# -- theorem witnesses ----------------------------------------------------------

def _require_hypotheses(thm: TheoremId, f: FunctionSpec) -> None:
    """Raise ValueError, naming the first failing condition, unless thm's hypotheses hold for f."""
    result = validate_hypotheses(f, thm)
    if not result:
        raise ValueError(f"hypotheses of {thm.value} fail: {result.condition} at {result.witness}")


def theorem_witness(thm: TheoremId, f: FunctionSpec, u: int, v: Sequence[int]) -> WitnessBasis:
    """The vectors the matching construction proof builds for message (u, v).

    This is the batched builder on a block of one.  The alphas depend only
    on the class of (u, v), so they are built for its representative, with
    f.at evaluating f at the vectors the proof reads: f is not tabulated.
    """
    field, m = f.field, f.m
    field.check_scalar(u)
    if len(v) != m:
        raise ValueError(f"v has length {len(v)}, expected m = {m}")
    v = tuple(v)
    for a in v:  # every entry is checked before a table is read
        field.check_scalar(a)
    if u == 0 and not any(v):
        raise ValueError("(u, v) must be nonzero")
    _require_hypotheses(thm, f)
    Y = np.array([normalize_class(field, (u,) + v)], dtype=np.int64)
    lifts = _checked_lifts(thm, f, f.at, Y)
    return WitnessBasis(("theorem_case", thm, u, v), tuple(map(tuple, lifts[0, :, 1:].tolist())))


def _case1_vectors(thm: TheoremId, f: FunctionSpec) -> np.ndarray:
    """The m x m case-1 witness vectors (u != 0, v = 0), shared by every such class.

    A1 and A2 take full-weight rows, rank-one perturbations of the identity
    whose determinant is nonzero for (q, m): over F_2 the complement of the
    identity (m even) or of the identity and the last column, closed by the
    all-ones row (m odd); over F_3 with m = 2 mod 3 the identity with -1
    off the diagonal and the first row all -1; otherwise b - 1 on the
    diagonal and -1 off it, b the first element other than 0, 1 and m.
    B, D1 and D2 take the identity, C1 and C2 mm_witness.case1_alphas.
    """
    field, m = f.field, f.m
    if thm in (TheoremId.C1, TheoremId.C2):
        return case1_alphas(f)
    eye = np.eye(m, dtype=np.int64)
    if thm not in (TheoremId.A1, TheoremId.A2):
        return eye
    q, neg1 = field.q, field.neg(1)
    if q == 2:
        A = 1 - eye
        if m % 2:
            A[:, m - 1] = 0
            A[m - 1] = 1
        return A
    if q == 3 and m % 3 == 2:
        A = np.where(eye == 1, 1, neg1)
        A[0, 0] = neg1
        return A
    b = next(a for a in field.elements() if a not in (0, 1, m % field.p))
    return np.where(eye == 1, field.sub(b, 1), neg1)


# -- certificates ----------------------------------------------------------------

def witness_certificate(thm: TheoremId, f: FunctionSpec) -> Certificate:
    """A value-mode certificate covering every projective class of C_f.

    Requires the theorem hypotheses to hold; each class's entry is the
    lifted witness basis that theorem_witness builds for it.  The batched
    builder (_batched_arrays) fills the certificate's two arrays directly.
    """
    _require_hypotheses(thm, f)
    field, m = f.field, f.m
    return Certificate(q=field.q, n=field.q**m - 1, k=m + 1, mode="vectors",
                       classes=CertificateClasses(*_batched_arrays(thm, f)))


# -- batched builder --------------------------------------------------------------

def _batched_arrays(thm: TheoremId, f: FunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    """(reps, lifts): every class in canonical order and its m lifted witnesses.

    reps is P x (m+1) and lifts P x m x (m+1), both in the element type;
    f is read from f.table by the canonical indices of the vectors, and each block's lifts are checked before they are stored.
    """
    field, m = f.field, f.m
    q, k = field.q, m + 1
    table = f.table

    def fvals(X: np.ndarray) -> np.ndarray:
        return table.take(np_indices(q, X))

    reps = np_class_reps(q, k)
    Y = reps.astype(np.int64)
    out = np.empty((len(reps), m, k), dtype=field.element_dtype)
    step = np_check_rows(k)
    for start in range(0, len(reps), step):
        out[start:start + step] = _checked_lifts(thm, f, fvals, Y[start:start + step])
    return reps, out


def _checked_lifts(thm: TheoremId, f: FunctionSpec, fvals: Values, Y: np.ndarray) -> np.ndarray:
    """The B x m x (m+1) lifts (f(alpha), alpha) of the B classes Y in the element type, checked."""
    alphas = _block_alphas(thm, f, fvals, Y)
    lifts = np.concatenate([fvals(alphas)[:, :, None], alphas], axis=2, dtype=alphas.dtype)
    _check_block(f.field, Y, lifts)
    return lifts


def _check_block(field: FieldSpec, Y: np.ndarray, lifts: np.ndarray) -> None:
    """The post-condition of a block; names the first class that fails it.

    Each lift (f(alpha), alpha) must be orthogonal to its class y = (u, v):
    u f(alpha) + v.alpha = 0 is f(alpha) = omega.alpha in cases 1 and 2
    and v.alpha = 0 in case 3.  The m alphas must have rank m in cases 1
    and 2, the m lifts in case 3.  One rank of the lifts checks both: on
    orthogonal lifts of cases 1 and 2, f(alpha) = omega.alpha is linear in
    alpha, so the lifts have the rank of the alphas, and a class whose
    lifts are not orthogonal fails either way.  The lifts are packed into
    chunk rows once, for both kernels.
    """
    m = lifts.shape[1]
    L = np_chunk_rows(field, lifts)
    zero = np_orthogonal(field, np_chunk_rows(field, Y)[:, None], L).all(axis=1)
    bad = ~zero | (np_chunk_ranks(field, L) != m)
    if bad.any():
        i = int(bad.argmax())
        why = "rank below m" if zero[i] else "a lift is not orthogonal to it"
        raise construction_bug(f"class {tuple(Y[i].tolist())} fails the post-condition: {why}")


def _block_alphas(thm: TheoremId, f: FunctionSpec, fvals: Values, Y: np.ndarray) -> np.ndarray:
    """The B x m x m witness vectors of the B classes Y in the element type, f read through fvals.

    Classes are grouped by case and by i0, the first nonzero index of
    w = omega (case 2) or w = v (case 3); each group is built at once.
    C1 and C2 group by case and by the proof's sub-branch instead.
    """
    field, m = f.field, f.m
    u, v = Y[:, 0], Y[:, 1:]
    A = np.zeros((len(Y), m, m), dtype=field.element_dtype)
    case1 = (u != 0) & ~v.any(axis=1)
    if case1.any():
        A[case1] = _case1_vectors(thm, f)
    omega = field.vmul(field.vneg(field.np_inv.take(u))[:, None], v)
    if thm in (TheoremId.C1, TheoremId.C2):
        rows = np.flatnonzero((u != 0) & ~case1)
        if len(rows):
            A[rows] = case2_alphas(thm, f, omega[rows])
        rows = np.flatnonzero(u == 0)
        if len(rows):
            A[rows] = case3_alphas(f, fvals, v[rows])
        return A
    for case, rows, w in ((2, (u != 0) & ~case1, omega), (3, u == 0, v)):
        rows = np.flatnonzero(rows)
        w = w[rows]
        i0s = (w != 0).argmax(axis=1)
        for i0 in np.unique(i0s).tolist():
            at = i0s == i0
            A[rows[at]] = _group_alphas(thm, f, fvals, case, i0, w[at])
    return A


def _combine(field: FieldSpec, coef: np.ndarray, i0: int, lam: np.ndarray,
             extra=0) -> np.ndarray:
    """Rows sum_{i != i0} lam_i lows[i] + extra e_i0 for lows[i] = e_i + coef_i e_i0."""
    out = lam.copy()
    acc = np.broadcast_to(np.asarray(extra, dtype=np.int64), lam.shape[:1])
    for i in range(lam.shape[1]):
        if i != i0:
            acc = field.vadd(acc, field.vmul(lam[:, i], coef[:, i]))
    out[:, i0] = acc
    return out


def _group_alphas(thm: TheoremId, f: FunctionSpec, fvals: Values, case: int,
                  i0: int, w: np.ndarray) -> np.ndarray:
    """Witness vectors of the case-2 or case-3 classes whose w starts at i0.

    Row i of lows is e_i - (w_i/w_i0) e_i0, i.e. the identity with column
    i0 replaced by coef = -w/w_i0; row i0 is a placeholder that each
    theorem overwrites.
    """
    field, m = f.field, f.m
    G = len(w)
    inv0 = field.np_inv.take(w[:, i0])
    coef = field.vneg(field.vmul(inv0[:, None], w))
    A = np.broadcast_to(np.eye(m, dtype=np.int64), (G, m, m)).copy()
    A[:, :, i0] = coef
    A[:, i0, i0] = 0

    if case == 2 and thm in (TheoremId.A1, TheoremId.A2):
        # the unit-inner basis: e_i + (1 - w_i)/w_i0 e_i0, and e_i0/w_i0 at i0
        A[:, :, i0] = field.vmul(inv0[:, None], field.vsub(1, w))
        A[:, i0, i0] = inv0
        if thm is TheoremId.A1:
            A = field.vmul(fvals(A)[:, :, None], A)
        return A
    if thm is TheoremId.A1:
        # the low vectors, a basis of the hyperplane, closed by twice the first
        order = [i for i in range(m) if i != i0]
        A = A[:, order + order[:1]]
        A[:, -1] = field.vmul(2, A[:, -1])
        return A

    extra = 0
    if thm is TheoremId.A2:
        skip = {i0, next(i for i in range(m) if i != i0)} if m % 2 else {i0}
        S = [i for i in range(m) if i not in skip]
    elif thm is TheoremId.B:
        S = [i for i in range(m) if i != i0]
        if case == 2:
            extra = inv0
    else:
        ms = f.variant
        assert isinstance(ms, MonomialSum)
        supports = [monomial_support(exps) for _, exps in ms.terms]
        j1 = next(j for j, s in enumerate(supports) if (i0 + 1) not in s)
        S = sorted(i - 1 for i in supports[j1])
        if case == 2:
            extra = field.vmul(ms.terms[j1][0], inv0)
    lam = np.zeros((G, m), dtype=np.int64)
    lam[:, S] = 1
    anchor = _combine(field, coef, i0, lam, extra)
    if thm is TheoremId.B and case == 2:
        anchor = field.vmul(fvals(anchor)[:, None], anchor)
    A[:, i0] = anchor
    if thm is TheoremId.D2 and case == 2:
        _repair_d2(f, fvals(A), i0, j1, S, w, coef, A)
    return A


def _repair_d2(f: FunctionSpec, fA: np.ndarray, i0: int, j1: int, S: list[int],
               w: np.ndarray, coef: np.ndarray, A: np.ndarray) -> None:
    """Replace the offending low vector of each class, as the D2 proof does.

    lows[i1] offends when f(lows[i1]) != 0 = omega.lows[i1], which the pair
    monomial on {i0, i1} explains.  Any other offender is left as it is and
    fails the post-condition.
    """
    field, m = f.field, f.m
    ms = f.variant
    assert isinstance(ms, MonomialSum)
    supports = [monomial_support(exps) for _, exps in ms.terms]
    j0 = next((j for j, s in enumerate(supports) if len(s) == 2 and i0 + 1 in s), None)
    if j0 is None:
        return
    i1 = sum(supports[j0]) - i0 - 2  # the pair's other index, 0-based
    fix = np.flatnonzero(fA[:, i1] != 0)
    w, coef = w[fix], coef[fix]
    live = w[:, S] != 0
    lam = np.zeros((len(fix), m), dtype=np.int64)
    lam[:, i1] = 1
    # live: lows[i1] - (w_i1/w_i2) lows[i2], i2 the first i in S with w_i != 0
    hit = np.flatnonzero(live.any(axis=1))
    i2 = np.array(S)[live[hit].argmax(axis=1)]
    lam[hit, i2] = field.vneg(field.vmul(field.np_inv.take(w[hit, i2]), w[hit, i1]))
    # none live: lows[i1] + sum_{i in S} lows[i], with k2 in place of 1 at S[0]
    rest = np.flatnonzero(~live.any(axis=1))
    lam[np.ix_(rest, S)] = 1
    a = field.mul(field.inv(ms.terms[j1][0]), ms.terms[j0][0])
    lam[rest, S[0]] = field.vmul(a, field.vmul(w[rest, i1], field.np_inv.take(w[rest, i0])))
    A[fix, i1] = _combine(field, coef, i0, lam)
