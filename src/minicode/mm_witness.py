"""Batched witness construction for the Maiorana-McFarland theorems C1 and C2.

case1_alphas builds the C1 and C2 case-1 witness vectors, which every
case-1 class shares; case2_alphas and case3_alphas build those of a group
of classes at once, following the proofs' sub-branches.
witness._block_alphas calls them for a block of certificate classes or for
the one class of theorem_witness.  A sub-branch that no class of the group
takes is skipped, so a block of one runs only its own.

Every one-row system r.x = b of these proofs has a closed form from p,
the first nonzero column of r, and no elimination runs: _point gives the
solution b/r_p at p and zero elsewhere, _lows the kernel basis of the
low vectors e_j - (r_j/r_p) e_p for the free columns j != p, ascending,
and _solutions x0 followed by x0 plus each kernel vector.  These are the
solution and kernel basis that Gaussian elimination reads from the
reduced echelon form r/r_p of the row.  The two-row systems are one
batched 2 x t elimination (_solve2), and the scalar searches are masks
over the q candidates.  The inner products of _solve2's consistency
check and of _first_extending's q = 2 case-3 search are linalg.np_dots
on chunk rows.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import construction_bug
from .families import FunctionSpec, MaioranaMcFarland, TheoremId
from .gf import FieldSpec
from .linalg import np_block_rows, np_chunk_rows, np_dots, np_indices, np_vectors

Values = Callable[[np.ndarray], np.ndarray]  # f at each row of an (..., m) array: shape (...)


def _lows(field: FieldSpec, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel basis of each nonzero row r of the G x n array R: the low vectors.

    Returns the G x (n-1) x n bases and the G x (n-1) free columns.
    """
    G, n = R.shape
    at, j = np.arange(G)[:, None], np.arange(n - 1)
    p = (R != 0).argmax(axis=1)
    free = j + (j >= p[:, None])
    coef = field.vneg(field.vmul(field.np_inv.take(R[at[:, 0], p])[:, None], R))
    out = np.zeros((G, n - 1, n), dtype=np.int64)
    out[at, j, free] = 1
    out[at, j, p[:, None]] = coef[at, free]
    return out, free


def _point(field: FieldSpec, R: np.ndarray, b) -> np.ndarray:
    """A solution of r.x = b for each nonzero row r of R: b/r_p at p, zero elsewhere."""
    at = np.arange(len(R))
    p = (R != 0).argmax(axis=1)
    x = np.zeros_like(R)
    x[at, p] = field.vmul(field.np_inv.take(R[at, p]), b)
    return x


def _solutions(field: FieldSpec, R: np.ndarray, b) -> np.ndarray:
    """n independent solutions of r.x = b for nonzero rows r and b != 0.

    x0 = _point and x0 + each vector of _lows: G x n x n.
    """
    lows, _ = _lows(field, R)
    x0 = _point(field, R, b)
    return field.vadd(np.concatenate([np.zeros_like(lows[:, :1]), lows], axis=1), x0[:, None])


def _solve2(field: FieldSpec, R1: np.ndarray, R2: np.ndarray, b1, b2) -> np.ndarray:
    """The solution of r1.x = b1, r2.x = b2 for each pair of rows of R1 and R2.

    The solution, 0 at the free coordinates, is read from the reduced
    echelon form of the pair.  Its first pivot is p1, the first column
    where r1 or r2 is nonzero, eliminated here with the first row nonzero
    there; its second is the first nonzero column of the other row once
    reduced.  An inconsistent system is a construction bug.
    """
    G = len(R1)
    at = np.arange(G)
    b1, b2 = np.broadcast_to(b1, (G,)), np.broadcast_to(b2, (G,))
    p1 = ((R1 != 0) | (R2 != 0)).argmax(axis=1)
    swap = R1[at, p1] == 0
    A, a = np.where(swap[:, None], R2, R1), np.where(swap, b2, b1)
    B, b = np.where(swap[:, None], R1, R2), np.where(swap, b1, b2)
    inv = field.np_inv.take(A[at, p1])
    A, a = field.vmul(inv[:, None], A), field.vmul(inv, a)
    lead = B[at, p1]
    B, b = field.vsub(B, field.vmul(lead[:, None], A)), field.vsub(b, field.vmul(lead, a))
    p2 = (B != 0).argmax(axis=1)
    inv = field.np_inv.take(B[at, p2])  # 0 when B is zero: then b and x[p2] stay 0
    b = field.vmul(inv, b)
    a = field.vsub(a, field.vmul(A[at, p2], b))
    x = np.zeros_like(R1)
    x[at, p2] = b
    x[at, p1] = a
    dots = np_dots(field, np_chunk_rows(field, x)[:, None],
                   np_chunk_rows(field, np.stack([R1, R2], axis=1)))
    if (dots != np.stack([b1, b2], axis=1)).any():
        raise construction_bug("a two-row system of the Maiorana-McFarland proof is inconsistent")
    return x


def _first(ok: np.ndarray, what: str) -> np.ndarray:
    """The first candidate along axis 1 that passes, for every row of ok."""
    if not ok.any(axis=1).all():
        raise construction_bug(f"no {what}")
    return ok.argmax(axis=1)


def case1_alphas(f: FunctionSpec) -> np.ndarray:
    """The m x m case-1 witness vectors (u != 0, v = 0) of C1 and C2.

    With c = g(0): the t solutions of phi(0).gamma = -c, after the zero
    beta, then e_i with the solution of phi(e_i).gamma = -g(e_i) for each i.
    """
    field, m, q = f.field, f.m, f.field.q
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    s, t = mm.s, mm.t
    phi = np.array(mm.phi, dtype=np.int64).reshape(q**s, t)
    unit = q ** np.arange(s - 1, -1, -1)  # the canonical index of e_i in F_q^s
    A = np.zeros((m, m), dtype=np.int64)
    A[:t, s:] = _solutions(field, phi[:1], field.neg(mm.g[0]))[0]
    A[t:, :s] = np.eye(s, dtype=np.int64)
    A[t:, s:] = _point(field, phi[unit], field.vneg(np.array(mm.g)[unit]))
    return A


def case2_alphas(thm: TheoremId, f: FunctionSpec, omega: np.ndarray) -> np.ndarray:
    """Case-2 witness vectors of the G classes whose omega = -v/u are the rows of omega.

    Sub-branches: omega_1 != 0 (C2 then splits on phi(0) and omega_1.e_1);
    omega_1 = 0 with phi(0) != omega_2; phi(0) = omega_2, where C1 closes
    with a scalar a_out when one exists and with eta otherwise.
    """
    field, m, q = f.field, f.m, f.field.q
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    s, t = mm.s, mm.t
    phi = np.array(mm.phi, dtype=np.int64).reshape(q**s, t)
    c, negc = mm.g[0], field.neg(mm.g[0])
    unit = q ** np.arange(s - 1, -1, -1)  # the canonical index of e_i in F_q^s
    A = np.zeros((len(omega), m, m), dtype=np.int64)
    w1, w2 = omega[:, :s], omega[:, s:]
    off0 = (phi[0] != w2).any(axis=1)

    def rows(at: np.ndarray, idx) -> np.ndarray:
        """phi(beta) - omega_2 for the betas of canonical index idx.

        idx is a scalar or has a leading class axis (of length 1 when shared).
        """
        w = w2[at].reshape((len(at),) + (1,) * (np.ndim(idx) - 1) + (t,))
        return field.vsub(phi[idx], w)

    at = np.flatnonzero(w1.any(axis=1))
    if len(at):
        A[at, :s, :s] = _solutions(field, w1[at], c)
        if thm is TheoremId.C1:
            a = np.arange(q)
            ok = (phi[a * unit[0]] != w2[at, None]).any(axis=2)
            ok &= field.vmul(a, w1[at, :1]) != c
            a = _first(ok, "scalar a with phi(a e_1) != omega_2 and omega_1.(a e_1) != c")
            A[at, s:, 0] = a[:, None]
            A[at, s:, s:] = _solutions(field, rows(at, a * unit[0]),
                                       field.vsub(field.vmul(a, w1[at, 0]), c))
        else:
            via0 = off0[at]  # phi(0) != omega_2
            sub = at[via0]
            if len(sub):
                A[sub, s:, s:] = _solutions(field, rows(sub, 0), negc)
            via_e1 = ~via0 & (w1[at, 0] != 1)
            sub = at[via_e1]
            if len(sub):
                A[sub, s:, 0] = 1
                A[sub, s:, s:] = _solutions(field, rows(sub, unit[0]),
                                            field.vsub(w1[sub, 0], 1))
            sub = at[~via0 & ~via_e1]
            if len(sub):
                r1 = rows(sub, unit[0])
                A[sub, s:m - 1, 0] = 1
                A[sub, s:m - 1, s:] = _lows(field, r1)[0]
                A[sub, m - 1, 1] = 1
                A[sub, m - 1, s:] = _solve2(field, r1, rows(sub, unit[1]), 1,
                                            field.vsub(w1[sub, 1], 1))

    at = np.flatnonzero(~w1.any(axis=1) & off0)
    if len(at):
        A[at, :t, s:] = _solutions(field, rows(at, 0), negc)
        if thm is TheoremId.C1:
            a = np.arange(1, q)[:, None]
            ok = (phi[a * unit] != w2[at, None, None]).any(axis=3)  # G x (q-1) x s
            ai = 1 + _first(ok, "nonzero a with phi(a e_i) != omega_2")  # G x s
            beta = np.zeros((len(at), s, s), dtype=np.int64)
            beta[:, np.arange(s), np.arange(s)] = ai
        else:
            i0 = _first((phi[unit] != w2[at, None]).any(axis=2), "e_i with phi(e_i) != omega_2")
            beta = np.broadcast_to(np.eye(s, dtype=np.int64), (len(at), s, s)).copy()
            beta[np.arange(len(at)), :, i0] = 1  # e_i0 + e_i, and e_i0 itself
        A[at, t:, :s] = beta
        A[at, t:, s:] = _point(field, rows(at, np_indices(q, beta)).reshape(-1, t),
                               negc).reshape(len(at), s, t)

    at = np.flatnonzero(~w1.any(axis=1) & ~off0)
    if len(at):
        r1 = rows(at, unit[0])
        A[at, :t, 0] = 1
        A[at, :t, s:] = _solutions(field, r1, negc)
        A[at, t:m - 1, 1:s] = np.eye(s - 1, dtype=np.int64)
        A[at, t:m - 1, s:] = _point(field, rows(at, unit[None, 1:]).reshape(-1, t),
                                    negc).reshape(len(at), s - 1, t)
        if thm is TheoremId.C1:
            a = np.arange(1, q)
            X = rows(at, a[None] * unit[0])  # G x (q-1) x t
            p = (r1 != 0).argmax(axis=1)
            g = np.arange(len(at))
            lam = field.vmul(X[g, :, p], field.np_inv.take(r1[g, p])[:, None])
            out = (X != field.vmul(lam[:, :, None], r1[:, None])).any(axis=2)
            found = out.any(axis=1)
            a_out = 1 + out[found].argmax(axis=1)
            sub = at[found]
            if len(sub):
                A[sub, m - 1, 0] = a_out
                A[sub, m - 1, s:] = _solve2(field, X[found, a_out - 1], r1[found], negc,
                                            field.vadd(field.vneg(field.vmul(a_out, c)), 1))
            at, r1 = at[~found], r1[~found]
        if len(at):
            eta = _solve2(field, rows(at, unit[1]), r1, 0, 1)
            A[at, m - 1, 1] = 1
            A[at, m - 1, s:] = field.vadd(A[at, t, s:], eta)
    return A


def case3_alphas(f: FunctionSpec, fvals: Values, v: np.ndarray) -> np.ndarray:
    """Case-3 witness vectors of the G classes (0, v), v the rows of v.

    The m - 1 partial alphas are e_j + lambda e_P for distinct columns j and
    the pivot column P of v_2 (v_2 != 0) or of v_1 (v_2 = 0); J holds each
    one's j.  The basis is closed by 2 alpha_1 when q > 2 and by
    _first_extending when q = 2.
    """
    field, m, q = f.field, f.m, f.field.q
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    s, t = mm.s, mm.t
    A = np.zeros((len(v), m, m), dtype=np.int64)
    J = np.zeros((len(v), m - 1), dtype=np.int64)
    v1, v2 = v[:, :s], v[:, s:]
    at = np.flatnonzero(v2.any(axis=1))
    if len(at):
        A[at, :t - 1, s:], free = _lows(field, v2[at])
        J[at, :t - 1] = s + free
        A[at, t - 1:m - 1, :s] = np.eye(s, dtype=np.int64)
        A[at, t - 1:m - 1, s:] = _point(field, np.repeat(v2[at], s, axis=0),
                                        field.vneg(v1[at]).ravel()).reshape(len(at), s, t)
        J[at, t - 1:] = np.arange(s)
    at = np.flatnonzero(~v2.any(axis=1))
    if len(at):
        A[at, :s - 1, :s], free = _lows(field, v1[at])
        J[at, :s - 1] = free
        A[at, s - 1:m - 1, s:] = np.eye(t, dtype=np.int64)
        J[at, s - 1:] = s + np.arange(t)
    if q > 2:
        A[:, m - 1] = field.vmul(2, A[:, 0])
    else:
        A[:, m - 1] = _first_extending(field, fvals, v, A[:, :m - 1], J)
    return A


def _first_extending(field: FieldSpec, fvals: Values, v: np.ndarray,
                     partial: np.ndarray, J: np.ndarray) -> np.ndarray:
    """For each class (0, v), the first canonical x != 0 with v.x = 0 whose
    lift (f(x), x) is outside the span L of the partial lifts.

    z = (1, z') with z'_J = -f(alpha) and zero at the pivot column is
    orthogonal to every partial lift, and z and y = (0, v) span L's
    orthogonal complement, so a lift orthogonal to y lies in L exactly
    when z.(f(x), x) = 0.  v and z are packed into chunk rows once, and the
    candidates are scanned in windows of about DOT_BLOCK np_dots values
    until every class has its x.  A window is never longer than the scan
    before it, so f is read at no more than twice as many candidates as the
    last class needs: a block of one class does not tabulate f.
    """
    q, (G, m) = field.q, v.shape
    Z = np.zeros((G, m), dtype=np.int64)
    Z[np.arange(G)[:, None], J] = field.vneg(fvals(partial))
    VZ = np_chunk_rows(field, np.stack([v, Z]))[:, :, None]  # 2 x G x 1 x C
    out = np.zeros((G, m), dtype=np.int64)
    todo, start = np.arange(G), 1
    while len(todo):
        if start == q**m:
            raise construction_bug("no hyperplane vector extends the case-3 lift span")
        stop = min(q**m, 2 * start, start + np_block_rows(2 * len(todo)))
        X = np_vectors(q, m, start, stop)
        vx, zx = np_dots(field, VZ[:, todo], np_chunk_rows(field, X))
        hit = (vx == 0) & (field.vadd(zx, fvals(X)) != 0)
        got = hit.any(axis=1)
        out[todo[got]] = X[hit[got].argmax(axis=1)]
        todo, start = todo[~got], stop
    return out
