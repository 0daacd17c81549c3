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

Every constructor validates its own output (membership, weights, inner
products, rank) before returning; a post-condition failure is reported as a
construction bug, never silently repaired.

theorem_witness builds one class at a time and is the reference.
witness_certificate builds every theorem's certificate with a batched
builder instead.  It takes the classes in blocks of
np_block_rows(field, k*k), the block size verify_certificate uses, and
within a block groups them by case and by i0, the first nonzero index of
omega (case 2) or v (case 3).  Each of the A1, A2, B, D1 and D2 proofs
builds its vectors from the "low" vectors e_i - (w_i/w_i0) e_i0 and one
anchor, so a group is a few flat-table operations over a
(classes x m x m) array; f(alpha) is read from f's cached dense table.  The
D2 repair of an offending low vector is done with masks.  The
Maiorana-McFarland proofs (C1, C2) group by their sub-branches instead
(minicode.mm_witness); their one-row systems have the same low-vector closed form, with a pivot
per class, their two-row systems are one batched elimination and their
scalar searches are masks over the q candidates.  The per-class self-check
is replaced by one post-condition per block: every lift (f(alpha), alpha)
is orthogonal to its class (f(alpha) = omega.alpha in cases 1-2,
v.alpha = 0 in case 3), and np_ranks gives rank m for the alphas (cases
1-2) or the lifts (case 3).  A failure raises ConstructionError naming the
first failing class.  The certificate equals the one the per-class loop
over theorem_witness would give, and verify_certificate remains the
independent check.

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
    MaioranaMcFarland,
    MonomialSum,
    TheoremId,
    monomial_support,
    validate_hypotheses,
)
from .gf import FieldSpec
from .linalg import (
    EchelonBasis,
    Vec,
    dot,
    enumerate_vectors,
    kernel_basis,
    np_block_rows,
    np_class_reps,
    np_indices,
    np_paired_dots,
    np_ranks,
    rank,
    scale,
    solve,
    unit_vector,
    vec_add,
    vec_sub,
    vector_to_index,
    weight,
)
from .minimality import Certificate, CertificateClasses
from .mm_witness import case2_alphas, case3_alphas


@dataclass(frozen=True)
class WitnessBasis:
    """Linearly independent vectors with a kind-specific side condition."""

    kind: tuple
    vectors: tuple[Vec, ...]


# -- lemma-level bases ---------------------------------------------------------

def full_weight_basis(field: FieldSpec, m: int) -> WitnessBasis:
    """A basis of F_q^m of uniformly heavy vectors.

    q >= 3: all weights equal m.  q = 2: weights >= m-1 (m even) or >= m-2
    (m odd).  Built from the rank-one perturbations of the identity whose
    determinants are nonzero for the given (q, m).
    """
    q = field.q
    if q == 2 and m < 2:
        raise ValueError("q = 2 requires m >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    neg1 = field.neg(1)
    if q == 2:
        if m % 2 == 0:
            rows = [tuple(0 if j == i else 1 for j in range(m)) for i in range(m)]
        else:
            rows = [
                tuple(0 if (j == i or j == m - 1) else 1 for j in range(m))
                for i in range(m - 1)
            ]
            rows.append(tuple([1] * m))
        min_wt = m - 1 if m % 2 == 0 else m - 2
    elif q == 3 and m % 3 == 2:
        rows = [tuple(neg1 for _ in range(m))]
        rows += [
            tuple(1 if j == i else neg1 for j in range(m)) for i in range(1, m)
        ]
        min_wt = m
    else:
        m_img = m % field.p
        b = next(a for a in field.elements() if a not in (0, 1, m_img))
        diag = field.sub(b, 1)
        rows = [tuple(diag if j == i else neg1 for j in range(m)) for i in range(m)]
        min_wt = m
    wb = WitnessBasis(("full_weight",), tuple(rows))
    if rank(field, rows) != m:
        raise construction_bug(f"full-weight rows not independent for q={q}, m={m}")
    if any(weight(r) < min_wt for r in rows):
        raise construction_bug(f"full-weight rows below weight {min_wt} for q={q}, m={m}")
    return wb


def unit_inner_basis(field: FieldSpec, omega: Sequence[int]) -> WitnessBasis:
    """A basis of weight <= 2 vectors with omega.beta_i = 1 for every i."""
    if not any(omega):
        raise ValueError("omega must be nonzero")
    m = len(omega)
    i0 = next(i for i, a in enumerate(omega) if a)
    w0inv = field.inv(omega[i0])
    rows = []
    for i in range(m):
        if i == i0:
            rows.append(scale(field, w0inv, unit_vector(m, i0 + 1)))
        else:
            coef = field.mul(w0inv, field.sub(1, omega[i]))
            rows.append(
                vec_add(field, unit_vector(m, i + 1),
                        scale(field, coef, unit_vector(m, i0 + 1)))
            )
    wb = WitnessBasis(("unit_inner", tuple(omega)), tuple(rows))
    for r in rows:
        if dot(field, omega, r) != 1 or not 1 <= weight(r) <= 2:
            raise construction_bug("unit-inner row violates its constraints")
    if rank(field, rows) != m:
        raise construction_bug("unit-inner rows not independent")
    return wb


def hyperplane_low_weight_basis(field: FieldSpec, v: Sequence[int]) -> WitnessBasis:
    """A basis of the hyperplane v^perp made of weight <= 2 vectors."""
    if not any(v):
        raise ValueError("v must be nonzero")
    m = len(v)
    _, lows = _low_basis_against(field, tuple(v))
    rows = list(lows.values())
    wb = WitnessBasis(("hyperplane", tuple(v)), tuple(rows))
    for r in rows:
        if dot(field, v, r) != 0 or not 1 <= weight(r) <= 2:
            raise construction_bug("hyperplane row violates its constraints")
    if rank(field, rows) != m - 1:
        raise construction_bug("hyperplane rows not independent")
    return wb


def linear_system_solutions(
    field: FieldSpec, rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[Vec]:
    """Maximal linearly independent solution sets of A x = b.

    b = 0: a kernel basis, n - rank(A) vectors.  b != 0 (consistent):
    n - rank(A) + 1 independent solutions x0, x0+k_1, ..., x0+k_{n-r}.
    """
    if not rows:
        raise ValueError("A needs at least one row (possibly zero)")
    n = len(rows[0])
    if len(rhs) != len(rows):
        raise ValueError("rhs length must match row count")
    if not any(rhs):
        return kernel_basis(field, rows, n)
    x0 = solve(field, rows, rhs)
    if x0 is None:
        raise ValueError("inconsistent linear system")
    sols = [x0] + [vec_add(field, x0, kv) for kv in kernel_basis(field, rows, n)]
    if rank(field, sols) != len(sols):
        raise construction_bug("solution set unexpectedly dependent")
    return sols


def _first_solution(field: FieldSpec, rows: Sequence[Vec], rhs: Sequence[int]) -> Vec:
    x0 = solve(field, rows, rhs)
    if x0 is None:
        raise construction_bug(f"system {rows} = {rhs} is inconsistent")
    return x0


# -- theorem witnesses ----------------------------------------------------------

def _require_hypotheses(thm: TheoremId, f: FunctionSpec) -> None:
    """Raise ValueError, naming the first failing condition, unless thm's hypotheses hold for f."""
    result = validate_hypotheses(f, thm)
    if not result:
        raise ValueError(f"hypotheses of {thm.value} fail: {result.condition} at {result.witness}")


def theorem_witness(
    thm: TheoremId,
    f: FunctionSpec,
    u: int,
    v: Sequence[int],
    _validated: bool = False,
) -> WitnessBasis:
    """The vectors the matching construction proof builds for message (u, v)."""
    field, m = f.field, f.m
    field.check_scalar(u)
    if len(v) != m:
        raise ValueError(f"v has length {len(v)}, expected m = {m}")
    v = tuple(v)
    if u == 0 and not any(v):
        raise ValueError("(u, v) must be nonzero")
    if not _validated:
        _require_hypotheses(thm, f)

    if u != 0 and not any(v):
        alphas = _case1_vectors(thm, f)
        case = 1
    elif u != 0:
        alphas = _case2_vectors(thm, f, u, v)
        case = 2
    else:
        alphas = _case3_vectors(thm, f, v)
        case = 3

    wb = WitnessBasis(("theorem_case", thm, u, v), tuple(alphas))
    _verify_theorem_witness(f, u, v, wb)
    return wb


def _omega_of(field: FieldSpec, u: int, v: Vec) -> Vec:
    return scale(field, field.neg(field.inv(u)), v)


def _verify_theorem_witness(f: FunctionSpec, u: int, v: Vec, wb: WitnessBasis) -> None:
    field, m = f.field, f.m
    alphas = wb.vectors
    if len(alphas) != m:
        raise construction_bug(f"expected {m} vectors, got {len(alphas)}")
    if any(not any(a) for a in alphas):
        raise construction_bug("witness contains the zero vector")
    if u != 0:
        omega = _omega_of(field, u, v) if any(v) else (0,) * m
        for a in alphas:
            if f.eval(a) != dot(field, omega, a):
                raise construction_bug(f"f(alpha) != omega.alpha at alpha={a}")
        if rank(field, alphas) != m:
            raise construction_bug("case 1/2 vectors are not a basis")
    else:
        for a in alphas:
            if dot(field, v, a) != 0:
                raise construction_bug(f"alpha={a} is outside the hyperplane")
        lifts = [(f.eval(a),) + a for a in alphas]
        if rank(field, lifts) != m:
            raise construction_bug("case 3 lifts are not independent")


def _case1_vectors(thm: TheoremId, f: FunctionSpec) -> list[Vec]:
    field, m = f.field, f.m
    if thm in (TheoremId.A1, TheoremId.A2):
        return list(full_weight_basis(field, m).vectors)
    if thm is TheoremId.B or thm in (TheoremId.D1, TheoremId.D2):
        return [unit_vector(m, i) for i in range(1, m + 1)]
    if thm in (TheoremId.C1, TheoremId.C2):
        mm = f.variant
        assert isinstance(mm, MaioranaMcFarland)
        s, t = mm.s, mm.t
        phi0 = _phi_at(f, (0,) * s)
        c = f.eval((0,) * m)  # g(0), since the gamma part is zero
        gammas = linear_system_solutions(field, [phi0], [field.neg(c)])
        out = [(0,) * s + g for g in gammas]
        for i in range(1, s + 1):
            ei = unit_vector(s, i)
            gi = _first_solution(field, [_phi_at(f, ei)],
                                 [field.neg(_g_at(f, ei))])
            out.append(ei + gi)
        return out
    raise ValueError(f"unknown theorem id {thm!r}")


def _phi_at(f: FunctionSpec, beta: Vec) -> Vec:
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    return mm.phi[vector_to_index(f.field.q, beta)]


def _g_at(f: FunctionSpec, beta: Vec) -> int:
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    return mm.g[vector_to_index(f.field.q, beta)]


def _low_basis_against(field: FieldSpec, w: Vec) -> tuple[int, dict[int, Vec]]:
    """i0 (0-based) and the vectors e_i - w_i/w_{i0} e_{i0} for i != i0."""
    i0 = next(i for i, a in enumerate(w) if a)
    inv0 = field.inv(w[i0])
    m = len(w)
    out = {}
    for i in range(m):
        if i == i0:
            continue
        coef = field.neg(field.mul(inv0, w[i]))
        out[i] = vec_add(field, unit_vector(m, i + 1),
                         scale(field, coef, unit_vector(m, i0 + 1)))
    return i0, out


def _case2_vectors(thm: TheoremId, f: FunctionSpec, u: int, v: Vec) -> list[Vec]:
    field, m = f.field, f.m
    omega = _omega_of(field, u, v)

    if thm in (TheoremId.A1, TheoremId.A2):
        betas = unit_inner_basis(field, omega).vectors
        if thm is TheoremId.A2:
            return list(betas)
        return [scale(field, f.eval(b), b) for b in betas]

    if thm is TheoremId.B:
        i0, lows = _low_basis_against(field, omega)
        beta = (0,) * m
        for a in lows.values():
            beta = vec_add(field, beta, a)
        beta = vec_add(
            field, beta,
            scale(field, field.inv(omega[i0]), unit_vector(m, i0 + 1)),
        )
        out = []
        for i in range(m):
            if i == i0:
                out.append(scale(field, f.eval(beta), beta))
            else:
                out.append(lows[i])
        return out

    if thm in (TheoremId.D1, TheoremId.D2):
        return _case2_monomial(thm, f, omega)

    if thm in (TheoremId.C1, TheoremId.C2):
        return _case2_mm(thm, f, omega)

    raise ValueError(f"unknown theorem id {thm!r}")


def _case2_monomial(thm: TheoremId, f: FunctionSpec, omega: Vec) -> list[Vec]:
    field, m = f.field, f.m
    ms = f.variant
    assert isinstance(ms, MonomialSum)
    supports = [monomial_support(exps) for _, exps in ms.terms]
    i0, lows = _low_basis_against(field, omega)
    j1 = next(j for j, s in enumerate(supports) if (i0 + 1) not in s)
    a_j1 = ms.terms[j1][0]
    inv0 = field.inv(omega[i0])
    anchor = scale(field, field.mul(a_j1, inv0), unit_vector(m, i0 + 1))
    for i1b in sorted(supports[j1]):
        anchor = vec_add(field, anchor, lows[i1b - 1])
    out = {i0: anchor}
    out.update(lows)

    if thm is TheoremId.D2:
        offending = [
            i for i in lows
            if f.eval(lows[i]) != dot(field, omega, lows[i])
        ]
        if len(offending) > 1:
            raise construction_bug("more than one low vector misses its monomial value")
        if offending:
            i1 = offending[0]
            j0 = next(
                (j for j, s in enumerate(supports) if s == {i0 + 1, i1 + 1}), None
            )
            if j0 is None:
                raise construction_bug("no pair monomial explains the offending vector")
            s_j1 = sorted(i - 1 for i in supports[j1])
            live = [i2 for i2 in s_j1 if omega[i2] != 0]
            if live:
                i2 = live[0]
                coef = field.neg(field.mul(field.inv(omega[i2]), omega[i1]))
                beta = vec_add(field, lows[i1], scale(field, coef, lows[i2]))
            else:
                i2 = s_j1[0]
                k2 = field.mul(
                    field.mul(field.inv(a_j1), ms.terms[j0][0]),
                    field.mul(omega[i1], field.inv(omega[i0])),
                )
                beta = lows[i1]
                for i in s_j1:
                    coef = k2 if i == i2 else 1
                    beta = vec_add(field, beta, scale(field, coef, lows[i]))
            out[i1] = beta
    return [out[i] for i in range(m)]


def _case2_mm(thm: TheoremId, f: FunctionSpec, omega: Vec) -> list[Vec]:
    field = f.field
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    s, t = mm.s, mm.t
    w1, w2 = omega[:s], omega[s:]
    zero_s, zero_t = (0,) * s, (0,) * t
    c = _g_at(f, zero_s)
    phi0 = _phi_at(f, zero_s)

    if any(w1):
        betas = linear_system_solutions(field, [w1], [c])
        if thm is TheoremId.C1:
            a = next(
                (a for a in field.elements()
                 if _phi_at(f, scale(field, a, unit_vector(s, 1))) != w2
                 and field.mul(a, w1[0]) != c),
                None,
            )
            if a is None:
                raise construction_bug("no scalar a with phi(a e_1) != omega_2 and "
                            "omega_1.(a e_1) != c")
            ae1 = scale(field, a, unit_vector(s, 1))
            row = vec_sub(field, _phi_at(f, ae1), w2)
            rhs = field.sub(dot(field, w1, ae1), c)
            gammas = linear_system_solutions(field, [row], [rhs])
            return [b + zero_t for b in betas] + [ae1 + g for g in gammas]
        # C2 (q = 2): three sub-branches on phi(0) and omega_1.e_1.
        e1s = unit_vector(s, 1)
        if phi0 != w2:
            row = vec_sub(field, phi0, w2)
            gammas = linear_system_solutions(field, [row], [field.neg(c)])
            return [b + zero_t for b in betas] + [zero_s + g for g in gammas]
        if w1[0] != 1:
            row = vec_sub(field, _phi_at(f, e1s), w2)
            rhs = field.sub(w1[0], 1)
            gammas = linear_system_solutions(field, [row], [rhs])
            return [b + zero_t for b in betas] + [e1s + g for g in gammas]
        e2s = unit_vector(s, 2)
        row1 = vec_sub(field, _phi_at(f, e1s), w2)
        row2 = vec_sub(field, _phi_at(f, e2s), w2)
        gammas = kernel_basis(field, [row1], t)
        gp = _first_solution(field, [row1, row2], [1, field.sub(dot(field, w1, e2s), 1)])
        out = [b + zero_t for b in betas]
        out += [e1s + g for g in gammas]
        out.append(e2s + gp)
        return out

    # omega_1 = 0, hence omega_2 != 0 (omega itself is nonzero in case 2).
    if phi0 != w2:
        row = vec_sub(field, phi0, w2)
        gammas = linear_system_solutions(field, [row], [field.neg(c)])
        out = [zero_s + g for g in gammas]
        if thm is TheoremId.C1:
            for i in range(1, s + 1):
                ei = unit_vector(s, i)
                ai = next(
                    (a for a in field.nonzero()
                     if _phi_at(f, scale(field, a, ei)) != w2),
                    None,
                )
                if ai is None:
                    raise construction_bug(f"no nonzero a with phi(a e_{i}) != omega_2")
                aei = scale(field, ai, ei)
                gi = _first_solution(
                    field, [vec_sub(field, _phi_at(f, aei), w2)], [field.neg(c)]
                )
                out.append(aei + gi)
        else:
            i0 = next(
                (i for i in range(1, s + 1)
                 if _phi_at(f, unit_vector(s, i)) != w2),
                None,
            )
            if i0 is None:
                raise construction_bug("phi hits omega_2 on every e_i, impossible for "
                            "an injection with s >= 2")
            for i in range(1, s + 1):
                beta = (unit_vector(s, i0) if i == i0
                        else vec_add(field, unit_vector(s, i0), unit_vector(s, i)))
                gi = _first_solution(
                    field, [vec_sub(field, _phi_at(f, beta), w2)], [field.neg(c)]
                )
                out.append(beta + gi)
        return out

    # phi(0) = omega_2: build m-1 vectors on e_1, then pick a suitable last one.
    e1s = unit_vector(s, 1)
    e2s = unit_vector(s, 2)
    row1 = vec_sub(field, _phi_at(f, e1s), w2)
    gammas1 = linear_system_solutions(field, [row1], [field.neg(c)])
    out = [e1s + g for g in gammas1]
    tail: dict[int, Vec] = {}
    for i in range(2, s + 1):
        ei = unit_vector(s, i)
        gi = _first_solution(
            field, [vec_sub(field, _phi_at(f, ei), w2)], [field.neg(c)]
        )
        tail[i] = gi
        out.append(ei + gi)
    if thm is TheoremId.C1:
        span1 = EchelonBasis(field, t)
        span1.add(row1)
        a_out = next(
            (a for a in field.nonzero()
             if not span1.contains(
                 vec_sub(field, _phi_at(f, scale(field, a, e1s)), w2))),
            None,
        )
        if a_out is not None:
            ae1 = scale(field, a_out, e1s)
            row_a = vec_sub(field, _phi_at(f, ae1), w2)
            target = field.add(field.neg(field.mul(a_out, c)), 1)
            g0 = _first_solution(field, [row_a, row1], [field.neg(c), target])
            out.append(ae1 + g0)
            return out
    row2 = vec_sub(field, _phi_at(f, e2s), w2)
    eta = solve(field, [row2, row1], [0, 1])
    if eta is None:
        raise construction_bug(
            "phi(e_2) - omega_2 dependent on phi(e_1) - omega_2; the "
            "injectivity argument does not cover this instance"
        )
    out.append(e2s + vec_add(field, tail[2], eta))
    return out


def _case3_vectors(thm: TheoremId, f: FunctionSpec, v: Vec) -> list[Vec]:
    field, m = f.field, f.m

    if thm is TheoremId.A1:
        base = list(hyperplane_low_weight_basis(field, v).vectors)
        return base + [scale(field, 2, base[0])]

    if thm is TheoremId.A2:
        i0, lows = _low_basis_against(field, v)
        skip = {i0}
        if m % 2 == 1:
            i1 = next(i for i in range(m) if i != i0)
            skip.add(i1)
        anchor = (0,) * m
        for i in range(m):
            if i not in skip:
                anchor = vec_add(field, anchor, lows[i])
        out = dict(lows)
        out[i0] = anchor
        return [out[i] for i in range(m)]

    if thm is TheoremId.B or thm in (TheoremId.D1, TheoremId.D2):
        i0, lows = _low_basis_against(field, v)
        if thm is TheoremId.B:
            indices = [i for i in range(m) if i != i0]
        else:
            ms = f.variant
            assert isinstance(ms, MonomialSum)
            supports = [monomial_support(exps) for _, exps in ms.terms]
            j1 = next(j for j, s in enumerate(supports) if (i0 + 1) not in s)
            indices = sorted(i - 1 for i in supports[j1])
        anchor = (0,) * m
        for i in indices:
            anchor = vec_add(field, anchor, lows[i])
        out = dict(lows)
        out[i0] = anchor
        return [out[i] for i in range(m)]

    if thm in (TheoremId.C1, TheoremId.C2):
        return _case3_mm(thm, f, v)

    raise ValueError(f"unknown theorem id {thm!r}")


def _case3_mm(thm: TheoremId, f: FunctionSpec, v: Vec) -> list[Vec]:
    field, m = f.field, f.m
    mm = f.variant
    assert isinstance(mm, MaioranaMcFarland)
    s, t = mm.s, mm.t
    v1, v2 = v[:s], v[s:]
    zero_s, zero_t = (0,) * s, (0,) * t
    partial: list[Vec] = []
    if any(v2):
        for g in kernel_basis(field, [v2], t):
            partial.append(zero_s + g)
        for i in range(1, s + 1):
            ei = unit_vector(s, i)
            gi = _first_solution(field, [v2], [field.neg(dot(field, v1, ei))])
            partial.append(ei + gi)
    else:
        for b in kernel_basis(field, [v1], s):
            partial.append(b + zero_t)
        for j in range(1, t + 1):
            partial.append(zero_s + unit_vector(t, j))

    lifts = EchelonBasis(field, m + 1)
    for a in partial:
        if not lifts.add((f.eval(a),) + a):
            raise construction_bug("partial case-3 lifts unexpectedly dependent")

    if field.q > 2:
        cand = scale(field, 2, partial[0])
        if not lifts.add((f.eval(cand),) + cand):
            raise construction_bug("2*alpha_1 does not extend the case-3 lift span")
        return partial + [cand]
    for x in enumerate_vectors(field, m):
        if dot(field, v, x) != 0:
            continue
        if lifts.add((f.eval(x),) + x):
            return partial + [x]
    raise construction_bug("no hyperplane vector extends the case-3 lift span")


# -- certificates ----------------------------------------------------------------

def lift_witness(f: FunctionSpec, wb: WitnessBasis) -> tuple[Vec, ...]:
    """The d-vectors (f(alpha), alpha) of a witness basis."""
    return tuple((f.eval(a),) + a for a in wb.vectors)


def witness_certificate(thm: TheoremId, f: FunctionSpec) -> Certificate:
    """A value-mode certificate covering every projective class of C_f.

    Requires the theorem hypotheses to hold; each class's entry is the
    lifted witness basis that theorem_witness builds for it.  Every theorem
    goes through the batched builder (_batched_arrays), which fills the
    certificate's two arrays directly.
    """
    _require_hypotheses(thm, f)
    field, m = f.field, f.m
    return Certificate(q=field.q, n=field.q**m - 1, k=m + 1, mode="vectors",
                       classes=CertificateClasses(*_batched_arrays(thm, f)))


# -- batched builder --------------------------------------------------------------

def _batched_arrays(thm: TheoremId, f: FunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    """(reps, lifts): every class in canonical order and its m lifted witnesses.

    reps is P x (m+1) and lifts P x m x (m+1), both in the element type;
    each block's lifts (f(x), x) are read from f's value table by the
    canonical indices of its alphas and checked before they are stored.
    """
    field, m = f.field, f.m
    q, k = field.q, m + 1
    values = np.array(f.materialize().variant.values, dtype=np.int64)
    reps = np_class_reps(q, k)
    dtype = field.element_dtype
    out = np.empty((len(reps), m, k), dtype=dtype)
    step = np_block_rows(field, k * k)
    for start in range(0, len(reps), step):
        Y = reps[start:start + step]
        alphas = _block_alphas(thm, f, values, Y)
        x = np_indices(q, alphas)
        lifts = np.concatenate([values.take(x)[:, :, None], alphas], axis=2)
        _check_block(field, Y, lifts)
        out[start:start + step] = lifts
    return reps.astype(dtype), out


def _check_block(field: FieldSpec, Y: np.ndarray, lifts: np.ndarray) -> None:
    """The post-condition of a block; names the first class that fails it.

    Each lift (f(alpha), alpha) must be orthogonal to its class y = (u, v):
    u f(alpha) + v.alpha = 0 is f(alpha) = omega.alpha in cases 1 and 2
    and v.alpha = 0 in case 3.  The m alphas must have rank m in cases 1
    and 2, the m lifts in case 3.
    """
    m = lifts.shape[1]
    dots = np_paired_dots(field, Y, lifts)
    M = lifts.copy()
    M[Y[:, 0] != 0, :, 0] = 0  # cases 1 and 2 rank the alphas alone
    bad = dots.any(axis=1) | (np_ranks(field, M) != m)
    if bad.any():
        i = int(bad.argmax())
        why = "a lift is not orthogonal to it" if dots[i].any() else "rank below m"
        raise construction_bug(f"class {tuple(Y[i].tolist())} fails the post-condition: {why}")


def _block_alphas(thm: TheoremId, f: FunctionSpec, values: np.ndarray,
                  Y: np.ndarray) -> np.ndarray:
    """The B x m x m witness vectors theorem_witness builds for the B classes Y.

    Classes are grouped by case and by i0, the first nonzero index of
    w = omega (case 2) or w = v (case 3); each group is built at once.
    C1 and C2 group by case and by the proof's sub-branch instead.
    """
    field, m = f.field, f.m
    u, v = Y[:, 0], Y[:, 1:]
    A = np.zeros((len(Y), m, m), dtype=np.int64)
    case1 = (u != 0) & ~v.any(axis=1)
    if case1.any():
        A[case1] = _case1_vectors(thm, f)
    omega = field.vmul(field.vneg(field.np_inv.take(u))[:, None], v)
    if thm in (TheoremId.C1, TheoremId.C2):
        rows = np.flatnonzero((u != 0) & ~case1)
        A[rows] = case2_alphas(thm, f, omega[rows])
        rows = np.flatnonzero(u == 0)
        A[rows] = case3_alphas(f, values, v[rows])
        return A
    for case, rows, w in ((2, (u != 0) & ~case1, omega), (3, u == 0, v)):
        rows = np.flatnonzero(rows)
        w = w[rows]
        i0s = (w != 0).argmax(axis=1)
        for i0 in np.unique(i0s).tolist():
            at = i0s == i0
            A[rows[at]] = _group_alphas(thm, f, values, case, i0, w[at])
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


def _group_alphas(thm: TheoremId, f: FunctionSpec, values: np.ndarray, case: int,
                  i0: int, w: np.ndarray) -> np.ndarray:
    """Witness vectors of the case-2 or case-3 classes whose w starts at i0.

    Row i of lows is e_i - (w_i/w_i0) e_i0 (_low_basis_against), i.e. the
    identity with column i0 replaced by coef = -w/w_i0; row i0 is a
    placeholder that each theorem overwrites.
    """
    field, m, q = f.field, f.m, f.field.q
    G = len(w)
    inv0 = field.np_inv.take(w[:, i0])
    coef = field.vneg(field.vmul(inv0[:, None], w))
    A = np.broadcast_to(np.eye(m, dtype=np.int64), (G, m, m)).copy()
    A[:, :, i0] = coef
    A[:, i0, i0] = 0

    def fvals(V: np.ndarray) -> np.ndarray:
        return values.take(np_indices(q, V))

    if case == 2 and thm in (TheoremId.A1, TheoremId.A2):
        # unit_inner_basis: e_i + (1 - w_i)/w_i0 e_i0, and e_i0/w_i0 at i0
        A[:, :, i0] = field.vmul(inv0[:, None], field.vsub(1, w))
        A[:, i0, i0] = inv0
        if thm is TheoremId.A1:
            A = field.vmul(fvals(A)[:, :, None], A)
        return A
    if thm is TheoremId.A1:
        # hyperplane_low_weight_basis, closed by twice its first vector
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
    """Replace the offending low vector of each class, as _case2_monomial does.

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
