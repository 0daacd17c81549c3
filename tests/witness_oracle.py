"""The per-class witness constructions, kept as a test-only oracle.

reference_witness(thm, f, u, v) builds the witness basis of one message the
way the construction proofs read, one class at a time in pure Python: the
case-1, case-2 and case-3 vectors of each theorem, then a self-check of
membership, orthogonality and rank.  The library builds every witness with
its batched builder (minicode.witness and minicode.mm_witness); the tests
compare that builder with this oracle, class by class.

The oracle shares no construction or evaluation code with the builder it
checks: from minicode it imports only public names (the spec types,
WitnessBasis and scalar vector helpers) and nothing from
minicode.mm_witness, and CI refuses any other import.  Its elimination,
its lemma-level bases (which acceptance test 11 checks on their own) and
its values of f (reference_value, the scalar evaluator memoized in one
table per spec) come from the test-only tests/scalar_reference.py.  It does not check the theorem hypotheses; its
callers do.
"""

from __future__ import annotations

from typing import Sequence

from minicode.errors import construction_bug
from minicode.families import (
    FunctionSpec,
    MaioranaMcFarland,
    MonomialSum,
    TheoremId,
    monomial_support,
)
from minicode.gf import FieldSpec
from minicode.linalg import Vec, check_same_length, dot, scale
from minicode.witness import WitnessBasis
from scalar_reference import (
    EchelonBasis,
    enumerate_vectors,
    first_solution,
    full_weight_basis,
    hyperplane_low_weight_basis,
    kernel_basis,
    linear_system_solutions,
    low_basis_against,
    rank,
    reference_value,
    solve,
    unit_inner_basis,
    unit_vector,
    vec_add,
    vector_to_index,
)


def reference_witness(thm: TheoremId, f: FunctionSpec, u: int, v: Sequence[int]) -> WitnessBasis:
    """The witness basis of message (u, v), built and checked one class at a time."""
    v = tuple(v)
    if u != 0 and not any(v):
        alphas = _case1_vectors(thm, f)
    elif u != 0:
        alphas = _case2_vectors(thm, f, u, v)
    else:
        alphas = _case3_vectors(thm, f, v)
    wb = WitnessBasis(("theorem_case", thm, u, v), tuple(alphas))
    _verify_theorem_witness(f, u, v, wb)
    return wb


def vec_sub(field: FieldSpec, u: Sequence[int], v: Sequence[int]) -> Vec:
    check_same_length(u, v)
    return tuple(field.sub(a, b) for a, b in zip(u, v))


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
            if reference_value(f, a) != dot(field, omega, a):
                raise construction_bug(f"f(alpha) != omega.alpha at alpha={a}")
        if rank(field, alphas) != m:
            raise construction_bug("case 1/2 vectors are not a basis")
    else:
        for a in alphas:
            if dot(field, v, a) != 0:
                raise construction_bug(f"alpha={a} is outside the hyperplane")
        lifts = [(reference_value(f, a),) + a for a in alphas]
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
        c = reference_value(f, (0,) * m)  # g(0), since the gamma part is zero
        gammas = linear_system_solutions(field, [phi0], [field.neg(c)])
        out = [(0,) * s + g for g in gammas]
        for i in range(1, s + 1):
            ei = unit_vector(s, i)
            gi = first_solution(field, [_phi_at(f, ei)],
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


def _case2_vectors(thm: TheoremId, f: FunctionSpec, u: int, v: Vec) -> list[Vec]:
    field, m = f.field, f.m
    omega = _omega_of(field, u, v)

    if thm in (TheoremId.A1, TheoremId.A2):
        betas = unit_inner_basis(field, omega).vectors
        if thm is TheoremId.A2:
            return list(betas)
        return [scale(field, reference_value(f, b), b) for b in betas]

    if thm is TheoremId.B:
        i0, lows = low_basis_against(field, omega)
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
                out.append(scale(field, reference_value(f, beta), beta))
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
    i0, lows = low_basis_against(field, omega)
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
            if reference_value(f, lows[i]) != dot(field, omega, lows[i])
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
        gp = first_solution(field, [row1, row2], [1, field.sub(dot(field, w1, e2s), 1)])
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
                gi = first_solution(
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
                gi = first_solution(
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
        gi = first_solution(
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
            g0 = first_solution(field, [row_a, row1], [field.neg(c), target])
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
        i0, lows = low_basis_against(field, v)
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
        i0, lows = low_basis_against(field, v)
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
            gi = first_solution(field, [v2], [field.neg(dot(field, v1, ei))])
            partial.append(ei + gi)
    else:
        for b in kernel_basis(field, [v1], s):
            partial.append(b + zero_t)
        for j in range(1, t + 1):
            partial.append(zero_s + unit_vector(t, j))

    lifts = EchelonBasis(field, m + 1)
    for a in partial:
        if not lifts.add((reference_value(f, a),) + a):
            raise construction_bug("partial case-3 lifts unexpectedly dependent")

    if field.q > 2:
        cand = scale(field, 2, partial[0])
        if not lifts.add((reference_value(f, cand),) + cand):
            raise construction_bug("2*alpha_1 does not extend the case-3 lift span")
        return partial + [cand]
    for x in enumerate_vectors(field, m):
        if dot(field, v, x) != 0:
            continue
        if lifts.add((reference_value(f, x),) + x):
            return partial + [x]
    raise construction_bug("no hyperplane vector extends the case-3 lift span")
