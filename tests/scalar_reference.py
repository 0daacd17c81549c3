"""Pure-Python linear algebra over F_q, kept as a test-only reference.

The library eliminates only with numpy kernels (linalg.np_ranks and the
rank criterion's block scan).  This module keeps the scalar twins the
tests check those kernels against:

  EchelonBasis, rank, kernel_basis and solve: exact Gaussian elimination
      with first-nonzero pivoting, one row at a time, beside vec_add;
  enumerate_vectors and projective_classes: F_q^m and the class
      representatives of F_q^k in canonical order, one tuple at a time,
      beside unit_vector and vector_to_index;
  the lemma-level witness bases of the construction proofs
      (full_weight_basis, unit_inner_basis, hyperplane_low_weight_basis,
      linear_system_solutions) and lift_witness;
  reference_rank_codeword: the sequential rank scan of one class;
  reference_eval, the per-variant scalar evaluator of f, one point at a
      time, and reference_value, the same memoized in one table per spec:
      the tests check FunctionSpec.at against them, and the witness oracle
      reads f through reference_value;
  reference_validate: the A1, A2 and B hypothesis walks, one point at a
      time over the vectors_of_weight iterator, which the tests check the
      array validators of validate_hypotheses against.

EchelonBasis reduces a row with table rows: mul[c] is taken once per pivot
and each coordinate is then one sub[a][mul[c][b]] lookup in Python lists,
built once per field from the field's np_mul and np_sub views.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence

from minicode.code import DefiningSet, check_message, scan_order
from minicode.errors import GuardError, construction_bug
from minicode.families import (
    ComplementThreshold,
    FunctionSpec,
    MaioranaMcFarland,
    TableFunction,
    TheoremId,
    ValidationResult,
    WeightThreshold,
)
from minicode.gf import FieldSpec
from minicode.linalg import (
    ENUM_GUARD,
    SubspaceBasis,
    Vec,
    check_enumerable,
    check_same_length,
    dot,
    index_to_vector,
    scale,
    weight,
)
from minicode.minimality import (
    MINIMAL,
    NOT_MINIMAL,
    MinimalityReport,
    RankWitness,
    normalize_class,
)
from minicode.witness import WitnessBasis


@lru_cache(maxsize=None)
def _tables(field: FieldSpec) -> tuple[list[list[int]], list[list[int]]]:
    """(mul, sub) of field as lists of rows: mul[a][b] = a b, sub[a][b] = a - b."""
    q = field.q
    return (field.np_mul.reshape(q, q).tolist(), field.np_sub.reshape(q, q).tolist())


class EchelonBasis:
    """Incremental row-echelon basis: feed rows, track rank, test membership.

    Rows are kept pivot-normalized (leading coefficient 1) and sorted by
    pivot column, so reduction of an incoming vector is a single pass.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[int]) -> Vec:
        mul, sub = _tables(self.field)
        w = tuple(v)
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                cmul = mul[c]
                w = tuple([sub[a][cmul[b]] for a, b in zip(w, row)])
        return w

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def add(self, v: Sequence[int]) -> bool:
        """Insert v if independent of the current rows; report whether rank grew."""
        if len(v) != self.width:
            raise ValueError(f"row length {len(v)} != width {self.width}")
        w = self.reduce(v)
        for piv, c in enumerate(w):
            if c:
                cmul = _tables(self.field)[0][self.field.inv(c)]
                w = tuple([cmul[a] for a in w])
                at = sum(1 for p in self.pivots if p < piv)
                self.rows.insert(at, w)
                self.pivots.insert(at, piv)
                return True
        return False

    def reduced(self) -> list[Vec]:
        """The rows in reduced row echelon form, by one back-substitution.

        From the last row up, each row is reduced by the rows below it,
        which are reduced already and zero at each other's pivots, so its
        own leading 1 stays.
        """
        done = EchelonBasis(self.field, self.width)
        for row, piv in zip(reversed(self.rows), reversed(self.pivots)):
            done.rows.insert(0, done.reduce(row))
            done.pivots.insert(0, piv)
        return done.rows


def rank(field: FieldSpec, rows: Iterable[Sequence[int]]) -> int:
    """Row rank over F_q by Gaussian elimination."""
    basis: Optional[EchelonBasis] = None
    for row in rows:
        if basis is None:
            basis = EchelonBasis(field, len(row))
        basis.add(row)
    return 0 if basis is None else basis.rank


def kernel_basis(field: FieldSpec, rows: Sequence[Sequence[int]], width: int) -> list[Vec]:
    """Basis of {x : A x^T = 0} for the matrix with the given rows.

    Deterministic: free columns ascending, free coordinate set to 1.
    """
    basis = EchelonBasis(field, width)
    for r in rows:
        basis.add(r)
    pivots = basis.pivots
    reduced = basis.reduced()
    out = []
    for free in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[free] = 1
        for row, piv in zip(reduced, pivots):
            v[piv] = field.neg(row[free])
        out.append(tuple(v))
    return out


def solve(field: FieldSpec, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[Vec]:
    """One solution of A x^T = b (free coordinates 0), or None if inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match row count")
    if not rows:
        return ()
    width = len(rows[0])
    basis = EchelonBasis(field, width + 1)
    for r, b in zip(rows, rhs):
        basis.add((*r, b))
    if basis.pivots and basis.pivots[-1] == width:  # 0 = 1 lies in the row space
        return None
    x = [0] * width
    for row, piv in zip(basis.reduced(), basis.pivots):
        x[piv] = row[width]
    return tuple(x)


def vec_add(field: FieldSpec, u: Sequence[int], v: Sequence[int]) -> Vec:
    check_same_length(u, v)
    return tuple(field.add(a, b) for a, b in zip(u, v))


# -- canonical enumeration ---------------------------------------------------

def unit_vector(m: int, i: int) -> Vec:
    """e_i in F_q^m, 1-based."""
    if not 1 <= i <= m:
        raise ValueError(f"unit index {i} out of range 1..{m}")
    return tuple(1 if j == i - 1 else 0 for j in range(m))


def vector_to_index(q: int, x: Sequence[int]) -> int:
    """The canonical index of x: index_to_vector inverted, one coordinate at a time."""
    idx = 0
    for a in x:
        idx = idx * q + a
    return idx


def enumerate_vectors(field: FieldSpec, m: int, include_zero: bool = False) -> Iterator[Vec]:
    """All of F_q^m in ascending canonical-index order (zero first if included)."""
    q = field.q
    check_enumerable(q, m, f"enumeration guard {ENUM_GUARD}")
    start = 0 if include_zero else 1
    for idx in range(start, q**m):
        yield index_to_vector(q, m, idx)


def projective_classes(field: FieldSpec, k: int) -> Iterator[Vec]:
    """Canonical representatives in ascending canonical-index order."""
    q = field.q
    # Representatives are exactly the vectors whose first nonzero entry is 1:
    # (0...0, 1, tail).  More leading zeros means a smaller canonical index.
    for lead in range(k - 1, -1, -1):
        tail = k - lead - 1
        for idx in range(q**tail):
            yield (0,) * lead + (1,) + index_to_vector(q, tail, idx)


# -- the sequential rank scan --------------------------------------------------

def reference_rank_codeword(y: Sequence[int], D: DefiningSet) -> MinimalityReport:
    """rank_criterion_codeword(y, D) by an EchelonBasis walk over D cap H(y).

    The members of D are visited in the rank scan's order and tested for
    y.d = 0 with dot; a member is kept when it leaves a remainder, until
    k - 1 are kept.  A failing class reports the first class, in
    projective_classes order, that is not y's and is orthogonal to every
    kept row.
    """
    check_message(y, D)
    if not any(y):
        raise ValueError("y must be nonzero")
    if D.rank != D.k:
        raise GuardError(f"rank criterion needs rank(D) = k; got {D.rank} < {D.k}")
    field, k = D.field, D.k
    y = normalize_class(field, y)
    vectors = D.vectors.tolist()
    basis = EchelonBasis(field, k)
    chosen: list[int] = []
    rows: list[Vec] = []
    for i in scan_order(D.n).tolist():
        if basis.rank == k - 1:
            break
        d = tuple(vectors[i])
        if dot(field, y, d) == 0 and basis.add(d):
            chosen.append(i + 1)
            rows.append(d)
    if basis.rank < k - 1:
        covered = next(b for b in projective_classes(field, k)
                       if b != y and not any(dot(field, b, d) for d in rows))
        return MinimalityReport(
            "rank", NOT_MINIMAL, {"y": y, "rank": len(chosen), "covered": covered}
        )
    return MinimalityReport("rank", MINIMAL,
                            RankWitness(y, tuple(chosen), SubspaceBasis(tuple(rows), k)))


# -- lemma-level witness bases ---------------------------------------------------

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
    _check_entries(field, omega)
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
    _check_entries(field, v)
    if not any(v):
        raise ValueError("v must be nonzero")
    m = len(v)
    _, lows = low_basis_against(field, tuple(v))
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
    for row in rows:
        _check_entries(field, row)
    _check_entries(field, rhs)
    if not any(rhs):
        return kernel_basis(field, rows, n)
    x0 = solve(field, rows, rhs)
    if x0 is None:
        raise ValueError("inconsistent linear system")
    sols = [x0] + [vec_add(field, x0, kv) for kv in kernel_basis(field, rows, n)]
    if rank(field, sols) != len(sols):
        raise construction_bug("solution set unexpectedly dependent")
    return sols


def _check_entries(field: FieldSpec, vector: Sequence[int]) -> None:
    """Refuse a coordinate that is not a canonical element, before any table lookup."""
    for a in vector:
        field.check_scalar(a)


def first_solution(field: FieldSpec, rows: Sequence[Vec], rhs: Sequence[int]) -> Vec:
    """solve(field, rows, rhs); an inconsistent system is a construction bug."""
    x0 = solve(field, rows, rhs)
    if x0 is None:
        raise construction_bug(f"system {rows} = {rhs} is inconsistent")
    return x0


def low_basis_against(field: FieldSpec, w: Vec) -> tuple[int, dict[int, Vec]]:
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


def lift_witness(f: FunctionSpec, wb: WitnessBasis) -> tuple[Vec, ...]:
    """The d-vectors (f(alpha), alpha) of a witness basis, f read by reference_value."""
    return tuple((reference_value(f, a),) + a for a in wb.vectors)


# -- the scalar evaluator of f ---------------------------------------------------

def reference_eval(f: FunctionSpec, x: Sequence[int]) -> int:
    """f(x) by the scalar evaluator of each variant, one point at a time."""
    if len(x) != f.m:
        raise ValueError(f"arity mismatch: got {len(x)}, expected {f.m}")
    field, v = f.field, f.variant
    if isinstance(v, TableFunction):
        return v.values[vector_to_index(field.q, x)]
    if isinstance(v, WeightThreshold):
        w = weight(x)
        return v.coeffs[w - 1] if 1 <= w <= v.t else 0
    if isinstance(v, ComplementThreshold):
        return 0 if weight(x) <= v.t else 1
    if isinstance(v, MaioranaMcFarland):
        beta, gamma = x[: v.s], x[v.s:]
        i = vector_to_index(field.q, beta)
        return field.add(dot(field, v.phi[i], gamma), v.g[i])
    acc = 0
    for a, exps in v.terms:
        term = a
        for xi, b in zip(x, exps):
            if b:
                term = field.mul(term, field.pow(xi, b))
                if term == 0:
                    break
        acc = field.add(acc, term)
    return acc


# one table per spec, found by the spec's identity: hashing a spec hashes its
# variant, all q^m values of a table; each entry keeps its spec alive
_TABLES: dict[int, tuple[FunctionSpec, dict[Vec, int]]] = {}


def reference_value(f: FunctionSpec, x: Sequence[int]) -> int:
    """reference_eval(f, x), memoized in one table per spec, filled as points are read."""
    table = _TABLES.setdefault(id(f), (f, {}))[1]
    x = tuple(x)
    value = table.get(x)
    if value is None:
        value = table[x] = reference_eval(f, x)
    return value


def reference_table(f: FunctionSpec) -> list[int]:
    """f over all of F_q^m in canonical order, by reference_value."""
    q, m = f.field.q, f.m
    return [reference_value(f, index_to_vector(q, m, i)) for i in range(q**m)]


# -- the A1, A2 and B hypothesis walks ----------------------------------------------

def vectors_of_weight(field: FieldSpec, m: int, w: int) -> Iterator[Vec]:
    """All x in F_q^m with wt(x) = w, ascending support then values."""
    nonzero = list(field.nonzero())
    for positions in combinations(range(m), w):
        for vals in product(nonzero, repeat=w):
            x = [0] * m
            for pos, a in zip(positions, vals):
                x[pos] = a
            yield tuple(x)


def _low_weight_scalar_check(f: FunctionSpec, expect_nonzero: bool) -> Optional[tuple]:
    """Scan wt 1..2: f(a x) = f(x), and f(x) != 0 / == 0 as requested.

    Returns a witness (x,) or (x, a) on violation, None when clean.
    """
    field = f.field
    for w in (1, 2):
        if w > f.m:
            break
        for x in vectors_of_weight(field, f.m, w):
            fx = reference_eval(f, x)
            if expect_nonzero and fx == 0:
                return (x,)
            if not expect_nonzero and fx != 0:
                return (x,)
            if expect_nonzero:
                for a in field.nonzero():
                    if reference_eval(f, tuple(field.mul(a, c) for c in x)) != fx:
                        return (x, a)
    return None


def _fail(condition: str, witness: Optional[tuple] = None) -> ValidationResult:
    return ValidationResult(False, condition, witness)


def reference_validate(f: FunctionSpec, thm: TheoremId) -> ValidationResult:
    """validate_hypotheses(f, thm) for A1, A2 and B, by scalar walks."""
    field, m, q = f.field, f.m, f.field.q
    check_enumerable(q, m, "validation guard")

    if thm is TheoremId.A1:
        if q <= 2:
            return _fail("A1 requires q > 2")
        if m < 3:
            return _fail("A1 requires m >= 3")
        bad = _low_weight_scalar_check(f, expect_nonzero=True)
        if bad:
            return _fail("A1(1): f(ax) = f(x) != 0 for 1 <= wt(x) <= 2", bad)
        for x in vectors_of_weight(field, m, m):
            if reference_eval(f, x) != 0:
                return _fail("A1(2): f(x) = 0 for wt(x) = m", (x,))
        return ValidationResult(True)

    if thm is TheoremId.A2:
        if q != 2:
            return _fail("A2 requires q = 2")
        if m < 4:
            return _fail("A2 requires m >= 4")
        bad = _low_weight_scalar_check(f, expect_nonzero=True)
        if bad:
            return _fail("A2(1): f(x) = 1 for 1 <= wt(x) <= 2", bad)
        lo = m - 1 if m % 2 == 0 else m - 2
        for w in range(lo, m + 1):
            for x in vectors_of_weight(field, m, w):
                if reference_eval(f, x) != 0:
                    return _fail("A2(2): f(x) = 0 on the top weights", (x,))
        return ValidationResult(True)

    if thm is TheoremId.B:
        bad = _low_weight_scalar_check(f, expect_nonzero=False)
        if bad:
            return _fail("B(1): f(x) = 0 for 1 <= wt(x) <= 2", bad)
        for w in range(max(m - 1, 1), m + 1):
            for x in vectors_of_weight(field, m, w):
                fx = reference_eval(f, x)
                if fx == 0:
                    return _fail("B(2): f(x) != 0 for wt(x) >= m-1", (x,))
                for a in field.nonzero():
                    if reference_eval(f, tuple(field.mul(a, c) for c in x)) != fx:
                        return _fail("B(2): f(ax) = f(x) for wt(x) >= m-1", (x, a))
        return ValidationResult(True)

    raise ValueError(f"no scalar walk for {thm.value}")
