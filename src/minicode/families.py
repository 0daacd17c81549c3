"""q-ary functions f: F_q^m -> F_q and the four parametric families.

A FunctionSpec is either a dense table or one of the parametric variants
(weight-threshold, complement-threshold, Maiorana-McFarland, monomial sum).
Every reader of f goes through its one evaluator, FunctionSpec.at, which
evaluates f at the rows of an array: eval is at on one checked point, and
table, the values D_f and the certificates read, is at over F_q^m once.

validate_hypotheses checks, over the quantified domain, every hypothesis a
construction theorem places on f, one weight class at a time as arrays,
and reports the first violated condition together with a witness point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .gf import FieldSpec, field_by_order, make_field
from .linalg import (
    DOT_BLOCK,
    check_enumerable,
    fields,
    index_to_vector,
    np_digits,
    np_indices,
    np_vectors,
    split_header,
    text_pieces,
    token_value,
    token_values,
    write_text,
)


# -- variants -----------------------------------------------------------------

@dataclass(frozen=True)
class TableFunction:
    values: tuple[int, ...]  # q^m values in canonical x-order, zero vector first


@dataclass(frozen=True)
class WeightThreshold:
    """f(x) = a_{wt(x)} when 1 <= wt(x) <= t, else 0; all a_i nonzero."""

    t: int
    coeffs: tuple[int, ...]  # a_1..a_t


@dataclass(frozen=True)
class ComplementThreshold:
    """f(x) = 0 when wt(x) <= t, else 1."""

    t: int


@dataclass(frozen=True)
class MaioranaMcFarland:
    """f(beta, gamma) = phi(beta).gamma + g(beta) on F_q^s x F_q^t."""

    s: int
    t: int
    phi: tuple[tuple[int, ...], ...]  # q^s entries, each a vector in F_q^t
    g: tuple[int, ...]  # q^s scalars


@dataclass(frozen=True)
class MonomialSum:
    """f(x) = sum_j a_j prod_i x_i^{b_ji}, evaluated with 0^0 = 1."""

    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (a_j, exponent vector)


Variant = Union[TableFunction, WeightThreshold, ComplementThreshold,
                MaioranaMcFarland, MonomialSum]


def _is_power(q: int, m: int, length: int) -> bool:
    """length == q^m, without computing q^m when it exceeds length.

    q >= 2, so q^m > length as soon as m exceeds length's bit length; a
    huge arity in a header is then refused at once.
    """
    return m <= length.bit_length() and q**m == length


def monomial_support(exponents: Sequence[int]) -> frozenset[int]:
    """s(g): 1-based indices with nonzero exponent."""
    return frozenset(i + 1 for i, b in enumerate(exponents) if b)


@dataclass(frozen=True)
class FunctionSpec:
    field: FieldSpec
    m: int
    variant: Variant

    def __post_init__(self) -> None:
        q, m, v = self.field.q, self.m, self.variant
        if m < 1:
            raise ValueError("arity m must be >= 1")
        if isinstance(v, TableFunction):
            if not _is_power(q, m, len(v.values)):
                raise ValueError(f"table length {len(v.values)} != q^m = {q}^{m}")
            self.field.check_scalars(v.values)
        elif isinstance(v, WeightThreshold):
            if not 1 <= v.t <= m:
                raise ValueError(f"threshold t = {v.t} out of range 1..{m}")
            if len(v.coeffs) != v.t or 0 in v.coeffs:
                raise ValueError("weight-threshold coefficients must be t nonzero scalars")
            for a in v.coeffs:
                self.field.check_scalar(a)
        elif isinstance(v, ComplementThreshold):
            if not 0 <= v.t <= m:
                raise ValueError(f"threshold t = {v.t} out of range 0..{m}")
        elif isinstance(v, MaioranaMcFarland):
            if v.s + v.t != m:
                raise ValueError(f"s + t = {v.s}+{v.t} != m = {m}")
            if not (_is_power(q, v.s, len(v.phi)) and _is_power(q, v.s, len(v.g))):
                raise ValueError("phi and g tables must have q^s entries")
            for img in v.phi:
                if len(img) != v.t:
                    raise ValueError("phi values must lie in F_q^t")
                for a in img:
                    self.field.check_scalar(a)
            self.field.check_scalars(v.g)
        elif isinstance(v, MonomialSum):
            if not v.terms:
                raise ValueError("monomial sum needs at least one term")
            for a, exps in v.terms:
                self.field.check_scalar(a)
                if a == 0:
                    raise ValueError(f"monomial coefficient {a} must be nonzero")
                if len(exps) != m or any(b < 0 for b in exps):
                    raise ValueError("exponent vectors must be m nonnegative integers")
        else:
            raise TypeError(f"unknown variant {type(v).__name__}")

    def eval(self, x: Sequence[int]) -> int:
        """f(x): at on one point, whose coordinates are checked first (ValueError).

        One call costs a few numpy calls: a caller with many points passes them to at.
        """
        if len(x) != self.m:
            raise ValueError(f"arity mismatch: got {len(x)}, expected {self.m}")
        for a in x:
            self.field.check_scalar(a)
        return int(self.at(np.array(x, dtype=np.int64)))

    __call__ = eval

    def at(self, X) -> np.ndarray:
        """f at each row of an (..., m) integer array X of canonical elements, in the element type.

        One numpy branch per variant, through the field's flat tables: a
        table is read at each row's canonical index, a threshold by the
        row's weight; Maiorana-McFarland reads phi and g at the index of
        beta and adds phi(beta).gamma; a monomial sum adds products of
        powers, each read from the powers of all q elements, which are taken
        by square-and-multiply once per field and exponent.  Only the given
        points are evaluated.
        """
        X = np.asarray(X)
        field, v, dtype = self.field, self.variant, self.field.element_dtype
        if isinstance(v, TableFunction):
            return self.table.take(np_indices(field.q, X))
        if isinstance(v, WeightThreshold):
            return np.array((0, *v.coeffs) + (0,) * (self.m - v.t), dtype).take(
                np.count_nonzero(X, axis=-1))
        if isinstance(v, ComplementThreshold):
            return (np.count_nonzero(X, axis=-1) > v.t).astype(dtype)
        if isinstance(v, MaioranaMcFarland):
            i = np_indices(field.q, X[..., :v.s])
            out = self._phi_g[v.t].take(i)
            for j in range(v.t):
                out = field.vadd(out, field.vmul(self._phi_g[j].take(i), X[..., v.s + j]))
            return out
        out = np.zeros(X.shape[:-1], dtype)
        for a, exps in v.terms:
            term = a
            for i, b in enumerate(exps):
                if b:  # 0^0 = 1
                    term = field.vmul(term, _powers(field, b).take(X[..., i]))
            out = field.vadd(out, term)
        return out

    @cached_property
    def _phi_g(self) -> np.ndarray:
        """The t + 1 rows phi_1, ..., phi_t, g of a Maiorana-McFarland spec, by index of beta."""
        return np.array([*zip(*self.variant.phi), self.variant.g], dtype=self.field.element_dtype)

    @cached_property
    def table(self) -> np.ndarray:
        """f over all of F_q^m in canonical order (zero vector first), read-only, in the element type.

        at over every vector, once per spec, after the enumeration guard;
        cached outside the dataclass fields, so equality and hashing are unchanged.
        """
        q, m, v = self.field.q, self.m, self.variant
        check_enumerable(q, m)
        if isinstance(v, TableFunction):
            out = np.array(v.values, dtype=self.field.element_dtype)
        else:
            out = self.at(np_digits(q, m, np.arange(q**m), self.field.element_dtype))
        out.flags.writeable = False
        return out

    def values(self) -> tuple[int, ...]:
        """The table as a tuple of ints."""
        return tuple(self.table.tolist())

    def materialize(self) -> "FunctionSpec":
        """The equivalent dense-table spec (identity on Table variants), built once per spec."""
        return self if isinstance(self.variant, TableFunction) else self._dense

    @cached_property
    def _dense(self) -> "FunctionSpec":
        return FunctionSpec(self.field, self.m, TableFunction(self.values()))


@lru_cache(maxsize=64)
def _powers(field: FieldSpec, n: int) -> np.ndarray:
    """a^n for every element a, n >= 1, by square-and-multiply through vmul.

    A shared read-only array, made on first use for each (field, n) and
    kept in a bounded cache, so a spec's at pays for it once, not per call.
    """
    acc, x = 1, np.arange(field.q)
    while n:
        if n & 1:
            acc = field.vmul(acc, x)
        x, n = field.vmul(x, x), n >> 1
    acc.flags.writeable = False
    return acc


# -- theorem hypothesis validation ---------------------------------------------

class TheoremId(enum.Enum):
    A1 = "A1"  # first construction, q > 2
    A2 = "A2"  # first construction, q = 2
    B = "B"    # second (complement-threshold style) construction
    C1 = "C1"  # Maiorana-McFarland, q > 2
    C2 = "C2"  # Maiorana-McFarland, q = 2
    D1 = "D1"  # monomial sums, #s(g_j) >= 3
    D2 = "D2"  # monomial sums, square-free, #s(g_j) >= 2


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(condition: str, witness: Optional[tuple] = None) -> ValidationResult:
    return ValidationResult(False, condition, witness)


_PASS = ValidationResult(True)


def vectors_of_weight(field: FieldSpec, m: int, w: int, start: int = 0,
                      stop: Optional[int] = None) -> np.ndarray:
    """Rows start .. stop - 1 of the x in F_q^m with wt(x) = w, ascending support then values.

    Every row by default, as an int64 array.  Row r holds the base-(q - 1)
    digits of r mod (q - 1)^w, plus one, at the support of index
    r div (q - 1)^w in the lexicographic list of the C(m, w) supports,
    which is built in full: w is meant to be near 0 or near m.
    """
    V = (field.q - 1) ** w
    supports = np.array(list(combinations(range(m), w)), dtype=np.intp).reshape(math.comb(m, w), w)
    stop = len(supports) * V if stop is None else min(stop, len(supports) * V)
    r = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((len(r), m), dtype=np.int64)
    np.put_along_axis(out, supports[r // V], np_digits(field.q - 1, w, r % V) + 1, axis=1)
    return out


def _first_failure(f: FunctionSpec, weights: Sequence[int], nonzero: bool) -> Optional[tuple]:
    """The first x of the given weights, in vectors_of_weight order, that breaks the walk's condition.

    The condition is "f(x) != 0 and f(a x) = f(x) for every a != 0" when
    nonzero, else "f(x) = 0".  The witness is (x,), or (x, a) for the least
    a with f(a x) != f(x); None when every x holds.  Each weight class is
    evaluated as arrays, in blocks of about DOT_BLOCK coordinates, and the
    walk stops at the first block that fails.
    """
    field, m, q = f.field, f.m, f.field.q
    scalars = np.arange(1, q if nonzero else 2)
    rows = max(1, DOT_BLOCK // (len(scalars) * m))
    for w in weights:
        size = math.comb(m, w) * (q - 1) ** w
        for start in range(0, size, rows):
            X = vectors_of_weight(field, m, w, start, start + rows)[:, None]
            F = f.at(field.vmul(scalars[:, None], X) if nonzero else X)  # f(a x), B x scalars
            fx = F[:, :1]
            bad = (fx == 0) | (F != fx) if nonzero else fx != 0
            if bad.any():
                i, j = divmod(int(bad.argmax()), len(scalars))
                x = tuple(X[i, 0].tolist())
                return (x, int(scalars[j])) if j else (x,)
    return None


def validate_hypotheses(f: FunctionSpec, thm: TheoremId) -> ValidationResult:
    """Exhaustively verify the hypotheses of one construction theorem on f.

    A huge arity is refused first (linalg.check_enumerable), before any walk
    over the vectors of F_q^m.
    """
    field, m, q = f.field, f.m, f.field.q
    check_enumerable(q, m, "validation guard")

    low = [w for w in (1, 2) if w <= m]
    if thm is TheoremId.A1:
        if q <= 2:
            return _fail("A1 requires q > 2")
        if m < 3:
            return _fail("A1 requires m >= 3")
        bad = _first_failure(f, low, nonzero=True)
        if bad:
            return _fail("A1(1): f(ax) = f(x) != 0 for 1 <= wt(x) <= 2", bad)
        bad = _first_failure(f, [m], nonzero=False)
        if bad:
            return _fail("A1(2): f(x) = 0 for wt(x) = m", bad)
        return _PASS

    if thm is TheoremId.A2:
        if q != 2:
            return _fail("A2 requires q = 2")
        if m < 4:
            return _fail("A2 requires m >= 4")
        bad = _first_failure(f, low, nonzero=True)
        if bad:
            return _fail("A2(1): f(x) = 1 for 1 <= wt(x) <= 2", bad)
        bad = _first_failure(f, range(m - 1 if m % 2 == 0 else m - 2, m + 1), nonzero=False)
        if bad:
            return _fail("A2(2): f(x) = 0 on the top weights", bad)
        return _PASS

    if thm is TheoremId.B:
        bad = _first_failure(f, low, nonzero=False)
        if bad:
            return _fail("B(1): f(x) = 0 for 1 <= wt(x) <= 2", bad)
        bad = _first_failure(f, range(max(m - 1, 1), m + 1), nonzero=True)
        if bad:
            return _fail("B(2): f(ax) = f(x) for wt(x) >= m-1" if len(bad) == 2
                         else "B(2): f(x) != 0 for wt(x) >= m-1", bad)
        return _PASS

    if thm in (TheoremId.C1, TheoremId.C2):
        v = f.variant
        if not isinstance(v, MaioranaMcFarland):
            raise ValueError(f"{thm.value} needs a Maiorana-McFarland spec, got "
                             f"{type(v).__name__}")
        if thm is TheoremId.C1 and q <= 2:
            return _fail("C1 requires q > 2")
        if thm is TheoremId.C2 and q != 2:
            return _fail("C2 requires q = 2")
        if v.s < 2 or v.t < 2:
            return _fail(f"{thm.value} requires s >= 2 and t >= 2")
        c = v.g[0]
        for i, gv in enumerate(v.g):
            if gv != c:
                return _fail(f"{thm.value}: g must be constant",
                             (index_to_vector(q, v.s, i),))
        if c == 0:
            return _fail(f"{thm.value}: g must be a nonzero constant")
        if thm is TheoremId.C2 and c != 1:
            return _fail("C2: g must be identically 1")
        U = np.concatenate([np.zeros((1, v.s), dtype=np.int64), vectors_of_weight(field, v.s, 1)])
        images = {}
        for beta, i in zip(map(tuple, U.tolist()), np_indices(q, U).tolist()):
            img = v.phi[i]
            if not any(img):
                return _fail(f"{thm.value}(1): phi must avoid 0 on U", (beta,))
            if img in images:
                return _fail(f"{thm.value}(1): phi must be injective on U",
                             (images[img], beta))
            images[img] = beta
        if thm is TheoremId.C2:
            B2 = vectors_of_weight(field, v.s, 2)
            for beta, i in zip(B2.tolist(), np_indices(q, B2).tolist()):
                if any(v.phi[i]):
                    return _fail("C2(1): phi(beta) = 0 for wt(beta) = 2", (tuple(beta),))
        return _PASS

    if thm in (TheoremId.D1, TheoremId.D2):
        v = f.variant
        if not isinstance(v, MonomialSum):
            raise ValueError(f"{thm.value} needs a monomial-sum spec, got "
                             f"{type(v).__name__}")
        if len(v.terms) < 2:
            return _fail(f"{thm.value} requires t >= 2 monomials")
        supports = [monomial_support(exps) for _, exps in v.terms]
        seen: set[int] = set()
        for j, s in enumerate(supports):
            if s & seen:
                return _fail(f"{thm.value}(1): monomial supports must be disjoint",
                             (j + 1, tuple(sorted(s & seen))))
            seen |= s
        lo = 3 if thm is TheoremId.D1 else 2
        for j, s in enumerate(supports):
            if len(s) < lo:
                return _fail(f"{thm.value}(2): #s(g_j) >= {lo}", (j + 1,))
        if thm is TheoremId.D2:
            for j, (_, exps) in enumerate(v.terms):
                if any(b not in (0, 1) for b in exps):
                    return _fail("D2(3): exponents must lie in {0, 1}", (j + 1,))
        return _PASS

    raise ValueError(f"unknown theorem id {thm!r}")


# -- named presets ---------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    name: str
    function: FunctionSpec
    theorem: Optional[TheoremId]


def _phi_diag_table(field: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """The phi of the Maiorana-McFarland example (s=4, t=3).

    (x1,x2,x3) when that head has weight 1; (x4,...,x4) when the head is
    zero; (1,0,0) otherwise.  This is the reading that reproduces the
    published tables; note phi(0) = 0, so the map still falls outside the
    construction theorems' hypotheses on U (kept on purpose, flagged by
    validate_hypotheses rather than repaired).
    """
    beta = np_vectors(field.q, 4, 0, field.q**4)
    hw = np.count_nonzero(beta[:, :3], axis=1)[:, None]
    phi = np.where(hw == 1, beta[:, :3], np.where(hw == 0, beta[:, 3:], (1, 0, 0)))
    return tuple(map(tuple, phi.tolist()))


def _phi_dhz_table() -> tuple[tuple[int, ...], ...]:
    """A fixed injection U -> F_2^3 \\ {0} that is 0 off U (s=4, t=3).

    0 maps to e_1; e_i maps to the bit pattern of i+1, least significant bit
    in coordinate 1.  Any injection works; this one is just deterministic.
    """
    beta = np_vectors(2, 4, 0, 16)
    w = np.count_nonzero(beta, axis=1)
    code = np.where(w == 0, 1, np.where(w == 1, beta.argmax(axis=1) + 2, 0))
    return tuple(map(tuple, (code[:, None] >> np.arange(3) & 1).tolist()))


def _build_presets() -> dict[str, Preset]:
    f2, f3 = make_field(2), make_field(3)
    presets: dict[str, Preset] = {}

    def add(name: str, fn: FunctionSpec, thm: Optional[TheoremId]) -> None:
        presets[name] = Preset(name, fn, thm)

    def table(field: FieldSpec, m: int, rule) -> FunctionSpec:
        """The table of rule(x, wt(x)) on the rows x of all of F_q^m."""
        x = np_vectors(field.q, m, 0, field.q**m)
        return FunctionSpec(field, m, TableFunction(tuple(
            rule(x, np.count_nonzero(x, axis=1)).tolist())))

    add("sec4_f1", FunctionSpec(f3, 4, WeightThreshold(2, (1, 1))), TheoremId.A1)
    # 1 on weights 1 and 2, x_1 on weight 3, 0 elsewhere
    add("sec4_f2", table(f3, 4, lambda x, w: np.select([(1 <= w) & (w <= 2), w == 3], [1, x[:, 0]])),
        TheoremId.A1)
    add("sec5_f1", FunctionSpec(f2, 5, ComplementThreshold(2)), TheoremId.B)
    add("sec5_f2", FunctionSpec(f2, 5, ComplementThreshold(3)), TheoremId.B)

    # 0 up to weight 2, x_1 + x_2 on weight 3, 1 from weight 4
    add("sec5_f3", table(f2, 5, lambda x, w: np.select([w <= 2, w == 3], [0, (x[:, 0] + x[:, 1]) % 2], 1)),
        TheoremId.B)

    for name, fld, thm in (("sec6_q2", f2, TheoremId.C2), ("sec6_q3", f3, TheoremId.C1)):
        mm = MaioranaMcFarland(4, 3, _phi_diag_table(fld), (1,) * fld.q**4)
        add(name, FunctionSpec(fld, 7, mm), thm)

    def monomials(m: int, *blocks: tuple[int, ...]) -> MonomialSum:
        terms = []
        for blk in blocks:
            exps = [0] * m
            for i in blk:
                exps[i - 1] = 1
            terms.append((1, tuple(exps)))
        return MonomialSum(tuple(terms))

    add("sec7_f1", FunctionSpec(f3, 8, monomials(8, (1, 2, 3, 4), (5, 6, 7, 8))),
        TheoremId.D1)
    add("sec7_f2", FunctionSpec(f3, 8, monomials(8, (1, 2), (3, 4), (5, 6), (7, 8))),
        TheoremId.D2)
    add("sec7_f3", FunctionSpec(f3, 8, monomials(8, (1, 2, 3), (4, 5, 6, 7, 8))),
        TheoremId.D1)
    add("sec7_f4", FunctionSpec(f3, 8, monomials(8, (1, 2, 3), (4, 5, 6, 7))),
        TheoremId.D1)

    dhz = MaioranaMcFarland(4, 3, _phi_dhz_table(), (1,) * 16)
    add("dhz_m7", FunctionSpec(f2, 7, dhz), TheoremId.C2)

    return presets


_PRESETS: Optional[dict[str, Preset]] = None


def paper_presets() -> dict[str, Preset]:
    """The named function specs reproduced by the repro suite (stable identity)."""
    global _PRESETS
    if _PRESETS is None:
        _PRESETS = _build_presets()
    return dict(_PRESETS)


def get_preset(name: str) -> Preset:
    presets = paper_presets()
    if name not in presets:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(sorted(presets))}")
    return presets[name]


# -- function file format --------------------------------------------------------

def _chunked(values: Sequence[int], per_line: int = 32) -> list[str]:
    return [" ".join(str(v) for v in values[i:i + per_line])
            for i in range(0, len(values), per_line)]


def write_function(out: Union[str, TextIO], f: FunctionSpec) -> None:
    """Function file: header "q m variant", then the variant's integers."""
    field, m, v = f.field, f.m, f.variant
    lines: list[str]
    if isinstance(v, TableFunction):
        lines = [f"{field.q} {m} table"] + _chunked(v.values)
    elif isinstance(v, WeightThreshold):
        lines = [f"{field.q} {m} weight_threshold", str(v.t),
                 " ".join(str(a) for a in v.coeffs)]
    elif isinstance(v, ComplementThreshold):
        lines = [f"{field.q} {m} complement_threshold", str(v.t)]
    elif isinstance(v, MaioranaMcFarland):
        lines = [f"{field.q} {m} maiorana_mcfarland", f"{v.s} {v.t}"]
        lines += [" ".join(str(a) for a in img) for img in v.phi]
        lines += _chunked(v.g)
    elif isinstance(v, MonomialSum):
        lines = [f"{field.q} {m} monomial_sum", str(len(v.terms))]
        lines += [" ".join(str(t) for t in (a, *exps)) for a, exps in v.terms]
    else:  # pragma: no cover - guarded at construction
        raise TypeError(type(v).__name__)
    write_text(out, ["\n".join(lines) + "\n"])


def read_function(src: Union[str, TextIO]) -> FunctionSpec:
    """The function file format: its header, then the variant's integers as tokens."""
    with text_pieces(src) as pieces:
        first, line, body = split_header(pieces)
        if first is None:
            raise ValueError("empty function file")
        head = fields(first)
        q = token_value(head[0]) if len(head) == 3 else None
        if q is None:
            raise ValueError(f"bad function header {first!r}")
        field, m, kind = field_by_order(q), token_value(head[1]), head[2]
        if not m:
            raise ValueError(f"arity m = {head[1]} must be >= 1")
        flat = token_values(body, line, ValueError).tolist()
    return _function_spec(field, m, kind, flat)


def _function_spec(field: FieldSpec, m: int, kind: str, flat: list[int]) -> FunctionSpec:
    """The FunctionSpec of a variant's integers, read by read_function."""
    q = field.q
    lead = {"weight_threshold": 1, "complement_threshold": 1,
            "maiorana_mcfarland": 2, "monomial_sum": 1}.get(kind, 0)
    if len(flat) < lead:
        raise ValueError(f"{kind} body needs at least {lead} ints, found {len(flat)}")
    if kind == "table":
        return FunctionSpec(field, m, TableFunction(tuple(flat)))
    if kind == "weight_threshold":
        t = flat[0]
        if len(flat) != 1 + t:
            raise ValueError(f"weight_threshold body has {len(flat)} ints, expected {1 + t}")
        return FunctionSpec(field, m, WeightThreshold(t, tuple(flat[1:])))
    if kind == "complement_threshold":
        if len(flat) != 1:
            raise ValueError(f"complement_threshold body has {len(flat)} ints, expected 1")
        return FunctionSpec(field, m, ComplementThreshold(flat[0]))
    if kind == "maiorana_mcfarland":
        s, t = flat[0], flat[1]
        if s + t != m:
            raise ValueError(f"maiorana_mcfarland needs s + t = m, got {s}, {t}")
        rest = flat[2:]
        if len(rest) % (t + 1) or not _is_power(q, s, len(rest) // (t + 1)):
            raise ValueError(
                f"maiorana_mcfarland body has {len(rest)} ints, expected (t + 1) q^s "
                f"with t = {t}, q^s = {q}^{s}"
            )
        phi = tuple(tuple(rest[i * t:(i + 1) * t]) for i in range(q**s))
        g = tuple(rest[q**s * t:])
        return FunctionSpec(field, m, MaioranaMcFarland(s, t, phi, g))
    if kind == "monomial_sum":
        nterms = flat[0]
        rest = flat[1:]
        if len(rest) != nterms * (m + 1):
            raise ValueError("monomial_sum body length mismatch")
        terms = tuple(
            (rest[i * (m + 1)], tuple(rest[i * (m + 1) + 1:(i + 1) * (m + 1)]))
            for i in range(nterms)
        )
        return FunctionSpec(field, m, MonomialSum(terms))
    raise ValueError(f"unknown function variant {kind!r}")
