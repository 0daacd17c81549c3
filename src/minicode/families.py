"""q-ary functions f: F_q^m -> F_q and the four parametric families.

A FunctionSpec is either a dense table or one of the parametric variants
(weight-threshold, complement-threshold, Maiorana-McFarland, monomial sum).
Parametric specs stay symbolic until a table is needed; materialize() is the
universal fallback and is deterministic, so named presets are stable.

validate_hypotheses checks, point by point over the quantified domain, every
hypothesis a construction theorem places on f, and reports the first
violated condition together with a witness point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

from .gf import FieldSpec, field_by_order, make_field
from .linalg import (
    Vec,
    check_enumerable,
    dot,
    index_to_vector,
    text_lines,
    vector_to_index,
    weight,
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
            for a in v.values:
                self.field.check_scalar(a)
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
            for a in v.g:
                self.field.check_scalar(a)
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
        if len(x) != self.m:
            raise ValueError(f"arity mismatch: got {len(x)}, expected {self.m}")
        field, v = self.field, self.variant
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

    __call__ = eval

    def materialize(self) -> "FunctionSpec":
        """The equivalent dense-table spec (identity on Table variants).

        Built once per spec: the table of a parametric variant is cached on
        the instance, outside the dataclass fields, so equality and hashing
        are unchanged.
        """
        if isinstance(self.variant, TableFunction):
            return self
        return self._dense

    @cached_property
    def _dense(self) -> "FunctionSpec":
        return FunctionSpec(self.field, self.m, TableFunction(tuple(self.values())))

    def values(self) -> Iterator[int]:
        """f over all of F_q^m in canonical order (zero vector first)."""
        q = self.field.q
        check_enumerable(q, self.m)
        for idx in range(q**self.m):
            yield self.eval(index_to_vector(q, self.m, idx))


def table_from_rule(field: FieldSpec, m: int, rule: Callable[[Vec], int]) -> FunctionSpec:
    q = field.q
    values = tuple(rule(index_to_vector(q, m, i)) for i in range(q**m))
    return FunctionSpec(field, m, TableFunction(values))


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
            fx = f.eval(x)
            if expect_nonzero and fx == 0:
                return (x,)
            if not expect_nonzero and fx != 0:
                return (x,)
            if expect_nonzero:
                for a in field.nonzero():
                    if f.eval(tuple(field.mul(a, c) for c in x)) != fx:
                        return (x, a)
    return None


def validate_hypotheses(f: FunctionSpec, thm: TheoremId) -> ValidationResult:
    """Exhaustively verify the hypotheses of one construction theorem on f.

    A huge arity is refused first (linalg.check_enumerable), before any walk
    over the vectors of F_q^m.
    """
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
            if f.eval(x) != 0:
                return _fail("A1(2): f(x) = 0 for wt(x) = m", (x,))
        return _PASS

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
                if f.eval(x) != 0:
                    return _fail("A2(2): f(x) = 0 on the top weights", (x,))
        return _PASS

    if thm is TheoremId.B:
        bad = _low_weight_scalar_check(f, expect_nonzero=False)
        if bad:
            return _fail("B(1): f(x) = 0 for 1 <= wt(x) <= 2", bad)
        for w in range(max(m - 1, 1), m + 1):
            for x in vectors_of_weight(field, m, w):
                fx = f.eval(x)
                if fx == 0:
                    return _fail("B(2): f(x) != 0 for wt(x) >= m-1", (x,))
                for a in field.nonzero():
                    if f.eval(tuple(field.mul(a, c) for c in x)) != fx:
                        return _fail("B(2): f(ax) = f(x) for wt(x) >= m-1", (x, a))
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
        u_points = [tuple([0] * v.s)]
        u_points += [x for x in vectors_of_weight(field, v.s, 1)]
        images = {}
        for beta in u_points:
            img = v.phi[vector_to_index(q, beta)]
            if not any(img):
                return _fail(f"{thm.value}(1): phi must avoid 0 on U", (beta,))
            if img in images:
                return _fail(f"{thm.value}(1): phi must be injective on U",
                             (images[img], beta))
            images[img] = beta
        if thm is TheoremId.C2:
            for beta in vectors_of_weight(field, v.s, 2):
                if any(v.phi[vector_to_index(q, beta)]):
                    return _fail("C2(1): phi(beta) = 0 for wt(beta) = 2", (beta,))
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


def _phi_diag_table(field: FieldSpec, s: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The phi of the Maiorana-McFarland example (s=4, t=3).

    (x1,x2,x3) when that head has weight 1; (x4,...,x4) when the head is
    zero; (1,0,0) otherwise.  This is the reading that reproduces the
    published tables; note phi(0) = 0, so the map still falls outside the
    construction theorems' hypotheses on U (kept on purpose, flagged by
    validate_hypotheses rather than repaired).
    """
    q = field.q
    out = []
    for i in range(q**s):
        beta = index_to_vector(q, s, i)
        head = beta[:3]
        hw = weight(head)
        if hw == 1:
            out.append(head)
        elif hw == 0:
            out.append((beta[3],) * t)
        else:
            out.append(tuple([1] + [0] * (t - 1)))
    return tuple(out)


def _phi_dhz_table(field: FieldSpec, s: int, t: int) -> tuple[tuple[int, ...], ...]:
    """A fixed injection U -> F_2^t \\ {0} that is 0 off U (s=4, t=3).

    0 maps to e_1; e_i maps to the bit pattern of i+1, least significant bit
    in coordinate 1.  Any injection works; this one is just deterministic.
    """
    q = field.q
    out = []
    for i in range(q**s):
        beta = index_to_vector(q, s, i)
        w = weight(beta)
        if w == 0:
            out.append(tuple([1] + [0] * (t - 1)))
        elif w == 1:
            pos = next(j for j, b in enumerate(beta) if b)
            code = pos + 2
            out.append(tuple((code >> j) & 1 for j in range(t)))
        else:
            out.append(tuple([0] * t))
    return tuple(out)


def _build_presets() -> dict[str, Preset]:
    f2, f3 = make_field(2), make_field(3)
    presets: dict[str, Preset] = {}

    def add(name: str, fn: FunctionSpec, thm: Optional[TheoremId]) -> None:
        presets[name] = Preset(name, fn, thm)

    add("sec4_f1", FunctionSpec(f3, 4, WeightThreshold(2, (1, 1))), TheoremId.A1)

    def sec4_f2_rule(x: Vec) -> int:
        w = weight(x)
        if 1 <= w <= 2:
            return 1
        if w == 3:
            return x[0]
        return 0

    add("sec4_f2", table_from_rule(f3, 4, sec4_f2_rule), TheoremId.A1)

    add("sec5_f1", FunctionSpec(f2, 5, ComplementThreshold(2)), TheoremId.B)
    add("sec5_f2", FunctionSpec(f2, 5, ComplementThreshold(3)), TheoremId.B)

    def sec5_f3_rule(x: Vec) -> int:
        w = weight(x)
        if w <= 2:
            return 0
        if w == 3:
            return (x[0] + x[1]) % 2
        return 1

    add("sec5_f3", table_from_rule(f2, 5, sec5_f3_rule), TheoremId.B)

    for name, fld, thm in (("sec6_q2", f2, TheoremId.C2), ("sec6_q3", f3, TheoremId.C1)):
        mm = MaioranaMcFarland(4, 3, _phi_diag_table(fld, 4, 3), (1,) * fld.q**4)
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

    dhz = MaioranaMcFarland(4, 3, _phi_dhz_table(f2, 4, 3), (1,) * 16)
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
    with text_lines(src) as lines:
        first = next(lines, None)
        if first is None:
            raise ValueError("empty function file")
        head = first.split()
        if len(head) != 3:
            raise ValueError(f"bad function header {first!r}")
        q, m, kind = int(head[0]), int(head[1]), head[2]
        field = field_by_order(q)
        if m < 1:
            raise ValueError(f"arity m = {m} must be >= 1")
        flat = [int(t) for ln in lines for t in ln.split()]
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
        if s < 0 or t < 0 or s + t != m:
            raise ValueError(f"maiorana_mcfarland needs s, t >= 0 with s + t = m, got {s}, {t}")
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
