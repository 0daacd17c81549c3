"""Arithmetic in small finite fields F_q, q = p^e.

Elements are canonical integers in [0, q).  For e > 1 the base-p digits of
the integer are the polynomial-basis coordinates, least significant digit =
constant term.

A field holds all its tables from the moment it is made, with one numpy
formula for every p and e: the digits D of each element and its
F_p-multiplication matrix M give the q x q addition and multiplication
tables, and those give the rest.  The multiplication table also decides
irreducibility for every degree: a modulus is refused when it shows a zero
divisor.  A field with q*q > NP_TABLE_GUARD (q > 1024) is refused with
GuardError when it is made: without tables neither its modulus nor any
kernel can be checked or run.  The tables are read-only arrays in the
element type, which scalar operations read through q x q memoryviews and
the numpy kernels as flat q*q tables (one ``take`` at a*q + b, an index
formed in intp): vadd, vsub, vmul and vneg apply them elementwise to
arrays.  The chunk tables of np_chunks, built on first use, act on h
coordinates of F_q^c packed into one integer: linalg's one inner-product
kernel and its one elimination kernel read them.

A FieldSpec is immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import GuardError

# Built-in irreducible moduli for p^e <= 64, coefficients ascending
# (constant term first, leading coefficient last, always monic).
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),              # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),           # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),        # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),     # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 2): (1, 0, 1),              # x^2 + 1
    (3, 3): (1, 2, 0, 1),           # x^3 + 2x + 1
    (5, 2): (2, 0, 1),              # x^2 + 2
    (7, 2): (1, 0, 1),              # x^2 + 1
}

NP_TABLE_GUARD = 2**20  # ceiling on q*q for the tables: q <= 1024
FIELD_CACHE = 32  # fields make_field keeps; one of q near 1024 holds about 6 MB of tables
CHUNK_TABLE = 2**16  # entries of a chunk subtraction table, unless q*q is larger


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class ChunkTables(NamedTuple):
    """Tables for vectors of F_q^h packed into chunks x = sum_t x_t q^t, x < Q = q^h.

    h is the largest width whose Q*Q subtraction table has at most
    max(CHUNK_TABLE, q*q) entries, so Q <= 256 whenever h >= 2 and h = 1
    from q = 17 up.  minus and mul hold chunks in the narrowest type for
    Q - 1 (one byte up to q = 256), and dot holds elements in the element
    type; at h = 1 dot is mul.  A row of h coordinates packs to its dot
    product with weights, digits reads one coordinate back, lowest finds
    the first nonzero coordinate of a chunk, a pivot, scale the row of mul
    that divides by it, dot gives the inner product of two chunks in one
    lookup and negdot its negative (dot itself in characteristic 2).  An
    elimination step x - a y is minus[mulq[a*Q + y] + x]: mulq holds each
    product already scaled to a row of minus, so the step is two lookups
    and two additions, with no multiplication by Q, and the index, below
    Q^2, stays in mulq's type (two bytes up to Q = 256).
    """

    h: int
    Q: int
    weights: np.ndarray  # h float32: q^t, the value of digit t
    digits: np.ndarray   # h x Q intp: digits[t, x] = x_t * Q, a row index of mul
    mul: np.ndarray      # q*Q: mul[a*Q + y] = a * y for a in F_q
    lowest: np.ndarray   # Q: lowest[x] = t * Q for the least t with x_t != 0, 0 for x = 0
    dot: np.ndarray      # Q*Q: dot[y*Q + x] = sum_t y_t x_t in F_q
    negdot: np.ndarray   # Q*Q: negdot[y*Q + x] = -dot[y*Q + x]
    scale: np.ndarray    # h*Q intp: scale[t*Q + x] = (1/x_t) * Q, a row index of mul; 0 if x_t = 0
    minus: np.ndarray    # Q*Q: minus[y*Q + x] = x - y, coordinatewise
    mulq: np.ndarray     # q*Q: mulq[a*Q + y] = (a * y) * Q, a row index of minus, below Q^2


class FieldSpec:
    """The field F_q with q = p^e and a fixed irreducible modulus for e > 1.

    Do not instantiate directly; use :func:`make_field` (construction is
    deterministic, and the FIELD_CACHE fields used last are cached by
    (p, e, modulus); a field made again equals the one evicted).

    The numpy views are read-only arrays of the element type
    (element_dtype: one byte up to q = 256), set here: np_add, np_sub and
    np_mul are flat q*q tables (np_add[a*q + b] = a + b) and np_inv[a] = 1/a
    for a != 0 (np_inv[0] = 0 is a placeholder).  They are built from the
    base-p digits D of each element, least significant first, and its
    F_p-multiplication matrix M, digits(a * x) = M[a] @ digits(x) mod p,
    which are not kept.  Scalar operations read them through q x q
    memoryviews, which take int and NumPy integer indices and give Python
    ints.  A field with q > 1024 raises GuardError here.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = q = p**e
        self.modulus = modulus
        if q * q > NP_TABLE_GUARD:
            raise GuardError(f"q^2 = {q}^2 exceeds the numpy table guard {NP_TABLE_GUARD}:"
                             " a field needs its tables")
        D = np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(e, dtype=np.int64) % p
        M = np.zeros((q, e, e), np.int64)
        M[:, :, 0] = D
        # a x^s is a x^(s-1) one digit up, less its top digit times the monic modulus
        for s in range(1, e):
            prev = M[:, :, s - 1]
            M[:, 1:, s] = prev[:, :-1]
            M[:, :, s] -= prev[:, -1:] * np.array(modulus[:e])
            M[:, :, s] %= p
        add = np.zeros((q, q), np.int64)
        mul = np.zeros((q, q), np.int64)
        for s in range(e):
            add += (D[:, s, None] + D[:, s]) % p * p**s
            mul += M[:, s] @ D.T % p * p**s
        if not mul[1:, 1:].all():  # F_p[x]/(modulus) is a field iff it has no zero divisors
            raise ValueError(f"modulus {modulus} is reducible: F_{q} would have zero divisors")
        neg = add.argmin(axis=1)  # the column of the one 0 in each row
        inv = (mul == 1).argmax(axis=1)  # row 0 has no 1: the placeholder np_inv[0] = 0
        dtype = self.element_dtype
        self.np_add, self.np_sub, self.np_mul = (
            _frozen(t.ravel(), dtype) for t in (add, add[:, neg], mul))
        self.np_inv = _frozen(inv, dtype)
        # the same tables as q x q views: an index pair, NumPy integers too, reads a Python int
        self._add, self._sub, self._mul = (
            memoryview(t.reshape(q, q)) for t in (self.np_add, self.np_sub, self.np_mul))
        self._inv = memoryview(self.np_inv)

    # -- scalar operations: one lookup in the tables the kernels read

    def add(self, a: int, b: int) -> int:
        return self._add[a, b]

    def neg(self, a: int) -> int:
        return self._sub[0, a]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a, b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a, b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        """a**n with the convention 0**0 = 1."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = 1
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    # -- numpy views

    def _at(self, a, b) -> np.ndarray:
        """The flat table index a q + b, formed in intp.

        Both steps are taken in intp, also for narrow a and b, or an int a
        against a narrow b, which the element type would wrap.  When a and
        b are arrays of one shape, b is added in place, so the index is the
        call's one intp temporary: with a second one of the same size, glibc
        trimmed and re-faulted their pages on every np_dots call.
        """
        at = np.multiply(a, self.q, dtype=np.intp)
        if isinstance(at, np.ndarray) and at.shape == getattr(b, "shape", None):
            return np.add(at, b, out=at)
        return np.add(at, b, dtype=np.intp)

    def vadd(self, a, b) -> np.ndarray:
        """a + b elementwise for integer arrays (or ints) a and b that broadcast, via np_add.

        The result has the element type.
        """
        return self.np_add.take(self._at(a, b))

    def vsub(self, a, b) -> np.ndarray:
        """a - b elementwise, via np_sub."""
        return self.np_sub.take(self._at(a, b))

    def vmul(self, a, b) -> np.ndarray:
        """a * b elementwise, via np_mul."""
        return self.np_mul.take(self._at(a, b))

    def vneg(self, a) -> np.ndarray:
        """-a elementwise: row 0 of np_sub."""
        return self.np_sub.take(a)

    @cached_property
    def np_chunks(self) -> ChunkTables:
        """The chunk tables of this field, each built from the flat tables at once.

        A table over t + 1 digits is the one-digit table of the top digit,
        times q^t, plus the table over the t digits below it, so each step
        is one broadcast sum that fits the chunk type.  The dot table over
        t + 1 digits adds, in F_q, the product of the top digits to the dot
        table over the t digits below them, and the negated table adds
        their negated product to the negated table below them.
        """
        q = self.q
        h = 1
        while q ** (2 * h + 2) <= max(CHUNK_TABLE, q * q):
            h += 1
        Q = q**h
        dtype = np.min_scalar_type(Q - 1)
        sub1 = self.np_sub.reshape(q, q).astype(dtype)
        mul1 = self.np_mul.reshape(q, q).astype(dtype)
        add = self.np_add.reshape(q, q)
        one = [mul1] if self.p == 2 else [mul1, self.vneg(mul1)]  # a b, and -(a b) unless -1 = 1
        sub, mul, dots = sub1, mul1, [d.astype(self.element_dtype) for d in one]
        for t in range(1, h):
            top = dtype.type(q**t)
            sub = (sub1[:, None, :, None] * top + sub[None, :, None, :]).reshape(q**t * q, -1)
            mul = (mul1[:, :, None] * top + mul[:, None, :]).reshape(q, -1)
            dots = [add[d1[:, None, :, None], d[None, :, None, :]].reshape(q**t * q, -1)
                    for d1, d in zip(one, dots)]
        x = np.arange(Q)
        digits = np.stack([x // q**t % q * Q for t in range(h)])
        dot = _frozen(dots[0].ravel(), self.element_dtype)
        negdot = _frozen(dots[1].ravel(), self.element_dtype) if len(dots) == 2 else dot
        return ChunkTables(
            h, Q, _frozen(q ** np.arange(h), np.float32), _frozen(digits, np.intp),
            _frozen(mul.ravel(), dtype),
            _frozen((digits != 0).argmax(axis=0) * Q, np.min_scalar_type(h * Q)),
            dot, negdot,
            _frozen(np.multiply(self.np_inv.take(digits.ravel() // Q), Q, dtype=np.intp), np.intp),
            _frozen(sub.T.ravel(), dtype),
            _frozen(np.multiply(mul.ravel(), Q, dtype=np.intp), np.min_scalar_type((Q - 1) * Q)),
        )

    @property
    def element_dtype(self) -> np.dtype:
        """The narrowest unsigned type that holds every element: one byte for q <= 256."""
        return np.min_scalar_type(self.q - 1)

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def check_scalar(self, a: int) -> None:
        # a bool is an int to isinstance, but no element: True would pass as 1
        if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of F_{self.q}")

    def check_scalars(self, values: Sequence[int]) -> None:
        """check_scalar on every value, as one range check on the array when every value is an int.

        Other values (bools, floats, NumPy scalars, int subclasses) and any
        value out of range are checked one at a time, so the first bad
        value raises check_scalar's error.
        """
        if set(map(type, values)) <= {int}:
            A = np.array(values)
            if A.dtype.kind in "iu" and A.min() >= 0 and A.max() < self.q:
                return
        for a in values:
            self.check_scalar(a)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"FieldSpec(F_{self.q})"
        return f"FieldSpec(F_{self.q}, modulus={self.modulus})"


def _frozen(values, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=FIELD_CACHE)
def _make_field_cached(p: int, e: int, modulus: tuple[int, ...]) -> FieldSpec:
    return FieldSpec(p, e, modulus)


def make_field(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct (or fetch) the field F_{p^e}.

    For e > 1 a modulus may be supplied as e+1 ascending coefficients of a
    monic irreducible polynomial; otherwise a built-in table supplies one
    for p^e <= 64.  A reducible modulus of any degree is refused with
    ValueError, found by the zero divisors of the field's multiplication
    table, and any field with q > 1024 with GuardError, as it has no tables.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree e = {e} must be >= 1")
    if e == 1:
        if modulus not in (None, (), []):
            raise ValueError("prime fields take no modulus")
        return _make_field_cached(p, 1, ())
    if modulus is None:
        try:
            modulus = _MODULI[(p, e)]
        except KeyError:
            raise ValueError(
                f"no built-in modulus for q = {p}**{e}; supply one explicitly"
            ) from None
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != e + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {e}")
    return _make_field_cached(p, e, modulus)


def field_by_order(q: int) -> FieldSpec:
    """The canonical field of order q (prime-power factorization is unique)."""
    if q < 2:
        raise ValueError(f"invalid field order {q}")
    # the smallest prime factor is at most sqrt(q) unless q itself is prime
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    n = q
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        e += 1
    return make_field(p, e)
