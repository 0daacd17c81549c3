"""Arithmetic in small finite fields F_q, q = p^e.

Elements are canonical integers in [0, q).  For e > 1 the base-p digits of
the integer are the polynomial-basis coordinates, least significant digit =
constant term.  Fields with q <= 256 precompute full add/mul/inv tables,
since the enumeration kernels downstream are table-lookup bound.

The numpy kernels of the package see elements only through the numpy views
built here on first use: flat q*q tables (one ``take`` at a*q + b), which
vadd, vsub, vmul and vneg apply elementwise to arrays, the F_p-digits and
F_p-multiplication matrix of each element, and the chunk tables of
np_chunks, which act on h coordinates of F_q^c packed into one integer.
Each view is a Python loop of up to q*q steps, or numpy built from those,
refused before it starts when q*q > NP_TABLE_GUARD.

A FieldSpec is immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, wraps
from typing import Callable, NamedTuple, Optional, Sequence

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

_TABLE_LIMIT = 256
NP_TABLE_GUARD = 2**20  # ceiling on q*q for the numpy views: q <= 1024
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


def _digits(value: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        value, r = divmod(value, p)
        out.append(r)
    return out


def _undigits(coeffs: Sequence[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mod(num: list[int], modulus: Sequence[int], p: int) -> list[int]:
    """Remainder of num by the monic modulus, coefficients mod p."""
    num = [c % p for c in num]
    deg_m = len(modulus) - 1
    for i in range(len(num) - 1, deg_m - 1, -1):
        c = num[i]
        if c:
            for j in range(deg_m + 1):
                num[i - deg_m + j] = (num[i - deg_m + j] - c * modulus[j]) % p
    return num[:deg_m]


def _poly_has_root(poly: Sequence[int], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _poly_divisible(poly: Sequence[int], divisor: Sequence[int], p: int) -> bool:
    rem = list(poly)
    deg_d = len(divisor) - 1
    lead_inv = pow(divisor[-1], -1, p)
    while len(rem) - 1 >= deg_d:
        c = (rem[-1] * lead_inv) % p
        shift = len(rem) - 1 - deg_d
        for j in range(deg_d + 1):
            rem[shift + j] = (rem[shift + j] - c * divisor[j]) % p
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < deg_d:
            break
    return all(c == 0 for c in rem)


def _check_irreducible(modulus: Sequence[int], p: int, e: int) -> None:
    """Exhaustive root/factor test, supported for e <= 4."""
    if _poly_has_root(modulus, p):
        raise ValueError(f"modulus {tuple(modulus)} has a root in F_{p}; reducible")
    if e == 4:
        # No roots rules out linear factors; still need to exclude an
        # irreducible quadratic divisor.
        for b in range(p):
            for c in range(p):
                quad = (c, b, 1)
                if _poly_has_root(quad, p):
                    continue
                if _poly_divisible(modulus, quad, p):
                    raise ValueError(
                        f"modulus {tuple(modulus)} divisible by {quad}; reducible"
                    )


def _numpy_view(build: Callable[[FieldSpec], object]) -> cached_property:
    """The cached numpy view build, refused before it runs when q*q > NP_TABLE_GUARD."""
    @wraps(build)
    def view(field: FieldSpec) -> object:
        if field.q * field.q > NP_TABLE_GUARD:
            raise GuardError(f"q^2 = {field.q}^2 exceeds the numpy table guard {NP_TABLE_GUARD}")
        return build(field)
    return cached_property(view)


class ChunkTables(NamedTuple):
    """Tables for vectors of F_q^h packed into chunks x = sum_t x_t q^t, x < Q = q^h.

    h is the largest width whose Q*Q subtraction table has at most
    max(CHUNK_TABLE, q*q) entries, so Q <= 256 whenever h >= 2 and h = 1
    from q = 17 up.  sub and mul hold chunks in the narrowest type for
    Q - 1 (one byte up to q = 256).  A row of h coordinates packs to its
    dot product with weights, digits reads one coordinate back, and lowest
    finds the first nonzero coordinate of a chunk, a pivot.
    """

    h: int
    Q: int
    weights: np.ndarray  # h: q^t, the value of digit t
    digits: np.ndarray   # h x Q intp: digits[t, x] = x_t * Q, a row index of mul
    sub: np.ndarray      # Q*Q: sub[x*Q + y] = x - y, coordinatewise
    mul: np.ndarray      # q*Q: mul[a*Q + y] = a * y for a in F_q
    lowest: np.ndarray   # Q: lowest[x] = t * Q for the least t with x_t != 0, 0 for x = 0


class FieldSpec:
    """The field F_q with q = p^e and a fixed irreducible modulus for e > 1.

    Do not instantiate directly; use :func:`make_field` (construction is
    deterministic and cached for a given (p, e, modulus)).
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._add = None
        self._mul = None
        self._inv = None
        self._neg = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- raw polynomial arithmetic (used for table construction and q > 256)

    def _add_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return _undigits(_poly_mod(prod, self.modulus, self.p), self.p)

    def _build_tables(self) -> None:
        q = self.q
        self._add = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._mul_raw(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._add[a].index(0) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self._mul[a].index(1)
        self._inv = inv

    # -- public operations

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        if self.e == 1:
            return (-a) % self.p
        return _undigits([(-c) % self.p for c in _digits(a, self.p, self.e)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        if self._inv is not None:
            return self._inv[a]
        if self.e == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

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

    # -- numpy views, built on first use

    def _flat_table(self, op: Callable[[int, int], int]) -> np.ndarray:
        q = self.q
        return _frozen([op(a, b) for a in range(q) for b in range(q)])

    @_numpy_view
    def np_add(self) -> np.ndarray:
        """Flat q*q table: np_add[a*q + b] = a + b."""
        return self._flat_table(self.add)

    @_numpy_view
    def np_sub(self) -> np.ndarray:
        """Flat q*q table: np_sub[a*q + b] = a - b."""
        return self._flat_table(self.sub)

    @_numpy_view
    def np_mul(self) -> np.ndarray:
        """Flat q*q table: np_mul[a*q + b] = a * b."""
        return self._flat_table(self.mul)

    def vadd(self, a, b) -> np.ndarray:
        """a + b elementwise for integer arrays (or ints) a and b that broadcast, via np_add."""
        return self.np_add.take(np.multiply(a, self.q, dtype=np.int64) + b)

    def vsub(self, a, b) -> np.ndarray:
        """a - b elementwise, via np_sub."""
        return self.np_sub.take(np.multiply(a, self.q, dtype=np.int64) + b)

    def vmul(self, a, b) -> np.ndarray:
        """a * b elementwise, via np_mul."""
        return self.np_mul.take(np.multiply(a, self.q, dtype=np.int64) + b)

    def vneg(self, a) -> np.ndarray:
        """-a elementwise: row 0 of np_sub."""
        return self.np_sub.take(a)

    @_numpy_view
    def np_inv(self) -> np.ndarray:
        """np_inv[a] = 1/a for a != 0; np_inv[0] = 0 is a placeholder."""
        return _frozen([0] + [self.inv(a) for a in self.nonzero()])

    @_numpy_view
    def np_digits(self) -> np.ndarray:
        """q x e: the base-p digits of each element, least significant first."""
        return _frozen([_digits(a, self.p, self.e) for a in range(self.q)])

    @_numpy_view
    def np_mulmat(self) -> np.ndarray:
        """q x e x e: digits(a * x) = np_mulmat[a] @ digits(x) mod p."""
        p, e = self.p, self.e
        images = [[self.mul(a, p**s) for s in range(e)] for a in range(self.q)]
        # images give the columns of each matrix; digits index the rows
        return _frozen(self.np_digits[images].transpose(0, 2, 1))

    @_numpy_view
    def np_chunks(self) -> ChunkTables:
        """The chunk tables of this field, each built from the flat tables at once.

        A table over t + 1 digits is the one-digit table of the top digit,
        times q^t, plus the table over the t digits below it, so each step
        is one broadcast sum that fits the chunk type.
        """
        q = self.q
        h = 1
        while q ** (2 * h + 2) <= max(CHUNK_TABLE, q * q):
            h += 1
        Q = q**h
        dtype = np.min_scalar_type(Q - 1)
        sub1 = self.np_sub.reshape(q, q).astype(dtype)
        mul1 = self.np_mul.reshape(q, q).astype(dtype)
        sub, mul = sub1, mul1
        for t in range(1, h):
            top = dtype.type(q**t)
            sub = (sub1[:, None, :, None] * top + sub[None, :, None, :]).reshape(q**t * q, -1)
            mul = (mul1[:, :, None] * top + mul[:, None, :]).reshape(q, -1)
        x = np.arange(Q)
        digits = np.stack([x // q**t % q * Q for t in range(h)])
        return ChunkTables(
            h, Q, _frozen(q ** np.arange(h), dtype), _frozen(digits, np.intp),
            _frozen(sub.ravel(), dtype), _frozen(mul.ravel(), dtype),
            _frozen((digits != 0).argmax(axis=0) * Q, np.min_scalar_type(h * Q)),
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
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of F_{self.q}")

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


def _frozen(values, dtype=np.int64) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _make_field_cached(p: int, e: int, modulus: tuple[int, ...]) -> FieldSpec:
    return FieldSpec(p, e, modulus)


def make_field(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct (or fetch) the field F_{p^e}.

    For e > 1 a modulus may be supplied as e+1 ascending coefficients of a
    monic irreducible polynomial; otherwise a built-in table supplies one
    for p^e <= 64.  Irreducibility is verified exhaustively for e <= 4.
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
    if e <= 4:
        _check_irreducible(modulus, p, e)
    elif _poly_has_root(modulus, p):
        raise ValueError(f"modulus {modulus} has a root in F_{p}; reducible")
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


def field_arith(field: FieldSpec, op: str, a: int, b: Optional[int] = None) -> int:
    """Dispatch a single field operation; op in {add, sub, mul, inv, neg}."""
    field.check_scalar(a)
    if op in ("add", "sub", "mul"):
        if b is None:
            raise ValueError(f"{op} needs two operands")
        field.check_scalar(b)
        return getattr(field, op)(a, b)
    if op == "neg":
        return field.neg(a)
    if op == "inv":
        return field.inv(a)
    raise ValueError(f"unknown field operation {op!r}")
