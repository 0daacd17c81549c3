"""Field arithmetic: axioms, tables, construction errors."""

import functools
import itertools
import random
import time

import numpy as np
import pytest

from minicode.errors import GuardError
from minicode.gf import FIELD_CACHE, FieldSpec, field_by_order, is_prime, make_field
import minicode.gf as gf_mod

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def brute_poly_mul(p, e, modulus, a, b):
    """Independent polynomial multiplication mod (p, modulus)."""
    def digits(v):
        out = []
        for _ in range(e):
            v, r = divmod(v, p)
            out.append(r)
        return out

    da, db = digits(a), digits(b)
    prod = [0] * (2 * e - 1 if e > 1 else 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    # long division by the monic modulus
    mod = list(modulus) if modulus else [0, 1]
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        if c:
            for j in range(e + 1):
                prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
    value = 0
    for c in reversed(prod[:e]):
        value = value * p + c
    return value


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_by_order(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_inverse_bijection_and_involution(q):
    f = field_by_order(q)
    seen = set()
    for a in f.nonzero():
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert f.inv(inv) == a
        seen.add(inv)
    assert seen == set(f.nonzero())


def brute_poly_add(p, e, a, b):
    out = 0
    place = 1
    for _ in range(e):
        out += ((a % p + b % p) % p) * place
        a //= p
        b //= p
        place *= p
    return out


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_tables_match_brute_force_polynomials(q):
    f = field_by_order(q)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == brute_poly_mul(f.p, f.e, f.modulus, a, b)
            assert f.add(a, b) == brute_poly_add(f.p, f.e, a, b)
            # the numpy views the kernels use say the same
            assert f.np_mul[a * q + b] == f.mul(a, b)
            assert f.np_add[a * q + b] == f.add(a, b)
            assert f.np_sub[a * q + b] == f.sub(a, b)
        if a:
            assert f.np_inv[a] == f.inv(a)


def test_prime_field_examples():
    f3 = make_field(3)
    assert f3.add(2, 2) == 1
    assert f3.inv(2) == 2
    f2 = make_field(2)
    assert f2.q == 2 and f2.e == 1


def test_f4_example():
    # x * x reduces to x + 1 under x^2 + x + 1
    f4 = make_field(2, 2, (1, 1, 1))
    assert f4.mul(2, 2) == 3
    assert f4 is make_field(2, 2)  # built-in modulus agrees, construction cached


def test_field_cache_is_bounded():
    # making more fields than FIELD_CACHE keeps at most FIELD_CACHE of them;
    # the least recently used one is evicted, and made again it is equal to
    # the one evicted, tables included
    first = make_field(3, 3, (2, 2, 0, 1))  # x^3 + 2x + 2
    primes = [p for p in range(5, 1000) if is_prime(p)][:FIELD_CACHE + 2]
    for p in primes:
        make_field(p)
        assert gf_mod._make_field_cached.cache_info().currsize <= FIELD_CACHE
    again = make_field(3, 3, (2, 2, 0, 1))
    assert again is not first and again == first and hash(again) == hash(first)
    for view in ("np_add", "np_mul", "np_inv"):
        assert getattr(again, view).tolist() == getattr(first, view).tolist()
    assert again.np_chunks.dot.tolist() == first.np_chunks.dot.tolist()


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 has the root 1 over F_2
    with pytest.raises(ValueError):
        make_field(3, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x^2+x+2)(x^2+2x+2) mod 3
    with pytest.raises(ValueError):
        make_field(2, 7)  # 128 > 64: no built-in modulus
    with pytest.raises(ValueError):
        make_field(2, 3, (1, 1, 1))  # wrong degree


# Gauss's count of monic irreducible polynomials of degree e over F_p
IRREDUCIBLE_COUNTS = {(2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6, (2, 6): 9, (2, 7): 18,
                      (3, 2): 3, (3, 3): 8, (3, 4): 18}


def test_make_field_accepts_exactly_the_irreducible_moduli():
    # every monic modulus of each degree: the zero-divisor test of the
    # multiplication table accepts exactly as many as there are irreducibles
    start = time.perf_counter()
    for (p, e), count in IRREDUCIBLE_COUNTS.items():
        accepted = []
        for low in itertools.product(range(p), repeat=e):
            try:
                accepted.append(make_field(p, e, low + (1,)))
            except ValueError as err:
                assert "reducible" in str(err)
        assert len(accepted) == count, (p, e)
        F = accepted[0]
        assert all(F.mul(a, F.inv(a)) == 1 for a in F.nonzero())
    assert time.perf_counter() - start < 2


def test_reducible_modulus_without_roots_refused():
    # (x^2+x+1)(x^7+x+1) over F_2 has no root; in the quotient ring 7 * 131 = 0
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 9, (1, 0, 0, 1, 0, 0, 0, 1, 1, 1))
    # nor (x^2+x+1)^2 (x^3+x+1) = x^7 + x^4 + x^2 + x + 1
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 7, (1, 1, 1, 0, 1, 0, 0, 1))


@pytest.mark.parametrize("p, e, modulus", [
    (2, 6, (1, 1, 0, 0, 0, 0, 1)),               # x^6 + x + 1, F_64's built-in modulus
    (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),         # x^8 + x^4 + x^3 + x^2 + 1
    (3, 5, (1, 2, 0, 0, 0, 1)),                  # x^5 + 2x + 1
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),  # x^10 + x^3 + 1
    (1021, 1, ()),
])
def test_large_field_tables_match_brute_force(p, e, modulus):
    # fields the exhaustive test does not reach, on seeded pairs; built
    # outside make_field's cache, which would hold their tables to the end
    F = FieldSpec(p, e, modulus)
    q = F.q
    for view in (F.np_add, F.np_sub, F.np_mul, F.np_inv):
        assert view.dtype == F.element_dtype and not view.flags.writeable
    rng = random.Random(q)
    for _ in range(500):
        a, b = rng.randrange(q), rng.randrange(q)
        prod = brute_poly_mul(p, e, F.modulus, a, b)
        assert F.mul(a, b) == F.np_mul[a * q + b] == prod
        assert F.add(a, b) == F.np_add[a * q + b] == brute_poly_add(p, e, a, b)
        diff = F.sub(a, b)
        assert diff == F.np_sub[a * q + b] and brute_poly_add(p, e, diff, b) == a
        if a:
            assert F.inv(a) == F.np_inv[a]
            assert brute_poly_mul(p, e, F.modulus, a, F.inv(a)) == 1


def test_extension_field_beyond_the_table_guard_refused_when_made():
    # q = 37^2 = 1369: no tables, so no check of the modulus and no kernel
    start = time.perf_counter()
    with pytest.raises(GuardError, match="numpy table guard"):
        make_field(37, 2, (2, 0, 1))
    assert time.perf_counter() - start < 0.1


def test_bools_are_not_field_elements():
    f3 = make_field(3)
    for a in (True, False, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="canonical element"):
            f3.check_scalar(a)


def test_is_prime_small():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_field_by_order_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        field_by_order(12)
    with pytest.raises(ValueError):
        field_by_order(1)


def test_field_by_order_large_orders():
    # the factor search stops at sqrt(q); trying every p up to q took minutes here
    F = field_by_order(2**31 - 1)
    assert (F.p, F.e) == (2**31 - 1, 1)
    # 31601 * 31607: no prime factor below sqrt(q) is missed either
    with pytest.raises(ValueError, match="not a prime power"):
        field_by_order(31601 * 31607)


def test_numpy_views_refused_beyond_the_table_guard():
    # each view is built by a Python loop of up to q*q steps; past q = 1024
    # it is refused before the loop starts, and scalar arithmetic still works
    for q in (1031, 65537):
        F = make_field(q)
        for view in ("np_add", "np_sub", "np_mul", "np_inv", "np_chunks"):
            start = time.perf_counter()
            with pytest.raises(GuardError, match="numpy table guard"):
                getattr(F, view)
            assert time.perf_counter() - start < 0.1
        assert F.mul(q - 1, q - 1) == 1 and F.inv(q - 1) == q - 1
    assert make_field(257).np_add.shape == (257 * 257,)


@pytest.mark.parametrize("q, h", [(2, 8), (3, 5), (4, 4), (5, 3), (7, 2), (8, 2), (9, 2),
                                  (16, 2), (17, 1), (64, 1), (256, 1), (257, 1)])
def test_chunk_tables(q, h):
    # h coordinates per chunk, the widest whose subtraction table has at most
    # max(2^16, q^2) entries; each table agrees with the scalar arithmetic
    # coordinate by coordinate, and none is built before its first use
    F = make_field(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)) if q == 256 else field_by_order(q)
    fresh = FieldSpec(F.p, F.e, F.modulus)
    assert "np_chunks" not in vars(fresh)
    ch = fresh.np_chunks
    Q = q**h
    assert (ch.h, ch.Q) == (h, Q) and type(ch.Q) is int
    assert ch.minus.dtype == ch.mul.dtype == ch.dot.dtype == fresh.element_dtype
    assert ch.minus.shape == ch.dot.shape == (Q * Q,) and ch.mul.shape == (q * Q,)
    assert ch.weights.tolist() == [q**t for t in range(h)]

    def coords(x):
        return [x // q**t % q for t in range(h)]

    def chunk(xs):
        return sum(a * q**t for t, a in enumerate(xs))

    rng = random.Random(q)
    for _ in range(200):
        x, y, a = rng.randrange(Q), rng.randrange(Q), rng.randrange(q)
        X, Y = coords(x), coords(y)
        assert ch.minus[y * Q + x] == chunk([F.sub(s, t) for s, t in zip(X, Y)])
        assert ch.mul[a * Q + y] == chunk([F.mul(a, t) for t in Y])
        # an elimination step x - a y as two lookups: mulq holds each
        # product as its row of minus
        assert ch.mulq[a * Q + y] == int(ch.mul[a * Q + y]) * Q
        assert ch.minus[ch.mulq[a * Q + y] + x] == chunk(
            [F.sub(s, F.mul(a, t)) for s, t in zip(X, Y)])
        assert ch.digits[:, x].tolist() == [c * Q for c in X]
        assert ch.dot[y * Q + x] == functools.reduce(F.add, map(F.mul, Y, X))
        assert F.add(ch.negdot[y * Q + x], ch.dot[y * Q + x]) == 0
    assert not ch.minus.flags.writeable and not ch.digits.flags.writeable
    assert not ch.dot.flags.writeable and not ch.mulq.flags.writeable
    # the negated dot table, in the element type, negates every entry; in
    # characteristic 2, where -1 = 1, it is the dot table itself
    assert ch.negdot.dtype == ch.dot.dtype and ch.negdot.shape == ch.dot.shape
    assert not ch.negdot.flags.writeable
    assert ch.negdot.tolist() == [F.sub(0, a) for a in ch.dot.tolist()]
    assert (ch.negdot is ch.dot) == (F.p == 2)
    assert ch.mulq.shape == (q * Q,) and ch.mulq.dtype == np.min_scalar_type((Q - 1) * Q)
    if h == 1:  # a chunk is one coordinate, and the dot table is mul
        assert ch.dot.tolist() == ch.mul.tolist()
    # lowest holds t Q, the row of digits, for the first nonzero coordinate t
    # of every chunk, and 0 for the zero chunk
    first = [next((t for t, c in enumerate(coords(x)) if c), 0) for x in range(Q)]
    assert ch.lowest.tolist() == [t * Q for t in first]
    assert ch.lowest.dtype == np.min_scalar_type(h * Q) and not ch.lowest.flags.writeable
    # scale holds (1/x_t) Q, the row of mul that divides by coordinate t of
    # x, at t Q + x, and 0 where that coordinate is 0
    assert ch.scale.tolist() == [F.inv(coords(x)[t]) * Q if coords(x)[t] else 0
                                 for t in range(h) for x in range(Q)]
    assert ch.scale.dtype == np.intp and not ch.scale.flags.writeable


@pytest.mark.parametrize("q", [3, 17, 257])
def test_vector_ops_with_an_int_against_narrow_arrays(q):
    # a q fits b's element type and a q + b does not (15 * 17 + 16 on F_17):
    # the table index must not wrap in that type.
    F = field_by_order(q)
    a = min(np.iinfo(F.element_dtype).max // q, q - 1)
    b = np.arange(q, dtype=F.element_dtype)
    for vop, op in ((F.vadd, F.add), (F.vsub, F.sub), (F.vmul, F.mul)):
        assert vop(a, b).tolist() == [op(a, x) for x in range(q)]


@pytest.mark.parametrize("q", [17, 257])
def test_vector_ops_on_narrow_arrays(q):
    # every pair as two arrays of the element type, whose largest index
    # (q - 1) q + q - 1 does not fit that type (16 * 17 + 16 > 255 on F_17,
    # 256 * 257 + 256 > 65,535 on F_257): the ops return the element type
    # and no index wraps in it
    F = field_by_order(q)
    a, b = np.divmod(np.arange(q * q), q)
    a, b = a.astype(F.element_dtype), b.astype(F.element_dtype)
    pairs = list(zip(a.tolist(), b.tolist()))
    for vop, op in ((F.vadd, F.add), (F.vsub, F.sub), (F.vmul, F.mul)):
        out = vop(a, b)
        assert out.dtype == F.element_dtype
        assert out.tolist() == [op(x, y) for x, y in pairs]


def test_pow_zero_convention():
    f3 = make_field(3)
    assert f3.pow(0, 0) == 1
    assert f3.pow(0, 5) == 0
    assert f3.pow(2, 4) == 1
