"""Defining-set codes C(D) and the function construction D_f.

C(D) = {(y.d_1, ..., y.d_n) : y in F_q^k} for an ordered multiset D of n
vectors in F_q^k.  D_f puts d_x = (f(x), x) for every nonzero x in canonical
order, so k = m+1 and the f-value is coordinate 1 of each d_x.

Weight distributions are exact and come from the hyperplane counts
N[y] = #{d in D : y.d = 0}, since wt(c(y)) = n - N[y].  All q^k values of N
follow from D's histogram by a k-step transform driven by the field tables
(linalg.np_hyperplane_counts): O(k q^{k+2}) integer operations, no floats
and no factor of n, on tables in the narrowest signed type that holds n
(two bytes up to n = 32,767, a quarter of int64's memory traffic).  The
counts are cached on D as int64, so the enumerator, params and the ab and
dhz criteria share one transform and their arithmetic does not narrow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .errors import GuardError
from .families import FunctionSpec
from .gf import FieldSpec
from .linalg import (
    Vec,
    check_enumerable,
    int_cells,
    np_chunk_rows,
    np_class_codewords,
    np_class_reps,
    np_dots,
    np_hyperplane_counts,
    np_point_chunks,
    np_points,
    np_ranks,
    np_row_keys,
    read_matrix,
    write_matrix,
)

WDIST_GUARD = 2**26   # ceiling on the q^(k+1) entries of the hyperplane-count table
_ENTRIES = "defining-set entries"


@dataclass(eq=False)
class DefiningSet:
    """Ordered multiset D = {d_1..d_n} in F_q^k; order fixes codeword coordinates.

    vectors may be given as an integer ndarray or as any sequence of rows of
    integers.  It is converted once, to a new read-only, C-contiguous n x k
    int64 array, which D.vectors then holds.  A bool or float entry, a row
    of length other than k, or an entry outside 0..q-1 raises ValueError.
    """

    field: FieldSpec
    k: int
    vectors: np.ndarray
    origin: tuple = ("generic",)

    def __post_init__(self) -> None:
        rows, k, q = self.vectors, self.k, self.field.q
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
            bad = next((v for v in rows if len(v) != k), None)
            if bad is not None:
                raise ValueError(f"vector {tuple(bad)} has length {len(bad)}, expected {k}")
            rows = int_cells(list(chain.from_iterable(rows)), _ENTRIES).reshape(len(rows), k)
        if rows.ndim != 2 or rows.shape[1] != k:
            raise ValueError(f"vector array of shape {rows.shape} is not n x {k}")
        A = np.ascontiguousarray(int_cells(rows, _ENTRIES))
        if A.size and (A.min() < 0 or A.max() >= q):
            raise ValueError(f"{_ENTRIES} must lie in 0..{q - 1}")
        A.flags.writeable = False
        self.vectors = A

    def __len__(self) -> int:
        return len(self.vectors)

    n = property(__len__)

    @cached_property
    def rank(self) -> int:
        return int(np_ranks(self.field, self.vectors[None])[0])

    @cached_property
    def chunk_rows(self) -> np.ndarray:
        """D's rows as np_chunk_rows chunks, n x C, read-only: the dot and rank kernels' input."""
        rows = np_chunk_rows(self.field, self.vectors)
        rows.flags.writeable = False
        return rows

    @cached_property
    def scan_rows(self) -> np.ndarray:
        """chunk_rows chunk-major (C x n) in scan_order(n), read-only: the rank scan's input."""
        rows = self.chunk_rows.T.take(scan_order(self.n), axis=1)
        rows.flags.writeable = False
        return rows

    @cached_property
    def hyperplane_counts(self) -> np.ndarray:
        """#{d in D : y.d = 0} for every message y, in canonical index order."""
        q, k = self.field.q, self.k
        if q ** (k + 1) > WDIST_GUARD:
            raise GuardError(
                f"q^(k+1) = {q}^{k + 1} exceeds the count-table guard {WDIST_GUARD}"
            )
        counts = np_hyperplane_counts(self.field, self.vectors)
        counts.flags.writeable = False  # shared by every caller of this D
        return counts

    @cached_property
    def projective_codewords(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(Y, words): per projective point c(y) of C(D), its first class y, and c(y) if rank(D) < k.

        Y is R x k in canonical order, read-only; definition and dhz share it.
        When rank(D) = k every class is its own point: Y is np_class_reps and
        words is None, as neither oracle needs the R x n table then.  Else the
        table is built, zero codewords are dropped and the others compared
        after scaling to a leading 1, and words is their R x n table, read-only.
        """
        field = self.field
        Y = np_class_reps(field.q, self.k)
        if self.rank == self.k:
            return Y, None
        words = np_class_codewords(field, self.vectors)
        lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
        scaled = field.vmul(field.np_inv.take(lead)[:, None], words)  # a zero row stays 0
        _, first = np.unique(np_row_keys(field, scaled), return_index=True)
        keep = np.sort(first)
        keep = keep[lead[keep] != 0]
        Y, words = Y[keep], words[keep]
        Y.flags.writeable = words.flags.writeable = False
        return Y, words


@lru_cache(maxsize=8)
def scan_order(n: int) -> np.ndarray:
    """The 0-based positions of D in the order the rank scans visit them, read-only.

    Position i comes i-th, times s, mod n, where s is the first integer from
    round(n / phi) up that is coprime to n (phi the golden ratio), so
    successive candidates spread over D.  Canonical order would start with
    the q^{m-1} - 1 members of D_f that have x_1 = 0, which span slowly.
    The order depends only on n, so it is made once per n and shared.  Its
    type is np.min_scalar_type(n), which also holds each position + 1.
    """
    s = max(1, round(n * (math.sqrt(5) - 1) / 2))
    while math.gcd(s, n) != 1:
        s += 1
    order = (np.arange(n, dtype=np.int64) * s % n).astype(np.min_scalar_type(n))
    order.flags.writeable = False
    return order


def defining_set(f: FunctionSpec) -> DefiningSet:
    """D_f = {(f(x), x) : x nonzero} in canonical x-order, built as one n x (m+1) array."""
    q, m = f.field.q, f.m
    check_enumerable(q, m, "construction guard")
    rows = np.concatenate([f.table[1:, None], np_points(q, m)[1:]], axis=1)
    return DefiningSet(f.field, m + 1, rows, origin=("from_function", m))


def linearity_check(f: FunctionSpec) -> Optional[Vec]:
    """The omega with f(x) = omega.x for all nonzero x, if it exists.

    Present exactly when rank(D_f) = m; absent exactly when rank(D_f) = m+1.
    Uses the e_i-interpolation candidate, read from f's table at the unit
    vectors, plus one full verification pass.  A huge arity is refused
    before f is evaluated.
    """
    field, m, q = f.field, f.m, f.field.q
    check_enumerable(q, m)
    values = f.table
    omega = tuple(values.take(q ** np.arange(m - 1, -1, -1)).tolist())
    expected = np_dots(field, np_chunk_rows(field, omega), np_point_chunks(field, m))
    return omega if np.array_equal(values[1:], expected[1:]) else None


def check_message(y: Sequence[int], D: DefiningSet) -> None:
    """Raise ValueError unless y is a message of D: k canonical elements of F_q."""
    if len(y) != D.k:
        raise ValueError(f"message length {len(y)} != k = {D.k}")
    for a in y:
        D.field.check_scalar(a)


def codeword(y: Sequence[int], D: DefiningSet) -> Vec:
    """c(y; D) = (y.d_1, ..., y.d_n)."""
    check_message(y, D)
    return tuple(np_dots(D.field, np_chunk_rows(D.field, y), D.chunk_rows).tolist())


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact codeword counts by Hamming weight over all q^k messages."""

    q: int
    n: int
    k: int
    counts: dict[int, int]

    def __post_init__(self) -> None:
        total = sum(self.counts.values())
        if total != self.q**self.k:
            raise ValueError(f"counts sum to {total}, expected q^k = {self.q**self.k}")

    def sorted_items(self) -> list[tuple[int, int]]:
        return sorted((w, c) for w, c in self.counts.items() if c)

    @property
    def text(self) -> str:
        """Single-line enumerator, ascending weights: "1 + c1 z^w1 + ..."."""
        items = self.sorted_items()
        parts = []
        for w, c in items:
            parts.append(str(c) if w == 0 else f"{c} z^{w}")
        return " + ".join(parts)

    def record(self) -> dict:
        """Machine-readable form; weight keys are decimal strings, ascending."""
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "counts": {str(w): c for w, c in self.sorted_items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.record(), separators=(", ", ": "))

    def _nonzero_weights(self) -> list[int]:
        nz = [w for w, c in self.counts.items() if w > 0 and c]
        if not nz:
            raise GuardError("code has no nonzero-weight codeword")
        return nz

    @property
    def w_min(self) -> int:
        return min(self._nonzero_weights())

    @property
    def w_max(self) -> int:
        return max(self._nonzero_weights())


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    w_min: int
    w_max: int
    q: int

    @property
    def ab_ratio_exceeds(self) -> bool:
        """Whether w_min/w_max > (q-1)/q, compared by integer cross-products."""
        return self.q * self.w_min > (self.q - 1) * self.w_max


def weight_distribution(D: DefiningSet) -> WeightEnumerator:
    """Codeword counts by weight, from wt(c(y)) = n - D.hyperplane_counts[y]."""
    n = D.n
    if n == 0:
        raise GuardError("empty defining set")
    acc = np.bincount(n - D.hyperplane_counts, minlength=n + 1)
    w = acc.nonzero()[0]
    return WeightEnumerator(D.field.q, n, D.k, dict(zip(w.tolist(), acc.take(w).tolist())))


def params(D: DefiningSet, enumerator: Optional[WeightEnumerator] = None) -> CodeParams:
    we = enumerator if enumerator is not None else weight_distribution(D)
    return CodeParams(n=we.n, k=we.k, d=we.w_min, w_min=we.w_min, w_max=we.w_max, q=we.q)


def generator_matrix(D: DefiningSet) -> list[Vec]:
    """k rows: the codewords of the standard basis of F_q^k, which are D's columns."""
    return list(map(tuple, D.vectors.T.tolist()))


def write_defining_set(out: Union[str, TextIO], D: DefiningSet) -> None:
    write_matrix(out, D.field, D.vectors.tolist())


def read_defining_set(src: Union[str, TextIO]) -> DefiningSet:
    field, rows = read_matrix(src)
    if not len(rows):
        raise GuardError("empty defining set")
    return DefiningSet(field, rows.shape[1], rows)
