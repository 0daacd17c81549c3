"""The benchmark's four workloads and the truths their outputs are checked against.

Each workload is a list of cases.  A case hands one code (or one preset)
to the library through its public functions, stage after stage, and checks
every output.  Inputs come only from the seed: the same seed gives the same
random tables.  The preset workloads run the same presets in the same
order whatever the seed.

Truth is the computed value, recorded here independently of the library's
own repro table: `sec6_q2` is not minimal and `dhz_m7` has d = 51, so the
two published claims that the computation refutes are passes here.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Callable

import minicode as mc

from harness import Harness

DHZ_MAX_CLASSES = 100  # generic dhz on larger ext-field codes takes tens of seconds


@dataclass(frozen=True)
class Case:
    label: str
    body: Callable[[Harness], None]
    q: int
    n: int
    k: int

    @property
    def classes(self) -> int:
        return (self.q**self.k - 1) // (self.q - 1)

    @property
    def messages(self) -> int:
        """q^k, the messages an exhaustive enumerator visits."""
        return self.q**self.k

    @property
    def rank_ops(self) -> int:
        """P * n * k, the rank criterion's own cost model."""
        return self.classes * self.n * self.k


@dataclass(frozen=True)
class Truth:
    q: int
    n: int
    k: int
    d: int
    w_max: int
    minimal: bool
    counts: dict[int, int]


# Full enumerators as computed at the seed commit; sec7_f1, sec7_f2 and
# dhz_m7 are not listed in the paper and were computed once and pinned.
REPRO_TRUTH: dict[str, Truth] = {
    "sec4_f1": Truth(3, 80, 5, 32, 65, True,
                     {0: 1, 32: 2, 50: 64, 53: 48, 54: 80, 56: 32, 65: 16}),
    "sec4_f2": Truth(3, 80, 5, 41, 65, True,
                     {0: 1, 41: 2, 47: 24, 50: 40, 53: 24, 54: 80, 56: 58, 65: 14}),
    "sec5_f1": Truth(2, 31, 6, 10, 18, True, {0: 1, 10: 6, 16: 47, 18: 10}),
    "sec5_f2": Truth(2, 31, 6, 6, 20, True,
                     {0: 1, 6: 1, 12: 5, 14: 5, 16: 41, 18: 10, 20: 1}),
    "sec5_f3": Truth(2, 31, 6, 10, 22, True,
                     {0: 1, 10: 3, 12: 4, 14: 3, 16: 43, 18: 9, 22: 1}),
    "sec6_q2": Truth(2, 127, 8, 39, 103, False,
                     {0: 1, 39: 1, 55: 12, 59: 8, 63: 72, 64: 127, 67: 24, 71: 10, 103: 1}),
    "dhz_m7": Truth(2, 127, 8, 51, 107, True,
                    {0: 1, 51: 4, 59: 38, 63: 32, 64: 127, 67: 52, 75: 1, 107: 1}),
    "sec6_q3": Truth(3, 2186, 8, 1295, 2024, True,
                     {0: 1, 1295: 2, 1376: 18, 1403: 90, 1439: 108, 1457: 3588, 1458: 2186,
                      1466: 378, 1484: 180, 1538: 8, 2024: 2}),
    "sec7_f1": Truth(3, 6560, 9, 2208, 4602, True,
                     {0: 1, 2208: 2, 3918: 32, 4260: 128, 4278: 128, 4332: 256, 4350: 2176,
                      4368: 3584, 4374: 6560, 4377: 2048, 4386: 3584, 4413: 256, 4422: 768,
                      4431: 64, 4602: 96}),
    "sec7_f2": Truth(3, 6560, 9, 4320, 4401, True, {0: 1, 4320: 4482, 4374: 6560, 4401: 8640}),
}
REPRO_HEAVY = ("sec6_q3", "sec7_f1", "sec7_f2")

# The presets whose construction-theorem hypotheses hold (sec6_q2 and
# sec6_q3 have phi(0) = 0).  The four sec7 cases dominate.
WITNESS_PRESETS = ("sec4_f1", "sec4_f2", "sec5_f1", "sec5_f2", "sec5_f3",
                   "dhz_m7", "sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4")
WITNESS_HEAVY = ("sec7_f1", "sec7_f2", "sec7_f3", "sec7_f4")

# (q, m, number of random tables): full size, then the self-test size.
ORACLE_RANDOM = (((3, 3, 180), (3, 4, 35), (2, 6, 50)),
                 ((3, 3, 4), (3, 4, 1), (2, 6, 1)))
EXT_RANDOM = (((4, 3, 3), (4, 4, 2), (8, 3, 1), (9, 3, 1)),
              ((4, 3, 1), (9, 2, 1)))


# -- independent checks -------------------------------------------------------------

def _points(q: int, m: int) -> list[tuple[int, ...]]:
    """F_q^m in canonical order: base-q digits of the index, most significant first."""
    out = []
    for idx in range(q**m):
        digits = []
        for _ in range(m):
            idx, r = divmod(idx, q)
            digits.append(r)
        out.append(tuple(reversed(digits)))
    return out


def _dot(F, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _is_linear(F, m: int, values: tuple[int, ...]) -> bool:
    """Whether f(x) = omega.x on every nonzero x, with omega_i = f(e_i)."""
    pts = _points(F.q, m)
    omega = tuple(values[F.q**(m - 1 - i)] for i in range(m))
    return all(values[i] == _dot(F, omega, pts[i]) for i in range(1, F.q**m))


def _nonzero(counts: dict[int, int]) -> dict[int, int]:
    return {w: c for w, c in counts.items() if c}


def _moments_ok(we, q: int, n: int, k: int) -> bool:
    """A_0 = 1, sum A_w = q^k, and sum w A_w = n (q^k - q^(k-1)).

    The last is the first power moment of a code with no zero coordinate,
    which holds for D_f because every d_x = (f(x), x) is nonzero.
    """
    counts = _nonzero(we.counts)
    return ((we.q, we.n, we.k) == (q, n, k)
            and counts.get(0) == 1
            and max(counts) <= n
            and sum(counts.values()) == q**k
            and sum(w * c for w, c in counts.items()) == n * (q**k - q**(k - 1)))


def _word(F, f_values, pts, y) -> list[int]:
    """c(y) over D_f: y.(f(x), x) for every nonzero x in canonical order."""
    return [F.add(F.mul(y[0], f_values[i]), _dot(F, y[1:], pts[i])) for i in range(1, len(pts))]


def _cover_ok(F, m: int, values, violation) -> bool:
    """The definition oracle's counterexample: c(b) covered by c(a), b no multiple of a."""
    a, b = tuple(violation.a), tuple(violation.b)
    if not any(a) or not any(b):
        return False
    if any(tuple(F.mul(c, x) for x in a) == b for c in F.nonzero()):
        return False
    pts = _points(F.q, m)
    wa, wb = _word(F, values, pts, a), _word(F, values, pts, b)
    return all(x != 0 for x, y in zip(wa, wb) if y != 0)


def _ab_ok(report, we, definition) -> bool:
    q, lo, hi = we.q, we.w_min, we.w_max
    expect = "minimal" if q * lo > (q - 1) * hi else "inconclusive"
    one_sided = report.verdict != "minimal" or definition.is_minimal
    return report.verdict == expect and tuple(report.witness) == (lo, hi) and one_sided


def _index_cert_ok(report, q: int, n: int, k: int, classes: int) -> bool:
    cert = report.witness
    return ((cert.q, cert.n, cert.k, cert.mode) == (q, n, k, "indices")
            and len(cert.classes) == classes)


def _write_text(cert) -> str:
    buf = io.StringIO()
    mc.write_certificate(buf, cert)
    return buf.getvalue()


def _read_text(text: str):
    return mc.read_certificate(io.StringIO(text))


# -- case bodies ---------------------------------------------------------------------

def repro_case(name: str) -> Case:
    """`repro --heavy`'s stages on one preset, plus verification of its certificate."""
    t = REPRO_TRUTH[name]
    f = mc.get_preset(name).function
    q, n, k = t.q, t.n, t.k
    P = (q**k - 1) // (q - 1)

    def body(h: Harness) -> None:
        h.call("code.linearity", mc.linearity_check, f, check=lambda om: om is None)
        D = h.call("code.defining_set", mc.defining_set, f,
                   check=lambda D: (D.n, D.k) == (n, k))
        h.call("code.rank", lambda: D.rank, check=lambda r: r == k)
        we = h.call("code.wdist", mc.weight_distribution, D,
                    check=lambda we: _nonzero(we.counts) == t.counts,
                    counts=lambda _: {"messages": q**k})
        h.call("code.params", mc.params, D, we,
               check=lambda cp: (cp.n, cp.k, cp.d, cp.w_max) == (n, k, t.d, t.w_max))
        rk = h.call("minimality.rank", mc.rank_criterion_code, D,
                    check=lambda r: r.is_minimal == t.minimal
                    and (not t.minimal or _index_cert_ok(r, q, n, k, P)),
                    counts=lambda _: {"classes": P, "est_ops": P * n * k})
        if t.minimal and rk.is_minimal:
            h.call("minimality.verify_indices", mc.verify_certificate, D, rk.witness,
                   check=lambda ok: ok is True, counts=lambda _: {"entries": P * (k - 1)})

    return Case(name, body, q, n, k)


def witness_case(name: str) -> Case:
    """Hypotheses, witness certificate, value-mode verification and a file round trip."""
    preset = mc.get_preset(name)
    f, thm = preset.function, preset.theorem
    q, m = f.field.q, f.m
    n, k = q**m - 1, m + 1
    P = (q**k - 1) // (q - 1)

    def body(h: Harness) -> None:
        h.call("families.validate", mc.validate_hypotheses, f, thm, check=bool)
        cert = h.call("witness.certificate", mc.witness_certificate, thm, f,
                      check=lambda c: (c.q, c.n, c.k, c.mode) == (q, n, k, "vectors")
                      and len(c.classes) == P,
                      counts=lambda _: {"classes": P})
        D = h.call("code.defining_set", mc.defining_set, f,
                   check=lambda D: (D.n, D.k) == (n, k))
        h.call("minimality.verify_vectors", mc.verify_certificate, D, cert,
               check=lambda ok: ok is True, counts=lambda _: {"entries": P * (k - 1)})
        text = h.call("minimality.cert_write", _write_text, cert,
                      check=lambda s: s.count("\n") == P + 1,
                      counts=lambda s: {"bytes": len(s.encode("utf-8"))})
        h.call("minimality.cert_read", _read_text, text, check=lambda c: c == cert)

    return Case(name, body, q, n, k)


def oracle_case(label: str, F, m: int, values: tuple[int, ...]) -> Case:
    """Every criterion on one small code; their verdicts must agree."""
    f = mc.FunctionSpec(F, m, mc.TableFunction(values))
    q = F.q
    n, k = q**m - 1, m + 1
    P = (q**k - 1) // (q - 1)
    run_dhz = P <= DHZ_MAX_CLASSES

    def body(h: Harness) -> None:
        h.call("code.linearity", mc.linearity_check, f, check=lambda om: om is None)
        D = h.call("code.defining_set", mc.defining_set, f,
                   check=lambda D: (D.n, D.k) == (n, k))
        we = h.call("code.wdist", mc.weight_distribution, D,
                    check=lambda we: _moments_ok(we, q, n, k),
                    counts=lambda _: {"messages": q**k})
        de = h.call("minimality.definition", mc.is_minimal_definition, D,
                    check=lambda r: r.verdict == "minimal"
                    or (r.verdict == "not_minimal" and _cover_ok(F, m, values, r.witness)))
        if run_dhz:
            h.call("minimality.dhz", mc.dhz_criterion, D,
                   check=lambda r: r.verdict == de.verdict)
        rk = h.call("minimality.rank", mc.rank_criterion_code, D,
                    check=lambda r: r.verdict == de.verdict
                    and (not r.is_minimal or _index_cert_ok(r, q, n, k, P)),
                    counts=lambda _: {"classes": P, "est_ops": P * n * k})
        h.call("minimality.ab", mc.ab_condition, D,
               check=lambda r: _ab_ok(r, we, de),
               counts=lambda r: {"decided": int(r.verdict != "inconclusive")})
        if rk.is_minimal:
            h.call("minimality.verify_indices", mc.verify_certificate, D, rk.witness,
                   check=lambda ok: ok is True, counts=lambda _: {"entries": P * (k - 1)})

    return Case(label, body, q, n, k)


# -- workloads ------------------------------------------------------------------------

def _random_cases(rng: random.Random, plan) -> list[Case]:
    cases = []
    for q, m, count in plan:
        F = mc.field_by_order(q)
        made = 0
        while made < count:
            values = tuple(rng.randrange(q) for _ in range(q**m))
            if _is_linear(F, m, values):
                continue
            cases.append(oracle_case(f"F{q}^{m}#{made}", F, m, values))
            made += 1
    return cases


def _repro_heavy(rng: random.Random, tiny: bool) -> list[Case]:
    names = [nm for nm in REPRO_TRUTH if not (tiny and nm in REPRO_HEAVY)]
    return [repro_case(nm) for nm in names]


def _witness_certs(rng: random.Random, tiny: bool) -> list[Case]:
    return [witness_case(nm) for nm in WITNESS_PRESETS if not (tiny and nm in WITNESS_HEAVY)]


def _oracle_small(rng: random.Random, tiny: bool) -> list[Case]:
    F2 = mc.field_by_order(2)
    tables = [tuple((idx >> (7 - i)) & 1 for i in range(8)) for idx in range(256)]
    nonlinear = [t for t in tables if not _is_linear(F2, 3, t)]
    if tiny:
        nonlinear = nonlinear[:24]
    cases = [oracle_case(f"F2^3#{i}", F2, 3, t) for i, t in enumerate(nonlinear)]
    return cases + _random_cases(rng, ORACLE_RANDOM[tiny])


def _ext_fields(rng: random.Random, tiny: bool) -> list[Case]:
    return _random_cases(rng, EXT_RANDOM[tiny])


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[int, ...]  # field orders whose tables set-up builds
    build: Callable[[random.Random, bool], list[Case]]


# Why each workload exists, and what it should show: BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("repro-heavy", (2, 3), _repro_heavy),
    Workload("witness-certs", (2, 3), _witness_certs),
    Workload("oracle-small", (2, 3), _oracle_small),
    Workload("ext-fields", (4, 8, 9), _ext_fields),
)}


def build_cases(name: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's cases for this seed (the preset workloads ignore the seed)."""
    return WORKLOADS[name].build(random.Random(seed), tiny)
