"""Command-line entry points and the reproduction suite.

Exit codes: 0 = success / minimal, 1 = not minimal or repro mismatch,
2 = usage or guard error (including an exceeded operation budget).

Inputs may be a named preset, a function file ("q m variant" header), or a
defining-set matrix file ("q m rows" header); the two file kinds are told
apart by their third header token.  All outputs are UTF-8 with LF endings.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .code import (
    DefiningSet,
    defining_set,
    generator_matrix,
    linearity_check,
    params,
    read_defining_set,
    weight_distribution,
    write_defining_set,
)
from .errors import BudgetExceededError, GuardError
from .families import (
    FunctionSpec,
    TheoremId,
    get_preset,
    paper_presets,
    read_function,
)
from .linalg import check_enumerable, text_lines, write_matrix, write_text
from .minimality import (
    MINIMAL,
    ab_condition,
    dhz_criterion,
    is_minimal_definition,
    rank_criterion_code,
    verify_certificate,
    write_certificate,
)
from .witness import witness_certificate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _sniff_source(path: str) -> str:
    with text_lines(path) as lines:
        head = next(lines, "").split()
    if len(head) == 3:
        try:
            int(head[2])
            return "matrix"
        except ValueError:
            return "function"
    raise GuardError(f"unrecognized input header in {path}")


def load_source(src: str) -> tuple[Optional[FunctionSpec], Optional[DefiningSet]]:
    """Resolve a preset name or file path to (function, defining set)."""
    if src in paper_presets():
        return get_preset(src).function, None
    if not os.path.exists(src):
        raise GuardError(f"{src!r} is neither a preset nor a file; presets: "
                         + ", ".join(sorted(paper_presets())))
    kind = _sniff_source(src)
    if kind == "function":
        f = read_function(src)
        check_enumerable(f.field.q, f.m)  # every command tabulates f
        return f, None
    return None, read_defining_set(src)


def _require_defining_set(f: Optional[FunctionSpec], D: Optional[DefiningSet]) -> DefiningSet:
    if D is not None:
        return D
    assert f is not None
    omega = linearity_check(f)
    if omega is not None:
        raise GuardError(
            "function is linear: f(x) = omega.x with omega = "
            + " ".join(str(a) for a in omega)
            + "; the construction degenerates to k = m"
        )
    return defining_set(f)


def cmd_build(args: argparse.Namespace) -> int:
    f, D = load_source(args.source)
    if f is None:
        raise GuardError("build needs a function input (preset or function file)")
    D = _require_defining_set(f, None)
    write_defining_set(f"{args.out}.dset.txt", D)
    write_matrix(f"{args.out}.gen.txt", D.field, generator_matrix(D))
    print(f"n={D.n} k={D.k}")
    return EXIT_OK


def cmd_wdist(args: argparse.Namespace) -> int:
    f, D = load_source(args.source)
    D = _require_defining_set(f, D)
    we = weight_distribution(D)
    print(we.text)
    if args.json:
        write_text(args.json, [we.to_json() + "\n"])
    cp = params(D, we)
    print(f"n={cp.n} k={cp.k} d={cp.d} w_max={cp.w_max} "
          f"ratio_exceeds_(q-1)/q={'yes' if cp.ab_ratio_exceeds else 'no'}")
    return EXIT_OK


def _check_witness(args: argparse.Namespace, thm_name: str) -> int:
    try:
        thm = TheoremId(thm_name)
    except ValueError:
        raise GuardError(f"unknown theorem id {thm_name!r}; use one of "
                         + ", ".join(t.value for t in TheoremId)) from None
    f, D = load_source(args.source)
    if f is None:
        raise GuardError("witness checks need a function input, not a raw matrix")
    cert = witness_certificate(thm, f)
    D = _require_defining_set(f, D)
    if not verify_certificate(D, cert):
        print("witness certificate failed verification", file=sys.stderr)
        return EXIT_NEGATIVE
    print(f"minimal ({len(cert.classes)} classes witnessed by theorem {thm.value})")
    if args.certificate:
        write_certificate(args.certificate, cert)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    crit = args.criterion
    if crit.startswith("witness:"):
        return _check_witness(args, crit.split(":", 1)[1])
    f, D = load_source(args.source)
    D = _require_defining_set(f, D)
    if crit == "definition":
        report = is_minimal_definition(D)
    elif crit == "ab":
        report = ab_condition(D)
        w_min, w_max = report.witness
        rel = ">" if report.verdict == MINIMAL else "<="
        print(f"{report.verdict} (w_min/w_max = {w_min}/{w_max} {rel} "
              f"{D.field.q - 1}/{D.field.q})")
        return EXIT_OK
    elif crit == "dhz":
        report = dhz_criterion(D)
    elif crit == "rank":
        report = rank_criterion_code(D, budget=args.budget)
    else:
        raise GuardError(f"unknown criterion {crit!r}")
    if report.verdict == MINIMAL:
        print("minimal")
        if crit == "rank" and args.certificate:
            write_certificate(args.certificate, report.witness)
        return EXIT_OK
    print(f"not_minimal: {report.witness}")
    return EXIT_NEGATIVE


@dataclass(frozen=True)
class ReproCase:
    """One embedded expectation; computed values are authoritative."""

    name: str
    source: str
    q: int
    n: int
    k: int
    counts: Optional[dict[int, int]]  # full enumerator when the source lists one
    d: int
    w_max: int
    minimal_computed: bool  # what the criteria provably return
    note: str = ""

    def __post_init__(self) -> None:
        if self.counts is not None:
            total = sum(self.counts.values())
            if total != self.q**self.k:
                raise ValueError(f"{self.name}: embedded counts sum to {total}, "
                                 f"expected q^k = {self.q**self.k}")


REPRO_CASES: tuple[ReproCase, ...] = (
    ReproCase(
        "sec4_f1", "first construction, example (1)", 3, 80, 5,
        {0: 1, 32: 2, 50: 64, 53: 48, 54: 80, 56: 32, 65: 16}, 32, 65, True,
    ),
    ReproCase(
        "sec4_f2", "first construction, example (2)", 3, 80, 5,
        {0: 1, 41: 2, 47: 24, 50: 40, 53: 24, 54: 80, 56: 58, 65: 14}, 41, 65, True,
    ),
    ReproCase(
        "sec5_f1", "second construction, example (1)", 2, 31, 6,
        {0: 1, 10: 6, 16: 47, 18: 10}, 10, 18, True,
    ),
    ReproCase(
        "sec5_f2", "second construction, example (2)", 2, 31, 6,
        {0: 1, 6: 1, 12: 5, 14: 5, 16: 41, 18: 10, 20: 1}, 6, 20, True,
    ),
    ReproCase(
        "sec5_f3", "second construction, example (3)", 2, 31, 6,
        {0: 1, 10: 3, 12: 4, 14: 3, 16: 43, 18: 9, 22: 1}, 10, 22, True,
    ),
    ReproCase(
        "sec6_q2", "Maiorana-McFarland example, q=2", 2, 127, 8,
        {0: 1, 39: 1, 55: 12, 59: 8, 63: 72, 64: 127, 67: 24, 71: 10, 103: 1},
        39, 103, False,
        note="source claims minimal; the rank criterion (confirmed by the "
             "definition and weight-identity checks) finds a cover violation: "
             "phi is constant on a half-space.  Hypothesis validation also "
             "fails (phi(0) = 0).",
    ),
    ReproCase(
        "sec6_q3", "Maiorana-McFarland example, q=3", 3, 2186, 8,
        {0: 1, 1295: 2, 1376: 18, 1403: 90, 1439: 108, 1457: 3588, 1458: 2186,
         1466: 378, 1484: 180, 1538: 8, 2024: 2}, 1295, 2024, True,
        note="minimal as claimed, but hypothesis validation fails "
             "(phi(0) = 0); minimality is established by the rank criterion.",
    ),
    ReproCase(
        "sec7_f1", "monomial example (1)", 3, 6560, 9, None, 2208, 4602, True,
    ),
    ReproCase(
        "sec7_f2", "monomial example (2)", 3, 6560, 9, None, 4320, 4401, True,
        note="source lists both d=4320 (parameters) and w_min=4302 (ratio); "
             "computed d = 4320, so the ratio line carries the typo.",
    ),
    ReproCase(
        "sec7_f3", "monomial example (3)", 3, 6560, 9, None, 2424, 4764, True,
    ),
    ReproCase(
        "sec7_f4", "monomial example (4)", 3, 6560, 9, None, 2664, 4716, True,
    ),
    ReproCase(
        "dhz_m7", "distance formula preset (m=7, s=4, t=3)", 2, 127, 8, None,
        51, 107, True,
        note="the quoted formula gives 2^(m-1) - 2^(t-1)(s-1) = 52, which "
             "counts the always-nonzero zero position the length-(2^m - 1) "
             "construction drops; every u!=0 weight here is 3 mod 4, so the "
             "computed d = 51 = 52 - 1.",
    ),
)


def cmd_repro(args: argparse.Namespace) -> int:
    cases = [c for c in REPRO_CASES if fnmatch.fnmatch(c.name, args.filter)]
    if not cases:
        raise GuardError(f"no repro case matches {args.filter!r}")
    failures = 0
    rows = []
    for case in cases:
        problems = []
        f = get_preset(case.name).function
        D = defining_set(f)
        we = weight_distribution(D)
        cp = params(D, we)
        if (cp.n, cp.k) != (case.n, case.k):
            problems.append(f"params ({cp.n},{cp.k}) != ({case.n},{case.k})")
        if case.counts is not None and dict(we.counts) != case.counts:
            problems.append("enumerator mismatch")
        if cp.d != case.d:
            problems.append(f"d {cp.d} != {case.d}")
        if cp.w_max != case.w_max:
            problems.append(f"w_max {cp.w_max} != {case.w_max}")
        verdict = rank_criterion_code(D).verdict
        if (verdict == MINIMAL) != case.minimal_computed:
            problems.append(f"minimality {verdict}")
        if problems:
            failures += 1
            rows.append((case.name, "FAIL", "; ".join(problems)))
        elif case.note:
            rows.append((case.name, "XFAIL", case.note))
        else:
            rows.append((case.name, "PASS", ""))
    width = max(len(r[0]) for r in rows)
    for name, status, note in rows:
        line = f"{name:<{width}}  {status:<5}"
        if note:
            line += f"  {note}"
        print(line.rstrip())
    print(f"{len(rows)} cases: "
          f"{sum(1 for r in rows if r[1] == 'PASS')} pass, "
          f"{sum(1 for r in rows if r[1] == 'XFAIL')} annotated, "
          f"{failures} failed")
    return EXIT_NEGATIVE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minicode",
        description="Linear codes over F_q from q-ary functions: build, "
                    "weight distributions, minimality checks, repro suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write defining-set and generator-matrix files")
    p.add_argument("source", help="preset name or function file")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("wdist", help="exact weight distribution")
    p.add_argument("source", help="preset name, function file, or defining-set file")
    p.add_argument("--json", help="also write the machine-readable record here")
    p.set_defaults(func=cmd_wdist)

    p = sub.add_parser("check", help="decide minimality by one criterion")
    p.add_argument("source", help="preset name, function file, or defining-set file")
    p.add_argument(
        "--criterion", required=True,
        help="definition | ab | dhz | rank | witness:<A1|A2|B|C1|C2|D1|D2>",
    )
    p.add_argument("--budget", type=int, default=None,
                   help="elementary-field-op budget, a non-negative integer "
                        "(default 10000000000; MINICODE_BUDGET also applies)")
    p.add_argument("--certificate", help="write the per-class certificate here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repro", help="reproduce the published tables")
    p.add_argument("--filter", default="*", help="case name glob")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:  # GuardError and the format errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
