"""Run one minicode benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up first: several fresh child interpreters each import `minicode` from
`src/`, build the field tables and build the presets, and report their
times.  Then the workload's cases, made from the seed, are run in whole
passes until another pass would overrun `--seconds` (at least one pass).
Every output is checked; a wrong output or an exception counts as one
failed operation and the run goes on.

Wall and case times are also divided by the median time of a fixed
reference kernel sampled every 50 ms during the same pass (unit "ref";
see harness.py), which keeps them steady on a machine whose speed drifts.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the run alternates untraced and traced passes, writes the
traced spans to `perfbench/out/trace-<workload>-seed<N>.jsonl` and carries
the per-layer metrics, including the tracing overhead.  The lines before
the last give the machine, the inputs, every metric with its unit, and
`fail_frac` with the number of operations attempted.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# BLAS runs single-threaded: on a small shared machine two BLAS threads wait
# on each other whenever the second core is busy, which made the prime-field
# stages much less steady from run to run.  This must precede numpy's import,
# here and in the set-up children, which inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

from harness import LAYERS, Harness, layer_self_times, stage_breakdown, write_jsonl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

# The bounded metrics.  Times in "ref" are seconds divided by the reference
# kernel's time over the same pass (see harness.py): raw seconds on the
# machine this was written on spread by up to 0.32 over ten seeds.
# case_p98_ref is the tail a user waits for: on oracle-small's 505 cases it
# has 10 beyond it; on the 7 to 10 cases of the other workloads it lies
# between the two slowest.  The slowest single case of oracle-small is a
# lone ~30 ms sample, and its spread over five seeds was 0.18.
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "case_p98_ref": "ref",
}
# Printed on every run but not bounded: the raw seconds behind the "ref"
# metrics, the reference kernel's own time, and the case median.  Over the
# 7 to 10 unequal cases of three workloads the median falls between cases
# of different sizes, and spreads of 0.27 to 0.42 followed.
UNBOUNDED = {
    "wall_s": "s",
    "case_max_s": "s",
    "case_p50_ms": "ms",
    "case_p98_ms": "ms",
    "reference_ms": "ms",
}

PER_LAYER = {
    "gf.tables_s": "s",
    "gf.self_s": "s",
    "gf.fails": "count",
    "families.presets_s": "s",
    "families.validate_s": "s",
    "families.self_s": "s",
    "families.fails": "count",
    "code.linearity_s": "s",
    "code.defining_set_s": "s",
    "code.rank_s": "s",
    "code.wdist_s": "s",
    "code.wdist.messages": "count",
    "code.wdist.msgs_per_s": "1/s",
    "code.self_s": "s",
    "code.fails": "count",
    "minimality.rank_s": "s",
    "minimality.rank.classes": "count",
    "minimality.rank.classes_per_s": "1/s",
    "minimality.rank.est_ops": "count",
    "minimality.verify_indices_s": "s",
    "minimality.verify_vectors_s": "s",
    "minimality.verify.entries_per_s": "1/s",
    "minimality.definition_s": "s",
    "minimality.dhz_s": "s",
    "minimality.ab_s": "s",
    "minimality.ab.decided_frac": "ratio",
    "minimality.cert_write_s": "s",
    "minimality.cert_read_s": "s",
    "minimality.cert_bytes": "bytes",
    "minimality.self_s": "s",
    "minimality.fails": "count",
    "witness.certificate_s": "s",
    "witness.classes_per_s": "1/s",
    "witness.self_s": "s",
    "witness.fails": "count",
    "bench.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2]
# the comma-separated field orders the workload uses.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minicode
t1 = time.perf_counter()
for q in sys.argv[2].split(","):
    minicode.field_by_order(int(q))
t2 = time.perf_counter()
minicode.paper_presets()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1, "presets_s": t3 - t2}))
"""


@dataclass
class Pass:
    harness: Harness
    wall: float
    case_times: list[float]
    reference: float  # the reference kernel's median time over this pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run each workload at a tiny size (self-test only)")
    return p.parse_args(argv)


def run_setup(fields: tuple[int, ...]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), ",".join(map(str, fields))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded (None if unknown)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(args, cases, load) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cases": len(cases),
        "sum_q_pow_k": sum(c.messages for c in cases),
        "sum_P_n_k": sum(c.rank_ops for c in cases),
        "setup_repeats": SETUP_REPEATS,
    }


def run_pass(cases, traced: bool, tamper=None) -> Pass:
    gc.collect()  # start every pass from the same heap, not the last pass's garbage
    h = Harness(traced, tamper)
    h.start_reference()
    try:
        start = h.work_clock()
        times = [h.run_case(c.label, c.body) for c in cases]
        wall = h.work_clock() - start
    finally:
        h.stop_reference()
    return Pass(h, wall, times, h.reference_seconds())


def measure(cases, seconds: float, traced: bool) -> dict[bool, list[Pass]]:
    """Whole rounds until another would overrun `seconds`; at least one.

    A round is one untraced pass, followed by one traced pass when `traced`.
    """
    kinds = (False, True) if traced else (False,)
    done: dict[bool, list[Pass]] = {k: [] for k in kinds}
    start = perf_counter()
    while True:
        for k in kinds:
            done[k].append(run_pass(cases, k))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(done[False]) > seconds:
            return done


def p98(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=50, method="inclusive")[-1]


def end_to_end(passes: list[Pass], setups: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_ref": med(p.wall / p.reference for p in passes),
        "setup_s": med(s["import_s"] + s["tables_s"] + s["presets_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "case_p98_ref": med(p98(p.case_times) / p.reference for p in passes),
        "wall_s": med(p.wall for p in passes),
        "case_max_s": med(max(p.case_times) for p in passes),
        "reference_ms": med(p.reference for p in passes) * 1e3,
        "case_p50_ms": med(med(p.case_times) for p in passes) * 1e3,
        "case_p98_ms": med(p98(p.case_times) for p in passes) * 1e3,
    }


def layer_metrics(h: Harness) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up and overhead are added later)."""
    secs: dict[str, float] = defaultdict(float)
    counts: dict[str, Counter] = defaultdict(Counter)
    calls: Counter = Counter()
    for s in h.spans:
        secs[s.name] += s.duration
        counts[s.name].update(s.counts)
        calls[s.name] += 1

    def rate(num, den):
        return num / den if den else 0.0

    verify_s = secs["minimality.verify_indices"] + secs["minimality.verify_vectors"]
    verify_entries = (counts["minimality.verify_indices"]["entries"]
                      + counts["minimality.verify_vectors"]["entries"])
    out = {
        "families.validate_s": secs["families.validate"],
        "code.linearity_s": secs["code.linearity"],
        "code.defining_set_s": secs["code.defining_set"],
        "code.rank_s": secs["code.rank"],
        "code.wdist_s": secs["code.wdist"],
        "code.wdist.messages": counts["code.wdist"]["messages"],
        "code.wdist.msgs_per_s": rate(counts["code.wdist"]["messages"], secs["code.wdist"]),
        "minimality.rank_s": secs["minimality.rank"],
        "minimality.rank.classes": counts["minimality.rank"]["classes"],
        "minimality.rank.classes_per_s": rate(counts["minimality.rank"]["classes"],
                                              secs["minimality.rank"]),
        "minimality.rank.est_ops": counts["minimality.rank"]["est_ops"],
        "minimality.verify_indices_s": secs["minimality.verify_indices"],
        "minimality.verify_vectors_s": secs["minimality.verify_vectors"],
        "minimality.verify.entries_per_s": rate(verify_entries, verify_s),
        "minimality.definition_s": secs["minimality.definition"],
        "minimality.dhz_s": secs["minimality.dhz"],
        "minimality.ab_s": secs["minimality.ab"],
        "minimality.ab.decided_frac": rate(counts["minimality.ab"]["decided"],
                                           calls["minimality.ab"]),
        "minimality.cert_write_s": secs["minimality.cert_write"],
        "minimality.cert_read_s": secs["minimality.cert_read"],
        "minimality.cert_bytes": counts["minimality.cert_write"]["bytes"],
        "witness.certificate_s": secs["witness.certificate"],
        "witness.classes_per_s": rate(counts["witness.certificate"]["classes"],
                                      secs["witness.certificate"]),
    }
    for layer, own in layer_self_times(h.spans).items():
        out[f"{layer}.self_s"] = own
    for layer in LAYERS:
        out[f"{layer}.fails"] = h.layer_fails[layer]
    return out


def emit(name: str, value: float, unit: str) -> None:
    print(f"metric {name:<34} {value:<22.10g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minicode" / "__init__.py").is_file():
        print(f"error: no minicode sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import minicode
    import workloads

    if Path(minicode.__file__).resolve().parent != SRC / "minicode":
        print(f"error: imported minicode from {minicode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    load = os.getloadavg()
    wl = workloads.WORKLOADS[args.workload]
    setups = [run_setup(wl.fields) for _ in range(SETUP_REPEATS)]
    cases = workloads.build_cases(args.workload, args.seed, args.tiny)
    env = machine_record(args, cases, load)
    print("# env " + json.dumps(env))

    done = measure(cases, args.seconds, bool(args.trace))
    plain = done[False]
    e2e = end_to_end(plain, setups)
    runs = [p for kind in done.values() for p in kind]
    attempted = sum(p.harness.attempted for p in runs)
    failed = sum(p.harness.failed for p in runs)
    for p in runs:
        for why in p.harness.failures[:10]:
            print(f"# fail {why}")
    print(f"# passes {len(plain)} untraced"
          + (f", {len(done[True])} traced" if args.trace else ""))
    print(f"# cases {len(cases)} per pass; case_p98_ms has {len(cases) * 0.02:.1f} beyond it")
    for name, unit in (END_TO_END | UNBOUNDED).items():
        emit(name, e2e[name], unit)
    emit("fail_frac", failed / attempted, "ratio")
    emit("ops_total", attempted, "count")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        traced = done[True]
        per_pass = [layer_metrics(p.harness) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_wall = statistics.median(p.wall / p.reference for p in traced)
        layers["gf.tables_s"] = statistics.median(s["tables_s"] for s in setups)
        layers["families.presets_s"] = statistics.median(s["presets_s"] for s in setups)
        layers["trace.overhead_frac"] = (traced_wall - e2e["wall_ref"]) / e2e["wall_ref"]
        emit("traced_wall_ref", traced_wall, "ref")
        breakdown = stage_breakdown(traced[0].harness)
        for label in sorted(breakdown):
            row = breakdown[label]
            parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(row.items()) if k != "total")
            print(f"# case {label} total={row['total']:.4f} {parts}")
        for name, unit in PER_LAYER.items():
            emit(name, layers[name], unit)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_jsonl(path, env, [p.harness for p in traced],
                    {"end_to_end": e2e, "per_layer": layers, "cases": breakdown})
        print(f"# spans written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
