"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size in a fresh process, untraced and
   traced, and checks that every metric BENCHMARK.json names is printed
   with its unit (on a `metric` line and in the final JSON line), that
   `fail_frac`, `ops_total` and the unbounded timings are printed too, and
   that no operation failed.
2. Runs the tiny workloads in this process with one output tampered with
   (a certificate index flipped, an enumerator count moved to another
   weight, a witness vector flipped) and checks that each raises
   `fail_frac` above 0, which shows the gate catches wrong outputs.
3. Copies BENCHMARK.json and perfbench/ alone into an empty directory and
   checks that the benchmark exits non-zero there without a result.

Exits 0 when every check passes.  Takes about 30 s.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run

TAMPERED = ("repro-heavy", "oracle-small", "ext-fields")


def _flip_first_entry(cert):
    """Replace the first entry of the first class by the second one.

    The class then holds a repeated member, so its rank drops below k - 1.
    """
    rep, items = cert.classes[0]
    flipped = (items[1],) + tuple(items[1:])
    return dataclasses.replace(cert, classes=((rep, flipped),) + cert.classes[1:])


def flip_certificate_index(stage, out):
    if stage == "minimality.rank" and out.is_minimal:
        return dataclasses.replace(out, witness=_flip_first_entry(out.witness))
    return out


def flip_witness_vector(stage, out):
    return _flip_first_entry(out) if stage == "witness.certificate" else out


def move_enumerator_count(stage, out):
    """Move one codeword from the heaviest weight to the weight below it."""
    if stage != "code.wdist":
        return out
    import minicode as mc

    counts = {w: c for w, c in out.counts.items() if c}
    top = max(counts)
    counts[top] -= 1
    counts[top - 1] = counts.get(top - 1, 0) + 1
    return mc.WeightEnumerator(out.q, out.n, out.k, counts)


def check_printed(failures: list[str], bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        table = run.END_TO_END if trace == 0 else run.PER_LAYER
        if table != wanted:
            failures.append(f"run.py's {key} table differs from BENCHMARK.json")
        for w in bench["workloads"]:
            name = w["name"]
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600,
            )
            tag = f"{name} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{tag}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {}
            for ln in lines:
                parts = ln.split()
                if parts[:1] == ["metric"] and len(parts) == 4:
                    printed[parts[1]] = parts[3]
            for metric, unit in wanted.items():
                if printed.get(metric) != unit:
                    failures.append(f"{tag}: no `metric {metric} ... {unit}` line")
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    failures.append(f"{tag}: final JSON lacks {metric} in {unit}")
            if set(result["metrics"]) != set(wanted):
                failures.append(f"{tag}: final JSON has extra metrics")
            extra = {"fail_frac": "ratio", "ops_total": "count"} | run.UNBOUNDED
            for metric, unit in extra.items():
                if printed.get(metric) != unit:
                    failures.append(f"{tag}: no `metric {metric} ... {unit}` line")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")


def check_gate(failures: list[str]) -> None:
    import workloads

    tampers = [(w, move_enumerator_count) for w in TAMPERED]
    tampers += [(w, flip_certificate_index) for w in TAMPERED]
    tampers.append(("witness-certs", flip_witness_vector))
    for name, tamper in tampers:
        cases = workloads.build_cases(name, 7, tiny=True)
        h = run.run_pass(cases, traced=False, tamper=tamper).harness
        if h.failed == 0:
            failures.append(f"{name}: {tamper.__name__} left fail_frac at 0")
        else:
            print(f"ok   {name}: {tamper.__name__} gives fail_frac "
                  f"{h.failed}/{h.attempted}")


def check_bare_directory(failures: list[str]) -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if done.returncode == 0 or done.stdout.strip():
            failures.append("benchmark ran without the sources; it must fail there")
        else:
            print(f"ok   without sources: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    check_printed(failures, bench)
    check_gate(failures)
    check_bare_directory(failures)
    for why in failures:
        print(f"FAIL {why}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
