"""Correctness gate and span recorder shared by every workload.

Every call a workload makes into the library goes through `Harness.call`,
which counts it as one attempted operation, checks its output, and counts
a wrong output or an exception as one failed operation of the called
module's layer.  A failure never stops the run: an exception only ends the
case it happened in.

When tracing is on, each call also records a span (name, start, end, the
case span that caused it, and the call's work counts).  Spans stay in
memory; `write_jsonl` writes them out once the run ends.

While a pass runs, a timer signal interrupts it every REFERENCE_EVERY
seconds and times a fixed reference kernel (a little interpreted Python,
some allocation and a small numpy product).  The machine this benchmark
was written on is shared, and its speed drifted by a third within minutes;
the same drift slows the kernel, so pass times divided by the kernel's
median time (`reference_seconds`) stay steady where raw seconds do not.
Every time the harness reports is read from `work_clock`, which leaves the
kernel's own time out.
"""

from __future__ import annotations

import json
import signal
import statistics
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

LAYERS = ("gf", "families", "code", "minimality", "witness")
BENCH_LAYER = "bench"  # the case spans themselves: checks and glue in this package


REFERENCE_EVERY = 0.05  # seconds between two reference samples
_REF_TABLE = tuple(range(9))
_REF_A = np.arange(64 * 9, dtype=np.float64).reshape(64, 9) % 3
_REF_B = np.arange(9 * 256, dtype=np.float64).reshape(9, 256) % 3


def reference_kernel() -> float:
    """Time one fixed unit of mixed work, about half a millisecond."""
    start = perf_counter()
    acc = 0
    for i in range(2500):
        acc += _REF_TABLE[i % 9] * (i & 7)
    scratch = {}
    for i in range(500):
        scratch[(i % 13, i)] = tuple(range(i % 5))
    acc += int(np.count_nonzero(np.rint(_REF_A @ _REF_B) % 3))
    return perf_counter() - start


class CaseAborted(Exception):
    """A call raised, so the rest of its case cannot run."""


@dataclass
class Span:
    id: int
    name: str
    case: int  # id of the case span; every span of one case shares it
    parent: Optional[int]
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Harness:
    """Counts operations and failures; records spans when `traced`.

    `tamper(stage, output)` may replace an output before it is checked.
    Only the self-test sets it, to prove that wrong outputs are caught.
    """

    def __init__(self, traced: bool, tamper: Optional[Callable[[str, Any], Any]] = None):
        self.traced = traced
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.layer_fails: Counter = Counter()
        self.failures: list[str] = []
        self.spans: list[Span] = []
        self.case_labels: dict[int, str] = {}
        self._case: Optional[Span] = None
        self.reference_samples: list[float] = []
        self.reference_spent = 0.0
        self._previous_handler = None

    def work_clock(self) -> float:
        """perf_counter() less the time spent in reference samples so far."""
        while True:
            spent = self.reference_spent
            now = perf_counter()
            if spent == self.reference_spent:  # no sample landed in between
                return now - spent

    def _on_tick(self, signum, frame) -> None:
        start = perf_counter()
        self.reference_samples.append(reference_kernel())
        self.reference_spent += perf_counter() - start

    def start_reference(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY, REFERENCE_EVERY)

    def stop_reference(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        if not self.reference_samples:  # a pass shorter than one tick
            self._on_tick(signal.SIGALRM, None)

    def reference_seconds(self) -> float:
        """The kernel's median time over the pass."""
        return statistics.median(self.reference_samples)

    def _fail(self, stage: str, why: str) -> None:
        self.failed += 1
        self.layer_fails[stage.split(".", 1)[0]] += 1
        label = self.case_labels.get(self._case.id) if self._case else None
        self.failures.append(f"{label or '?'}: {stage}: {why}")

    def run_case(self, label: str, body: Callable[["Harness"], None]) -> float:
        """Run one case; return its time in seconds on the work clock."""
        span = Span(len(self.spans), "case", 0, None, 0.0, 0.0)
        span.case = span.id
        self.case_labels[span.id] = label
        self._case = span
        if self.traced:
            self.spans.append(span)
        start = self.work_clock()
        try:
            body(self)
        except CaseAborted:
            pass
        end = self.work_clock()
        span.start, span.end = start, end
        self._case = None
        return end - start

    def call(
        self,
        stage: str,
        fn: Callable[..., Any],
        *args: Any,
        check: Optional[Callable[[Any], bool]] = None,
        counts: Optional[Callable[[Any], dict]] = None,
    ) -> Any:
        """Call `fn(*args)` as one operation of `stage` ("<layer>.<name>")."""
        self.attempted += 1
        start = self.work_clock() if self.traced else 0.0
        try:
            out = fn(*args)
        except Exception as exc:
            self._record(stage, start, None, counts)
            self._fail(stage, f"raised {exc!r}")
            raise CaseAborted from exc
        self._record(stage, start, out, counts)
        if self.tamper is not None:
            out = self.tamper(stage, out)
        if check is not None:
            try:
                ok, why = bool(check(out)), "wrong output"
            except Exception as exc:  # a check that cannot run means a malformed output
                ok, why = False, f"check raised {exc!r}"
            if not ok:
                self._fail(stage, why)
        return out

    def _record(self, stage: str, start: float, out: Any, counts) -> None:
        if not self.traced:
            return
        end = self.work_clock()
        case = self._case
        got = counts(out) if (counts is not None and out is not None) else {}
        self.spans.append(Span(len(self.spans), stage, case.id, case.id, start, end, got))


# -- derived views ---------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer; case spans count as the `bench` layer."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
    for s in spans:
        layer = BENCH_LAYER if s.name == "case" else s.layer
        out[layer] = out.get(layer, 0.0) + own[s.id]
    return out


def stage_breakdown(h: Harness) -> dict[str, dict[str, float]]:
    """Per case label: seconds spent in each stage, plus the case total."""
    out: dict[str, dict[str, float]] = {}
    for s in h.spans:
        row = out.setdefault(h.case_labels[s.case], {})
        key = "total" if s.name == "case" else s.name
        row[key] = row.get(key, 0.0) + s.duration
    return out


def write_jsonl(path, header: dict, passes: list[Harness], summary: dict) -> None:
    """One run record, every span of every traced pass, then the summary."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"type": "run", **header}) + "\n")
        for number, h in enumerate(passes):
            for s in h.spans:
                rec = {"type": "span", "pass": number, "case_label": h.case_labels[s.case]}
                fh.write(json.dumps({**rec, **asdict(s)}) + "\n")
        fh.write(json.dumps({"type": "summary", **summary}) + "\n")
