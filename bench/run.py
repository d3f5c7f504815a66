"""polyconduche benchmark: one workload, one process, one closed loop.

Run from the root of a source checkout:

    python3 bench/run.py --workload braid-search --seed 1 --seconds 25 --trace 0

The workload's inputs are built from --seed. With --trace 0 the operations
run one at a time, in whole passes, until --seconds have gone by, and the
last line of stdout is a JSON object with the end-to-end metrics. With
--trace 1 the benchmark runs a warm-up pass, then untraced and traced passes
of the same operations, and reports the per-layer metrics instead; the spans go to
.bench_work/trace/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from tracing import Tracer, metric_names, metric_unit  # noqa: E402
from workloads import WORKLOADS, UNDECIDED, Program  # noqa: E402

SETUP_REPEATS = 5
# Median time of `reference_work` on the machine the bounds were tuned on
# (a shared 2-core Xeon sandbox at 2.1 GHz, Python 3.11). Timings are scaled
# by REFERENCE_MS over the median measured in the same run.
REFERENCE_MS = 2.5
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW_S = 0.5
TRACE_MIN_S = 2.0
MODULES = (
    "words", "terms", "movements", "conduche", "polygraphs", "categories",
    "constructions", "manifests", "cli", "fixtures",
)
CAVEAT = "shared 2-core sandbox, no CPU pinning: timings carry noise from other tenants"


def fresh_program() -> Program:
    """Import polyconduche from this checkout as if for the first time."""
    for name in [n for n in sys.modules if n == "polyconduche" or n.startswith("polyconduche.")]:
        del sys.modules[name]
    package = importlib.import_module("polyconduche")
    if not Path(package.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"polyconduche was imported from {package.__file__}, not {SOURCE}")
    return Program(*(importlib.import_module(f"polyconduche.{m}") for m in MODULES))


def set_up(workload: str, seed: int, size: str):
    """Import, build the inputs and write the documents, SETUP_REPEATS times;
    returns the last operations and every set-up time, raw and scaled to the
    reference speed."""
    times = []
    scaled = []
    reference = Reference()
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        pc = fresh_program()
        ops = WORKLOADS[workload](pc, seed, size, WORK)
        ended = perf_counter()
        for _ in range(5):
            reference.sample()
        times.append(ended - started)
        scaled.append((ended - started) * reference.scale_at(started, ended))
    return ops, times, scaled


def reference_work() -> int:
    """A fixed arithmetic loop in the interpreter. Of the kernels tried, its
    time tracked the program's time most closely as the machine's speed
    drifted: allocation-heavy kernels slowed down more than the program."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


class Reference:
    """Times `reference_work` between operations.

    The speed of a shared machine drifts by a third within seconds, as other
    tenants come and go. The program and the reference slow down together,
    so a time scaled by the reference measured around it varies far less
    between runs than the raw time does."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        started = perf_counter()
        reference_work()
        self.last = perf_counter()
        self.stamps.append(self.last)
        self.samples.append(self.last - started)

    def tick(self) -> None:
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def scale_at(self, started: float, ended: float) -> float:
        """Factor that turns a time measured from `started` to `ended` into
        one at the reference speed, from the reference samples taken within
        REFERENCE_WINDOW_S of it (at least the five nearest)."""
        low = bisect.bisect_left(self.stamps, started - REFERENCE_WINDOW_S)
        high = bisect.bisect_right(self.stamps, ended + REFERENCE_WINDOW_S)
        while high - low < 5 and (low > 0 or high < len(self.stamps)):
            low, high = max(0, low - 1), min(len(self.stamps), high + 1)
        return REFERENCE_MS / (1000 * statistics.median(self.samples[low:high]))


class Tally:
    """Latencies, verdicts and failures of the operations run so far."""

    def __init__(self, ops):
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.starts: list[list[float]] = [[] for _ in ops]
        self.verdicts: Counter = Counter()
        self.failures: list[str] = []
        self.failed = 0
        self.decided = 0

    def run_pass(self, ops, tracer: Tracer | None = None, reference: Reference | None = None) -> float:
        """One closed-loop pass over the operations; returns its wall time."""
        started = perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            begun = perf_counter()
            self.starts[index].append(begun)
            try:
                result = op.run()
            except Exception as exc:  # a crash is a failed operation, not a stop
                self.latencies[index].append(perf_counter() - begun)
                self.verdicts["error"] += 1
                self.failed += 1
                self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            self.latencies[index].append(perf_counter() - begun)
            try:
                verdict, problem = op.check(result)
            except Exception as exc:
                verdict, problem = "error", f"{op.kind}: oracle raised {type(exc).__name__}: {exc}"
            self.verdicts[verdict] += 1
            if verdict not in UNDECIDED:
                self.decided += 1
            if problem is not None:
                self.failed += 1
                self.failures.append(problem)
            if reference is not None:
                reference.tick()
        if tracer is not None:
            tracer.op = None
        return perf_counter() - started

    @property
    def attempted(self) -> int:
        return sum(len(runs) for runs in self.latencies)


def nearest_rank(values: list[float], percent: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percent(samples: int) -> float:
    """The highest percentile with at least ten samples above it."""
    if samples <= 20:
        return 50.0
    return math.floor(1000 * (samples - 10) / samples) / 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, seconds: float) -> tuple[Tally, dict, dict]:
    """Whole closed-loop passes until `seconds` have gone by.

    The sample of an operation is the median of its runs, scaled to the
    reference speed."""
    tally = Tally(ops)
    reference = Reference()
    passes = 0
    started = perf_counter()
    while passes == 0 or perf_counter() - started < seconds:
        tally.run_pass(ops, reference=reference)
        passes += 1
    wall = perf_counter() - started
    raw = [statistics.median(runs) for runs in tally.latencies]
    samples = [
        statistics.median(t * reference.scale_at(s, s + t) for s, t in zip(starts, runs))
        for starts, runs in zip(tally.starts, tally.latencies)
    ]
    percent = tail_percent(len(samples))
    metrics = {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * nearest_rank(samples, percent), "ms"),
        "decided_ratio": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "passes": passes,
        "wall_s": wall,
        "tail_percentile": percent,
        "samples": len(samples),
        "runs_per_sample": passes,
        "reference_scale": REFERENCE_MS / (1000 * statistics.median(reference.samples)),
        "reference_samples": len(reference.samples),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1000 * statistics.median(raw),
    }
    return tally, metrics, info


def timed_passes(tally: Tally, ops, passes: int, reference: Reference, tracer=None):
    """Wall time of `passes` passes, raw and scaled to the reference speed."""
    started = perf_counter()
    for _ in range(passes):
        tally.run_pass(ops, tracer, reference)
    ended = perf_counter()
    reference.sample()
    return ended - started, (ended - started) * reference.scale_at(started, ended)


def trace_run(ops, workload: str, seed: int) -> tuple[Tally, dict, dict]:
    """A warm-up pass, then untraced and traced passes of the same
    operations, as many of each as last TRACE_MIN_S. The per-layer figures
    are per traced pass."""
    tally = Tally(ops)
    reference = Reference()
    warm_up, _ = timed_passes(tally, ops, 1, reference)
    passes = max(1, math.ceil(TRACE_MIN_S / warm_up))
    untraced, untraced_scaled = timed_passes(tally, ops, passes, reference)
    before = Counter(tally.verdicts)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_scaled = timed_passes(tally, ops, passes, reference, tracer)
    finally:
        tracer.uninstall()
    verdicts = {k: (n - before[k]) // passes for k, n in sorted(tally.verdicts.items())}
    layers = tracer.layer_metrics(passes, traced_scaled / untraced_scaled)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if self_total > traced / passes:
        tally.failures.append(f"summed self time {self_total} exceeds traced wall {traced / passes}")
    spans = WORK / "trace" / f"{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans, {"workload": workload, "seed": seed, "ops": len(ops), "passes": passes})
    metrics = {name: (layers[name], metric_unit(name)) for name in metric_names()}
    info = {
        "traced_passes": passes,
        "traced_pass_verdicts": verdicts,
        "untraced_wall_s": untraced / passes,
        "traced_wall_s": traced / passes,
        "self_s_total": self_total,
        "spans": spans.relative_to(ROOT).as_posix(),
    }
    return tally, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full",
        help="tiny runs a handful of operations, for the smoke test",
    )
    args = parser.parse_args(argv)
    if not (SOURCE / "polyconduche" / "__init__.py").is_file():
        print(f"error: no polyconduche sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    os.chdir(ROOT)

    ops, setup_times, setup_scaled = set_up(args.workload, args.seed, args.size)
    if args.trace:
        tally, metrics, info = trace_run(ops, args.workload, args.seed)
    else:
        tally, metrics, info = measure(ops, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")

    attempted = tally.attempted
    failed = tally.failed
    for problem in tally.failures[:20]:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "ops_per_pass": len(ops),
        "failed_ratio": failed / attempted,
        "verdicts": dict(sorted(tally.verdicts.items())),
        "setup_runs_s": setup_times,
        **info,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "caveat": CAVEAT,
    }))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
