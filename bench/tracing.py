"""Spans and counters around the public functions of each polyconduche layer.

The tracer wraps the functions named in LAYERS and rebinds every name in every
loaded polyconduche module that refers to the original function, so a call
from `movements` into `terms.analyze_term` is recorded as well as a call from
the benchmark. Each call records a span (id, name, start, end, parent span,
operation id) and updates the counts kept at the same boundary. Nothing in
`src/` changes; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function): the per-layer metric suffixes reported for it. The
# "calls" and "self_s" figures come from the spans; every other suffix is a
# count taken from the call's arguments or result in `_count`.
LAYERS = {
    ("words", "tokenize"): ("calls", "self_s"),
    ("words", "serialize"): ("calls", "self_s"),
    ("terms", "analyze_term"): ("calls", "self_s", "tokens"),
    ("terms", "check_term"): ("calls",),
    ("terms", "enumerate_terms"): ("calls", "self_s", "terms"),
    ("terms", "evaluate"): ("calls", "self_s"),
    ("movements", "enumerate_movements"): ("calls", "self_s", "movements"),
    ("movements", "apply_movement"): ("calls", "self_s"),
    ("movements", "equivalent"): (
        "calls", "self_s", "witness", "distinct", "unknown", "witness_steps",
    ),
    ("conduche", "check_conduche"): ("self_s",),
    ("conduche", "fiber_conduche"): ("calls", "self_s"),
    ("conduche", "induced_word_map"): ("calls", "self_s"),
    ("polygraphs", "check_basis"): ("calls", "self_s", "searches"),
    ("polygraphs", "transfer_basis"): ("self_s",),
    ("polygraphs", "indecomposables"): ("self_s",),
    ("categories", "validate_category"): ("calls", "self_s"),
    ("categories", "validate_functor"): ("self_s",),
    ("constructions", "slice_1cat"): ("self_s",),
    ("constructions", "pullback"): ("self_s",),
    ("manifests", "load_document"): ("calls", "self_s"),
    ("manifests", "dump_json"): ("self_s", "bytes"),
    ("cli", "main"): ("calls", "self_s"),
}

# Derived figures, computed from the counts above in `layer_metrics`.
DERIVED = ("movements.search_yield", "trace.overhead_ratio")

# Counts that repeat exactly between two traced runs of the same inputs.
DETERMINISTIC = tuple(
    f"{module}.{function}.{what}"
    for (module, function), whats in LAYERS.items()
    for what in whats
    if what != "self_s"
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [
        f"{module}.{function}.{what}"
        for (module, function), whats in LAYERS.items()
        for what in whats
    ]
    return names + list(DERIVED)


class Tracer:
    """Records spans and counts while installed on a loaded polyconduche."""

    def __init__(self, span_limit: int = 50_000):
        self.span_limit = span_limit
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None
            and (name == "polyconduche" or name.startswith("polyconduche."))
        }
        for module_name, function in LAYERS:
            home = modules[f"polyconduche.{module_name}"]
            original = getattr(home, function)
            traced = self._wrap(f"{module_name}.{function}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, function):
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if span_id < self.span_limit:
                    self.spans.append(
                        (span_id, name, start, end, parent[1] if parent else None, self.op)
                    )
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "terms.analyze_term":
            counts["terms.analyze_term.tokens"] += len(args[1].tokens)
        elif name == "terms.enumerate_terms":
            counts["terms.enumerate_terms.terms"] += len(result[0])
        elif name == "movements.enumerate_movements":
            counts["movements.enumerate_movements.movements"] += len(result)
            if self._active["movements.equivalent"]:
                counts["movements.equivalent.movements"] += len(result)
        elif name == "movements.equivalent":
            counts[f"movements.equivalent.{result.verdict}"] += 1
            if result.witness is not None:
                counts["movements.equivalent.witness_steps"] += len(result.witness.steps)
            if self._active["polygraphs.check_basis"]:
                counts["polygraphs.check_basis.searches"] += 1
        elif name == "manifests.dump_json":
            counts["manifests.dump_json.bytes"] += len(result.encode("utf-8"))

    def layer_metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer figures of one pass by metric name, from `passes`
        identical traced passes; zero where a layer never ran."""
        out: dict[str, float] = {}
        for (module, function), whats in LAYERS.items():
            name = f"{module}.{function}"
            for what in whats:
                if what == "calls":
                    out[f"{name}.calls"] = self.calls[name] // passes
                elif what == "self_s":
                    out[f"{name}.self_s"] = self.self_s[name] / passes
                else:
                    out[f"{name}.{what}"] = self.counts[f"{name}.{what}"] // passes
        generated = self.counts["movements.equivalent.movements"]
        steps = self.counts["movements.equivalent.witness_steps"]
        out["movements.search_yield"] = steps / generated if generated else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            header = dict(header, spans_total=self.span_count, spans_kept=len(self.spans))
            out.write(json.dumps(header) + "\n")
            out.write('["id", "name", "start", "end", "parent", "op"]\n')
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def metric_unit(name: str) -> str:
    what = name.rsplit(".", 1)[1]
    if what == "self_s":
        return "s"
    if what in ("search_yield", "overhead_ratio"):
        return "ratio"
    if what == "bytes":
        return "bytes"
    return "count"
