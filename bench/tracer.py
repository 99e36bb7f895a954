"""Per-layer spans and counts for the traced pass, recorded from outside.

Timing wrappers are installed around the public functions of each trifix
module (and ``SequenceEngine.next_term``) by rebinding every name in the
``trifix.*`` namespaces that refers to the original function, so calls made
through ``from .numtheory import sorted_divisors`` are traced as well.  The
source under ``src/`` is never modified.

Each call records one span: name, start, end and the index of the span that
was open when it began.  Spans are kept in flat arrays during the pass and
written out afterwards.  A span's self time is its duration minus the part
covered by its child spans; calls are single-threaded and properly nested,
so that coverage is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  `factorize` is deliberately left out: it
# runs twice inside every factorize_q call and wrapping it would double the
# tracing cost of the hottest path without adding a layer.
TARGETS = (
    ("numtheory", "build_spf", "numtheory.build_spf"),
    ("numtheory", "factorize_q", "numtheory.factorize_q"),
    ("numtheory", "sorted_divisors", "numtheory.sorted_divisors"),
    ("numtheory", "q_value", "numtheory.q_value"),
    ("engine", "generate", "engine.generate"),
    ("engine", "SequenceEngine.next_term", "engine.next_term"),
    ("analysis", "classify", "analysis.classify"),
    ("analysis", "sweep", "analysis.sweep"),
    ("store", "save_run", "store.save_run"),
    ("store", "load_run", "store.load_run"),
    ("store", "export_table2", "store.export_table2"),
    ("store", "export_table3", "store.export_table3"),
    ("store", "export_figure2", "store.export_figure2"),
    ("oeis", "parse_bfile", "oeis.parse_bfile"),
    ("cli", "main", "cli.main"),
)

EXPORTERS = ("store.export_table2", "store.export_table3", "store.export_figure2")

# Per-layer metrics reported by the traced pass, with their units.  The
# harness adds cli.output.bytes and trace.overhead_s, which it measures.
LAYER_UNITS = {
    "numtheory.sorted_divisors.s": "s",
    "numtheory.sorted_divisors.divisors": "count",
    "numtheory.factorize_q.s": "s",
    "numtheory.factorize_q.calls": "count",
    "numtheory.q_value.s": "s",
    "numtheory.build_spf.calls": "count",
    "numtheory.build_spf.s": "s",
    "engine.next_term.calls": "count",
    "engine.next_term.self_s": "s",
    "engine.scan.candidates": "count",
    "engine.scan.useful_ratio": "ratio",
    "analysis.classify.calls": "count",
    "analysis.classify.self_s": "s",
    "analysis.sweep.s": "s",
    "store.save_run.calls": "count",
    "store.save_run.s": "s",
    "store.save_run.bytes": "bytes",
    "store.load_run.hits": "count",
    "store.load_run.misses": "count",
    "store.load_run.self_s": "s",
    "oeis.parse_bfile.s": "s",
    "store.export.s": "s",
    "cli.main.self_s": "s",
    "cli.output.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly from pass to pass.
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes"))


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._open = [-1]
        self.counts: Counter[str] = Counter()
        self._last_divisors: list[int] | None = None

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents, open_spans = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_spans[-1])
            ends.append(0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # Counting hooks, run after the wrapped call has returned (outside its
    # span, inside its parent's).

    def _after_sorted_divisors(self, divisors):
        self.counts["numtheory.sorted_divisors.divisors"] += len(divisors)
        self._last_divisors = divisors

    def _after_next_term(self, record):
        # The engine takes the first unused divisor of the ascending list,
        # so the position of a(n) in that list is the number of divisors it
        # rejected as already used before the hit.
        divisors, self._last_divisors = self._last_divisors, None
        if divisors is not None and record.a in divisors:
            self.counts["engine.scan.candidates"] += divisors.index(record.a)

    def _after_save_run(self, entry):
        payload = entry.payload_path
        manifest = payload.with_name(payload.name.replace(".bfile.txt", ".manifest.json"))
        self.counts["store.save_run.bytes"] += payload.stat().st_size + manifest.stat().st_size

    def _after_load_run(self, run):
        self.counts["store.load_run.hits" if run is not None else "store.load_run.misses"] += 1

    def hooks(self):
        return {
            "numtheory.sorted_divisors": self._after_sorted_divisors,
            "engine.next_term": self._after_next_term,
            "store.save_run": self._after_save_run,
            "store.load_run": self._after_load_run,
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (everything in LAYER_UNITS except
        the two the harness measures itself)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        total: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, name in enumerate(self.names):
            total[name] += durations[i]
            self_ns[name] += durations[i] - covered[i]
            calls[name] += 1

        def s(counter, name):
            return counter[name] / 1e9

        divisors = self.counts["numtheory.sorted_divisors.divisors"]
        return {
            "numtheory.sorted_divisors.s": s(total, "numtheory.sorted_divisors"),
            "numtheory.sorted_divisors.divisors": divisors,
            "numtheory.factorize_q.s": s(total, "numtheory.factorize_q"),
            "numtheory.factorize_q.calls": calls["numtheory.factorize_q"],
            "numtheory.q_value.s": s(total, "numtheory.q_value"),
            "numtheory.build_spf.calls": calls["numtheory.build_spf"],
            "numtheory.build_spf.s": s(total, "numtheory.build_spf"),
            "engine.next_term.calls": calls["engine.next_term"],
            "engine.next_term.self_s": s(self_ns, "engine.next_term"),
            "engine.scan.candidates": self.counts["engine.scan.candidates"],
            "engine.scan.useful_ratio": calls["engine.next_term"] / divisors if divisors else 0.0,
            "analysis.classify.calls": calls["analysis.classify"],
            "analysis.classify.self_s": s(self_ns, "analysis.classify"),
            "analysis.sweep.s": s(total, "analysis.sweep"),
            "store.save_run.calls": calls["store.save_run"],
            "store.save_run.s": s(total, "store.save_run"),
            "store.save_run.bytes": self.counts["store.save_run.bytes"],
            "store.load_run.hits": self.counts["store.load_run.hits"],
            "store.load_run.misses": self.counts["store.load_run.misses"],
            "store.load_run.self_s": s(self_ns, "store.load_run"),
            "oeis.parse_bfile.s": s(total, "oeis.parse_bfile"),
            "store.export.s": sum(total[name] for name in EXPORTERS) / 1e9,
            "cli.main.self_s": s(self_ns, "cli.main"),
        }

    def write_spans(self, path: Path) -> None:
        """One span per line: id, parent id (-1 for a root), name, and start
        and end in nanoseconds from the first span's start."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                out.write(f"{i}\t{self.parents[i]}\t{name}\t"
                          f"{self.starts[i] - origin}\t{self.ends[i] - origin}\n")


@contextmanager
def installed(tracer: Tracer):
    """Install tracer's wrappers into every loaded trifix module for the
    duration of the block, then restore the originals."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "trifix" or name.startswith("trifix."))]
    hooks = tracer.hooks()
    restore = []
    try:
        for module_name, attr, span in TARGETS:
            home = sys.modules[f"trifix.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method, tracer.wrap(span, original, hooks.get(span)))
                continue
            original = getattr(home, attr)
            wrapper = tracer.wrap(span, original, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each timing over the traced passes of one run; counts are
    taken from the first pass (the harness checks that they repeat)."""
    return {name: passes[0][name] if name in COUNT_METRICS
            else statistics.median(p[name] for p in passes)
            for name in passes[0]}
