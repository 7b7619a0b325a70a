"""Spans around calls into wmtr's layers, recorded from outside the program.

`Tracer.install` rebinds the layer entry points (module attributes and
class methods) to wrappers that record one span per call; `uninstall`
puts the originals back.  Spans stay in memory as
``[name, start, end, parent, data]`` in start order, so the spans that
descend from a root span are the ones recorded after it and before the
next root.  A span's self time is its duration minus the durations of
its direct children (calls are synchronous, so children never overlap).

Graph sizes are read from every `TraceSet` the program constructs, through
`graph_counts`.  If a later representation change breaks that adapter,
only the graph counts go missing; the timings are unaffected.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  Every wmtr module that imported the
# function under its own name is patched too, so calls made through
# `from .x import f` bindings are traced as well.
FUNCTIONS = [
    ("wmtr.program", "parse", "program.parse"),
    ("wmtr.program", "validate", "program.validate"),
    ("wmtr.program", "events_of_program", "program.events_of_program"),
    ("wmtr.memmodel", "explore", "memmodel.build"),
    ("wmtr.memmodel", "enforced_order", "memmodel.build"),
    ("wmtr.porder", "check_axioms", "porder.check_axioms"),
    ("wmtr.porder", "check_lemma1", "porder.check_lemma1"),
    ("wmtr.refine", "check_wmtr", "refine.check"),
    ("wmtr.cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("wmtr.memmodel", "TraceSet", "topo", "memmodel.topo"),
    ("wmtr.memmodel", "TraceSet", "observables", "memmodel.observables"),
    ("wmtr.memmodel", "TraceSet", "empirical_pairs", "memmodel.empirical_pairs"),
    ("wmtr.porder", "EnforcedOrder", "validate", "porder.validate"),
]

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "memmodel.build": "memmodel.build_s",
    "memmodel.topo": "memmodel.topo_s",
    "memmodel.empirical_pairs": "memmodel.empirical_pairs_s",
    "memmodel.observables": "memmodel.observables_s",
    "refine.check": "refine.check_self_s",
    "program.parse": "program.parse_s",
    "program.validate": "program.validate_s",
    "program.events_of_program": "program.events_of_program_s",
    "porder.validate": "porder.validate_s",
    "porder.check_axioms": "porder.check_axioms_s",
    "porder.check_lemma1": "porder.check_lemma1_s",
    "cli.main": "cli.self_s",
    # the benchmark's own work: case checks, digests, the graph adapter
    "bench.pass": "bench.self_s",
    "bench.adapter": "bench.self_s",
}

LAYERS = ("memmodel", "program", "porder", "refine", "cli")

# metric -> unit, for everything `pass_metrics` reports
PASS_UNITS = {
    **{m: "s" for m in SELF_TIME_METRIC.values()},
    "memmodel.states": "count",
    "memmodel.edges": "count",
    "memmodel.silent_edges": "count",
    "memmodel.silent_share": "ratio",
    "memmodel.states_per_s": "1/s",
    "memmodel.bytes_per_state": "B",
    "refine.spec_observables": "count",
    "refine.impl_observables": "count",
    "refine.cex_events": "count",
    "porder.pairs": "count",
    **{f"{layer}.calls": "count" for layer in LAYERS},
}

SETUP_UNITS = {
    "setup.parse_s": "s",
    "setup.validate_s": "s",
    "setup.events_of_program_s": "s",
}

# every metric `Tracer.per_layer` reports
UNITS = {**PASS_UNITS, **SETUP_UNITS, "trace.pass_s": "s",
         "trace.untraced_pass_s": "s", "trace.overhead_s": "s"}


def graph_counts(ts):
    """(states, edges, silent edges) of a TraceSet's exploration graph,
    where a silent edge carries an empty event burst; None when the
    graph is not a ``state -> ((burst, successor), ...)`` mapping."""
    try:
        edges = silent = 0
        for acts in ts.graph.values():
            edges += len(acts)
            silent += sum(1 for burst, _ in acts if not burst)
        return len(ts.graph), edges, silent
    except (AttributeError, TypeError, ValueError):
        return None


def current_rss() -> int | None:
    """Resident set size of this process in bytes (Linux only)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []      # indices of spans not yet ended, innermost last
        self._builds = []    # indices of open memmodel.build spans
        self._undo = []      # (owner, attribute, original)
        self.missing_counts = False

    # recording

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            is_build = name == "memmodel.build"
            if is_build:
                tracer.spans[idx][4] = {"rss0": current_rss()}
                tracer._builds.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    tracer.spans[idx][4] = after(args, result)
                return result
            finally:
                if is_build:
                    tracer._builds.pop()
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _on_traceset(self, ts) -> None:
        """Called when the program constructs a TraceSet: record the graph
        size and the RSS growth on the enclosing build span."""
        if not self._builds:
            return
        with self.span("bench.adapter"):
            data = self.spans[self._builds[-1]][4]
            counts = graph_counts(ts)
            if counts is None:
                self.missing_counts = True
                return
            data["states"], data["edges"], data["silent"] = counts
            rss, rss0 = current_rss(), data["rss0"]
            if rss is not None and rss0 is not None:
                data["rss_growth"] = rss - rss0

    # patching

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "wmtr" or n.startswith("wmtr.")]
        after = {"refine.check": _verdict_counts,
                 "porder.check_axioms": _pair_count}
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, after.get(name))
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
        traceset = sys.modules["wmtr.memmodel"].TraceSet
        init = traceset.__init__
        tracer = self

        def traced_init(ts, *args, **kwargs):
            init(ts, *args, **kwargs)
            tracer._on_traceset(ts)

        self._patch(traceset, "__init__", traced_init)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # reporting

    def groups(self, root: str) -> list:
        """Lists of span indices, one per root span named `root`; each
        list holds the root and every span recorded under it."""
        out = []
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent is None:
                out.append([i] if name == root else None)
            elif out and out[-1] is not None:
                out[-1].append(i)
        return [g for g in out if g is not None]

    def pass_metrics(self, group, self_t) -> dict:
        """Per-layer metrics of one traced pass."""
        m = dict.fromkeys(PASS_UNITS, 0)
        largest = None
        for i in group:
            name, _, _, _, data = self.spans[i]
            m[SELF_TIME_METRIC[name]] += self_t[i]
            layer = name.split(".")[0]
            if layer in LAYERS:
                m[f"{layer}.calls"] += 1
            if not data:
                continue
            if name == "memmodel.build" and "states" in data:
                m["memmodel.states"] += data["states"]
                m["memmodel.edges"] += data["edges"]
                m["memmodel.silent_edges"] += data["silent"]
                if "rss_growth" in data and (
                        largest is None or data["states"] > largest["states"]):
                    largest = data
            for key in ("spec_observables", "impl_observables", "cex_events"):
                if key in data:
                    m[f"refine.{key}"] += data[key]
            if "pairs" in data:
                m["porder.pairs"] += data["pairs"]
        if m["memmodel.edges"]:
            m["memmodel.silent_share"] = m["memmodel.silent_edges"] / m["memmodel.edges"]
        if m["memmodel.build_s"] > 0:
            m["memmodel.states_per_s"] = m["memmodel.states"] / m["memmodel.build_s"]
        if largest is not None and largest["states"]:
            m["memmodel.bytes_per_state"] = largest["rss_growth"] / largest["states"]
        return m

    def per_layer(self, untraced_pass_s: float) -> dict:
        """Median over traced passes of each per-layer metric, the traced
        set-up's self times, and the tracing overhead."""
        self_t = self_times(self.spans)
        passes = [self.pass_metrics(g, self_t) for g in self.groups("bench.pass")]
        out = {k: statistics.median(p[k] for p in passes) for k in PASS_UNITS}
        # Later passes reuse memory the allocator kept, so only the first
        # pass's RSS growth reflects what a build needs.
        out["memmodel.bytes_per_state"] = passes[0]["memmodel.bytes_per_state"]
        setup = dict.fromkeys(SETUP_UNITS, 0)
        for group in self.groups("bench.setup"):
            for i in group:
                key = "setup." + self.spans[i][0].split(".", 1)[-1] + "_s"
                if key in setup:
                    setup[key] += self_t[i]
        out.update(setup)
        traced = statistics.median(
            self.spans[g[0]][2] - self.spans[g[0]][1]
            for g in self.groups("bench.pass"))
        out["trace.pass_s"] = traced
        out["trace.untraced_pass_s"] = untraced_pass_s
        out["trace.overhead_s"] = traced - untraced_pass_s
        return out


def _verdict_counts(args, verdict) -> dict:
    stats = getattr(verdict, "stats", {})
    cex = getattr(verdict, "counterexample", None)
    return {"spec_observables": stats.get("spec_observables", 0),
            "impl_observables": stats.get("impl_observables", 0),
            "cex_events": len(cex.trace) if cex is not None else 0}


def _pair_count(args, report) -> dict:
    return {"pairs": len(args[0].pairs)}
