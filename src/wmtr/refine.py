"""Refinement checking between an implementation and a specification.

An implementation refines a specification for a client when every
observable behaviour (the sequence of step observations) of the client
running against the implementation also arises against the
specification, under the same memory model and bounds.  A positive
answer is reported as "holds-within-bound": the exploration is bounded
by the loop budget and buffer capacity, so it is not a proof for
unbounded executions.

When refinement fails, the checker returns a canonical counterexample:
among the implementation traces realising a refuting observable, it
picks one of minimal length and, among those, the one whose serialised
event sequence is lexicographically smallest.  The choice is stable
across runs and makes expected counterexamples exact test anchors.
The search needs only the specification's observables: they are
prefix-closed, so an implementation observable outside them is exactly
a refuting one, and the first observation of a path that leaves them
ends the shortest refuting trace along that path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .events import Event, Observable, ProgObs, Trace, event_to_json, observable_of
from .memmodel import ExploreConfig, TraceSet, explore
from .program import ClientProgram, ObjectDef


@dataclass(frozen=True)
class Counterexample:
    observable: Observable  # behaviour the specification cannot produce
    trace: Trace            # minimal implementation trace realising it


@dataclass(frozen=True)
class Verdict:
    verdict: str  # "holds-within-bound" | "refuted"
    counterexample: Optional[Counterexample]
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-within-bound"


def check_wmtr(p: ClientProgram, spec: ObjectDef, impl: ObjectDef,
               cfg: ExploreConfig) -> Verdict:
    """Does the implementation refine the specification for this client
    under the configured memory model, within the exploration bounds?"""
    if spec.kind != "spec":
        raise ValueError("the abstract object must be a specification")
    ts_spec = explore(p, spec, cfg)
    ts_impl = explore(p, impl, cfg)
    obs_spec = ts_spec.observables()
    obs_impl = ts_impl.observables()
    diff = obs_impl - obs_spec
    stats = {
        "model": cfg.model.value,
        "spec_states": ts_spec.states,
        "impl_states": ts_impl.states,
        "spec_observables": len(obs_spec),
        "impl_observables": len(obs_impl),
        "refuting_observables": len(diff),
    }
    if not diff:
        return Verdict("holds-within-bound", None, stats)
    trace = _minimal_refuting_trace(ts_impl, obs_spec)
    return Verdict("refuted", Counterexample(observable_of(trace), trace), stats)


def refute_object_refinement(spec: ObjectDef, impl: ObjectDef,
                             clients: Iterable[Tuple[str, ClientProgram]],
                             cfg: ExploreConfig):
    """Check the clients in order; return (name, verdict) for the first
    refuted one, or (None, holding verdict) with per-client stats."""
    per_client = {}
    for name, p in clients:
        v = check_wmtr(p, spec, impl, cfg)
        if not v.holds:
            return name, v
        per_client[name] = v.stats
    return None, Verdict("holds-within-bound", None,
                         {"model": cfg.model.value, "clients": per_client})


def _minimal_refuting_trace(ts: TraceSet, allowed) -> Trace:
    """Minimal trace whose observable leaves `allowed`, a prefix-closed
    set of observables that holds `()`: shortest, then lexicographically
    smallest serialised event sequence.  Searched in best-first order
    over (state, observable-so-far) pairs, a path ending at the first
    observation that leaves `allowed`, so the first such end popped is
    the canonical trace.  An event stands in a priority as its rank
    among the sorted serialisations of the graph's events, which orders
    as the serialisation does, and a trace as a link to the trace one
    event shorter."""
    lines = sorted({event_to_json(e) for burst in ts.bursts for e in burst})
    rank = {js: r for r, js in enumerate(lines)}
    # per burst id: each event with its rank and its observation
    steps = [tuple((e, rank[event_to_json(e)],
                    (e.step.thread, e.var, e.value) if isinstance(e, ProgObs)
                    else None) for e in burst) for burst in ts.bursts]
    succ, burst_id, offsets = ts.succ, ts.burst_id, ts.offsets
    ctr = 0
    # a trace is None when empty, else (the trace without its last
    # event, that event); a path that left `allowed` has state None
    heap = [((0, ()), ctr, ts.root, (), None)]
    best = {(ts.root, ()): (0, ())}
    while heap:
        prio, _, s, obs, trace = heapq.heappop(heap)
        if s is None:
            events = []
            while trace is not None:
                trace, e = trace
                events.append(e)
            return tuple(reversed(events))
        if best[s, obs] < prio:
            continue
        for k in range(offsets[s], offsets[s + 1]):
            obs2, trace2, seq2, s2 = obs, trace, prio[1], succ[k]
            for e, r, o in steps[burst_id[k]]:
                trace2 = (trace2, e)
                seq2 = seq2 + (r,)
                if o is not None:
                    obs2 = obs2 + (o,)
                    if obs2 not in allowed:
                        s2 = None
                        break
            prio2 = (len(seq2), seq2)
            key = (s2, obs2)
            if key not in best or prio2 < best[key]:
                best[key] = prio2
                ctr += 1
                heapq.heappush(heap, (prio2, ctr, s2, obs2, trace2))
    raise AssertionError("no trace leaves the allowed observables")
