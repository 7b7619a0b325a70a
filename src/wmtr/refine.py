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
from typing import Dict, Iterable, Optional, Tuple

from .events import Observable, Trace, event_to_json, observable_of
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
    among the graph's events sorted by serialisation, which orders as
    the serialisation does, so equal priorities are equal traces and
    the trace is read off the priority."""
    events = sorted({e for burst in ts.bursts for e in burst},
                    key=event_to_json)
    rank = {e: r for r, e in enumerate(events)}
    # per burst id: each event's rank and its observation, if any
    steps = [tuple((rank[e], observable_of((e,))) for e in burst)
             for burst in ts.bursts]
    succ, burst_id, offsets = ts.succ, ts.burst_id, ts.offsets
    # a path that left `allowed` ends at state -1
    heap = [((0, ()), ts.root, ())]
    best = {(ts.root, ()): (0, ())}
    while heap:
        prio, s, obs = heapq.heappop(heap)
        if s < 0:
            return tuple(events[r] for r in prio[1])
        if best[s, obs] < prio:
            continue
        for k in range(offsets[s], offsets[s + 1]):
            obs2, seq2, s2 = obs, prio[1], succ[k]
            for r, o in steps[burst_id[k]]:
                seq2 = seq2 + (r,)
                if o:
                    obs2 = obs2 + o
                    if obs2 not in allowed:
                        s2 = -1
                        break
            prio2 = (len(seq2), seq2)
            key = (s2, obs2)
            if key not in best or prio2 < best[key]:
                best[key] = prio2
                heapq.heappush(heap, (prio2, s2, obs2))
    raise AssertionError("no trace leaves the allowed observables")
