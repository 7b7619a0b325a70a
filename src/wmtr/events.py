"""Event algebra for weak-memory trace semantics.

Five event kinds: program steps, program-step observations, operation
invocations, operation responses, and operation observations.  A trace
is a finite sequence of pairwise distinct events subject to
wellformedness conditions: a response needs a prior invocation of the
same operation instance, an operation observation needs a prior
response and carries the same output value, and a step observation
needs a prior occurrence of the global-writing step it observes.

Values are small non-negative integers; the missing value (bottom) is
``None``.  Identity of repeated calls and steps is made structural by
0-based instance counters: an operation's instance is the position of
the call among all calls its thread makes, a step's instance counts
occurrences of the same statement label in its thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

ThreadId = str
Value = Optional[int]  # None encodes the no-value element


@dataclass(frozen=True, slots=True)
class OpId:
    thread: ThreadId
    call: str
    instance: int


@dataclass(frozen=True, slots=True)
class StepId:
    thread: ThreadId
    label: str
    instance: int


@dataclass(frozen=True, slots=True)
class ProgStep:
    """A program step; `write` is the (global var, value) it stores, if any."""

    step: StepId
    write: Optional[Tuple[str, int]] = None


@dataclass(frozen=True, slots=True)
class ProgObs:
    """Observation of a global-writing program step: the written value
    has become visible to every core."""

    step: StepId
    var: str
    value: int


@dataclass(frozen=True, slots=True)
class Inv:
    op: OpId
    arg: Value = None


@dataclass(frozen=True, slots=True)
class Res:
    op: OpId
    out: Value = None


@dataclass(frozen=True, slots=True)
class OpObs:
    """Observation of an operation: its last shared write (or, lacking
    one, its response) has become visible to every core."""

    op: OpId
    out: Value = None


Event = Union[ProgStep, ProgObs, Inv, Res, OpObs]
Trace = Tuple[Event, ...]
History = Trace  # trace containing object events only
Observable = Tuple[Tuple[ThreadId, str, int], ...]

_OBJ_KINDS = (Inv, Res, OpObs)
_PROG_KINDS = (ProgStep, ProgObs)


def is_object_event(e: Event) -> bool:
    return isinstance(e, _OBJ_KINDS)


def is_program_event(e: Event) -> bool:
    return isinstance(e, _PROG_KINDS)


def observable_of(t: Sequence[Event]) -> Observable:
    """The (thread, variable, value) triples of the trace's step
    observations, in trace order."""
    return tuple(
        (e.step.thread, e.var, e.value) for e in t if isinstance(e, ProgObs)
    )


# --- serialization: one JSON object per line, bottom as null ---

def event_to_record(e: Event) -> dict:
    if isinstance(e, ProgStep):
        var, val = e.write if e.write is not None else (None, None)
        return {"kind": "step", "thread": e.step.thread, "label": e.step.label,
                "instance": e.step.instance, "var": var, "value": val}
    if isinstance(e, ProgObs):
        return {"kind": "obs-step", "thread": e.step.thread, "label": e.step.label,
                "instance": e.step.instance, "var": e.var, "value": e.value}
    if isinstance(e, Inv):
        return {"kind": "inv", "thread": e.op.thread, "op": e.op.call,
                "instance": e.op.instance, "value": e.arg}
    if isinstance(e, Res):
        return {"kind": "res", "thread": e.op.thread, "op": e.op.call,
                "instance": e.op.instance, "value": e.out}
    if isinstance(e, OpObs):
        return {"kind": "obs-op", "thread": e.op.thread, "op": e.op.call,
                "instance": e.op.instance, "value": e.out}
    raise TypeError(f"not an event: {e!r}")


def event_to_json(e: Event) -> str:
    return json.dumps(event_to_record(e), sort_keys=True, separators=(",", ":"))


def trace_to_lines(t: Sequence[Event]) -> str:
    return "\n".join(event_to_json(e) for e in t)


def pretty(e: Event) -> str:
    """Compact human-readable rendering, used in reports and graphs."""
    if isinstance(e, ProgStep):
        return f"step({e.step.thread}, {_slabel(e.step)})"
    if isinstance(e, ProgObs):
        tag = "" if e.step.instance == 0 else f"#{e.step.instance}"
        return f"obs({e.step.thread}, {e.var}={e.value}{tag})"
    name = e.op.call if e.op.instance == 0 else f"{e.op.call}#{e.op.instance}"
    if isinstance(e, Inv):
        arg = "" if e.arg is None else str(e.arg)
        return f"inv({e.op.thread}, {name}({arg}))"
    if isinstance(e, Res):
        out = "" if e.out is None else f", {e.out}"
        return f"res({e.op.thread}, {name}{out})"
    out = "" if e.out is None else f", {e.out}"
    return f"obs({e.op.thread}, {name}{out})"


def _slabel(s: StepId) -> str:
    return s.label if s.instance == 0 else f"{s.label}#{s.instance}"
