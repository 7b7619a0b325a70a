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

Events are hash-consed (Filliâtre and Conchon, *Type-safe modular
hash-consing*, ML Workshop 2006): each of the seven classes below keeps
one instance per distinct tuple of field values, in a table of its own
that lives for the process, and making an event returns that instance,
whether its fields are given by position, by keyword or by default.
Their metaclass does it: a call that gives every field by position is
one table lookup, and any other call runs the dataclass's own
`__init__` and interns the result by its fields.  So equality is
identity, and hashing an event, which every set and map of events
does, costs no more than hashing an int; a copy, a pickle round trip
and `dataclasses.replace` all return the interned instance.
Fields, `repr` and serialisations are those of a plain frozen
dataclass.  Iterating a set of events follows their addresses, so no
output may depend on set order: every serialisation sorts by
`event_to_json`, each event's JSON line, which is worked out once per
event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

ThreadId = str
Value = Optional[int]  # None encodes the no-value element


def _reduce(e):  # copies and pickles rebuild through the table
    return type(e), tuple(getattr(e, name) for name in e.__match_args__)


class _Interned(type):
    """Hash-conses the frozen dataclasses it makes: one instance per
    tuple of field values, in a table of the class's own.  A call's
    positional arguments are looked up in the table as they stand, which
    finds a call that gives every field by position; any other call
    runs the dataclass's own `__init__`, which fills in keywords and
    defaults and rejects bad arguments, and its result is interned by
    its fields, those `__reduce__` rebuilds it from.  A class must leave
    equality and hashing to this: declared with `eq=False`, it compares
    and hashes by identity."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        cls._table = {}
        cls.__reduce__ = _reduce

    def __call__(cls, *args, **kwargs):
        e = cls._table.get(args)
        if e is None or kwargs:
            e = super().__call__(*args, **kwargs)
            e = cls._table.setdefault(_reduce(e)[1], e)
        return e


@dataclass(frozen=True, slots=True, eq=False)
class OpId(metaclass=_Interned):
    thread: ThreadId
    call: str
    instance: int


@dataclass(frozen=True, slots=True, eq=False)
class StepId(metaclass=_Interned):
    thread: ThreadId
    label: str
    instance: int


@dataclass(frozen=True, slots=True, eq=False)
class ProgStep(metaclass=_Interned):
    """A program step; `write` is the (global var, value) it stores, if any."""

    step: StepId
    write: Optional[Tuple[str, int]] = None


@dataclass(frozen=True, slots=True, eq=False)
class ProgObs(metaclass=_Interned):
    """Observation of a global-writing program step: the written value
    has become visible to every core."""

    step: StepId
    var: str
    value: int


@dataclass(frozen=True, slots=True, eq=False)
class Inv(metaclass=_Interned):
    op: OpId
    arg: Value = None


@dataclass(frozen=True, slots=True, eq=False)
class Res(metaclass=_Interned):
    op: OpId
    out: Value = None


@dataclass(frozen=True, slots=True, eq=False)
class OpObs(metaclass=_Interned):
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
    """The event's record, its keys in sorted order: dumped as it stands,
    it gives the fields in the order of the event's JSON line."""
    if isinstance(e, ProgStep):
        var, val = e.write if e.write is not None else (None, None)
        return {"instance": e.step.instance, "kind": "step",
                "label": e.step.label, "thread": e.step.thread,
                "value": val, "var": var}
    if isinstance(e, ProgObs):
        return {"instance": e.step.instance, "kind": "obs-step",
                "label": e.step.label, "thread": e.step.thread,
                "value": e.value, "var": e.var}
    if isinstance(e, Inv):
        return {"instance": e.op.instance, "kind": "inv", "op": e.op.call,
                "thread": e.op.thread, "value": e.arg}
    if isinstance(e, Res):
        return {"instance": e.op.instance, "kind": "res", "op": e.op.call,
                "thread": e.op.thread, "value": e.out}
    if isinstance(e, OpObs):
        return {"instance": e.op.instance, "kind": "obs-op", "op": e.op.call,
                "thread": e.op.thread, "value": e.out}
    raise TypeError(f"not an event: {e!r}")


_JSON: Dict[Event, str] = {}  # each event's JSON line, made on first use


def event_to_json(e: Event) -> str:
    line = _JSON.get(e)
    if line is None:
        line = _JSON[e] = json.dumps(event_to_record(e), sort_keys=True,
                                     separators=(",", ":"))
    return line


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
