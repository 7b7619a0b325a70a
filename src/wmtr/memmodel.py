"""Memory-model-parameterised trace exploration.

One engine class per kind of object, each parameterised by a storage
discipline.  `storage` holds SC, TSO and RELAXED, one class each behind
one interface, picked once from `DISCIPLINES` (a RELAXED build that does
not reduce takes `storage.Eager` instead); `_build` picks the engine
class once from `ENGINES`, by where the object's observations are
placed: `_Impl` runs an implementation instruction by instruction,
`_Spec` a specification atomically, each response observed in its own
edge, and `_Chaos` is the object-free object of the enforced-order
extraction.  The base class runs the client's code; a kind gives two
hooks, `call_slot`, the slot a thread holds once its call starts, and
`_in_call`, what a thread in a call does next.

States are collapse-compressed and packed: each thread's distinct
states are stored once, in a table of its own, and so are a
specification's valuations; a state is one int whose
fixed-width fields (`storage.FIELD_BITS` bits each) hold each thread's
own-state id, thread r's in field r with the threads in name order from
bit 0, a specification's valuation id above them, and the
storage discipline's fields on top (RELAXED: one per variable, the id
of its entry).  An id that outgrows its field is an `OverflowError`,
never an alias.  A thread's state holds where its compiled code stands
(a pc and loop counters) and its registers, and so does the frame of
its implementation call, if any.  One rule settles every pc, a client's
and an operation's alike: after each step, so no two states differ only
in which finished block control stands at.  A frame goes further: the
instructions that read only its registers and emit nothing
(`OpDef.merged`: SET, IF, LOOP and AWAIT over registers and the
parameter) run in the edge of the step that reached them, the client's
call that starts the frame or the frame's previous step, up to the
first shared load, store, TAS, fence or return, or the first test that
blocks, a spent loop budget staying stuck where it is.  Such a step
commutes with every other step, so every trace is kept (Lipton's
reduction, CACM 1975; SPIN's statement merging), and only the states
between it and the step before it are gone.  A successor is the state
plus the changes to its fields, each worked out once per value of the
fields it reads: a silent RELAXED propagation is an int add, and the
build's state table maps ints to ints.

Successors are generated on the same factoring.  One step table, keyed
on (thread, own-state id), serves every thread step of every kind of
object: a client instruction, the next instruction of an implementation
call, a specification call and a chaos call.  It holds what the step
reads and, per tuple of the values read, its outcomes, worked out on a
table miss only: once per thread state and read values, wherever the
other threads stand; a step that reads nothing has its outcomes held
bare.  A client or implementation instruction reads shared variables,
which `program.step` names as it runs; expressions are evaluated in
full, so which variables it reads depends on the key alone, and a gated
instruction (a TAS or fence: its core's writes must first be
visible everywhere) reads through `latest`, the value a TAS acts on.
A specification call reads the valuation id, its body running once per
key and valuation; a chaos call reads nothing, one outcome per output.
A state reads the variables of its entry and settles only what depends
on the rest of it: whether the storage takes the write, what the
core's `fence` makes of the state, what the thread's invocation does,
and where a return's observation lands.
Every shared write, a TAS's included, is prepared once by the storage's
`writer`, which fixes where the write goes (the ref an implementation
store's or TAS's successor records) and what it emits.  An outcome's
change to a state is one int, fixed when the outcome is made: the
thread's field moved from its own-state id to the new one.

The build is a depth-first search that numbers the states in
post-order (Tarjan, SIAM J. Comput. 1972): a state gets its id once
every successor has one, so every edge leads to a lower id, the root's
is the highest, and each pass over the graph walks the ids downward,
with no search of its own.  The graph it returns is stored as flat
array columns, one entry per edge, each state's edges together, in id
order: the successor's id (`array('i')`) and the id of the edge's
burst (`array('H')`) in a per-build table of distinct bursts (few: fig5
x spinlock_impl under RELAXED has 22 non-empty ones on 258,573 edges; a
burst id past `storage.BURST_BITS` bits is an `OverflowError`).  The
engine owns that table (`BurstTable`) and hands it to the storage
discipline, so engine and storage yield burst ids; a burst enters the
table, and is checked against the program's universe, when an edge
first carries it, and outcomes cache their burst's id.  Every pass over
the graph runs on those columns and works out what it needs of a burst
once per burst id; `TraceSet.graph` is a read-only mapping view for
readers that want the edges of an id as tuples.

Propagation on demand: the `RELAXED` storage takes no silent propagation
step at all; a build with `reduce=False`, `_build`'s option, runs
RELAXED on `storage.Eager` instead, whose records reach each core by
silent steps of their own.  Take the propagation p of record r of
variable v to core k.  p commutes with every step but three: a read of v
on core k, whose value p may change; r's emission, which waits until
every core holds r; and a fence, TAS or specification invocation of r's
writer core, which waits until every core holds that core's records.  A
write of v on core k, or any TAS of v, moves k past r with p or without
it, and so absorbs p.  A return whose last write is r emits its
observation at once where every core holds r, and leaves it pending
otherwise, free to be emitted next, so it gives the same traces on
either side of p.  So each propagation can be delayed to the first of
the three steps and taken in that step's edge: a load may read any
record of v from its core's position to the latest, each choice its own
edge that moves the core there; an emission moves every core to at least
its record; a fence or TAS (a specification invocation) moves every core
to at least its core's last record (last program record) of each
variable.  Every trace keeps its events: observables, enforced pairs,
verdicts and canonical counterexamples are those of the eager graph, the
state and edge counts are not.  Both storages keep one record rule,
RELAXED's: a record holds only what a later step reads, and the front
records every core is past that owe no observation, dead history, are
dropped (live-data reduction: Bozga, Fernandez and Ghirvu, SAS 1999).  A
load's choices are tabled per entry and core, and the step table keys
each choice's outcome on the values read, as it keys every outcome;
every storage names a load's choices (`views`), each but RELAXED the
state alone, so one load path serves every build.  `enforced_order`
builds its chaos graph on `Eager`, since that graph's counts anchor the
benchmark; SC and TSO have no propagation to delay.

Observation placement: a program step's observation fires when its
write is visible to every core; an implementation operation's
observation fires when the operation's last shared write is visible to
every core, never before the response, and directly after the response
when the run wrote nothing.  In the chaos build, operations that cannot
touch shared state, and whose result never flows into a global, are
observed immediately after responding (`covert_ops`): the result flows
when a store reads its register or a register assigned from it; a
branch on the result is not a flow.  A specification operation is
observed in its response's edge.  The paper lets that observation trail
the response freely, another core's invocation waiting until it is
taken; but it is enabled from the response on and disables nothing
(taking it only lifts that wait, and neither the valuation nor the
storage reads whether it was taken), so it moves left to its response
in every trace (Lipton's reduction): observing at once keeps every
observable, and an invocation waits only while a thread of another
core is in a call.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .events import (Event, Inv, OpId, OpObs, ProgObs, ProgStep, Res,
                     StepId, observable_of)
from .porder import EnforcedOrder
from .program import (
    CALL, FENCE, GATED, RETURN, SET, STORE, TAS, ClientProgram, ObjectDef,
    OpDef, _bump, chaos_outputs, events_of_program, names_of,
    settled, step, validate,
)
from . import storage
from .storage import RELAXED, SC, TSO, Eager, Interned, _tset


class Model(str, Enum):
    SC = "sc"
    TSO = "tso"
    RELAXED = "relaxed"


DISCIPLINES = {Model.SC: SC, Model.TSO: TSO, Model.RELAXED: RELAXED}


@dataclass(frozen=True)
class ExploreConfig:
    model: Model
    unroll: int = 2
    buffer: int = 4
    values: int = 3

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        if self.unroll < 1 or self.buffer < 1 or self.values < 1:
            raise ValueError("bounds must be at least 1")


# --- immutable state pieces ---

class ThreadState(NamedTuple):
    pc: int        # settled; 0 once the thread has run to its end
    ctrs: tuple    # loop budgets, innermost last
    regs: tuple    # sorted (name, value)
    labels: tuple  # sorted (label, occurrence count)
    calls: int
    call: Optional[tuple]  # the engine's call slot; None outside a call


def _returned(ts: ThreadState, reg, out) -> ThreadState:
    """`ts` once its call returned `out` into register `reg`."""
    if reg is None or out is None:
        return ts._replace(call=None)
    return ts._replace(regs=_tset(ts.regs, reg, out), call=None)


class BurstTable(Interned):
    """A build's distinct bursts, id 0 being the empty burst of a silent
    step.  A burst enters the table when an edge first carries it, and is
    checked against the program's universe then, so the table holds
    exactly the bursts of the graph, in the order edges first carry them.
    An id must fit `storage.BURST_BITS`, the width of the graph's burst
    column: a burst past the last id is an `OverflowError`."""

    def __init__(self, universe: frozenset):
        super().__init__("bursts", "a burst id")
        self.bits = storage.BURST_BITS
        self.universe = universe
        self.id(())

    def id(self, burst: tuple) -> int:
        b = self.ids.get(burst)
        if b is None:
            for e in burst:
                if e not in self.universe:
                    raise AssertionError(f"event outside the program universe: {e}")
            b = super().id(burst)
        return b


# what a state must still decide of a step: nothing, whether the storage
# takes the write, the core's `fence` (and for a TAS, the write it then
# makes), the thread's invocation, and whether a returning operation's
# observation rides on its last write
_LOCAL, _WRITE, _FENCE, _CALL, _RET = range(5)


class _Step:
    """An outcome of a thread's next step for given read values: its
    burst, with what its write emits, `delta`, the change it makes to a
    state (the thread's own-state field moved to its state after the
    step), and, by kind, the storage call's argument after the state
    (_WRITE: the prepared write, _FENCE: a TAS's prepared write or None,
    _RET: `mem.attach`'s after the core).  `bid` is the id of the burst,
    and for _RET `emitted` that of the burst with the observation emitted
    at once, each worked out when an edge first needs it."""
    __slots__ = ("kind", "burst", "delta", "arg", "bid", "emitted")

    def __init__(self, kind: int, burst: tuple, delta: int, arg=None):
        self.kind, self.burst, self.delta, self.arg = kind, burst, delta, arg
        self.bid = self.emitted = None


# --- the engines ---

class _Engine:
    """What every kind of object shares: client steps, the storage, the
    step table and `_take`.  A subclass, one per kind, gives two hooks:
    `call_slot`, the slot a thread holds once its call starts, and
    `_in_call`, the outcomes of that thread's next step, as `_interpret`
    returns them; and whatever else its kind needs."""
    fields = 0  # the state's fields between the threads' and the storage's

    def __init__(self, p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
                 discipline: type):
        self.p, self.obj, self.cfg = p, obj, cfg
        self.coremap = p.coremap
        self.universe = events_of_program(p, obj, cfg.unroll, cfg.values)
        self.bursts = BurstTable(self.universe)
        # collapse compression: each thread's distinct states, call slot
        # included, are stored once in its own table, the threads in name
        # order
        self.names = tuple(sorted(p.code))
        self.own = tuple(Interned(f"states of thread {th}")
                         for th in self.names)
        self.rank = {th: r for r, th in enumerate(self.names)}
        # a state is one int of fields, storage.FIELD_BITS wide, from bit
        # 0: each thread's own-state id, in name order, a subclass's
        # fields from bit `top`, then the storage discipline's
        bits = self.bits = storage.FIELD_BITS
        self.mask = (1 << bits) - 1
        self.top = len(self.names) * bits
        # per thread in name order: (thread, its own states, field shift)
        self.slots = tuple((th, own.values, r * bits)
                           for r, (th, own) in enumerate(zip(self.names,
                                                             self.own)))
        self.mem = discipline(
            tuple(sorted(set(self.coremap.values()))), self.initials(),
            cfg.buffer, self.bursts, self.top + self.fields * bits)
        # the load functions a step table entry names, bound once, and
        # the choices of what a load reads
        self.read, self.latest = self.mem.read, self.mem.latest
        self.views = self.mem.views
        # the step table, keyed (thread, own-state id): [the load function,
        # what the thread's next step reads, {their values: its tuple of
        # _Steps}], or, when it reads nothing, its tuple of _Steps; a
        # tuple is empty when the step blocks
        self.steps: Dict[Tuple[str, int], object] = {}

    def initials(self) -> dict:  # the storage's variables
        return self.in_domain(self.p.globals)

    def in_domain(self, declared: dict) -> dict:
        """Declared initial values wrapped into the domain 0..values, as
        every value a step makes is, so a TAS's test reads them as an
        expression does."""
        n = self.cfg.values + 1
        return {var: v % n for var, v in declared.items()}

    def root(self) -> int:
        code = self.p.code
        for th, own in zip(self.names, self.own):
            own.id(ThreadState(settled(code[th], 1), (), (), (), 0, None))
        return self.mem.initial()  # every field 0: each table's first id

    def _delta(self, th: str, ts: ThreadState, ts2: ThreadState) -> int:
        """The change to a state when `th` goes from `ts` to `ts2`."""
        r = self.rank[th]
        own = self.own[r]
        return (own.id(ts2) - own.ids[ts]) << (r * self.bits)

    def invoke(self, st: int, thread: str) -> Optional[int]:
        """`st` once `thread` may invoke an operation, or None."""
        return self.mem.invoke(st, self.coremap[thread], False)

    def actions(self, st: int) -> List[Tuple[int, int]]:
        """The edges out of `st`, as (burst id, successor)."""
        out: List[Tuple[int, int]] = []
        mask = self.mask
        for th, values, shift in self.slots:
            x = st >> shift & mask
            ts = values[x]
            if ts.pc or ts.call is not None:  # else it has run to its end
                self.step_actions(out, st, th, x, ts)
        out.extend(self.mem.moves(st))
        return out

    def step_actions(self, out, st, th, x, ts):
        """Add to `out` the edges of `th`'s next step, one per outcome
        and, for a step that loads shared variables, per choice of what
        the loads read, each from the state with the core moved to what
        it reads.  Looked up in the step table, interpreted on a miss."""
        key = (th, x)
        entry = self.steps.get(key)
        if entry is None:
            load, steps, seen = self._interpret(st, th, ts)
            entry = self.steps[key] = ([load, tuple(seen),
                                        {tuple(seen.values()): steps}]
                                       if seen else steps)
        if entry.__class__ is tuple:  # it reads nothing
            for step in entry:
                a = self._take(st, th, step)
                if a is not None:
                    out.append(a)
            return
        load, reads, outcomes = entry
        core = self.coremap[th]
        for s in self.views(st, core, reads) if load is self.read else (st,):
            steps = outcomes.get(tuple([load(s, core, v) for v in reads]))
            if steps is None:
                _, steps, seen = self._interpret(s, th, ts)
                outcomes[tuple(seen.values())] = steps
            for step in steps:
                a = self._take(s, th, step)
                if a is not None:
                    out.append(a)

    def _interpret(self, st, th, ts):
        """What `th`'s next step in `st` does, as `_run` returns it: a
        client instruction runs here, a step in a call is the kind's
        `_in_call`."""
        if ts.call is not None:
            return self._in_call(st, th, ts)
        return self._run(st, th, ts, self.p.code[th], ts.pc, ts.ctrs, ts.regs,
                         self._client_outcome)

    def _run(self, st, th, ts, code, pc, ctrs, regs, outcome):
        """Run the instruction of `code` at `pc`, with loop counters `ctrs`
        and registers `regs`, for `th` in `st`: the load function, its
        tuple of _Steps (empty when blocked or stuck; `outcome` gives the
        _Step of an instruction that ran) and the shared variables it
        read with their values, which depend on `ts` alone."""
        load = self.latest if code[pc][0] in GATED else self.read
        core = self.coremap[th]
        seen: Dict[str, int] = {}

        def view(name):
            v = seen[name] = load(st, core, name)
            return v

        r = step(code, pc, ctrs, regs, view, self.cfg.values, self.cfg.unroll)
        if r is None:
            return load, (), seen
        ins, pc, ctrs, regs, v = r
        return (load, (outcome(th, ts, ins, settled(code, pc), ctrs, regs, v),),
                seen)

    def _client_outcome(self, th, ts, ins, pc, ctrs, regs, v):
        """The _Step of a client instruction that ran, going on at `pc`."""
        op = ins[0]
        if op == CALL:
            _, _, name, _, reg = ins
            opid = OpId(th, name, ts.calls)
            ts2 = ts._replace(pc=pc, ctrs=ctrs, calls=ts.calls + 1,
                              call=self.call_slot(opid, v, reg))
            return _Step(_CALL, (Inv(opid, v),), self._delta(th, ts, ts2))
        lab = ins[1]
        inst, labels = _bump(ts.labels, lab)
        sid = StepId(th, lab, inst)
        d = self._delta(th, ts, ts._replace(pc=pc, ctrs=ctrs, regs=regs,
                                            labels=labels))
        if op == STORE:
            var = ins[2]
            w = self.mem.writer(self.coremap[th], var, v, "prog", sid,
                                ProgObs(sid, var, v))
            return _Step(_WRITE, (ProgStep(sid, (var, v)),) + w.emits, d, w)
        return _Step(_FENCE if op == FENCE else _LOCAL, (ProgStep(sid, None),), d)

    def _take(self, st, th, step):
        """The edge `step` makes from `st`, or None when `st` blocks it."""
        d, kind = step.delta, step.kind
        if kind != _LOCAL:
            mem = self.mem
            if kind == _CALL:
                st = self.invoke(st, th)
            elif kind == _RET:
                attached = mem.attach(st, self.coremap[th], *step.arg)
                if attached is None:  # the observation is emitted now
                    b = step.emitted
                    if b is None:
                        b = step.emitted = self.bursts.id(step.burst
                                                          + step.arg[-1:])
                    return b, st + d
                st = attached
            else:  # a write, or a fence that a TAS's write may follow
                if kind == _FENCE:
                    st = mem.fence(st, self.coremap[th])
                if st is not None and step.arg is not None:
                    st = mem.write(st, step.arg)
            if st is None:
                return None
        b = step.bid
        if b is None:  # the first edge to carry it
            b = step.bid = self.bursts.id(step.burst)
        return b, st + d


class OpFrame(NamedTuple):
    """One invocation of an implementation operation: its id, the
    register its output goes to, and where its code stands."""
    opid: OpId
    ret_reg: Optional[str]
    pc: int       # settled
    ctrs: tuple   # loop budgets, innermost last
    regs: tuple   # sorted (name, value) pairs


def start_frame(opid: OpId, op: OpDef, arg: Optional[int],
                ret_reg: Optional[str]) -> OpFrame:
    """The frame of a fresh invocation of `op`, before its first step."""
    regs = ((op.param, arg),) if op.param is not None else ()
    return OpFrame(opid, ret_reg, settled(op.code, 1), (), regs)


class _Impl(_Engine):
    """An implementation object, run instruction by instruction against
    the storage, which holds the object's variables too, but for the
    instructions `run_merged` takes in the edge before them.  A thread in
    a call holds (OpFrame, ref of the operation's last write), and the
    frame steps through the step table as the client's code does.  The
    ref is the storage's, fixed when the write is prepared."""

    def initials(self) -> dict:
        return self.in_domain({**self.p.globals, **self.obj.shared})

    def call_slot(self, opid, arg, reg):
        op = self.obj.ops[opid.call]
        return self.run_merged(op, start_frame(opid, op, arg, reg)), None

    def run_merged(self, op: OpDef, f: OpFrame) -> OpFrame:
        """`f` once it ran the instructions of `op.merged` that follow,
        up to the first other one or the first that blocks: an await
        false for good or a spent loop budget, which stays stuck where it
        is.  Each reads only the frame and emits nothing, so it commutes
        with every other step, and is taken in the edge of the step that
        reached it (Lipton's reduction)."""
        code, merged, cfg = op.code, op.merged, self.cfg
        pc, ctrs, regs = f.pc, f.ctrs, f.regs
        while pc in merged:  # no shared variable to load
            r = step(code, pc, ctrs, regs, None, cfg.values, cfg.unroll)
            if r is None:
                break
            _, pc, ctrs, regs, _ = r
            pc = settled(code, pc)
        return f._replace(pc=pc, ctrs=ctrs, regs=regs)

    def _in_call(self, st, th, ts):
        """The frame's next instruction runs as a client's does."""
        f = ts.call[0]
        return self._run(st, th, ts, self.obj.ops[f.opid.call].code, f.pc,
                         f.ctrs, f.regs, self._impl_outcome)

    def _impl_outcome(self, th, ts, ins, pc, ctrs, regs, v):
        """The _Step of an implementation instruction that ran, going on at
        `pc` with the merged instructions after it run: a store's or
        successful TAS's successor records the write's ref.  A TAS is a
        fence that carries its write."""
        f, last = ts.call
        op, opid = ins[0], f.opid
        if op == RETURN:
            ts2 = _returned(ts, f.ret_reg, v)
            return _Step(_RET, (Res(opid, v),), self._delta(th, ts, ts2),
                         (last, opid, OpObs(opid, v)))
        w = None
        if op == STORE:
            w = self.mem.writer(self.coremap[th], ins[2], v, "obj", opid, None)
            kind, last = _WRITE, w.ref
        elif op == TAS and v is not None:
            w = self.mem.writer(self.coremap[th], ins[3], v, "tas", opid, None)
            kind, last = _FENCE, w.ref
        else:  # a fence or a failed TAS, or a local step
            kind = _FENCE if op in GATED else _LOCAL
        f = self.run_merged(self.obj.ops[opid.call],
                            f._replace(pc=pc, ctrs=ctrs, regs=regs))
        ts2 = ts._replace(call=(f, last))
        return _Step(kind, (), self._delta(th, ts, ts2), w)


def run_spec_body(op: OpDef, valuation: dict, arg: Optional[int],
                  values: int = 3):
    """Atomically execute `op` against `valuation`.  Returns the updated
    valuation and the output, or None when a guard blocks.  A
    specification body has no loops (`validate` rejects them), so it
    runs with no loop budget."""
    state = dict(valuation)
    regs = ((op.param, arg),) if op.param is not None else ()
    pc, ctrs = 1, ()
    while True:
        r = step(op.code, pc, ctrs, regs, state.__getitem__, values, 0)
        if r is None:
            return None
        ins, pc, ctrs, regs, v = r
        if ins[0] == RETURN:
            return state, v
        if ins[0] == STORE:
            state[ins[2]] = v


class _Spec(_Engine):
    """A specification object: each call runs atomically (`run_spec_body`)
    against a logical valuation, and its response is observed in the
    same edge; an invocation may not overlap a call of another core's
    thread.  A thread in a call holds (opid, arg, reg).  The valuation is
    interned, its id held in the field above the threads'.

    The paper lets an observation trail its response freely, in a book of
    unobserved responses that blocks another core's invocations until it
    is taken.  Observing at once gives the same observables: an
    observation is enabled from its response on and disables nothing,
    since taking it from the book only lifts that block and neither the
    valuation nor the storage reads the book, so it moves left to the
    response (Lipton's reduction, CACM 1975)."""
    fields = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.vshift = self.top
        self.valuations = Interned("specification valuations")
        # what a call reads, the valuation id: a function of the state
        # alone, and not a method, so the step table holds no engine
        self.valuation = (lambda st, core, var, shift=self.vshift,
                          mask=self.mask: st >> shift & mask)

    def root(self) -> int:
        objst = tuple(sorted(self.in_domain(self.obj.shared).items()))
        return super().root() | self.valuations.id(objst) << self.vshift

    def invoke(self, st: int, thread: str) -> Optional[int]:
        core = self.coremap[thread]
        mask = self.mask
        if all(values[st >> shift & mask].call is None
               or self.coremap[th2] == core
               for th2, values, shift in self.slots):
            return self.mem.invoke(st, core, True)
        return None

    def call_slot(self, opid, arg, reg):
        return opid, arg, reg

    def _in_call(self, st, th, ts):
        """A call runs its body against the valuation, its one read: one
        _Step, its response observed and the valuation changed, or none
        when a guard blocks."""
        objst = self.valuation(st, None, None)
        seen = {"valuation": objst}
        opid, arg, ret_reg = ts.call
        r = run_spec_body(self.obj.ops[opid.call],
                          dict(self.valuations.values[objst]), arg,
                          self.cfg.values)
        if r is None:
            return self.valuation, (), seen
        valuation, outv = r
        d = (self._delta(th, ts, _returned(ts, ret_reg, outv))
             + ((self.valuations.id(tuple(sorted(valuation.items()))) - objst)
                << self.vshift))
        return (self.valuation,
                (_Step(_LOCAL, (Res(opid, outv), OpObs(opid, outv)), d),), seen)


class _Chaos(_Engine):
    """The object-free "chaos" object of the enforced-order extraction:
    a call responds with any output its operation may statically give
    (`chaos_outputs`), carrying one virtual shared write per effectful
    operation.  A thread in a call holds (opid, reg)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.covert = covert_ops(self.p, self.obj)
        self.outputs = {name: chaos_outputs(op, self.cfg.values)
                        for name, op in self.obj.ops.items()}

    def call_slot(self, opid, arg, reg):
        return opid, reg

    def _in_call(self, st, th, ts):
        """A call reads nothing: a _Step per output of `th`'s call, in
        output order.  A covert operation responds and is observed at
        once, any other responds with a virtual write that carries its
        observation."""
        opid, ret_reg = ts.call
        vvar = f"#{opid.thread}.{opid.call}.{opid.instance}"
        out = []
        for outv in sorted(self.outputs[opid.call],
                           key=lambda v: (v is None, v)):
            d = self._delta(th, ts, _returned(ts, ret_reg, outv))
            res, obs = Res(opid, outv), OpObs(opid, outv)
            if opid.call in self.covert:
                out.append(_Step(_LOCAL, (res, obs), d))
            else:
                w = self.mem.writer(self.coremap[th], vvar, 0, "virt", opid, obs)
                out.append(_Step(_WRITE, (res,) + w.emits, d, w))
        return None, tuple(out), {}


ENGINES = {"impl": _Impl, "spec": _Spec, "chaos": _Chaos}


# --- trace sets ---

@dataclass
class TraceSet:
    """Prefix-closed set of traces, represented by the exploration graph.

    Traces are exactly: every prefix of every event sequence along every
    path from the root, including cuts inside a single action's burst.

    States are int ids, numbered 0..n-1 in post-order: the build gives a
    state its id once every successor has one, so every edge leads to a
    lower id, `root` is n-1, and ids downward are a topological order.
    The graph is stored as flat arrays: the edges of state s are the
    indices k in range(offsets[s], offsets[s + 1]), in the order the
    engine generated them, and edge k leads to state succ[k] with the
    burst bursts[burst_id[k]].  `bursts` is the build's table of
    distinct bursts, id 0 being the empty burst of a silent step.

    `graph` is a read-only view of the arrays as a mapping from each id
    to its edges, a tuple of (burst, successor id)."""
    root: int
    universe: frozenset
    bursts: List[tuple]
    succ: array
    burst_id: array
    offsets: array

    @property
    def states(self) -> int:
        return len(self.offsets) - 1

    @property
    def graph(self) -> GraphView:
        return GraphView(self)

    def topo(self) -> range:
        """States in a root-first topological order: ids downward."""
        return range(self.root, -1, -1)

    def observables(self) -> frozenset:
        """All observable behaviours (sequences of program observations
        `(thread, var, value)`), in one forward pass, ids downward.

        Each observation prefix gets an id in a trie when first seen:
        `prefixes[i]` is the prefix with id i, and `child` maps (id,
        observation) to the id of the prefix one observation longer.
        `reach[s]` is the int bitmask of the ids of the prefixes that reach
        state s; a silent or unobserving edge ORs it into its successor,
        and an observing burst maps it through a memo keyed on (mask,
        burst id).  A mask is dropped once its state's edges are followed.
        Every prefix is interned on some path, at a state or at a cut
        inside a burst, so the trie holds exactly the observables."""
        succ, burst_id, offsets = self.succ, self.burst_id, self.offsets
        # per burst id: its program observations
        proj = [observable_of(burst) for burst in self.bursts]
        prefixes: List[tuple] = [()]
        child: Dict[tuple, int] = {}
        memo: Dict[tuple, int] = {}

        def extend(mask: int, po: tuple) -> int:
            out = 0
            while mask:
                low = mask & -mask
                mask ^= low
                i = low.bit_length() - 1
                for o in po:
                    j = child.get((i, o))
                    if j is None:
                        j = child[i, o] = len(prefixes)
                        prefixes.append(prefixes[i] + (o,))
                    i = j
                out |= 1 << i
            return out

        reach = [0] * self.root + [1]  # the root's id is the highest
        for s in range(self.root, -1, -1):
            mask, reach[s] = reach[s], 0
            for k in range(offsets[s], offsets[s + 1]):
                b = burst_id[k]
                if proj[b]:
                    after = memo.get((mask, b))
                    if after is None:
                        after = memo[mask, b] = extend(mask, proj[b])
                    reach[succ[k]] |= after
                else:
                    reach[succ[k]] |= mask
        return frozenset(prefixes)

    def empirical_pairs(self) -> frozenset:
        """(a, b) iff b occurs and a precedes b in every trace where b
        occurs; computed as a meet over paths through the graph.

        Event sets are int bitmasks: bit x stands for the x-th distinct
        event of the burst table, `reach[s]` holds the events on every
        path to state s and `before[x]` those before event x on every
        path reaching it."""
        succ, burst_id, offsets = self.succ, self.burst_id, self.offsets
        events: List[Event] = []
        index: Dict[Event, int] = {}
        coded = []  # burst id -> its events' bit numbers
        for burst in self.bursts:
            for e in burst:
                if e not in index:
                    index[e] = len(events)
                    events.append(e)
            coded.append(tuple(index[e] for e in burst))
        # each event lies on some edge, so the loop below sets every entry
        before: List[Optional[int]] = [None] * len(events)
        reach: List[Optional[int]] = [None] * self.root + [0]
        for s in range(self.root, -1, -1):
            base = reach[s]
            for k in range(offsets[s], offsets[s + 1]):
                here = base
                for x in coded[burst_id[k]]:
                    prior = before[x]
                    before[x] = here if prior is None else prior & here
                    here |= 1 << x
                s2 = succ[k]
                prior = reach[s2]
                reach[s2] = here if prior is None else prior & here
        pairs = set()
        for x, mask in enumerate(before):
            b = events[x]
            mask &= ~(1 << x)
            while mask:
                low = mask & -mask
                pairs.add((events[low.bit_length() - 1], b))
                mask ^= low
        return frozenset(pairs)


class GraphView(Mapping):
    """Read-only view of a TraceSet's edge arrays as a mapping from each
    state id to its edges, a tuple of (burst, successor id); the tuples
    are made on each lookup."""
    __slots__ = ("_ts",)

    def __init__(self, ts: TraceSet):
        self._ts = ts

    def __getitem__(self, s: int) -> tuple:
        ts = self._ts
        if not (isinstance(s, int) and 0 <= s < ts.states):
            raise KeyError(s)
        bursts, succ, burst_id = ts.bursts, ts.succ, ts.burst_id
        return tuple((bursts[burst_id[k]], succ[k])
                     for k in range(ts.offsets[s], ts.offsets[s + 1]))

    def __len__(self) -> int:
        return self._ts.states

    def __iter__(self):
        return iter(range(self._ts.states))


# --- public entry points ---

def _build(p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
           mode: str, reduce: bool = True) -> TraceSet:
    """The graph of `mode`'s engine; under RELAXED, on the `Eager`
    storage if `reduce` is false."""
    errors = validate(p, obj)
    if errors:
        raise ValueError("; ".join(errors))
    eng = ENGINES[mode](p, obj, cfg,
                        Eager if not reduce and cfg.model is Model.RELAXED
                        else DISCIPLINES[cfg.model])
    # A depth-first search that expands a state when it first sees it and
    # gives it its id, writing its edges, once every successor has one.
    # Each state is hashed once per edge that reaches it, here; the graph
    # and every pass over it work on the int ids, and the engine hands out
    # the burst ids.  s is the state being expanded, `js` the ids of its
    # successors so far and `stack` the frames of the states on the path
    # to it.  A state on the path holds the complement of its depth as
    # its id, and `mark` is the one a new successor of s gets, so a
    # successor holding another negative id is on the path: a cycle.
    root = eng.root()
    actions = eng.actions
    ids: Dict[int, int] = {root: ~0}
    setdefault = ids.setdefault
    succ, burst_id, offsets = array("i"), array("H"), array("i", [0])
    s, acts, js, mark = root, actions(root), [], ~1
    it, stack = iter(acts), []
    while True:
        for _, s2 in it:
            j = setdefault(s2, mark)
            if j < 0:
                if j != mark:
                    raise AssertionError("the exploration graph has a cycle")
                stack.append((s, acts, it, js, mark))
                s, acts, js, mark = s2, actions(s2), [], mark - 1
                it = iter(acts)
                break
            js.append(j)
        else:
            j = ids[s] = len(offsets) - 1
            succ.fromlist(js)
            burst_id.fromlist([b for b, _ in acts])
            offsets.append(len(succ))
            if not stack:
                return TraceSet(j, eng.universe, eng.bursts.values, succ,
                                burst_id, offsets)
            s, acts, it, js, mark = stack.pop()
            js.append(j)


def explore(p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig) -> TraceSet:
    """Trace set of the client running against the object under the
    configured memory model.  The object's kind picks the semantics."""
    return _build(p, obj, cfg, obj.kind)


def enforced_order(p: ClientProgram, obj: ObjectDef,
                   cfg: ExploreConfig) -> EnforcedOrder:
    """Empirical enforced order of the program: pairs that hold in every
    trace of the object-free exploration, over the program's universe."""
    return enforced_order_of(_build(p, obj, cfg, "chaos", reduce=False))


def enforced_order_of(ts: TraceSet) -> EnforcedOrder:
    """Enforced order of an object-free ("chaos") exploration."""
    po = EnforcedOrder(ts.universe, ts.empirical_pairs())
    po.validate()
    return po


def writes_shared(op: OpDef) -> bool:
    """Whether `op` may write shared state: a STORE or TAS in its code."""
    return any(ins[0] in (STORE, TAS) for ins in op.code)


def covert_ops(p: ClientProgram, obj: ObjectDef) -> frozenset:
    """Operations that cannot write shared state and whose result never
    flows into a global: no STORE of a calling thread reads the result's
    register or, flow-insensitively, a register assigned from it.  A
    branch on the result is not a flow."""
    leaks = set()
    for code in p.code.values():
        # the names whose value a STORE may write, through SET copies
        flows = {n for ins in code if ins[0] == STORE for n in names_of(ins[3])}
        size = 0
        while size < len(flows):
            size = len(flows)
            flows.update(n for ins in code if ins[0] == SET and ins[2] in flows
                         for n in names_of(ins[3]))
        leaks.update(ins[2] for ins in code if ins[0] == CALL and ins[4] in flows)
    return frozenset(name for name, op in obj.ops.items()
                     if name not in leaks and not writes_shared(op))

