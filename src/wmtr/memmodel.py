"""Memory-model-parameterised trace exploration.

One engine class per kind of object, each parameterised by a storage
discipline.  `storage` holds SC, TSO and RELAXED, one class each behind
one interface, picked once from `DISCIPLINES` (a RELAXED build that does
not reduce takes `storage.Eager` instead); `_build` picks the engine
class once from `ENGINES`, by where the object's observations are
placed: `_Impl` runs an implementation instruction by instruction,
`_Spec` a specification atomically with free observation placement, and
`_Chaos` is the object-free object of the enforced-order extraction.

States are collapse-compressed and packed: each thread's distinct
states are stored once, in a table of its own, and so are a
specification's valuations and books; a state is one int whose
fixed-width fields (`storage.FIELD_BITS` bits each) hold each thread's
own-state id, thread r's in field r with the threads in name order from
bit 0, a specification's valuation and book ids above them, and the
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

Successors are generated on the same factoring.  A step table keyed on
(thread, own-state id) holds the shared variables the thread's next
instruction, or the next instruction of its implementation call, reads
and, per tuple of their values, the outcome, which `program.step` works
out on a table miss only: once per thread state and read values,
wherever the other threads stand; a step that reads nothing has one
outcome, which the table holds bare.  Expressions are evaluated in full,
so which variables a step reads depends on the key alone, and a gated
instruction (a TAS or fence: its core's writes must first be
visible everywhere) reads through `latest`, the value a TAS acts on.
A state reads the variables of its entry and settles only what depends
on the rest of it: whether the storage takes the write, what the
core's `fence` makes of the state, what the thread's invocation does,
and where a return's observation lands.
Every shared write, a TAS's included, is prepared once by the storage's
`writer`, which fixes where the write goes (the ref an implementation
store's or TAS's successor records) and what it emits.  An outcome's
change to a state is one int, fixed when the outcome is made: the
thread's field moved from its own-state id to the new one.  The
responses of a chaos call are tabled per key too, a specification body
runs once per key and valuation, and the observations a book of
responses still owes once per book.

The graph a build returns is stored as flat array columns, one entry
per edge: the successor's id (`array('i')`) and the id of the edge's
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
write is visible to every core; an operation's observation fires when
the operation's last shared write is visible to every core, never
before the response, and directly after the response when the run wrote
nothing.  Operations that cannot touch shared state, and whose result
never flows into a global, are observed immediately after responding
(`covert_ops`): the result flows when a store reads its register or a
register assigned from it; a branch on the result is not a flow.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .events import Event, Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId
from .porder import EnforcedOrder
from .program import (
    CALL, FENCE, GATED, RETURN, SET, STORE, TAS, ClientProgram, ObjectDef,
    OpDef, _bump, chaos_outputs, events_of_program, names_of, settled, step,
    validate,
)
from . import storage
from .storage import _MISS, RELAXED, SC, TSO, Eager, Interned, _tset


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
    """The outcome of a thread's next instruction for given read values,
    or of one output of a chaos call or one run of a specification body:
    its burst, with what its write emits, `delta`, the change it makes
    to a state (the thread's own-state field moved to its state after
    the step, and for a specification call the valuation's field too),
    and, by kind, the storage call's argument after the state (_WRITE:
    the prepared write, _FENCE: a TAS's prepared write or None, _RET:
    `mem.attach`'s after the core).  `bid` is the id of the burst, and
    for _RET `emitted` that of the burst with the observation emitted at
    once, each worked out when an edge first needs it."""
    __slots__ = ("kind", "burst", "delta", "arg", "bid", "emitted")

    def __init__(self, kind: int, burst: tuple, delta: int, arg=None):
        self.kind, self.burst, self.delta, self.arg = kind, burst, delta, arg
        self.bid = self.emitted = None


# --- the engines ---

class _Engine:
    """What every kind of object shares: client steps, the storage, the
    step table and `_take`.  A subclass, one per kind, gives the slot a
    thread holds while in a call (`call_slot`), that thread's edges
    (`call_actions`) and whatever else its kind needs."""
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
        # the step table, keyed (thread, own-state id), of a thread outside
        # a call or in an implementation call: (the storage's load function,
        # the shared variables its next step reads, {their values: _Step,
        # or None when blocked}), or, when it reads none, its one _Step or
        # None
        self.steps: Dict[Tuple[str, int], tuple] = {}

    def initials(self) -> dict:  # the storage's variables
        return dict(self.p.globals)

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
            if ts.call is not None:
                self.call_actions(out, st, th, x, ts)
            elif ts.pc:  # else the thread has run to its end
                self.step_actions(out, st, th, x, ts)
        out.extend(self.mem.moves(st))
        return out

    def step_actions(self, out, st, th, x, ts):
        """Add to `out` the edges of `th`'s next instruction, or of the
        next instruction of its implementation call, unless it is
        blocked: one per choice of what its loads read, each from the
        state with the core moved to what it reads.  Looked up in the
        step table, interpreted on a miss."""
        key = (th, x)
        entry = self.steps.get(key, _MISS)
        if entry is _MISS:
            load, step, seen = self._interpret(st, th, ts)
            entry = self.steps[key] = ((load, tuple(seen),
                                        {tuple(seen.values()): step})
                                       if seen else step)
        if entry.__class__ is not tuple:  # it reads nothing: one outcome
            if entry is not None:
                a = self._take(st, th, entry)
                if a is not None:
                    out.append(a)
            return
        load, reads, outcomes = entry
        core = self.coremap[th]
        for s in self.views(st, core, reads) if load is self.read else (st,):
            step = outcomes.get(tuple([load(s, core, v) for v in reads]),
                                _MISS)
            if step is _MISS:
                _, step, seen = self._interpret(s, th, ts)
                outcomes[tuple(seen.values())] = step
            if step is not None:
                a = self._take(s, th, step)
                if a is not None:
                    out.append(a)

    def _interpret(self, st, th, ts):
        """Run `th`'s next instruction, or the next instruction of its
        implementation call, in `st`: the load function, its _Step (None
        when blocked or stuck) and the shared variables it read with their
        values, which depend on `ts` alone."""
        code, pc, ctrs, regs, outcome = self._running(th, ts)
        load = self.latest if code[pc][0] in GATED else self.read
        core = self.coremap[th]
        seen: Dict[str, int] = {}

        def view(name):
            v = seen[name] = load(st, core, name)
            return v

        r = step(code, pc, ctrs, regs, view, self.cfg.values, self.cfg.unroll)
        if r is None:
            return load, None, seen
        ins, pc, ctrs, regs, v = r
        return (load, outcome(th, ts, ins, settled(code, pc), ctrs, regs, v),
                seen)

    def _running(self, th, ts):
        """What `th` runs next: code, pc, loop counters and registers,
        and the function giving the _Step of an instruction that ran."""
        return self.p.code[th], ts.pc, ts.ctrs, ts.regs, self._client_outcome

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
        return _Step(_FENCE if op == FENCE else _LOCAL, (ProgStep(sid),), d)

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
        return {**self.p.globals, **self.obj.shared}

    def call_slot(self, opid, arg, reg):
        op = self.obj.ops[opid.call]
        return self.run_merged(op, start_frame(opid, op, arg, reg)), None

    call_actions = _Engine.step_actions

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

    def _running(self, th, ts):
        if ts.call is None:
            return super()._running(th, ts)
        f, _ = ts.call
        return (self.obj.ops[f.opid.call].code, f.pc, f.ctrs, f.regs,
                self._impl_outcome)

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
    against a logical valuation, and its response enters a book of
    unobserved responses, any of which may be observed at any time; an
    invocation may not overlap an unobserved operation of another core.
    A thread in a call holds (opid, arg, reg).  The valuation and the
    book, of (opid, out, core) entries, are interned, their ids held in
    the two fields above the threads'."""
    fields = 2

    def __init__(self, p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
                 discipline: type):
        super().__init__(p, obj, cfg, discipline)
        self.vshift, self.bshift = self.top, self.top + self.bits
        self.covert = covert_ops(p, obj)
        self.valuations = Interned("specification valuations")
        self.books = Interned("books of unobserved responses")
        # keyed (thread, own-state id, valuation id): a _Step whose `arg`
        # is (book entry or None, {book id: change to the state for the
        # book}), or None when blocked
        self.spec_calls: Dict[tuple, Optional[_Step]] = {}
        # per book id: its observations' edges, [(burst id, change)]
        self.book_moves: Dict[int, list] = {}

    def root(self) -> int:
        objst = tuple(sorted(self.obj.shared.items()))
        return (super().root() | self.valuations.id(objst) << self.vshift
                | self.books.id(()) << self.bshift)

    def invoke(self, st: int, thread: str) -> Optional[int]:
        core = self.coremap[thread]
        mask = self.mask
        book = self.books.values[st >> self.bshift & mask]
        if (all(values[st >> shift & mask].call is None
                or self.coremap[th2] == core
                for th2, values, shift in self.slots)
                and all(c == core for (_, _, c) in book)):
            return self.mem.invoke(st, core, True)
        return None

    def call_slot(self, opid, arg, reg):
        return opid, arg, reg

    def actions(self, st: int) -> List[Tuple[int, int]]:
        out = super().actions(st)
        b = st >> self.bshift & self.mask
        if b:
            out.extend([(bid, st + d) for bid, d in self._book_moves(b)])
        return out

    def _book_moves(self, b: int) -> list:
        """[(burst id, change)]: each response in book `b` is observed, in
        book order; worked out once per book."""
        steps = self.book_moves.get(b)
        if steps is None:
            book = self.books.values[b]
            steps = self.book_moves[b] = [
                (self.bursts.id((OpObs(opid, outv),)),
                 (self.books.id(book[:j] + book[j + 1:]) - b) << self.bshift)
                for j, (opid, outv, _) in enumerate(book)]
        return steps

    def call_actions(self, out, st, th, x, ts):
        """Add to `out` the edge of `th`'s call unless its body blocks.
        The body runs once per own state and valuation; each state then
        only adds the response to its book."""
        key = (th, x, st >> self.vshift & self.mask)
        step = self.spec_calls.get(key, _MISS)
        if step is _MISS:
            step = self.spec_calls[key] = self._spec_call(th, ts, key[2])
        if step is None:
            return
        d = step.delta
        pending, books = step.arg
        if pending is not None:
            b = st >> self.bshift & self.mask
            db = books.get(b)
            if db is None:
                db = books[b] = (self.books.id(self.books.values[b] + (pending,))
                                 - b) << self.bshift
            d += db
        out.append((step.bid, st + d))

    def _spec_call(self, th, ts, objst):
        """Run `th`'s call against valuation `objst`: a _Step with its
        burst id and, as `arg`, the response for the book or None when the
        operation is observed at once, and {} for the book changes; or
        None."""
        opid, arg, ret_reg = ts.call
        r = run_spec_body(self.obj.ops[opid.call],
                          dict(self.valuations.values[objst]), arg,
                          self.cfg.values)
        if r is None:
            return None
        valuation, outv = r
        d = (self._delta(th, ts, _returned(ts, ret_reg, outv))
             + ((self.valuations.id(tuple(sorted(valuation.items()))) - objst)
                << self.vshift))
        if opid.call in self.covert:
            step = _Step(_LOCAL, (Res(opid, outv), OpObs(opid, outv)), d,
                         (None, None))
        else:
            step = _Step(_LOCAL, (Res(opid, outv),), d,
                         ((opid, outv, self.coremap[th]), {}))
        step.bid = self.bursts.id(step.burst)
        return step


class _Chaos(_Engine):
    """The object-free "chaos" object of the enforced-order extraction:
    a call responds with any output its operation may statically give
    (`chaos_outputs`), carrying one virtual shared write per effectful
    operation.  A thread in a call holds (opid, reg)."""

    def __init__(self, p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
                 discipline: type):
        super().__init__(p, obj, cfg, discipline)
        self.covert = covert_ops(p, obj)
        self.outputs = {name: chaos_outputs(op, cfg.values)
                        for name, op in obj.ops.items()}
        # keyed (thread, own-state id): [_Step per output]
        self.responses: Dict[Tuple[str, int], List[_Step]] = {}

    def call_slot(self, opid, arg, reg):
        return opid, reg

    def call_actions(self, out, st, th, x, ts):
        key = (th, x)
        steps = self.responses.get(key)
        if steps is None:
            steps = self.responses[key] = self._responses(th, ts)
        for step in steps:
            a = self._take(st, th, step)
            if a is not None:
                out.append(a)

    def _responses(self, th, ts):
        """A _Step per output of `th`'s call, in output order: a covert
        operation responds and is observed at once, any other responds
        with a virtual write that carries its observation."""
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
        return out


ENGINES = {"impl": _Impl, "spec": _Spec, "chaos": _Chaos}


# --- trace sets ---

@dataclass
class TraceSet:
    """Prefix-closed set of traces, represented by the exploration graph.

    Traces are exactly: every prefix of every event sequence along every
    path from the root, including cuts inside a single action's burst.

    States are int ids, numbered 0..n-1 in the order the build first
    generated them; `root` is 0.  The graph is stored as flat arrays:
    the edges of state s are the indices k in range(start[s], stop[s]),
    and edge k leads to state succ[k] with the burst bursts[burst_id[k]].
    `bursts` is the build's table of distinct bursts, id 0 being the
    empty burst of a silent step.  Each state's edges are contiguous, in
    the order the engine generated them; the states themselves are laid
    out in the order the build expanded them, not in id order.

    `graph` is a read-only view of the arrays as a mapping from each id
    to its edges, a tuple of (burst, successor id)."""
    root: int
    universe: frozenset
    bursts: List[tuple]
    succ: array
    burst_id: array
    start: array
    stop: array
    _topo: Optional[list] = field(default=None, repr=False)
    _obs: Optional[frozenset] = field(default=None, repr=False)

    @property
    def states(self) -> int:
        return len(self.start)

    @property
    def graph(self) -> GraphView:
        return GraphView(self)

    def topo(self) -> list:
        """States in a root-first topological order."""
        if self._topo is not None:
            return self._topo
        succ, start, stop = self.succ, self.start, self.stop
        root = self.root
        order, seen = [], bytearray(len(start))
        seen[root] = 1
        stack = [(root, iter(succ[start[root]:stop[root]]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = 1
                    stack.append((nxt, iter(succ[start[nxt]:stop[nxt]])))
                    break
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        self._topo = order
        return order

    def __contains__(self, trace) -> bool:
        """Reachability in the product of the graph with trace positions;
        a burst longer than the rest of the trace accepts on a prefix."""
        bursts, succ, burst_id = self.bursts, self.succ, self.burst_id
        start, stop = self.start, self.stop
        trace = tuple(trace)
        end = len(trace)
        seen = {(self.root, 0)}
        stack = [(self.root, 0)]
        while stack:
            s, k = stack.pop()
            if k == end:
                return True
            for x in range(start[s], stop[s]):
                burst = bursts[burst_id[x]]
                n = len(burst)
                if trace[k:k + n] == burst:
                    nxt = (succ[x], k + n)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
                elif end - k < n and burst[:end - k] == trace[k:]:
                    return True
        return False

    def observables(self) -> frozenset:
        """All observable behaviours (sequences of program observations
        `(thread, var, value)`), in one forward pass in topological order.

        Each observation prefix gets an id in a trie when first seen:
        `prefixes[i]` is the prefix with id i, and `child` maps (id,
        observation) to the id of the prefix one observation longer.
        `reach[s]` is the int bitmask of the ids of the prefixes that reach
        state s; a silent or unobserving edge ORs it into its successor,
        and an observing burst maps it through a memo keyed on (mask,
        burst id).  A mask is dropped once its state's edges are followed.
        Every prefix is interned on some path, at a state or at a cut
        inside a burst, so the trie holds exactly the observables."""
        if self._obs is not None:
            return self._obs
        succ, burst_id, start, stop = self.succ, self.burst_id, self.start, self.stop
        # per burst id: its program observations
        proj = [tuple((e.step.thread, e.var, e.value) for e in burst
                      if isinstance(e, ProgObs)) for burst in self.bursts]
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

        reach = [0] * len(start)
        reach[self.root] = 1
        for s in self.topo():
            mask, reach[s] = reach[s], 0
            for k in range(start[s], stop[s]):
                b = burst_id[k]
                if proj[b]:
                    after = memo.get((mask, b))
                    if after is None:
                        after = memo[mask, b] = extend(mask, proj[b])
                    reach[succ[k]] |= after
                else:
                    reach[succ[k]] |= mask
        self._obs = frozenset(prefixes)
        return self._obs

    def empirical_pairs(self) -> frozenset:
        """(a, b) iff b occurs and a precedes b in every trace where b
        occurs; computed as a meet over paths through the graph.

        Event sets are int bitmasks: bit x stands for the x-th distinct
        event of the burst table, `reach[s]` holds the events on every
        path to state s and `before[x]` those before event x on every
        path reaching it."""
        succ, burst_id, start, stop = self.succ, self.burst_id, self.start, self.stop
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
        reach: List[Optional[int]] = [None] * len(start)
        reach[self.root] = 0
        for s in self.topo():
            base = reach[s]
            for k in range(start[s], stop[s]):
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
        if not (isinstance(s, int) and 0 <= s < len(ts.start)):
            raise KeyError(s)
        bursts, succ, burst_id = ts.bursts, ts.succ, ts.burst_id
        return tuple((bursts[burst_id[k]], succ[k])
                     for k in range(ts.start[s], ts.stop[s]))

    def __len__(self) -> int:
        return len(self._ts.start)

    def __iter__(self):
        return iter(range(len(self._ts.start)))


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
    # Each state is hashed once per edge that reaches it, here; the graph
    # and every pass over it work on the int ids, and the engine hands out
    # the burst ids.
    root = eng.root()
    ids: Dict[int, int] = {root: 0}
    succ, burst_id = array("i"), array("H")
    start, stop = array("i", [0]), array("i", [0])
    stack = [(0, root)]
    actions = eng.actions
    setdefault = ids.setdefault
    to_succ, to_burst = succ.append, burst_id.append
    n = 1  # the states so far, and the id of the next
    while stack:
        i, s = stack.pop()
        start[i] = len(succ)
        for b, s2 in actions(s):
            j = setdefault(s2, n)
            if j == n:
                n += 1
                stack.append((j, s2))
                start.append(0)
                stop.append(0)
            to_succ(j)
            to_burst(b)
        stop[i] = len(succ)
    return TraceSet(0, eng.universe, eng.bursts.values, succ, burst_id,
                    start, stop)


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

