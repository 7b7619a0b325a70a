"""Memory-model-parameterised trace exploration.

One engine, parameterised by a storage discipline: `storage` holds SC,
TSO and RELAXED, one class each behind one interface, and the engine
picks the class once from `DISCIPLINES`.

States are collapse-compressed and packed: each distinct tuple of
thread states is stored once, in a table on the engine, and so are a
specification's valuations and books; a state is one int whose
fixed-width fields (`storage.FIELD_BITS` bits each) hold the thread
tuple's id at bit 0, in spec mode the valuation's and the book's ids
above it, and the storage discipline's fields on top (RELAXED: one per
variable, the id of its entry).  An id that outgrows its field is an
`OverflowError`, never an alias.  A thread's state holds where its
compiled code stands (a pc and loop counters) and its registers, and so
does the frame of its implementation call, if any, so the thread tuple
covers the client and the implementation machine alike.  A successor is
the state plus the changes to its fields, each worked out once per
value of the fields it reads: a silent RELAXED propagation is an int
add, and the build's state table maps ints to ints.  A client's pc is
settled after each step, an operation's only when it next steps (see
`objects`), which keeps the states the same as the syntax trees compare.

Successors are generated on the same factoring.  A step table keyed on
(thread-tuple id, thread) holds the shared variables the thread's next
instruction, or the next instruction of its implementation call, reads
and, per tuple of their values, the outcome: blocked, a local step, a
global write, a fence or a call; an implementation store, TAS or
return.  Both run through `program.step`, on a table miss only.
Expressions are evaluated in full, so which variables a step reads
depends on the key alone.  Whether a step is gated is a property of the
instruction at the pc: a TAS or fence waits for its core to drain, and
reads through `latest`, the value a TAS acts on.  A state reads the
variables of its entry and settles only what depends on the rest of it:
whether the storage takes the write, whether the core is drained,
whether the thread may invoke, and where a write or a return's
observation lands.  An implementation store's or TAS's ref, where the
storage put the write, varies per state; the successor's thread tuple
is memoised per ref on the outcome.  The responses of a chaos call are
tabled per key too, one outcome per output, a specification body runs
once per key and valuation, and the observations a book of responses
still owes are worked out once per book.

The graph a build returns is stored as flat `array('i')` columns, one
entry per edge: the successor's id and the id of the edge's burst in a
per-build table of distinct bursts (few: fig5 x spinlock_impl under
RELAXED has 22 non-empty ones on 258,573 edges).  The engine owns that
table (`BurstTable`) and hands it to the storage discipline, so engine
and storage yield burst ids; a burst enters the table, and is checked
against the program's universe, when an edge first carries it, and
outcomes cache their burst's id.  Every pass over the
graph runs on those columns and works out what it needs of a burst once
per burst id; `TraceSet.graph` is a read-only mapping view for readers
that want the edges of an id as tuples.

Observation placement: a program step's observation fires when its
write is visible to every core; an operation's observation fires when
the operation's last shared write is visible to every core, never
before the response, and directly after the response when the run wrote
nothing.  Operations that cannot touch shared state (and whose result
never flows into a global) are observed immediately after responding.

The engine runs in one of three modes, chosen by the object kind:
"impl" drives operation bodies instruction by instruction, "spec"
executes bodies atomically (`objects.run_spec_body`) against a
logical valuation with free observation placement, pruned so that no
invocation overlaps an unobserved operation of another core, and "chaos"
(used for the enforced-order extraction) replaces the object by
nondeterministic responses carrying one virtual shared write per
effectful operation.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .events import Event, Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId
from .objects import run_spec_body, start_frame, writes_shared
from .porder import EnforcedOrder
from .program import (
    CALL, FENCE, GATED, RETURN, STORE, TAS, Assign, Call, ClientProgram,
    Lit, Name, ObjectDef, OpDef, Return, Tas, _all_stmts, _always_returns,
    _bump, events_of_program, settled, step, validate,
)
from . import storage
from .storage import _MISS, RELAXED, SC, TSO, Interned, _tset


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
    coremap: Optional[Dict[str, str]] = None

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
    call: Optional[tuple]  # ("impl", objects.OpFrame, ref of the op's last write)
                           # | ("spec", opid, arg, reg) | ("chaos", opid, reg)


def _returned(ts: ThreadState, reg, out) -> ThreadState:
    """`ts` once its call returned `out` into register `reg`."""
    if reg is None or out is None:
        return ts._replace(call=None)
    return ts._replace(regs=_tset(ts.regs, reg, out), call=None)


class BurstTable:
    """A build's distinct bursts, id 0 being the empty burst of a silent
    step.  A burst enters the table when an edge first carries it, and is
    checked against the program's universe then, so the table holds
    exactly the bursts of the graph, in the order edges first carry them."""

    def __init__(self, universe: frozenset):
        self.universe = universe
        self.bursts: List[tuple] = [()]
        self.ids: Dict[tuple, int] = {(): 0}

    def id(self, burst: tuple) -> int:
        b = self.ids.get(burst)
        if b is None:
            for e in burst:
                if e not in self.universe:
                    raise AssertionError(f"event outside the program universe: {e}")
            b = self.ids[burst] = len(self.bursts)
            self.bursts.append(burst)
        return b


# what a state must still decide of a step: nothing, whether the storage
# takes the write, whether the core is drained, whether it may invoke,
# the TAS's write on a drained core, and whether a returning operation's
# observation rides on its last write
_LOCAL, _WRITE, _FENCE, _CALL, _TAS, _RET = range(6)


class _Step:
    """The outcome of a thread's next instruction for given read values,
    or of one output of a chaos call: the burst it starts with, the
    change `next` it makes to the state's thread-tuple id and, by kind,
    the storage call's argument after the state (_WRITE: the prepared
    `mem.write`, _TAS: `mem.tas_write`'s after the core, _RET:
    `mem.attach`'s after the core).  After an implementation store or
    TAS the thread's call slot records the write's ref, which varies per
    state: `after` is then the thread state without the ref and `next` a
    dict from ref to the change, filled as refs appear.  `bid` is the id
    of the burst with what the storage emits, and for _RET `emitted`
    that of the burst with the observation emitted at once, each cached
    when an edge first carries it."""
    __slots__ = ("kind", "burst", "next", "arg", "after", "bid", "emitted")

    def __init__(self, kind: int, burst: tuple, change, arg=None, after=None):
        self.kind, self.burst, self.next, self.arg = kind, burst, change, arg
        self.after, self.bid, self.emitted = after, None, None


# --- the engine ---

class _Engine:
    def __init__(self, p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
                 mode: str):
        self.p = p
        self.obj = obj
        self.cfg = cfg
        self.mode = mode
        self.coremap = dict(cfg.coremap) if cfg.coremap else dict(p.coremap)
        cores = tuple(sorted(set(self.coremap.values())))
        initials = dict(p.globals)
        if mode == "impl":
            initials.update(obj.shared)
        self.universe = events_of_program(p, obj, cfg.unroll, cfg.values)
        self.bursts = BurstTable(self.universe)
        # a state is one int of fields, storage.FIELD_BITS wide, from bit
        # 0: the thread-tuple id; in spec mode the valuation's id and the
        # book's; then the storage discipline's fields
        bits = storage.FIELD_BITS
        self.mask = (1 << bits) - 1
        self.vshift, self.bshift = bits, 2 * bits
        self.mem = DISCIPLINES[cfg.model](
            cores, initials, cfg.buffer, self.bursts,
            (3 if mode == "spec" else 1) * bits)
        # the load functions a step table entry names, bound once
        self.read, self.latest = self.mem.read, self.mem.latest
        self.covert = covert_ops(p, obj)
        self.chaosouts = {name: chaos_outputs(op, cfg.values)
                          for name, op in obj.ops.items()}
        # collapse compression: each distinct thread tuple, implementation
        # frames included, is stored once and a state holds its index; so
        # are a specification's valuations and books (the responded,
        # unobserved (opid, out, core) entries)
        self.threads = Interned("thread tuples")
        self.valuations = Interned("specification valuations")
        self.books = Interned("books of unobserved responses")
        # step tables, keyed (thread-tuple id, thread).  A thread outside a
        # call or in an implementation call: (the storage's load function,
        # the shared variables its next step reads, {their values: _Step,
        # or None when blocked}).  A thread in a chaos call: [_Step per
        # output].  A thread in a specification call, keyed with the
        # valuation id too: (burst id, change to the state, book entry or
        # None, {book id: change to the state for the book}), or None
        # when blocked.
        self.steps: Dict[Tuple[int, str], tuple] = {}
        self.responses: Dict[Tuple[int, str], List[_Step]] = {}
        self.spec_calls: Dict[tuple, Optional[tuple]] = {}
        # per book id: its observations' edges, [(burst id, change)]
        self.book_moves: Dict[int, list] = {}

    def root(self) -> int:
        threads = tuple(sorted(
            (th, ThreadState(settled(code, 1), (), (), (), 0, None))
            for th, code in self.p.code.items()))
        st = self.threads.id(threads) | self.mem.initial()
        if self.mode == "spec":
            objst = tuple(sorted(self.obj.shared.items()))
            st |= (self.valuations.id(objst) << self.vshift
                   | self.books.id(()) << self.bshift)
        return st

    def _moved(self, tid: int, th: str, ts: ThreadState) -> int:
        """The change to a state's thread-tuple id `tid` that replaces
        `th`'s state by `ts`."""
        threads = tuple((t, (ts if t == th else x))
                        for t, x in self.threads.values[tid])
        return self.threads.id(threads) - tid

    def inv_allowed(self, st: int, thread: str) -> bool:
        core = self.coremap[thread]
        if self.mode != "spec":
            return self.mem.inv_ready(st, core, False)
        book = self.books.values[st >> self.bshift & self.mask]
        return (self.mem.inv_ready(st, core, True)
                and all(ts2.call is None or self.coremap[th2] == core
                        for th2, ts2 in self.threads.values[st & self.mask])
                and all(c == core for (_, _, c) in book))

    # actions

    def actions(self, st: int) -> List[Tuple[int, int]]:
        """The edges out of `st`, as (burst id, successor)."""
        out: List[Tuple[int, int]] = []
        tid = st & self.mask
        for th, ts in self.threads.values[tid]:
            call = ts.call
            if call is None and not ts.pc:
                continue  # the thread has run to its end
            if call is None or call[0] == "impl":
                a = self.step_action(st, tid, th, ts)
            elif call[0] == "spec":
                a = self.spec_call_action(st, tid, th, ts)
            else:
                out.extend(self.chaos_call_actions(st, tid, th, ts))
                continue
            if a is not None:
                out.append(a)
        out.extend(self.mem.moves(st))
        if self.mode == "spec":
            b = st >> self.bshift & self.mask
            if b:
                for bid, d in self._book_moves(b):
                    out.append((bid, st + d))
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

    def step_action(self, st, tid, th, ts):
        """The edge of `th`'s next instruction, or of the next instruction
        of its implementation call, or None when it is blocked.  The step
        is interpreted once per thread tuple and values of the shared
        variables it reads; each state then only reads those variables
        and settles what the storage or the other threads decide."""
        key = (tid, th)
        entry = self.steps.get(key)
        step = _MISS
        if entry is not None:
            load, reads, outcomes = entry
            core = self.coremap[th]
            step = outcomes.get(tuple([load(st, core, v) for v in reads]),
                                _MISS)
        if step is _MISS:
            load, step, seen = self._interpret(st, tid, th, ts)
            if entry is None:
                entry = self.steps[key] = (load, tuple(seen), {})
            entry[2][tuple(seen.values())] = step
        return None if step is None else self._take(st, tid, th, step)

    def _interpret(self, st, tid, th, ts):
        """Run `th`'s next instruction, or the next instruction of its
        implementation call, in `st`: the load function, its _Step (None
        when blocked or stuck) and the shared variables it read with their
        values.  A gated instruction reads through `latest`, any other
        through `read`; expressions and conditions are evaluated in full,
        so the variables read depend on `ts` alone."""
        call = ts.call
        if call is None:
            code, pc, ctrs, regs = self.p.code[th], ts.pc, ts.ctrs, ts.regs
        else:
            f = call[1]
            code = self.obj.ops[f.opid.call].code
            pc, ctrs, regs = f.pc, f.ctrs, f.regs
        gated = code[settled(code, pc)][0] in GATED
        load = self.latest if gated else self.read
        core = self.coremap[th]
        seen: Dict[str, int] = {}

        def view(name):
            v = seen[name] = load(st, core, name)
            return v

        r = step(code, pc, ctrs, regs, view, self.cfg.values, self.cfg.unroll)
        if r is None:
            return load, None, seen
        if call is None:
            return load, self._client_outcome(tid, th, ts, *r), seen
        return load, self._impl_outcome(tid, th, ts, *r), seen

    def _client_outcome(self, tid, th, ts, ins, pc, ctrs, regs, v):
        """The _Step of a client instruction that ran, going on at `pc`."""
        op = ins[0]
        pc = settled(self.p.code[th], pc)
        if op == CALL:
            _, _, name, _, reg = ins
            opid = OpId(th, name, ts.calls)
            if self.mode == "impl":
                slot = ("impl", start_frame(opid, self.obj.ops[name], v, reg), None)
            elif self.mode == "spec":
                slot = ("spec", opid, v, reg)
            else:
                slot = ("chaos", opid, reg)
            ts2 = ts._replace(pc=pc, ctrs=ctrs, calls=ts.calls + 1, call=slot)
            return _Step(_CALL, (Inv(opid, v),), self._moved(tid, th, ts2))
        lab = ins[1]
        inst, labels = _bump(ts.labels, lab)
        sid = StepId(th, lab, inst)
        d = self._moved(tid, th, ts._replace(pc=pc, ctrs=ctrs, regs=regs,
                                             labels=labels))
        if op == STORE:
            var = ins[2]
            return _Step(_WRITE, (ProgStep(sid, (var, v)),), d, self.mem.writer(
                self.coremap[th], var, v, "prog", sid, ProgObs(sid, var, v)))
        return _Step(_FENCE if op == FENCE else _LOCAL, (ProgStep(sid),), d)

    def _impl_outcome(self, tid, th, ts, ins, pc, ctrs, regs, v):
        """The _Step of an implementation instruction that ran, going on at
        `pc`: a store's or successful TAS's successor records the write's
        ref, so its `next` is filled per ref."""
        _, f, last = ts.call
        op, opid = ins[0], f.opid
        if op == RETURN:
            ts2 = _returned(ts, f.ret_reg, v)
            return _Step(_RET, (Res(opid, v),), self._moved(tid, th, ts2),
                         (last, opid, OpObs(opid, v)))
        ts2 = ts._replace(call=("impl", f._replace(pc=pc, ctrs=ctrs, regs=regs),
                                last))
        if op == STORE:
            w = self.mem.writer(self.coremap[th], ins[2], v, "obj", opid, None)
            return _Step(_WRITE, (), {}, w, ts2)
        if op == TAS and v is not None:
            return _Step(_TAS, (), {}, (ins[3], v, opid), ts2)
        kind = _FENCE if op in GATED else _LOCAL  # a fence or a failed TAS
        return _Step(kind, (), self._moved(tid, th, ts2))

    def _take(self, st, tid, th, step):
        """The edge `step` makes from `st`, or None when `st` blocks it."""
        kind = step.kind
        tail = ()
        if kind != _LOCAL:
            mem, core = self.mem, self.coremap[th]
            if kind == _WRITE:
                w = mem.write(st, step.arg)
                if w is None:
                    return None
                st, tail, ref = w
            elif kind == _CALL:
                if not self.inv_allowed(st, th):
                    return None
            elif kind == _RET:
                attached = mem.attach(st, core, *step.arg)
                if attached is None:  # the observation is emitted now
                    b = step.emitted
                    if b is None:
                        b = step.emitted = self.bursts.id(step.burst
                                                          + step.arg[-1:])
                    return b, st + step.next
                st = attached
            else:  # _FENCE or _TAS
                if not mem.drained(st, core):
                    return None
                if kind == _TAS:
                    st, ref = mem.tas_write(st, core, *step.arg)
        b = step.bid
        if b is None:  # the first edge to carry it
            b = step.bid = self.bursts.id(step.burst + tail)
        after = step.after
        if after is None:
            return b, st + step.next
        d = step.next.get(ref)  # the successor records the write's ref
        if d is None:
            d = step.next[ref] = self._moved(
                tid, th, after._replace(call=after.call[:2] + (ref,)))
        return b, st + d

    def spec_call_action(self, st, tid, th, ts):
        """The edge of `th`'s specification call, or None when its body
        blocks.  The body runs once per thread tuple and valuation; each
        state then only adds the response to its book."""
        key = (tid, th, st >> self.vshift & self.mask)
        out = self.spec_calls.get(key, _MISS)
        if out is _MISS:
            out = self.spec_calls[key] = self._spec_call(tid, th, ts, key[2])
        if out is None:
            return None
        bid, d, pending, books = out
        if pending is not None:
            b = st >> self.bshift & self.mask
            db = books.get(b)
            if db is None:
                db = books[b] = (self.books.id(self.books.values[b] + (pending,))
                                 - b) << self.bshift
            d += db
        return bid, st + d

    def _spec_call(self, tid, th, ts, objst):
        """Run `th`'s specification call against valuation `objst`: (burst
        id, change to the state's thread tuple and valuation, the response
        for the book or None when the operation is observed at once, {}
        for the book changes), or None."""
        _, opid, arg, ret_reg = ts.call
        r = run_spec_body(self.obj.ops[opid.call],
                          dict(self.valuations.values[objst]), arg,
                          self.cfg.values)
        if r is None:
            return None
        valuation, outv = r
        d = (self._moved(tid, th, _returned(ts, ret_reg, outv))
             + ((self.valuations.id(tuple(sorted(valuation.items()))) - objst)
                << self.vshift))
        if opid.call in self.covert:
            return (self.bursts.id((Res(opid, outv), OpObs(opid, outv))), d,
                    None, None)
        return (self.bursts.id((Res(opid, outv),)), d,
                (opid, outv, self.coremap[th]), {})

    def chaos_call_actions(self, st, tid, th, ts):
        key = (tid, th)
        steps = self.responses.get(key)
        if steps is None:
            steps = self.responses[key] = self._responses(tid, th, ts)
        out = []
        for step in steps:
            a = self._take(st, tid, th, step)
            if a is not None:
                out.append(a)
        return out

    def _responses(self, tid, th, ts):
        """A _Step per output of `th`'s chaos call, in output order: a
        covert operation responds and is observed at once, any other
        responds with a virtual write that carries its observation."""
        _, opid, ret_reg = ts.call
        vvar = f"#{opid.thread}.{opid.call}.{opid.instance}"
        out = []
        for outv in sorted(self.chaosouts[opid.call],
                           key=lambda v: (v is None, v)):
            d = self._moved(tid, th, _returned(ts, ret_reg, outv))
            res, obs = Res(opid, outv), OpObs(opid, outv)
            if opid.call in self.covert:
                out.append(_Step(_LOCAL, (res, obs), d))
            else:
                out.append(_Step(_WRITE, (res,), d, self.mem.writer(
                    self.coremap[th], vvar, 0, "virt", opid, obs)))
        return out


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
        """All observable behaviours (sequences of program observations)."""
        if self._obs is not None:
            return self._obs
        succ, burst_id, start, stop = self.succ, self.burst_id, self.start, self.stop
        # per burst id: its program observations and their non-empty prefixes
        proj = [tuple((e.step.thread, e.var, e.value) for e in burst
                      if isinstance(e, ProgObs)) for burst in self.bursts]
        heads = [[po[:j] for j in range(1, len(po) + 1)] for po in proj]
        suffix: List[Optional[frozenset]] = [None] * len(start)
        for s in reversed(self.topo()):
            acc = {()}
            for k in range(start[s], stop[s]):
                b = burst_id[k]
                po = proj[b]
                if po:
                    acc.update(heads[b])
                    acc.update([po + t for t in suffix[succ[k]]])
                else:
                    acc.update(suffix[succ[k]])
            suffix[s] = frozenset(acc)
        self._obs = suffix[self.root]
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
           mode: str) -> TraceSet:
    errors = validate(p, obj)
    if errors:
        raise ValueError("; ".join(errors))
    eng = _Engine(p, obj, cfg, mode)
    # Each state is hashed once per edge that reaches it, here; the graph
    # and every pass over it work on the int ids, and the engine hands out
    # the burst ids.
    root = eng.root()
    ids: Dict[int, int] = {root: 0}
    succ, burst_id = array("i"), array("i")
    start, stop = array("i", [0]), array("i", [0])
    stack = [(0, root)]
    actions, setdefault = eng.actions, ids.setdefault
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
    return TraceSet(0, eng.universe, eng.bursts.bursts, succ, burst_id,
                    start, stop)


def explore(p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig) -> TraceSet:
    """Trace set of the client running against the object under the
    configured memory model.  The object's kind picks the semantics."""
    return _build(p, obj, cfg, obj.kind)


def enforced_order(p: ClientProgram, obj: ObjectDef,
                   cfg: ExploreConfig) -> EnforcedOrder:
    """Empirical enforced order of the program: pairs that hold in every
    trace of the object-free exploration, over the program's universe."""
    return enforced_order_of(_build(p, obj, cfg, "chaos"))


def enforced_order_of(ts: TraceSet) -> EnforcedOrder:
    """Enforced order of an object-free ("chaos") exploration."""
    universe = ts.universe
    pairs = frozenset((a, b) for a, b in ts.empirical_pairs()
                      if a in universe and b in universe)
    po = EnforcedOrder(universe, pairs)
    po.validate()
    return po


def covert_ops(p: ClientProgram, obj: ObjectDef) -> frozenset:
    """Operations that cannot write shared state and whose result never
    flows into a global variable (checked syntactically)."""
    out = set()
    for name, op in obj.ops.items():
        if writes_shared(op, obj):
            continue
        reaches = False
        for th, stmts in p.threads.items():
            regs = {s.result for s in _all_stmts(stmts)
                    if isinstance(s, Call) and s.op == name and s.result}
            if not regs:
                continue
            for s in _all_stmts(stmts):
                if (isinstance(s, Assign) and s.target in p.globals
                        and any(n in regs for n in _names_of(s.expr))):
                    reaches = True
        if not reaches:
            out.add(name)
    return frozenset(out)


def _names_of(e):
    if isinstance(e, Name):
        yield e.ident
    elif not isinstance(e, Lit):
        yield from _names_of(e.left)
        yield from _names_of(e.right)


def chaos_outputs(op: OpDef, values: int) -> frozenset:
    """Statically possible outputs: literal returns narrow to their
    value, registers that only a TAS writes to {0,1}, anything else to
    the domain."""
    stmts = list(_all_stmts(op.body))
    tas_regs = ({s.result for s in stmts if isinstance(s, Tas)}
                - {s.target for s in stmts if isinstance(s, Assign)}
                - {op.param})
    outs = set()
    has_value = False
    bare = False
    for s in stmts:
        if not isinstance(s, Return):
            continue
        if s.expr is None:
            bare = True
            continue
        has_value = True
        if isinstance(s.expr, Lit):
            outs.add(s.expr.value % (values + 1))
        elif isinstance(s.expr, Name) and s.expr.ident in tas_regs:
            outs |= {0, 1}
        else:
            outs |= set(range(values + 1))
    if bare or not _always_returns(op.body) or not has_value:
        outs.add(None)
    return frozenset(outs)
