"""Memory-model-parameterised trace exploration.

One engine, three storage disciplines:

  SC       writes hit memory at once; observations are emitted in the
           same burst as the event they observe.
  TSO      per-core FIFO store buffers; a flush makes the head entry
           globally visible and emits its observation.  TAS drains the
           issuing core's buffer and writes through.
  RELAXED  per-variable write records that propagate to other cores one
           at a time in per-variable coherence order; no cross-variable
           ordering.  A core that overwrites a variable jumps past (and
           thereby supersedes) records it never received.  TAS acts on
           the coherence-latest value and is instantly global.

Observation placement: a program step's observation fires when its
write is visible to every core; an operation's observation fires when
the operation's last shared write is visible to every core, never
before the response, and directly after the response when the run wrote
nothing.  Operations that cannot touch shared state (and whose result
never flows into a global) are observed immediately after responding.

The engine runs in one of three modes, chosen by the object kind:
"impl" drives operation bodies instruction by instruction through the
implementation machine, "spec" executes bodies atomically against a
logical valuation with free observation placement pruned by the
cross-core discipline of `objects.check_atomic`, and "chaos" (used for
the enforced-order extraction) replaces the object by nondeterministic
responses carrying one virtual shared write per effectful operation.

Invocations under TSO wait until the invoking core holds no buffered
program write; under RELAXED, specification invocations wait until the
core's program writes have fully propagated.  Both reflect the enforced
order's treatment of operation boundaries as code the program cannot
see into but the laws still constrain.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .events import (
    Event, Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId, Trace,
)
from .objects import (
    Internal, MACHINE_EMPTY, Ret, Store, TasDone, impl_step,
    machine_peek, machine_start, run_spec_body, writes_shared,
)
from .porder import EnforcedOrder
from .program import (
    Assign, Await, Call, ClientProgram, Fence, If, Lit, Name, ObjectDef,
    OpDef, Return, Tas, While, _all_stmts, _always_returns, _bump,
    eval_cond, eval_expr, events_of_program, label_of, validate,
)


class Model(str, Enum):
    SC = "sc"
    TSO = "tso"
    RELAXED = "relaxed"


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
    frames: tuple  # control stack, top last: ("s", stmts, i) | ("l", stmt, k)
    regs: tuple    # sorted (name, value)
    labels: tuple  # sorted (label, occurrence count)
    calls: int
    call: Optional[tuple]  # ("impl", opid, reg, last) | ("spec", opid, arg, reg)
                           # | ("chaos", opid, reg)


class Entry(NamedTuple):  # TSO buffer entry
    var: str
    val: int
    kind: str  # "prog" | "obj" | "virt"
    carrier: object
    obs: Optional[Event]


class EngineState(NamedTuple):
    threads: tuple  # sorted (thread, ThreadState)
    machine: tuple
    storage: tuple
    objst: Optional[tuple]  # spec valuation
    book: tuple  # spec: responded, unobserved (opid, out, core)


def _tget(pairs: tuple, key, default=None):
    for k, v in pairs:
        if k == key:
            return v
    return default


_key = itemgetter(0)


def _tset(pairs: tuple, key, value) -> tuple:
    """`pairs` (sorted, unique keys) with `key` bound to `value`: the
    binding is replaced in place or inserted at its sorted position."""
    i = bisect_left(pairs, key, key=_key)
    j = i + 1 if i < len(pairs) and pairs[i][0] == key else i
    return pairs[:i] + ((key, value),) + pairs[j:]


def _norm_frames(frames: tuple) -> tuple:
    while frames and frames[-1][0] == "s" and frames[-1][2] == len(frames[-1][1]):
        frames = frames[:-1]
    return frames


# --- the engine ---

class _Engine:
    def __init__(self, p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
                 mode: str):
        self.p = p
        self.obj = obj
        self.cfg = cfg
        self.mode = mode
        self.coremap = dict(cfg.coremap) if cfg.coremap else dict(p.coremap)
        self.cores = tuple(sorted(set(self.coremap.values())))
        self.initials = dict(p.globals)
        if mode == "impl":
            self.initials.update(obj.shared)
        self.universe = events_of_program(p, obj, cfg.unroll, cfg.values)
        self.covert = covert_ops(p, obj)
        self.chaosouts = {name: chaos_outputs(op, cfg.values)
                          for name, op in obj.ops.items()}
        # RELAXED storage is ("rx", entries), entries sorted
        # ((var, (recs, posv)), ...) over the variables written so far.
        # posv[k] is the position in recs of the latest record of var that
        # the core of rank k (its index in self.cores) received, -1 before
        # any.  A record is the tuple
        #   (val, core_rank, kind, carrier_code, covered_mask, obs_code, emitted)
        # where bit k of covered_mask says core k received or superseded it,
        # and carrier and observation are interned in self.decode (code 0
        # is None); an observation is decoded when its record emits it.
        self.rank = {c: k for k, c in enumerate(self.cores)}
        self.full = (1 << len(self.cores)) - 1
        self.unseen = (-1,) * len(self.cores)
        self.codes: Dict[object, int] = {None: 0}
        self.decode: List[object] = [None]

    # state construction

    def root(self) -> EngineState:
        threads = tuple(sorted(
            (th, ThreadState(_norm_frames((("s", body, 0),)), (), (), 0, None))
            for th, body in self.p.threads.items()))
        if self.cfg.model == Model.SC:
            storage = ("sc", tuple(sorted(self.initials.items())))
        elif self.cfg.model == Model.TSO:
            storage = ("tso", tuple(sorted(self.initials.items())),
                       tuple((c, ()) for c in self.cores))
        else:
            storage = ("rx", ())
        objst = tuple(sorted(self.obj.shared.items())) if self.mode == "spec" else None
        return EngineState(threads, MACHINE_EMPTY, storage, objst, ())

    # reads

    def read(self, storage, core, var) -> int:
        kind = storage[0]
        if kind == "sc":
            return _tget(storage[1], var)
        if kind == "tso":
            buf = _tget(storage[2], core, ())
            for e in reversed(buf):
                if e.var == var and e.kind != "virt":
                    return e.val
            return _tget(storage[1], var)
        entry = _tget(storage[1], var)
        if entry is None:
            return self.initials[var]
        recs, posv = entry
        pos = posv[self.rank[core]]
        return recs[pos][0] if pos >= 0 else self.initials[var]

    def coherence_latest(self, storage, var) -> int:
        entry = _tget(storage[1], var)
        return entry[0][-1][0] if entry else self.initials[var]

    # writes

    def tso_push(self, storage, core, entry: Entry):
        bufs = storage[2]
        buf = _tget(bufs, core, ())
        return ("tso", storage[1], _tset(bufs, core, buf + (entry,)))

    def tso_room(self, storage, core) -> bool:
        return len(_tget(storage[2], core, ())) < self.cfg.buffer

    def intern(self, x) -> int:
        code = self.codes.get(x)
        if code is None:
            code = self.codes[x] = len(self.decode)
            self.decode.append(x)
        return code

    def rx_issue(self, storage, core, var, val, kind, carrier, obs):
        recs, posv = _tget(storage[1], var, ((), self.unseen))
        pos = len(recs)
        k = self.rank[core]
        bit = 1 << k
        old = posv[k]
        # the issuing core supersedes the records it never received
        recs = recs[:old + 1] + tuple(
            (v, c, kd, ca, cov | bit, ob, em)
            for v, c, kd, ca, cov, ob, em in recs[old + 1:])
        rec = (val, k, kind, self.intern(carrier), bit, self.intern(obs), False)
        posv = posv[:k] + (pos,) + posv[k + 1:]
        return ("rx", _tset(storage[1], var, (recs + (rec,), posv))), (var, pos)

    def rx_tas_write(self, storage, var, val, core, carrier):
        recs, posv = _tget(storage[1], var, ((), self.unseen))
        pos = len(recs)
        newrecs = []
        for i, (v, c, kd, ca, cov, ob, em) in enumerate(recs):
            for k, p in enumerate(posv):
                if p < i:
                    cov |= 1 << k
            newrecs.append((v, c, kd, ca, cov, ob, em))
        rec = (val, self.rank[core], "obj", self.intern(carrier), self.full, 0,
               False)
        entry = (tuple(newrecs) + (rec,), (pos,) * len(self.cores))
        return ("rx", _tset(storage[1], var, entry)), (var, pos)

    def rx_all_covered(self, storage, core, prog_only: bool) -> bool:
        k = self.rank[core]
        full = self.full
        for _, (recs, _) in storage[1]:
            for _, c, kind, _, cov, _, _ in recs:
                if c == k and cov != full and (not prog_only or kind == "prog"):
                    return False
        return True

    # gates

    def inv_allowed(self, st: EngineState, thread: str) -> bool:
        core = self.coremap[thread]
        if self.cfg.model == Model.TSO:
            buf = _tget(st.storage[2], core, ())
            if any(e.kind == "prog" for e in buf):
                return False
        if self.mode == "spec":
            if self.cfg.model == Model.RELAXED:
                if not self.rx_all_covered(st.storage, core, prog_only=True):
                    return False
            for th2, ts2 in st.threads:
                if ts2.call is not None and self.coremap[th2] != core:
                    return False
            if any(c != core for (_, _, c) in st.book):
                return False
        return True

    # actions

    def actions(self, st: EngineState) -> List[Tuple[tuple, EngineState]]:
        out: List[Tuple[tuple, EngineState]] = []
        for th, ts in st.threads:
            if ts.call is None:
                a = self.client_action(st, th, ts)
                if a is not None:
                    out.append(a)
            else:
                out.extend(self.call_actions(st, th, ts))
        out.extend(self.storage_actions(st))
        for j, (opid, outv, core) in enumerate(st.book):
            st2 = st._replace(book=st.book[:j] + st.book[j + 1:])
            out.append(((OpObs(opid, outv),), st2))
        for burst, _ in out:
            for e in burst:
                if e not in self.universe:
                    raise AssertionError(f"event outside the program universe: {e}")
        return out

    def client_action(self, st, th, ts):
        if not ts.frames:
            return None
        core = self.coremap[th]

        def look(name):
            v = _tget(ts.regs, name)
            if v is not None or any(k == name for k, _ in ts.regs):
                return v
            return self.read(st.storage, core, name)

        top = ts.frames[-1]
        if top[0] == "l":
            _, w, k = top
            if k == 0:
                return None
            lab = label_of(w)
            inst, labels2 = _bump(ts.labels, lab)
            sid = StepId(th, lab, inst)
            if eval_cond(w.cond, look, self.cfg.values):
                frames2 = ts.frames[:-1] + (("l", w, k - 1), ("s", w.body, 0))
            else:
                frames2 = ts.frames[:-1]
            ts2 = ts._replace(frames=_norm_frames(frames2), labels=labels2)
            return ((ProgStep(sid),), self._set_thread(st, th, ts2))

        _, stmts, i = top
        s = stmts[i]
        adv = _norm_frames(ts.frames[:-1] + (("s", stmts, i + 1),))

        if isinstance(s, While):
            frames2 = ts.frames[:-1] + (("s", stmts, i + 1), ("l", s, self.cfg.unroll))
            ts2 = ts._replace(frames=frames2)
            return self.client_action(self._set_thread(st, th, ts2), th, ts2)
        if isinstance(s, Assign):
            lab = label_of(s)
            v = eval_expr(s.expr, look, self.cfg.values)
            inst, labels2 = _bump(ts.labels, lab)
            sid = StepId(th, lab, inst)
            if s.target not in self.p.globals:
                ts2 = ts._replace(frames=adv, regs=_tset(ts.regs, s.target, v),
                                  labels=labels2)
                return ((ProgStep(sid),), self._set_thread(st, th, ts2))
            ts2 = ts._replace(frames=adv, labels=labels2)
            step = ProgStep(sid, (s.target, v))
            obs = ProgObs(sid, s.target, v)
            if self.cfg.model == Model.SC:
                storage2 = ("sc", _tset(st.storage[1], s.target, v))
                return ((step, obs),
                        self._set_thread(st, th, ts2)._replace(storage=storage2))
            if self.cfg.model == Model.TSO:
                if not self.tso_room(st.storage, core):
                    return None
                storage2 = self.tso_push(st.storage, core,
                                         Entry(s.target, v, "prog", sid, obs))
                return ((step,),
                        self._set_thread(st, th, ts2)._replace(storage=storage2))
            storage2, _ = self.rx_issue(st.storage, core, s.target, v,
                                        "prog", sid, obs)
            return ((step,),
                    self._set_thread(st, th, ts2)._replace(storage=storage2))
        if isinstance(s, Await):
            if not eval_cond(s.cond, look, self.cfg.values):
                return None
            lab = label_of(s)
            inst, labels2 = _bump(ts.labels, lab)
            ts2 = ts._replace(frames=adv, labels=labels2)
            return ((ProgStep(StepId(th, lab, inst)),),
                    self._set_thread(st, th, ts2))
        if isinstance(s, If):
            lab = label_of(s)
            inst, labels2 = _bump(ts.labels, lab)
            branch = s.then if eval_cond(s.cond, look, self.cfg.values) else s.orelse
            frames2 = _norm_frames(ts.frames[:-1] + (("s", stmts, i + 1),
                                                     ("s", branch, 0)))
            ts2 = ts._replace(frames=frames2, labels=labels2)
            return ((ProgStep(StepId(th, lab, inst)),),
                    self._set_thread(st, th, ts2))
        if isinstance(s, Fence):
            if self.cfg.model == Model.TSO:
                if _tget(st.storage[2], core, ()):
                    return None
            elif self.cfg.model == Model.RELAXED:
                if not self.rx_all_covered(st.storage, core, prog_only=False):
                    return None
            lab = label_of(s)
            inst, labels2 = _bump(ts.labels, lab)
            ts2 = ts._replace(frames=adv, labels=labels2)
            return ((ProgStep(StepId(th, lab, inst)),),
                    self._set_thread(st, th, ts2))
        if isinstance(s, Call):
            if not self.inv_allowed(st, th):
                return None
            opid = OpId(th, s.op, ts.calls)
            arg = s.arg.value % (self.cfg.values + 1) if isinstance(s.arg, Lit) else None
            machine2 = st.machine
            if self.mode == "impl":
                slot = ("impl", opid, s.result, None)
                machine2 = machine_start(st.machine, th, opid,
                                         self.obj.ops[s.op], arg, s.result)
            elif self.mode == "spec":
                slot = ("spec", opid, arg, s.result)
            else:
                slot = ("chaos", opid, s.result)
            ts2 = ts._replace(frames=adv, calls=ts.calls + 1, call=slot)
            st2 = self._set_thread(st, th, ts2)._replace(machine=machine2)
            return ((Inv(opid, arg),), st2)
        raise TypeError(f"unexpected client statement: {s}")

    def call_actions(self, st, th, ts):
        if ts.call[0] == "impl":
            a = self.impl_call_action(st, th, ts)
            return [a] if a is not None else []
        if ts.call[0] == "spec":
            a = self.spec_call_action(st, th, ts)
            return [a] if a is not None else []
        return self.chaos_call_actions(st, th, ts)

    def impl_call_action(self, st, th, ts):
        _, opid, ret_reg, last = ts.call
        core = self.coremap[th]
        peek = machine_peek(st.machine, th)
        if peek[0] in ("none", "stuck"):
            return None
        model = self.cfg.model
        if peek[0] in ("tas", "fence"):
            if model == Model.TSO and _tget(st.storage[2], core, ()):
                return None
            if model == Model.RELAXED and not self.rx_all_covered(
                    st.storage, core, prog_only=False):
                return None
            view = ((lambda v: self.coherence_latest(st.storage, v))
                    if model == Model.RELAXED
                    else (lambda v: self.read(st.storage, core, v)))
        else:
            view = lambda v: self.read(st.storage, core, v)
        r = impl_step(st.machine, th, self.obj, view, self.cfg.values,
                      self.cfg.unroll)
        if r is None:
            return None
        machine2, eff = r
        storage2 = st.storage
        ts2 = ts
        burst: tuple = ()
        if isinstance(eff, Internal):
            pass
        elif isinstance(eff, Store):
            if model == Model.SC:
                storage2 = ("sc", _tset(st.storage[1], eff.var, eff.value))
            elif model == Model.TSO:
                if not self.tso_room(st.storage, core):
                    return None
                storage2 = self.tso_push(st.storage, core,
                                         Entry(eff.var, eff.value, "obj", opid, None))
                ts2 = ts._replace(call=("impl", opid, ret_reg, ("buf",)))
            else:
                storage2, ref = self.rx_issue(st.storage, core, eff.var,
                                              eff.value, "obj", opid, None)
                ts2 = ts._replace(call=("impl", opid, ret_reg, ref))
        elif isinstance(eff, TasDone):
            if eff.store is not None:
                if model == Model.SC:
                    storage2 = ("sc", _tset(st.storage[1], eff.var, eff.store))
                elif model == Model.TSO:
                    # buffer is empty here; write through
                    storage2 = ("tso", _tset(st.storage[1], eff.var, eff.store),
                                st.storage[2])
                    ts2 = ts._replace(call=("impl", opid, ret_reg, None))
                else:
                    storage2, ref = self.rx_tas_write(st.storage, eff.var,
                                                      eff.store, core, opid)
                    ts2 = ts._replace(call=("impl", opid, ret_reg, ref))
        elif isinstance(eff, Ret):
            burst = (Res(opid, eff.out),)
            regs2 = ts.regs
            if ret_reg is not None and eff.out is not None:
                regs2 = _tset(ts.regs, ret_reg, eff.out)
            obs = OpObs(opid, eff.out)
            if model == Model.SC:
                burst = (Res(opid, eff.out), obs)
            elif model == Model.TSO:
                buf = _tget(st.storage[2], core, ())
                marked = None
                for j in range(len(buf) - 1, -1, -1):
                    if buf[j].kind == "obj" and buf[j].carrier == opid:
                        marked = j
                        break
                if marked is None:
                    burst = (Res(opid, eff.out), obs)
                else:
                    buf2 = buf[:marked] + (buf[marked]._replace(obs=obs),) + buf[marked + 1:]
                    storage2 = ("tso", st.storage[1],
                                _tset(st.storage[2], core, buf2))
            else:
                if last is None:
                    burst = (Res(opid, eff.out), obs)
                else:
                    var, pos = last
                    recs, posv = _tget(st.storage[1], var)
                    rec = recs[pos]
                    if rec[4] == self.full:
                        burst = (Res(opid, eff.out), obs)
                    else:
                        rec2 = rec[:5] + (self.intern(obs),) + rec[6:]
                        recs2 = recs[:pos] + (rec2,) + recs[pos + 1:]
                        storage2 = ("rx", _tset(st.storage[1], var,
                                                (recs2, posv)))
            ts2 = ts._replace(regs=regs2, call=None)
        st2 = self._set_thread(st, th, ts2)._replace(machine=machine2,
                                                     storage=storage2)
        return (burst, st2)

    def spec_call_action(self, st, th, ts):
        _, opid, arg, ret_reg = ts.call
        r = run_spec_body(self.obj.ops[opid.call], dict(st.objst), arg,
                          self.cfg.values)
        if r is None:
            return None
        valuation, outv = r
        regs2 = ts.regs
        if ret_reg is not None and outv is not None:
            regs2 = _tset(ts.regs, ret_reg, outv)
        ts2 = ts._replace(regs=regs2, call=None)
        st2 = self._set_thread(st, th, ts2)._replace(
            objst=tuple(sorted(valuation.items())))
        if opid.call in self.covert:
            return ((Res(opid, outv), OpObs(opid, outv)), st2)
        core = self.coremap[th]
        return ((Res(opid, outv),),
                st2._replace(book=st2.book + ((opid, outv, core),)))

    def chaos_call_actions(self, st, th, ts):
        _, opid, ret_reg = ts.call
        core = self.coremap[th]
        out_actions = []
        for outv in sorted(self.chaosouts[opid.call],
                           key=lambda v: (v is None, v)):
            regs2 = ts.regs
            if ret_reg is not None and outv is not None:
                regs2 = _tset(ts.regs, ret_reg, outv)
            ts2 = ts._replace(regs=regs2, call=None)
            st2 = self._set_thread(st, th, ts2)
            obs = OpObs(opid, outv)
            if opid.call in self.covert or self.cfg.model == Model.SC:
                out_actions.append(((Res(opid, outv), obs), st2))
            elif self.cfg.model == Model.TSO:
                if not self.tso_room(st.storage, core):
                    continue
                storage2 = self.tso_push(st2.storage, core,
                                         Entry("", 0, "virt", opid, obs))
                out_actions.append(((Res(opid, outv),),
                                    st2._replace(storage=storage2)))
            else:
                vvar = f"#{opid.thread}.{opid.call}.{opid.instance}"
                storage2, _ = self.rx_issue(st2.storage, core, vvar, 0,
                                            "virt", opid, obs)
                out_actions.append(((Res(opid, outv),),
                                    st2._replace(storage=storage2)))
        return out_actions

    def storage_actions(self, st):
        out = []
        if self.cfg.model == Model.TSO:
            for core, buf in st.storage[2]:
                if not buf:
                    continue
                head, rest = buf[0], buf[1:]
                mem2 = (st.storage[1] if head.kind == "virt"
                        else _tset(st.storage[1], head.var, head.val))
                storage2 = ("tso", mem2, _tset(st.storage[2], core, rest))
                burst = (head.obs,) if head.obs is not None else ()
                out.append((burst, st._replace(storage=storage2)))
        elif self.cfg.model == Model.RELAXED:
            threads, machine, _, objst, book = st
            full = self.full
            ranks = range(len(self.cores))
            entries = st.storage[1]
            for i, (var, (recs, posv)) in enumerate(entries):
                head, tail = entries[:i], entries[i + 1:]
                for pos, (v, c, kd, ca, cov, ob, em) in enumerate(recs):
                    if cov == full and (not ob or em):
                        continue
                    before, after = recs[:pos], recs[pos + 1:]
                    if cov == full:  # every core has it: emit its observation
                        recs2 = before + ((v, c, kd, ca, cov, ob, True),) + after
                        storage2 = ("rx", head + ((var, (recs2, posv)),) + tail)
                        out.append(((self.decode[ob],),
                                    EngineState(threads, machine, storage2,
                                                objst, book)))
                        continue
                    for k in ranks:  # propagate to each core next in line
                        if cov >> k & 1 or posv[k] != pos - 1:
                            continue
                        rec2 = (v, c, kd, ca, cov | 1 << k, ob, em)
                        posv2 = posv[:k] + (pos,) + posv[k + 1:]
                        entry = (before + (rec2,) + after, posv2)
                        storage2 = ("rx", head + ((var, entry),) + tail)
                        out.append(((), EngineState(threads, machine, storage2,
                                                    objst, book)))
        return out

    def _set_thread(self, st: EngineState, th: str, ts: ThreadState) -> EngineState:
        threads = tuple((t, (ts if t == th else x)) for t, x in st.threads)
        return st._replace(threads=threads)


# --- trace sets ---

@dataclass
class TraceSet:
    """Prefix-closed set of traces, represented by the exploration graph.

    Traces are exactly: every prefix of every event sequence along every
    path from the root, including cuts inside a single action's burst.

    States are int ids, numbered 0..n-1 in the order the build first
    generated them: `root` is 0 and `graph` maps each id to its edges,
    a tuple of (burst, successor id)."""
    root: int
    graph: Dict[int, tuple]
    universe: frozenset
    _topo: Optional[list] = field(default=None, repr=False)
    _obs: Optional[frozenset] = field(default=None, repr=False)

    @property
    def states(self) -> int:
        return len(self.graph)

    def topo(self) -> list:
        """States in a root-first topological order."""
        if self._topo is not None:
            return self._topo
        graph = self.graph
        order, seen = [], {self.root}
        stack = [(self.root, iter(graph[self.root]))]
        while stack:
            node, it = stack[-1]
            for _, nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(graph[nxt])))
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
        trace = tuple(trace)
        end = len(trace)
        seen = {(self.root, 0)}
        stack = [(self.root, 0)]
        while stack:
            s, k = stack.pop()
            if k == end:
                return True
            for burst, s2 in self.graph[s]:
                n = len(burst)
                if trace[k:k + n] == burst:
                    if (s2, k + n) not in seen:
                        seen.add((s2, k + n))
                        stack.append((s2, k + n))
                elif end - k < n and burst[:end - k] == trace[k:]:
                    return True
        return False

    def observables(self) -> frozenset:
        """All observable behaviours (sequences of program observations)."""
        if self._obs is not None:
            return self._obs
        suffix: Dict[int, frozenset] = {}
        for s in reversed(self.topo()):
            acc = {()}
            for burst, s2 in self.graph[s]:
                po = tuple((e.step.thread, e.var, e.value) for e in burst
                           if isinstance(e, ProgObs))
                for j in range(1, len(po) + 1):
                    acc.add(po[:j])
                for t in suffix[s2]:
                    acc.add(po + t)
            suffix[s] = frozenset(acc)
        self._obs = suffix[self.root]
        return self._obs

    def materialize(self, max_traces: int = 200_000) -> frozenset:
        """The explicit trace set; refuses to build oversized ones."""
        suffix: Dict[int, frozenset] = {}
        for s in reversed(self.topo()):
            acc = {()}
            for burst, s2 in self.graph[s]:
                for j in range(1, len(burst)):
                    acc.add(burst[:j])
                for t in suffix[s2]:
                    acc.add(burst + t)
            if len(acc) > max_traces:
                raise ValueError("trace set too large to materialize")
            suffix[s] = frozenset(acc)
        return suffix[self.root]

    def sample(self, n: int, seed: int = 0) -> List[Trace]:
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            s, events = self.root, []
            while True:
                acts = self.graph[s]
                if not acts or rng.random() < 0.15:
                    break
                burst, s2 = acts[rng.randrange(len(acts))]
                events.extend(burst)
                s = s2
            if events and rng.random() < 0.3:
                events = events[:rng.randrange(len(events)) + 1]
            out.append(tuple(events))
        return out

    def empirical_pairs(self) -> frozenset:
        """(a, b) iff b occurs and a precedes b in every trace where b
        occurs; computed as a meet over paths through the graph.

        Event sets are int bitmasks: bit k stands for the k-th distinct
        event met, `reach[s]` holds the events on every path to state s
        and `before[k]` those before event k on every path reaching it."""
        events: List[Event] = []
        index: Dict[Event, int] = {}
        coded: Dict[tuple, tuple] = {}  # burst -> its events' bit numbers
        before: Dict[int, int] = {}
        reach: Dict[int, int] = {self.root: 0}
        for s in self.topo():
            base = reach[s]
            for burst, s2 in self.graph[s]:
                here = base
                if burst:
                    bits = coded.get(burst)
                    if bits is None:
                        for e in burst:
                            if e not in index:
                                index[e] = len(events)
                                events.append(e)
                        bits = coded[burst] = tuple(index[e] for e in burst)
                    for k in bits:
                        prior = before.get(k)
                        before[k] = here if prior is None else prior & here
                        here |= 1 << k
                prior = reach.get(s2)
                reach[s2] = here if prior is None else prior & here
        pairs = set()
        for k, mask in before.items():
            b = events[k]
            mask &= ~(1 << k)
            while mask:
                low = mask & -mask
                pairs.add((events[low.bit_length() - 1], b))
                mask ^= low
        return frozenset(pairs)


# --- public entry points ---

def _build(p: ClientProgram, obj: ObjectDef, cfg: ExploreConfig,
           mode: str) -> TraceSet:
    errors = validate(p, obj)
    if errors:
        raise ValueError("; ".join(errors))
    eng = _Engine(p, obj, cfg, mode)
    # Each state is hashed once per edge that reaches it, here; the graph
    # and every pass over it work on the int ids.
    root = eng.root()
    ids: Dict[EngineState, int] = {root: 0}
    graph: Dict[int, tuple] = {}
    stack = [(0, root)]
    while stack:
        i, s = stack.pop()
        edges = []
        for burst, s2 in eng.actions(s):
            n = len(ids)
            j = ids.setdefault(s2, n)
            if j == n:
                stack.append((j, s2))
            edges.append((burst, j))
        graph[i] = tuple(edges)
    return TraceSet(0, graph, eng.universe)


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
    value, TAS-fed registers to {0,1}, anything else to the domain."""
    tas_regs = {s.result for s in _all_stmts(op.body) if isinstance(s, Tas)}
    outs = set()
    has_value = False
    bare = False
    for s in _all_stmts(op.body):
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


# --- independent SC oracle ---

def oracle_sc(p: ClientProgram, cfg: ExploreConfig) -> frozenset:
    """Brute-force SC trace enumeration for straight-line, call-free
    clients.  Written against the observation rules directly, with no
    use of the exploration engine."""
    seqs = {}
    for th, stmts in p.threads.items():
        for s in stmts:
            if not isinstance(s, Assign):
                raise ValueError("the oracle only handles assignment-only clients")
        seqs[th] = stmts
    threads = sorted(seqs)
    traces = set()

    def rec(pos, mem, regs, trace):
        traces.add(tuple(trace))
        for th in threads:
            i = pos[th]
            if i >= len(seqs[th]):
                continue
            s = seqs[th][i]
            labels = [label_of(x) for x in seqs[th][:i] if isinstance(x, Assign)]
            inst = labels.count(label_of(s))
            sid = StepId(th, label_of(s), inst)

            def look(name, th=th):
                if name in regs[th]:
                    return regs[th][name]
                return mem[name]

            v = eval_expr(s.expr, look, cfg.values)
            pos2 = dict(pos)
            pos2[th] = i + 1
            if s.target in p.globals:
                step = ProgStep(sid, (s.target, v))
                traces.add(tuple(trace) + (step,))  # cut before the observation
                mem2 = dict(mem)
                mem2[s.target] = v
                rec(pos2, mem2, regs,
                    trace + [step, ProgObs(sid, s.target, v)])
            else:
                regs2 = {t: dict(r) for t, r in regs.items()}
                regs2[th][s.target] = v
                rec(pos2, mem, regs2, trace + [ProgStep(sid)])

    rec({th: 0 for th in threads}, dict(p.globals),
        {th: {} for th in threads}, [])
    return frozenset(traces)
