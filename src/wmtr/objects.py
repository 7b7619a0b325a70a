"""Object semantics.

Two views of the same interface: specification objects execute each
operation body atomically against a logical valuation, implementation
objects run instruction by instruction.  An invocation of an
implementation operation is one immutable frame (its control stack and
registers); `impl_step` is a pure function of that frame that returns
the next frame and the instruction's memory effect, handed back to the
caller (shared reads go through a supplied view function, so the
surrounding memory model decides what a load returns and where a store
lands).  The caller keeps each thread's frame with the thread's state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import OpId
from .program import (
    Assign, Await, Fence, If, ObjectDef, OpDef, Return, Tas, While,
    eval_cond, eval_expr,
)

Value = Optional[int]


# --- atomic specification execution ---

class _Blocked(Exception):
    pass


def _run_atomic(stmts, state: dict, regs: dict, shared: frozenset, values: int):
    """One pass over a spec body; returns ("ret", out) or None."""

    def lookup(name):
        if name in regs:
            return regs[name]
        return state[name]

    for s in stmts:
        if isinstance(s, Assign):
            v = eval_expr(s.expr, lookup, values)
            if s.target in shared:
                state[s.target] = v
            else:
                regs[s.target] = v
        elif isinstance(s, Await):
            if not eval_cond(s.cond, lookup, values):
                raise _Blocked
        elif isinstance(s, If):
            branch = s.then if eval_cond(s.cond, lookup, values) else s.orelse
            r = _run_atomic(branch, state, regs, shared, values)
            if r is not None:
                return r
        elif isinstance(s, Return):
            out = eval_expr(s.expr, lookup, values) if s.expr is not None else None
            return ("ret", out)
        elif isinstance(s, Fence):
            pass
        else:
            raise ValueError(f"statement not allowed in a specification body: {s}")
    return None


def run_spec_body(op: OpDef, valuation: dict, arg: Value, values: int = 3):
    """Atomically execute `op` against `valuation`.  Returns the updated
    valuation and the output, or None when a guard blocks."""
    state = dict(valuation)
    regs = {op.param: arg} if op.param is not None else {}
    try:
        r = _run_atomic(op.body, state, regs, frozenset(valuation), values)
    except _Blocked:
        return None
    return state, (r[1] if r is not None else None)


def writes_shared(op: OpDef, obj: ObjectDef) -> bool:
    from .program import _all_stmts
    for s in _all_stmts(op.body):
        if isinstance(s, Assign) and s.target in obj.shared:
            return True
        if isinstance(s, Tas):
            return True
    return False


# --- implementation machine ---

@dataclass(frozen=True)
class Internal:
    pass


@dataclass(frozen=True)
class Fenced:
    pass


@dataclass(frozen=True)
class Store:
    var: str
    value: int


@dataclass(frozen=True)
class TasDone:
    var: str
    result: int
    store: Optional[int]  # value written on success, None on failure


@dataclass(frozen=True)
class Ret:
    out: Value


@dataclass(frozen=True)
class OpFrame:
    """One invocation's control stack and registers.  Its hash is taken
    once, when it is made: the stack points into the operation's syntax
    tree, which hashes recursively, and a caller that keeps the frame in
    hashed state hashes it again whenever anything else in that state
    changes."""
    opid: OpId
    opname: str
    ret_reg: Optional[str]
    frames: tuple
    regs: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.opid, self.opname, self.ret_reg, self.frames, self.regs)))

    def __hash__(self):
        return self._hash


def start_frame(opid: OpId, op: OpDef, arg: Value,
                ret_reg: Optional[str]) -> OpFrame:
    """The frame of a fresh invocation of `op`, before its first step."""
    regs = ((op.param, arg),) if op.param is not None else ()
    return OpFrame(opid, op.name, ret_reg, (("s", op.body, 0),), regs)


def impl_step(f: OpFrame, obj: ObjectDef, view, values: int = 3, unroll: int = 2):
    """Execute the next instruction of the invocation in frame `f`.
    `view` maps a shared variable to the value this load returns (for
    TAS, the caller must pass the authoritative view).  Returns
    (frame', effect), frame' being None once the invocation returned, or
    None when blocked or stuck.  A TAS or fence needs the issuing core
    drained first; its effect is a TasDone or Fenced."""
    regs = dict(f.regs)

    def lookup(name):
        if name in regs:
            return regs[name]
        if name in obj.shared:
            return view(name)
        raise KeyError(f"unknown name {name!r} in op {f.opname}")

    def done(frames, effect, regs=None):
        regs = f.regs if regs is None else tuple(sorted(regs.items()))
        return OpFrame(f.opid, f.opname, f.ret_reg, tuple(frames), regs), effect

    frames = list(f.frames)
    while frames and frames[-1][0] == "s" and frames[-1][2] == len(frames[-1][1]):
        frames.pop()
    if not frames:
        return None, Ret(None)
    top = frames[-1]

    if top[0] == "l":
        _, w, k = top
        if k == 0:
            return None  # stuck for good
        if eval_cond(w.cond, lookup, values):
            frames[-1] = ("l", w, k - 1)
            frames.append(("s", w.body, 0))
        else:
            frames.pop()
        return done(frames, Internal())

    _, stmts, i = top
    s = stmts[i]
    advanced = frames[:-1] + [("s", stmts, i + 1)]

    if isinstance(s, While):
        if unroll == 0:
            return None
        nf = advanced + [("l", s, unroll)]
        if eval_cond(s.cond, lookup, values):
            nf[-1] = ("l", s, unroll - 1)
            nf.append(("s", s.body, 0))
        else:
            nf.pop()
        return done(nf, Internal())
    if isinstance(s, Assign):
        v = eval_expr(s.expr, lookup, values)
        if s.target in obj.shared:
            return done(advanced, Store(s.target, v))
        regs[s.target] = v
        return done(advanced, Internal(), regs)
    if isinstance(s, Await):
        if not eval_cond(s.cond, lookup, values):
            return None
        return done(advanced, Internal())
    if isinstance(s, If):
        branch = s.then if eval_cond(s.cond, lookup, values) else s.orelse
        return done(advanced + [("s", branch, 0)], Internal())
    if isinstance(s, Fence):
        return done(advanced, Fenced())
    if isinstance(s, Return):
        out = eval_expr(s.expr, lookup, values) if s.expr is not None else None
        return None, Ret(out)
    if isinstance(s, Tas):
        value = view(s.var)
        success = value == s.test % (values + 1)
        regs[s.result] = 1 if success else 0
        swap = s.swap % (values + 1) if success else None
        return done(advanced, TasDone(s.var, 1 if success else 0, swap), regs)
    raise TypeError(f"unexpected statement in op body: {s}")
