"""Object semantics.

Two views of the same interface, both running an operation's compiled
code through `program.step`: specification objects execute each
operation body atomically against a logical valuation, implementation
objects run instruction by instruction.  An invocation of an
implementation operation is one immutable frame: where its code stands
(pc and loop counters) and its registers.  The engine keeps each
thread's frame with the thread's state, steps it through
`program.step` with loads that go through the memory model, and settles
a frame's pc only when it next steps, so a finished block stays where
it ended until then.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .events import OpId
from .program import (
    RETURN, STORE, Assign, ObjectDef, OpDef, Tas, _all_stmts, step,
)

Value = Optional[int]


# --- atomic specification execution ---

def run_spec_body(op: OpDef, valuation: dict, arg: Value, values: int = 3):
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


def writes_shared(op: OpDef, obj: ObjectDef) -> bool:
    for s in _all_stmts(op.body):
        if isinstance(s, Assign) and s.target in obj.shared:
            return True
        if isinstance(s, Tas):
            return True
    return False


# --- implementation machine ---

class OpFrame(NamedTuple):
    """One invocation of an implementation operation: its id, the
    register its output goes to, and where its code stands."""
    opid: OpId
    ret_reg: Optional[str]
    pc: int       # not settled: it may stand on a finished block's end
    ctrs: tuple   # loop budgets, innermost last
    regs: tuple   # sorted (name, value) pairs


def start_frame(opid: OpId, op: OpDef, arg: Value,
                ret_reg: Optional[str]) -> OpFrame:
    """The frame of a fresh invocation of `op`, before its first step."""
    regs = ((op.param, arg),) if op.param is not None else ()
    return OpFrame(opid, ret_reg, 1, (), regs)
