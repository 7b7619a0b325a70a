"""Hand-built reference traces shared across the test modules, random
clients more than one module draws, the wellformedness check of traces,
and readers and views of the library's formats that only tests use.

Both traces were written out event by event from the intended machine
behaviour and serve as ground truth: wellformedness, projections,
observable extraction, and (later) containment in the exploration
engine's output are all checked against them.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from hypothesis import settings
from hypothesis import strategies as st

from wmtr.events import (
    Event, History, Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId, Trace,
    is_object_event,
)
from wmtr.memmodel import chaos_outputs
from wmtr.porder import EnforcedOrder
from wmtr.program import parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# `--hypothesis-profile=ci`: a failing property also prints the
# `@reproduce_failure` blob that replays it; example counts and deadlines
# stay as each test sets them
settings.register_profile("ci", print_blob=True)


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


# client/object pairs whose enforced orders the ordering laws are checked on
ORDER_PAIRS = [
    ("fig2_client.wm", "fig2_object.wm"),
    ("fig4_client.wm", "spinlock_impl.wm"),
    ("fig5_client.wm", "spinlock_impl.wm"),
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"),
    ("fig6_client.wm", "spinlock_impl.wm"),
]


# --- wellformedness of traces and the readers of event JSON ---

@dataclass(frozen=True, slots=True)
class WfVerdict:
    ok: bool
    index: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


WF_OK = WfVerdict(True)


def check_wellformed(t: Sequence[Event]) -> WfVerdict:
    """Single pass over the trace; reports the first offending index."""
    inv_seen: dict = {}
    res_seen: dict = {}
    obs_seen: set = set()
    step_seen: dict = {}
    sobs_seen: set = set()
    for i, e in enumerate(t):
        if isinstance(e, ProgStep):
            if e.step in step_seen:
                return WfVerdict(False, i, "duplicate program step")
            step_seen[e.step] = e.write
        elif isinstance(e, ProgObs):
            if e.step not in step_seen:
                return WfVerdict(False, i, "observation without step")
            if e.step in sobs_seen:
                return WfVerdict(False, i, "duplicate step observation")
            w = step_seen[e.step]
            if w is None:
                return WfVerdict(False, i, "observation of a non-writing step")
            if w != (e.var, e.value):
                return WfVerdict(False, i, "observation differs from the write")
            sobs_seen.add(e.step)
        elif isinstance(e, Inv):
            if e.op in inv_seen:
                return WfVerdict(False, i, "duplicate invocation")
            inv_seen[e.op] = e.arg
        elif isinstance(e, Res):
            if e.op not in inv_seen:
                return WfVerdict(False, i, "response without invocation")
            if e.op in res_seen:
                return WfVerdict(False, i, "duplicate response")
            res_seen[e.op] = e.out
        elif isinstance(e, OpObs):
            if e.op not in res_seen:
                return WfVerdict(False, i, "observation without response")
            if e.op in obs_seen:
                return WfVerdict(False, i, "duplicate operation observation")
            if res_seen[e.op] != e.out:
                return WfVerdict(False, i, "observation value differs from response")
            obs_seen.add(e.op)
        else:
            return WfVerdict(False, i, "unknown event kind")
    return WF_OK


def event_from_record(d: dict) -> Event:
    kind = d["kind"]
    if kind == "step":
        sid = StepId(d["thread"], d["label"], d["instance"])
        if d.get("var") is None:
            return ProgStep(sid, None)
        return ProgStep(sid, (d["var"], d["value"]))
    if kind == "obs-step":
        return ProgObs(StepId(d["thread"], d["label"], d["instance"]),
                       d["var"], d["value"])
    if kind == "inv":
        return Inv(OpId(d["thread"], d["op"], d["instance"]), d["value"])
    if kind == "res":
        return Res(OpId(d["thread"], d["op"], d["instance"]), d["value"])
    if kind == "obs-op":
        return OpObs(OpId(d["thread"], d["op"], d["instance"]), d["value"])
    raise ValueError(f"unknown event kind {kind!r}")


def event_from_json(line: str) -> Event:
    return event_from_record(json.loads(line))


# --- test-only readers and views of traces and orders ---

def trace_from_lines(text: str) -> Trace:
    return tuple(event_from_json(ln) for ln in text.splitlines() if ln.strip())


def order_from_lines(text: str) -> EnforcedOrder:
    universe, pairs = set(), set()
    for ln in text.splitlines():
        if not ln.strip():
            continue
        d = json.loads(ln)
        if "node" in d:
            universe.add(event_from_record(d["node"]))
        else:
            a, b = d["edge"]
            pairs.add((event_from_record(a), event_from_record(b)))
    return EnforcedOrder(frozenset(universe), frozenset(pairs))


def order_of(t: Sequence[Event]):
    """Event set of t and its strict total order (all index-ordered pairs)."""
    v = check_wellformed(t)
    if not v:
        raise ValueError(f"ill-formed trace at index {v.index}: {v.reason}")
    pairs = set()
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            pairs.add((t[i], t[j]))
    return frozenset(t), frozenset(pairs)


def project_object(t: Sequence[Event]) -> History:
    return tuple(e for e in t if is_object_event(e))


def writes_client(n: int) -> str:
    """One thread making `n` global writes, `x := i % 3;` for i < n."""
    body = " ".join(f"x := {i % 3};" for i in range(n))
    return f"global x = 0;\nthread T {{ {body} }}"


@st.composite
def object_clients(draw, objects=("spinlock_impl.wm", "spinlock_spec.wm",
                                  "fig2_object.wm")):
    """One of `objects`, corpus files, and a client of two threads, each
    making one or two calls of its operations, around writes and reads of
    one global and fences; the result of an operation that always
    returns a value may be written to the global."""
    obj = draw(st.sampled_from(objects))
    ops = parse(corpus_text(obj)).ops
    lines = ["global g = 0;"]
    for i in range(2):
        body = []
        for j in range(draw(st.integers(1, 2))):
            body.append(draw(st.sampled_from(["", "fence;", f"r{j} := g;",
                                              "g := 1;"])))
            op = draw(st.sampled_from(sorted(ops)))
            if None not in chaos_outputs(ops[op], 1) and draw(st.booleans()):
                body.append(f"r{j} := call {op}(); g := r{j};")
            else:
                body.append(f"call {op}();")
        lines.append(f"thread T{i} {{ {' '.join(body)} }}")
    return obj, "\n".join(lines)


@st.composite
def fenced_clients(draw, loops=False, conds=False):
    """Clients of 1-2 threads with up to three statements each: global
    writes of literals, globals or earlier-read registers, global reads
    into registers, and fences; with `loops`, also `while` loops on a
    global whose body is one write or read; with `conds`, also `await`
    and `if`/`else` (bodies one write or read) on a condition comparing
    a global with a literal, a global or an earlier-read register."""
    names = ["x", "y"]
    lines = [f"global {v} = 0;" for v in names]
    kinds = (["write", "read", "fence"] + (["loop"] if loops else [])
             + (["await", "if"] if conds else []))
    for i in range(draw(st.integers(1, 2))):
        body, regs = [], []

        def access(j, kind):
            if kind == "read":
                return f"r{j} := {draw(st.sampled_from(names))};"
            src = draw(st.sampled_from(["1", "2"] + names + regs))
            return f"{draw(st.sampled_from(names))} := {src};"

        def cond():
            left = draw(st.sampled_from(names))
            right = draw(st.sampled_from(["0", "1"] + names + regs))
            return f"{left} {draw(st.sampled_from(['=', '!=']))} {right}"

        for j in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds))
            if kind == "fence":
                body.append("fence;")
            elif kind == "loop":
                # a register read in the body may stay unbound: not in regs
                test = f"{draw(st.sampled_from(names))} != 2"
                inner = access(j, draw(st.sampled_from(["write", "read"])))
                body.append(f"while ({test}) {{ {inner} }}")
            elif kind == "await":
                body.append(f"await ({cond()});")
            elif kind == "if":
                # as in a loop, a register read in a branch is not in regs
                then, orelse = (access(j, draw(st.sampled_from(["write", "read"])))
                                for _ in range(2))
                body.append(f"if ({cond()}) {{ {then} }} else {{ {orelse} }}")
            else:
                body.append(access(j, kind))
                if kind == "read":
                    regs.append(f"r{j}")
        lines.append(f"thread T{i} {{ {' '.join(body)} }}")
    return "\n".join(lines)


@st.composite
def wellformed_traces(draw):
    """Random wellformed traces: the component events of each operation
    or step are produced in stage order and interleaved arbitrarily."""
    threads = ("T1", "T2", "T3")
    calls_per_thread = {th: 0 for th in threads}
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        th = draw(st.sampled_from(threads))
        name = draw(st.sampled_from(("A", "B", "acquire", "tryAcquire")))
        op = OpId(th, name, calls_per_thread[th])
        calls_per_thread[th] += 1
        out = draw(st.sampled_from((None, 0, 1, 2, 3)))
        stages = draw(st.integers(1, 3))
        groups.append([Inv(op), Res(op, out), OpObs(op, out)][:stages])
    for k in range(draw(st.integers(0, 4))):
        th = draw(st.sampled_from(threads))
        sid = StepId(th, f"s{k}", 0)
        write = draw(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from("xyz"), st.integers(0, 3)),
            )
        )
        g = [ProgStep(sid, write)]
        if write is not None and draw(st.booleans()):
            g.append(ProgObs(sid, write[0], write[1]))
        groups.append(g)
    trace = []
    cursors = [0] * len(groups)
    remaining = sum(len(g) for g in groups)
    while remaining:
        avail = [i for i in range(len(groups)) if cursors[i] < len(groups[i])]
        i = draw(st.sampled_from(avail))
        trace.append(groups[i][cursors[i]])
        cursors[i] += 1
        remaining -= 1
    return tuple(trace)


def tso_spinlock_witness():
    """16-event trace of the three-thread spinlock client under a
    store-buffer machine: T2 acquires and releases, its buffered writes
    flush last; T3's tryAcquire therefore still sees the lock taken."""
    acq2 = OpId("T2", "acquire", 0)
    rel2 = OpId("T2", "release", 1)
    try3 = OpId("T3", "tryAcquire", 0)
    s_yz = StepId("T2", "y:=z", 0)
    s_z1 = StepId("T1", "z:=1", 0)
    s_aw = StepId("T3", "await(z=1)", 0)
    s_w = StepId("T3", "w:=rt", 0)
    return (
        Inv(acq2),
        Res(acq2),
        OpObs(acq2),
        Inv(rel2),
        Res(rel2),
        ProgStep(s_yz, ("y", 0)),
        ProgStep(s_z1, ("z", 1)),
        ProgObs(s_z1, "z", 1),
        ProgStep(s_aw, None),
        Inv(try3),
        Res(try3, 0),
        OpObs(try3, 0),
        ProgStep(s_w, ("w", 0)),
        ProgObs(s_w, "w", 0),
        OpObs(rel2),
        ProgObs(s_yz, "y", 0),
    )


def relaxed_counter_witness():
    """16-event trace of the locked-increment client under a
    non-multi-copy-atomic machine: both threads take the lock in turn
    yet both increments read 0, because T1's write to y reaches T2's
    core only after T2's increment ran."""
    acq1, rel1 = OpId("T1", "acquire", 0), OpId("T1", "release", 1)
    acq2, rel2 = OpId("T2", "acquire", 0), OpId("T2", "release", 1)
    s1 = StepId("T1", "y:=y+1", 0)
    s2 = StepId("T2", "y:=y+1", 0)
    return (
        Inv(acq1),
        Res(acq1),
        OpObs(acq1),
        ProgStep(s1, ("y", 1)),
        Inv(rel1),
        Res(rel1),
        OpObs(rel1),
        Inv(acq2),
        Res(acq2),
        OpObs(acq2),
        ProgStep(s2, ("y", 1)),
        Inv(rel2),
        Res(rel2),
        OpObs(rel2),
        ProgObs(s1, "y", 1),
        ProgObs(s2, "y", 1),
    )
