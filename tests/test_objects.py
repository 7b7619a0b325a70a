"""Specification bodies, specification histories against the engine's
spec mode, and the implementation machine."""

import contextlib
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import event, given, settings

from conftest import (
    check_wellformed, corpus_text, object_clients, project_object,
    spec_objects,
)
from wmtr.events import Inv, OpId, OpObs, Res
from wmtr.memmodel import (
    DISCIPLINES, ExploreConfig, Model, _Impl, covert_ops, explore,
    run_spec_body, start_frame, writes_shared,
)
from wmtr.program import (
    AWAIT, FENCE, GATED, IF, LOOP, RETURN, SET, STORE, TAS,
    events_of_program, parse, settled, step,
)

from oracles import book_specs, check_atomic, materialize, spec_histories

SPEC = parse(corpus_text("spinlock_spec.wm"))
IMPL = parse(corpus_text("spinlock_impl.wm"))
IDENT3 = {"T1": "T1", "T2": "T2", "T3": "T3"}


class TestRunSpecBody:
    def test_acquire_takes_the_lock(self):
        assert run_spec_body(SPEC.ops["acquire"], {"x": 1}, None) == ({"x": 0}, None)

    def test_acquire_blocks_when_taken(self):
        assert run_spec_body(SPEC.ops["acquire"], {"x": 0}, None) is None

    def test_release(self):
        assert run_spec_body(SPEC.ops["release"], {"x": 0}, None) == ({"x": 1}, None)

    def test_try_both_branches(self):
        assert run_spec_body(SPEC.ops["tryAcquire"], {"x": 1}, None) == ({"x": 0}, 1)
        assert run_spec_body(SPEC.ops["tryAcquire"], {"x": 0}, None) == ({"x": 0}, 0)

    def test_parameter_and_wraparound(self):
        o = parse("object spec {\n  var s = 0;\n  op bump(v) {\n"
                  "    s := s + v;\n    return s;\n  }\n}")
        assert run_spec_body(o.ops["bump"], {"s": 3}, 2, values=3) == ({"s": 1}, 1)


class TestCheckAtomic:
    A = OpId("T1", "a", 0)
    B = OpId("T2", "b", 0)
    C = OpId("T1", "c", 1)

    def test_serial(self):
        h = (Inv(self.A), Res(self.A), OpObs(self.A), Inv(self.B))
        assert check_atomic(h, {"T1": "T1", "T2": "T2"})

    def test_cross_core_overlap_rejected(self):
        h = (Inv(self.A), Res(self.A), Inv(self.B))
        assert not check_atomic(h, {"T1": "T1", "T2": "T2"})

    def test_same_core_overlap_allowed(self):
        h = (Inv(self.A), Res(self.A), Inv(self.C))
        assert check_atomic(h, {"T1": "T1", "T2": "T2"})
        h2 = (Inv(self.A), Res(self.A), Inv(self.B))
        assert check_atomic(h2, {"T1": "c0", "T2": "c0"})


def fig5_universe():
    return events_of_program(parse(corpus_text("fig5_client.wm")), SPEC)


class TestSpecHistories:
    def test_single_acquire(self):
        p = parse("thread T {\n  call acquire();\n}")
        k = OpId("T", "acquire", 0)
        hs = spec_histories(SPEC, events_of_program(p, SPEC), {"T": "T"})
        assert hs == frozenset({(), (Inv(k),), (Inv(k), Res(k, None)),
                                (Inv(k), Res(k, None), OpObs(k, None))})

    def test_blocked_guard_yields_pending_history(self):
        spec0 = parse("object spec {\n  var x = 0;\n  op acquire() {\n"
                      "    await (x = 1);\n    x := 0;\n  }\n}")
        p = parse("thread T {\n  call acquire();\n}")
        k = OpId("T", "acquire", 0)
        hs = spec_histories(spec0, events_of_program(p, spec0), {"T": "T"})
        assert hs == frozenset({(), (Inv(k),)})

    def test_covert_ops_are_observed_at_once(self):
        o = parse("object spec {\n  var x = 0;\n  op ping() {\n  }\n}")
        p = parse("thread T1 {\n  call ping();\n}\nthread T2 {\n  call ping();\n}")
        k1 = OpId("T1", "ping", 0)
        k2 = OpId("T2", "ping", 0)
        hs = spec_histories(o, events_of_program(p, o), {"T1": "T1", "T2": "T2"})
        assert (Inv(k1), Res(k1, None), OpObs(k1, None), Inv(k2)) in hs
        assert (Inv(k1), Res(k1, None), Inv(k2)) not in hs

    def test_gate_blocks_cross_core_but_not_same_core(self):
        p = parse("thread T1 {\n  call release();\n}\n"
                  "thread T2 {\n  call release();\n}")
        k1 = OpId("T1", "release", 0)
        k2 = OpId("T2", "release", 0)
        ev = events_of_program(p, SPEC)
        hs = spec_histories(SPEC, ev, {"T1": "T1", "T2": "T2"})
        assert (Inv(k1), Res(k1, None), Inv(k2)) not in hs
        assert (Inv(k1), Res(k1, None), OpObs(k1, None), Inv(k2)) in hs
        same = spec_histories(SPEC, ev, {"T1": "c0", "T2": "c0"})
        assert (Inv(k1), Res(k1, None), Inv(k2)) in same

    def test_fig5_histories_are_sound(self):
        hs = spec_histories(SPEC, fig5_universe(), IDENT3)
        try3 = OpId("T3", "tryAcquire", 0)
        rel2 = OpId("T2", "release", 1)
        assert all(check_wellformed(h) for h in hs)
        assert all(check_atomic(h, IDENT3) for h in hs)
        for h in hs:
            for i in range(len(h)):
                assert h[:i] in hs
        # the probe can find the lock taken or free
        assert any(Res(try3, 0) in h for h in hs)
        assert any(Res(try3, 1) in h for h in hs)
        # a failed probe can only happen before the release is observed
        for h in hs:
            if Res(try3, 0) in h and OpObs(rel2, None) in h:
                assert h.index(Inv(try3)) < h.index(OpObs(rel2, None))

    def test_fig4_mutual_exclusion(self):
        p = parse(corpus_text("fig4_client.wm"))
        hs = spec_histories(SPEC, events_of_program(p, SPEC),
                            {"T1": "T1", "T2": "T2"})
        a1 = OpId("T1", "acquire", 0)
        a2 = OpId("T2", "acquire", 0)
        assert any(Res(a1, None) in h for h in hs)
        assert any(Res(a2, None) in h for h in hs)
        assert not any(Res(a1, None) in h and Res(a2, None) in h for h in hs)

    def test_rejects_impl_objects(self):
        with pytest.raises(ValueError):
            spec_histories(IMPL, frozenset(), {})


# fig5 x spinlock_spec runs under SC only: under TSO the materialized
# trace set takes several seconds, and under RELAXED it is too large
SPEC_MODE_CASES = [
    (client, spec, model)
    for client, spec in (("fig4_client.wm", "spinlock_spec.wm"),
                         ("fig6_client.wm", "spinlock_spec.wm"),
                         ("fig5_notry_client.wm", "spinlock_spec_notry.wm"))
    for model in Model
] + [("fig5_client.wm", "spinlock_spec.wm", Model.SC)]


def histories(p, o, c, book=False, max_traces=200_000):
    """The object histories of the traces of `p` against specification
    `o`, on the engine's specification build or, with `book`, on
    `BookSpec`'s."""
    with book_specs() if book else contextlib.nullcontext():
        ts = explore(p, o, c)
    return {project_object(t) for t in materialize(ts, max_traces)}


@pytest.mark.parametrize("client,spec,model", SPEC_MODE_CASES)
def test_spec_mode_histories_match_oracle(client, spec, model):
    """The object histories of the engine's spec-mode traces are exactly
    the histories the specification admits with every operation observed
    at once, and those of `BookSpec`'s exactly the histories it admits
    with observations placed freely: the memory model moves program
    events, never the object's own."""
    p = parse(corpus_text(client))
    o = parse(corpus_text(spec))
    c, events = ExploreConfig(model=model), events_of_program(p, o)
    assert histories(p, o, c) == spec_histories(o, events, p.coremap,
                                                covert=frozenset(o.ops))
    assert histories(p, o, c, book=True) == spec_histories(
        o, events, p.coremap, covert=covert_ops(p, o))


# `materialize` is exponential in the client: values=1 keeps most trace
# sets small, and those past 5,000 traces are left out, per model
@settings(max_examples=60, deadline=None)
@given(object_clients(("spinlock_spec.wm", "spinlock_spec_notry.wm")))
def test_spec_mode_histories_match_oracle_on_random_clients(case):
    obj, text = case
    p, o = parse(text), parse(corpus_text(obj))
    events = events_of_program(p, o, values=1)
    at_once = spec_histories(o, events, p.coremap, values=1,
                             covert=frozenset(o.ops))
    free = spec_histories(o, events, p.coremap, values=1,
                          covert=covert_ops(p, o))
    for model in Model:
        for book, oracle in ((False, at_once), (True, free)):
            try:
                got = histories(p, o, ExploreConfig(model=model, values=1),
                                book, 5_000)
            except ValueError:
                event("trace set too large to materialize")
                continue
            assert got == oracle


def assert_observing_at_once_agrees(p, o):
    """Under every model at values 1 and 2, the engine's specification
    build, which observes each response in its edge, has the observables
    of `BookSpec`'s, which places observations freely, in no more
    states."""
    event("threads share a core" if len(set(p.coremap.values())) == 1
          else "a core per thread")
    for model in Model:
        for values in (1, 2):
            c = ExploreConfig(model=model, values=values)
            ts = explore(p, o, c)
            with book_specs():
                book = explore(p, o, c)
            assert ts.observables() == book.observables()
            assert ts.states <= book.states


# an invocation waits only while a thread of another core is in a call:
# both generators draw clients whose threads share a core
@settings(max_examples=100, deadline=None)
@given(object_clients(("spinlock_spec.wm", "spinlock_spec_notry.wm")))
def test_observing_at_once_agrees_on_object_clients(case):
    obj, text = case
    assert_observing_at_once_agrees(parse(text), parse(corpus_text(obj)))


@settings(max_examples=100, deadline=None)
@given(spec_objects())
def test_observing_at_once_agrees_on_spec_objects(case):
    spec, text = case
    assert_observing_at_once_agrees(parse(text), parse(spec))


# what an implementation instruction does, as the engine reads it off
# `program.step`'s result

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
    out: Optional[int]


def effect(ins, value, regs):
    op = ins[0]
    if op == STORE:
        return Store(ins[2], value)
    if op == TAS:
        return TasDone(ins[3], dict(regs)[ins[2]], value)
    if op == FENCE:
        return Fenced()
    if op == RETURN:
        return Ret(value)
    return Internal()


def impl_step(f, obj, view, values=3, unroll=2):
    """Frame `f` after its next instruction, run through `program.step`,
    and the instruction's effect: (frame', effect), frame' being None
    once the invocation returned, or None when blocked or stuck."""
    r = step(obj.ops[f.opid.call].code, f.pc, f.ctrs, f.regs, view, values,
             unroll)
    if r is None:
        return None
    ins, pc, ctrs, regs, v = r
    frame = None if ins[0] == RETURN else f._replace(pc=pc, ctrs=ctrs, regs=regs)
    return frame, effect(ins, v, regs)


def gated(f, obj):
    """Whether the instruction `f` stands at waits for a drained core."""
    code = obj.ops[f.opid.call].code
    return code[settled(code, f.pc)][0] in GATED


def drive(op_name, view, n=10, ret_reg=None, values=3, unroll=2):
    """Run one invocation to completion or till blocked; returns the
    frame after the last step (None once returned) and the effects."""
    f = start_frame(OpId("T", op_name, 0), IMPL.ops[op_name], None, ret_reg)
    effects = []
    for _ in range(n):
        r = impl_step(f, IMPL, view, values, unroll)
        if r is None:
            effects.append(None)
            break
        f, eff = r
        effects.append(eff)
        if isinstance(eff, Ret):
            break
    return f, effects


class Reads:
    """A view that returns `value` for every variable and records which
    variables were read."""

    def __init__(self, value):
        self.value, self.names = value, []

    def __call__(self, name):
        self.names.append(name)
        return self.value


class TestImplMachine:
    def test_release(self):
        f, effs = drive("release", lambda v: 0)
        assert effs == [Store("x", 1), Ret(None)]
        assert f is None

    def test_try_acquire_success(self):
        _, effs = drive("tryAcquire", lambda v: 1)
        assert effs == [TasDone("x", 1, 0), Ret(1)]

    def test_try_acquire_failure(self):
        _, effs = drive("tryAcquire", lambda v: 0)
        assert effs == [TasDone("x", 0, None), Ret(0)]

    def test_acquire_success(self):
        _, effs = drive("acquire", lambda v: 1)
        assert effs == [Internal(), TasDone("x", 1, 0), Internal(), Ret(None)]

    def test_acquire_spins_then_sticks(self):
        _, effs = drive("acquire", lambda v: 0)
        # outer guard, failed TAS, if, inner guard twice, budget gone
        assert effs == [Internal(), TasDone("x", 0, None), Internal(),
                        Internal(), Internal(), None]

    def test_acquire_recovers_when_lock_frees(self):
        f = start_frame(OpId("T", "acquire", 0), IMPL.ops["acquire"], None, None)
        x = 0
        effects = []
        for _ in range(4):  # outer guard, TAS fail, if, inner guard
            f, eff = impl_step(f, IMPL, lambda v: x)
            effects.append(eff)
        x = 1
        for _ in range(4):  # inner guard false, outer guard, TAS, if
            f, eff = impl_step(f, IMPL, lambda v: x)
            effects.append(eff)
        f, eff = impl_step(f, IMPL, lambda v: x)
        assert eff == Ret(None)
        assert effects[-2] == TasDone("x", 1, 0)

    def test_gated_kinds(self):
        """A TAS, the next instruction of a fresh tryAcquire, reads only
        its variable and ends in a TasDone: the step that needs a
        drained core.  The return after it reads nothing."""
        f = start_frame(OpId("T", "tryAcquire", 0), IMPL.ops["tryAcquire"],
                        None, "rt")
        assert gated(f, IMPL)
        view = Reads(1)
        f, eff = impl_step(f, IMPL, view)
        assert (view.names, eff) == (["x"], TasDone("x", 1, 0))
        assert not gated(f, IMPL)
        view = Reads(1)
        assert impl_step(f, IMPL, view) == (None, Ret(1))
        assert view.names == []

    def test_fence_is_gated(self):
        o = parse("object impl {\n  var x = 0;\n  op f() {\n"
                  "    fence;\n    x := 1;\n  }\n}")
        f = start_frame(OpId("T", "f", 0), o.ops["f"], None, None)
        assert gated(f, o)
        view = Reads(0)
        f, eff = impl_step(f, o, view)
        assert (view.names, eff) == ([], Fenced())
        assert not gated(f, o)
        assert impl_step(f, o, view)[1] == Store("x", 1)

    def test_stuck(self):
        """Once the inner loop's budget is spent the frame is stuck for
        good: the step blocks whatever memory holds, without a read."""
        f = start_frame(OpId("T", "acquire", 0), IMPL.ops["acquire"], None, None)
        for _ in range(5):
            f, _ = impl_step(f, IMPL, lambda v: 0)
        view = Reads(1)
        assert impl_step(f, IMPL, view) is None
        assert view.names == []

    def test_writes_shared(self):
        assert writes_shared(IMPL.ops["acquire"])   # via TAS
        assert writes_shared(IMPL.ops["release"])
        o = parse("object impl {\n  var x = 0;\n  op peek() {\n"
                  "    return x;\n  }\n}")
        assert not writes_shared(o.ops["peek"])


# register-only instructions lead up to each kind of step that ends a
# merged run; `spin` runs out of its loop budget on registers alone
MERGING = parse("""object impl {
  var x = 0;
  op load(a) { r := a + 1; if (r = 1) { r := 2; } r2 := x; return r2; }
  op store(a) { r := a; x := r; }
  op tas() { r := 1; rt := TAS(x, 0, 1); return rt; }
  op fenced() { r := 1; fence; }
  op ret(a) { while (a = 1) { a := 0; } r := a + 1; return r; }
  op spin() { r := 0; while (r = 0) { } }
  op wait() { r := 0; await (r = 1); x := 1; }
  op after() { r := x; r := r + 1; if (r = 1) { return 0; } return r; }
}""")


def merged_engine(obj=MERGING, model=Model.SC):
    """An implementation engine of `obj` under `model`, for a client that
    calls nothing: its `run_merged` and `call_slot` stand alone."""
    return _Impl(parse("thread T { fence; }"), obj, ExploreConfig(model),
                 DISCIPLINES[model])


def merged_frame(op_name, arg=None):
    """The frame a call of `op_name` holds once its merged run is taken,
    with the instruction it stands at."""
    op = MERGING.ops[op_name]
    f, last = merged_engine().call_slot(OpId("T", op_name, 0), arg, None)
    assert last is None
    return f, op.code[f.pc]


class TestMergedSteps:
    """A frame takes the instructions that read only its registers and
    emit nothing in the edge of the step before them, and stops at the
    first that reads or writes a shared variable, gates, returns or
    blocks."""

    def test_mergeable_pcs(self):
        kinds = {name: sorted(op.code[pc][0] for pc in op.merged)
                 for name, op in MERGING.ops.items()}
        assert kinds == {"load": [SET, SET, IF], "store": [SET],
                         "tas": [SET], "fenced": [SET],
                         "ret": [SET, SET, LOOP, LOOP], "spin": [SET, LOOP, LOOP],
                         "wait": [SET, AWAIT], "after": [SET, IF]}
        assert IMPL.ops["release"].merged == frozenset()
        assert {IMPL.ops["acquire"].code[pc][1]
                for pc in IMPL.ops["acquire"].merged} == {"while(1=1)", "if(rt=1)"}

    def test_stops_at_a_shared_load(self):
        f, ins = merged_frame("load", 0)
        assert ins[:3] == (SET, "r2:=x", "r2")
        assert f.regs == (("a", 0), ("r", 2))

    def test_stops_at_a_store(self):
        f, ins = merged_frame("store", 3)
        assert ins[:3] == (STORE, "x:=r", "x")
        assert f.regs == (("a", 3), ("r", 3))

    def test_stops_at_a_tas(self):
        _, ins = merged_frame("tas")
        assert ins[0] == TAS

    def test_stops_at_a_fence(self):
        _, ins = merged_frame("fenced")
        assert ins[0] == FENCE

    def test_stops_at_a_return(self):
        f, ins = merged_frame("ret", 1)
        assert ins[0] == RETURN and ins[2] is not None
        assert f.ctrs == () and f.regs == (("a", 0), ("r", 1))

    def test_a_spent_loop_budget_stays_stuck(self):
        """The loop test runs twice, then blocks for good: the frame
        stands at it with the budget spent, and no step leaves it."""
        f, ins = merged_frame("spin")
        assert ins[0] == LOOP and f.ctrs == (0,)
        assert step(MERGING.ops["spin"].code, f.pc, f.ctrs, f.regs, None,
                    3, 2) is None

    def test_a_register_await_blocks_for_good(self):
        f, ins = merged_frame("wait")
        assert ins[:2] == (AWAIT, "await(r=1)")
        assert f.regs == (("r", 0),)

    def test_merges_after_a_step_that_reads(self):
        """In a build, `after`'s frames stand at its load or at a return:
        the register update and the test after the load run in the
        load's edge, whatever it read: 0 before U's store, 2 after."""
        client = "thread T { r0 := call after(); }\nthread U { call store(2); }"
        eng = _Impl(parse(client), MERGING, ExploreConfig(Model.SC),
                    DISCIPLINES[Model.SC])
        seen = {eng.root()}
        stack = list(seen)
        while stack:
            for _, s2 in eng.actions(stack.pop()):
                if s2 not in seen:
                    seen.add(s2)
                    stack.append(s2)
        code = MERGING.ops["after"].code
        frames = [ts.call[0] for ts in eng.own[0].values if ts.call]
        assert {code[f.pc][:2] for f in frames} == {(SET, "r:=x"),
                                                    (RETURN, None)}
        assert {dict(f.regs)["r"] for f in frames
                if code[f.pc][0] == RETURN} == {1, 3}

    def test_start_frame_stays_before_the_first_instruction(self):
        f = start_frame(OpId("T", "load", 0), MERGING.ops["load"], 0, None)
        assert MERGING.ops["load"].code[f.pc][:2] == (SET, "r:=a+1")
