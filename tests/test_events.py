import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    check_wellformed, order_of, project_object, relaxed_counter_witness,
    trace_from_lines, tso_spinlock_witness, wellformed_traces,
)
from wmtr.events import (
    Inv,
    OpId,
    OpObs,
    ProgObs,
    ProgStep,
    Res,
    StepId,
    event_to_json,
    observable_of,
    pretty,
    table_sizes,
    trace_to_lines,
)


class TestWellformed:
    def test_empty_trace_ok(self):
        assert check_wellformed(()).ok

    def test_bare_response_rejected(self):
        v = check_wellformed((Res(OpId("T2", "acquire", 0)),))
        assert not v.ok
        assert v.index == 0
        assert v.reason == "response without invocation"

    def test_witness_traces_ok(self):
        for t in (tso_spinlock_witness(), relaxed_counter_witness()):
            assert len(t) == 16
            assert check_wellformed(t).ok

    def test_every_prefix_of_witness_ok(self):
        t = tso_spinlock_witness()
        for k in range(len(t) + 1):
            assert check_wellformed(t[:k]).ok

    def test_duplicate_event_rejected(self):
        c = OpId("T1", "A", 0)
        v = check_wellformed((Inv(c), Inv(c)))
        assert not v.ok and v.index == 1 and v.reason == "duplicate invocation"

    def test_observation_before_response_rejected(self):
        c = OpId("T1", "A", 0)
        v = check_wellformed((Inv(c), OpObs(c, 1), Res(c, 1)))
        assert not v.ok and v.index == 1

    def test_observation_value_must_match_response(self):
        c = OpId("T1", "A", 0)
        v = check_wellformed((Inv(c), Res(c, 1), OpObs(c, 0)))
        assert not v.ok and v.reason == "observation value differs from response"

    def test_step_observation_needs_matching_write(self):
        s = StepId("T1", "x:=1", 0)
        assert not check_wellformed((ProgObs(s, "x", 1),)).ok
        assert not check_wellformed((ProgStep(s, None), ProgObs(s, "x", 1))).ok
        assert not check_wellformed((ProgStep(s, ("x", 1)), ProgObs(s, "x", 2))).ok
        assert check_wellformed((ProgStep(s, ("x", 1)), ProgObs(s, "x", 1))).ok


class TestOrderOf:
    def test_empty(self):
        assert order_of(()) == (frozenset(), frozenset())

    def test_two_events(self):
        a, b = Inv(OpId("T1", "A", 0)), Res(OpId("T1", "A", 0), 1)
        ev, pairs = order_of((a, b))
        assert ev == {a, b}
        assert pairs == {(a, b)}

    def test_pair_count_matches_double_loop(self):
        t = tso_spinlock_witness()
        ev, pairs = order_of(t)
        oracle = {
            (a, b)
            for i, a in enumerate(t)
            for j, b in enumerate(t)
            if i < j
        }
        assert pairs == oracle
        assert len(pairs) == 16 * 15 // 2  # 120

    def test_rejects_illformed(self):
        with pytest.raises(ValueError):
            order_of((Res(OpId("T1", "A", 0)),))

    def test_object_restriction_commutes(self):
        t = tso_spinlock_witness()
        ev, pairs = order_of(t)
        h = project_object(t)
        hev, hpairs = order_of(h)
        assert hev == {e for e in ev if not isinstance(e, (ProgStep, ProgObs))}
        assert hpairs == {
            (a, b) for (a, b) in pairs if a in hev and b in hev
        }


class TestProjections:
    def test_project_object_filters(self):
        c = OpId("T1", "A", 0)
        s = StepId("T1", "x:=1", 0)
        t = (Inv(c), ProgStep(s, ("x", 1)), Res(c, 1))
        assert project_object(t) == (Inv(c), Res(c, 1))

    def test_project_object_of_witness(self):
        h = project_object(tso_spinlock_witness())
        assert len(h) == 9
        acq2 = OpId("T2", "acquire", 0)
        rel2 = OpId("T2", "release", 1)
        try3 = OpId("T3", "tryAcquire", 0)
        assert h == (
            Inv(acq2), Res(acq2), OpObs(acq2),
            Inv(rel2), Res(rel2),
            Inv(try3), Res(try3, 0), OpObs(try3, 0),
            OpObs(rel2),
        )

    def test_observable_of_witnesses(self):
        assert observable_of(tso_spinlock_witness()) == (
            ("T1", "z", 1),
            ("T3", "w", 0),
            ("T2", "y", 0),
        )
        assert observable_of(relaxed_counter_witness()) == (
            ("T1", "y", 1),
            ("T2", "y", 1),
        )

    def test_observable_of_history_is_empty(self):
        t = tso_spinlock_witness()
        assert observable_of(project_object(t)) == ()


@given(wellformed_traces())
@settings(max_examples=200)
def test_generated_traces_are_wellformed(t):
    assert check_wellformed(t).ok


@given(wellformed_traces())
def test_wellformedness_is_prefix_closed(t):
    for k in range(len(t) + 1):
        assert check_wellformed(t[:k]).ok


@given(wellformed_traces())
def test_serialization_round_trips(t):
    assert trace_from_lines(trace_to_lines(t)) == t


@given(wellformed_traces())
def test_observable_of_projection_is_empty(t):
    assert observable_of(project_object(t)) == ()


@given(wellformed_traces())
def test_order_pair_count(t):
    n = len(t)
    _, pairs = order_of(t)
    assert len(pairs) == n * (n - 1) // 2


def test_serialized_records_are_canonical():
    line = event_to_json(Inv(OpId("T2", "acquire", 0)))
    assert line == '{"instance":0,"kind":"inv","op":"acquire","thread":"T2","value":null}'
    s = StepId("T3", "await(z=1)", 0)
    assert (
        event_to_json(ProgStep(s, None))
        == '{"instance":0,"kind":"step","label":"await(z=1)","thread":"T3","value":null,"var":null}'
    )


def test_pretty_labels():
    assert pretty(Inv(OpId("T2", "acquire", 0))) == "inv(T2, acquire())"
    assert pretty(OpObs(OpId("T3", "tryAcquire", 0), 0)) == "obs(T3, tryAcquire, 0)"
    assert pretty(ProgObs(StepId("T1", "z:=1", 0), "z", 1)) == "obs(T1, z=1)"
    assert pretty(ProgStep(StepId("T2", "y:=z", 0), ("y", 0))) == "step(T2, y:=z)"


class TestInterning:
    """One instance per distinct event: equality is identity."""

    OP = OpId("T1", "acquire", 0)
    STEP = StepId("T2", "x:=1", 1)

    def test_equal_fields_give_the_same_object(self):
        op, sid = self.OP, self.STEP
        assert OpId("T1", "acquire", 0) is op
        assert OpId(thread="T1", call="acquire", instance=0) is op
        assert OpId("T1", instance=0, call="acquire") is op
        assert Inv(op) is Inv(op, None) is Inv(op, arg=None) is Inv(op=op)
        assert Res(op, 1) is Res(op, out=1) and Res(op) is not Res(op, 1)
        assert OpObs(op) is OpObs(op, None)
        assert ProgStep(sid) is ProgStep(sid, None) is ProgStep(sid, write=None)
        assert ProgStep(sid, ("x", 1)) is ProgStep(sid, ("x", 1))
        assert ProgObs(sid, "x", 1) is ProgObs(step=sid, var="x", value=1)

    def test_equality_and_hash_are_identity(self):
        a, b = Inv(self.OP, 2), Inv(OpId("T1", "acquire", 0), 2)
        assert a == b and hash(a) == hash(b) == object.__hash__(a)
        assert Inv(self.OP, 2) != Res(self.OP, 2)
        assert len({Inv(self.OP), Inv(self.OP, None), OpObs(self.OP)}) == 2

    # the positional call is the table lookup; every other form runs the
    # dataclass's `__init__` and then finds the instance in the table
    @pytest.mark.parametrize("make", [
        lambda: ProgObs(StepId("T2", "x:=1", 1), "x", 3),
        lambda: ProgObs(step=TestInterning.STEP, var="x", value=3),
        lambda: OpId(call="acquire", instance=0, thread="T1"),
        lambda: Inv(TestInterning.OP, arg=1),
        lambda: Res(TestInterning.OP),
        lambda: ProgStep(TestInterning.STEP),
        lambda: dataclasses.replace(Inv(TestInterning.OP, 1)),
        lambda: dataclasses.replace(ProgStep(TestInterning.STEP, None),
                                    write=None),
    ], ids=["positional", "keywords", "reordered", "mixed", "default",
            "default-step", "replace", "replace-default"])
    def test_making_an_event_again_adds_nothing(self, make):
        positional = {
            "ProgObs": ProgObs(self.STEP, "x", 3),
            "OpId": OpId("T1", "acquire", 0), "Inv": Inv(self.OP, 1),
            "Res": Res(self.OP, None), "ProgStep": ProgStep(self.STEP, None),
        }
        before = table_sizes()
        e = make()
        assert table_sizes() == before
        assert e is positional[type(e).__name__]

    @pytest.mark.parametrize("make", [
        copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e)),
        dataclasses.replace,
    ], ids=["copy", "deepcopy", "pickle", "replace"])
    def test_copies_are_the_interned_instance(self, make):
        for e in (self.OP, self.STEP, ProgStep(self.STEP, ("x", 1)),
                  ProgObs(self.STEP, "x", 1), Inv(self.OP, 1), Res(self.OP),
                  OpObs(self.OP, 0)):
            assert make(e) is e

    def test_replace_with_a_change_is_interned(self):
        e = ProgObs(self.STEP, "x", 1)
        assert dataclasses.replace(e, value=2) is ProgObs(self.STEP, "x", 2)

    def test_events_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.OP.instance = 1

    @pytest.mark.parametrize("make", [
        lambda: Inv(), lambda: Inv(OpId("T1", "a", 0), 1, 2),
        lambda: Inv(OpId("T1", "a", 0), value=1),
        lambda: Inv(OpId("T1", "a", 0), op=OpId("T1", "a", 0)),
        lambda: OpId("T1", "a"),
    ], ids=["missing", "extra", "unknown", "repeated", "no-default"])
    def test_bad_arguments_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_reprs_unchanged(self):
        op, sid = self.OP, self.STEP
        assert repr(op) == "OpId(thread='T1', call='acquire', instance=0)"
        assert repr(sid) == "StepId(thread='T2', label='x:=1', instance=1)"
        assert repr(ProgStep(sid, ("x", 1))) == (
            "ProgStep(step=StepId(thread='T2', label='x:=1', instance=1), "
            "write=('x', 1))")
        assert repr(ProgObs(sid, "x", 1)) == (
            "ProgObs(step=StepId(thread='T2', label='x:=1', instance=1), "
            "var='x', value=1)")
        assert repr(Inv(op)) == (
            "Inv(op=OpId(thread='T1', call='acquire', instance=0), arg=None)")
        assert repr(Res(op, 1)) == (
            "Res(op=OpId(thread='T1', call='acquire', instance=0), out=1)")
        assert repr(OpObs(op, 0)) == (
            "OpObs(op=OpId(thread='T1', call='acquire', instance=0), out=0)")
