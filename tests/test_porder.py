import re

import pytest
from hypothesis import given, settings

import genrel
from wmtr import porder
from conftest import order_from_lines, tso_spinlock_witness, wellformed_traces
from oracles import allows, closure, from_traces
from wmtr.events import (
    Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId, event_to_json, pretty,
)
from wmtr.porder import (
    LAW_CROSS_OP,
    LAW_INV_RES_SUCC,
    LAW_OBS_INV_PROG_PRED,
    LAW_OBS_SERIALISES,
    LAW_RES_INV_PRED,
    EnforcedOrder,
    check_axioms,
    check_lemma1,
    order_to_lines,
    to_dot,
    transitive_reduction,
)

C = OpId("T1", "A", 0)
D = OpId("T2", "B", 0)


def _order(pairs, extra_events=()):
    universe = {e for p in pairs for e in p} | set(extra_events)
    return EnforcedOrder(frozenset(universe), frozenset(pairs))


class TestAllows:
    def test_empty_relation_allows_everything(self):
        po = EnforcedOrder(frozenset({Inv(C)}), frozenset())
        assert allows(po, (Inv(C),))
        assert allows(po, ())

    def test_right_element_present_left_missing(self):
        po = _order({(Inv(C), Inv(D))})
        assert not allows(po, (Inv(D),))

    def test_right_element_absent_pair_not_binding(self):
        po = _order({(Inv(C), Inv(D))})
        assert allows(po, (Inv(C),))

    def test_wrong_order_rejected(self):
        po = _order({(Inv(C), Inv(D))})
        assert not allows(po, (Inv(D), Inv(C)))
        assert allows(po, (Inv(C), Inv(D)))

    def test_subset_monotone(self):
        a, b, c, d = Inv(C), Res(C, 0), Inv(D), Res(D, 1)
        po = _order({(a, b), (c, d)})
        sub = EnforcedOrder(po.universe, frozenset({(a, b)}))
        t = (a, b, c, d)
        assert allows(po, t) and allows(sub, t)


class TestValidation:
    def test_reflexive_rejected(self):
        po = _order({(Inv(C), Inv(C))})
        with pytest.raises(ValueError, match="reflexive"):
            check_axioms(po)

    def test_non_transitive_rejected(self):
        a, b, c = Inv(C), Res(C, 0), OpObs(C, 0)
        po = _order({(a, b), (b, c)})
        with pytest.raises(ValueError, match="transitive"):
            check_axioms(po)

    def test_message_is_deterministic(self):
        """Six operations each lack a transitive pair; the message names
        the first gap in event order whatever the hash seed."""
        ops = [OpId(f"T{i}", "f", 0) for i in range(6)]
        po = _order({p for op in ops
                     for p in ((Inv(op), Res(op, 0)), (Res(op, 0), OpObs(op, 0)))})
        with pytest.raises(ValueError) as err:
            po.validate()
        assert str(err.value) == "not transitive: " + " -> ".join(
            pretty(e) for e in (Inv(ops[0]), Res(ops[0], 0), OpObs(ops[0], 0)))

    def test_pair_outside_universe_rejected(self):
        po = EnforcedOrder(frozenset({Inv(C)}), frozenset({(Inv(C), Inv(D))}))
        with pytest.raises(ValueError, match="universe"):
            check_axioms(po)


class TestCheckAxioms:
    def test_empty_universe_all_hold(self):
        report = check_axioms(EnforcedOrder(frozenset(), frozenset()))
        assert report.all_hold

    def test_missing_response_side_detected(self):
        # invocation ordered before an outside event, response not
        e = ProgStep(StepId("T3", "s", 0))
        po = _order({(Inv(C), e)}, extra_events=[Res(C, 0)])
        report = check_axioms(po)
        law = report.law(LAW_INV_RES_SUCC)
        assert not law.holds
        assert law.witness == (Inv(C), e)

    def test_missing_invocation_predecessor_detected(self):
        e = ProgStep(StepId("T3", "s", 0))
        po = _order({(e, Res(C, 0))}, extra_events=[Inv(C)])
        report = check_axioms(po)
        assert not report.law(LAW_RES_INV_PRED).holds

    def test_program_predecessor_of_obs_needs_inv(self):
        e = ProgStep(StepId("T3", "s", 0))
        po = _order({(e, OpObs(C, 0))}, extra_events=[Inv(C), Res(C, 0)])
        report = check_axioms(po)
        assert not report.law(LAW_OBS_INV_PROG_PRED).holds

    def test_law_witness_is_deterministic(self):
        """Six operations each break a law; the witness is the first in
        OpId order whatever the hash seed, so `wmtr axioms` prints one
        output per input."""
        e = ProgStep(StepId("P", "s", 0))
        ops = [OpId(f"T{i}", "f", 0) for i in range(6)]
        po = _order({(Inv(op), e) for op in ops},
                    extra_events=[Res(op, 0) for op in ops])
        law = check_axioms(po).law(LAW_INV_RES_SUCC)
        assert law.witness == (Inv(OpId("T0", "f", 0)), e)

    def test_order_into_observation_needs_serialization(self):
        po = _order(
            {(Res(C, 0), OpObs(D, 1))},
            extra_events=[Inv(C), OpObs(C, 0), Inv(D), Res(D, 1)],
        )
        report = check_axioms(po)
        assert not report.law(LAW_OBS_SERIALISES).holds


class TestCrossOperationLaw:
    def test_empty_true(self):
        assert check_lemma1(EnforcedOrder(frozenset(), frozenset()))

    def test_unserialised_observation_pair_false(self):
        po = _order(
            {(OpObs(C, 0), Inv(D))},
            extra_events=[Inv(C), Res(C, 0), Res(D, 1), OpObs(D, 1)],
        )
        assert not check_lemma1(po)

    def test_laws_alone_do_not_entail_it(self):
        # obs(c) ordered before both inv(d) and res(d), nothing else:
        # all four laws hold yet the cross-operation law fails, because
        # nothing ties obs(c) back to res(c); stage order supplies that tie
        universe = frozenset(
            [Inv(C), Res(C, 0), OpObs(C, 0), Inv(D), Res(D, 1), OpObs(D, 1)]
        )
        pairs = frozenset({(OpObs(C, 0), Inv(D)), (OpObs(C, 0), Res(D, 1))})
        po = EnforcedOrder(universe, pairs)
        report = check_axioms(po)
        for law in (LAW_INV_RES_SUCC, LAW_RES_INV_PRED,
                    LAW_OBS_INV_PROG_PRED, LAW_OBS_SERIALISES):
            assert report.law(law).holds
        assert not report.law(LAW_CROSS_OP).holds
        assert not check_lemma1(po)

        # adding stage order and closing restores the law
        stage = {
            (Inv(C), Res(C, 0)), (Res(C, 0), OpObs(C, 0)),
            (Inv(D), Res(D, 1)), (Res(D, 1), OpObs(D, 1)),
        }
        closed = closure(universe, set(pairs) | stage)
        assert check_lemma1(closed)
        assert check_axioms(closed).all_hold


class TestFromTraces:
    def test_single_chain_gives_all_index_pairs(self):
        t = tso_spinlock_witness()
        prefixes = [t[:k] for k in range(len(t) + 1)]
        po = from_traces(t, prefixes)
        po.validate()
        assert len(po.pairs) == 16 * 15 // 2  # 120
        for p in prefixes:
            assert allows(po, p)

    def test_opposite_orders_cancel(self):
        a, b = Inv(C), Inv(D)
        po = from_traces([a, b], [(a, b), (b, a)])
        assert po.pairs == frozenset()

    def test_events_outside_universe_ignored(self):
        a, b = Inv(C), Inv(D)
        po = from_traces([a], [(a, b)])
        assert po.universe == frozenset({a})
        assert po.pairs == frozenset()

    @given(wellformed_traces())
    def test_prefix_set_gives_valid_allowing_order(self, t):
        prefixes = [t[:k] for k in range(len(t) + 1)]
        po = from_traces(t, prefixes)
        po.validate()
        for p in prefixes:
            assert allows(po, p)


class TestExport:
    def test_round_trip(self):
        t = tso_spinlock_witness()
        po = from_traces(t, [t[:k] for k in range(len(t) + 1)])
        assert order_from_lines(order_to_lines(po)) == po

    def test_reduction_of_chain_is_adjacent_pairs(self):
        a, b, c = Inv(C), Res(C, 0), OpObs(C, 0)
        po = closure([a, b, c], [(a, b), (b, c)])
        assert len(po.pairs) == 3
        assert transitive_reduction(po) == frozenset({(a, b), (b, c)})

    def test_dot_output(self):
        a, b = Inv(C), Res(C, 0)
        po = closure([a, b], [(a, b)])
        dot = to_dot(po)
        assert dot.startswith("digraph order {")
        assert 'label="inv(T1, A())"' in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")


def test_generated_law_relations_satisfy_cross_operation_law():
    # constructive generator: every relation satisfies the four laws;
    # the derived law must then hold as well
    for seed in range(100):
        po = genrel.generate(seed)
        report = check_axioms(po)
        assert report.all_hold, (seed, report)
        assert check_lemma1(po)


def test_each_event_key_is_built_once_per_order(monkeypatch):
    """Validation, the laws and both exports all read one key per event."""
    built = []
    monkeypatch.setattr(porder, "event_to_json",
                        lambda e: built.append(e) or event_to_json(e))
    t = tso_spinlock_witness()
    po = from_traces(t, [t[:k] for k in range(len(t) + 1)])
    check_axioms(po), check_lemma1(po), order_to_lines(po), to_dot(po)
    assert sorted(built, key=event_to_json) == sorted(t, key=event_to_json)


class _ScannedPairs(frozenset):
    """Pairs that count the passes over them."""

    def __iter__(self):
        self.scans = getattr(self, "scans", 0) + 1
        return super().__iter__()


def test_an_order_is_validated_once():
    """The first validation scans the pairs and keeps its verdict:
    validating again, checking the laws or checking the lemma scans
    nothing more, and an invalid order raises its first message again."""
    t = tso_spinlock_witness()
    valid = from_traces(t, [t[:k] for k in range(len(t) + 1)])
    pairs = _ScannedPairs(valid.pairs)
    po = EnforcedOrder(valid.universe, pairs)
    po.validate()
    po.successors, po.predecessors  # the maps scan the pairs once each
    scans = pairs.scans
    po.validate(), check_axioms(po), check_lemma1(po), po.validate()
    assert pairs.scans == scans

    a, b, c = Inv(C), Res(C, 0), OpObs(C, 0)
    pairs = _ScannedPairs({(a, b), (b, c)})
    po = EnforcedOrder(frozenset({a, b, c}), pairs)
    message = f"not transitive: {pretty(a)} -> {pretty(b)} -> {pretty(c)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        po.validate()
    scans = pairs.scans
    for check in (po.validate, lambda: check_axioms(po),
                  lambda: check_lemma1(po)):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == message
    assert pairs.scans == scans
