"""Enforced orders over finite event universes.

An enforced order collects the orderings that every execution of a
program under a given memory model must respect: an irreflexive,
transitively closed relation over a finite event set.  Because a trace
may stop early, a pair (a, b) only binds a trace in which b actually
occurs.

`memmodel.enforced_order` builds the empirical enforced order of an
explored trace set: (a, b) is included when b occurs in at least one
trace and a occurs before b in every trace containing b.  Irreflexivity
and transitivity hold by construction.

`check_axioms` validates the ordering laws such relations are expected
to satisfy, stated per operation instance (value variants of a response
or observation are grouped, membership is existential over variants):

  * inv-res successors agree: something is enforced after an
    invocation iff it is enforced after the operation's response.
  * res-inv predecessors agree: something is enforced before a
    response iff it is enforced before the operation's invocation.
  * obs-inv program predecessors agree: a program event is enforced
    before an operation's observation iff before its invocation.
  * order into an observation serialises: an event of operation c
    enforced before an observation of d forces res(c) before inv(d).

The derived cross-operation serialization law is reported with them,
and `check_lemma1` checks it alone: any enforced order between events
of two distinct operations forces res of the first before inv of the
second.  The law follows from the four above only for relations that
also order each operation's own events in stage order (inv, then res,
then obs), which empirical orders of real trace sets always do;
`test_porder` keeps a small relation witnessing that the laws alone do
not entail it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .events import (
    Event,
    Inv,
    OpId,
    OpObs,
    Res,
    event_to_json,
    is_object_event,
    is_program_event,
    pretty,
)

Pair = Tuple[Event, Event]


@dataclass(frozen=True)
class EnforcedOrder:
    """The maps, keys and verdict below are built once per order, on
    first use, and are shared by every reader: treat them as read-only.
    The maps are keyed by the universe, so they need every pair within
    it."""

    universe: FrozenSet[Event]
    pairs: FrozenSet[Pair]

    @cached_property
    def successors(self) -> Dict[Event, Set[Event]]:
        out: Dict[Event, Set[Event]] = {e: set() for e in self.universe}
        for a, b in self.pairs:
            out[a].add(b)
        return out

    @cached_property
    def predecessors(self) -> Dict[Event, Set[Event]]:
        out: Dict[Event, Set[Event]] = {e: set() for e in self.universe}
        for a, b in self.pairs:
            out[b].add(a)
        return out

    @cached_property
    def keys(self) -> Dict[Event, str]:
        """Each event's JSON line: the order that sorts events, witnesses
        and serialisations."""
        return {e: event_to_json(e) for e in self.universe}

    def validate(self) -> None:
        """Raise unless pairs form an irreflexive transitively closed
        relation within the universe; the message names the first
        offending pair or path in key order.  The verdict is worked out
        once per order."""
        if self.invalid is not None:
            raise ValueError(self.invalid)

    @cached_property
    def invalid(self) -> Optional[str]:
        """Why the order is not valid, or None when it is."""
        u = self.universe
        bad = [p for p in self.pairs if p[0] not in u or p[1] not in u
               or p[0] == p[1]]
        if bad:
            # events outside the universe have no key of the order's own
            a, b = min(bad, key=lambda p: tuple(map(event_to_json, p)))
            if a not in u or b not in u:
                return f"pair outside universe: {pretty(a)} -> {pretty(b)}"
            return f"reflexive pair: {pretty(a)}"
        succ = self.successors
        gaps = [(a, b, c) for a, b in self.pairs for c in succ[b] - succ[a]]
        if gaps:
            a, b, c = min(gaps, key=lambda t: tuple(map(self.keys.get, t)))
            return f"not transitive: {pretty(a)} -> {pretty(b)} -> {pretty(c)}"
        return None


# --- ordering laws ---

LAW_INV_RES_SUCC = "inv-res-successors-agree"
LAW_RES_INV_PRED = "res-inv-predecessors-agree"
LAW_OBS_INV_PROG_PRED = "obs-inv-program-predecessors-agree"
LAW_OBS_SERIALISES = "order-into-observation-serialises"
LAW_CROSS_OP = "cross-operation-order-serialises"


@dataclass(frozen=True)
class LawCheck:
    name: str
    holds: bool
    witness: Optional[Pair] = None


@dataclass(frozen=True)
class AxiomReport:
    checks: Tuple[LawCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def law(self, name: str) -> LawCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class _Instance:
    invs: Tuple[Event, ...]
    ress: Tuple[Event, ...]
    obss: Tuple[Event, ...]

    @property
    def all(self) -> Tuple[Event, ...]:
        return self.invs + self.ress + self.obss


# an operation's events of one stage, or all of them: the sides of the
# agreement laws and the targets of the serialisation laws
_INVS, _RESS, _OBSS, _ALL = map(attrgetter, ("invs", "ress", "obss", "all"))


def _instances(po: EnforcedOrder) -> Dict[OpId, _Instance]:
    """The operation instances of the order's universe in OpId order,
    each one's events in key order, so witnesses do not follow set
    order."""
    groups: Dict[OpId, Dict[type, list]] = {}
    for e in sorted(filter(is_object_event, po.universe), key=po.keys.get):
        groups.setdefault(e.op, {Inv: [], Res: [], OpObs: []})[type(e)].append(e)
    return {
        op: _Instance(tuple(g[Inv]), tuple(g[Res]), tuple(g[OpObs]))
        for op, g in sorted(groups.items(), key=lambda item: (
            item[0].thread, item[0].call, item[0].instance))
    }


def check_axioms(po: EnforcedOrder) -> AxiomReport:
    """Exhaustively check the four ordering laws plus the derived
    cross-operation law over the universe; the first witness of each
    violation, in OpId and key order, is reported."""
    po.validate()
    insts = _instances(po)
    witnesses = (
        # something enforced after the invocation iff after the response
        (LAW_INV_RES_SUCC, _agreement_witness(po, insts, _INVS, _RESS, True)),
        # something enforced before the response iff before the invocation
        (LAW_RES_INV_PRED, _agreement_witness(po, insts, _RESS, _INVS, False)),
        # a program event enforced before the observation iff before the
        # invocation
        (LAW_OBS_INV_PROG_PRED, _agreement_witness(
            po, insts, _OBSS, _INVS, False, is_program_event)),
        # an event of c enforced before an observation of d forces
        # res(c) < inv(d)
        (LAW_OBS_SERIALISES, _serialise_witness(po, insts, _OBSS)),
        # an event of c enforced before any event of d forces res(c) < inv(d)
        (LAW_CROSS_OP, _serialise_witness(po, insts, _ALL)),
    )
    return AxiomReport(tuple(LawCheck(name, wit is None, wit)
                             for name, wit in witnesses))


def _agreement_witness(po, insts, side, other, after: bool,
                       keep=lambda e: True) -> Optional[Pair]:
    """The first event, in OpId and key order, outside an operation and
    passing `keep` that is enforced after (or, unless `after`, before)
    the operation's `side` events but not its `other` ones, or the other
    way round; the witness pairs it with the first event of the side it
    is ordered with, in the order's direction.  None when there is none."""
    near = po.successors if after else po.predecessors
    for g in insts.values():
        own = set(g.all)
        one = set().union(*(near[e] for e in side(g)))
        two = set().union(*(near[e] for e in other(g)))
        diff = [e for e in one ^ two if e not in own and keep(e)]
        if diff:
            e = min(diff, key=po.keys.get)
            end = side(g)[0] if e in one else other(g)[0]
            return (end, e) if after else (e, end)
    return None


def _serialise_witness(po, insts, targets) -> Optional[Pair]:
    """The first pair (e, t), in OpId and event order, of an event e of
    an operation c enforced before an event t in `targets(d)` of another
    operation d where no response of c is enforced before an invocation
    of d; None when there is none."""
    succ = po.successors
    for c, gc in insts.items():
        for d, gd in insts.items():
            if c == d:
                continue
            trigger = next(((e, t) for e in gc.all for t in targets(gd)
                            if t in succ[e]), None)
            if trigger and not any(i in succ[r] for r in gc.ress
                                   for i in gd.invs):
                return trigger
    return None


def check_lemma1(po: EnforcedOrder) -> bool:
    """The cross-operation serialization law: for distinct operations
    c, d, any enforced pair between their events forces some response
    of c before the invocation of d."""
    po.validate()
    return _serialise_witness(po, _instances(po), _ALL) is None


# --- export ---

def transitive_reduction(po: EnforcedOrder) -> FrozenSet[Pair]:
    succ, pred = po.successors, po.predecessors
    return frozenset((a, c) for a, c in po.pairs if not succ[a] & pred[c])


def to_dot(po: EnforcedOrder, name: str = "order") -> str:
    """DOT digraph of the transitive reduction."""
    keys = po.keys
    nodes = sorted(po.universe, key=keys.get)
    ids = {e: f"n{i}" for i, e in enumerate(nodes)}
    lines = [f"digraph {name} {{"]
    for e in nodes:
        lines.append(f'  {ids[e]} [label="{pretty(e)}"];')
    for a, b in sorted(transitive_reduction(po),
                       key=lambda p: (keys[p[0]], keys[p[1]])):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines)


def order_to_lines(po: EnforcedOrder) -> str:
    """Edge-list serialization: one JSON record per line, nodes first;
    each record is an event's key inside a compact, key-sorted object."""
    keys = po.keys
    out = [f'{{"node":{k}}}' for k in sorted(keys.values())]
    out += [f'{{"edge":[{a},{b}]}}'
            for a, b in sorted((keys[a], keys[b]) for a, b in po.pairs)]
    return "\n".join(out)
