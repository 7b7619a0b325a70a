"""Enforced orders over finite event universes.

An enforced order collects the orderings that every execution of a
program under a given memory model must respect: an irreflexive,
transitively closed relation over a finite event set.  Because a trace
may stop early, a pair (a, b) only binds a trace in which b actually
occurs; that is what `allows` checks.

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

`check_lemma1` checks the derived cross-operation serialization law:
any enforced order between events of two distinct operations forces
res of the first before inv of the second.  The law follows from the
four above only for relations that also order each operation's own
events in stage order (inv, then res, then obs), which empirical
orders of real trace sets always do; `test_porder` keeps a small
relation witnessing that the laws alone do not entail it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .events import (
    Event,
    Inv,
    OpId,
    OpObs,
    Res,
    event_to_json,
    event_to_record,
    is_object_event,
    is_program_event,
    pretty,
)

Pair = Tuple[Event, Event]


@dataclass(frozen=True)
class EnforcedOrder:
    universe: FrozenSet[Event]
    pairs: FrozenSet[Pair]

    def validate(self) -> None:
        """Raise unless pairs form an irreflexive transitively closed
        relation within the universe; the message names the first
        offending pair or path in `_key` order."""
        u = self.universe
        bad = [p for p in self.pairs if p[0] not in u or p[1] not in u
               or p[0] == p[1]]
        if bad:
            a, b = min(bad, key=_pair_key)
            if a not in u or b not in u:
                raise ValueError(f"pair outside universe: {pretty(a)} -> {pretty(b)}")
            raise ValueError(f"reflexive pair: {pretty(a)}")
        succ: Dict[Event, set] = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        gaps = [(a, b, c) for a, bs in succ.items() for b in bs
                for c in succ.get(b, set()) - bs]
        if gaps:
            a, b, c = min(gaps, key=lambda t: tuple(map(_key, t)))
            raise ValueError(
                f"not transitive: {pretty(a)} -> {pretty(b)} -> {pretty(c)}"
            )

    def successors(self) -> Dict[Event, FrozenSet[Event]]:
        out: Dict[Event, set] = {e: set() for e in self.universe}
        for a, b in self.pairs:
            out[a].add(b)
        return {e: frozenset(s) for e, s in out.items()}

    def predecessors(self) -> Dict[Event, FrozenSet[Event]]:
        out: Dict[Event, set] = {e: set() for e in self.universe}
        for a, b in self.pairs:
            out[b].add(a)
        return {e: frozenset(s) for e, s in out.items()}


def closure(universe: Iterable[Event], pairs: Iterable[Pair]) -> EnforcedOrder:
    """Transitively close the given pairs over the universe."""
    u = frozenset(universe)
    succ: Dict[Event, set] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a in list(succ):
            new = set()
            for b in succ[a]:
                new |= succ.get(b, set())
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    closed = frozenset((a, b) for a, bs in succ.items() for b in bs)
    return EnforcedOrder(u, closed)


def allows(po: EnforcedOrder, t: Sequence[Event]) -> bool:
    """True iff every pair (a, b) of po whose b occurs in t has a
    occurring earlier in t.  Pairs whose right element is absent do not
    bind: the trace may simply have stopped before b."""
    pos = {e: i for i, e in enumerate(t)}
    for a, b in po.pairs:
        j = pos.get(b)
        if j is None:
            continue
        i = pos.get(a)
        if i is None or i >= j:
            return False
    return True


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


# the target events of the two serialisation laws: an operation's
# observations, or all its events
_OBSS, _ALL = attrgetter("obss"), attrgetter("all")


def _instances(universe: Iterable[Event]) -> Dict[OpId, _Instance]:
    """The operation instances of `universe` in OpId order, each one's
    events in `_key` order, so witnesses do not follow set order."""
    groups: Dict[OpId, Dict[type, list]] = {}
    for e in sorted((e for e in universe if is_object_event(e)), key=_key):
        groups.setdefault(e.op, {Inv: [], Res: [], OpObs: []})[type(e)].append(e)
    return {
        op: _Instance(tuple(g[Inv]), tuple(g[Res]), tuple(g[OpObs]))
        for op, g in sorted(groups.items(), key=lambda item: (
            item[0].thread, item[0].call, item[0].instance))
    }


def check_axioms(po: EnforcedOrder) -> AxiomReport:
    """Exhaustively check the four ordering laws plus the derived
    cross-operation law over the universe; the first witness of each
    violation, in OpId and `_key` order, is reported."""
    po.validate()
    succ = po.successors()
    pred = po.predecessors()
    insts = _instances(po.universe)

    def union(events, of):
        out = set()
        for e in events:
            out |= of[e]
        return out

    checks = []

    # something enforced after the invocation iff after the response
    wit = None
    for op, g in insts.items():
        own = set(g.all)
        inv_succ = union(g.invs, succ)
        res_succ = union(g.ress, succ)
        diff = [e for e in inv_succ ^ res_succ if e not in own]
        if diff:
            e = min(diff, key=_key)
            wit = (g.invs[0] if e in inv_succ else g.ress[0], e)
            break
    checks.append(LawCheck(LAW_INV_RES_SUCC, wit is None, wit))

    # something enforced before the response iff before the invocation
    wit = None
    for op, g in insts.items():
        own = set(g.all)
        res_pred = union(g.ress, pred)
        inv_pred = union(g.invs, pred)
        diff = [e for e in res_pred ^ inv_pred if e not in own]
        if diff:
            e = min(diff, key=_key)
            wit = (e, g.ress[0] if e in res_pred else g.invs[0])
            break
    checks.append(LawCheck(LAW_RES_INV_PRED, wit is None, wit))

    # a program event enforced before the observation iff before the invocation
    wit = None
    for op, g in insts.items():
        obs_pred = {e for e in union(g.obss, pred) if is_program_event(e)}
        inv_pred = {e for e in union(g.invs, pred) if is_program_event(e)}
        diff = obs_pred ^ inv_pred
        if diff:
            e = min(diff, key=_key)
            wit = (e, g.obss[0] if e in obs_pred else g.invs[0])
            break
    checks.append(LawCheck(LAW_OBS_INV_PROG_PRED, wit is None, wit))

    # an event of c enforced before an observation of d forces res(c) < inv(d)
    wit = _serialise_witness(insts, succ, _OBSS)
    checks.append(LawCheck(LAW_OBS_SERIALISES, wit is None, wit))

    # an event of c enforced before any event of d forces res(c) < inv(d)
    wit = _serialise_witness(insts, succ, _ALL)
    checks.append(LawCheck(LAW_CROSS_OP, wit is None, wit))
    return AxiomReport(tuple(checks))


def _serialise_witness(insts, succ, targets) -> Optional[Pair]:
    """The first pair (e, t), in OpId and event order, of an event e of
    an operation c enforced before an event t in `targets(d)` of another
    operation d where no response of c is enforced before an invocation
    of d; None when there is none."""
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
    return _serialise_witness(_instances(po.universe), po.successors(),
                              _ALL) is None


# --- export ---

def transitive_reduction(po: EnforcedOrder) -> FrozenSet[Pair]:
    pairs = po.pairs
    return frozenset(
        (a, c)
        for a, c in pairs
        if not any((a, b) in pairs and (b, c) in pairs for b in po.universe)
    )


def _key(e: Event) -> str:
    return event_to_json(e)


def _pair_key(p: Pair) -> Tuple[str, str]:
    return _key(p[0]), _key(p[1])


def to_dot(po: EnforcedOrder, name: str = "order") -> str:
    """DOT digraph of the transitive reduction."""
    nodes = sorted(po.universe, key=_key)
    ids = {e: f"n{i}" for i, e in enumerate(nodes)}
    lines = [f"digraph {name} {{"]
    for e in nodes:
        lines.append(f'  {ids[e]} [label="{pretty(e)}"];')
    for a, b in sorted(transitive_reduction(po), key=_pair_key):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines)


def order_to_lines(po: EnforcedOrder) -> str:
    """Edge-list serialization: one JSON record per line, nodes first."""
    out = []
    for e in sorted(po.universe, key=_key):
        out.append(json.dumps({"node": event_to_record(e)},
                              sort_keys=True, separators=(",", ":")))
    for a, b in sorted(po.pairs, key=_pair_key):
        out.append(json.dumps({"edge": [event_to_record(a), event_to_record(b)]},
                              sort_keys=True, separators=(",", ":")))
    return "\n".join(out)
