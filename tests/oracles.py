"""Reference implementations kept only to cross-check the library.

`empirical_pairs_oracle` is the set-based meet over paths that
`TraceSet.empirical_pairs` computed before event sets became bitmasks:
it intersects frozensets of events once per edge.  It is slow on large
graphs but has no encoding to get wrong.
"""

from typing import Dict

from wmtr.events import Event


def empirical_pairs_oracle(ts) -> frozenset:
    """(a, b) iff b occurs and a precedes b in every trace of `ts` where
    b occurs."""
    before: Dict[Event, frozenset] = {}
    reach = {ts.root: frozenset()}
    for s in ts.topo():
        base = reach[s]
        for burst, s2 in ts.graph[s]:
            here = set(base)
            for e in burst:
                prior = frozenset(here)
                before[e] = prior if e not in before else (before[e] & prior)
                here.add(e)
            f = frozenset(here)
            reach[s2] = f if s2 not in reach else (reach[s2] & f)
    pairs = set()
    for b, pre in before.items():
        for a in pre:
            if a != b:
                pairs.add((a, b))
    return frozenset(pairs)
