#!/usr/bin/env python3
"""Run the whole corpus battery: refinement verdicts for every bundled
client against the spinlock specification and implementation under each
memory model, ordering-law checks on the extracted enforced orders, and
the verdict of each litmus test of corpus/litmus.  Prints one row per
case; exits 1 if any row deviates from the documented expectation."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wmtr.memmodel import ExploreConfig, Model, enforced_order, explore
from wmtr.porder import check_axioms, check_lemma1
from wmtr.program import empty_object, parse
from wmtr.refine import check_wmtr

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# client, spec, impl, expected verdict per model
CHECKS = [
    ("fig4_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": True, "relaxed": True}),
    # under RELAXED the specification itself admits the stale read of z,
    # so the TSO refutation disappears: expect holds there
    ("fig5_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": False, "relaxed": True}),
    ("fig5_notry_client.wm", "spinlock_spec_notry.wm", "spinlock_impl_notry.wm",
     {"sc": True, "tso": True}),
    ("fig6_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": True, "relaxed": False}),
    # fig6 widened to three threads: the first scale refutation
    ("scale/inc3.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": True, "relaxed": False}),
]

ORDERS = [
    ("fig2_client.wm", "fig2_object.wm"),
    ("fig4_client.wm", "spinlock_impl.wm"),
    ("fig5_client.wm", "spinlock_impl.wm"),
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"),
    ("fig6_client.wm", "spinlock_impl.wm"),
]

# litmus test, the outcome it asks about (the value of each outcome
# global's last observation), whether each model allows it; at values=1
LITMUS = [
    ("sb.wm", {"a": 0, "b": 0}, {"sc": False, "tso": True, "relaxed": True}),
    ("mp.wm", {"a": 1, "b": 0}, {"sc": False, "tso": False, "relaxed": True}),
    ("lb.wm", {"a": 1, "b": 1}, {"sc": False, "tso": False, "relaxed": False}),
    ("wrc.wm", {"a": 1, "b": 1, "c": 0},
     {"sc": False, "tso": False, "relaxed": True}),
    ("iriw.wm", {"a": 1, "b": 0, "c": 1, "d": 0},
     {"sc": False, "tso": False, "relaxed": True}),
    ("sb_fences.wm", {"a": 0, "b": 0},
     {"sc": False, "tso": False, "relaxed": False}),
    ("mp_fences.wm", {"a": 1, "b": 0},
     {"sc": False, "tso": False, "relaxed": False}),
]


def load(name):
    return parse((CORPUS / name).read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", type=int, default=3)
    ap.add_argument("--unroll", type=int, default=2)
    ap.add_argument("--buffer", type=int, default=4)
    ap.add_argument("--model", choices=[m.value for m in Model],
                    help="restrict to one model")
    args = ap.parse_args()
    models = [Model(args.model)] if args.model else list(Model)
    bad = 0

    print("== refinement ==")
    for client, spec, impl, expect in CHECKS:
        p, s, i = load(client), load(spec), load(impl)
        for model in models:
            if model.value not in expect:
                continue
            cfg = ExploreConfig(model=model, unroll=args.unroll,
                                buffer=args.buffer, values=args.values)
            t0 = time.time()
            v = check_wmtr(p, s, i, cfg)
            ok = v.holds == expect[model.value]
            bad += not ok
            line = (f"{client:24s} {model.value:8s} {v.verdict:19s} "
                    f"{time.time() - t0:6.1f}s  {'' if ok else '  UNEXPECTED'}")
            print(line)
            if v.counterexample:
                obs = " ".join(f"{th}.{var}={val}"
                               for th, var, val in v.counterexample.observable)
                print(f"{'':24s} refuting observable: {obs}")

    print("== ordering laws ==")
    for client, obj in ORDERS:
        p, o = load(client), load(obj)
        for model in models:
            cfg = ExploreConfig(model=model, unroll=args.unroll,
                                buffer=args.buffer, values=args.values)
            t0 = time.time()
            po = enforced_order(p, o, cfg)
            ok = check_axioms(po).all_hold and check_lemma1(po)
            bad += not ok
            print(f"{client:24s} {model.value:8s} "
                  f"{'laws hold' if ok else 'LAW VIOLATION':19s} "
                  f"{time.time() - t0:6.1f}s  ({len(po.pairs)} pairs)")

    print("== litmus ==")
    for name, outcome, expect in LITMUS:
        p = load(f"litmus/{name}")
        for model in models:
            t0 = time.time()
            ts = explore(p, empty_object(),
                         ExploreConfig(model=model, values=1))
            allowed = any(all(last.get(g) == v for g, v in outcome.items())
                          for last in ({var: val for _, var, val in o}
                                       for o in ts.observables()))
            ok = allowed == expect[model.value]
            bad += not ok
            print(f"{name:24s} {model.value:8s} "
                  f"{'allowed' if allowed else 'forbidden':19s} "
                  f"{time.time() - t0:6.1f}s  ({ts.states} states)"
                  f"{'' if ok else '  UNEXPECTED'}")

    print(f"\n{'all checks as expected' if not bad else f'{bad} deviations'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
