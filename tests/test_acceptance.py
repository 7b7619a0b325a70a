"""Acceptance battery.

Each test runs one advertised guarantee end to end at its stated
tolerance and prints a single PASS/FAIL line (visible under `pytest -s`
or in the captured-output section on failure).  Criteria with runtime
bounds assert them.
"""

import random
import time
from itertools import permutations

import genrel
from wmtr.cli import main as cli
from wmtr.events import (
    OpId, OpObs, ProgObs, ProgStep, Res, StepId, trace_to_lines,
)
from wmtr.memmodel import (
    ExploreConfig, Model, _build, enforced_order, explore,
)
from wmtr.porder import check_axioms, check_lemma1
from wmtr.program import empty_object, parse
from wmtr.refine import check_wmtr

from conftest import check_wellformed, corpus_text
from oracles import materialize, oracle_sc, sample


def load(name):
    return parse(corpus_text(name))


def report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def C(name):
    from conftest import CORPUS
    return str(CORPUS / name)


def test_criterion_1_tso_refutation():
    t0 = time.time()
    code = cli(["check", "--model", "tso",
                "--client", C("fig5_client.wm"),
                "--spec", C("spinlock_spec.wm"),
                "--impl", C("spinlock_impl.wm")])
    v = check_wmtr(load("fig5_client.wm"), load("spinlock_spec.wm"),
                   load("spinlock_impl.wm"), ExploreConfig(model=Model.TSO))
    dt = time.time() - t0
    ok = (code == 1 and v.verdict == "refuted"
          and v.counterexample.observable
          == (("T1", "z", 1), ("T3", "w", 0), ("T2", "y", 0))
          and dt < 60)
    report(1, f"spinlock refuted under TSO with the expected observable "
              f"({dt:.1f}s < 60s)", ok)


def test_criterion_2_tso_positive_without_tryacquire():
    clients = ["fig4_client.wm", "fig5_notry_client.wm", "fig6_client.wm"]
    codes = [cli(["check", "--model", "tso",
                  "--client", C(cl),
                  "--spec", C("spinlock_spec_notry.wm"),
                  "--impl", C("spinlock_impl_notry.wm")])
             for cl in clients]
    report(2, "lock without tryAcquire holds within bounds under TSO "
              f"for {len(clients)} clients (bounded, not a proof)",
           codes == [0, 0, 0])


def test_criterion_3_relaxed_refutation():
    t0 = time.time()
    code = cli(["check", "--model", "relaxed",
                "--client", C("fig6_client.wm"),
                "--spec", C("spinlock_spec.wm"),
                "--impl", C("spinlock_impl.wm")])
    v = check_wmtr(load("fig6_client.wm"), load("spinlock_spec.wm"),
                   load("spinlock_impl.wm"), ExploreConfig(model=Model.RELAXED))
    dt = time.time() - t0
    ok = (code == 1 and v.verdict == "refuted"
          and v.counterexample.observable == (("T1", "y", 1), ("T2", "y", 1))
          and dt < 120)
    report(3, f"locked counter refuted under RELAXED with the expected "
              f"observable ({dt:.1f}s < 120s)", ok)


def test_criterion_4_sc_sanity():
    cases = [("fig4_client.wm", "spinlock_spec.wm", "spinlock_impl.wm"),
             ("fig5_client.wm", "spinlock_spec.wm", "spinlock_impl.wm"),
             ("fig5_notry_client.wm", "spinlock_spec_notry.wm",
              "spinlock_impl_notry.wm"),
             ("fig6_client.wm", "spinlock_spec.wm", "spinlock_impl.wm")]
    codes = [cli(["check", "--model", "sc", "--client", C(cl),
                  "--spec", C(sp), "--impl", C(im)])
             for cl, sp, im in cases]
    report(4, f"all {len(cases)} lock clients hold under SC",
           codes == [0] * len(cases))


def test_criterion_5_flag_client_order_structure():
    p, o = load("fig2_client.wm"), load("fig2_object.wm")
    obs_A = OpObs(OpId("T1", "A", 0), 1)
    obs_B = OpObs(OpId("T1", "B", 1), None)
    obs_C = OpObs(OpId("T2", "C", 0), None)
    obs_x = ProgObs(StepId("T1", "x:=rA", 0), "x", 1)
    obs_z = ProgObs(StepId("T1", "z:=1", 0), "z", 1)

    po = enforced_order(p, o, ExploreConfig(model=Model.TSO))
    tso_ok = (all(e in po.pairs for e in
                  [(obs_A, obs_x), (obs_x, obs_z), (obs_z, obs_B)])
              and (obs_B, obs_C) not in po.pairs
              and (obs_C, obs_B) not in po.pairs)

    sc_ok = True
    ts = _build(p, o, ExploreConfig(model=Model.SC, values=1), "chaos")
    for t in materialize(ts):
        for i, e in enumerate(t):
            if isinstance(e, ProgObs):
                sc_ok &= t[i - 1] == ProgStep(e.step, (e.var, e.value))
            elif isinstance(e, OpObs):
                sc_ok &= t[i - 1] == Res(e.op, e.out)

    po_rx = enforced_order(p, o, ExploreConfig(model=Model.RELAXED))
    rx_ok = all((a, b) not in po_rx.pairs
                for a, b in permutations((obs_A, obs_B, obs_C), 2))

    report(5, "flag client reproduces the per-model enforced-order "
              "structure (TSO chain, SC adjacency, RELAXED unordered)",
           tso_ok and sc_ok and rx_ok)


def test_criterion_6_axiom_conformance():
    cases = [("fig2_client.wm", "fig2_object.wm"),
             ("fig4_client.wm", "spinlock_impl.wm"),
             ("fig5_client.wm", "spinlock_impl.wm"),
             ("fig5_notry_client.wm", "spinlock_impl_notry.wm"),
             ("fig6_client.wm", "spinlock_impl.wm")]
    ok = True
    for cl, ob in cases:
        p, o = load(cl), load(ob)
        for model in Model:
            po = enforced_order(p, o, ExploreConfig(model=model))
            ok &= check_axioms(po).all_hold and check_lemma1(po)
    gen_ok = True
    for seed in range(1000):
        po = genrel.generate(seed)
        gen_ok &= check_axioms(po).all_hold and check_lemma1(po)
    report(6, "ordering laws and the cross-operation law hold on every "
              "corpus client under every model, and on 1000 generated "
              "law-satisfying relations", ok and gen_ok)


def test_criterion_7_spec_side_mutual_exclusion():
    p, spec = load("fig4_client.wm"), load("spinlock_spec.wm")
    ok = True
    for model in Model:
        for o in explore(p, spec, ExploreConfig(model=model)).observables():
            keys = {(th, v) for th, v, _ in o}
            ok &= not {("T1", "y"), ("T2", "z")} <= keys
    report(7, "specification semantics never lets both guarded writes "
              "happen for the one-lock client, under every model", ok)


def _random_step_program(rng):
    """Assignment-only client with at most 8 events in its universe."""
    names = ["x", "y"]
    while True:
        lines = [f"global {v} = 0;" for v in names]
        budget = 8
        for i in range(rng.randint(1, 3)):
            body = []
            for j in range(rng.randint(0, 2)):
                if rng.random() < 0.6:
                    tgt = rng.choice(names)
                    cost = 2
                else:
                    tgt = f"r{j}"
                    cost = 1
                if budget - cost < 0:
                    break
                budget -= cost
                src = rng.choice(["0", "1", "x", "y", "x + 1", "y + x"])
                body.append(f"{tgt} := {src};")
            lines.append(f"thread T{i} {{ {' '.join(body)} }}")
        return parse("\n".join(lines))


def test_criterion_8_sc_oracle_equivalence():
    rng = random.Random(20260815)
    cfg = ExploreConfig(model=Model.SC, values=1)
    ok = True
    for _ in range(50):
        p = _random_step_program(rng)
        got = {trace_to_lines(t)
               for t in materialize(explore(p, empty_object(), cfg))}
        want = {trace_to_lines(t) for t in oracle_sc(p, cfg)}
        ok &= got == want
    report(8, "explore(SC) equals the brute-force oracle on 50 random "
              "assignment-only programs (serialized trace sets)", ok)


def test_criterion_9_wellformed_and_prefix_closed():
    runs = [
        ("fig5_client.wm", "spinlock_impl.wm", Model.TSO),
        ("fig6_client.wm", "spinlock_impl.wm", Model.RELAXED),
        ("fig6_client.wm", "spinlock_spec.wm", Model.SC),
        ("fig2_client.wm", "fig2_object.wm", Model.TSO),
    ]
    ok = True
    total = 0
    for cl, ob, model in runs:
        ts = explore(load(cl), load(ob), ExploreConfig(model=model, values=1))
        samples = sample(ts, 300, seed=11)
        total += len(samples)
        for i, t in enumerate(samples):
            ok &= check_wellformed(t).ok
            ok &= t in ts
            if i % 10 == 0:
                ok &= all(t[:k] in ts for k in range(len(t)))
    report(9, f"all {total} sampled traces are wellformed and the sampled "
              f"trace sets are prefix-closed", ok and total >= 1000)
