"""The RELAXED silent-step reduction: the per-pc access summaries it
rests on, the independence of the propagation it picks, and agreement
of reduced and unreduced builds on everything a build promises."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmtr import memmodel, refine
from wmtr.memmodel import _FENCE, _WRITE, ExploreConfig, Model, _build
from wmtr.program import accesses, empty_object, parse
from wmtr.refine import check_wmtr

from conftest import CORPUS, corpus_text, fenced_clients, object_clients


def cfg(model, **kw):
    return ExploreConfig(model=model, **kw)


def engine(p, o, c, mode):
    return memmodel.ENGINES[mode](p, o, c)


def graph_of(eng, expand):
    """The states reachable from the engine's root by `expand`, with
    their successors, in a root-first topological order."""
    root = eng.root()
    succs, order, stack = {root: None}, [], [(root, False)]
    while stack:
        s, done = stack.pop()
        if done:
            order.append(s)
            continue
        if succs[s] is not None:
            continue
        succs[s] = [s2 for _, s2 in expand(s)]
        stack.append((s, True))
        stack += [(s2, False) for s2 in succs[s] if succs.get(s2) is None]
        for s2 in succs[s]:
            succs.setdefault(s2, None)
    order.reverse()
    return succs, order


# --- per-pc access summaries ---

def made(eng, s, th, ts):
    """The shared accesses `th` makes with its next step in state `s`,
    blocked or not, as (variable, "read" | "write" | "tas"); a TAS
    reads its variable too.  A specification or chaos call touches no
    variable of the client's code."""
    if ts.call is None and not ts.pc:  # the thread has run to its end
        return set()
    if ts.call is not None and eng.in_call(ts) is None:
        return set()
    _, step, seen = eng._interpret(s, th, ts)
    out = {(v, "read") for v in seen}
    if step is not None and step.kind in (_WRITE, _FENCE) and step.arg:
        out.add((step.arg.ref, "write" if step.kind == _WRITE else "tas"))
    return out


def summary(threads, ops, th, ts, opid_pc):
    """What `accesses`, of each thread's code in `threads` and each
    operation's in `ops`, says `th` may still do in `ts`: the rest of
    its code, of an implementation call it is in (`opid_pc`), and the
    whole code of every operation it may still call."""
    parts = [threads[th][ts.pc]]
    if opid_pc is not None:
        opid, pc = opid_pc
        parts.append(ops[opid.call][pc])
    parts += [ops[name][1] for name in parts[0].calls]
    return ({(v, "read") for a in parts for v in a.reads | a.tas}
            | {(v, "write") for a in parts for v in a.writes}
            | {(v, "tas") for a in parts for v in a.tas})


def assert_summaries_cover_futures(p, o, c, mode):
    """In every reachable state of the unreduced graph, everything a
    thread does on some path from there is in its summary at its pc,
    and the engine's `_ahead` tries no variable it may still TAS, tries
    one it may still touch only with its core busy, and names its
    implementation call."""
    eng = engine(p, o, c, mode)
    succs, order = graph_of(eng, eng.actions)
    threads = {th: accesses(code) for th, code in p.code.items()}
    ops = {name: accesses(op.code) for name, op in o.ops.items()}
    future = {}
    for s in reversed(order):
        here = {th: made(eng, s, th, ts)
                for th, _, ts in eng.decoded[s & eng.mask]}
        for s2 in succs[s]:
            for th, acc in future[s2].items():
                here[th] |= acc
        future[s] = here
        tries, calls = eng._ahead(s & eng.mask)
        busy = {shift: cores for shift, _, cores in tries}
        shifts, rank = eng.mem.shifts, eng.mem.rank
        for th, _, ts in eng.decoded[s & eng.mask]:
            call = eng.in_call(ts)
            assert here[th] <= summary(threads, ops, th, ts, call)
            bit = 1 << rank[eng.coremap[th]]
            for v, kind in here[th]:
                assert busy.get(shifts[v], bit) & bit
                assert kind != "tas" or shifts[v] not in busy
            assert call is None or call[0] in calls


@settings(max_examples=40, deadline=None)
@given(fenced_clients(loops=True, conds=True))
def test_summaries_cover_what_a_client_does(text):
    assert_summaries_cover_futures(parse(text), empty_object(),
                                   cfg(Model.RELAXED, values=1), "impl")


@settings(max_examples=15, deadline=None)
@given(object_clients(objects=("spinlock_impl.wm", "fig2_object.wm")))
def test_summaries_cover_what_a_call_does(case):
    obj, text = case
    p, o = parse(text), parse(corpus_text(obj))
    assert_summaries_cover_futures(p, o, cfg(Model.RELAXED, values=1), "impl")


def test_summaries_see_past_a_loop_and_into_a_call():
    p = parse("global x = 0;\nglobal y = 0;\n"
              "thread T { while (x = 0) { y := 1; } r := call f(); }")
    o = parse("object impl {\n  var l = 1;\n"
              "  op f() { r := TAS(l, 1, 0); l := 1; return r; }\n}")
    code = p.code["T"]
    first = accesses(code)[1]
    assert (first.reads, first.writes, first.calls) == \
        ({"x"}, {"y"}, {"f"})
    assert accesses(code)[0] == (frozenset(),) * 4
    op = accesses(o.ops["f"].code)
    assert op[1].tas == {"l"} and op[1].writes == {"l"}
    assert not op[len(o.ops["f"].code) - 1].tas  # the final return


# --- independence of the chosen propagation ---

def assert_ample_commutes(p, o, c, mode):
    """At each state of the reduced graph where the build picks an ample
    propagation p, every other edge a of the state commutes with p: from
    a's successor the propagation to p's core of p's variable is still
    enabled, and taking it there reaches the state that a's burst
    reaches from p's successor.  The writer of p's record has not
    drained before p.  Returns the number of ample states."""
    eng = engine(p, o, c, mode)
    mask, mem = eng.mask, eng.mem
    succs, order = graph_of(eng, eng.reduced)
    ample = 0
    for s in order:
        d = eng.ample(s)
        if d is None:
            continue
        ample += 1
        sp = s + d
        (shift,) = [sh for sh, _ in mem.fields
                    if (s ^ sp) >> sh & mask]
        e = s >> shift & mask
        ((k, writer, _, _),) = [prop for prop in mem.propagations(e)
                                if prop[3] == sp >> shift & mask]
        assert not mem.drained(s, mem.cores[writer])
        edges = eng.actions(s)
        assert (0, sp) in edges
        after_p = set(eng.actions(sp))
        for b, sa in edges:
            if (b, sa) == (0, sp):
                continue
            ea = sa >> shift & mask
            (sap,) = [sa + ((e2 - ea) << shift)
                      for k2, _, _, e2 in mem.propagations(ea) if k2 == k]
            assert (b, sap) in after_p
    return ample


def test_ample_propagation_commutes_on_fig5():
    p = parse(corpus_text("fig5_client.wm"))
    o = parse(corpus_text("spinlock_impl.wm"))
    assert assert_ample_commutes(p, o, cfg(Model.RELAXED, values=1),
                                 "impl") > 500


def test_ample_propagation_commutes_on_iriw():
    p = parse((CORPUS / "litmus" / "iriw.wm").read_text())
    assert assert_ample_commutes(p, empty_object(),
                                 cfg(Model.RELAXED, values=1), "impl") > 10_000


# --- reduced and unreduced builds agree ---

def assert_reduction_agrees(p, o, c, mode):
    reduced = _build(p, o, c, mode)
    full = _build(p, o, c, mode, reduce=False)
    assert reduced.observables() == full.observables()
    assert reduced.empirical_pairs() == full.empirical_pairs()
    assert reduced.states <= full.states


@st.composite
def straightline_clients(draw):
    """Clients of 3-4 threads with 1-2 statements each over globals x
    and y: writes of 1 or of a register read earlier, at most three in
    all, and reads into registers, in the manner of the IRIW and WRC
    litmus tests.  Each write propagates to every core on its own, so
    the unreduced build grows fastest with the writes."""
    lines = ["global x = 0;", "global y = 0;"]
    writes = 0
    for i in range(draw(st.integers(3, 4))):
        body, regs = [], []
        for j in range(draw(st.integers(1, 2))):
            var = draw(st.sampled_from(["x", "y"]))
            if writes < 3 and draw(st.booleans()):
                writes += 1
                body.append(f"{var} := {draw(st.sampled_from(['1'] + regs))};")
            else:
                body.append(f"r{j} := {var};")
                regs.append(f"r{j}")
        lines.append(f"thread T{i} {{ {' '.join(body)} }}")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(fenced_clients(loops=True, conds=True), st.sampled_from([1, 2]))
def test_reduction_agrees_on_fenced_clients(text, values):
    p = parse(text)
    for mode in ("impl", "chaos"):
        assert_reduction_agrees(p, empty_object(),
                                cfg(Model.RELAXED, values=values), mode)


@settings(max_examples=25, deadline=None)
@given(straightline_clients())
def test_reduction_agrees_on_straightline_clients(text):
    assert_reduction_agrees(parse(text), empty_object(),
                            cfg(Model.RELAXED, values=1), "impl")


@settings(max_examples=10, deadline=None)
@given(object_clients(), st.sampled_from(["own", "chaos"]))
def test_reduction_agrees_on_object_clients(case, mode):
    obj, text = case
    p, o = parse(text), parse(corpus_text(obj))
    assert_reduction_agrees(p, o, cfg(Model.RELAXED, values=1),
                            o.kind if mode == "own" else mode)


def both_checks(p, c):
    """`check_wmtr` of spinlock_impl against spinlock_spec for client
    `p`, on reduced builds and on unreduced ones."""
    spec = parse(corpus_text("spinlock_spec.wm"))
    impl = parse(corpus_text("spinlock_impl.wm"))
    reduced = check_wmtr(p, spec, impl, c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "explore",
                   lambda p, o, c: _build(p, o, c, o.kind, reduce=False))
        full = check_wmtr(p, spec, impl, c)
    return reduced, full


@settings(max_examples=10, deadline=None)
@given(object_clients(objects=("spinlock_impl.wm",)))
def test_reduction_keeps_verdicts_and_counterexamples(case):
    reduced, full = both_checks(parse(case[1]), cfg(Model.RELAXED, values=1))
    assert reduced.verdict == full.verdict
    assert reduced.counterexample == full.counterexample


def test_reduction_keeps_the_fig6_counterexample():
    reduced, full = both_checks(parse(corpus_text("fig6_client.wm")),
                                cfg(Model.RELAXED))
    assert reduced.verdict == full.verdict == "refuted"
    assert reduced.counterexample == full.counterexample
    assert reduced.stats["impl_states"] < full.stats["impl_states"]


def test_chaos_and_sc_tso_builds_are_not_reduced():
    """`enforced_order` builds its chaos graph unreduced, and SC and TSO
    builds never reduce: no state of theirs asks for an ample edge."""
    p = parse(corpus_text("fig5_client.wm"))
    o = parse(corpus_text("spinlock_impl.wm"))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memmodel._Engine, "ample",
                   lambda self, st: calls.append(st))
        memmodel.enforced_order(p, o, cfg(Model.RELAXED, values=1))
        for model in (Model.SC, Model.TSO):
            memmodel.explore(p, o, cfg(model, values=1))
        assert not calls
        memmodel.explore(p, o, cfg(Model.RELAXED, values=1))
        assert calls


# --- IRIW, the scale gate ---

IRIW_SCRIPT = """
import json, sys
from wmtr.memmodel import ExploreConfig, Model, explore
from wmtr.program import empty_object, parse
p = parse(open(sys.argv[1]).read())
weak = {("T3", "a", 1), ("T3", "b", 0), ("T4", "c", 1), ("T4", "d", 0)}
out = {}
for model in Model:
    obs = explore(p, empty_object(), ExploreConfig(model, values=1)).observables()
    out[model.value] = [len(obs), any(weak <= set(o) for o in obs)]
print(json.dumps(out))
"""

IRIW_ADDRESS_SPACE = 500 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (IRIW_ADDRESS_SPACE, IRIW_ADDRESS_SPACE))


def test_iriw_under_each_model():
    """The reduced IRIW build fits in 500 MB of address space, set on
    its own process, within seconds: SC and TSO give 1,295 observables
    and never the weak outcome a,b,c,d = 1,0,1,0; RELAXED gives 22,317,
    the weak outcome among them.  The unreduced RELAXED build, 4.5M
    states, runs as its own CI step."""
    src = Path(memmodel.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", IRIW_SCRIPT, str(CORPUS / "litmus" / "iriw.wm")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_cap_address_space)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"sc": [1295, False], "tso": [1295, False],
                                      "relaxed": [22317, True]}
