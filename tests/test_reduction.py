"""The RELAXED storage, which propagates a record on demand: its rule on
hand-built storages, and agreement of its builds with those on the
eager storage (`storage.Eager`, `reduce=False`) on everything a build
promises; and agreement of implementation builds
whose frames merge their register-only steps with builds that take each
as a step of its own (`oracles.StepwiseImpl`)."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wmtr import memmodel, refine, storage
from wmtr.events import OpId, OpObs, ProgObs, StepId
from wmtr.memmodel import BurstTable, ExploreConfig, Model, _build
from wmtr.program import empty_object, parse, validate
from wmtr.refine import check_wmtr

from conftest import CORPUS, corpus_text, fenced_clients, object_clients
from oracles import stepwise_frames


def cfg(model, **kw):
    return ExploreConfig(model=model, **kw)


# --- the on-demand rule ---

CORES = ("c0", "c1", "c2")


def on_demand(*writes, events=(), discipline=storage.RELAXED):
    """A `discipline` storage over x and y (both 0 at first) and the
    state after `writes`, each (core, var, value, kind, observation or
    None), the i-th carried by `carrier(i)`; `events` are the events the
    storage may emit."""
    mem = discipline(CORES, {"x": 0, "y": 0}, 4, BurstTable(frozenset(events)))
    s = mem.initial()
    for i, (core, var, val, kind, obs) in enumerate(writes):
        s = mem.write(s, mem.writer(core, var, val, kind, carrier(i), obs))
    return mem, s


def carrier(i):
    return OpId("T", "w", i)


def offered(mem, s, core, var):
    """The values a load of `var` on `core` may read in `s`, one per
    choice, each read in the state that choice leads to."""
    return [mem.read(u, core, var) for u in mem.views(s, core, (var,))]


def test_a_load_offers_the_records_from_its_position_on():
    """A core that holds no record of x may read the initial value or
    any record; a core may read no record before its position, and
    reading a record moves it there."""
    mem, s = on_demand(("c0", "x", 1, "prog", None), ("c1", "x", 2, "prog", None),
                       ("c0", "x", 3, "prog", None))
    assert offered(mem, s, "c2", "x") == [0, 1, 2, 3]
    assert offered(mem, s, "c1", "x") == [2, 3]
    assert offered(mem, s, "c0", "x") == [3]
    assert offered(mem, s, "c2", "y") == [0]
    first, at1, at2, at3 = mem.views(s, "c2", ("x",))
    assert first == s
    assert offered(mem, at1, "c2", "x") == [1, 2, 3]
    assert offered(mem, at2, "c2", "x") == [2, 3]
    # the choices of two variables are their product
    both = mem.views(s, "c1", ("x", "y"))
    assert [(mem.read(u, "c1", "x"), mem.read(u, "c1", "y"))
            for u in both] == [(2, 0), (3, 0)]
    assert mem.views(s, "c2", ("x",)) == [first, at1, at2, at3]  # tabled


def test_an_emission_moves_every_core_to_its_record():
    """A pending observation is emitted at once, with no propagation
    before it, and its edge moves every core to at least its record."""
    obs = ProgObs(StepId("T0", "x:=1", 0), "x", 1)
    mem, s = on_demand(("c0", "x", 1, "prog", obs), ("c1", "x", 2, "prog", None),
                       events={obs})
    ((b, after),) = mem.moves(s)
    assert mem.bursts.values[b] == (obs,)
    assert offered(mem, after, "c2", "x") == [1, 2]
    assert offered(mem, after, "c0", "x") == [1, 2]
    assert offered(mem, after, "c1", "x") == [2]
    assert mem.moves(after) == []


def test_a_fence_publishes_its_core_s_last_records():
    """A fence of core c0 moves every core to at least c0's last record
    of each variable, and a core already past it stays; a specification
    invocation does so for program records only, and any other
    invocation moves nothing."""
    mem, s = on_demand(("c0", "x", 1, "prog", None), ("c1", "x", 2, "prog", None),
                       ("c0", "x", 3, "obj", None), ("c0", "y", 4, "prog", None),
                       ("c1", "y", 5, "prog", None))
    fenced = mem.fence(s, "c0")
    assert offered(mem, fenced, "c2", "x") == [3]
    assert offered(mem, fenced, "c2", "y") == [4, 5]
    assert offered(mem, fenced, "c1", "y") == [5]
    assert mem.fence(s, "c2") == s and mem.fence(fenced, "c0") == fenced
    invoked = mem.invoke(s, "c0", True)
    assert offered(mem, invoked, "c2", "x") == [1, 2, 3]
    assert offered(mem, invoked, "c2", "y") == [4, 5]
    assert mem.invoke(s, "c0", False) == s


@pytest.mark.parametrize("discipline", [storage.RELAXED, storage.Eager])
def test_settled_records_are_dropped_and_attach_emits_at_once(discipline):
    """Once every core is past a record that owes no observation, the
    entry no longer holds it, and a return whose last write it was
    emits its observation at once; on either storage, which moves the
    cores there by a load's choice or by propagation."""
    opid = carrier(0)
    mem, s = on_demand(("c0", "x", 1, "obj", None), ("c1", "x", 2, "prog", None),
                       discipline=discipline)
    assert mem.attach(s, "c0", "x", opid, OpObs(opid, None)) is not None
    if discipline is storage.RELAXED:
        for core in ("c0", "c2"):
            s = mem.views(s, core, ("x",))[-1]
    while mem.moves(s):  # Eager: propagate until every core holds x's last
        s = mem.moves(s)[0][1]
    recs, posv = mem.entries.values[s >> mem.shifts["x"] & mem.mask]
    assert [r[0] for r in recs] == [2] and posv == (0, 0, 0)
    assert mem.attach(s, "c0", "x", opid, OpObs(opid, None)) is None


# --- on-demand and eager builds agree ---

def assert_reduction_agrees(p, o, c, mode):
    """The on-demand and the eager build of `mode`, once they are seen
    to have the same observables and `empirical_pairs` and the first no
    more states than the second."""
    reduced = _build(p, o, c, mode)
    full = _build(p, o, c, mode, reduce=False)
    assert reduced.observables() == full.observables()
    assert reduced.empirical_pairs() == full.empirical_pairs()
    assert reduced.states <= full.states
    return reduced, full


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
    """`enforced_order` builds its chaos graph on the eager storage, and
    no `explore`, SC, TSO or RELAXED, makes an `Eager` storage."""
    p = parse(corpus_text("fig5_client.wm"))
    o = parse(corpus_text("spinlock_impl.wm"))
    made = []
    init = storage.Eager.__init__

    def tracked(self, *args):
        made.append(self)
        init(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage.Eager, "__init__", tracked)
        for model in Model:
            memmodel.explore(p, o, cfg(model, values=1))
        assert not made
        memmodel.enforced_order(p, o, cfg(Model.RELAXED, values=1))
        assert made


# --- merged frames agree with stepwise frames ---

# each model's implementation build: on-demand and eager under RELAXED
FRAME_BUILDS = {
    "sc": (Model.SC, True), "tso": (Model.TSO, True),
    "relaxed": (Model.RELAXED, True), "relaxed-eager": (Model.RELAXED, False),
}

SPEC_OF = {"spinlock_impl.wm": "spinlock_spec.wm",
           "spinlock_impl_notry.wm": "spinlock_spec_notry.wm"}


def merged_and_stepwise(p, impl, build, values=1):
    """The build of `impl` for `p` whose frames merge their register-only
    steps and the one that takes each as a step of its own, once they
    are seen to have the same observables and `empirical_pairs` and the
    first no more states than the second."""
    model, reduce = FRAME_BUILDS[build]
    c = cfg(model, values=values)
    merged = _build(p, impl, c, "impl", reduce=reduce)
    with stepwise_frames():
        stepwise = _build(p, impl, c, "impl", reduce=reduce)
    assert merged.observables() == stepwise.observables()
    assert merged.empirical_pairs() == stepwise.empirical_pairs()
    assert merged.states <= stepwise.states
    return merged, stepwise


def assert_merging_agrees(p, spec, impl, build, values=1):
    """`merged_and_stepwise`, and from `check_wmtr` against `spec` the
    same verdict, counterexample and stats but `impl_states`."""
    merged, stepwise = merged_and_stepwise(p, impl, build, values)
    model, reduce = FRAME_BUILDS[build]
    c = cfg(model, values=values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "explore",
                   lambda p, o, c: _build(p, o, c, o.kind, reduce=reduce))
        v = check_wmtr(p, spec, impl, c)
        with stepwise_frames():
            ref = check_wmtr(p, spec, impl, c)
    assert (v.verdict, v.counterexample) == (ref.verdict, ref.counterexample)
    assert v.stats.pop("impl_states") == merged.states
    assert ref.stats.pop("impl_states") == stepwise.states
    assert v.stats == ref.stats


@settings(max_examples=20, deadline=None)
@given(object_clients(objects=tuple(SPEC_OF)))
def test_merging_agrees_on_object_clients(case):
    obj, text = case
    p = parse(text)
    spec, impl = parse(corpus_text(SPEC_OF[obj])), parse(corpus_text(obj))
    for build in FRAME_BUILDS:
        assert_merging_agrees(p, spec, impl, build)


@st.composite
def register_objects(draw):
    """An implementation object over x and y whose operations f(a) and
    g() mix register-only instructions (assignments, `if`, `while` and
    `await` over registers and the parameter) with loads, stores, TAS
    and fences, and return the sum of their registers; and a client of
    two threads, the first making one or two calls and the second one,
    with literal arguments, each writing what it returns to a global."""

    def body(regs, depth):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(
                ["set", "load", "store", "tas", "fence"]
                + (["if", "while", "await"] if depth else [])))
            reg = draw(st.sampled_from(regs))
            new = f"r{len(regs)}"
            if kind == "set":
                out.append(f"{new} := {reg} + {draw(st.integers(0, 1))};")
            elif kind == "load":
                out.append(f"{new} := {draw(st.sampled_from('xy'))};")
            elif kind == "store":
                out.append(f"{draw(st.sampled_from('xy'))} := {reg};")
            elif kind == "tas":
                out.append(f"{new} := TAS(x, {draw(st.integers(0, 1))}, 1);")
            elif kind == "fence":
                out.append("fence;")
            else:
                cond = f"{reg} {draw(st.sampled_from(['=', '!=']))} 0"
                if kind == "await":
                    out.append(f"await ({cond});")
                    continue
                inner = " ".join(body(list(regs), depth - 1))
                if kind == "while":
                    out.append(f"while ({cond}) {{ {inner} }}")
                else:
                    other = " ".join(body(list(regs), depth - 1))
                    out.append(f"if ({cond}) {{ {inner} }} else {{ {other} }}")
                continue
            if kind in ("set", "load", "tas"):
                regs.append(new)
        return out

    lines = ["object impl {", "  var x = 0;", "  var y = 0;"]
    for name, regs in (("f", ["a"]), ("g", ["r0"])):
        code = body(regs, 1)
        if name == "g":
            code.insert(0, "r0 := 1;")
        lines.append(f"  op {name}({'a' if name == 'f' else ''}) {{ "
                     + " ".join(code) + f" return {' + '.join(regs)}; }}")
    lines.append("}")
    client = ["global g = 0;"]
    for i in range(2):
        calls = [f"r{j} := call " + draw(st.sampled_from(["f(1)", "f(0)", "g()"]))
                 + f"; g := r{j};" for j in range(draw(st.integers(1, 2 - i)))]
        client.append(f"thread T{i} {{ {' '.join(calls)} }}")
    return "\n".join(lines), "\n".join(client)


@settings(max_examples=25, deadline=None)
@given(register_objects())
@example(("object impl {\n  var x = 0;\n  var y = 0;\n"
          "  op f(a) { r1 := x; return a + r1; }\n"
          "  op g() { r0 := 1; x := r0; return r0; }\n}",
          "global g = 0;\nthread T0 { r0 := call f(1); g := r0; }\n"
          "thread T1 { r0 := call g(); g := r0; }"))
def test_merging_agrees_on_register_objects(case):
    """`merged_and_stepwise`, and `assert_reduction_agrees`, each pair of
    builds with the same canonical trace of the last observable, in
    place of a verdict: these objects have no specification.  Their
    operations load, store, TAS and fence on the variables the other
    thread's operations use, so the on-demand rule is checked where a
    load's choice or a fence matters, which the corpus objects of
    `test_reduction_agrees_on_object_clients` do not reach."""
    obj, text = case
    p, o = parse(text), parse(obj)
    assert validate(p, o) == []
    pairs = [merged_and_stepwise(p, o, build) for build in FRAME_BUILDS]
    pairs.append(assert_reduction_agrees(p, o, cfg(Model.RELAXED, values=1),
                                         "impl"))
    for first, second in pairs:
        t = max(first.observables())
        if t == ():
            continue  # nothing to search for
        allowed = {o for o in first.observables() if o[:len(t)] != t}
        assert (refine._minimal_refuting_trace(first, allowed)
                == refine._minimal_refuting_trace(second, allowed))


@pytest.mark.parametrize("build", sorted(FRAME_BUILDS))
@pytest.mark.parametrize("client", ["fig5_client.wm", "fig6_client.wm"])
def test_merging_agrees_on_the_corpus(client, build):
    assert_merging_agrees(parse(corpus_text(client)),
                          parse(corpus_text("spinlock_spec.wm")),
                          parse(corpus_text("spinlock_impl.wm")), build,
                          values=3)


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
