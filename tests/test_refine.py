"""Refinement verdicts on the lock corpus, and counterexample shape."""

import ast
import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings

from wmtr import memmodel, program
from wmtr.events import observable_of, trace_to_lines
from wmtr.memmodel import ExploreConfig, Model, explore
from wmtr.refine import (
    _minimal_refuting_trace, check_wmtr, refute_object_refinement,
)
from wmtr.program import parse

from conftest import (
    check_wellformed, corpus_text, object_clients, tso_spinlock_witness,
)
from oracles import accepts, least_refuting_trace, sample


def load(name):
    return parse(corpus_text(name))


def minimize(t, p, spec, impl, cfg):
    """Shrink a refuting implementation trace to the canonical minimal
    trace with the same observable behaviour."""
    ts_impl = explore(p, impl, cfg)
    if not accepts(ts_impl, t):
        raise ValueError("trace is not produced by the implementation")
    target = observable_of(t)
    if target in explore(p, spec, cfg).observables():
        raise ValueError("trace's observable behaviour does not refute")
    allowed = {o for o in ts_impl.observables()
               if o[:len(target)] != target}
    return _minimal_refuting_trace(ts_impl, allowed)


@pytest.fixture(scope="module")
def corpus():
    return {
        "fig4": load("fig4_client.wm"),
        "fig5": load("fig5_client.wm"),
        "fig5_notry": load("fig5_notry_client.wm"),
        "fig6": load("fig6_client.wm"),
        "spec": load("spinlock_spec.wm"),
        "impl": load("spinlock_impl.wm"),
        "spec_notry": load("spinlock_spec_notry.wm"),
        "impl_notry": load("spinlock_impl_notry.wm"),
    }


class TestRefuted:
    def test_tso_spinlock(self, corpus):
        v = check_wmtr(corpus["fig5"], corpus["spec"], corpus["impl"],
                       ExploreConfig(model=Model.TSO, values=1))
        assert v.verdict == "refuted" and not v.holds
        assert v.counterexample.observable == (
            ("T1", "z", 1), ("T3", "w", 0), ("T2", "y", 0))
        assert v.stats["refuting_observables"] == 2

    def test_tso_counterexample_trace_is_canonical(self, corpus):
        cfg = ExploreConfig(model=Model.TSO, values=1)
        v1 = check_wmtr(corpus["fig5"], corpus["spec"], corpus["impl"], cfg)
        v2 = check_wmtr(corpus["fig5"], corpus["spec"], corpus["impl"], cfg)
        t = v1.counterexample.trace
        assert t == v2.counterexample.trace
        assert check_wellformed(t).ok
        assert observable_of(t) == v1.counterexample.observable
        assert accepts(explore(corpus["fig5"], corpus["impl"], cfg), t)
        assert len(t) == 16

    def test_relaxed_counter(self, corpus):
        v = check_wmtr(corpus["fig6"], corpus["spec"], corpus["impl"],
                       ExploreConfig(model=Model.RELAXED))
        assert v.verdict == "refuted"
        assert v.counterexample.observable == (("T1", "y", 1), ("T2", "y", 1))

    # per model: whether it holds, implementation states, refuting
    # observables; the figures of the file's header comment
    INC3 = {Model.SC: (True, 1252, 0), Model.TSO: (True, 1837, 0),
            Model.RELAXED: (False, 20654, 54)}

    @pytest.mark.parametrize("model", list(Model))
    def test_inc3_scale_client(self, corpus, model):
        """Three lock-protected increments: the first scale client that
        refutes, under RELAXED, with an 11-event canonical counterexample
        in which T1's and T2's increments both write 1."""
        v = check_wmtr(load("scale/inc3.wm"), corpus["spec"], corpus["impl"],
                       ExploreConfig(model=model))
        assert (v.holds, v.stats["impl_states"],
                v.stats["refuting_observables"]) == self.INC3[model]
        if not v.holds:
            t = v.counterexample.trace
            assert len(t) == 11
            assert v.counterexample.observable == (("T1", "y", 1),
                                                   ("T2", "y", 1))
            assert hashlib.sha256(trace_to_lines(t).encode()).hexdigest() == (
                "5458e5be5c38f93e0f7a42f9122f31b5"
                "48a1cdcd25c30e551ffbccdd1facc542")

    def test_refute_over_client_list_stops_at_first(self, corpus):
        name, v = refute_object_refinement(
            corpus["spec"], corpus["impl"],
            [("fig4", corpus["fig4"]), ("fig5", corpus["fig5"])],
            ExploreConfig(model=Model.TSO, values=1))
        assert name == "fig5"
        assert v.verdict == "refuted"


class TestHolds:
    def test_spec_refines_itself(self, corpus):
        for model in Model:
            v = check_wmtr(corpus["fig6"], corpus["spec"], corpus["spec"],
                           ExploreConfig(model=model))
            assert v.verdict == "holds-within-bound"
            assert v.counterexample is None

    @pytest.mark.parametrize("client", ["fig4", "fig5_notry", "fig6"])
    def test_tso_lock_without_tryacquire(self, corpus, client):
        v = check_wmtr(corpus[client], corpus["spec_notry"],
                       corpus["impl_notry"], ExploreConfig(model=Model.TSO))
        assert v.holds

    @pytest.mark.parametrize("client,spec,impl", [
        ("fig4", "spec", "impl"),
        ("fig5", "spec", "impl"),
        ("fig6", "spec", "impl"),
        ("fig5_notry", "spec_notry", "impl_notry"),
    ])
    def test_sc_corpus(self, corpus, client, spec, impl):
        v = check_wmtr(corpus[client], corpus[spec], corpus[impl],
                       ExploreConfig(model=Model.SC))
        assert v.holds

    def test_relaxed_single_winner_client(self, corpus):
        v = check_wmtr(corpus["fig4"], corpus["spec"], corpus["impl"],
                       ExploreConfig(model=Model.RELAXED))
        assert v.holds

    @pytest.mark.parametrize("model", list(Model))
    def test_lock3_scale_client(self, corpus, model):
        """The three-thread scale client of `corpus/scale` holds under
        every model, with the 16 observables of its header comment."""
        v = check_wmtr(load("scale/lock3.wm"), corpus["spec"], corpus["impl"],
                       ExploreConfig(model=model))
        assert v.holds
        assert v.stats["spec_observables"] == v.stats["impl_observables"] == 16

    # per model: specification and implementation states, the figures of
    # the file's header comment; RELAXED (1,421,720 implementation
    # states) is too large for this suite
    INC4 = {Model.SC: (240, 18760), Model.TSO: (320, 27628)}

    @pytest.mark.parametrize("model", [Model.SC, Model.TSO])
    def test_inc4_scale_client(self, corpus, model):
        """Four lock-protected increments hold under SC and TSO at values
        3, with 65 observables."""
        v = check_wmtr(load("scale/inc4.wm"), corpus["spec"], corpus["impl"],
                       ExploreConfig(model=model, values=3))
        assert v.holds
        assert (v.stats["spec_states"], v.stats["impl_states"]) == \
            self.INC4[model]
        assert v.stats["spec_observables"] == v.stats["impl_observables"] == 65

    def test_aggregate_stats_when_all_hold(self, corpus):
        name, v = refute_object_refinement(
            corpus["spec_notry"], corpus["impl_notry"],
            [("fig4", corpus["fig4"]), ("fig6", corpus["fig6"])],
            ExploreConfig(model=Model.TSO))
        assert name is None and v.holds
        assert set(v.stats["clients"]) == {"fig4", "fig6"}


class TestMinimize:
    def test_witness_shrinks_to_canonical(self, corpus):
        cfg = ExploreConfig(model=Model.TSO, values=1)
        m = minimize(tso_spinlock_witness(), corpus["fig5"], corpus["spec"],
                     corpus["impl"], cfg)
        assert observable_of(m) == observable_of(tso_spinlock_witness())
        assert len(m) <= 16
        assert accepts(explore(corpus["fig5"], corpus["impl"], cfg), m)

    def test_rejects_foreign_trace(self, corpus):
        cfg = ExploreConfig(model=Model.SC, values=1)
        with pytest.raises(ValueError, match="not produced"):
            minimize(tso_spinlock_witness(), corpus["fig5"], corpus["spec"],
                     corpus["impl"], cfg)

    def test_rejects_non_refuting_trace(self, corpus):
        cfg = ExploreConfig(model=Model.TSO, values=1)
        ts = explore(corpus["fig5"], corpus["impl"], cfg)
        t = next(t for t in sample(ts, 50, seed=1) if len(t) <= 2)
        with pytest.raises(ValueError, match="does not refute"):
            minimize(t, corpus["fig5"], corpus["spec"], corpus["impl"], cfg)


class TestValidation:
    def test_spec_kind_required(self, corpus):
        with pytest.raises(ValueError, match="specification"):
            check_wmtr(corpus["fig5"], corpus["impl"], corpus["impl"],
                       ExploreConfig(model=Model.TSO))

    # one input per message, each the only error of its pair
    @pytest.mark.parametrize("client, obj, message", [
        ("thread T0 { r1 := q + 1; }", "",
         "thread T0: undeclared variable 'q'"),
        ("thread T0 { call f(); }", "op f() { call g(); } op g() { }",
         "op f: operations may not call operations"),
        ("global g = 0;\nthread T0 { g := call f(); }", "op f() { return 1; }",
         "thread T0: call result target 'g' is not a register"),
        ("thread T0 { call f(); }",
         "op f() { rt := TAS(q, 0, 1); return rt; }",
         "op f: undeclared variable 'q'"),
        ("thread T0 { call f(); }", "op f() { x := TAS(x, 0, 1); }",
         "op f: TAS result target 'x' is not a register"),
    ], ids=["undeclared-name", "op-calls-op", "call-result", "tas-var",
            "tas-result"])
    def test_validation_message(self, client, obj, message):
        o = parse(f"object impl {{\n  var x = 0;\n  {obj}\n}}")
        assert program.validate(parse(client), o) == [message]
        with pytest.raises(ValueError) as e:
            explore(parse(client), o, ExploreConfig(model=Model.SC))
        assert str(e.value) == message

    def test_validation_messages_in_order(self):
        """Several errors in one input come out in a fixed order: the
        name overlap, then thread by thread its scan's errors before
        those of its calls, then operation by operation."""
        o = parse("object impl {\n  var x = 0;\n"
                  "  op f() { call g(); rt := TAS(q, 0, 1); "
                  "x := TAS(x, 0, 1); return rt; }\n"
                  "  op g() { return s; }\n}")
        p = parse("global g = 0;\nglobal x = 2;\n"
                  "thread T0 { r1 := q + 1; g := call f(); call h(); }\n"
                  "thread T1 { if (g = 1) { g := call g(); } r2 := s; }\n")
        assert program.validate(p, o) == [
            "program globals and object variables must be disjoint: x",
            "thread T0: undeclared variable 'q'",
            "thread T0: call result target 'g' is not a register",
            "thread T0: unknown operation 'h'",
            "thread T1: call result target 'g' is not a register",
            "thread T1: undeclared variable 's'",
            "op f: operations may not call operations",
            "op f: undeclared variable 'q'",
            "op f: TAS result target 'x' is not a register",
            "op g: undeclared variable 's'",
        ]

    def test_a_check_walks_the_client_once(self, corpus, monkeypatch):
        """Each build of a check still runs `validate` and
        `events_of_program`; the client's and the objects' scans ran
        when they were parsed, and the client's bounded walk runs once
        per bounds, for both builds and for any later check.  What the
        kept facts give is what a freshly parsed program's do."""
        p, spec, impl = load("fig5_client.wm"), corpus["spec"], corpus["impl"]
        calls = {"validate": 0, "events_of_program": 0, "scan": 0, "walk": 0}

        def counted(name, f):
            def run(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return run

        for name in ("validate", "events_of_program"):
            monkeypatch.setattr(memmodel, name,
                                counted(name, getattr(memmodel, name)))
        monkeypatch.setattr(program, "_walk", counted("walk", program._walk))
        monkeypatch.setattr(program, "_scan_stmts",
                            counted("scan", program._scan_stmts))
        cfg = ExploreConfig(model=Model.TSO, values=1)
        check_wmtr(p, spec, impl, cfg)
        assert calls == {"validate": 2, "events_of_program": 2, "scan": 0,
                         "walk": 1}
        check_wmtr(p, spec, impl, cfg)
        assert calls["walk"] == 1
        monkeypatch.undo()
        fresh = load("fig5_client.wm")
        for obj in (spec, impl):
            assert program.validate(p, obj) == program.validate(fresh, obj)
            assert (program.events_of_program(p, obj, 2, 1)
                    == program.events_of_program(fresh, obj, 2, 1))
        # kept errors come out the same on every call
        obj = ("object impl {\n  var x = 0;\n"
               "  op f() { call g(); return 1; x := 1; }\n}")
        bad = "global x = 0;\nthread T0 { r1 := q; g := call f(); }"
        p, o = parse(bad), parse(obj)
        first = program.validate(p, o)
        assert len(first) == 5
        assert (program.validate(p, o) == first
                == program.validate(parse(bad), parse(obj)))


def test_readme_library_block_prints_its_comments(capsys, monkeypatch):
    """README's `## Library` block, run from the repository's root,
    prints what the comments on its two `print` lines say."""
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shown = re.findall(r"^print\(.*?\)\s+# (.*)$", block, re.M)
    assert shown == ['"refuted"',
                     '(("T1","z",1), ("T3","w",0), ("T2","y",0))']
    monkeypatch.chdir(root)
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == [
        str(ast.literal_eval(c)) for c in shown]


# `spinlock_impl` with its TAS split into a read and a write, so two
# threads may both take the lock
RACY_IMPL = """object impl {
  var x = 1;
  op acquire() { await (x = 1); x := 0; }
  op release() { x := 1; }
  op tryAcquire() { rt := x; if (rt = 1) { x := 0; } return rt; }
}"""


@settings(max_examples=10, deadline=None)
@given(object_clients(("spinlock_spec.wm",)))
@example(("spinlock_spec.wm", "global g = 0;\n"
          "thread T0 { r0 := call tryAcquire(); g := r0; }\n"
          "thread T1 { r0 := call tryAcquire(); g := r0; }"))
def test_random_refutations_get_the_canonical_counterexample(client):
    """A refuted verdict's counterexample is the least refuting trace by
    (length, event JSON) of the implementation trace set.  A refuting
    trace longer than the counterexample is larger in that order, so the
    least of the traces up to its length is the least of them all."""
    p = parse(client[1])
    spec, impl = load("spinlock_spec.wm"), parse(RACY_IMPL)
    for model in Model:
        cfg = ExploreConfig(model=model, values=1)
        v = check_wmtr(p, spec, impl, cfg)
        if v.holds:
            event(f"{model.value}: holds")
            continue
        ts_impl = explore(p, impl, cfg)
        bad = ts_impl.observables() - explore(p, spec, cfg).observables()
        canonical = least_refuting_trace(ts_impl, bad,
                                         len(v.counterexample.trace))
        assert v.counterexample.trace == canonical, model
        event(f"{model.value}: refuted, compared")


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_canonical_counterexample_stops_at_the_first_refuting_observation(
        model):
    """Both threads take the racy lock and publish it in `g`; T0 then
    sets `h`, so the refuting observable in which both publish 1 is
    extended by a longer refuting one.  The search ends at the first
    observation outside the specification's observables, which gives
    the least refuting trace of all."""
    p = parse("global g = 0;\nglobal h = 0;\n"
              "thread T0 { r0 := call tryAcquire(); g := r0; h := 1; }\n"
              "thread T1 { r0 := call tryAcquire(); g := r0; }")
    spec, impl = load("spinlock_spec.wm"), parse(RACY_IMPL)
    cfg = ExploreConfig(model=model, values=1)
    v = check_wmtr(p, spec, impl, cfg)
    ts_impl = explore(p, impl, cfg)
    bad = ts_impl.observables() - explore(p, spec, cfg).observables()
    o = v.counterexample.observable
    assert o == (("T0", "g", 1), ("T1", "g", 1))
    assert any(len(d) > len(o) and d[:len(o)] == o for d in bad)
    assert v.counterexample.trace == least_refuting_trace(
        ts_impl, bad, len(v.counterexample.trace))
