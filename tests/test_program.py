"""Parser, printer, static checks, and the bounded event set."""

import re
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, strategies as st

from conftest import (
    corpus_text, relaxed_counter_witness, tso_spinlock_witness, writes_client,
)
from wmtr import program
from wmtr.events import Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId
from wmtr.memmodel import ExploreConfig, Model, explore
from wmtr.program import (
    RETURN, Assign, Await, BinOp, Call, ClientProgram, Cmp, Expr, Fence, If,
    Lit, Name, ObjectDef, ParseError, Return, Stmt, Tas, While, empty_object,
    events_of_program, expr_str, label_of, op_outputs, parse, reachable,
    validate,
)

CLIENTS = ["fig2_client.wm", "fig4_client.wm", "fig5_client.wm",
           "fig5_notry_client.wm", "fig6_client.wm"]
OBJECTS = ["fig2_object.wm", "spinlock_spec.wm", "spinlock_impl.wm",
           "spinlock_spec_notry.wm", "spinlock_impl_notry.wm"]


def load(name):
    return parse(corpus_text(name))


class TestParse:
    def test_minimal_client(self):
        p = parse("global x = 0;\nthread T {\n  x := 1;\n}\n")
        assert isinstance(p, ClientProgram)
        assert p.globals == {"x": 0}
        assert p.threads == {"T": (Assign("x", Lit(1)),)}
        assert p.coremap == {"T": "T"}

    def test_core_annotation(self):
        p = parse("thread T core c0 {\n  fence;\n}")
        assert p.coremap == {"T": "c0"}
        assert p.threads["T"] == (Fence(),)

    def test_fig5_client(self):
        p = load("fig5_client.wm")
        assert sorted(p.threads) == ["T1", "T2", "T3"]
        assert p.threads["T1"] == (Assign("z", Lit(1)),)
        assert p.threads["T2"] == (Call("acquire"), Call("release"),
                                   Assign("y", Name("z")))
        assert p.threads["T3"] == (Await(Cmp("=", Name("z"), Lit(1))),
                                   Call("tryAcquire", None, "rt"),
                                   Assign("w", Name("rt")))

    def test_spinlock_impl(self):
        o = load("spinlock_impl.wm")
        assert isinstance(o, ObjectDef)
        assert o.kind == "impl"
        assert o.shared == {"x": 1}
        acq = o.ops["acquire"].body
        assert isinstance(acq[0], While)
        assert acq[0].body[0] == Tas("rt", "x", 1, 0)
        assert acq[0].body[1] == If(Cmp("=", Name("rt"), Lit(1)), (Return(None),))
        assert o.ops["tryAcquire"].body[-1] == Return(Name("rt"))

    def test_expression_left_assoc(self):
        p = parse("global a = 0;\nthread T {\n  a := a + 1 - a;\n}")
        assert p.threads["T"][0].expr == BinOp("-", BinOp("+", Name("a"), Lit(1)),
                                               Name("a"))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as e:
            parse("thread T {\n  r1 := call acquire(;\n}")
        assert str(e.value).startswith("2:")
        assert "expected" in str(e.value)

    def test_readme_examples_parse(self):
        """Every example block of README's "Input language" section is
        in the language the parser reads."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Input language", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```text\n(.*?)```", section, re.DOTALL)
        kinds = [type(parse(block)) for block in blocks]
        assert kinds == [ClientProgram, ObjectDef, ObjectDef]
        assert [parse(b).kind for b in blocks[1:]] == ["spec", "impl"]

    def test_duplicate_thread_rejected(self):
        with pytest.raises(ParseError, match="duplicate thread"):
            parse("thread T {\n}\nthread T {\n}")

    # a duplicate name is reported where it stands, whatever declares it
    @pytest.mark.parametrize("text,message", [
        ("global x = 0;\nglobal x = 1;\nthread T { }",
         "2:8: duplicate global 'x'"),
        ("object impl {\n  var x = 0;\n  var x = 1;\n  op f() { }\n}",
         "3:7: duplicate var 'x'"),
        ("thread T {\n}\nthread U {\n}\nthread T {\n}",
         "5:8: duplicate thread 'T'"),
        ("object impl {\n  op f() { }\n  op f() { }\n}",
         "3:6: duplicate operation 'f'"),
    ], ids=["global", "var", "thread", "operation"])
    def test_duplicate_name_rejected_at_its_position(self, text, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message

    # the lexer skips whitespace and comments as part of each token, so a
    # position after them must still count their lines and columns
    @pytest.mark.parametrize("text,message", [
        ("global x = 0; // the flag\n  x @ 1;",
         "2:5: unexpected character '@'"),
        ("global x = 0;\n// one\n\t// two\n#",
         "4:1: unexpected character '#'"),
        ("global x = 0; // no thread follows",
         "1:35: expected 'thread', found 'end of input'"),
        ("global x = 0; // no thread follows\n  ",
         "2:3: expected 'thread', found 'end of input'"),
    ], ids=["char-after-comment", "char-after-comments", "end-after-comment",
            "end-after-comment-line"])
    def test_error_position_after_a_comment(self, text, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message

    # the limits themselves: blocks nested 100 deep, the body's own
    # included, and an expression of 200 terms parse and compile (and a
    # client's walk runs) in a thread and in an operation; one level or
    # one term more is refused
    @pytest.mark.parametrize("wrap", [
        lambda body: f"global x = 0;\nthread T0 {{ {body} }}",
        lambda body: f"object impl {{\n  var x = 0;\n  op f() {{ {body} }}\n}}",
    ], ids=["thread", "operation"])
    def test_input_at_the_limits_parses(self, wrap):
        nested = "if (x = 0) { " * 99 + "x := 1; " + "} " * 99
        terms = "x := " + " + ".join(["x"] * 200) + ";"
        for body in (nested, terms):
            made = parse(wrap(body))
            if isinstance(made, ClientProgram):
                events_of_program(made, empty_object(), bound=1, values=1)
        for body in ("if (x = 0) { " + nested + "} ",
                     terms[:-1] + " - 1;"):
            with pytest.raises(ParseError, match="more than"):
                parse(wrap(body))

    def test_return_outside_op_rejected(self):
        with pytest.raises(ParseError, match="operation bodies"):
            parse("thread T {\n  return 1;\n}")

    def test_tas_outside_op_rejected(self):
        with pytest.raises(ParseError, match="operation bodies"):
            parse("thread T {\n  rt := TAS(x, 1, 0);\n}")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("thread T { x := ; }")
        with pytest.raises(ParseError):
            parse("object neither { }")

    # a missing token, a statement that is none and a condition with no
    # comparison, in each place a condition stands, are each reported
    # where they stand
    @pytest.mark.parametrize("text,message", [
        ("global x = ;", "1:12: expected 'INT', found ';'"),
        ("object spec { op f() { return 1 } }",
         "1:33: expected ';', found '}'"),
        ("thread T { 5; }", "1:12: expected a statement, found '5'"),
        ("global x = 0;\nthread T { await (x); }",
         "2:20: expected '=' or '!=', found ')'"),
        ("global x = 0; thread T { if (x) { } }",
         "1:31: expected '=' or '!=', found ')'"),
        ("global x = 0; thread T { while (x) { } }",
         "1:34: expected '=' or '!=', found ')'"),
    ], ids=["expected-int", "expected-semicolon", "statement", "await-cond",
            "if-cond", "while-cond"])
    def test_parse_error_message(self, text, message):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message


# --- a printer whose output parses back to the same tree ---

def _expr_src(e: Expr) -> str:
    if isinstance(e, BinOp):
        return f"{_expr_src(e.left)} {e.op} {_expr_src(e.right)}"
    return expr_str(e)


def _cond_src(c: Cmp) -> str:
    return f"{_expr_src(c.left)} {c.op} {_expr_src(c.right)}"


def _stmt_lines(s: Stmt, depth: int, out: List[str]) -> None:
    pad = "  " * depth
    if isinstance(s, Assign):
        out.append(f"{pad}{s.target} := {_expr_src(s.expr)};")
    elif isinstance(s, Await):
        out.append(f"{pad}await ({_cond_src(s.cond)});")
    elif isinstance(s, Call):
        head = f"{s.result} := call" if s.result else "call"
        arg = _expr_src(s.arg) if s.arg is not None else ""
        out.append(f"{pad}{head} {s.op}({arg});")
    elif isinstance(s, If):
        out.append(f"{pad}if ({_cond_src(s.cond)}) {{")
        for t in s.then:
            _stmt_lines(t, depth + 1, out)
        if s.orelse:
            out.append(f"{pad}}} else {{")
            for t in s.orelse:
                _stmt_lines(t, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, While):
        out.append(f"{pad}while ({_cond_src(s.cond)}) {{")
        for t in s.body:
            _stmt_lines(t, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, Fence):
        out.append(f"{pad}fence;")
    elif isinstance(s, Return):
        out.append(f"{pad}return {_expr_src(s.expr)};" if s.expr is not None
                   else f"{pad}return;")
    elif isinstance(s, Tas):
        out.append(f"{pad}{s.result} := TAS({s.var}, {s.test}, {s.swap});")
    else:
        raise TypeError(s)


def print_program(p: ClientProgram) -> str:
    out = [f"global {v} = {n};" for v, n in p.globals.items()]
    for th, stmts in p.threads.items():
        ann = "" if p.coremap[th] == th else f" core {p.coremap[th]}"
        out.append(f"thread {th}{ann} {{")
        for s in stmts:
            _stmt_lines(s, 1, out)
        out.append("}")
    return "\n".join(out) + "\n"


def print_object(o: ObjectDef) -> str:
    out = [f"object {o.kind} {{"]
    for v, n in o.shared.items():
        out.append(f"  var {v} = {n};")
    for op in o.ops.values():
        out.append(f"  op {op.name}({op.param or ''}) {{")
        for s in op.body:
            _stmt_lines(s, 2, out)
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


class TestPrintRoundtrip:
    @pytest.mark.parametrize("name", CLIENTS + OBJECTS)
    def test_corpus_roundtrip(self, name):
        ast = load(name)
        text = (print_program if isinstance(ast, ClientProgram)
                else print_object)(ast)
        assert parse(text) == ast

    @given(st.data())
    def test_random_client_roundtrip(self, data):
        p = data.draw(clients())
        assert parse(print_program(p)) == p


# small AST generator for the printer round-trip

def exprs(declared):
    # the grammar has no parentheses, so printable trees are exactly
    # the left-associated ones the parser itself builds
    leaf = st.one_of(st.integers(0, 9).map(Lit),
                     st.sampled_from(sorted(declared)).map(Name))
    return st.recursive(
        leaf, lambda e: st.tuples(st.sampled_from("+-"), e, leaf)
        .map(lambda t: BinOp(t[0], t[1], t[2])), max_leaves=4)


def conds(declared):
    e = exprs(declared)
    return st.tuples(st.sampled_from(["=", "!="]), e, e).map(lambda t: Cmp(*t))


def stmts(declared):
    targets = st.sampled_from(sorted(declared) + ["r0", "r1"])
    base = st.one_of(
        st.tuples(targets, exprs(declared)).map(lambda t: Assign(*t)),
        conds(declared).map(Await),
        st.just(Fence()),
    )
    return st.recursive(
        base,
        lambda s: st.one_of(
            st.tuples(conds(declared), st.lists(s, max_size=2).map(tuple),
                      st.lists(s, max_size=2).map(tuple)).map(lambda t: If(*t)),
            st.tuples(conds(declared), st.lists(s, max_size=2).map(tuple))
            .map(lambda t: While(*t))),
        max_leaves=6)


@st.composite
def clients(draw):
    names = draw(st.sets(st.sampled_from(["x", "y", "z"]), min_size=1))
    globals_ = {n: draw(st.integers(0, 3)) for n in sorted(names)}
    threads = {}
    coremap = {}
    for i in range(draw(st.integers(1, 2))):
        tn = f"T{i + 1}"
        threads[tn] = tuple(draw(st.lists(stmts(names), max_size=3)))
        coremap[tn] = draw(st.sampled_from([tn, "c0"]))
    return ClientProgram(globals_, threads, coremap)


class TestValidate:
    def test_corpus_pairs_clean(self):
        pairs = [("fig2_client.wm", "fig2_object.wm"),
                 ("fig4_client.wm", "spinlock_spec.wm"),
                 ("fig4_client.wm", "spinlock_impl.wm"),
                 ("fig4_client.wm", "spinlock_spec_notry.wm"),
                 ("fig4_client.wm", "spinlock_impl_notry.wm"),
                 ("fig5_client.wm", "spinlock_spec.wm"),
                 ("fig5_client.wm", "spinlock_impl.wm"),
                 ("fig5_notry_client.wm", "spinlock_spec_notry.wm"),
                 ("fig5_notry_client.wm", "spinlock_impl_notry.wm"),
                 ("fig6_client.wm", "spinlock_spec.wm"),
                 ("fig6_client.wm", "spinlock_impl.wm"),
                 ("fig6_client.wm", "spinlock_spec_notry.wm"),
                 ("fig6_client.wm", "spinlock_impl_notry.wm")]
        for c, o in pairs:
            assert validate(load(c), load(o)) == [], (c, o)

    def test_spec_tas_rejected(self):
        o = parse("object spec {\n  var x = 0;\n  op f() {\n"
                  "    rt := TAS(x, 0, 1);\n    return rt;\n  }\n}")
        errs = validate(ClientProgram({}, {"T": (Call("f", None, "rv"),)},
                                      {"T": "T"}), o)
        assert any("primitive not allowed in specification" in e for e in errs)

    def test_spec_loop_rejected(self):
        o = parse("object spec {\n  var x = 0;\n  op f() {\n"
                  "    while (x = 0) {\n    }\n  }\n}")
        errs = validate(ClientProgram({}, {"T": (Call("f"),)}, {"T": "T"}), o)
        assert any("loops are not allowed" in e for e in errs)

    def test_unknown_operation(self):
        p = parse("thread T {\n  call nosuch();\n}")
        errs = validate(p, load("spinlock_impl.wm"))
        assert any("unknown operation 'nosuch'" in e for e in errs)

    def test_register_read_before_write(self):
        p = parse("global x = 0;\nthread T {\n  x := rq;\n}")
        errs = validate(p, load("spinlock_impl.wm"))
        assert any("read before write" in e for e in errs)

    def test_register_defined_in_one_branch_only(self):
        p = parse("global x = 0;\nthread T {\n  if (x = 0) {\n    rq := 1;\n"
                  "  }\n  x := rq;\n}")
        errs = validate(p, load("spinlock_impl.wm"))
        assert any("read before write" in e for e in errs)

    def test_undeclared_variable(self):
        p = parse("thread T {\n  q := 1;\n}")
        errs = validate(p, load("spinlock_impl.wm"))
        assert any("undeclared variable 'q'" in e for e in errs)

    def test_namespace_overlap(self):
        p = parse("global x = 0;\nthread T {\n  x := 1;\n}")
        errs = validate(p, load("spinlock_impl.wm"))
        assert any("must be disjoint" in e for e in errs)

    def test_call_arity(self):
        o = parse("object impl {\n  var s = 0;\n  op put(v) {\n    s := v;\n"
                  "  }\n  op get() {\n    return s;\n  }\n}")
        p1 = parse("thread T {\n  call put();\n}")
        p2 = parse("thread T {\n  call get(3);\n}")
        assert any("needs an argument" in e for e in validate(p1, o))
        assert any("takes no argument" in e for e in validate(p2, o))

    def test_stored_result_must_be_a_value(self):
        impl = load("spinlock_impl.wm")
        p = parse("global g = 0;\n"
                  "thread T0 { r0 := call acquire(); g := r0; }")
        assert validate(p, impl) == [
            "thread T0: operation 'acquire' may return no value into "
            "register 'r0'"]
        # an operation that returns a value on some paths only
        o = parse("object impl {\n  var x = 0;\n  op f() {\n"
                  "    if (x = 1) {\n      return 1;\n    }\n  }\n}")
        assert validate(parse("thread T { rf := call f(); }"), o) == [
            "thread T: operation 'f' may return no value into register 'rf'"]
        # a discarded result, or one that is always a value, is fine
        assert validate(parse("thread T0 { call acquire(); }"), impl) == []
        assert validate(parse("global g = 0;\nthread T0 { "
                              "r0 := call tryAcquire(); g := r0; }"), impl) == []

    def test_statement_after_a_return_rejected(self):
        """Code no path reaches is rejected, so an operation's returns
        and its fall-through are what its reachable code says."""
        p = parse("thread T { call f(); }")

        def errors(body):
            return validate(p, parse("object impl {\n  var x = 0;\n"
                                     f"  op f() {{ {body} }}\n}}"))

        for dead in ("return 1; x := 1;",
                     "if (x = 1) { return 1; } else { return 0; } x := 1;",
                     "while (x = 1) { return; x := 1; }"):
            assert errors(dead) == ["op f: statement after a return never runs"]
        # a loop's re-test and a block's closing jump need not be reached
        for live in ("while (x = 1) { return 1; }",
                     "if (x = 1) { return 1; } else { return 0; }",
                     "if (x = 1) { return 1; } x := 1;"):
            assert errors(live) == []

    def test_call_arg_must_be_literal(self):
        o = parse("object impl {\n  var s = 0;\n  op put(v) {\n    s := v;\n  }\n}")
        p = parse("global g = 2;\nthread T {\n  call put(g);\n}")
        assert any("must be literals" in e for e in validate(p, o))

    # a thread body built without the parser is held to the parser's
    # rules: a return or a TAS is reported in its words, not left for
    # the exploration to trip on
    @pytest.mark.parametrize("body,message", [
        ((Return(None),), "'return' is only allowed in operation bodies"),
        ((Tas("rt", "x", 0, 1),), "TAS is only allowed in operation bodies"),
        ((Assign("r1", Lit(1)), Return(Name("r1"))),
         "'return' is only allowed in operation bodies"),
    ], ids=["return", "tas", "assign-then-return"])
    def test_thread_body_statements_of_operations_rejected(self, body, message):
        p = ClientProgram({"x": 0}, {"T": body}, {"T": "T"})
        assert validate(p, empty_object()) == [f"thread T: {message}"]

    # the parser puts every thread on a core and names no other thread;
    # a program built without it is held to the same core map
    @pytest.mark.parametrize("coremap,messages", [
        ({}, ["thread T: no core"]),
        ({"T": "c0", "U": "c1"}, ["core map names unknown thread 'U'"]),
        ({"U": "c0"}, ["core map names unknown thread 'U'",
                       "thread T: no core"]),
    ], ids=["missing", "unknown", "renamed"])
    def test_core_map_must_name_exactly_the_threads(self, coremap, messages):
        p = ClientProgram({"x": 0}, {"T": (Assign("x", Lit(1)),)}, coremap)
        assert validate(p, empty_object()) == messages
        with pytest.raises(ValueError, match=re.escape(messages[0])):
            explore(p, empty_object(), ExploreConfig(Model.SC))


class TestLabels:
    def test_compact_forms(self):
        assert label_of(Assign("y", BinOp("+", Name("y"), Lit(1)))) == "y:=y+1"
        assert label_of(Assign("x", Name("rA"))) == "x:=rA"
        assert label_of(Await(Cmp("=", Name("z"), Lit(1)))) == "await(z=1)"
        assert label_of(While(Cmp("=", Name("x"), Lit(0)), ())) == "while(x=0)"
        assert label_of(If(Cmp("!=", Name("x"), Lit(2)), ())) == "if(x!=2)"
        assert label_of(Fence()) == "fence"


class TestReachable:
    def test_return_ends_a_path(self):
        o = parse("object impl {\n  var x = 0;\n"
                  "  op f() { if (x = 1) { return 1; } return 0; }\n"
                  "  op g() { while (x = 1) { } }\n}")
        f, g = o.ops["f"].code, o.ops["g"].code
        live = reachable(f)
        assert 0 not in live  # every path returns a value
        assert {f[pc][2] for pc in live if f[pc][0] == RETURN} == {Lit(1), Lit(0)}
        # a loop may run its body or leave, then control runs off the end
        assert reachable(g) == frozenset(range(len(g)))

    @pytest.mark.parametrize("name", OBJECTS)
    def test_an_object_works_out_its_reachable_pcs_once(self, name,
                                                        monkeypatch):
        """Each operation's reachable pcs are worked out when its object
        is made; validating and extracting the event set of every client
        against it, and its operations' outputs, walk no code again."""
        o = load(name)
        assert all(op.live == reachable(op.code) for op in o.ops.values())
        walks = []
        monkeypatch.setattr(program, "reachable", walks.append)
        for client in CLIENTS:
            p = load(client)
            if not validate(p, o):
                events_of_program(p, o)
        for op in o.ops.values():
            op_outputs(op, 3)
        assert walks == []


class TestOpOutputs:
    def test_void_ops(self):
        impl = load("spinlock_impl.wm")
        assert op_outputs(impl.ops["acquire"], 3) == frozenset({None})
        assert op_outputs(impl.ops["release"], 3) == frozenset({None})

    def test_value_ops_cover_the_domain(self):
        impl = load("spinlock_impl.wm")
        spec = load("spinlock_spec.wm")
        assert op_outputs(impl.ops["tryAcquire"], 3) == frozenset({0, 1, 2, 3})
        assert op_outputs(spec.ops["tryAcquire"], 1) == frozenset({0, 1})

    def test_value_return_on_one_path_only(self):
        o = parse("object impl {\n  var x = 0;\n  op f() {\n"
                  "    if (x = 1) {\n      return 1;\n    }\n  }\n}")
        assert op_outputs(o.ops["f"], 1) == frozenset({None, 0, 1})


class TestEventSet:
    def test_single_probe_closure(self):
        # over the two-value domain, exactly the invocation plus a
        # response and observation per possible output
        p = parse("thread T {\n  rt := call tryAcquire();\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"), bound=2, values=1)
        k = OpId("T", "tryAcquire", 0)
        assert ev == frozenset({Inv(k), Res(k, 0), Res(k, 1),
                                OpObs(k, 0), OpObs(k, 1)})

    def test_void_call_closure(self):
        p = parse("thread T {\n  call release();\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"), bound=2, values=3)
        k = OpId("T", "release", 0)
        assert ev == frozenset({Inv(k), Res(k, None), OpObs(k, None)})

    def test_literal_write_single_value(self):
        p = parse("global z = 0;\nthread T {\n  z := 1;\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"), values=3)
        sid = StepId("T", "z:=1", 0)
        assert ev == frozenset({ProgStep(sid, ("z", 1)), ProgObs(sid, "z", 1)})

    def test_register_fed_write_covers_domain(self):
        p = parse("global w = 0;\nthread T {\n  rt := call tryAcquire();\n"
                  "  w := rt;\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"), values=2)
        sid = StepId("T", "w:=rt", 0)
        for v in (0, 1, 2):
            assert ProgStep(sid, ("w", v)) in ev
            assert ProgObs(sid, "w", v) in ev
        assert ProgStep(sid, ("w", 3)) not in ev

    def test_witness_events_lie_in_their_universes(self):
        impl = load("spinlock_impl.wm")
        fig5 = events_of_program(load("fig5_client.wm"), impl)
        for e in tso_spinlock_witness():
            assert e in fig5, e
        fig6 = events_of_program(load("fig6_client.wm"), impl)
        for e in relaxed_counter_witness():
            assert e in fig6, e

    def test_fig2_universe(self):
        ev = events_of_program(load("fig2_client.wm"), load("fig2_object.wm"),
                               values=3)
        a = OpId("T1", "A", 0)
        b = OpId("T1", "B", 1)
        c = OpId("T2", "C", 0)
        assert Inv(a) in ev and Inv(b) in ev and Inv(c) in ev
        assert {Res(b, None), OpObs(b, None), Res(c, None)} <= ev
        assert {Res(a, v) for v in range(4)} <= ev
        assert ProgStep(StepId("T2", "await(z=1)", 0)) in ev
        assert ProgStep(StepId("T1", "x:=rA", 0), ("x", 2)) in ev
        assert ProgStep(StepId("T1", "z:=1", 0), ("z", 1)) in ev
        assert ProgStep(StepId("T1", "z:=1", 0), ("z", 0)) not in ev

    def test_branches_share_instance_numbers(self):
        p = parse("global x = 0;\nthread T {\n  if (x = 1) {\n    x := 1;\n"
                  "  } else {\n    x := 1;\n  }\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"))
        steps = {e for e in ev if isinstance(e, ProgStep)}
        assert steps == {ProgStep(StepId("T", "if(x=1)", 0)),
                         ProgStep(StepId("T", "x:=1", 0), ("x", 1))}

    @pytest.mark.parametrize("n", [5, 1200])
    def test_long_thread_body(self, n):
        ev = events_of_program(parse(writes_client(n)), empty_object())
        want, seen = set(), {}
        for i in range(n):
            lab = f"x:={i % 3}"
            sid = StepId("T", lab, seen.get(lab, 0))
            seen[lab] = sid.instance + 1
            want |= {ProgStep(sid, ("x", i % 3)), ProgObs(sid, "x", i % 3)}
        assert ev == want

    @pytest.mark.parametrize("client,obj,size", [
        ("fig2_client.wm", "fig2_object.wm", 26),
        ("fig4_client.wm", "spinlock_impl.wm", 10),
        ("fig5_client.wm", "spinlock_impl.wm", 34),
        ("fig5_notry_client.wm", "spinlock_impl_notry.wm", 17),
        ("fig6_client.wm", "spinlock_impl.wm", 28),
    ])
    def test_corpus_universe_sizes(self, client, obj, size):
        assert len(events_of_program(load(client), load(obj))) == size

    def test_loop_unrolling_is_bounded(self):
        p = parse("global x = 0;\nthread T {\n  while (x = 0) {\n"
                  "    x := x + 1;\n  }\n}")
        ev = events_of_program(p, load("spinlock_impl.wm"), bound=2, values=1)
        guards = {e.step.instance for e in ev
                  if isinstance(e, ProgStep) and e.step.label == "while(x=0)"}
        writes = {e.step.instance for e in ev
                  if isinstance(e, ProgStep) and e.step.label == "x:=x+1"}
        assert guards == {0, 1}
        assert writes == {0, 1}

    def test_second_call_gets_next_instance(self):
        p = load("fig6_client.wm")
        ev = events_of_program(p, load("spinlock_impl.wm"))
        assert Inv(OpId("T1", "acquire", 0)) in ev
        assert Inv(OpId("T1", "release", 1)) in ev
        assert Inv(OpId("T1", "release", 0)) not in ev

    def test_rejects_bad_bounds(self):
        p = parse("thread T {\n  fence;\n}")
        with pytest.raises(ValueError):
            events_of_program(p, load("spinlock_impl.wm"), bound=0)
