"""Command-line interface: exit codes, output shapes, file artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wmtr import storage
from wmtr.cli import main
from wmtr.events import check_wellformed

from conftest import CORPUS, order_from_lines, trace_from_lines


def C(name):
    return str(CORPUS / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_refuted_exit_code_and_observable(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "tso", "--values", "1",
                           "--client", C("fig5_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 1
        assert "verdict: refuted" in out
        assert "refuting observable: T1.z=1 T3.w=0 T2.y=0" in out

    def test_holds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "tso",
                           "--client", C("fig4_client.wm"),
                           "--spec", C("spinlock_spec_notry.wm"),
                           "--impl", C("spinlock_impl_notry.wm"))
        assert code == 0
        assert "verdict: holds-within-bound" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "relaxed",
                           "--client", C("fig6_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"),
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "refuted"
        assert doc["observable"] == [["T1", "y", 1], ["T2", "y", 1]]
        assert doc["stats"]["refuting_observables"] == 2
        assert len(doc["trace"]) >= 4

    def test_out_writes_replayable_trace(self, capsys, tmp_path):
        dst = tmp_path / "cex.jsonl"
        code, _, _ = run(capsys, "check", "--model", "tso", "--values", "1",
                         "--client", C("fig5_client.wm"),
                         "--spec", C("spinlock_spec.wm"),
                         "--impl", C("spinlock_impl.wm"),
                         "--out", str(dst))
        assert code == 1
        t = trace_from_lines(dst.read_text())
        assert len(t) == 16 and check_wellformed(t).ok


class TestRefute:
    def test_battery_finds_refuting_client(self, capsys):
        code, out, _ = run(capsys, "refute", "--model", "tso", "--values", "1",
                           "--client", C("fig4_client.wm"),
                           "--client", C("fig5_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 1
        assert "refuted by" in out and "fig5_client.wm" in out

    def test_battery_all_hold(self, capsys):
        code, out, _ = run(capsys, "refute", "--model", "sc",
                           "--client", C("fig4_client.wm"),
                           "--client", C("fig6_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 0
        assert "for all 2 clients" in out


class TestAxioms:
    def test_laws_pass_on_corpus(self, capsys, tmp_path):
        dst = tmp_path / "order.txt"
        code, out, _ = run(capsys, "axioms", "--model", "tso", "--values", "1",
                           "--client", C("fig2_client.wm"),
                           "--impl", C("fig2_object.wm"),
                           "--out", str(dst))
        assert code == 0
        assert "FAIL" not in out
        po = order_from_lines(dst.read_text())
        assert len(po.pairs) > 0


class TestExploreAndDot:
    def test_explore_text(self, capsys):
        code, out, _ = run(capsys, "explore", "--model", "sc", "--values", "1",
                           "--client", C("fig6_client.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 0
        assert "observables: 5" in out
        assert "T1.y=1 T2.y=0" in out  # wraparound: 1+1 = 0 over {0,1}

    def test_explore_json_callfree_default_object(self, capsys, tmp_path):
        src = tmp_path / "steps.wm"
        src.write_text("global x = 0;\nthread A { x := 1; }\n"
                       "thread B { r := x; x := r + 1; }\n")
        code, out, _ = run(capsys, "explore", "--model", "tso",
                           "--client", str(src), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["states"] > 0
        assert [["A", "x", 1]] in doc["observables"]

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "dot", "--model", "relaxed", "--values", "1",
                           "--client", C("fig2_client.wm"),
                           "--impl", C("fig2_object.wm"))
        assert code == 0
        assert out.startswith("digraph") and "->" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "explore", "--model", "sc",
                           "--client", "no/such/file.wm")
        assert code == 2 and "error:" in err

    def test_client_where_object_expected(self, capsys):
        code, _, err = run(capsys, "check", "--model", "sc",
                           "--client", C("fig5_client.wm"),
                           "--spec", C("fig4_client.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 2 and "expected an object" in err

    def test_impl_where_spec_expected(self, capsys):
        code, _, err = run(capsys, "check", "--model", "sc",
                           "--client", C("fig5_client.wm"),
                           "--spec", C("spinlock_impl.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 2 and "expected spec" in err

    def test_validation_failure(self, capsys):
        code, _, err = run(capsys, "check", "--model", "sc",
                           "--client", C("fig2_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 2 and "unknown operation" in err

    def test_stored_result_of_void_operation(self, capsys, tmp_path):
        """Storing the result of an operation that may return no value is
        a validation error, reported before any exploration."""
        src = tmp_path / "void.wm"
        src.write_text("global g = 0;\n"
                       "thread T0 { r0 := call acquire(); g := r0; }\n")
        code, out, err = run(capsys, "explore", "--model", "sc",
                             "--client", str(src),
                             "--impl", C("spinlock_impl.wm"))
        assert (code, out) == (2, "")
        assert "thread T0: operation 'acquire' may return no value " \
               "into register 'r0'" in err
        assert "Traceback" not in err

    def test_statement_after_a_return(self, capsys, tmp_path):
        obj = tmp_path / "dead.wm"
        obj.write_text("object impl {\n  var x = 0;\n"
                       "  op f() { return 1; x := 1; }\n}\n")
        client = tmp_path / "client.wm"
        client.write_text("thread T0 { call f(); }\n")
        code, out, err = run(capsys, "explore", "--model", "sc",
                             "--client", str(client), "--impl", str(obj))
        assert (code, out) == (2, "")
        assert "op f: statement after a return never runs" in err
        assert "Traceback" not in err

    def test_bad_bounds(self, capsys):
        code, _, err = run(capsys, "explore", "--model", "sc", "--unroll", "0",
                           "--client", C("fig2_client.wm"),
                           "--impl", C("fig2_object.wm"))
        assert code == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["explore", "--model", "warp"])
        assert e.value.code == 2

    # one object per run: given both, a command would run on one of them
    # and silently drop the other
    @pytest.mark.parametrize("command", ["explore", "axioms", "dot"])
    def test_spec_and_impl_exclude_each_other(self, command, capsys):
        with pytest.raises(SystemExit) as e:
            main([command, "--model", "sc", "--client", C("fig4_client.wm"),
                  "--spec", C("spinlock_spec.wm"),
                  "--impl", C("spinlock_impl.wm")])
        err = capsys.readouterr().err
        assert e.value.code == 2
        assert "--impl: not allowed with argument --spec" in err

    def test_state_field_overflow_is_inconclusive(self, capsys, monkeypatch):
        """An id that outgrows its state field ends the run as
        inconclusive, exit 3, without a traceback; 4-bit fields make the
        fig5 build outgrow them at once."""
        monkeypatch.setattr(storage, "FIELD_BITS", 4)
        code, out, err = run(capsys, "explore", "--model", "relaxed",
                             "--client", C("fig5_client.wm"),
                             "--impl", C("spinlock_impl.wm"))
        assert (code, out) == (3, "")
        assert err.startswith("inconclusive: ") and "holds 4 bits" in err


SRC = Path(__file__).resolve().parent.parent / "src"


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [
        ["explore", "--model", "sc", "--client", C("fig5_client.wm"),
         "--impl", C("spinlock_impl.wm")],
        ["check", "--model", "tso", "--client", C("fig4_client.wm"),
         "--spec", C("spinlock_spec.wm"), "--impl", C("spinlock_impl.wm")],
    ], ids=["explore", "check"])
    def test_reader_gone_exits_141_quietly(self, argv):
        """As in `wmtr ... | head -1`, with the reader gone before the
        first write: no error message and the SIGPIPE exit code, not the
        usage-error code 2."""
        r, w = os.pipe()
        os.close(r)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run([sys.executable, "-m", "wmtr.cli", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, b"")
