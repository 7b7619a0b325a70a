"""Command-line interface: exit codes, output shapes, file artifacts."""

import contextlib
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wmtr import memmodel, storage
from wmtr.cli import main
from conftest import (
    CORPUS, ORDER_PAIRS, check_wellformed, order_from_lines, trace_from_lines,
)
from oracles import book_specs, stepwise_frames


SRC = Path(__file__).resolve().parent.parent / "src"


def C(name):
    return str(CORPUS / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# SHA-256 of `wmtr check --format json` stdout against the spinlock, at
# the default bounds, keyed (client, model): the verdict, the stats, the
# refuting observable and the canonical counterexample's records
CHECK_JSON_DIGESTS = {
    ("fig5_client.wm", "tso"):  # spec_states 75, impl_states 165
        "2ec6835c73ce00a2673206790e6f1a29b082a536d738f8b464eda5732e5e408c",
    ("fig6_client.wm", "relaxed"):  # spec_states 55, impl_states 412
        "2a8380ccd00ab453a56971907c29c33eaa397d39fef52f7d13df4f0c9e6f4e57",
}

# the same stdout with the implementation built under the frame rule
# before merging (`oracles.stepwise_frames`): it differs from the above
# in `impl_states` alone (187 and 515)
STEPWISE_CHECK_JSON_DIGESTS = {
    ("fig5_client.wm", "tso"):
        "ac6deb4f9b337b23873340c817577cfaebb305b42e9fa0726973814f6b3af6f1",
    ("fig6_client.wm", "relaxed"):
        "f8e7f343820a3996bbb0322524d52ea568592fcc09748e170b44f874a4490ca2",
}

# the two above with the specification built under the paper's free
# observation placement (`oracles.book_specs`), keyed (client, model,
# frame rule): the stdout before each specification response was
# observed in its edge, which differs from the above in `spec_states`
# alone (161 and 121)
BOOK_CHECK_JSON_DIGESTS = {
    ("fig5_client.wm", "tso", "merged"):
        "c8503836810931e590c138e9a7c7e37a283b2d3addf59307bd09f6064f7d82d8",
    ("fig5_client.wm", "tso", "stepwise"):
        "013dfda4d496a1a25e8a3d4a5b632fc321c91aaaf544d75f99494545cc7277fb",
    ("fig6_client.wm", "relaxed", "merged"):
        "6553af41ef32133a111102816aadf6fd1d245577acd20cfc1b33da7d8d5a80b9",
    ("fig6_client.wm", "relaxed", "stepwise"):
        "0818fcee291129b1cb05d2473193f21254206d9114fdb5e3aa55bd181752326e",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize("client,model", sorted(CHECK_JSON_DIGESTS))
    def test_json_output_unchanged(self, client, model, capsys):
        _, out, _ = run(capsys, "check", "--model", model, "--client", C(client),
                        "--spec", C("spinlock_spec.wm"),
                        "--impl", C("spinlock_impl.wm"), "--format", "json")
        assert _sha(out) == CHECK_JSON_DIGESTS[client, model]

    @pytest.mark.parametrize("client,model", sorted(CHECK_JSON_DIGESTS))
    def test_json_output_under_stepwise_frames(self, client, model, capsys):
        argv = ["check", "--model", model, "--client", C(client),
                "--spec", C("spinlock_spec.wm"),
                "--impl", C("spinlock_impl.wm"), "--format", "json"]
        with stepwise_frames():
            _, out, _ = run(capsys, *argv)
        assert _sha(out) == STEPWISE_CHECK_JSON_DIGESTS[client, model]
        _, merged, _ = run(capsys, *argv)
        doc, ref = json.loads(merged), json.loads(out)
        assert doc["stats"].pop("impl_states") < ref["stats"].pop("impl_states")
        assert doc == ref

    @pytest.mark.parametrize("client,model,frames",
                             sorted(BOOK_CHECK_JSON_DIGESTS))
    def test_json_output_under_book_specs(self, client, model, frames,
                                          capsys):
        argv = ["check", "--model", model, "--client", C(client),
                "--spec", C("spinlock_spec.wm"),
                "--impl", C("spinlock_impl.wm"), "--format", "json"]
        with contextlib.ExitStack() as stack:
            if frames == "stepwise":
                stack.enter_context(stepwise_frames())
            with book_specs():
                _, out, _ = run(capsys, *argv)
            assert _sha(out) == BOOK_CHECK_JSON_DIGESTS[client, model, frames]
            _, now, _ = run(capsys, *argv)
        doc, ref = json.loads(now), json.loads(out)
        assert doc["stats"].pop("spec_states") < ref["stats"].pop("spec_states")
        assert doc == ref

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

    def test_readme_quick_start_is_what_check_prints(self, capsys,
                                                     monkeypatch):
        """README's `wmtr check` example and the output it shows, run
        from the repository's root: the shown lines, up to the closing
        `...`, begin what the command prints."""
        readme = (SRC.parent / "README.md").read_text()
        command, shown = re.search(r"```sh\n(wmtr check .*?)```\n\n```text\n"
                                   r"(.*?)```", readme, re.S).groups()
        argv = shlex.split(command.replace("\\\n", " "))
        monkeypatch.chdir(SRC.parent)
        code, out, _ = run(capsys, *argv[1:])
        lines = shown.splitlines()
        assert code == 1 and lines[-1].strip() == "..."
        assert out.splitlines()[:len(lines) - 1] == lines[:-1]
        assert len(out.splitlines()) > len(lines) - 1


class TestRefute:
    def test_battery_finds_refuting_client(self, capsys):
        code, out, _ = run(capsys, "refute", "--model", "tso", "--values", "1",
                           "--client", C("fig4_client.wm"),
                           "--client", C("fig5_client.wm"),
                           "--spec", C("spinlock_spec.wm"),
                           "--impl", C("spinlock_impl.wm"))
        assert code == 1
        assert "refuted by" in out and "fig5_client.wm" in out

    def test_out_writes_the_counterexample(self, capsys, tmp_path):
        """`refute --out` writes the refuting client's counterexample, the
        trace `check --out` writes for that client."""
        argv = ["--model", "tso", "--values", "1",
                "--spec", C("spinlock_spec.wm"),
                "--impl", C("spinlock_impl.wm")]
        dst, ref = tmp_path / "refute.jsonl", tmp_path / "check.jsonl"
        code, _, _ = run(capsys, "refute", *argv,
                         "--client", C("fig4_client.wm"),
                         "--client", C("fig5_client.wm"), "--out", str(dst))
        assert code == 1
        assert run(capsys, "check", *argv, "--client", C("fig5_client.wm"),
                   "--out", str(ref))[0] == 1
        assert dst.read_text() == ref.read_text()
        t = trace_from_lines(dst.read_text())
        assert len(t) == 16 and check_wellformed(t).ok

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


# SHA-256 of `wmtr axioms` stdout, of its `--out` file and of `wmtr dot`
# stdout, at the default bounds, keyed (client, model): the order layer's
# whole output, laws, witnesses and serialisations included
ORDER_OUTPUT_DIGESTS = {
    ("fig2_client.wm", "sc"): (
        "2510ff236716af07487b1d4bcde36390723ff616c33ac4aa055912d358a2f0f5",
        "411bb584567aea7f398be2cf20eaf87776ccd7a362dac7cc73070a4bad375f44",
        "9b58d550bad77b8a3bff945ba378d5b49a9f75798b56122df1a425d1fe23b392"),
    ("fig2_client.wm", "tso"): (
        "5abb5988df4fb0394b9cfa37e8c17f720bfd6fdf53dffa8fca470e931dffedd5",
        "17b29563ae1204956e392a75bab8f713a07033d132b480ba24dd9cf0c7a09462",
        "4a1d21ddcca9888afa8fa225dc70032fb601c4f4189f0d836d16909436b3743f"),
    ("fig2_client.wm", "relaxed"): (
        "cdbc1c6f9b58101c0ace5c76ab329545bc8528c5004b89a4255e87141dda5e58",
        "489d771234566858169705445f910a12115ebb25969df21cc1a9f6b6359120c5",
        "b11e5cddeacd102086a5c507f0e1e4f011040d5372bf276a4e1935ee205ae8f1"),
    ("fig4_client.wm", "sc"): (
        "4ed33a0074444d13c6af5355ccba970fca9d6945fef5a6c169feaa56c4dbd434",
        "3a58c9ad4291a7daffd9c529f4f26cb38057ca4bf48ec0a94e33d4238dcf725b",
        "3a307c3afcabe697cdb741c974340ed30af24cd926ae6a9855aa25307494bf11"),
    ("fig4_client.wm", "tso"): (
        "8e3d215d751e9a4428eb339fd973378769d24cda4529a2c40773bf0c989db51d",
        "881034b5798387de38ed11d23c8a231efd4f5db5a7f67a46211a281dc341cf9a",
        "ed8a195e70823465d3a9ead1f4124a77a6ad2c08e2c51f1bf9aa5b795d61f0a8"),
    ("fig4_client.wm", "relaxed"): (
        "270fd0462a8ae31e3c2beb0f2ae81e54cc8db039ad4e70171a9783aec3aebbac",
        "22eb5efef9f4b3e6506d561523dd78796c6391c972d8a173390c11e3b4b743a3",
        "6f237eaaead50b9e7dc07d4a42df1c44cb25a2fb5f7099ea3be43a0737d5932d"),
    ("fig5_client.wm", "sc"): (
        "45851dbfdabff8af5ee93055d200adba90ae8e04f973866f25c9e655728bbeec",
        "323dff147038692f975776491811662ec62610d932851017c3cc460c6f913d36",
        "bc4b38ae85b94c02514ef9b16767343bd36c399652e1990fc2dc92b6276c19e1"),
    ("fig5_client.wm", "tso"): (
        "e7e09e386d2cac6788112170ed002bac668d64482741049bab4c85f1e8156983",
        "89c6d72d6f22f5b5c2c8d3a0464b9f2554ff0c55b43049e91f2950d626eae80b",
        "1aa8ac6b2cc9520409df72a1d8bd7f471e19dfe85de47111e62e9bdecb24b483"),
    ("fig5_client.wm", "relaxed"): (
        "eee956eb619f13bd0991fa6373b38ca726c690293a4617f246deb7cf4c63b795",
        "4c85ab32b1dec739ce34823dc213baeec8e233d3dbe8f0ab1817de1212f09388",
        "25effbb4b524ad69b8d9298a29edfe1d84c6bcf92f9d8fc2ea42255de03765ad"),
    ("fig5_notry_client.wm", "sc"): (
        "9cccb4ccf328f0bb663122413cd81fe0154a73f02ab4f50cab94e0969373ab12",
        "d2719f67d4323aeebcf6e353de70b5bbd7ba0162b29f7c9d7630c590433f1165",
        "b2b96ee693ead3e310e196a91933e0f7b1579acfac496e524107727e80e5c47f"),
    ("fig5_notry_client.wm", "tso"): (
        "1b4cab7dc7e27e6c87209f020b2d00231f42b915eb8badca1159546c70f5b0da",
        "3741d43cad11f240520ce72eb7cc8412a1024772207248fc10f1cc76e9b484c3",
        "d3abf5f41100319861125ff44798983c6378905876860125f7017573da352c59"),
    ("fig5_notry_client.wm", "relaxed"): (
        "04158cef6180b3786be3525da5d1899cfd208c493aad9c5e46b5cbee4a9a4526",
        "72d59a40c4fedd21c3f26c2a4b41db87e20eb7c3ce93f6bcf86e014c079a1359",
        "e686bb7fa4f609788cb779fc4b7694d5612bd744d63b26488dbb678db45f13cc"),
    ("fig6_client.wm", "sc"): (
        "3b678f50eb9aa48caae0cefb619079914ae126f067e894b1cda8f67afb3395fe",
        "2a0ddf150a492b16a861bb09a2a63a099224e8363be8534880f256c0841269a3",
        "1dd06831b1b12e5d8be81da71447f70d423dd4f2f76083f6ab45822fe7a988e0"),
    ("fig6_client.wm", "tso"): (
        "a78a7ec3322da413e1a3731918880096847522e840d52d89ccb66034999488cb",
        "533d6f390c8a5be1a14431f80028bf27d18bab9908d840f1945d91240043bdff",
        "7089203cff4fff0a6af949c21ada0ddcff5ee9218b2f93171d88460a73fb0144"),
    ("fig6_client.wm", "relaxed"): (
        "aa8282cf668dc04773422836efb4871310d93ac9e9cdec187e1b1461f414c130",
        "1246040eb36a0a50a89473b537411532bff46e8a8c65f2c0dfe44950cf7c93a6",
        "930b6c4139b8a159045b4917e5333633657371483d0a4800cbe15380adb20e0f"),
}


class TestOrderOutputs:
    @pytest.mark.parametrize("client,obj,model", [
        (client, obj, model) for client, obj in ORDER_PAIRS
        for model in ("sc", "tso", "relaxed")])
    def test_order_outputs_unchanged(self, client, obj, model, capsys,
                                     tmp_path):
        args = ("--model", model, "--client", C(client), "--impl", C(obj))
        dst = tmp_path / "order.jsonl"
        code, axioms, _ = run(capsys, "axioms", *args, "--out", str(dst))
        assert code == 0
        _, dot, _ = run(capsys, "dot", *args)
        assert tuple(map(_sha, (axioms, dst.read_text(), dot))) == \
            ORDER_OUTPUT_DIGESTS[client, model]


# Run in a fresh process: the digests of `wmtr axioms` stdout and `--out`
# file for each pair and model, and of `wmtr check --format json` stdout
# for each CHECK_JSON_DIGESTS case, after first making `argv[1]`
# unrelated events in a shuffled order among heap objects that are
# partly freed again; and, as `order`, the universe of fig5's enforced
# order under TSO in set iteration order
_ALLOCATING_RUN = """
import contextlib, hashlib, io, json, os, random, sys, tempfile
from wmtr.cli import main
from wmtr.events import Inv, OpId, OpObs, ProgObs, Res, StepId, event_to_json
from wmtr.memmodel import ExploreConfig, Model, enforced_order
from wmtr.program import parse

n, corpus = int(sys.argv[1]), sys.argv[2]
pairs, checks = json.loads(sys.argv[3]), json.loads(sys.argv[4])
rng = random.Random(n)
keys = [(t, k) for t in range(max(n // 50, 1)) for k in range(50)][:n]
rng.shuffle(keys)
filler, held = [], []
for t, k in keys:
    filler.append([k] * (t % 7 + 1))
    op = OpId(f"U{t}", "u", k)
    held += [Inv(op, k % 3), Res(op, k % 2), OpObs(op),
             ProgObs(StepId(f"U{t}", f"u:={k}", k), "u", k)]
del filler[::2]

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

path = lambda name: os.path.join(corpus, name)
doc = {"axioms": [], "check": []}
with tempfile.TemporaryDirectory() as tmp:
    dst = os.path.join(tmp, "order.jsonl")
    for client, obj, model in pairs:
        text = cli("axioms", "--model", model, "--client", path(client),
                   "--impl", path(obj), "--out", dst)
        with open(dst) as f:
            doc["axioms"].append([sha(text), sha(f.read())])
for client, model in checks:
    doc["check"].append(sha(cli(
        "check", "--model", model, "--client", path(client),
        "--spec", path("spinlock_spec.wm"), "--impl", path("spinlock_impl.wm"),
        "--format", "json")))
p, obj = (parse(open(path(name)).read())
          for name in ("fig5_client.wm", "spinlock_impl.wm"))
doc["order"] = [event_to_json(e) for e in
                enforced_order(p, obj, ExploreConfig(Model.TSO)).universe]
print(json.dumps(doc))
"""


class TestAllocationOrder:
    """Events hash by identity, so a set of them iterates in the order of
    their addresses, which follow everything the process allocated
    before; no output may follow it."""

    PAIRS = [(client, obj, model) for client, obj in ORDER_PAIRS
             for model in ("sc", "tso", "relaxed")]
    CHECKS = sorted(CHECK_JSON_DIGESTS)

    def _run(self, events: int) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _ALLOCATING_RUN, str(events), str(CORPUS),
             json.dumps(self.PAIRS), json.dumps(self.CHECKS)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_outputs_do_not_follow_allocation_order(self):
        plain, shuffled = self._run(0), self._run(4000)
        # the set order did move, and no output moved with it
        assert sorted(plain["order"]) == sorted(shuffled["order"])
        assert plain["order"] != shuffled["order"]
        for doc in (plain, shuffled):
            assert doc["axioms"] == [list(ORDER_OUTPUT_DIGESTS[client, model][:2])
                                     for client, _, model in self.PAIRS]
            assert doc["check"] == [CHECK_JSON_DIGESTS[case]
                                    for case in self.CHECKS]


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

    def test_explore_spec(self, capsys):
        """`explore --spec` builds the specification: under SC the
        spinlock's specification shows fig6 what its implementation
        does, and an implementation given as `--spec` is refused."""
        argv = ["explore", "--model", "sc", "--values", "1",
                "--client", C("fig6_client.wm")]
        code, out, _ = run(capsys, *argv, "--spec", C("spinlock_spec.wm"))
        _, impl, _ = run(capsys, *argv, "--impl", C("spinlock_impl.wm"))
        spec, impl = out.splitlines(), impl.splitlines()
        assert code == 0 and spec[1] == "states: 24" != impl[1]
        assert spec[2:] == impl[2:] and "observables: 5" in spec
        code, out, err = run(capsys, *argv, "--spec", C("spinlock_impl.wm"))
        assert (code, out) == (2, "")
        assert err.endswith("is an impl object, expected spec\n")
        code, out, err = run(capsys, "check", "--model", "sc",
                             "--client", C("fig6_client.wm"),
                             "--spec", C("spinlock_spec.wm"),
                             "--impl", C("spinlock_spec.wm"))
        assert (code, out) == (2, "")
        assert err.endswith("is a spec object, expected impl\n")

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

    def test_object_where_client_expected(self, capsys):
        code, out, err = run(capsys, "explore", "--model", "sc",
                             "--client", C("spinlock_impl.wm"))
        assert (code, out) == (2, "")
        assert err == (f"error: {C('spinlock_impl.wm')} is an object "
                       "definition, expected a client\n")

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

    @pytest.mark.parametrize("command", ["explore", "check", "refute"])
    def test_out_of_memory_is_inconclusive(self, command, capsys,
                                           monkeypatch):
        """A build that runs out of memory ends the run as inconclusive,
        exit 3, with one line on stderr and no traceback."""
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(memmodel, "_build", out_of_memory)
        argv = [command, "--model", "relaxed",
                "--client", C("fig5_client.wm"),
                "--impl", C("spinlock_impl.wm")]
        if command != "explore":
            argv += ["--spec", C("spinlock_spec.wm")]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "inconclusive: out of memory\n")

    # input past the parser's limits, reported at its first `{` or
    # operator past them: `if`s nested 500 deep, where the thread body is
    # the first level and the 100th `if` opens the 101st (its `{` in
    # column 24 + 13 * 99), and an expression of 1,000 terms, where the
    # 200th `+` would add the 201st (column 20 + 4 * 199)
    @pytest.mark.parametrize("body, where", [
        ("if (x = 0) { " * 500 + "x := 1; " + "} " * 500,
         "2:1311: blocks nested more than 100 deep"),
        ("x := " + " + ".join(["1"] * 1000) + ";",
         "2:816: an expression of more than 200 terms"),
    ], ids=["nested-if", "long-expression"])
    def test_deep_input_is_a_parse_error(self, body, where, capsys,
                                         tmp_path):
        src = tmp_path / "deep.wm"
        src.write_text(f"global x = 0;\nthread T0 {{ {body} }}\n")
        code, out, err = run(capsys, "explore", "--model", "sc",
                             "--client", str(src))
        assert (code, out, err) == (2, "", f"error: {where}\n")

    def test_burst_overflow_is_inconclusive(self, capsys, monkeypatch):
        """So does a burst id that outgrows the graph's burst column; with
        2-bit ids the fig5 build outgrows them at once."""
        monkeypatch.setattr(storage, "BURST_BITS", 2)
        code, out, err = run(capsys, "explore", "--model", "sc",
                             "--client", C("fig5_client.wm"),
                             "--impl", C("spinlock_impl.wm"))
        assert (code, out) == (3, "")
        assert err == ("inconclusive: more than 4 distinct bursts: a burst "
                       "id holds 2 bits\n")


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
