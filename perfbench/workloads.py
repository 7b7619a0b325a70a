"""The benchmark's workloads: their cases, their set-up, and one pass
with its correctness gate.

Every case runs at the default bounds (unroll 2, buffer 4, values 3) on
the bundled corpus.  A case passes when its result matches the known
answers below and the digest of its contract outputs (verdict, refuting
observable, canonical counterexample trace, enforced-order pairs)
matches the one recorded in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import wmtr.cli
from wmtr import memmodel, porder, program, refine
from wmtr.events import OpObs, trace_to_lines

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
UNROLL, BUFFER, VALUES = 2, 4, 3

# Known answers, as documented in scripts/run_corpus_checks.py:
# client, spec, impl, does refinement hold per model.
TRIPLES = [
    ("fig4_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": True, "relaxed": True}),
    ("fig5_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": False, "relaxed": True}),
    ("fig5_notry_client.wm", "spinlock_spec_notry.wm", "spinlock_impl_notry.wm",
     {"sc": True, "tso": True}),
    ("fig6_client.wm", "spinlock_spec.wm", "spinlock_impl.wm",
     {"sc": True, "tso": True, "relaxed": False}),
]

# Client/object pairs whose enforced order must satisfy every ordering law.
ORDER_PAIRS = [
    ("fig2_client.wm", "fig2_object.wm"),
    ("fig4_client.wm", "spinlock_impl.wm"),
    ("fig5_client.wm", "spinlock_impl.wm"),
    ("fig5_notry_client.wm", "spinlock_impl_notry.wm"),
    ("fig6_client.wm", "spinlock_impl.wm"),
]

# Refuting observables from the README and acceptance criteria 1 and 3.
REFUTING = {
    ("tso", "fig5_client.wm"): (("T1", "z", 1), ("T3", "w", 0), ("T2", "y", 0)),
    ("relaxed", "fig6_client.wm"): (("T1", "y", 1), ("T2", "y", 1)),
}


@dataclass
class Case:
    kind: str            # "check" | "order"
    model: str
    files: tuple         # client, then the objects
    via_cli: bool
    expect_holds: bool = True
    inputs: tuple = ()   # parsed files, filled in by set-up
    digest: str = ""     # expected contract digest, filled in by set-up

    @property
    def id(self) -> str:
        return f"{self.kind}/{self.model}/{Path(self.files[0]).stem}"


def cases(workload: str) -> list:
    if workload == "order-relaxed":
        return [Case("order", "relaxed", pair, False) for pair in ORDER_PAIRS]
    if workload == "refine-relaxed":
        return [Case("check", "relaxed", (c, s, i), False, expect["relaxed"])
                for c, s, i, expect in TRIPLES if "relaxed" in expect]
    if workload == "cli-sc-tso":
        out = []
        for model in ("sc", "tso"):
            out += [Case("check", model, (c, s, i), True, expect[model])
                    for c, s, i, expect in TRIPLES]
            out += [Case("order", model, pair, True) for pair in ORDER_PAIRS]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, check_digests: bool = True) -> list:
    """Set-up: parse and validate the workload's inputs."""
    expected = json.loads(EXPECTED.read_text()) if check_digests else {}
    parsed = {}
    out = cases(workload)
    for case in out:
        for name in case.files:
            if name not in parsed:
                parsed[name] = program.parse((CORPUS / name).read_text())
        case.inputs = tuple(parsed[name] for name in case.files)
        client = case.inputs[0]
        for obj in case.inputs[1:]:
            errors = program.validate(client, obj)
            if errors:
                raise ValueError(f"{case.id}: " + "; ".join(errors))
            program.events_of_program(client, obj, UNROLL, VALUES)
        if check_digests:
            case.digest = expected[case.id]
    if any(c.via_cli for c in out):
        OUT_DIR.mkdir(exist_ok=True)
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(verdict: str, observable, trace) -> str:
    """Digest of a refinement answer; `trace` is a list of event records."""
    doc = {"verdict": verdict,
           "observable": [list(o) for o in observable] if observable else None,
           "trace": trace or None}
    return _sha(json.dumps(doc, sort_keys=True))


def order_digest(order_lines: str) -> str:
    return _sha(order_lines.strip())


def _config(model: str):
    return memmodel.ExploreConfig(model=memmodel.Model(model), unroll=UNROLL,
                                  buffer=BUFFER, values=VALUES)


def _flag_client_structure(po) -> list:
    """Acceptance criterion 5 under RELAXED: no pair among the
    observations of A, B and C."""
    obs = [e for e in po.universe
           if isinstance(e, OpObs) and e.op.call in ("A", "B", "C")]
    if any(pair in po.pairs for pair in permutations(obs, 2)):
        return ["RELAXED orders an observation of A, B or C"]
    return []


def execute(case: Case):
    """Run one case; return (contract digest, violated known answers)."""
    problems = []
    if case.kind == "check":
        if case.via_cli:
            client, spec, impl = (str(CORPUS / n) for n in case.files)
            code, text = _cli(["check", "--model", case.model, "--client", client,
                               "--spec", spec, "--impl", impl, "--format", "json"])
            doc = json.loads(text)
            verdict, observable = doc["verdict"], doc.get("observable")
            trace = doc.get("trace")
            if code != (0 if case.expect_holds else 1):
                problems.append(f"exit code {code}")
        else:
            v = refine.check_wmtr(*case.inputs, _config(case.model))
            verdict = v.verdict
            observable = v.counterexample.observable if v.counterexample else None
            trace = ([json.loads(ln) for ln in
                      trace_to_lines(v.counterexample.trace).splitlines()]
                     if v.counterexample else None)
        holds = verdict == "holds-within-bound"
        if holds != case.expect_holds:
            problems.append(f"verdict {verdict}")
        want = REFUTING.get((case.model, case.files[0]))
        if want is not None and tuple(map(tuple, observable or ())) != want:
            problems.append(f"refuting observable {observable}")
        return check_digest(verdict, observable, trace), problems

    if case.via_cli:
        client, obj = (str(CORPUS / n) for n in case.files)
        out = OUT_DIR / "order.txt"
        code, text = _cli(["axioms", "--model", case.model, "--client", client,
                           "--impl", obj, "--out", str(out)])
        laws = text.splitlines()[:-1]
        if code != 0 or not laws or not all(ln.startswith("PASS") for ln in laws):
            problems.append(f"ordering laws fail (exit code {code})")
        return order_digest(out.read_text()), problems

    po = memmodel.enforced_order(*case.inputs, _config(case.model))
    if not (porder.check_axioms(po).all_hold and porder.check_lemma1(po)):
        problems.append("ordering laws fail")
    if case.model == "relaxed" and case.files[0] == "fig2_client.wm":
        problems += _flag_client_structure(po)
    return order_digest(porder.order_to_lines(po)), problems


def _cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wmtr.cli.main(argv)
    return code, buf.getvalue()


def run_pass(cases_, rng) -> tuple:
    """Run the cases once, in an order drawn from `rng`; return
    (attempted, failed).  A failing case is reported and the pass goes on."""
    order = list(cases_)
    rng.shuffle(order)
    failed = 0
    for case in order:
        try:
            digest, problems = execute(case)
            if digest != case.digest:
                problems.append("contract digest differs from expected.json")
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"FAILED {case.id}: " + "; ".join(problems), file=sys.stderr)
    return len(order), failed
