"""The benchmark's own tests (about a minute):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from wmtr import memmodel, program  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


def test_self_times_account_for_each_root():
    spans = [["bench.pass", 0.0, 10.0, None, None],
             ["memmodel.build", 1.0, 6.0, 0, None],
             ["program.validate", 1.5, 2.0, 1, None],
             ["memmodel.topo", 7.0, 9.0, 0, None],
             ["bench.pass", 10.0, 12.0, None, None]]
    self_t = tracer.self_times(spans)
    assert self_t == [3.0, 4.5, 0.5, 2.0, 2.0]
    t = tracer.Tracer()
    t.spans = spans
    assert t.groups("bench.pass") == [[0, 1, 2, 3], [4]]
    assert sum(self_t[i] for i in t.groups("bench.pass")[0]) == 10.0


def test_baseline_anchor_fig5_relaxed_chaos_graph():
    """The graph every figure of order-relaxed is dominated by.  If these
    counts drift, the benchmark measures a different program."""
    client = program.parse((workloads.CORPUS / "fig5_client.wm").read_text())
    impl = program.parse((workloads.CORPUS / "spinlock_impl.wm").read_text())
    t = tracer.Tracer()
    t.install()
    try:
        memmodel.enforced_order(client, impl, workloads._config("relaxed"))
    finally:
        t.uninstall()
    (data,) = [d for name, _, _, _, d in t.spans if name == "memmodel.build"]
    assert (data["states"], data["edges"], data["silent"]) == (46979, 258573, 180501)
    assert not hasattr(memmodel.enforced_order, "__wrapped__")


@pytest.mark.parametrize("workload", ["refine-relaxed", "cli-sc-tso"])
def test_smoke_every_metric_produced(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace))
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, out.stderr
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "cli-sc-tso", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
