"""Smoke check of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

Asserts that every metric named in BENCHMARK.json is emitted with its unit
and that the output checks pass at the seed (closed-form findings must be
classified as findings, not as unexpected failures).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing    # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_metric_with_its_unit(trace, section):
    proc = _run("--workload", "cli_closed_form", "--seed", str(SEED), "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().split("\n")
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _units(section)
    report = json.loads(report_line)["report"]
    assert report["unexpected_failures"] == []
    assert {"nproc", "numpy", "scipy", "numba_importable", "active_backend",
            "git_describe", "SALPETER_BACKEND", "SALPETER_THREADS"} <= set(report["machine"])


def _traced(workload, tasks):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [(task, workload.run(task)) for task in tasks]
    finally:
        tracer.uninstall()
    return tracer, outcomes


@pytest.mark.parametrize("name,kinds", [
    ("oracle_verify", {"empty", "q_half"}),
    ("mismatch_scan", {"q=1"}),
])
def test_oracle_layers_and_checks_on_tiny_inputs(tmp_path, name, kinds):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    tasks = [t for t in workload.tasks if t.kind in kinds]
    tasks = list({t.kind: t for t in tasks}.values())
    tracer, outcomes = _traced(workload, tasks)
    for task, outcome in outcomes:
        verdict = workload.check(task, outcome)
        assert verdict is None or verdict.get("finding"), verdict
    metrics, missing = tracing.layer_metrics(tracer, 0)
    assert missing == []
    expected = _units("per_layer")
    expected.pop("trace.overhead_share")     # added by run.py from the two passes
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    if name == "mismatch_scan":
        assert metrics["kernels.frobenius_start.s"][0] > 0
    else:
        assert metrics["oracle.scan.s"][0] > 0 and metrics["oracle.bisect.s"][0] > 0


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    from salpeter_hulthen import oracle
    monkeypatch.delattr(oracle, "rk4_sweep")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = tracing.layer_metrics(tracer, 0)
    assert "kernels.rk4_sweep.s" in missing and "oracle.refine.s" in missing
    assert "cli.main.calls" in metrics



def test_off_q1_check_catches_missing_or_moved_roots(tmp_path):
    workload = workloads.OracleVerify(SEED, tmp_path)
    task = next(t for t in workload.tasks if t.kind == "q_half")
    roots, physical = workload.run(task)
    assert workload.check(task, (roots, physical))["finding"]
    for bad in ([], [r * 1.01 for r in roots]):
        verdict = workload.check(task, (bad, physical))
        assert verdict is not None and not verdict.get("finding"), verdict
