"""Tests of the benchmark itself: tiny runs of every workload, and the span
reconciliation failing when one wrapper is left out."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name):
    """The workload cut to one instance set and one n=8 cell per problem family."""
    workload = harness.WORKLOADS[name]
    cells = {}
    for cell in workload.cells:
        cells.setdefault(cell.problem, dataclasses.replace(cell, n=8))
    return dataclasses.replace(workload, cells=tuple(cells.values()), sets=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    code = harness.run(tiny(name), 0, 0.0, trace, str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in wanted}
    summary = json.loads(lines[-2])["summary"]
    if not trace:
        for key in ("setup_s", "cptm_s", "baseline_s", "validate_s", "failed_frac",
                    "peak_rss_mb"):
            assert key in summary
    for modname, path, _ in tracer.SPAN_TARGETS:
        owner = sys.modules["contraprox." + modname]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "perfbench_span"), path


class MissOneBinding(tracer.Tracer):
    """Installs every wrapper, then puts one original binding back."""

    def __init__(self, module, attr):
        super().__init__()
        self.missed = (module, attr)

    def install(self):
        super().install()
        owner = sys.modules[self.missed[0]]
        attr = self.missed[1]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        setattr(owner, attr, getattr(owner, attr).__wrapped__)


@pytest.mark.parametrize("workload, module, attr, message", [
    ("certify", "contraprox.contracting", "inner_loop", "inner_loop"),
    ("lse-p2", "contraprox.baselines", "tensor_step", "tensor_step"),
    ("certify", "contraprox.bench", "run_contracting_proximal", "outer loop"),
    ("lse-p2", "contraprox.objectives", "LogSumExpOracle.taylor_data", "oracle_f"),
])
def test_reconciliation_fails_when_a_wrapper_is_skipped(workload, module, attr, message,
                                                       tmp_path):
    cp = harness.Contraprox()
    with pytest.raises(tracer.TracingError, match=message):
        harness.traced(cp, tiny(workload), 0, str(tmp_path), str(tmp_path),
                       tracer=MissOneBinding(module, attr))


def test_without_sources_the_run_stops_before_printing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad-p1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_a_failed_operation_is_reported(tmp_path, capsys):
    broken = dataclasses.replace(tiny("lse-p2"), cells=(harness.Cell("lse", 8, -1.0, ("cn",)),))
    code = harness.run(broken, 0, 0.0, 0, str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] == 1
    failures = json.loads(lines[-2])["failures"]
    assert failures[0].endswith("set-up: ValueError: mu must be positive")


def test_only_a_returned_failure_is_a_wrong_output():
    wrong = harness.Op((0, 0, "cptm-p1", "solve"), "cptm", 1.0, False,
                       {"iterations": 3, "gap": 1.0})
    raised = harness.Op((0, 0, "ppa", "solve"), "baseline", 1.0, False,
                        {"error": "SolverError: cap"})
    passed = harness.Op((0, 0, "gm", "solve"), "baseline", 1.0, True, {"iterations": 3})
    ops = [wrong, raised, passed]
    assert len(harness.failure_lines(ops)) == 2
    assert harness.wrong_outputs(ops) == [f"{wrong.key}: {wrong.detail}"]
