"""The benchmark's verdict gate, run as a test: a statement whose status
flips fails here before any benchmark run.

``perfbench/workloads.py`` is imported from its own directory and only read;
``repro_suite`` and ``pointwise_checks`` run one pass each and their verdicts
are compared with ``perfbench/reference.json``.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["repro_suite", "pointwise_checks"])
def test_workload_verdicts_match_the_reference(workloads, tmp_path, workload):
    setup, run = workloads.WORKLOADS[workload]
    ops = workloads.Ops()
    verdicts, _ = run(setup(0xA11CE, str(tmp_path)), ops)
    assert ops.errors == []
    assert workloads.compare(verdicts, workloads.load_reference()[workload]) == []
