"""Self-tests of the benchmark's gate and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing
import workloads
from triple_lab import derivations, factors, repro

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_fault_pass_is_a_verdict_mismatch(monkeypatch):
    honest = repro.repro_all
    monkeypatch.setattr(repro, "repro_all", lambda **kwargs: honest(fault=True, **kwargs))
    ops = workloads.Ops()
    verdicts, _ = workloads.run_repro(workloads.setup_repro(0xA11CE, None), ops)
    mismatches = workloads.compare(verdicts, workloads.load_reference()["repro_suite"])
    assert ops.errors == []
    assert "repro_all: expected 'pass', got 'fail'" in mismatches


def test_injected_exception_is_a_failed_op(monkeypatch, tmp_path):
    honest = derivations.derivation_space

    def blow_up(system, kind, *args, **kwargs):
        if system.dim > 8:
            raise MemoryError("injected")
        return honest(system, kind, *args, **kwargs)

    monkeypatch.setattr(derivations, "derivation_space", blow_up)
    ops = workloads.Ops()
    verdicts, _ = workloads.run_ladder(workloads.setup_ladder(0, str(tmp_path)), ops)
    large = [label for label in workloads.LADDER if factors.build_factor(label).dim > 8]
    assert len(ops.errors) == 3 * len(large)
    assert ops.attempted == 5 * len(workloads.LADDER) + 2 * len(workloads.IO_FACTORS)
    mismatches = workloads.compare(verdicts, workloads.load_reference()["factor_ladder"])
    assert len(mismatches) == 3 * len(large)


def test_allocation_blow_up_is_a_failed_op():
    ops = workloads.Ops()
    assert ops.call("huge", np.empty, (2**40, 2**10)) is None
    assert ops.attempted == 1
    assert "MemoryError" in ops.errors[0]


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert spec["per_layer"] == [
        {"name": name, "unit": tracing.unit(name), "better": tracing.better(name)}
        for name in tracing.PER_LAYER
    ]


def test_statement_ids_match_the_registry():
    assert tracing.STATEMENT_IDS == tuple(repro.STATEMENTS)


def test_tracer_accounts_for_nested_calls():
    honest = derivations.derivation_space
    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = factors.build_factor("I_C(2,2)")
        derivations.derivation_space(system, "symmetrized")
    finally:
        tracer.uninstall()
    assert derivations.derivation_space is honest
    stats = tracer.stats()
    space = stats["derivations.derivation_space.symmetrized"]
    assert space["calls"] == 1
    assert 0 < space["self_s"] < space["s"]
    assert stats["numerics.null_space"]["calls"] == 1
    assert stats["derivations.leibniz_residual"]["calls"] == 7
    names = {span[0] for span in tracer.spans}
    assert sum(stats[name]["self_s"] for name in names) == pytest.approx(tracer.self_total())
    assert tracer.counters["derivations.basis_leibniz_residual.max"] < 1e-12


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repro_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
