"""The benchmark's tracer (``perfbench/tracing.py``) looks up each of its
targets in ``triple_lab`` when it is installed, so deleting or renaming one
would crash the traced benchmark run.  This guard reads the tracer as it is."""

import importlib
import importlib.util
from pathlib import Path

from triple_lab import repro

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_in_triple_lab():
    tracing = _load_tracing()
    for module_name, attr, _, _ in tracing.TARGETS:
        target = importlib.import_module(f"triple_lab.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"
    statement_ids = tuple(statement_id for statement_id, _ in repro._STATEMENT_RUNNERS)
    assert statement_ids == tracing.STATEMENT_IDS
