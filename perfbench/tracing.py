"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``triple_lab`` from outside: each listed
function is replaced, in every ``triple_lab`` module that holds a reference to
it, by a wrapper that records one span per call (name, tag, start, end and
the index of the enclosing span).  Spans stay in memory until ``dump``.
Per-layer figures are derived from the spans afterwards: calls, inclusive
time ``s`` and self time ``self_s`` (duration minus the time covered by
child spans), plus a few counters observed from arguments and results.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _kind_tag(*args, **kwargs):
    return str(kwargs["kind"] if "kind" in kwargs else args[1])


def _dim_tag(*args, **kwargs):
    system = kwargs["system"] if "system" in kwargs else args[0]
    return f"n{system.dim}"


def _observe_null_space(tracer, args, kwargs, result, parent):
    import numpy as np

    rows, cols = np.shape(args[0])
    # computed from the input's shape (float64), not measured
    tracer.counters["numerics.null_space.input_mb"] += rows * cols * 8 / 1e6
    tracer.counters["numerics.null_space.max_rows"] = max(
        tracer.counters["numerics.null_space.max_rows"], rows
    )


def _observe_local(tracer, args, kwargs, result, parent):
    tracer.counters["derivations.local_derivation_residual.points"] += result.witnesses["points"]


def _observe_leibniz(tracer, args, kwargs, result, parent):
    # leibniz_residual called under derivation_space is the basis validation
    if parent >= 0 and tracer.spans[parent][0] == "derivations.derivation_space":
        key = "derivations.basis_leibniz_residual.max"
        tracer.counters[key] = max(tracer.counters[key], result["max_residual"])


def _observe_save(tracer, args, kwargs, result, parent):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["triple_core.save_system.mb"] += os.path.getsize(path) / 1e6


#: (module, attribute, tag function, observer) for every traced function.
#: The span name is ``<module>.<attribute>`` without the package prefix.
TARGETS = (
    ("numerics", "null_space", None, _observe_null_space),
    ("numerics", "least_squares_residual", None, None),
    ("numerics", "expm", None, None),
    ("numerics", "orthonormal_columns", None, None),
    ("derivations", "derivation_space", _kind_tag, None),
    ("derivations", "local_derivation_residual", None, _observe_local),
    ("derivations", "exp_flow_check", None, None),
    ("derivations", "leibniz_residual", None, _observe_leibniz),
    ("derivations", "space_to_json", None, None),
    ("triple_core", "check_jordan_identity", _dim_tag, None),
    ("triple_core", "check_norm_axiom", None, None),
    ("triple_core", "TripleSystem.product_arrays", None, None),
    ("triple_core", "L_operator", None, None),
    ("triple_core", "save_system", None, _observe_save),
    ("triple_core", "load_system", None, None),
    ("structure", "peirce", None, None),
    ("structure", "check_peirce_arithmetic", None, None),
    ("structure", "cube_root", None, None),
    ("factors", "build_factor", None, None),
    ("factors", "direct_sum", None, None),
    ("factors", "complexify", None, None),
    ("repro", "repro_all", None, None),
)


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, tag=None, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, tag(*args, **kwargs) if tag else None, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result, parent)
            return result

        return traced

    def _replace_everywhere(self, original, wrapped):
        """Swap ``original`` for ``wrapped`` in every triple_lab module namespace."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("triple_lab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self):
        import triple_lab.repro as repro

        for module_name, attr, tag, observe in TARGETS:
            module = sys.modules[f"triple_lab.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, tag, observe))
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self.wrap(name, original, tag, observe))
        # repro_all reads its statement registry at call time, so wrapping the
        # runners there times each statement once
        runners = repro._STATEMENT_RUNNERS
        self._patches.append((repro, "_STATEMENT_RUNNERS", runners))
        repro._STATEMENT_RUNNERS = tuple(
            (statement_id, self.wrap(f"repro.{statement_id}", runner))
            for statement_id, runner in runners
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self) -> dict:
        """``{key: {"calls", "s", "self_s"}}`` for every span name and name.tag."""
        child_time = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, tag, start, end, parent), inner in zip(self.spans, child_time):
            keys = (name,) if tag is None else (name, f"{name}.{tag}")
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["s"] += end - start
                entry["self_s"] += end - start - inner
        return dict(out)

    def self_total(self) -> float:
        """Sum of every span's self time, which equals the time under root spans."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def dump(self, path, header: dict) -> None:
        payload = dict(header, fields=["name", "tag", "start", "end", "parent"], spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


STATEMENT_IDS = (
    "counterexample_rank_one_complex",
    "hilbert_factor_skew_characterization",
    "spin_rank_one_skew_characterization",
    "derivations_complex_linear",
    "rank_one_symmetrized_implies_local",
    "rank_gt_one_flow_equivalence",
    "direct_sum_theorem_surrogate",
    "ideal_invariance_cube_root",
    "two_local_complexification",
    "axioms_jordan_identity",
    "axioms_norm_cube",
    "hermitian_positivity_advisory",
    "peirce_arithmetic",
    "orthogonality_rank_witness",
    "inner_derivations_leibniz",
    "iap_span_equality",
    "tripotent_projection_identities",
)


def _each(prefix, *stats):
    return tuple(f"{prefix}.{stat}" for stat in stats)


#: Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER = (
    *_each("numerics.null_space", "calls", "s", "self_s", "input_mb", "max_rows"),
    *(
        name
        for kind in ("triple", "symmetrized", "inner_span")
        for name in _each(f"derivations.derivation_space.{kind}", "calls", "s", "self_s")
    ),
    *_each("numerics.least_squares_residual", "calls", "s"),
    *_each("derivations.local_derivation_residual", "calls", "s", "self_s", "points"),
    *_each("triple_core.check_jordan_identity", "calls", "s", "n16.s", "n32.s"),
    *_each("triple_core.check_norm_axiom", "calls", "s"),
    *_each("triple_core.TripleSystem.product_arrays", "calls", "s"),
    "triple_core.L_operator.calls",
    *_each("numerics.expm", "calls", "s"),
    *_each("derivations.exp_flow_check", "calls", "s"),
    *_each("derivations.leibniz_residual", "calls", "s"),
    *_each("numerics.orthonormal_columns", "calls", "s"),
    *_each("structure.peirce", "calls", "s"),
    "structure.check_peirce_arithmetic.s",
    *_each("structure.cube_root", "calls", "s"),
    *_each("factors.build_factor", "calls", "s"),
    "factors.direct_sum.s",
    "factors.complexify.s",
    *_each("triple_core.save_system", "calls", "s", "mb"),
    *_each("triple_core.load_system", "calls", "s"),
    "derivations.space_to_json.s",
    "repro.repro_all.s",
    *(f"repro.{statement_id}.s" for statement_id in STATEMENT_IDS),
    "derivations.basis_leibniz_residual.max",
    "process.cpu_s",
    "process.blas_threads",
    "tracing.overhead_s",
    "tracing.self_s_total",
    "tracing.self_share",
)

_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "cpu_s": "s",
    "overhead_s": "s",
    "self_s_total": "s",
    "input_mb": "MB",
    "mb": "MB",
    "max_rows": "count",
    "points": "count",
    "blas_threads": "count",
    "max": "1",
    "self_share": "ratio",
}


def unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def better(name: str) -> str:
    """Direction of improvement: only coverage and BLAS threads read better higher."""
    return "higher" if name in ("tracing.self_share", "process.blas_threads") else "lower"


def per_layer_metrics(layers: dict, figures: dict) -> dict:
    """Value of every PER_LAYER metric from a traced pass.

    ``layers`` is the traced worker's span statistics and counters;
    ``figures`` holds the process and tracing figures measured around them.
    A layer the workload never calls reports 0.
    """
    stats, counters = layers["stats"], layers["counters"]
    out = {}
    for name in PER_LAYER:
        if name in figures:
            value = figures[name]
        elif name in counters:
            value = counters[name]
        else:
            key, stat = name.rsplit(".", 1)
            value = stats.get(key, {}).get(stat, 0)
        out[name] = value
    return out
