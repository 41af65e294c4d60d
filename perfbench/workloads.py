"""The benchmark's workloads, the operation counter and the verdict gate.

Each workload is a ``setup(seed, workdir) -> fixtures`` function, whose time
counts in ``setup_s``, and a ``run(fixtures, ops) -> (verdicts, digest)``
function, which is one timed pass.  Verdicts are what the paper's statements
decide (statuses and derivation-space dimensions), never raw residuals: a
correct new algorithm may move a residual from 1e-15 to 1e-13 but must not
move a verdict.  Library functions are looked up on their modules at call
time, so the traced run sees every call.

Why these workloads (sizes keep one pass within 20 s on two cores):

* ``repro_suite`` is the paper's end-to-end reproduction.
* ``factor_ladder`` is the CLI's path up the factor ladder: build, save,
  load and the three derivation spaces to JSON for n = 4..16, where its time
  is the Leibniz null space and basis validation; then build, save and load
  only for n = 28..36, where no linear algebra runs and the JSON wire format
  is the cost.
* ``pointwise_checks`` times the per-point product kernel and the per-point
  ``lstsq`` loop; its derivation spaces are built in setup only.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from triple_lab import derivations, factors, repro, structure, triple_core

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

LADDER = ("I_C(2,1)", "I_C(2,2)", "I_R(3,3)", "II_R(5)", "III_R(4)", "SPIN_R(16,0)")
LADDER_KINDS = ("triple", "symmetrized", "inner_span")
POINTWISE_SPACES = ("I_C(2,2)", "I_R(3,3)", "II_R(5)", "III_R(4)")
# n = 16 and n = 32 sit on the two sides of numpy's einsum path choice for
# the batched trilinear product
POINTWISE_LARGE = ("I_R(4,4)", "I_C(4,4)")
POINTWISE_POINTS = 1024
POINTWISE_MEMBERS = 8
POINTWISE_NORM_SAMPLES = 256
FLOW_GRID = (-1.0, -0.5, 0.5, 1.0)
IO_FACTORS = ("II_R(8)", "I_C(4,4)", "III_R(8)", "I_H(3,3)")


class Ops:
    """Counts the operations a pass attempts and records the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # MemoryError too: a failed op is counted, not fatal
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare(verdicts: dict, reference: dict) -> list:
    """One line per key whose verdict is missing, unexpected or different."""
    return [
        f"{key}: expected {reference.get(key)!r}, got {verdicts.get(key)!r}"
        for key in sorted(set(verdicts) | set(reference))
        if verdicts.get(key) != reference.get(key)
    ]


def report_verdicts(report, prefix: str = "") -> dict:
    """Status of a report and of every nested item, keyed by their id path."""
    key = prefix + report.statement_id
    out = {key: report.status}
    for item in report.items:
        out.update(report_verdicts(item, key + "/"))
    return out


# -- repro_suite ----------------------------------------------------------------


def setup_repro(seed, workdir):
    return {"seed": seed, "suite": repro.load_suite()}


def run_repro(fx, ops):
    report = ops.call("repro_all", repro.repro_all, seed=fx["seed"], suite=fx["suite"])
    if report is None:
        return {}, None
    digest = hashlib.sha256(report.to_json().encode("ascii")).hexdigest()
    return report_verdicts(report), digest


# -- factor_ladder ----------------------------------------------------------------


def setup_ladder(seed, workdir):
    # the ladder is deterministic: the seed selects nothing
    return {"workdir": workdir}


def _round_trip(system, path):
    triple_core.save_system(system, path)
    return triple_core.load_system(path)


def _space_dim(system, kind):
    return len(derivations.space_to_json(derivations.derivation_space(system, kind))["basis"])


def run_ladder(fx, ops):
    verdicts = {}
    path = os.path.join(fx["workdir"], "ladder.json")
    for label in LADDER:
        built = ops.call(f"{label}/build", factors.build_factor, label)
        system = None if built is None else ops.call(f"{label}/io", _round_trip, built, path)
        if system is None:
            continue
        for kind in LADDER_KINDS:
            dim = ops.call(f"{label}/{kind}", _space_dim, system, kind)
            if dim is not None:
                verdicts[f"{label}/{kind}"] = dim
    for label in IO_FACTORS:
        system = ops.call(f"{label}/build", factors.build_factor, label)
        loaded = None if system is None else ops.call(f"{label}/io", _round_trip, system, path)
        if loaded is not None:
            verdicts[f"{label}/dim"] = loaded.dim
            verdicts[f"{label}/round_trip"] = bool(loaded == system)
    return verdicts, None


# -- pointwise_checks ------------------------------------------------------------


def _unit_rows(rng, count, n):
    rows = rng.standard_normal((count, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def setup_pointwise(seed, workdir):
    rng = np.random.default_rng(seed)
    cases = []
    for label in POINTWISE_SPACES:
        system = factors.build_factor(label)
        space = derivations.derivation_space(system, "triple")
        points = [triple_core.Element(system, c) for c in _unit_rows(rng, POINTWISE_POINTS, system.dim)]
        members = [space.member(w) for w in _unit_rows(rng, POINTWISE_MEMBERS, space.dim)]
        cases.append((label, system, space, points, members))
    large = [(label, factors.build_factor(label)) for label in POINTWISE_LARGE]
    systems = [(label, system) for label, system, *_ in cases] + large
    check_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(systems))]
    return {"cases": cases, "systems": systems, "check_seeds": check_seeds}


def run_pointwise(fx, ops):
    verdicts = {}

    def record(key, fn, *args, **kwargs):
        report = ops.call(key, fn, *args, **kwargs)
        if report is not None:
            verdicts[key] = report.status

    for label, system, space, points, members in fx["cases"]:
        for i, member in enumerate(members):
            record(f"local[{label}]#{i}", derivations.local_derivation_residual, member, points, space=space)
            record(f"flow[{label}]#{i}", derivations.exp_flow_check, member, "triple", FLOW_GRID)
        for i, e in enumerate(factors.canonical_tripotents(system)):
            record(f"peirce[{label}]#{i}", structure.check_peirce_arithmetic, e)
    for (label, system), seed in zip(fx["systems"], fx["check_seeds"]):
        record(f"jordan[{label}]", triple_core.check_jordan_identity, system, seed=seed)
        record(f"norm[{label}]", triple_core.check_norm_axiom, system, POINTWISE_NORM_SAMPLES, seed=seed)
    return verdicts, None


WORKLOADS = {
    "repro_suite": (setup_repro, run_repro),
    "factor_ladder": (setup_ladder, run_ladder),
    "pointwise_checks": (setup_pointwise, run_pointwise),
}
