import io
import itertools
import json
import sys
import time
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from triple_lab import build_factor, cli, derivation_space, derivations, factors, repro, triple_core
from triple_lab.derivations import DerivationSpace
from triple_lab.errors import EmptySpec, InvalidInput
from triple_lab.report import Report, timed
from triple_lab.repro import (
    STATEMENTS,
    counterexample_map,
    load_suite,
    repro_all,
    repro_example_counterexample,
    repro_theorem_surrogate,
)

# trimmed suite for the tests that run the whole pipeline repeatedly
SMALL_SUITE = {
    "factors": ["I_R(2,2)", "I_C(2,1)", "SPIN_R(3,0)"],
    "hilbert_sizes": [2, 3],
    "complex_factors": ["I_C(2,1)"],
    "rank_one_factors": ["I_C(2,1)"],
    "sums_equal": [["I_R(2,2)", "SPIN_R(3,0)"]],
    "sums_gap": [["I_R(2,2)", "I_C(2,1)"]],
    "samples": {
        "norm": 16,
        "flow_maps": 4,
        "witness_pairs": 8,
    },
}


CliResult = namedtuple("CliResult", "returncode stdout stderr")


def run_cli(args, cwd):
    """Run ``triple-lab args`` in this process from ``cwd``.

    Output is captured and an argparse ``SystemExit`` becomes its exit code,
    so the result reads like a finished child process.  The one test of
    ``python -m triple_lab`` as a separate process is acceptance criterion 9.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        mp.chdir(cwd)
        try:
            returncode = cli.main(args)
        except SystemExit as exc:
            returncode = 0 if exc.code is None else exc.code
    return CliResult(returncode, stdout.getvalue(), stderr.getvalue())


def test_counterexample_map_values():
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]], dtype=float
    )
    assert np.array_equal(t.entries, expected)
    assert np.allclose(t.entries @ [1, 0, 0, 0], [0, 0, -1, 0])  # T(1,0) = (0,-1)
    assert np.allclose(t.entries @ [0, 1, 0, 0], [0, 0, 0, 0])   # T(i,0) = (0,0)


def test_repro_example_counterexample_statement():
    report = repro_example_counterexample(seed=0xA11CE)
    assert report.status == "pass"
    assert report.residuals["triple_leibniz_residual"] >= 0.9
    assert report.residuals["symmetrized_leibniz_residual"] <= 1e-10
    assert report.residuals["local_derivation_residual"] <= 1e-8
    assert report.residuals["witness_product_image_error"] <= 1e-12
    assert report.residuals["witness_leibniz_sum_error"] <= 1e-12
    assert report.witnesses["witness_triple"] == [0, 1, 0]
    assert report.witnesses["leibniz_sum"] == [0.0, 0.0, 0.0, 1.0]


def test_repro_hilbert_lemmas_statement():
    statements = {item.statement_id: item for item in repro_all(suite=SMALL_SUITE).items}
    hilbert = statements["hilbert_factor_skew_characterization"]
    spin = statements["spin_rank_one_skew_characterization"]
    assert hilbert.status == spin.status == "pass"
    dims = {item.statement_id: item.residuals["triple_dim"] for item in hilbert.items}
    assert dims == {"I_R(2,1)": 1.0, "I_R(3,1)": 3.0}
    for item in list(hilbert.items) + list(spin.items):
        assert item.residuals["max_symmetric_part"] <= 1e-9
        assert item.residuals["symmetric_map_local_residual"] > 0.1


def test_repro_theorem_surrogate_equal_and_gap():
    equal = repro_theorem_surrogate(["I_R(2,2)", "SPIN_R(4,0)"], seed=2)
    assert equal.status == "pass"
    assert equal.residuals["gap"] == 0.0
    assert equal.residuals["max_offblock_leakage"] <= 1e-8
    assert equal.residuals["basis_projection_rest"] <= 1e-8
    assert equal.witnesses["forbidden_summand"] is False

    gap = repro_theorem_surrogate(["I_R(2,2)", "I_C(2,1)"], seed=2)
    assert gap.status == "pass"
    assert gap.residuals["gap"] >= 1.0
    assert gap.residuals["triple_outside_symmetrized"] <= 1e-8
    assert gap.residuals["witness_triple_leibniz_residual"] > 1e-6
    assert gap.witnesses["forbidden_summand"] is True
    # the computed rule: I_C(2,1) has the symmetrized tensor of SPIN_R(4,0)
    # and u(2), of dimension 4, below so(4); I_R(2,2) is rank two
    rules = {rule["summand"]: rule for rule in gap.witnesses["gap_rule"]}
    assert rules["I_C(2,1)"] == {
        "summand": "I_C(2,1)",
        "hilbert_factor": "SPIN_R(4,0)",
        "triple_dim": 4,
        "hilbert_triple_dim": 6,
        "symmetrized_difference": 0.0,
        "forces_gap": True,
    }
    assert rules["I_R(2,2)"]["symmetrized_difference"] >= 1 / 3
    assert rules["I_R(2,2)"]["forces_gap"] is False

    with pytest.raises(EmptySpec):
        repro_theorem_surrogate([], seed=2)


def test_degenerate_one_dimensional_summands_do_not_force_a_gap():
    # C and H columns of length one are isomorphic to rank-one real spin
    # factors, so they are not gap summands
    report = repro_theorem_surrogate(["I_R(2,2)", "I_C(1,1)"], seed=3)
    assert report.status == "pass"
    assert report.residuals["gap"] == 0.0
    assert report.witnesses["forbidden_summand"] is False


def test_tripotent_identities_check_each_symmetrized_basis_map_once(monkeypatch):
    # the statement checks the whole basis stack in one local_residuals pass
    checked = []
    original = derivations.local_residuals

    def spy(maps, *args, **kwargs):
        checked.extend(maps)
        return original(maps, *args, **kwargs)

    monkeypatch.setattr(derivations, "local_residuals", spy)
    ctx = repro._RunContext(SMALL_SUITE)
    report = repro._stmt_tripotent_identities(ctx, seed=1)
    assert report.status == "pass"
    basis = [b.entries for s in ctx.factors for b in derivation_space(s, "symmetrized").basis]
    assert len(checked) == len(basis)
    assert all(np.array_equal(a, b) for a, b in zip(checked, basis))


@pytest.mark.scale
@pytest.mark.parametrize("label", ["I_H(4,4)", "SPIN_R(64,0)"])
def test_public_surrogate_at_the_cap_within_a_minute(label):
    # n = 64: the two spaces and one projection, no per-map check
    start = time.perf_counter()
    report = repro_theorem_surrogate([label], seed=2)
    assert time.perf_counter() - start <= 60.0
    assert report.status == "pass"
    assert report.residuals["gap"] == 0.0


@pytest.fixture
def one_symmetric_basis_map(monkeypatch):
    """Every symmetrized space gets the unit symmetric map I / sqrt(n) as its
    last basis map, which no triple derivation matches at any nonzero point."""
    original = derivations.derivation_space

    def patched(system, kind, *args, **kwargs):
        space = original(system, kind, *args, **kwargs)
        if kind != "symmetrized":
            return space
        unit_symmetric = system.linear_map(np.eye(system.dim) / np.sqrt(system.dim))
        return DerivationSpace(system, kind, space.basis[:-1] + (unit_symmetric,), space.tol)

    monkeypatch.setattr(derivations, "derivation_space", patched)


def test_tripotent_identities_fail_on_one_bad_basis_map(one_symmetric_basis_map):
    report = repro._stmt_tripotent_identities(repro._RunContext(SMALL_SUITE), seed=1)
    assert report.status == "fail"
    assert all(item.residuals["max_local_residual"] > 0.1 for item in report.items)


def test_equal_gap_surrogate_fails_on_one_bad_basis_map(one_symmetric_basis_map):
    report = repro_theorem_surrogate(["I_R(2,2)", "SPIN_R(4,0)"], seed=2)
    assert report.witnesses["forbidden_summand"] is False
    assert report.status == "fail"
    assert report.residuals["basis_projection_rest"] > 0.1


def test_repro_all_runs_each_registry_runner_once(monkeypatch):
    calls = []

    def slowed(statement_id, runner):
        def run(ctx, seed):
            calls.append(statement_id)
            time.sleep(0.006)
            return runner(ctx, seed)

        return run

    monkeypatch.setattr(
        repro,
        "_STATEMENT_RUNNERS",
        tuple((sid, slowed(sid, runner)) for sid, runner in repro._STATEMENT_RUNNERS),
    )
    report = repro_all(seed=0xA11CE, suite=SMALL_SUITE)
    ids = [item.statement_id for item in report.items]
    assert calls == list(STATEMENTS)
    assert ids == list(STATEMENTS)
    assert len(set(ids)) == len(ids)
    # only the timing around each runner call sees the sleep
    assert all(item.runtime_ms >= 5 for item in report.items)


def test_repro_all_builds_each_system_and_computes_each_space_once(monkeypatch):
    # the 54 (system, kind) pairs of a run are each computed once, and every
    # factor is built by the run context's system memo
    spaces, callers = [], []
    compute, build = derivations._computed_space, factors.build_factor

    def computed(system, kind, tol):
        spaces.append((system.name, kind))
        return compute(system, kind, tol)

    def built(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return build(*args, **kwargs)

    monkeypatch.setattr(derivations, "_computed_space", computed)
    monkeypatch.setattr(factors, "build_factor", built)
    assert repro_all().status == "pass"
    assert len(spaces) == len(set(spaces)) == 54
    assert callers and all(code is repro._RunContext.system.__code__ for code in callers)


def test_run_context_builds_each_system_once_and_keeps_the_fault_apart():
    ctx = repro._RunContext(load_suite(), fault=True)
    clean = ctx.system("I_R(2,2)")
    assert ctx.factors[0] is not clean and ctx.factors[0] != clean
    labels = ctx.config["factors"]
    assert all(ctx.system(label) is system for label, system in zip(labels[1:], ctx.factors[1:]))
    pair = ctx.system("I_R(2,2)", "I_C(2,1)")
    assert pair is ctx.system("I_R(2,2)", "I_C(2,1)")
    assert pair == factors.direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")])
    # the clean factor's space does not reach the corrupted copy, nor back
    der = derivation_space(clean, "triple")
    faulty = derivation_space(ctx.factors[0], "triple")
    assert faulty.system is ctx.factors[0] and der.system is clean
    assert (der.dim, faulty.dim) == (2, 0)
    assert derivation_space(clean, "triple") is der


@pytest.fixture(scope="module")
def full_report():
    return repro_all(seed=0xA11CE)


def test_repro_all_passes(full_report):
    assert full_report.status == "pass"
    assert not full_report.flat_failures()
    assert "uncovered_statements" not in full_report.witnesses
    statuses = {item.statement_id: item.status for item in full_report.items}
    assert statuses["hermitian_positivity_advisory"] == "advisory"
    assert all(status in ("pass", "advisory") for status in statuses.values())


def test_advisory_statement_reports_its_worst_real_residual():
    # the advisory row of the Markdown table shows a residual, not a tolerance
    report = repro._stmt_hermitian(repro._RunContext(SMALL_SUITE), seed=1)
    keys = ("max_asymmetry", "min_eigenvalue")
    assert all(tuple(item.residuals) == keys for item in report.items)
    real = [r.residuals[k] for r in (report, *report.items) for k in keys]
    assert report.worst_residual() == max(real)


def test_repro_all_is_deterministic():
    first = repro_all(seed=0xA11CE, suite=SMALL_SUITE)
    second = repro_all(seed=0xA11CE, suite=SMALL_SUITE)
    assert first.to_json() == second.to_json()
    other_seed = repro_all(seed=1, suite=SMALL_SUITE)
    assert other_seed.status == "pass"
    assert other_seed.to_json() != first.to_json()


def test_repro_all_fault_injection():
    faulted = repro_all(seed=0xA11CE, suite=SMALL_SUITE, fault=True)
    assert faulted.status == "fail"
    failures = faulted.flat_failures()
    assert failures
    assert any(f.witnesses for f in failures)


def test_timings_are_excluded_from_canonical_json(full_report):
    text = full_report.to_json()
    assert "runtime_ms" not in text
    with_timings = full_report.to_json(include_timings=True)
    assert "runtime_ms" in with_timings


def test_runtimes_keep_the_microseconds(monkeypatch):
    # a clock that advances 0.25 ms per call: a whole millisecond would read 0
    ticks = itertools.count()
    monkeypatch.setattr("triple_lab.report.time.perf_counter", lambda: 0.00025 * next(ticks))

    @timed
    def check():
        return Report(statement_id="fast", status="pass")

    report = check()
    assert report.runtime_ms == 0.25
    assert json.loads(report.to_json(include_timings=True))["runtime_ms"] == 0.25
    assert "runtime_ms" not in report.to_json()


def test_every_node_of_repro_all_reads_its_runtime(full_report):
    def runtimes(payload):
        yield payload["runtime_ms"]
        for item in payload.get("items", ()):
            yield from runtimes(item)

    read = list(runtimes(json.loads(full_report.to_json(include_timings=True))))
    assert len(read) == 124
    assert all(ms > 0 for ms in read)


def test_suite_config_loads():
    config = load_suite()
    assert "I_C(2,1)" in config["factors"]
    assert set(config["samples"]) == {"norm", "flow_maps", "witness_pairs"}
    # each check runs at its own default tolerance, so the suite sets none
    assert "tolerances" not in config


def test_report_fail_requires_evidence():
    with pytest.raises(ValueError):
        Report(statement_id="x", status="fail")
    with pytest.raises(ValueError):
        Report(statement_id="x", status="bogus")


def test_timed_sets_runtime_on_every_return_path():
    error = InvalidInput("no report")

    @timed
    def check(branch):
        """A check with two return paths and a raise."""
        time.sleep(0.006)
        if branch == "early":
            return Report(statement_id="early", status="pass")
        if branch == "raise":
            raise error
        return Report(statement_id="late", status="fail", residuals={"r": 1.0})

    assert check.__name__ == "check"
    assert check.__doc__ == "A check with two return paths and a raise."
    assert check("early").runtime_ms >= 5
    assert check("late").runtime_ms >= 5
    with pytest.raises(InvalidInput) as raised:
        check("raise")
    assert raised.value is error


def test_every_flow_sub_report_is_timed(monkeypatch):
    # a clock that advances 1 s per call: a timed report reads at least 1000 ms,
    # an untimed one 0, however fast the check itself is
    ticks = itertools.count()
    monkeypatch.setattr("triple_lab.report.time.perf_counter", lambda: float(next(ticks)))
    # the triple derivation space of I_R(1,1) is zero, so its flow members are zero maps
    suite = dict(SMALL_SUITE, factors=["I_C(2,1)", "I_R(1,1)"])
    assert derivation_space(build_factor("I_R(1,1)"), "triple").dim == 0
    flows = repro._stmt_flows(repro._RunContext(suite), seed=1)
    assert [item.statement_id for item in flows.items] == [
        "flows[I_C(2,1)]",
        "flows[I_R(1,1)]",
        "counterexample_flow_breaks_triple_product",
        "counterexample_flow_preserves_symmetrized_product",
    ]
    assert all(item.status == "pass" for item in flows.items)
    assert flows.items[1].residuals == {"max_residual": 0.0}
    assert all(item.runtime_ms > 0 for item in flows.items)


# -- command-line interface ------------------------------------------------


def test_cli_factor_build_and_schema(tmp_path):
    result = run_cli(
        ["factor", "build", "--kind", "I_C", "--dims", "2,1", "--out", "f.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "f.json").read_text())
    assert sorted(payload.keys()) == [
        "complex_structure", "dim", "factor_kind", "name", "norm_kind", "rank_hint", "tensor",
    ]
    assert payload["dim"] == 4
    assert len(payload["tensor"]) == 256


@pytest.mark.parametrize("dims", ["2,x", "2,", "two", "2.0,1"])
def test_cli_factor_build_rejects_malformed_dims(tmp_path, dims):
    result = run_cli(
        ["factor", "build", "--kind", "I_R", "--dims", dims, "--out", "f.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert repr(dims) in result.stderr
    assert not (tmp_path / "f.json").exists()


def test_cli_factor_build_rejects_oversized_dims(tmp_path):
    result = run_cli(
        ["factor", "build", "--kind", "I_R", "--dims", "20,20", "--out", "f.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: dimension 400 exceeds the cap")
    assert not (tmp_path / "f.json").exists()


def test_cli_der_compute_and_check_local(tmp_path):
    result = run_cli(
        ["factor", "build", "--kind", "I_C", "--dims", "2,1", "--out", "f.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    result = run_cli(
        ["der", "compute", "--factor", "f.json", "--kind", "triple", "--out", "der.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    space = json.loads((tmp_path / "der.json").read_text())
    assert space["kind"] == "triple"
    assert len(space["basis"]) == 4

    (tmp_path / "t.json").write_text(
        json.dumps({"dim": 4, "entries": [0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0]})
    )
    result = run_cli(
        [
            "der", "check-local", "--factor", "f.json", "--map", "t.json",
            "--samples", "256", "--seed", "0xA11CE", "--report", "local.json",
        ],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "local.json").read_text())
    assert report["status"] == "pass"
    assert report["residuals"]["max_residual"] <= 1e-8

    # a map that is not local fails with exit code 1
    (tmp_path / "bad.json").write_text(
        json.dumps({"dim": 4, "entries": list(np.eye(4).reshape(-1))})
    )
    result = run_cli(
        ["der", "check-local", "--factor", "f.json", "--map", "bad.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 1


def test_cli_structure_peirce(tmp_path):
    result = run_cli(
        ["factor", "build", "--kind", "I_R", "--dims", "2,2", "--out", "f.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    result = run_cli(
        ["structure", "peirce", "--factor", "f.json", "--tripotent", "0",
         "--report", "p.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "p.json").read_text())
    assert payload["peirce_dims"] == [1, 2, 1]
    assert payload["arithmetic"]["status"] == "pass"
    # coordinate input works too
    result = run_cli(
        ["structure", "peirce", "--factor", "f.json", "--tripotent", "1,0,0,1"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    # a non-tripotent is a clean error, not a traceback
    result = run_cli(
        ["structure", "peirce", "--factor", "f.json", "--tripotent", "0.5,0,0,0"],
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "error" in result.stderr


@pytest.mark.parametrize(
    "tripotent",
    ["99", "-1", "x", "1,x,0,0", "1,,0,0", "1,0,0", "1,0,0,0,0"],
    ids=["index_out_of_range", "negative_index", "index_not_int", "coordinate_not_number",
         "empty_coordinate", "too_few_coordinates", "too_many_coordinates"],
)
def test_cli_structure_peirce_rejects_bad_tripotent(tmp_path, tripotent):
    triple_core.save_system(build_factor("I_C(2,1)"), tmp_path / "f.json")
    result = run_cli(
        ["structure", "peirce", "--factor", "f.json", "--tripotent", tripotent,
         "--report", "p.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert not (tmp_path / "p.json").exists()


def test_cli_repro_all_with_suite_override(tmp_path):
    (tmp_path / "small.json").write_text(json.dumps(SMALL_SUITE))
    first = run_cli(
        ["repro", "all", "--seed", "0xA11CE", "--suite", "small.json",
         "--out", "r1.json", "--markdown", "r.md"],
        cwd=tmp_path,
    )
    assert first.returncode == 0, first.stderr
    second = run_cli(
        ["repro", "all", "--seed", "0xA11CE", "--suite", "small.json",
         "--out", "r2.json"],
        cwd=tmp_path,
    )
    assert second.returncode == 0, second.stderr
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    markdown = (tmp_path / "r.md").read_text()
    assert "| counterexample_rank_one_complex | pass |" in markdown

    fault = run_cli(
        ["repro", "all", "--seed", "0xA11CE", "--suite", "small.json",
         "--fault", "--out", "rf.json"],
        cwd=tmp_path,
    )
    assert fault.returncode == 1
    payload = json.loads((tmp_path / "rf.json").read_text())
    assert payload["status"] == "fail"


MALFORMED_SUITES = {
    "missing_key": json.dumps({k: v for k, v in SMALL_SUITE.items() if k != "samples"}),
    "empty_sums_equal": json.dumps(dict(SMALL_SUITE, sums_equal=[])),
    "empty_sums_gap": json.dumps(dict(SMALL_SUITE, sums_gap=[])),
    "sample_count_not_int": json.dumps(
        dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], flow_maps="4"))
    ),
    # a count of 0 checks nothing, and bool is an int subclass but no count
    "sample_count_zero": json.dumps(dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], norm=0))),
    "sample_count_negative": json.dumps(
        dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], witness_pairs=-5))
    ),
    "sample_count_bool": json.dumps(dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], flow_maps=True))),
    "top_level_list": json.dumps([SMALL_SUITE]),
    "invalid_json": "{not json",
    "missing_file": None,
    # keys that nothing reads are refused, at the top level and in the samples table
    "unknown_key": json.dumps(dict(SMALL_SUITE, spectral_gap=1e-8)),
    # the checks run at their own default tolerances
    "unknown_tolerance": json.dumps(
        dict(SMALL_SUITE, tolerances={"algebraic": 1e-10, "peirce": 1e-9, "flow": 1e-7})
    ),
    "unknown_sample": json.dumps(
        dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], local_points=64))
    ),
    # the tripotent identities run on the symmetrized basis, not on samples
    "unknown_sample_tripotent_maps": json.dumps(
        dict(SMALL_SUITE, samples=dict(SMALL_SUITE["samples"], tripotent_maps=64))
    ),
    # the Hilbert sizes build I_R(n,1) and SPIN_R(n,0): bool is no size, 1 is
    # below SPIN_R's range and 100 over the cap
    "hilbert_size_bool": json.dumps(dict(SMALL_SUITE, hilbert_sizes=[True])),
    "hilbert_size_one": json.dumps(dict(SMALL_SUITE, hilbert_sizes=[1])),
    "hilbert_size_over_cap": json.dumps(dict(SMALL_SUITE, hilbert_sizes=[100])),
    "empty_sum": json.dumps(dict(SMALL_SUITE, sums_gap=[[]])),
    # an empty list checks nothing; without factors the advisory statement raised ValueError
    "empty_factors": json.dumps(dict(SMALL_SUITE, factors=[])),
    "empty_hilbert_sizes": json.dumps(dict(SMALL_SUITE, hilbert_sizes=[])),
    # every label parses before any statement runs, and each built system fits the cap
    "bad_factor_label": json.dumps(dict(SMALL_SUITE, factors=["I_R(0,2)"])),
    "bad_complex_label": json.dumps(dict(SMALL_SUITE, complex_factors=["I_X(2,1)"])),
    "bad_rank_one_label": json.dumps(dict(SMALL_SUITE, rank_one_factors=["I_C(2)"])),
    "bad_sum_label": json.dumps(dict(SMALL_SUITE, sums_equal=[["I_R(2,2)", "nonsense"]])),
    "complex_factor_over_cap": json.dumps(dict(SMALL_SUITE, complex_factors=["I_C(6,6)"])),
    "sum_over_cap": json.dumps(dict(SMALL_SUITE, sums_equal=[["I_R(6,6)", "I_R(6,6)"]])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SUITES))
def test_cli_rejects_malformed_suite(tmp_path, case):
    text = MALFORMED_SUITES[case]
    if text is not None:
        (tmp_path / "bad.json").write_text(text)
    result = run_cli(["repro", "all", "--suite", "bad.json"], cwd=tmp_path)
    assert result.returncode == 2
    assert "error:" in result.stderr
    if case not in ("invalid_json", "missing_file"):
        # a suite passed in directly is checked the same way
        with pytest.raises(InvalidInput):
            repro_all(suite=json.loads(text))


@pytest.mark.parametrize(
    "args",
    [
        ["repro", "all", "--seed", "-1"],
        ["der", "check-local", "--factor", "f.json", "--map", "t.json", "--seed", "-1"],
        ["der", "check-local", "--factor", "f.json", "--map", "t.json", "--samples", "-3"],
    ],
    ids=["repro_seed", "check_local_seed", "check_local_samples"],
)
def test_cli_rejects_negative_seed_and_sample_count(tmp_path, args):
    triple_core.save_system(build_factor("I_C(2,1)"), tmp_path / "f.json")
    (tmp_path / "t.json").write_text(json.dumps({"dim": 4, "entries": [0.0] * 16}))
    result = run_cli(args, cwd=tmp_path)
    assert result.returncode == 2
    assert "is negative" in result.stderr


UNWRITABLE_OUTPUTS = {
    "factor_build": ["factor", "build", "--kind", "I_C", "--dims", "2,1", "--out", "missing/f.json"],
    "der_compute": ["der", "compute", "--factor", "f.json", "--kind", "triple", "--out", "missing/d.json"],
    "structure_peirce": ["structure", "peirce", "--factor", "f.json", "--tripotent", "0", "--report", "."],
    "repro_markdown": ["repro", "all", "--suite", "small.json", "--markdown", "missing/m.md"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_cli_reports_an_unwritable_output_path(tmp_path, case):
    triple_core.save_system(build_factor("I_C(2,1)"), tmp_path / "f.json")
    (tmp_path / "small.json").write_text(json.dumps(SMALL_SUITE))
    result = run_cli(UNWRITABLE_OUTPUTS[case], cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: cannot write ")


def test_negative_seed_is_refused_and_zero_samples_check_the_basis_points(tmp_path):
    with pytest.raises(InvalidInput, match="non-negative"):
        repro_all(seed=-1, suite=SMALL_SUITE)
    triple_core.save_system(build_factor("I_C(2,1)"), tmp_path / "f.json")
    (tmp_path / "t.json").write_text(json.dumps({"dim": 4, "entries": [0.0] * 16}))
    result = run_cli(
        ["der", "check-local", "--factor", "f.json", "--map", "t.json", "--samples", "0",
         "--seed", "0", "--report", "local.json"],
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "local.json").read_text())["status"] == "pass"


def _factor_text(drop=(), **changes):
    payload = dict(triple_core.system_to_json(build_factor("I_C(2,1)")), **changes)
    return json.dumps({k: v for k, v in payload.items() if k not in drop})


MALFORMED_WIRE_FILES = {
    "missing_file": None,
    "invalid_json": "{not json",
    "top_level_list": json.dumps([1.0, 2.0]),
    "missing_tensor": _factor_text(drop=("tensor",)),
    "missing_norm_kind": _factor_text(drop=("norm_kind",)),
    "wrong_tensor_length": _factor_text(tensor=[0.0] * 255),
    "missing_entries": json.dumps({"dim": 4}),
}
# the map cases read a good factor; the factor cases compute a space from it
WIRE_COMMANDS = {
    "factor": ["der", "compute", "--factor", "bad.json", "--kind", "triple", "--out", "d.json"],
    "map": ["der", "check-local", "--factor", "f.json", "--map", "bad.json"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WIRE_FILES))
@pytest.mark.parametrize("role", sorted(WIRE_COMMANDS))
def test_cli_rejects_malformed_factor_and_map_files(tmp_path, role, case):
    triple_core.save_system(build_factor("I_C(2,1)"), tmp_path / "f.json")
    text = MALFORMED_WIRE_FILES[case]
    if text is not None:
        (tmp_path / "bad.json").write_text(text)
    result = run_cli(WIRE_COMMANDS[role], cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize(
    "rank_hint",
    ['"two"', "[1]", "1.5", "-1", "true"],
    ids=["string", "list", "float", "negative", "bool"],
)
def test_cli_rejects_malformed_rank_hint(tmp_path, rank_hint):
    path = tmp_path / "bad.json"
    triple_core.save_system(build_factor("I_C(2,1)"), path)
    text = path.read_text()
    assert '"rank_hint":1,' in text
    path.write_text(text.replace('"rank_hint":1,', f'"rank_hint":{rank_hint},'))
    result = run_cli(WIRE_COMMANDS["factor"], cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        f"error: rank_hint must be null or a non-negative integer, got {json.loads(rank_hint)!r}\n"
    )
    assert not (tmp_path / "d.json").exists()
