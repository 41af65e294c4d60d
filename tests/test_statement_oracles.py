"""The stacked statement passes against the per-map and per-point loops they
replace.

``rank_gt_one_flow_equivalence`` checks every (member, t) flow of a factor in
one stacked pass, and ``rank_one_symmetrized_implies_local`` forms every
(member, point) witness in one Peirce pass.  The oracles below are those
loops as they were written one flow and one pair at a time, with the slot
contraction done by ``np.tensordot`` and L(a, b) by its defining einsum.
"""

import tracemalloc

import numpy as np
import pytest

from triple_lab import build_factor, derivation_space, derivations, direct_sum, repro
from triple_lab.errors import InvalidInput
from triple_lab.numerics import expm
from triple_lab.repro import DEFAULT_SEED, counterexample_map, load_suite

SUITE = load_suite()
STATEMENT_INDEX = {statement_id: i for i, (statement_id, _) in enumerate(repro._STATEMENT_RUNNERS)}
FLOW_SEED = DEFAULT_SEED ^ STATEMENT_INDEX["rank_gt_one_flow_equivalence"]
WITNESS_SEED = DEFAULT_SEED ^ STATEMENT_INDEX["rank_one_symmetrized_implies_local"]
GRID = [1.0, -1.0, 0.5, -0.5]


def _tensordot_slots(p, *maps):
    for slot, m in enumerate(maps):
        if m is not None:
            p = np.moveaxis(np.tensordot(m, p, axes=([0], [slot])), 0, slot)
    return p


def _flow_oracle(t, kind, t_grid, tol=1e-7):
    """(residuals, witnesses) of ``exp_flow_check``, one t at a time."""
    p = t.system.product_tensor(kind)
    residuals, witness = {}, {}
    for value in map(float, t_grid):
        g = expm(value * t.entries)
        diff = p @ g.T - _tensordot_slots(p, g, g, g)
        worst = float(np.sqrt(np.einsum("...l,...l->...", diff, diff).max(initial=0.0)))
        key = f"t={value:g}" if float(f"{value:g}") == value else f"t={value!r}"
        residuals[key] = worst
        if not np.isfinite(worst):
            witness[key] = {"residual": worst, "bound": None}
        elif worst > tol:
            bound = tol * (1.0 + np.linalg.norm(g, 2) ** 3)
            if worst > bound:
                witness[key] = {"residual": worst, "bound": bound}
    return residuals, witness


def _assert_report_is_the_oracle(report, oracle):
    residuals, witness = oracle
    assert list(report.residuals) == list(residuals)
    assert all(report.residuals[key] == value for key, value in residuals.items())
    assert report.witnesses == witness
    assert report.status == ("fail" if witness else "pass")


@pytest.mark.parametrize("label", SUITE["factors"])
def test_suite_flows_are_the_per_t_oracle_bit_for_bit(label):
    system = build_factor(label)
    der = derivation_space(system, "triple")
    members = repro._seeded_members(der, SUITE["samples"]["flow_maps"], FLOW_SEED)
    stack = np.stack([member.entries for member in members])
    reports = derivations.exp_flow_reports(system, stack, "triple", GRID)
    assert len(reports) == len(members)
    worst = 0.0
    for member, report in zip(members, reports):
        oracle = _flow_oracle(member, "triple", GRID)
        _assert_report_is_the_oracle(report, oracle)
        _assert_report_is_the_oracle(derivations.exp_flow_check(member, "triple", GRID), oracle)
        worst = max(worst, max(oracle[0].values()))
    # the statement's sub-report reads the same worst flow
    flows = repro._stmt_flows(repro._RunContext(dict(SUITE, factors=[label])), FLOW_SEED)
    assert flows.items[0].residuals == {"max_residual": worst}


def test_counterexample_flows_are_the_per_t_oracle_bit_for_bit():
    t = counterexample_map(build_factor("I_C(2,1)"))
    for kind, grid in (("triple", [1.0]), ("symmetrized", GRID), ("triple", [1.0, 1.0000001, 1.0])):
        _assert_report_is_the_oracle(derivations.exp_flow_check(t, kind, grid), _flow_oracle(t, kind, grid))


def test_flow_chunks_split_the_stack_as_the_single_calls(monkeypatch):
    # chunks of 3 flows cut across members and grids alike
    system = build_factor("SPIN_R(3,1)")
    der = derivation_space(system, "triple")
    stack = np.stack([m.entries for m in repro._seeded_members(der, 5, 3)])
    whole = derivations.exp_flow_reports(system, stack, "triple", GRID)
    monkeypatch.setattr(derivations, "batch_rows", lambda per_row: 3)
    chunked = derivations.exp_flow_reports(system, stack, "triple", GRID)
    for a, b in zip(whole, chunked):
        assert a.residuals == b.residuals and a.witnesses == b.witnesses


def _L(c, a, b):
    return np.einsum("ijkl,i,j->lk", c, a, b)


def _witness_oracle(t, coords, c):
    """``rank_one_local_witness`` from its formula, for one map and one point."""
    norm = np.linalg.norm(coords)
    u = coords / norm
    a = _L(c, u, u)
    p1 = 4.0 * a @ (np.eye(len(u)) - a)
    tx = t @ coords
    w = tx + 3.0 * (p1 @ tx)
    return (_L(c, w, u) - _L(c, u, w)) / (2.0 * norm)


@pytest.mark.parametrize("offset, label", list(enumerate(SUITE["rank_one_factors"])))
def test_suite_witness_error_is_the_per_pair_oracle(offset, label):
    system = build_factor(label)
    sym = derivation_space(system, "symmetrized")
    rng = np.random.default_rng(WITNESS_SEED ^ offset)
    worst = 0.0
    for _ in range(SUITE["samples"]["witness_pairs"]):
        member = sym.member(rng.standard_normal(sym.dim))
        coords = rng.standard_normal(system.dim)
        delta = _witness_oracle(member.entries, coords, system.tensor)
        err = float(np.linalg.norm(delta @ coords - member.entries @ coords)) / np.linalg.norm(coords)
        worst = max(worst, err)
        single = derivations.rank_one_local_witness(member, system.element(coords)).entries
        assert np.max(np.abs(single - delta)) <= 1e-14
    report = repro._stmt_rank_one_witness(
        repro._RunContext(dict(SUITE, rank_one_factors=SUITE["rank_one_factors"][: offset + 1])),
        WITNESS_SEED,
    )
    got = report.items[offset].residuals["max_relative_error"]
    assert abs(got - worst) <= 1e-15


def test_witness_stack_rows_are_the_single_witnesses():
    system = build_factor("SPIN_R(4,0)")
    sym = derivation_space(system, "symmetrized")
    rng = np.random.default_rng(8)
    maps = np.einsum("br,rnm->bnm", rng.standard_normal((6, sym.dim)), sym.basis_stack())
    coords = rng.standard_normal((6, system.dim))
    stack = derivations.rank_one_witness_maps(system, maps, coords)
    for delta, t, x in zip(stack, maps, coords):
        single = derivations.rank_one_local_witness(system.linear_map(t), system.element(x))
        assert np.max(np.abs(delta - single.entries)) <= 1e-15
    coords[3] = 0.0
    with pytest.raises(InvalidInput, match="nonzero"):
        derivations.rank_one_witness_maps(system, maps, coords)


@pytest.mark.parametrize("specs", SUITE["sums_equal"] + SUITE["sums_gap"], ids="+".join)
def test_basis_leibniz_and_local_residuals_are_the_per_map_calls(specs):
    system = direct_sum([build_factor(label) for label in specs])
    sym = derivation_space(system, "symmetrized")
    der = derivation_space(system, "triple")
    stack = sym.basis_stack()
    leibniz = derivations.leibniz_residuals(system, stack, "triple")
    assert leibniz.tolist() == [derivations.leibniz_residual(b, "triple")["max_residual"] for b in sym.basis]
    points = derivations.default_point_set(system, samples=16, seed=4)
    local = derivations.local_residuals(stack, points, der)
    for row, b in zip(local, sym.basis):
        single = derivations.local_derivation_residual(b, points, space=der)
        assert abs(float(row.max()) - single.residuals["max_residual"]) <= 1e-15


def test_flows_at_the_cap_take_one_flow_at_a_time():
    # n = 64: batch_rows(n^4) is 1, so the grid goes one t at a time and the
    # peak stays within four n^4 tensors
    system = build_factor("SPIN_R(64,0)")
    n = system.dim
    t = system.linear_map(np.random.default_rng(0).standard_normal((n, n)) * 0.01)
    tracemalloc.start()
    try:
        report = derivations.exp_flow_check(t, "triple", GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(report.residuals) == ["t=1", "t=-1", "t=0.5", "t=-0.5"]
    assert peak <= 4 * n**4 * 8 + 16 * 2**20
