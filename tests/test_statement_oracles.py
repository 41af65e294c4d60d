"""The stacked statement passes against the per-map and per-point loops they
replace.

``rank_gt_one_flow_equivalence`` checks every (member, t) flow of a factor in
one stacked pass, and ``rank_one_symmetrized_implies_local`` forms every
(member, point) witness in one Peirce pass.  The oracles below are those
loops as they were written one flow and one pair at a time, with the slot
contraction done by ``np.tensordot`` and L(a, b) by its defining einsum.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from triple_lab import build_factor, derivation_space, derivations, direct_sum, repro, structure
from triple_lab.errors import InvalidInput
from triple_lab.numerics import expm, span_distance
from triple_lab.repro import DEFAULT_SEED, counterexample_map, load_suite
from triple_lab.triple_core import in_slots

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
    stack = repro._seeded_members(der, SUITE["samples"]["flow_maps"], FLOW_SEED)
    members = [system.linear_map(m) for m in stack]
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
    stack = repro._seeded_members(der, 5, 3)
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
    maps = np.einsum("br,rnm->bnm", rng.standard_normal((6, sym.dim)), sym.entries)
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
    stack = sym.entries
    leibniz = derivations.leibniz_residuals(system, stack, "triple")[0]
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


# -- consumers of the basis array against the per-map loops they replace --------


def _loop_members(space, weights):
    """``DerivationSpace.member`` as it was first written: one map at a time."""
    n = space.system.dim
    entries = np.zeros((n, n))
    for w, t in zip(weights, space.basis):
        entries += w * t.entries
    return entries


def _loop_seeded_members(space, count, seed):
    """``repro._seeded_members`` one member at a time."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(count):
        weights = rng.standard_normal(space.dim)
        weights /= max(np.linalg.norm(weights), 1e-300)
        members.append(_loop_members(space, weights))
    return members


@pytest.mark.parametrize("label", SUITE["factors"] + ["I_R(1,1)"])
def test_members_are_the_per_map_sums_bit_for_bit(label):
    system = build_factor(label)
    for kind in ("triple", "symmetrized"):
        space = derivation_space(system, kind)
        stack = repro._seeded_members(space, SUITE["samples"]["flow_maps"], FLOW_SEED)
        oracle = _loop_seeded_members(space, SUITE["samples"]["flow_maps"], FLOW_SEED)
        assert stack.shape == (len(oracle), system.dim, system.dim)
        assert all(np.array_equal(got, want) for got, want in zip(stack, oracle))
        weights = np.random.default_rng(3).standard_normal(space.dim)
        assert np.array_equal(space.member(weights).entries, _loop_members(space, weights))
        with pytest.raises(InvalidInput):
            space.member(np.ones(space.dim + 1))
        with pytest.raises(InvalidInput):
            space.members(np.ones(space.dim))


@pytest.mark.parametrize("label", SUITE["complex_factors"])
def test_commutators_are_the_per_map_loop_bit_for_bit(label):
    system = build_factor(label)
    j = system.complex_structure
    for kind in ("triple", "symmetrized"):
        space = derivation_space(system, kind)
        report = derivations.check_complex_linearity(space)
        oracle = [float(np.linalg.norm(t.entries @ j - j @ t.entries)) for t in space.basis]
        assert report.witnesses["commutators"] == oracle
        worst = max(oracle, default=0.0)
        assert report.residuals["max_commutator"] == worst
        assert report.witnesses["worst_member"] == (oracle.index(worst) if worst > 0 else None)


def _span_distance_loop(inner, outer):
    """Largest distance of a basis map of ``inner`` from the span of ``outer``, map by map."""
    cols = outer.entries.reshape(outer.dim, -1).T
    return max((span_distance(t.entries, cols) for t in inner.basis), default=0.0)


@pytest.mark.parametrize("label", SUITE["factors"])
def test_iap_distances_are_the_per_map_loop(label):
    # a GEMM over the stack in place of one GEMV per map: the distances, at
    # rounding level, move by at most a few ulps of 1
    system = build_factor(label)
    der = derivation_space(system, "triple")
    inner = derivation_space(system, "inner_span")
    residuals = derivations.check_IAP_finite(system).residuals
    assert abs(residuals["inner_outside_triple"] - _span_distance_loop(inner, der)) <= 1e-15
    assert abs(residuals["triple_outside_inner"] - _span_distance_loop(der, inner)) <= 1e-15
    assert residuals["triple_dim"] == der.dim and residuals["inner_dim"] == inner.dim


def test_iap_distances_of_spaces_apart_are_the_per_map_loop():
    # spaces that are not each other's spans: the distances are of order 1
    system = build_factor("I_C(2,1)")
    sym = derivation_space(system, "symmetrized")
    der = derivation_space(system, "triple")
    rows = sym.entries.reshape(sym.dim, -1)
    rest = rows - (rows @ der.entries.reshape(der.dim, -1).T) @ der.entries.reshape(der.dim, -1)
    assert np.linalg.norm(rest, axis=1).max() == pytest.approx(_span_distance_loop(sym, der), rel=1e-14)


@pytest.mark.parametrize("statement", ["hilbert_factor_skew_characterization", "spin_rank_one_skew_characterization"])
def test_skew_part_is_the_per_map_loop_bit_for_bit(statement):
    seed = DEFAULT_SEED ^ STATEMENT_INDEX[statement]
    runner = dict(repro._STATEMENT_RUNNERS)[statement]
    report = runner(repro._RunContext(SUITE), seed)
    template = "I_R({n},1)" if statement.startswith("hilbert") else "SPIN_R({n},0)"
    for n, item in zip(SUITE["hilbert_sizes"], report.items):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            der = derivation_space(build_factor(template.format(n=n)), "triple")
        oracle = max((float(np.max(np.abs(b.entries + b.entries.T))) for b in der.basis), default=0.0)
        assert item.residuals["max_symmetric_part"] == oracle


def _leakage_loop(t):
    """The largest entry of one map outside the diagonal blocks of its direct sum."""
    mask = np.ones(t.entries.shape, dtype=bool)
    for offset, length, _ in t.system.blocks:
        mask[offset : offset + length, offset : offset + length] = False
    return float(np.max(np.abs(t.entries[mask]), initial=0.0))


@pytest.mark.parametrize("specs", SUITE["sums_equal"] + SUITE["sums_gap"], ids="+".join)
def test_leakage_is_the_per_map_loop_bit_for_bit(specs):
    system = direct_sum([build_factor(label) for label in specs])
    sym = derivation_space(system, "symmetrized")
    oracle = [_leakage_loop(t) for t in sym.basis]
    report = repro.repro_theorem_surrogate(specs, DEFAULT_SEED)
    assert report.residuals["max_offblock_leakage"] == max(oracle, default=0.0)
    # a map that leaks, in the middle of the basis, is the first worst map
    leaking = np.array(sym.entries)
    leaking[len(leaking) // 2, -1, 0] = 1.0
    maps = [system.linear_map(m) for m in leaking]
    oracle = [_leakage_loop(t) for t in maps]
    for given in (leaking, maps):
        invariance = structure.check_ideal_invariance(system, given)
        assert invariance.residuals["max_offblock_entry"] == max(oracle) == 1.0
        assert invariance.witnesses == {"map_index": oracle.index(1.0)}
    assert structure.offblock_leakages(system, leaking).tolist() == oracle


def _dense_leibniz_witness(t, kind):
    """``leibniz_residual`` from the dense defect tensor, as it was first written."""
    p, m = t.system.product_tensor(kind), t.entries
    res = p @ m.T - _tensordot_slots(p, m) - _tensordot_slots(p, None, m) - _tensordot_slots(p, None, None, m)
    norms = np.sqrt(np.einsum("...l,...l->...", res, res))
    i, j, k = (int(v) for v in np.unravel_index(int(norms.argmax()), norms.shape))
    applied = m @ p[i, j, k, :]
    return float(norms.max()), (i, j, k), applied, applied - res[i, j, k, :]


def _assert_witness_is_the_dense_formula(t, kind):
    worst, triple, applied, leibniz_sum = _dense_leibniz_witness(t, kind)
    got = derivations.leibniz_residual(t, kind)
    scale = max(1.0, float(np.abs(t.system.tensor).max()) * float(np.abs(t.entries).max()))
    assert abs(got["max_residual"] - worst) <= 1e-15 * scale
    assert got["witness_triple"] == triple
    assert np.max(np.abs(got["witness_lhs"] - applied)) <= 1e-15 * scale
    assert np.max(np.abs(got["witness_leibniz_sum"] - leibniz_sum)) <= 2e-15 * scale
    # and bit for bit lhs minus the in_slots defect at the witness triple
    p, m = t.system.product_tensor(kind), t.entries[None]
    res = p @ np.swapaxes(m, -1, -2)[:, None, None]
    for slot in range(3):
        res -= in_slots(p, *[None] * slot, m)
    assert np.array_equal(got["witness_lhs"], m[0] @ p[triple])
    assert np.array_equal(got["witness_leibniz_sum"], got["witness_lhs"] - res[(0, *triple)])


@pytest.mark.parametrize("label", SUITE["factors"])
def test_leibniz_witness_is_the_dense_formula(label):
    system = build_factor(label)
    rng = np.random.default_rng(9)
    for kind in ("triple", "symmetrized"):
        # maps with a real defect, whose argmax triple is well separated
        for _ in range(3):
            _assert_witness_is_the_dense_formula(system.linear_map(rng.standard_normal((system.dim,) * 2)), kind)


def test_leibniz_witness_of_the_counterexample_is_the_dense_formula():
    t = counterexample_map(build_factor("I_C(2,1)"))
    for kind in ("triple", "symmetrized"):
        _assert_witness_is_the_dense_formula(t, kind)
    # the triple defect the statement reads is exact: the witness too
    worst, triple, applied, leibniz_sum = _dense_leibniz_witness(t, "triple")
    got = derivations.leibniz_residual(t, "triple")
    assert (got["max_residual"], got["witness_triple"]) == (worst, triple) == (1.0, (0, 1, 0))
    assert np.array_equal(got["witness_lhs"], applied)
    assert np.array_equal(got["witness_leibniz_sum"], leibniz_sum)
