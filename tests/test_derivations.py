import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from triple_lab import (
    Element,
    build_factor,
    canonical_tripotents,
    check_IAP_finite,
    check_complex_linearity,
    derivation_space,
    direct_sum,
    exp_flow_check,
    inner_derivation,
    is_derivation,
    local_derivation_residual,
    peirce,
    rank_one_local_witness,
    two_local_lift,
)
from triple_lab import derivations
from triple_lab.derivations import (
    DEFAULT_SEED,
    DerivationSpace,
    _grouped_norms,
    _leibniz_blocks,
    default_point_set,
    leibniz_residual,
    space_from_json,
    space_to_json,
)
from triple_lab.errors import InvalidInput, NoSpectralGap, SystemMismatch, Unsupported
from triple_lab.factors import as_real_form
from triple_lab.numerics import least_squares_residual, orthonormal_columns, span_distance
from triple_lab.report import canonical_json
from triple_lab.repro import counterexample_map, load_suite
from triple_lab.triple_core import (
    LinearMap,
    Q_operator,
    TripleSystem,
    sign_grading,
)


def oracle_leibniz_matrix(system, kind):
    """Independent path: the Leibniz operator stacked from per-map defects.

    Column ``a*n + b`` is the Leibniz defect of the matrix unit E_ab over all
    basis triples, rows indexed (i, j, k, l) as in ``leibniz_residual``.
    """
    n = system.dim
    p = system.product_tensor(kind)
    columns = []
    for unit in range(n * n):
        d = np.zeros((n * n,))
        d[unit] = 1.0
        d = d.reshape(n, n)
        defect = (
            np.einsum("lm,ijkm->ijkl", d, p)
            - np.einsum("mi,mjkl->ijkl", d, p)
            - np.einsum("mj,imkl->ijkl", d, p)
            - np.einsum("mk,ijml->ijkl", d, p)
        )
        columns.append(defect.reshape(-1))
    return np.column_stack(columns)


def oracle_derivation_dim(system, kind):
    """Kernel dimension of the stacked Leibniz operator, by scipy."""
    return scipy.linalg.null_space(oracle_leibniz_matrix(system, kind)).shape[1]


TRIPLE_DIMS = {
    "I_R(2,2)": 2,
    "I_R(3,1)": 3,
    "I_C(2,1)": 4,
    "I_C(2,2)": 7,
    "I_H(2,1)": 13,
    "II_R(4)": 6,
    "III_R(3)": 3,
    "SPIN_R(3,0)": 3,
    "SPIN_R(3,1)": 3,
    "SPIN_C(3)": 4,
}

SYM_DIMS = {
    "I_C(2,1)": 6,   # all real-skew maps on R^4
    "I_H(2,1)": 28,  # all real-skew maps on R^8
}


@pytest.mark.parametrize("label,expected", sorted(TRIPLE_DIMS.items()))
def test_triple_derivation_dimensions(label, expected):
    system = build_factor(label)
    space = derivation_space(system, "triple")
    assert space.dim == expected
    assert oracle_derivation_dim(system, "triple") == expected


@pytest.mark.parametrize("label", sorted(TRIPLE_DIMS))
def test_symmetrized_contains_triple(label):
    system = build_factor(label)
    tri = derivation_space(system, "triple")
    sym = derivation_space(system, "symmetrized")
    expected_sym = SYM_DIMS.get(label, TRIPLE_DIMS[label])
    assert sym.dim == expected_sym
    assert oracle_derivation_dim(system, "symmetrized") == expected_sym
    sym_cols = sym.entries.reshape(sym.dim, -1).T
    worst = max((span_distance(t.entries, sym_cols) for t in tri.basis), default=0.0)
    assert worst <= 1e-8


def test_rank_one_hilbert_spaces_are_skew():
    for n in (2, 3, 4, 5):
        for label in (f"I_R({n},1)", f"SPIN_R({n},0)"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                system = build_factor(label)
            space = derivation_space(system, "triple")
            assert space.dim == n * (n - 1) // 2
            for member in space.basis:
                assert np.max(np.abs(member.entries + member.entries.T)) <= 1e-9


def test_spin_members_annihilate_inner_product():
    system = build_factor("SPIN_R(4,0)")
    space = derivation_space(system, "triple")
    rng = np.random.default_rng(0)
    for member in space.basis:
        for _ in range(10):
            x = rng.standard_normal(4)
            assert abs(float(x @ (member.entries @ x))) < 1e-10


def test_orthonormality_of_bases():
    system = build_factor("I_C(2,1)")
    for kind in ("triple", "symmetrized", "inner_span"):
        space = derivation_space(system, kind)
        stack = space.entries.reshape(space.dim, -1)
        gram = stack @ stack.T
        assert np.max(np.abs(gram - np.eye(space.dim))) <= 1e-10


@pytest.mark.parametrize("label", ["I_C(2,2)", "SPIN_R(5,0)", "I_H(2,1)", "III_R(4)"])
def test_inner_span_is_the_span_of_basis_inner_derivations(label):
    system = build_factor(label)
    space = derivation_space(system, "inner_span")
    e = [system.basis_element(i) for i in range(system.dim)]
    # independent path: one L_operator contraction per pair
    spanning = [
        inner_derivation(e[i], e[j]).entries.reshape(-1)
        for i in range(system.dim)
        for j in range(i + 1, system.dim)
    ]
    reference = orthonormal_columns(np.column_stack(spanning), tol=space.tol)
    basis = space.entries.reshape(space.dim, -1).T
    assert basis.shape == reference.shape
    assert np.max(np.abs(basis @ basis.T - reference @ reference.T)) <= 1e-12


def test_derivation_space_rejects_bad_input():
    system = build_factor("I_R(2,2)")
    with pytest.raises(InvalidInput):
        derivation_space(system, "cubic")


ORACLE_SYSTEMS = (
    "I_R(2,1)",
    "I_C(2,1)",
    "II_R(4)",
    "III_R(3)",
    "I_C(2,2)",
    "I_R(2,2)+SPIN_R(4,0)",
)


def _assert_blocks_match_oracle(system, kind, monkeypatch):
    """Each block of ``_leibniz_blocks`` is its submatrix of the stacked oracle,
    the oracle is exactly 0.0 outside the blocks, and the space is scipy's kernel.

    The blocks are generated in one run, in a few runs of several blocks, and
    one block per run (``BLOCK_ENTRIES`` of 1)."""
    leibniz = oracle_leibniz_matrix(system, kind)
    kernel = scipy.linalg.null_space(leibniz)
    for entries in (1, 1000, derivations.BLOCK_ENTRIES):
        monkeypatch.setattr(derivations, "BLOCK_ENTRIES", entries)
        covered = np.zeros(leibniz.shape, dtype=bool)
        for _, cols, rows, m in _leibniz_blocks(system.unfolding(kind)):
            block = leibniz[np.ix_(rows, cols)]
            assert np.max(np.abs(m - block), initial=0.0) <= 1e-15
            covered[np.ix_(rows, cols)] = True
        assert np.all(leibniz[~covered] == 0.0)
        space = derivation_space(system, kind)
        basis = space.entries.reshape(space.dim, -1).T
        assert space.dim == kernel.shape[1]
        assert np.linalg.norm(basis @ basis.T - kernel @ kernel.T, 2) <= 1e-10


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
@pytest.mark.parametrize("label", ORACLE_SYSTEMS)
def test_leibniz_gram_matches_stacked_oracle(label, kind, monkeypatch):
    # the Gram is block diagonal: its blocks M^T M come from these M
    system = direct_sum([build_factor(spec) for spec in label.split("+")])
    _assert_blocks_match_oracle(system, kind, monkeypatch)


def _rotated(label, seed):
    """The factor in a random orthonormal basis: the same product, no coordinate sign symmetry."""
    base = build_factor(label)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((base.dim, base.dim)))
    tensor = np.einsum("ijkl,ia,jb,kc,ld->abcd", base.tensor, q, q, q, q)
    return TripleSystem(f"rotated {label}", tensor)


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
def test_tensor_without_sign_symmetry_is_one_block(kind, monkeypatch):
    system = _rotated("I_C(2,1)", 7)
    # only the global sign -1 is left, and it fixes every map entry
    p = system.product_tensor(kind)
    assert np.unique(sign_grading(system.dim, np.stack(np.nonzero(p)))).size == 1
    _assert_blocks_match_oracle(system, kind, monkeypatch)
    assert derivation_space(system, kind).dim == (TRIPLE_DIMS if kind == "triple" else SYM_DIMS)["I_C(2,1)"]


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
def test_unfolding_is_the_one_scan_of_the_product_tensor(kind, monkeypatch):
    # a fresh system: neither unfolding is memoized yet
    system = direct_sum([build_factor("I_C(2,1)"), build_factor("SPIN_R(3,1)")])
    ndims = []
    nonzero = np.nonzero

    def counting(a):
        ndims.append(np.ndim(a))
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counting)
    system.unfolding(kind)
    derivation_space(system, kind)
    assert ndims.count(4) == 1


GRADING_SYSTEMS = ("I_C(2,1)", "I_R(2,2)+SPIN_R(3,1)", "II_R(4)", "III_R(3)", "SPIN_C(3)", "I_H(2,1)")


def _sign_automorphisms(p):
    """Every sign vector sigma with sigma_i sigma_j sigma_k sigma_l = 1 on the nonzeros of p, by brute force."""
    n = p.shape[0]
    signs = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    i, j, k, l = np.nonzero(p)
    return signs[np.all(signs[:, i] * signs[:, j] * signs[:, k] * signs[:, l] == 1, axis=1)]


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
@pytest.mark.parametrize("label", GRADING_SYSTEMS)
def test_sign_grading_is_the_joint_eigenspaces_of_every_sign_automorphism(label, kind):
    system = direct_sum([build_factor(spec) for spec in label.split("+")])
    p = system.product_tensor(kind)
    chars = sign_grading(system.dim, np.stack(np.nonzero(p))).reshape(-1)
    autos = _sign_automorphisms(p)
    # entry (a, b) is scaled by sigma_a sigma_b; entries share a block iff every sigma scales them alike
    scaling = (autos[:, :, None] * autos[:, None, :]).reshape(len(autos), -1).T
    _, by_char = np.unique(chars, return_inverse=True)
    _, by_scaling = np.unique(scaling, axis=0, return_inverse=True)
    pairs = np.unique(np.stack([by_char, by_scaling.reshape(-1)]), axis=1)
    assert pairs.shape[1] == by_char.max() + 1 == by_scaling.max() + 1
    # sign automorphisms read off the characters: free-column bit g of s_a xor s_0
    codes = chars.reshape(system.dim, system.dim)[:, 0]
    i, j, k, l = np.nonzero(p)
    space = derivation_space(system, kind)
    cols = space.entries.reshape(space.dim, -1).T
    for g in range(int(codes.max()).bit_length()):
        sigma = 1 - 2 * ((codes >> np.uint64(g)) & np.uint64(1)).astype(int)
        assert np.all(sigma[i] * sigma[j] * sigma[k] * sigma[l] == 1)
        for t in space.basis:
            assert span_distance(sigma[:, None] * t.entries * sigma[None, :], cols) <= 1e-12


LADDER_AND_SUMS = (
    "I_C(2,1)", "I_C(2,2)", "I_R(3,3)", "II_R(5)", "III_R(4)", "SPIN_R(16,0)",
    *("+".join(pair) for key in ("sums_equal", "sums_gap") for pair in load_suite()[key]),
)


@pytest.mark.parametrize("label", LADDER_AND_SUMS)
def test_block_residuals_equal_the_dense_leibniz_residual(label):
    # the validation's residual, block by block: on the basis maps (defects at
    # rounding level) and on a random map inside each block (real defects).  A
    # map inside one block meets only rows of that block, so no (i, j, k) group
    # spans two blocks for it.
    system = direct_sum([build_factor(spec) for spec in label.split("+")])
    n = system.dim
    rng = np.random.default_rng(5)
    for kind in ("triple", "symmetrized", "inner_span"):
        space = derivation_space(system, kind)
        leibniz_kind = "triple" if kind == "inner_span" else kind
        maps = space.entries.reshape(space.dim, -1).T
        blockwise = np.zeros(space.dim)
        for _, cols, rows, m in _leibniz_blocks(system.unfolding(leibniz_kind)):
            blockwise = np.maximum(blockwise, _grouped_norms(m @ maps[cols], rows // n))
            if kind != "inner_span":
                entries = np.zeros(n * n)
                entries[cols] = rng.standard_normal(cols.size)
                dense = leibniz_residual(LinearMap(system, entries.reshape(n, n)), kind)["max_residual"]
                got = _grouped_norms(m @ entries[cols, None], rows // n)[0]
                assert got == pytest.approx(dense, rel=1e-12, abs=1e-15)
        dense = [leibniz_residual(t, leibniz_kind)["max_residual"] for t in space.basis]
        assert np.max(np.abs(blockwise - dense), initial=0.0) <= 1e-15


@pytest.mark.parametrize("kind", ["triple", "symmetrized", "inner_span"])
def test_space_records_the_health_of_its_rank_decision(kind):
    system = build_factor("I_H(2,1)")
    space = derivation_space(system, kind)
    if kind == "inner_span":
        assert space.rank == space.dim and space.cutoff == space.tol
    else:
        assert space.rank + space.dim == system.dim**2 and space.cutoff == 1e-12
    assert 10 * space.cutoff <= space.min_kept <= 1.0
    assert 0.0 <= space.max_kernel <= 0.1 * space.cutoff
    # not part of the value, nor of the JSON form
    assert DerivationSpace(system, kind, space.basis, space.tol) == space
    assert set(space_to_json(space)) == {"kind", "dim", "tol", "basis"}
    loaded = space_from_json(space_to_json(space), system)
    assert loaded.rank is None and loaded.max_kernel is None


def test_zero_product_has_every_map_as_derivation():
    # every sign vector is an automorphism, so the blocks are as small as they get
    system = TripleSystem("zero", np.zeros((3, 3, 3, 3)))
    for kind in ("triple", "symmetrized"):
        space = derivation_space(system, kind)
        assert space.dim == 9 and space.rank == 0 and space.min_kept is None
        assert space.max_kernel == 0.0
    assert derivation_space(system, "inner_span").dim == 0


def test_rank_decision_near_its_cutoff_is_a_typed_error():
    base = build_factor("I_R(2,2)")
    tensor = base.tensor.copy()
    # a perturbation of 1e-6 moves kernel eigenvalues to about 1e-12 * lambda_max
    for delta, raises in ((1e-9, False), (1e-6, True)):
        tensor[0, 0, 1, 2] = tensor[1, 0, 0, 2] = base.tensor[0, 0, 1, 2] + delta
        system = TripleSystem("perturbed I_R(2,2)", tensor)
        if raises:
            with pytest.raises(NoSpectralGap):
                derivation_space(system, "triple")
        else:
            assert derivation_space(system, "triple").dim == TRIPLE_DIMS["I_R(2,2)"]


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
def test_derivation_space_at_dimension_28(kind):
    # II_R(8) has n = 28 (well under the cap of 64); its derivation algebra is
    # so(8), of dimension 28
    assert derivation_space(build_factor("II_R(8)"), kind).dim == 28


def test_derivation_space_at_dimension_48():
    # I_H(4,3) has n = 48; its derivation algebra is sp(4) + sp(3), of dimension 36 + 21
    assert derivation_space(build_factor("I_H(4,3)"), "triple").dim == 57


def test_inner_derivation_identities():
    system = build_factor("II_R(4)")
    rng = np.random.default_rng(4)
    a = Element(system, rng.standard_normal(system.dim))
    b = Element(system, rng.standard_normal(system.dim))
    assert np.max(np.abs(inner_derivation(a, a).entries)) < 1e-14
    lhs = inner_derivation(a, b).entries
    assert np.max(np.abs(lhs + inner_derivation(b, a).entries)) < 1e-14
    assert leibniz_residual(inner_derivation(a, b), "triple")["max_residual"] < 1e-10


def test_counterexample_is_symmetrized_but_not_triple_derivation():
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    assert is_derivation(t, "symmetrized", tol=1e-10).status == "pass"
    report = is_derivation(t, "triple", tol=1e-10)
    assert report.status == "fail"
    assert report.residuals["max_residual"] >= 0.9
    assert report.witnesses["basis_triple"] == [0, 1, 0]
    assert np.allclose(report.witnesses["map_applied_to_product"], 0.0, atol=1e-14)
    assert np.allclose(
        report.witnesses["leibniz_sum"], [0.0, 0.0, 0.0, 1.0], atol=1e-14
    )


def test_identity_map_is_not_a_derivation():
    system = build_factor("I_R(2,2)")
    report = is_derivation(system.identity_map(), "triple")
    assert report.status == "fail"
    # the defect at a tripotent cube is twice the product
    assert abs(report.residuals["max_residual"] - 2.0) < 1e-12


def test_counterexample_is_a_local_derivation():
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    space = derivation_space(system, "triple")
    points = default_point_set(system, samples=100, seed=DEFAULT_SEED)
    report = local_derivation_residual(t, points, space=space)
    assert report.status == "pass"
    assert report.residuals["max_residual"] <= 1e-8


def test_local_residual_rejects_a_space_of_another_system():
    # the counterexample passes against its own space; a space of another
    # system of the same dimension would refute it, one of another dimension
    # would break the batched residual
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    points = default_point_set(system, samples=16, seed=DEFAULT_SEED)
    for other in ("I_R(2,2)", "I_R(2,1)"):
        foreign = derivation_space(build_factor(other), "triple")
        with pytest.raises(InvalidInput, match="different system"):
            local_derivation_residual(t, points, space=foreign)


def test_foreign_points_and_witness_maps_raise_invalid_input():
    # the same error as a foreign space, so one call raises one type
    system, other = build_factor("I_C(2,1)"), build_factor("I_R(2,2)")
    t = counterexample_map(system)
    with pytest.raises(InvalidInput, match="different system"):
        local_derivation_residual(t, [other.basis_element(0)])
    with pytest.raises(InvalidInput, match="different systems"):
        rank_one_local_witness(other.identity_map(), system.basis_element(0))


def test_derivations_have_zero_local_residual():
    system = build_factor("SPIN_R(3,1)")
    space = derivation_space(system, "triple")
    points = default_point_set(system, samples=32, seed=1)
    for member in space.basis:
        report = local_derivation_residual(member, points, space=space)
        assert report.residuals["max_residual"] <= 1e-12


def test_identity_is_not_local_on_hilbert_factor():
    system = build_factor("I_R(2,1)")
    space = derivation_space(system, "triple")
    report = local_derivation_residual(
        system.identity_map(), [system.basis_element(0)], space=space
    )
    assert report.status == "fail"
    assert report.residuals["max_residual"] > 0.1


def oracle_local_residual(t, points, space):
    """Independent path: one lstsq solve per point; (max residual, first argmax)."""
    stack = space.entries
    residuals = []
    for el in points:
        target = t.entries @ el.coords
        if space.dim == 0:
            residuals.append(float(np.linalg.norm(target)))
        else:
            residuals.append(least_squares_residual(np.einsum("rnm,m->nr", stack, el.coords), target))
    return max(residuals), int(np.argmax(residuals))


def _counterexample_at_basis_points():
    # the evaluation matrices lose rank at the basis points
    system = build_factor("I_C(2,1)")
    points = [system.basis_element(i) for i in range(4)]
    return counterexample_map(system), points, derivation_space(system, "triple")


def _identity_on_hilbert_factor():
    # the identity's residual is ||a||: distinct norms, in shuffled order,
    # make the argmax unique
    system = build_factor("I_R(3,1)")
    points = default_point_set(system, samples=40, seed=3)
    scales = 1.0 + 0.01 * np.random.default_rng(3).permutation(len(points))
    points = [Element(system, s * p.coords) for s, p in zip(scales, points)]
    return system.identity_map(), points, derivation_space(system, "triple")


def _dimension_zero_space():
    system = build_factor("SPIN_R(3,1)")
    t = system.linear_map(np.random.default_rng(5).standard_normal((4, 4)))
    points = default_point_set(system, samples=20, seed=4)
    return t, points, DerivationSpace(system, "triple", (), 1e-9)


ORACLE_CASES = [_counterexample_at_basis_points, _identity_on_hilbert_factor, _dimension_zero_space]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_local_residual_matches_per_point_lstsq(case):
    t, points, space = case()
    report = local_derivation_residual(t, points, space=space)
    worst, index = oracle_local_residual(t, points, space)
    assert abs(report.residuals["max_residual"] - worst) <= 1e-12
    assert np.array_equal(report.witnesses["worst_point"], points[index].coords)


def test_local_residual_memory_is_bounded_for_many_points():
    # unchunked, the evaluation matrices and SVD factors of 20000 points at
    # n = 10, r = 10 would take 16 MB each
    system = build_factor("II_R(5)")
    space = derivation_space(system, "triple")
    rng = np.random.default_rng(8)
    points = [Element(system, c) for c in rng.standard_normal((20000, system.dim))]
    t = space.member(rng.standard_normal(space.dim))
    tracemalloc.start()
    try:
        report = local_derivation_residual(t, points, space=space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    assert peak < 16 * 2**20


def _random_points(system, count, seed):
    rows = np.random.default_rng(seed).standard_normal((count, system.dim))
    return [Element(system, c) for c in rows]


def _random_c22_points():
    system = build_factor("I_C(2,2)")
    return system, _random_points(system, 64, 21)


def _random_ii5_points():
    # E_a has rank below dim Der at generic points of II_R(5)
    system = build_factor("II_R(5)")
    return system, _random_points(system, 64, 22)


def _default_basis_points():
    system = build_factor("I_C(2,1)")
    return system, default_point_set(system, samples=0)


MEMO_CASES = [_random_c22_points, _random_ii5_points, _default_basis_points]


def _maps_to_check(system, space, count, seed):
    """Derivations and maps that are not, so residuals and witnesses vary."""
    rng = np.random.default_rng(seed)
    maps = [space.member(rng.standard_normal(space.dim)) for _ in range(count // 2)]
    maps += [system.linear_map(rng.standard_normal((system.dim,) * 2)) for _ in range(count - len(maps))]
    return maps


@pytest.mark.parametrize("case", MEMO_CASES)
def test_memo_hit_matches_fresh_space(case):
    system, points = case()
    space = derivation_space(system, "triple")
    local_derivation_residual(system.identity_map(), points, space=space)
    for t in _maps_to_check(system, space, 6, 23):
        hit = local_derivation_residual(t, points, space=space)
        fresh_space = DerivationSpace(system, "triple", space.basis, space.tol)
        fresh = local_derivation_residual(t, points, space=fresh_space)
        assert hit.residuals == fresh.residuals
        assert np.array_equal(hit.witnesses["worst_point"], fresh.witnesses["worst_point"])


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_memo_hit_matches_per_point_lstsq(case):
    t, points, space = case()
    local_derivation_residual(t.system.linear_map(np.eye(t.system.dim)[::-1]), points, space=space)
    report = local_derivation_residual(t, points, space=space)
    worst, index = oracle_local_residual(t, points, space)
    assert abs(report.residuals["max_residual"] - worst) <= 1e-12
    assert np.array_equal(report.witnesses["worst_point"], points[index].coords)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_memo_factors_a_point_set_once(svd_calls):
    system, points = _random_c22_points()
    space = derivation_space(system, "triple")
    svd_calls.clear()
    for t in _maps_to_check(system, space, 8, 24):
        local_derivation_residual(t, points, space=space)
    assert len(svd_calls) == 1


def test_memo_keeps_only_the_last_point_set(svd_calls):
    system, first = _random_c22_points()
    second = _random_points(system, 64, 25)
    space = derivation_space(system, "triple")
    t = system.identity_map()
    svd_calls.clear()
    for points in (first, second, second, first):
        local_derivation_residual(t, points, space=space)
    assert len(svd_calls) == 3
    assert len(space._frames) == 1


def test_memo_misses_on_a_one_ulp_change(svd_calls):
    system, points = _random_ii5_points()
    space = derivation_space(system, "triple")
    moved = list(points)
    coords = points[7].coords.copy()
    coords[3] = np.nextafter(coords[3], np.inf)
    moved[7] = Element(system, coords)
    t = system.identity_map()
    svd_calls.clear()
    local_derivation_residual(t, points, space=space)
    report = local_derivation_residual(t, moved, space=space)
    assert len(svd_calls) == 2
    fresh = local_derivation_residual(t, moved, space=DerivationSpace(system, "triple", space.basis, space.tol))
    assert report.residuals == fresh.residuals


def test_memo_is_not_part_of_the_space_value():
    system, points = _random_c22_points()
    space = derivation_space(system, "triple")
    twin = DerivationSpace(system, "triple", space.basis, space.tol)
    before = (repr(space), canonical_json(space_to_json(space)))
    for t in _maps_to_check(system, space, 4, 26):
        local_derivation_residual(t, points, space=space)
    assert space._frames
    assert space == twin
    assert (repr(space), canonical_json(space_to_json(space))) == before


@pytest.mark.parametrize("source", ["computed", "json"])
def test_derivation_basis_is_read_only(source):
    system = build_factor("I_C(2,1)")
    space = derivation_space(system, "triple")
    if source == "json":
        space = space_from_json(space_to_json(space), system)
    for t in space.basis:
        with pytest.raises(ValueError):
            t.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        space.basis[-1].entries *= 2.0


def test_local_residual_needs_points():
    system = build_factor("I_R(2,2)")
    with pytest.raises(InvalidInput):
        local_derivation_residual(system.identity_map(), [])


def test_rank_one_witness_formula():
    rng = np.random.default_rng(6)
    for label in ("SPIN_R(4,0)", "I_R(4,1)", "I_C(2,1)"):
        system = build_factor(label)
        sym = derivation_space(system, "symmetrized")
        for _ in range(20):
            t = sym.member(rng.standard_normal(sym.dim))
            x = Element(system, rng.standard_normal(system.dim))
            delta = rank_one_local_witness(t, x)
            err = np.linalg.norm(delta.entries @ x.coords - t.entries @ x.coords)
            assert err <= 1e-8 * x.norm()


def test_rank_one_witness_counterexample_point():
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    x = system.basis_element(0)
    delta = rank_one_local_witness(t, x)
    image = delta.entries @ x.coords
    assert np.allclose(image, t.entries @ x.coords, atol=1e-12)
    assert np.allclose(image, [0.0, 0.0, -1.0, 0.0], atol=1e-12)  # (0, -1)


def test_rank_one_witness_zero_map():
    system = build_factor("SPIN_R(3,0)")
    zero = system.linear_map(np.zeros((3, 3)))
    delta = rank_one_local_witness(zero, system.basis_element(0))
    assert np.max(np.abs(delta.entries)) < 1e-14


def test_rank_one_witness_requires_rank_one():
    system = build_factor("I_R(2,2)")
    with pytest.raises(Unsupported):
        rank_one_local_witness(system.identity_map(), system.basis_element(0))


def test_complex_linearity_of_triple_derivations():
    for label in ("I_C(2,1)", "I_C(2,2)", "SPIN_C(3)"):
        system = build_factor(label)
        report = check_complex_linearity(derivation_space(system, "triple"))
        assert report.status == "pass"
        assert report.residuals["max_commutator"] <= 1e-8


def test_symmetrized_space_contains_conjugate_linear_directions():
    system = build_factor("I_C(2,1)")
    report = check_complex_linearity(derivation_space(system, "symmetrized"))
    assert report.status == "fail"
    assert report.residuals["max_commutator"] >= 0.5
    with pytest.raises(Unsupported):
        check_complex_linearity(derivation_space(build_factor("I_R(2,2)"), "triple"))


def test_multiplication_by_J_is_a_derivation_on_complex_factor():
    # J = iI is complex-linear and anti-hermitian, hence a triple derivation
    system = build_factor("I_C(2,1)")
    j_map = system.linear_map(system.complex_structure)
    direct = leibniz_residual(j_map, "triple")["max_residual"]
    report = is_derivation(j_map, "triple")
    assert (report.status == "pass") == (direct <= 1e-10)
    assert report.status == "pass"


def test_exp_flow_of_derivations():
    system = build_factor("SPIN_R(3,1)")
    space = derivation_space(system, "triple")
    rng = np.random.default_rng(9)
    member = space.member(rng.standard_normal(space.dim))
    report = exp_flow_check(member, "triple", [-1.0, 0.5, 1.0])
    assert report.status == "pass"
    zero_flow = exp_flow_check(system.linear_map(np.zeros((4, 4))), "triple", [1.0])
    assert zero_flow.status == "pass"
    assert zero_flow.residuals["t=1"] == 0.0


def test_exp_flow_detects_counterexample():
    system = build_factor("I_C(2,1)")
    t = counterexample_map(system)
    report = exp_flow_check(t, "triple", [1.0])
    assert report.status == "fail"
    assert report.residuals["t=1"] >= 0.1
    sym = exp_flow_check(t, "symmetrized", [-1.0, -0.5, 0.5, 1.0])
    assert sym.status == "pass"


def test_exp_flow_keeps_one_residual_per_distinct_t():
    # t = 1 and t = 1.0000001 print alike under :g but are distinct flows
    t = counterexample_map(build_factor("I_C(2,1)"))
    report = exp_flow_check(t, "triple", [1.0, 1.0000001])
    assert list(report.residuals) == list(report.witnesses) == ["t=1", "t=1.0000001"]
    assert report.residuals["t=1"] != report.residuals["t=1.0000001"]
    # the grids in use keep their short labels
    sym = exp_flow_check(t, "symmetrized", [1.0, -1.0, 0.5, -0.5])
    assert list(sym.residuals) == ["t=1", "t=-1", "t=0.5", "t=-0.5"]


def _counted_norms(monkeypatch) -> list:
    """Patch ``np.linalg.norm`` to record its calls; the list of their arguments."""
    calls, norm = [], np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rate, defect", [(800.0, "nan"), (300.0, "inf")], ids=["nan", "inf"])
def test_exp_flow_fails_on_a_flow_that_overflows(monkeypatch, rate, defect):
    # exp(800) overflows, so the defect is NaN; exp(300) does not, but its cube
    # does, so the defect is inf: neither compares above the bound
    system = build_factor("I_C(2,1)")
    entries = np.zeros((system.dim, system.dim))
    entries[0, 0] = rate
    norms = _counted_norms(monkeypatch)
    report = exp_flow_check(system.linear_map(entries), "triple", [1.0])
    assert report.status == "fail"
    assert str(report.residuals["t=1"]) == defect
    assert report.witnesses == {"t=1": {"residual": report.residuals["t=1"], "bound": None}}
    assert norms == []  # no SVD of a non-finite flow


def test_exp_flow_takes_the_bound_only_above_tol(monkeypatch):
    # the bound tol * (1 + ||g||^3) is at least tol: a defect within tol passes
    # without the spectral norm of g
    system = build_factor("SPIN_R(3,1)")
    space = derivation_space(system, "triple")
    member = space.member(np.arange(1.0, space.dim + 1.0))
    t = counterexample_map(build_factor("I_C(2,1)"))
    norms = _counted_norms(monkeypatch)
    assert exp_flow_check(member, "triple", [-1.0, 0.5, 1.0]).status == "pass"
    assert norms == []
    report = exp_flow_check(t, "triple", [1.0, 0.5])
    assert len(norms) == 2 and report.status == "fail"
    g = scipy.linalg.expm(t.entries)
    assert report.witnesses["t=1"]["bound"] == pytest.approx(1e-7 * (1 + np.linalg.norm(g, 2) ** 3))


def test_exp_flow_rejects_an_empty_grid():
    # an empty grid would pass without checking a single flow
    t = counterexample_map(build_factor("I_C(2,1)"))
    for grid in ([], np.zeros(0), iter(())):
        with pytest.raises(InvalidInput, match="at least one t"):
            exp_flow_check(t, "triple", grid)


def test_iap_span_equality():
    for label in ("I_R(2,2)", "SPIN_R(4,0)", "I_C(2,1)"):
        report = check_IAP_finite(build_factor(label))
        assert report.status == "pass"
        assert report.residuals["triple_dim"] == report.residuals["inner_dim"]
    from triple_lab.triple_core import TripleSystem

    empty = TripleSystem("empty", np.zeros((0, 0, 0, 0)))
    assert check_IAP_finite(empty).status == "pass"


def test_tripotent_projection_identities_for_symmetrized_members():
    rng = np.random.default_rng(12)
    for label in ("I_C(2,1)", "I_H(2,1)", "SPIN_R(3,1)", "I_R(2,2)"):
        system = build_factor(label)
        sym = derivation_space(system, "symmetrized")
        for e in canonical_tripotents(system):
            ps = peirce(e)
            q = Q_operator(e).entries
            for _ in range(16):
                member = sym.member(rng.standard_normal(sym.dim))
                te = member.entries @ e.coords
                assert np.linalg.norm(ps.p0.entries @ te) <= 1e-8
                assert np.linalg.norm(ps.p2.entries @ te + q @ te) <= 1e-8


def test_two_local_lift_of_derivation_and_counterexample():
    base = build_factor("I_R(2,2)")
    space = derivation_space(base, "triple")
    lifted = two_local_lift(space.basis[0], samples=16, seed=2)
    assert lifted.status == "pass"
    assert lifted.residuals["lift_leibniz_residual"] <= 1e-10

    real_form = as_real_form(build_factor("I_C(2,1)"))
    bad = two_local_lift(counterexample_map(real_form), samples=16, seed=2)
    assert bad.status == "fail"
    assert bad.residuals["lift_leibniz_residual"] >= 0.9

    zero = two_local_lift(base.linear_map(np.zeros((4, 4))), samples=4, seed=2)
    assert zero.status == "pass"

    with pytest.raises(InvalidInput):
        two_local_lift(build_factor("I_C(2,1)").identity_map())


def test_direct_sum_spaces_split_blockwise():
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")])
    tri = derivation_space(total, "triple")
    sym = derivation_space(total, "symmetrized")
    assert tri.dim == TRIPLE_DIMS["I_R(2,2)"] + TRIPLE_DIMS["I_C(2,1)"]
    assert sym.dim == TRIPLE_DIMS["I_R(2,2)"] + SYM_DIMS["I_C(2,1)"]


def test_space_json_roundtrip():
    system = build_factor("I_C(2,1)")
    space = derivation_space(system, "triple")
    payload = space_to_json(space)
    loaded = space_from_json(payload, system)
    assert loaded.dim == space.dim
    assert np.array_equal(loaded.entries, space.entries)


def _space_from(source, space):
    if source == "constructor":
        return DerivationSpace(space.system, space.kind, space.basis, space.tol)
    if source == "json":
        return space_from_json(space_to_json(space), space.system)
    return space


@pytest.mark.parametrize("source", ["computed", "constructor", "json"])
@pytest.mark.parametrize("kind", ["triple", "symmetrized", "inner_span"])
def test_space_basis_is_one_read_only_array(source, kind):
    system = build_factor("I_C(2,2)")
    computed = derivation_space(system, kind)
    space = _space_from(source, computed)
    n = system.dim
    assert space.entries.dtype == np.float64 and space.entries.shape == (space.dim, n, n)
    assert not space.entries.flags.writeable
    with pytest.raises(ValueError):
        space.entries[0, 0, 0] = 1.0
    assert len(space.basis) == space.dim
    for row, t in zip(space.entries, space.basis):
        assert t.system is system
        assert np.shares_memory(t.entries, space.entries)
        assert np.array_equal(t.entries, row)
    # every source holds the computed array, bit for bit
    assert space.entries.tobytes() == computed.entries.tobytes()


def test_space_constructor_takes_a_stack_or_maps():
    system = build_factor("SPIN_R(3,1)")
    space = derivation_space(system, "triple")
    writable = np.array(space.entries)
    from_stack = DerivationSpace(system, "triple", writable, space.tol)
    assert not writable.flags.writeable  # the space freezes the array it keeps
    assert np.shares_memory(from_stack.entries, writable)
    from_maps = DerivationSpace(system, "triple", list(space.basis), space.tol)
    assert not np.shares_memory(from_maps.entries, space.entries)
    assert from_stack == from_maps == space
    empty = DerivationSpace(system, "triple", (), space.tol)
    assert empty.dim == 0 and empty.entries.shape == (0, 4, 4) and empty.basis == ()
    with pytest.raises(SystemMismatch):
        DerivationSpace(build_factor("I_R(2,2)"), "triple", space.basis, space.tol)


def test_space_equality_is_system_kind_tol_and_entries():
    system = build_factor("I_C(2,1)")
    space = derivation_space(system, "triple")
    assert DerivationSpace(build_factor("I_C(2,1)"), "triple", space.basis, space.tol) == space
    assert DerivationSpace(system, "symmetrized", space.basis, space.tol) != space
    assert DerivationSpace(system, "triple", space.basis, 2 * space.tol) != space
    assert DerivationSpace(system, "triple", space.basis[:-1], space.tol) != space
    assert DerivationSpace(system, "triple", space.entries[::-1], space.tol) != space
    assert DerivationSpace(as_real_form(system), "triple", space.entries, space.tol) != space
    assert space != "triple" and space != None  # noqa: E711


def _per_sample_points(system, samples, seed):
    """``default_point_set`` one sample at a time, as it was first written."""
    rng = np.random.default_rng(seed)
    points = [system.basis_element(i) for i in range(system.dim)]
    for _ in range(int(samples)):
        coords = rng.standard_normal(system.dim)
        norm = np.linalg.norm(coords)
        if norm > 0:
            points.append(Element(system, coords / norm))
    return points


@pytest.mark.parametrize("label", ["I_R(1,1)", "I_C(2,1)", "III_R(3)+I_C(2,2)", "SPIN_R(16,0)", "empty"])
@pytest.mark.parametrize("samples", [0, 1, 64, 257])
def test_default_point_set_is_the_per_sample_draw_bit_for_bit(label, samples):
    if label == "empty":
        system = TripleSystem("empty", np.zeros((0, 0, 0, 0)))
    else:
        system = direct_sum([build_factor(spec) for spec in label.split("+")])
    for seed in (0, DEFAULT_SEED, 2**40 + 7):
        got = default_point_set(system, samples=samples, seed=seed)
        want = _per_sample_points(system, samples, seed)
        assert len(got) == len(want) == system.dim + (samples if system.dim else 0)
        for a, b in zip(got, want):
            assert a.system is system
            assert a.coords.tobytes() == b.coords.tobytes()



@pytest.mark.parametrize("missing", ["basis", "dim", "kind", "tol"])
def test_space_json_requires_every_key(missing):
    system = build_factor("I_C(2,1)")
    payload = space_to_json(derivation_space(system, "triple"))
    del payload[missing]
    with pytest.raises(InvalidInput):
        space_from_json(payload, system)


@pytest.mark.parametrize(
    "changes",
    [
        {"dim": "four"},
        {"dim": 3},
        {"basis": [[0.0] * 16, [0.0] * 15]},
        {"basis": [["x"] * 16]},
        {"basis": 4},
        {"tol": "tight"},
        {"kind": "bogus"},
        {"dim": 4.2},
        {"dim": "4"},
        {"tol": "1e-9"},
        {"tol": True},
        {"tol": 0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
    ],
    ids=["dim_not_int", "dim_mismatch", "short_row", "row_not_numbers", "basis_not_list",
         "tol_not_number", "unknown_kind", "dim_float", "dim_string", "tol_string", "tol_bool",
         "tol_zero", "tol_negative", "tol_nan", "tol_inf"],
)
def test_space_json_rejects_malformed_payload(changes):
    system = build_factor("I_C(2,1)")
    payload = dict(space_to_json(derivation_space(system, "triple")), **changes)
    with pytest.raises(InvalidInput):
        space_from_json(payload, system)
