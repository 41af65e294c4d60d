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
from triple_lab.derivations import (
    DEFAULT_SEED,
    DerivationSpace,
    _leibniz_gram,
    default_point_set,
    leibniz_residual,
    space_from_json,
    space_to_json,
)
from triple_lab.errors import InvalidInput, Unsupported
from triple_lab.factors import as_real_form
from triple_lab.numerics import least_squares_residual, orthonormal_columns, span_distance
from triple_lab.repro import counterexample_map
from triple_lab.triple_core import Q_operator


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
    sym_cols = sym.basis_stack().reshape(sym.dim, -1).T
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
        stack = space.basis_stack().reshape(space.dim, -1)
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
    basis = space.basis_stack().reshape(space.dim, -1).T
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


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
@pytest.mark.parametrize("label", ORACLE_SYSTEMS)
def test_leibniz_gram_matches_stacked_oracle(label, kind):
    system = direct_sum([build_factor(spec) for spec in label.split("+")])
    leibniz = oracle_leibniz_matrix(system, kind)
    expected = leibniz.T @ leibniz
    gram = _leibniz_gram(system.product_tensor(kind))
    assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))
    kernel = scipy.linalg.null_space(leibniz)
    space = derivation_space(system, kind)
    basis = space.basis_stack().reshape(space.dim, -1).T
    assert space.dim == kernel.shape[1]
    assert np.linalg.norm(basis @ basis.T - kernel @ kernel.T, 2) <= 1e-10


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
def test_derivation_space_at_dimension_28(kind):
    # II_R(8) has n = 28 (well under the cap of 64); its derivation algebra is
    # so(8), of dimension 28
    assert derivation_space(build_factor("II_R(8)"), kind).dim == 28


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
    stack = space.basis_stack()
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


@pytest.mark.parametrize(
    "case", [_counterexample_at_basis_points, _identity_on_hilbert_factor, _dimension_zero_space]
)
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
    assert np.array_equal(loaded.basis_stack(), space.basis_stack())
