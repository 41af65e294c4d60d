import numpy as np
import pytest
import scipy.linalg

from triple_lab import (
    Element,
    Q_operator,
    are_orthogonal,
    build_factor,
    canonical_rank_witness,
    canonical_tripotents,
    check_peirce_arithmetic,
    cube_root,
    derivation_space,
    direct_sum,
    is_minimal_tripotent,
    is_tripotent,
    peirce,
    verify_rank_witness,
)
from triple_lab.errors import InvalidInput, NoConvergence, NotTripotent, SystemMismatch
from triple_lab.factors import representation_to_coords, coords_to_representation
from triple_lab import structure
from triple_lab.structure import (
    OrthogonalSystem,
    PeirceSystem,
    check_ideal_invariance,
    offblock_leakage,
    peirce_invariant_residual,
    _odd_power_span,
)
from triple_lab.numerics import span_distance
from triple_lab.repro import load_suite


def test_is_tripotent_examples():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    assert is_tripotent(e)
    assert is_tripotent(system.element(np.zeros(system.dim)))
    assert not is_tripotent(0.5 * e)  # cube scales by 1/8


def test_peirce_dimensions_match_eigen_oracle():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    ps = peirce(e)
    assert ps.dims() == (1, 2, 1)
    # oracle: eigenvalue multiplicities of L(e,e)
    a = np.einsum("ijkl,i,j->lk", system.tensor, e.coords, e.coords)
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (a + a.T)))
    counts = tuple(int(np.sum(np.abs(eigs - k / 2.0) < 1e-9)) for k in range(3))
    assert counts == ps.dims()


def test_peirce_of_zero_is_identity_projection():
    system = build_factor("I_R(2,2)")
    ps = peirce(system.element(np.zeros(system.dim)))
    assert np.array_equal(ps.p0.entries, np.eye(4))
    assert ps.dims() == (4, 0, 0)


def test_peirce_contains_tripotent_in_two_space():
    system = build_factor("SPIN_R(4,0)")
    e = system.basis_element(1)
    ps = peirce(e)
    assert np.allclose(ps.p2.entries @ e.coords, e.coords, atol=1e-12)


def test_peirce_rejects_non_tripotent():
    system = build_factor("I_R(2,2)")
    with pytest.raises(NotTripotent):
        peirce(0.5 * system.basis_element(0))


def test_peirce_invariants_on_constructor_tripotents():
    from triple_lab import canonical_tripotents

    for label in ("I_R(2,2)", "I_C(2,1)", "II_R(4)", "III_R(3)", "SPIN_R(3,1)", "SPIN_C(3)"):
        system = build_factor(label)
        for e in canonical_tripotents(system):
            ps = peirce(e)
            assert peirce_invariant_residual(ps) <= 1e-9
            total = ps.p0.entries + ps.p1.entries + ps.p2.entries
            assert np.max(np.abs(total - np.eye(system.dim))) <= 1e-10


def test_peirce_projections_stack_matches_peirce_row_by_row():
    for label in ("I_R(2,2)", "I_C(2,1)", "I_H(2,1)", "III_R(3)", "SPIN_R(3,1)", "SPIN_C(3)"):
        system = build_factor(label)
        tripotents = canonical_tripotents(system)
        coords = np.stack([e.coords for e in tripotents])
        stacked = structure.peirce_projections(system, coords)
        for row, e in enumerate(tripotents):
            ps = peirce(e)
            for got, want in zip(stacked, (ps.p0, ps.p1, ps.p2)):
                assert np.array_equal(got[row], want.entries)


def test_peirce_projections_refuse_a_stack_with_one_bad_row():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0).coords
    with pytest.raises(NotTripotent, match="needs a tripotent"):
        structure.peirce_projections(system, np.stack([e, 0.5 * e, e]))
    # e stays a tripotent of a tensor whose L(e,e) has an eigenvalue off {0, 1/2, 1}
    c = np.array(system.tensor)
    c[0, 0, 1, 1] += 0.1
    c[1, 0, 0, 1] += 0.1
    broken = type(system)(name="broken", tensor=c)
    with pytest.raises(NotTripotent, match="violate their invariants"):
        structure.peirce_projections(broken, np.stack([e, e]))
    with pytest.raises(NotTripotent, match="violate their invariants"):
        peirce(broken.element(e))


def test_peirce_arithmetic_on_matrix_units():
    system = build_factor("I_R(3,3)")
    for index in (0, 4):
        report = check_peirce_arithmetic(system.basis_element(index))
        assert report.status == "pass"
        assert report.residuals["max_residual"] <= 1e-9


def test_peirce_arithmetic_vacuous_for_zero():
    system = build_factor("I_R(2,2)")
    assert check_peirce_arithmetic(system.element(np.zeros(system.dim))).status == "pass"


def test_peirce_arithmetic_rank_one_factor():
    system = build_factor("SPIN_R(3,0)")
    report = check_peirce_arithmetic(system.basis_element(0))
    assert report.status == "pass"


def test_peirce_arithmetic_on_large_factor():
    # n = 32: 32,768 Peirce-basis triples in all
    system = build_factor("I_C(4,4)")
    report = check_peirce_arithmetic(system.basis_element(0))
    assert report.status == "pass"
    assert report.residuals["max_residual"] <= 1e-9


def oracle_peirce_arithmetic(ps, tol=1e-9):
    """The per-triple loop: one product per triple of Peirce basis vectors."""
    system = ps.tripotent.system
    bases = [ps.subspace_basis(k) for k in range(3)]
    projections = [ps.p0.entries, ps.p1.entries, ps.p2.entries]
    worst, witness = 0.0, {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                target = i - j + k
                annihilated = (i, j) in ((0, 2), (2, 0)) or (j, k) in ((2, 0), (0, 2))
                for u in bases[i].T:
                    for v in bases[j].T:
                        for w in bases[k].T:
                            p = system.product_arrays(u, v, w)
                            if annihilated or not 0 <= target <= 2:
                                r = float(np.linalg.norm(p))
                            else:
                                r = float(np.linalg.norm(p - projections[target] @ p))
                            if r > worst:
                                worst = r
                                if r > tol:
                                    witness = {"peirce_indices": [i, j, k]}
    return worst, witness


@pytest.mark.parametrize("swap", [False, True])
def test_peirce_arithmetic_matches_per_triple_loop(monkeypatch, swap):
    system = build_factor("II_R(5)")
    e = canonical_tripotents(system)[0]
    ps = peirce(e)
    if swap:
        # P1 and P2 exchanged: the rules fail, so the witness is compared too
        ps = PeirceSystem(tripotent=e, p0=ps.p0, p1=ps.p2, p2=ps.p1)
        monkeypatch.setattr(structure, "peirce", lambda element: ps)
    report = check_peirce_arithmetic(e)
    worst, witness = oracle_peirce_arithmetic(ps)
    assert abs(report.residuals["max_residual"] - worst) <= 1e-12
    assert report.witnesses == witness
    assert report.status == ("fail" if swap else "pass")


def test_are_orthogonal_examples():
    system = build_factor("I_R(2,2)")
    e11, e22 = system.basis_element(0), system.basis_element(3)
    assert are_orthogonal(e11, e22)
    assert not are_orthogonal(e11, e11)
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("SPIN_R(3,0)")])
    assert are_orthogonal(total.basis_element(1), total.basis_element(6))


def test_verify_rank_witness_reports():
    system = build_factor("I_R(2,2)")
    good = verify_rank_witness(system, canonical_rank_witness(system))
    assert good.status == "pass"
    assert good.residuals["witness_cardinality"] == 2.0
    singleton = build_factor("SPIN_R(3,0)")
    assert verify_rank_witness(
        singleton, OrthogonalSystem((singleton.basis_element(0),))
    ).status == "pass"
    empty = verify_rank_witness(system, [])
    assert empty.status == "fail"
    # a non-orthogonal family is refused
    bad = verify_rank_witness(system, [system.basis_element(0), system.basis_element(1)])
    assert bad.status == "fail"
    assert "non_orthogonal_pair" in bad.witnesses


def test_verify_rank_witness_refuses_elements_of_another_system():
    system = build_factor("I_R(2,2)")
    twin = build_factor("I_R(2,2)")  # equal to system, so its elements belong to it
    assert verify_rank_witness(system, canonical_rank_witness(twin)).status == "pass"
    # I_C(2,1) has the dimension and the rank of I_R(2,2)
    with pytest.raises(SystemMismatch):
        verify_rank_witness(system, canonical_rank_witness(build_factor("I_C(2,1)")))
    with pytest.raises(SystemMismatch):
        verify_rank_witness(system, [system.basis_element(0), build_factor("I_C(2,1)").basis_element(3)])


def test_cube_root_fixes_tripotents():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    assert np.allclose(cube_root(e).coords, e.coords, atol=1e-10)


def test_cube_root_homogeneity():
    system = build_factor("I_R(2,2)")
    b = cube_root(system.element([8.0, 0.0, 0.0, 0.0]))
    assert np.allclose(b.coords, [2.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_cube_root_matches_svd_oracle_on_symmetric_factor():
    system = build_factor("III_R(3)")
    rng = np.random.default_rng(17)
    for _ in range(10):
        coords = rng.standard_normal(system.dim)
        b = cube_root(Element(system, coords))
        # oracle: odd cube root through the eigendecomposition of the
        # symmetric representation
        _, mat = coords_to_representation("III_R(3)", coords)
        eigvals, eigvecs = np.linalg.eigh(mat)
        root = eigvecs @ np.diag(np.cbrt(eigvals)) @ eigvecs.T
        expected = representation_to_coords("III_R(3)", root)
        assert np.max(np.abs(b.coords - expected)) < 1e-8
        cube = system.product_arrays(b.coords, b.coords, b.coords)
        assert np.linalg.norm(cube - coords) <= 1e-8 * np.linalg.norm(coords)


def test_cube_root_on_spin_and_quaternion_factors():
    rng = np.random.default_rng(23)
    for label in ("SPIN_R(3,1)", "SPIN_C(3)", "I_H(2,1)", "II_R(4)"):
        system = build_factor(label)
        coords = rng.standard_normal(system.dim)
        b = cube_root(Element(system, coords))
        cube = system.product_arrays(b.coords, b.coords, b.coords)
        assert np.linalg.norm(cube - coords) <= 1e-8 * np.linalg.norm(coords)


def test_cube_root_ignores_the_factor_label():
    # a copy of a matrix factor whose label names no factor gets the same root
    from triple_lab.triple_core import TripleSystem

    base = build_factor("III_R(3)")
    disguised = TripleSystem(
        "disguised", base.tensor, norm_kind="operator", factor_kind="custom"
    )
    rng = np.random.default_rng(29)
    coords = rng.standard_normal(6)
    labelled = cube_root(Element(base, coords))
    unlabelled = cube_root(Element(disguised, coords))
    assert np.max(np.abs(labelled.coords - unlabelled.coords)) < 1e-7


def test_cube_root_consistency_identity():
    # {b, {bbb}, b} = {b, a, b}
    rng = np.random.default_rng(31)
    for label in ("III_R(3)", "SPIN_R(3,1)"):
        system = build_factor(label)
        a = rng.standard_normal(system.dim)
        b = cube_root(Element(system, a)).coords
        cube = system.product_arrays(b, b, b)
        lhs = system.product_arrays(b, cube, b)
        rhs = system.product_arrays(b, a, b)
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_cube_root_stays_in_generated_subtriple():
    system = build_factor("III_R(3)")
    rng = np.random.default_rng(37)
    coords = rng.standard_normal(system.dim)
    a = Element(system, coords)
    b = cube_root(a)
    span = _odd_power_span(a)
    assert span_distance(b.coords, span) < 1e-8


def test_cube_root_rejects_zero_and_reports_nonconvergence():
    from triple_lab.triple_core import TripleSystem

    system = build_factor("SPIN_R(3,1)")
    with pytest.raises(InvalidInput):
        cube_root(system.element(np.zeros(system.dim)))
    # raising an outer-slot pair keeps the tensor symmetric in the outer slots
    # but makes L(a,a) not self-adjoint: the spectral root misses, and the
    # residual check fires
    tensor = np.array(build_factor("I_R(2,2)").tensor)
    tensor[0, 0, 1, 2] += 0.3
    tensor[1, 0, 0, 2] += 0.3
    skewed = TripleSystem("skewed", tensor)
    rng = np.random.default_rng(41)
    a = Element(skewed, rng.standard_normal(skewed.dim))
    with pytest.raises(NoConvergence) as excinfo:
        cube_root(a)
    assert excinfo.value.residual > 1e-2


@pytest.mark.parametrize(
    "label, coords",
    [
        ("III_R(6)", np.random.default_rng(3).standard_normal(21)),
        ("III_R(6)", np.random.default_rng(5).standard_normal(21)),
        ("III_R(6)", np.random.default_rng(9).standard_normal(21)),
        ("I_R(2,2)", np.array([1000.0, 2000.0, 3000.0, 4000.0])),
    ],
    ids=["III_R(6)-seed3", "III_R(6)-seed5", "III_R(6)-seed9", "I_R(2,2)-scale1000"],
)
def test_cube_root_subtriple_check_accepts_correct_roots(label, coords):
    # the odd powers of these inputs span several decades; stacked unnormalized,
    # the low powers fell under the rank cutoff and correct roots were rejected
    system = build_factor(label)
    b = cube_root(system.element(coords)).coords
    cube = system.product_arrays(b, b, b)
    assert np.linalg.norm(cube - coords) <= 1e-8 * np.linalg.norm(coords)
    assert span_distance(b, _odd_power_span(system.element(coords))) < 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("label", [*load_suite()["factors"], "SPIN_C(6)"])
def test_cube_root_commutes_with_scaling(label):
    system = build_factor(label)
    a = np.random.default_rng(43).standard_normal(system.dim)
    root = cube_root(system.element(a)).coords
    for t in (1e-2, 1.0, 1e2):
        scaled = cube_root(system.element(t**3 * a)).coords
        assert np.max(np.abs(scaled - t * root)) <= 1e-10 * t * np.linalg.norm(root)


def test_minimal_tripotents():
    system = build_factor("I_R(2,2)")
    assert is_minimal_tripotent(system.basis_element(0))
    diagonal = system.element([1.0, 0.0, 0.0, 1.0])
    assert is_tripotent(diagonal)
    assert not is_minimal_tripotent(diagonal)
    # oracle: the fixed space of Q(e) via scipy's null space
    q = Q_operator(system.basis_element(0)).entries
    fixed = scipy.linalg.null_space(q - np.eye(4))
    assert fixed.shape[1] == 1
    q2 = Q_operator(diagonal).entries
    assert scipy.linalg.null_space(q2 - np.eye(4)).shape[1] > 1
    spin = build_factor("SPIN_R(4,0)")
    unit = spin.element(np.array([0.5, 0.5, 0.5, 0.5]))
    assert is_minimal_tripotent(unit)
    assert not is_minimal_tripotent(spin.element(np.zeros(spin.dim)))


def test_ideal_invariance_of_symmetrized_derivations():
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")])
    space = derivation_space(total, "symmetrized")
    report = check_ideal_invariance(total, space.basis)
    assert report.status == "pass"
    assert report.residuals["max_offblock_entry"] <= 1e-8
    # cube roots stay inside their block
    coords = np.zeros(total.dim)
    coords[4:] = np.random.default_rng(2).standard_normal(4)
    root = cube_root(Element(total, coords))
    assert np.linalg.norm(root.coords[:4]) < 1e-10
    with pytest.raises(InvalidInput):
        offblock_leakage(build_factor("I_R(2,2)").identity_map())


def _leaking_map(system):
    entries = np.zeros((8, 8))
    entries[2, 5] = 1.0
    return system.linear_map(entries)


def test_ideal_invariance_refuses_maps_of_another_system():
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("SPIN_R(3,1)")])
    # entry [2, 5] crosses the blocks 0..3 and 4..7 of this sum
    report = check_ideal_invariance(total, [_leaking_map(total)])
    assert report.status == "fail" and report.witnesses == {"map_index": 0}
    # the same entries lie inside the block 2..7 of a sum with other blocks
    other_sum = direct_sum([build_factor("I_R(2,1)"), build_factor("SPIN_R(5,1)")])
    assert check_ideal_invariance(other_sum, [_leaking_map(other_sum)]).status == "pass"
    with pytest.raises(SystemMismatch):
        check_ideal_invariance(total, [_leaking_map(total), _leaking_map(other_sum)])
    # and a factor without blocks is no direct sum at all
    with pytest.raises(SystemMismatch):
        check_ideal_invariance(total, [_leaking_map(build_factor("I_R(2,4)"))])
    # a stack of entries is read as maps on the given system
    assert check_ideal_invariance(total, _leaking_map(other_sum).entries[None]).status == "fail"
