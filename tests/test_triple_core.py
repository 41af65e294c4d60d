import ast
import functools
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triple_lab import (
    L_operator,
    Q_operator,
    TripleSystem,
    build_factor,
    check_jordan_identity,
    check_norm_axiom,
    element_norm,
    element_norms,
    symmetrized_product,
    triple_product,
)
from triple_lab.errors import InvalidInput, SystemMismatch, TooLarge, Unsupported
from triple_lab.factors import direct_sum
from triple_lab import derivations, factors, report, structure, triple_core
from triple_lab.report import canonical_json, read_json_array, write_json
from triple_lab.repro import load_suite
from triple_lab.triple_core import (
    Element,
    check_complex_structure,
    check_hermitian_surrogate,
    graded_unfolding,
    in_slots,
    linear_map_from_json,
    linear_map_to_json,
    product_batch,
    sign_grading,
    system_from_json,
    system_to_json,
)

SUITE = [
    "I_R(2,2)", "I_R(3,1)", "I_C(2,1)", "I_H(2,1)", "II_R(4)",
    "III_R(3)", "SPIN_R(3,0)", "SPIN_R(3,1)", "SPIN_C(3)",
]


def complex_pair(coords):
    coords = np.asarray(coords)
    return coords[0::2] + 1j * coords[1::2]


def to_coords(z):
    out = np.empty(2 * len(z))
    out[0::2] = np.real(z)
    out[1::2] = np.imag(z)
    return out


def test_matrix_unit_is_tripotent():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    cube = triple_product(e, e, e)
    assert np.allclose(cube.coords, e.coords, atol=1e-14)


def test_realified_c2_product_matches_complex_arithmetic():
    system = build_factor("I_C(2,1)")
    x = system.element([1.0, 0.0, 0.0, 0.0])   # (1, 0)
    y = system.element([0.0, 1.0, 0.0, 0.0])   # (i, 0)
    out = triple_product(x, y, x)
    # oracle: (<x|y> z + <z|y> x) / 2 in plain complex arithmetic
    xc, yc = complex_pair(x.coords), complex_pair(y.coords)
    inner = np.vdot(yc, xc)
    expected = to_coords(0.5 * (inner * xc + inner * xc))
    assert np.allclose(out.coords, expected, atol=1e-14)
    assert np.allclose(out.coords, [0.0, -1.0, 0.0, 0.0], atol=1e-14)  # (-i, 0)


def test_spin_unit_vector_is_tripotent():
    system = build_factor("SPIN_R(4,0)")
    rng = np.random.default_rng(0)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    cube = system.product_arrays(u, u, u)
    assert np.allclose(cube, u, atol=1e-12)


def test_symmetrized_product_properties():
    system = build_factor("I_C(2,1)")
    rng = np.random.default_rng(1)
    a, b, c = (system.element(rng.standard_normal(4)) for _ in range(3))
    sym = symmetrized_product(a, b, c)
    # full symmetry under every permutation
    for perm in [(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
        assert np.allclose(symmetrized_product(*perm).coords, sym.coords, atol=1e-12)
    # equal arguments give the cube
    cube = triple_product(a, a, a)
    assert np.allclose(symmetrized_product(a, a, a).coords, cube.coords, atol=1e-13)
    # complex-arithmetic oracle for the average of the three cyclic products
    ac, bc, cc = (complex_pair(v.coords) for v in (a, b, c))

    def prod(x, y, z):
        return 0.5 * (np.vdot(y, x) * z + np.vdot(y, z) * x)

    expected = (prod(ac, bc, cc) + prod(cc, ac, bc) + prod(bc, cc, ac)) / 3.0
    assert np.allclose(sym.coords, to_coords(expected), atol=1e-13)


def test_L_operator_spectrum_on_tripotent():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    eigs = np.linalg.eigvals(L_operator(e, e).entries)
    for value in eigs:
        assert min(abs(value - t) for t in (0.0, 0.5, 1.0)) < 1e-12


def test_L_operator_of_orthogonal_pair_vanishes():
    system = build_factor("I_R(2,2)")
    e11 = system.basis_element(0)
    e22 = system.basis_element(3)
    assert np.max(np.abs(L_operator(e11, e22).entries)) < 1e-14
    zero = system.element(np.zeros(system.dim))
    assert np.max(np.abs(L_operator(zero, e11).entries)) == 0.0


def test_Q_operator_basics():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    assert np.allclose(Q_operator(e)(e).coords, e.coords, atol=1e-14)
    assert np.max(np.abs(Q_operator(system.element(np.zeros(system.dim))).entries)) == 0.0


def test_Q_squared_is_peirce2_projection_on_unitary_tripotent():
    # diag(1,1,1) in the symmetric 3x3 factor acts as a unitary tripotent
    system = build_factor("III_R(3)")
    from triple_lab.factors import representation_to_coords

    coords = representation_to_coords("III_R(3)", np.eye(3))
    e = system.element(coords)
    q = Q_operator(e).entries
    from triple_lab.structure import peirce

    p2 = peirce(e).p2.entries
    assert np.max(np.abs(q @ q - p2)) < 1e-12


def test_system_mismatch_raises():
    a = build_factor("I_R(2,2)")
    b = build_factor("SPIN_R(3,1)")
    with pytest.raises(SystemMismatch):
        triple_product(a.basis_element(0), a.basis_element(1), b.basis_element(0))


def test_outer_symmetry_is_bit_exact():
    for label in SUITE:
        tensor = build_factor(label).tensor
        assert np.array_equal(tensor, tensor.transpose(2, 1, 0, 3))


def test_symmetrization_reads_the_callers_array_only():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3,) * 4)
    raw = raw + raw.transpose(2, 1, 0, 3)
    raw[0, 1, 2, 0] += 1e-12  # within the symmetry tolerance
    before = raw.copy()
    system = TripleSystem("x", raw)
    assert np.array_equal(raw, before) and not np.shares_memory(system.tensor, raw)
    expected = 0.5 * (raw + raw.transpose(2, 1, 0, 3))
    assert system.tensor.tobytes() == expected.tobytes()
    assert system.tensor.flags.c_contiguous and not system.tensor.flags.writeable



def test_system_from_json_reads_the_payloads_array_only():
    payload = system_to_json(build_factor("I_C(2,1)"))
    raw = np.array(payload["tensor"])  # writable, C-ordered float64
    raw[np.flatnonzero(raw)[0]] += 1e-12  # within the symmetry tolerance
    before = raw.tobytes()
    loaded = system_from_json(dict(payload, tensor=raw))
    assert raw.tobytes() == before and raw.flags.writeable
    assert not np.shares_memory(loaded.tensor, raw)
    assert loaded.tensor.flags.c_contiguous and not loaded.tensor.flags.writeable

@pytest.mark.parametrize(
    "pair, message",
    [
        ((1.5e308, 1.5e308), "overflow"),  # stored as inf before
        ((np.nan, np.nan), "non-finite"),
        ((np.inf, np.inf), "non-finite"),
        ((np.inf, 1.0), "non-finite"),
        ((1e308, -1e308), "not symmetric"),
    ],
    ids=["overflow", "nan", "inf_pair", "inf_finite", "asymmetry_overflows"],
)
def test_constructor_refuses_entries_without_a_finite_symmetrization(pair, message):
    tensor = np.zeros((2,) * 4)
    tensor[0, 1, 1, 0], tensor[1, 1, 0, 0] = pair
    with pytest.raises(InvalidInput, match=message):
        TripleSystem("x", tensor)
    tensor[0, 1, 1, 0] = tensor[1, 1, 0, 0] = 8e307  # the largest pair that sums finitely
    assert TripleSystem("x", tensor).tensor[0, 1, 1, 0] == 8e307


def _symmetrized(tensor):
    """The oracle of the constructor, in whole n^4 passes: 0.5 * (T + T_swap)
    or the message it refuses T with."""
    tensor = np.asarray(tensor, dtype=float)
    swapped = tensor.transpose(2, 1, 0, 3)
    if not np.all(np.isfinite(tensor)):
        return "tensor has non-finite entries"
    with np.errstate(over="ignore"):
        if tensor.size and np.max(np.abs(tensor - swapped)) > 1e-10:
            return "tensor is not symmetric in the outer slots"
        symmetrized = 0.5 * (tensor + swapped)
    if not np.all(np.isfinite(symmetrized)):
        return "tensor entries overflow when symmetrized"
    return symmetrized


def _constructed(tensor):
    """``TripleSystem(tensor).tensor``, or the message of its InvalidInput."""
    try:
        return TripleSystem("x", tensor).tensor
    except InvalidInput as exc:
        return str(exc)


def _layouts(tensor):
    """The tensor C-ordered, F-ordered and as a strided view of a larger array."""
    wide = np.zeros(tensor.shape[:3] + (2 * tensor.shape[3],))
    wide[..., ::2] = tensor
    return {"C": tensor, "F": np.asfortranarray(tensor), "strided": wide[..., ::2]}


SYMMETRIZED_SPECIALS = [0.0, -0.0, 5e-324, 1e-11, 1.0, 8e307, 1.5e308, -1e308, np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 3),
    entries=st.lists(
        st.tuples(
            st.integers(0, 80),
            st.one_of(st.sampled_from(SYMMETRIZED_SPECIALS), st.floats()),
            st.one_of(st.none(), st.sampled_from(SYMMETRIZED_SPECIALS), st.floats()),
        ),
        max_size=10,
    ),
    chunk=st.sampled_from([1, 3, 7, triple_core.BATCH_ENTRIES]),
)
@example(n=0, entries=[], chunk=1)
@example(n=2, entries=[(1, -0.0, 0.0), (3, 0.0, -0.0), (6, -0.0, -0.0)], chunk=1)  # -0.0 swapped with +0.0
@example(n=2, entries=[(2, 1.5e308, 1.5e308)], chunk=3)  # a finite pair that overflows
@example(n=2, entries=[(2, 1.0, 2.0), (7, np.nan, np.nan)], chunk=7)  # NaN is named before asymmetry
@example(n=2, entries=[(2, 1.0, 2.0), (7, 1.5e308, 1.5e308)], chunk=1)  # asymmetry before overflow
@example(n=3, entries=[(5, np.inf, 1.0), (60, 1.0, 1.0 + 1e-12)], chunk=3)
def test_constructor_matches_the_whole_tensor_oracle(n, entries, chunk):
    # an entry and, unless None, its outer swap: pairs that are equal, within
    # the tolerance, asymmetric, overflowing or not finite, cut by scan chunks
    tensor = np.zeros((n,) * 4)
    for index, value, swapped in entries if n else []:
        i, j, k, l = np.unravel_index(index % n**4, tensor.shape)
        tensor[i, j, k, l] = value
        if swapped is not None:
            tensor[k, j, i, l] = swapped
    expected = _symmetrized(tensor)
    before = tensor.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triple_core, "BATCH_ENTRIES", chunk)
        for layout, given_tensor in _layouts(tensor).items():
            got = _constructed(given_tensor)
            if isinstance(expected, str):
                assert got == expected, layout
            else:
                assert got.tobytes() == expected.tobytes(), layout
    assert tensor.tobytes() == before.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 3),
    entries=st.lists(
        st.tuples(
            st.integers(0, 80),
            st.one_of(st.sampled_from(SYMMETRIZED_SPECIALS), st.floats()),
            st.one_of(st.none(), st.sampled_from(SYMMETRIZED_SPECIALS), st.floats()),
        ),
        max_size=10,
    ),
)
@example(n=2, entries=[(1, -0.0, 0.0), (3, 0.0, -0.0), (6, -0.0, -0.0)])
@example(n=2, entries=[(2, 1.0, None), (7, 1e-11, None)])  # swaps the list lacks
@example(n=2, entries=[(2, 1.0, 2.0), (7, np.nan, np.nan)])  # NaN is named before asymmetry
@example(n=2, entries=[(2, 1.0, 2.0), (7, 1.5e308, 1.5e308)])  # asymmetry before overflow
def test_handed_over_lists_match_the_whole_tensor_oracle(n, entries):
    # the builders' and the reader's path: the entries whose bits are not
    # +0.0, and +0.0 among them too, as the reader may list a "0e0" token
    tensor = np.zeros((n,) * 4)
    for index, value, swapped in entries if n else []:
        i, j, k, l = np.unravel_index(index % n**4, tensor.shape)
        tensor[i, j, k, l] = value
        if swapped is not None:
            tensor[k, j, i, l] = swapped
    expected = _symmetrized(tensor)
    flat = tensor.reshape(-1)
    for listed in (np.flatnonzero(flat.view(np.uint64)), np.arange(flat.size)):
        # read-only arrays are checked as writable ones are, and neither is frozen
        for writeable in (True, False):
            index, values = listed.copy(), flat[listed]
            index.flags.writeable = values.flags.writeable = writeable
            handed = report.FlatEntries((n,) * 4, index, values)
            try:
                got = TripleSystem("x", handed).tensor
            except InvalidInput as exc:
                got = str(exc)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert got.tobytes() == expected.tobytes()
            assert index.flags.writeable == values.flags.writeable == writeable
    assert flat.tobytes() == tensor.tobytes()


def test_system_from_json_checks_a_read_only_list():
    # read-only arrays once bypassed every check: this list gave a system with
    # a NaN entry and c[0,0,1,0] = 5 != c[1,0,0,0] = 0
    index, values = np.array([0, 2]), np.array([np.nan, 5.0])
    index.flags.writeable = values.flags.writeable = False
    payload = {"name": "x", "dim": 2, "norm_kind": "operator"}
    with pytest.raises(InvalidInput, match="non-finite"):
        system_from_json(dict(payload, tensor=report.FlatEntries(16, index, values)))


@pytest.mark.parametrize(
    "index, values",
    [([2, 0], [1.0, 1.0]), ([0, 0], [1.0, 1.0]), ([-1], [1.0]), ([16], [1.0]), ([0, 2], [1.0])],
    ids=["descending", "repeated", "negative", "past_the_end", "one_value_short"],
)
def test_constructor_refuses_a_malformed_list(index, values):
    entries = report.FlatEntries((2,) * 4, np.array(index), np.array(values))
    with pytest.raises(InvalidInput, match="ascending flat indices"):
        TripleSystem("x", entries)


def _symmetric_oracle(c):
    """The fully symmetric tensor in whole n^4 passes."""
    return (c + np.einsum("kijl->ijkl", c) + np.einsum("jkil->ijkl", c)) / 3.0


@pytest.mark.parametrize("case", ["signed_zero", "I_C(2,1)", "SPIN_C(3)", "I_R(2,2)+III_R(3)", "random"])
def test_symmetrized_entries_match_the_dense_formula(case):
    if case == "random":
        # sparse, with -0.0 pairs and terms that cancel to +0.0
        rng = np.random.default_rng(9)
        c = np.where(rng.random((4,) * 4) < 0.3, rng.standard_normal((4,) * 4), 0.0)
        c[rng.random((4,) * 4) < 0.2] = -0.0
        c[1, 2, 3, 0], c[3, 1, 2, 0] = 0.5, -0.5
        system = TripleSystem("x", c + c.transpose(2, 1, 0, 3))
    elif case == "signed_zero":
        system = _signed_zero_system()
    else:
        system = direct_sum([build_factor(label) for label in case.split("+")])
    expected = _symmetric_oracle(system.tensor)
    assert system.product_tensor("symmetrized").tobytes() == expected.tobytes()
    symmetric = system._product("symmetrized")
    assert np.all(symmetric.values.view(np.uint64) != 0)
    assert np.array_equal(symmetric.index, np.flatnonzero(expected.reshape(-1).view(np.uint64)))


def test_constructor_matches_the_oracle_on_a_dense_tensor_above_one_chunk():
    # n^4 = 331776 > BATCH_ENTRIES: every entry nonzero, each pair within the tolerance
    n = 24
    assert n**4 > triple_core.BATCH_ENTRIES
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((n,) * 4)
    tensor = tensor + tensor.transpose(2, 1, 0, 3) + 1e-12 * rng.standard_normal((n,) * 4)
    expected = _symmetrized(tensor)
    for layout, given_tensor in _layouts(tensor).items():
        assert _constructed(given_tensor).tobytes() == expected.tobytes(), layout
    tensor[3, 1, 20, 2] += 1e-6
    assert _constructed(np.asfortranarray(tensor)) == _symmetrized(tensor)


def test_constructor_holds_one_buffer_of_its_own():
    # III_R(8), n = 36: the constructor reads a non-contiguous input in chunks
    # of slabs and keeps its 0.6 % of entries as lists, 0.28 n^4 doubles at
    # the peak; its C-ordered copy took 1.02 n^4 doubles
    tensor = np.asfortranarray(build_factor("III_R(8)").tensor)
    tracemalloc.start()
    try:
        system = TripleSystem("x", tensor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system._entries._dense is None and system.tensor.flags.c_contiguous
    assert peak < 0.35 * tensor.nbytes


@pytest.mark.parametrize("label", ["I_R(2,2)", "III_R(3)", "II_R(4)", "I_H(2,1)"])
def test_built_and_loaded_factors_apply_L_to_the_bit(tmp_path, label):
    # both tensors are C-ordered, so the einsum of L(a,b) sums in one order
    built = build_factor(label)
    triple_core.save_system(built, tmp_path / "f.json")
    loaded = triple_core.load_system(tmp_path / "f.json")
    assert built.tensor.flags.c_contiguous and loaded.tensor.flags.c_contiguous
    rng = np.random.default_rng(11)
    for a, b, x in rng.standard_normal((64, 3, built.dim)):
        one = L_operator(built.element(a), built.element(b)).entries @ x
        two = L_operator(loaded.element(a), loaded.element(b)).entries @ x
        assert one.tobytes() == two.tobytes()


@pytest.mark.parametrize("label", SUITE)
def test_jordan_identity_on_suite(label):
    report = check_jordan_identity(build_factor(label), tol=1e-10)
    assert report.status == "pass"
    assert report.residuals["max_residual"] <= 1e-10


def test_jordan_identity_detects_corruption():
    system = build_factor("I_R(2,2)")
    tensor = np.array(system.tensor)
    tensor[0, 0, 0, 0] += 0.1
    broken = TripleSystem("broken", tensor, norm_kind="operator", factor_kind="I_R(2,2)")
    report = check_jordan_identity(broken, tol=1e-10)
    assert report.status == "fail"
    assert report.residuals["max_residual"] > 0.01
    assert report.witnesses  # a witness 5-tuple is recorded


def _einsum_jordan_basis_norms(c):
    """Norm of the Jordan identity's defect at every basis 5-tuple, one
    optimized einsum per (n,)*6 stack of products."""
    lhs = np.einsum("abml,xyzm->abxyzl", c, c, optimize=True)
    t1 = np.einsum("abxm,myzl->abxyzl", c, c, optimize=True)
    t2 = np.einsum("baym,xmzl->abxyzl", c, c, optimize=True)
    t3 = np.einsum("abzm,xyml->abxyzl", c, c, optimize=True)
    res = lhs - t1 + t2 - t3
    return np.sqrt(np.einsum("abxyzl,abxyzl->abxyz", res, res))


@pytest.mark.parametrize("label", ["I_C(2,2)", "SPIN_R(8,0)"])
def test_exhaustive_jordan_matches_einsum_on_a_corrupted_tensor(label):
    # n = 8, one outer-symmetric pair raised: many 5-tuples tie at the worst
    # defect, and the witness is the first of them in C order
    system = build_factor(label)
    tensor = np.array(system.tensor)
    tensor[0, 1, 7, 2] += 0.1
    tensor[7, 1, 0, 2] += 0.1
    broken = TripleSystem("broken", tensor)
    report = check_jordan_identity(broken, tol=1e-10)
    norms = _einsum_jordan_basis_norms(broken.tensor)
    assert report.status == "fail" and report.seed is None
    assert report.residuals["max_residual"] == float(norms.max())
    first = np.unravel_index(int(norms.argmax()), norms.shape)
    assert report.witnesses == {"basis_tuple": [int(i) for i in first]}


def test_exhaustive_jordan_check_holds_no_six_index_stack():
    # n = 8: the (n,)*6 stacks of the einsum formula peaked at 10.5 MB
    system = build_factor("I_C(2,2)")
    tracemalloc.start()
    try:
        report = check_jordan_identity(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    assert peak < triple_core.BATCH_ENTRIES * 8


def test_jordan_identity_vacuous_on_empty_system():
    empty = TripleSystem("empty", np.zeros((0, 0, 0, 0)))
    report = check_jordan_identity(empty)
    assert report.status == "pass"


def test_jordan_randomized_path_used_above_dim_8():
    system = build_factor("I_C(2,1)")
    big = build_factor("I_H(2,1)")
    from triple_lab.factors import complexify, as_real_form

    doubled = complexify(as_real_form(system))  # dim 8, still exhaustive
    assert check_jordan_identity(doubled).seed is None
    bigger = complexify(big)  # dim 16, randomized
    report = check_jordan_identity(bigger, samples=1000, seed=5)
    assert report.status == "pass"
    assert report.seed == 5


def test_norm_axiom_examples():
    system = build_factor("I_R(2,2)")
    e = system.basis_element(0)
    cube = system.product_arrays(e.coords, e.coords, e.coords)
    assert abs(element_norm(system, cube) - 1.0) < 1e-14
    # cubic homogeneity
    t = 1.7
    assert abs(element_norm(system, t * e.coords) - t) < 1e-12
    cube_scaled = system.product_arrays(t * e.coords, t * e.coords, t * e.coords)
    assert abs(element_norm(system, cube_scaled) - t**3) < 1e-10


@pytest.mark.parametrize("label", SUITE)
def test_norm_axiom_on_suite(label):
    report = check_norm_axiom(build_factor(label), samples=48, seed=3)
    assert report.status == "pass"
    assert report.residuals["max_relative_residual"] <= 1e-8


def test_spin_norm_matches_formula_oracle():
    # the l1 interpretation must agree with the generic spin-norm formula
    system = build_factor("SPIN_R(3,1)")
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(4)
        quad = float(x @ x)
        conj = x.copy()
        conj[3:] *= -1.0
        bilin = abs(float(x @ conj))
        oracle = np.sqrt(quad + np.sqrt(max(quad**2 - bilin**2, 0.0)))
        assert abs(element_norm(system, x) - oracle) < 1e-10


def test_norm_unsupported_for_unrecognized_kind():
    system = TripleSystem("custom", np.zeros((1, 1, 1, 1)), norm_kind="product")
    with pytest.raises(Unsupported):
        check_norm_axiom(system, samples=4)


@pytest.mark.parametrize("norm_kind", ["operator", "spin"])
def test_norm_unsupported_for_hand_built_system(norm_kind):
    # factor_kind "custom" names no factor, so neither norm has a formula
    tensor = build_factor("I_R(2,1)").tensor
    system = TripleSystem("custom-copy", tensor, norm_kind=norm_kind)
    with pytest.raises(Unsupported):
        element_norm(system, np.ones(system.dim))
    with pytest.raises(Unsupported):
        check_norm_axiom(system, samples=4)


def test_complex_structure_compatibility():
    for label in ("I_C(2,1)", "I_C(2,2)", "SPIN_C(3)"):
        report = check_complex_structure(build_factor(label))
        assert report.status == "pass"
        assert max(report.residuals.values()) < 1e-12
    with pytest.raises(Unsupported):
        check_complex_structure(build_factor("I_R(2,2)"))


def test_complex_structure_check_holds_two_tensors():
    # I_C(4,4), n = 32, with one outer-symmetric pair raised: the check held
    # its three n^4 results and their sums at once, 4.0 n^4 doubles
    system = build_factor("I_C(4,4)")
    tensor = np.array(system.tensor)
    tensor[0, 1, 2, 3] += 0.1
    tensor[2, 1, 0, 3] += 0.1
    j = system.complex_structure
    broken = TripleSystem("broken", tensor, complex_structure=j)
    c = broken.tensor
    expected = {
        "outer_linearity": float(np.max(np.abs(in_slots(c, j) - c @ j.T))),
        "middle_conjugate_linearity": float(np.max(np.abs(in_slots(c, None, j) + c @ j.T))),
        "j_squares_to_minus_identity": float(np.max(np.abs(j @ j + np.eye(32)))),
    }
    tracemalloc.start()
    try:
        report = check_complex_structure(broken)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "fail" and report.residuals == expected
    assert peak <= 2.1 * 32**4 * 8


def test_hermitian_surrogate_is_advisory_and_clean():
    for label in SUITE:
        report = check_hermitian_surrogate(build_factor(label))
        assert report.status == "advisory"
        assert report.residuals["max_asymmetry"] < 1e-12
        assert report.residuals["min_eigenvalue"] > -1e-12


def _outer_symmetric(n, seed):
    """A random tensor symmetric in the outer slots, with a -0.0 entry: L(a,a) is not symmetric."""
    t = np.random.default_rng(seed).standard_normal((n,) * 4)
    t = t + t.transpose(2, 1, 0, 3)
    t[0, 0, 1, 1] = t[1, 0, 0, 1] = -0.0
    return TripleSystem(f"random {n}", t)


SLAB_LABELS = ("I_R(2,2)", "I_C(2,1)", "I_H(2,1)", "SPIN_R(3,1)", "SPIN_C(3)", "I_C(4,4)",
               "SPIN_R(16,0)", "III_R(8)")  # fmt: skip


@pytest.mark.parametrize(
    "make",
    [
        *(pytest.param(functools.partial(build_factor, label), id=label) for label in SLAB_LABELS),
        pytest.param(functools.partial(_outer_symmetric, 5, 0), id="random 5"),
        pytest.param(functools.partial(_outer_symmetric, 9, 1), id="random 9"),
    ],
)
def test_hermitian_surrogate_matches_the_dense_slabs(make):
    # the oracle slices L(e_i, e_i) = c[i, i].T out of the dense tensor
    system = make()
    diagonal = np.arange(system.dim)
    m = system.tensor[diagonal, diagonal].transpose(0, 2, 1)
    mt = m.transpose(0, 2, 1)
    expected = {
        "max_asymmetry": float(np.abs(m - mt).max(initial=0.0)),
        "min_eigenvalue": min(0.0, float(np.linalg.eigvalsh(0.5 * (m + mt)).min(initial=0.0))),
    }
    residuals = check_hermitian_surrogate(system).residuals
    assert np.array(list(residuals.values())).tobytes() == np.array(list(expected.values())).tobytes()
    assert list(residuals) == list(expected)


def test_hermitian_surrogate_reads_the_entries_not_the_dense_tensor():
    # n = 64: the dense view alone is n^4 * 8 bytes = 128 MiB; the n slabs are 2 MiB
    system = build_factor("SPIN_R(64,0)")
    tracemalloc.start()
    try:
        report = check_hermitian_surrogate(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.residuals == {"max_asymmetry": 0.0, "min_eigenvalue": 0.0}
    assert system._entries._dense is None
    assert peak < 8 * 2**20


def test_system_json_schema_and_roundtrip(tmp_path):
    system = build_factor("I_C(2,1)")
    payload = system_to_json(system)
    assert sorted(payload.keys()) == [
        "complex_structure", "dim", "factor_kind", "name", "norm_kind", "rank_hint", "tensor",
    ]
    assert len(payload["tensor"]) == system.dim**4
    assert len(payload["complex_structure"]) == system.dim**2
    loaded = system_from_json(json.loads(json.dumps(payload)))
    assert loaded == system
    assert loaded.rank_hint == system.rank_hint
    assert loaded.norm_kind == system.norm_kind


def test_system_equality_compares_metadata():
    factor = build_factor("I_R(2,1)")
    t = factor.tensor
    assert TripleSystem("x", t, norm_kind="hilbert", factor_kind="I_R(2,1)") != factor
    assert TripleSystem("x", t, norm_kind=factor.norm_kind, factor_kind="I_R(2,1)",
                        rank_hint=factor.rank_hint) == factor
    same = dict(norm_kind=factor.norm_kind, rank_hint=factor.rank_hint, factor_kind="I_R(2,1)")
    for change in ({"factor_kind": "custom"}, {"rank_hint": 2}, {"blocks": ((0, 2, "I_R(2,1)"),)}):
        assert TripleSystem("x", t, **dict(same, **change)) != factor, change


def test_system_json_validates_symmetry():
    system = build_factor("I_R(2,2)")
    payload = system_to_json(system)
    tensor = np.asarray(payload["tensor"]).reshape((4,) * 4)
    tensor[0, 0, 1, 0] += 0.5  # break {x,y,z} = {z,y,x}
    payload["tensor"] = [float(v) for v in tensor.reshape(-1)]
    with pytest.raises(InvalidInput):
        system_from_json(payload)


def test_linear_map_json_roundtrip():
    system = build_factor("I_R(2,2)")
    t = system.linear_map(np.arange(16.0).reshape(4, 4))
    payload = linear_map_to_json(t)
    assert sorted(payload.keys()) == ["dim", "entries"]
    back = linear_map_from_json(payload, system)
    assert np.array_equal(back.entries, t.entries)


def _signed_zero_system():
    # -0.0 survives the outer-slot symmetrization only where both slots hold it
    tensor = np.full((2, 2, 2, 2), -0.0)
    tensor[0, 0, 0, 0] = 1.0 / 3.0
    tensor[1, 1, 1, 1] = -2.25
    tensor[0, 1, 0, 1] = 1e-300
    return TripleSystem("signed_zero", tensor, norm_kind="operator", rank_hint=None)


WIRE_CASES = {
    "I_C(2,1)": lambda: build_factor("I_C(2,1)"),
    "I_R(2,2)+SPIN_R(3,1)": lambda: direct_sum(
        [build_factor("I_R(2,2)"), build_factor("SPIN_R(3,1)")]
    ),
    "signed_zero": _signed_zero_system,
    # n^4 = 65536 entries, almost all in long runs of +0.0
    "SPIN_R(16,0)": lambda: build_factor("SPIN_R(16,0)"),
}


@pytest.mark.parametrize("case", sorted(WIRE_CASES))
def test_saved_bytes_match_streaming_encoder_oracle(tmp_path, case):
    # the oracle is the earlier writer: per-entry float() lists streamed
    # through the pure-Python encoder
    system = WIRE_CASES[case]()
    j = system.complex_structure
    old_payload = {
        "name": system.name,
        "dim": system.dim,
        "tensor": [float(x) for x in system.tensor.reshape(-1)],
        "norm_kind": system.norm_kind,
        "rank_hint": system.rank_hint,
        "complex_structure": None if j is None else [float(x) for x in j.reshape(-1)],
        "factor_kind": system.factor_kind,
    }
    expected = "".join(
        json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode(old_payload)
    ).encode("ascii")
    path = tmp_path / "system.json"
    triple_core.save_system(system, path)
    assert path.read_bytes() == expected
    # save_system encodes ndarray views; the dict API hands out lists
    assert canonical_json(system_to_json(system)).encode("ascii") == expected
    if case == "signed_zero":
        assert b"-0.0," in expected and b'"rank_hint":null' in expected
    if case == "I_C(2,1)":
        assert b'"complex_structure":[' in expected
    if case.startswith("I_R(2,2)+"):
        assert b'"factor_kind":"sum(' in expected
    assert triple_core.load_system(path) == system


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1.0 / 3.0, np.nan, np.inf, -np.inf, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(SPECIAL_FLOATS),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(1, 40).map(lambda k: [0.0] * k),
        ),
        max_size=40,
    )
)
@example([])
@example([[0.0] * 7])
@example([[0.0] * 2, 1.0, [0.0] * 3, -0.0, [0.0]])
def test_float_array_encoder_matches_json_dumps(parts):
    # a part that is a list is a run of +0.0: runs land at the start, middle and end
    arr = np.array([v for p in parts for v in (p if isinstance(p, list) else [p])], dtype=float)
    expected = json.dumps({"v": arr.tolist()}, sort_keys=True, separators=(",", ":"))
    assert canonical_json({"v": arr}) == expected


def _json_tensor(path) -> np.ndarray:
    """The oracle of the tensor reader: ``json.load`` and ``np.asarray``."""
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["tensor"], dtype=float).reshape(-1)


def _no_fallback(*args):
    raise AssertionError("the tensor reader fell back to read_json")


# masking chunks of the tensor reader: entries longer than 3 or 7 bytes are cut
CHUNKS = (3, 7, report.SCAN_CHUNK)
# the longest float repr (24 bytes) and the longest run of zeros ahead of a
# token's first digit outside "0." ("0.000"), which bound the reader's windows
LONGEST_TOKEN = -2.2250738585072014e-308
ZERO_PREFIXED = 0.00012345678901234567
FINITE_SPECIALS = [-0.0, 5e-324, 1e16, 1.0 / 3.0, 1.0, -2.5e-308, LONGEST_TOKEN, ZERO_PREFIXED]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 3),
    entries=st.lists(
        st.tuples(
            st.integers(0, 80),
            st.one_of(st.sampled_from(FINITE_SPECIALS), st.floats(-1e300, 1e300)),
        ),
        max_size=12,
    ),
    chunk=st.sampled_from(CHUNKS),
)
@example(n=0, entries=[], chunk=report.SCAN_CHUNK)
@example(n=2, entries=[], chunk=report.SCAN_CHUNK)
@example(n=2, entries=[(0, 1.0 / 3.0), (15, -0.0)], chunk=3)  # no run at either end
@example(n=3, entries=[(40, 5e-324), (41, 1e16)], chunk=7)  # runs at both ends, adjacent entries
@example(n=2, entries=[(0, LONGEST_TOKEN), (1, -ZERO_PREFIXED), (15, ZERO_PREFIXED)], chunk=3)
@example(n=2, entries=[(0, ZERO_PREFIXED), (15, LONGEST_TOKEN)], chunk=report.SCAN_CHUNK)
def test_saved_tensors_load_as_json_parses_them(tmp_path_factory, n, entries, chunk):
    # entries set symmetrically in the outer slots survive the symmetrization bit for bit
    tensor = np.zeros((n,) * 4)
    for index, value in entries:
        if n:
            i, j, k, l = np.unravel_index(index % n**4, tensor.shape)
            tensor[i, j, k, l] = tensor[k, j, i, l] = value
    path = tmp_path_factory.mktemp("wire") / "system.json"
    triple_core.save_system(TripleSystem("t", tensor), path)
    with pytest.MonkeyPatch.context() as patch:
        # a small chunk cuts entries at chunk boundaries
        patch.setattr(report, "SCAN_CHUNK", chunk)
        patch.setattr(report, "read_json", _no_fallback)
        loaded = triple_core.load_system(path)
    assert loaded.tensor.tobytes() == _json_tensor(path).tobytes() == tensor.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(SPECIAL_FLOATS),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(1, 40).map(lambda k: [0.0] * k),
        ),
        max_size=40,
    ),
    st.sampled_from(CHUNKS),
)
@example([[0.0] * 2, 1.0, [0.0] * 3, -0.0, [0.0]], 3)
@example([1e16, -2.5e-308, [0.0] * 5, 1.0 / 3.0], 7)
@example([LONGEST_TOKEN, [0.0] * 2, ZERO_PREFIXED, -ZERO_PREFIXED], report.SCAN_CHUNK)
def test_array_reader_inverts_the_array_writer(tmp_path_factory, parts, chunk):
    # NaN and infinities are not JSON numbers: those files take the json path
    arr = np.array([v for p in parts for v in (p if isinstance(p, list) else [p])], dtype=float)
    path = tmp_path_factory.mktemp("wire") / "array.json"
    write_json({"name": "a", "tensor": arr}, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "SCAN_CHUNK", chunk)
        payload = read_json_array(path, "array", "tensor")
    assert payload["name"] == "a"
    # the array as FlatEntries, or as read_json's list where it falls back
    got = payload["tensor"]
    got = got.flat() if isinstance(got, report.FlatEntries) else np.asarray(got, dtype=float)
    assert got.tobytes() == _json_tensor(path).tobytes()


# n = 28..36, 99.4-99.8 % zeros: the factor files of the benchmark's wire-format part
IO_FACTORS = ("II_R(8)", "I_C(4,4)", "III_R(8)", "I_H(3,3)")


@pytest.mark.parametrize("case", sorted(WIRE_CASES) + list(IO_FACTORS))
def test_saved_files_take_the_zero_run_reader(tmp_path, monkeypatch, case):
    # the large factors at the default chunk only
    small = case in WIRE_CASES
    system = WIRE_CASES[case]() if small else build_factor(case)
    path = tmp_path / "system.json"
    triple_core.save_system(system, path)
    oracle = _json_tensor(path)
    monkeypatch.setattr("triple_lab.report.read_json", _no_fallback)
    for chunk in CHUNKS if small else (report.SCAN_CHUNK,):
        monkeypatch.setattr(report, "SCAN_CHUNK", chunk)
        loaded = triple_core.load_system(path)
        assert loaded == system
        assert loaded.tensor.tobytes() == oracle.tobytes()


def test_factor_files_are_written_without_joining_their_bytes(tmp_path):
    # III_R(8), a 6.5 MiB file: streaming its pieces peaks at 2.2 MiB traced,
    # joining them first took 8.8 MiB
    system = build_factor("III_R(8)")
    path = tmp_path / "system.json"
    tracemalloc.start()
    try:
        triple_core.save_system(system, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2
    assert path.read_bytes() == report.canonical_bytes(system_to_json(system))


@pytest.mark.parametrize(
    "token, longer",
    [
        (b"1.0,", b"1.00000000000000000000000000000000,"),  # no separator in the window after
        (b"1e-06,", b"0.000001,"),  # nor in the window before
    ],
    ids=["long_digits", "long_zero_prefix"],
)
def test_tokens_that_overrun_the_windows_load_through_read_json(tmp_path, monkeypatch, token, longer):
    # valid JSON for the same floats, but longer than float repr writes them;
    # entries 0 and 1, whose windows the end of the file does not shift
    tensor = np.zeros((3,) * 4)
    tensor[0, 0, 0, 0] = 1.0
    tensor[0, 0, 0, 1] = 1e-06
    system = TripleSystem("long", tensor)
    path = tmp_path / "system.json"
    triple_core.save_system(system, path)
    path.write_bytes(_in_tensor(path.read_bytes(), token, longer))
    calls = []

    def read_json(*args):
        calls.append(args)
        return json_reader(*args)

    json_reader = report.read_json
    monkeypatch.setattr(report, "read_json", read_json)
    loaded = triple_core.load_system(path)
    assert len(calls) == 1
    assert loaded == system
    assert loaded.tensor.tobytes() == _json_tensor(path).tobytes() == system.tensor.tobytes()


def _compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _nested(values, n):
    return np.asarray(values).reshape((n,) * 4).tolist()


def _ints(values):
    return [int(v) if v == int(v) else v for v in values]


HAND_WRITTEN_FACTORS = {
    "indent": lambda p: json.dumps(p, indent=1, sort_keys=True),
    "int_tokens": lambda p: _compact(dict(p, tensor=_ints(p["tensor"]))),
    "zero_tokens_0.00": lambda p: canonical_json(p).replace("0.0,", "0.00,"),
    "reordered_keys": lambda p: _compact(dict(sorted(p.items(), reverse=True))),
    "look_alike_key": lambda p: canonical_json(dict(p, **{'ab"tensor': [1.0, 0.0]})),
    "nested_lists": lambda p: canonical_json(dict(p, tensor=_nested(p["tensor"], p["dim"]))),
}


@pytest.mark.parametrize("variant", sorted(HAND_WRITTEN_FACTORS))
def test_hand_written_factor_files_load_as_json_parses_them(tmp_path, variant):
    system = build_factor("I_C(2,1)")
    path = tmp_path / "system.json"
    path.write_text(HAND_WRITTEN_FACTORS[variant](system_to_json(system)))
    if variant == "look_alike_key":
        assert b'"ab\\"tensor":[1.0,0.0]' in path.read_bytes()
    loaded = triple_core.load_system(path)
    assert loaded == system
    assert loaded.tensor.tobytes() == _json_tensor(path).tobytes()


def _in_tensor(text: bytes, old: bytes, new: bytes) -> bytes:
    """``text`` with the first ``old`` inside the tensor list replaced by ``new``."""
    at = text.index(old, text.index(b'"tensor":['))
    return text[:at] + new + text[at + len(old) :]


MALFORMED_FACTOR_BYTES = {
    "truncated": lambda b: b[: len(b) // 2],
    "non_utf8_name": lambda b: b.replace(b'"name":"', b'"name":"\xff', 1),
    "non_utf8_entry": lambda b: _in_tensor(b, b"0.0,", b"0.0\xff,"),
    "string_tokens": lambda b: _compact(
        dict(json.loads(b), tensor=[repr(v) for v in json.loads(b)["tensor"]])
    ).encode(),
    "underscore_token": lambda b: _in_tensor(b, b"0.0,", b"1_0,"),
    # the run keeps its length and its bytes but not its tokens
    "misplaced_comma": lambda b: _in_tensor(b, b"0.0,0.0,", b"0.00,.0,"),
    "trailing_comma": lambda b: b.replace(b"]}", b",]}"),  # the tensor is the last key
    "bad_last_entry": lambda b: _in_tensor(b, b"1.0]", b".00]"),
    "nan_entry": lambda b: _in_tensor(b, b"0.0,", b"NaN,"),
    # numpy would read the booleans as the entries they replace
    "true_entry": lambda b: _in_tensor(b, b"1.0", b"true"),
    "false_entry": lambda b: _in_tensor(b, b"0.0,", b"false,"),
    # 4-periodic runs of the right length whose tokens are not "0.0"
    "zero_runs_00.": lambda b: _in_tensor(b, b"0.0,0.0,0.0,0.0,0.5", b"00.,00.,00.,00.,0.5"),
    "final_run_without_commas": lambda b: b.replace(b"0.0,0.0,0.0,0.0,1.0]", b"0.000.000.000.000.0]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FACTOR_BYTES))
def test_malformed_factor_files_raise_invalid_input(tmp_path, case):
    path = tmp_path / "system.json"
    triple_core.save_system(build_factor("I_C(2,1)"), path)
    path.write_bytes(MALFORMED_FACTOR_BYTES[case](path.read_bytes()))
    with pytest.raises(InvalidInput):
        triple_core.load_system(path)


def test_loading_a_factor_holds_no_boxed_floats(tmp_path):
    # II_R(8), n = 28: json.load and np.asarray peaked at 37.9 MiB, the
    # zero-run reader and in-place symmetrization at 9.4 MiB
    path = tmp_path / "system.json"
    triple_core.save_system(build_factor("II_R(8)"), path)
    tracemalloc.start()
    try:
        loaded = triple_core.load_system(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.dim == 28
    assert peak < 16 * 2**20


@pytest.mark.parametrize("label", ["II_R(8)", "III_R(8)", "I_C(4,4)"])
def test_loaded_tensor_is_the_readers_array(tmp_path, label):
    # the reader's lists become the system's, with no n^4 array: loading
    # peaked at 1.57-1.61 n^4 doubles when the reader filled a dense array,
    # and at 2.02-2.06 when the constructor copied that
    built = build_factor(label)
    path = tmp_path / "system.json"
    triple_core.save_system(built, path)
    tracemalloc.start()
    try:
        loaded = triple_core.load_system(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded._entries._dense is None
    assert loaded.tensor.tobytes() == built.tensor.tobytes()
    assert loaded.tensor.flags.c_contiguous and not loaded.tensor.flags.writeable
    assert peak < 1.0 * built.dim**4 * 8


def test_saving_a_factor_copies_its_bytes_once(tmp_path):
    # II_R(8), n = 28, a 2.5 MB file: the str writer (str pieces, two bracketing
    # concatenations and the UTF-8 encode) peaked at 3.46 times the file's size
    system = build_factor("II_R(8)")
    path = tmp_path / "system.json"
    tracemalloc.start()
    try:
        triple_core.save_system(system, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


# sha256 of ``save_system``'s bytes, recorded from the writer that encoded the
# dense tensor (numpy 2.4, OpenBLAS, x86-64; a matrix factor's last bits are
# its GEMM's): the ladder factors, the wire-format factors and the signed zeros
PINNED_FACTOR_FILES = {
    "I_C(2,1)": "9ab1d811235cf126f589b4f5d9fa2eda29901ffe007cef94e20a8919f8bc17fc",
    "I_C(2,2)": "8f030b831f72ea6af53643bb84486f9e95b54a9bf6adc603e4c25c256c80950e",
    "I_R(3,3)": "69427ff433a5f0eed399462e245fd404250b2d6a7da839f72d88d1f16b781fa3",
    "II_R(5)": "7b581e8152e79072c6327f2717d7867fb7663318d15348c3b9159bbeef69e399",
    "III_R(4)": "638a0f29d35f8b3315bcdef1efa3a604b3f3ed710422b9ad7aee8dc41c962724",
    "SPIN_R(16,0)": "4653a55854ba0310863f8920b9d376c03e76ab38bad0237598cdefbac2fca58b",
    "II_R(8)": "36b51240e84ebe203123cef35ae35414ae898b45ed5e56d2b485549a1ad65cd6",
    "I_C(4,4)": "7ae8627bb1efa3ed76a2b84bb89fee210aac08d37dc33ddbf8a987e17fe8dfca",
    "III_R(8)": "0d7c4787bc8fb7b5fa2aca8160e114fb8a06837da98f15a1e892d469e3c32e80",
    "I_H(3,3)": "c6bfe0fde2bce1ea6fcdf21d7a28f06094cdd7c71c5b55fc71fc30d105c7ba89",
    "signed_zero": "57de912a470f7b4c5eb0d405577573ff2dd52c57970f62d783637168e9da55c9",
}


@pytest.mark.parametrize("case", sorted(PINNED_FACTOR_FILES))
def test_factor_file_bytes_are_pinned(tmp_path, case):
    system = _signed_zero_system() if case == "signed_zero" else build_factor(case)
    path = tmp_path / "system.json"
    triple_core.save_system(system, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FACTOR_FILES[case]


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_loading_and_comparing_a_factor_build_no_dense_tensor(tmp_path):
    # III_R(8), n = 36, 0.6 % nonzero: the reader hands its lists over (its
    # dense array took 1.57 n^4 doubles; the file alone is 0.5) and ==
    # compares the lists (0.125 with the dense tensors)
    system = build_factor("III_R(8)")
    path = tmp_path / "system.json"
    triple_core.save_system(system, path)
    unit = system.dim**4 * 8
    loaded, load_peak = _traced_peak(lambda: triple_core.load_system(path))
    equal, compare_peak = _traced_peak(lambda: loaded == system)
    assert equal and loaded._entries._dense is None and system._entries._dense is None
    assert load_peak < 0.8 * unit
    assert compare_peak < 0.01 * unit


def test_jordan_and_norm_checks_build_no_dense_tensor():
    # I_C(4,4), n = 32: the randomized checks read the graded unfolding only
    system = build_factor("I_C(4,4)")
    unit = system.dim**4 * 8
    jordan, jordan_peak = _traced_peak(lambda: check_jordan_identity(system, seed=3))
    norm, norm_peak = _traced_peak(lambda: check_norm_axiom(system, 256, seed=3))
    assert jordan.status == norm.status == "pass"
    assert system._entries._dense is None
    assert jordan_peak < unit and norm_peak < unit


def _with_bool(values, at):
    """``values`` as a list with entry ``at`` replaced by the bool of its value."""
    values = list(values)
    values[at] = bool(values[at])
    return values


def test_wire_lists_refuse_json_booleans():
    # numpy reads true and false as 1.0 and 0.0, the entries they replace
    system = build_factor("I_C(2,1)")
    payload = system_to_json(system)
    one = payload["tensor"].index(1.0)
    j_one = payload["complex_structure"].index(1.0)
    factor_payloads = {
        "tensor": dict(payload, tensor=_with_bool(payload["tensor"], one)),
        "nested_tensor": dict(
            payload, tensor=[_with_bool(payload["tensor"][:128], 0), payload["tensor"][128:]]
        ),
        "bool_array": dict(payload, tensor=np.asarray(payload["tensor"]) != 0),
        "complex_structure": dict(
            payload, complex_structure=_with_bool(payload["complex_structure"], j_one)
        ),
    }
    for bad in factor_payloads.values():
        with pytest.raises(InvalidInput, match="must be a list of numbers"):
            system_from_json(bad)
    for entries in ([True] * 16, _with_bool(np.eye(4).reshape(-1), 0)):
        with pytest.raises(InvalidInput, match="entries must be a list of numbers"):
            linear_map_from_json({"dim": 4, "entries": entries}, system)
    from triple_lab.derivations import derivation_space, space_from_json, space_to_json

    space = space_to_json(derivation_space(system, "triple"))
    nonzero = np.flatnonzero(space["basis"])[0]
    space["basis"] = _with_bool(space["basis"], nonzero)
    with pytest.raises(InvalidInput, match="basis must be a list of numbers"):
        space_from_json(space, system)


def test_wire_lists_hold_builtin_floats():
    from triple_lab.derivations import derivation_space, space_to_json

    system = build_factor("I_C(2,1)")
    payload = system_to_json(system)
    space = space_to_json(derivation_space(system, "triple"))
    lists = [
        payload["tensor"],
        payload["complex_structure"],
        linear_map_to_json(system.identity_map())["entries"],
        *space["basis"],
    ]
    assert all(lists) and len(space["basis"]) == 4
    assert all(type(v) is float for values in lists for v in values)


# json.dump( streams through the pure-Python encoder; a per-entry float()
# comprehension boxes one numpy scalar at a time (parsing split text is fine)
SLOW_WIRE_PATTERNS = (r"\bjson\.dump\(", r"\bfloat\((\w+)\) for \1 in (?!\w+\.split\()")


def test_no_module_writes_json_through_the_slow_path():
    package = Path(triple_core.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if any(re.search(pattern, line) for pattern in SLOW_WIRE_PATTERNS)
    ]
    assert offenders == []


def test_slow_wire_patterns_match_what_they_forbid():
    samples = {
        "json.dump(payload, fh)": True,
        "json.dumps(payload)": False,
        '"tensor": [float(x) for x in arr.reshape(-1)],': True,
        '"tripotent": [float(v) for v in e.coords],': True,
        'system.element([float(v) for v in text.split(",")])': False,
        "arr.reshape(-1).tolist()": False,
    }
    for line, slow in samples.items():
        assert any(re.search(p, line) for p in SLOW_WIRE_PATTERNS) is slow, line


# the norm takes a (b, n) stack: element_norm is its one-row case, for one vector
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_sample_norm_calls(source: str) -> list:
    """Line numbers of ``element_norm(`` calls inside a loop or a comprehension."""
    found = []

    def visit(node, looped):
        if looped and isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "element_norm":
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, looped or isinstance(node, _LOOPS))

    visit(ast.parse(source), False)
    return found


def test_no_module_takes_norms_one_sample_at_a_time():
    package = Path(triple_core.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number in per_sample_norm_calls(path.read_text())
    ]
    assert offenders == []


def test_per_sample_norm_guard_matches_what_it_forbids():
    samples = {
        "lhs = [element_norm(system, cube) for cube in cubes]": True,
        "norms = np.array(list(factors.element_norm(s, r) for r in rows))": True,
        "for row in rows:\n    out.append(element_norm(system, row))": True,
        "while worst < 1:\n    worst = element_norm(system, x)": True,
        "n = element_norm(system, coords)": False,
        "lhs = element_norms(system, cubes)": False,
        "for first in chunks:\n    lhs = element_norms(system, first)": False,
    }
    for source, slow in samples.items():
        assert bool(per_sample_norm_calls(source)) is slow, source


def test_norm_axiom_takes_two_norm_calls_per_chunk(monkeypatch):
    system = build_factor("I_R(4,4)")
    calls = []
    stacked = factors.element_norms

    def counting(system, coords):
        calls.append(len(coords))
        return stacked(system, coords)

    monkeypatch.setattr(factors, "element_norms", counting)
    samples = 40000
    report = check_norm_axiom(system, samples, seed=1)
    chunks = -(-samples // triple_core.batch_rows(4 * system.dim**2))
    assert report.status == "pass"
    assert chunks > 1 and len(calls) == 2 * chunks
    assert sum(calls) == 2 * samples  # the cubes, then the coordinates, of each chunk


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": [0.0] * 16},
        {"dim": "four", "entries": [0.0] * 16},
        {"dim": 4, "entries": ["a"] * 16},
        {"dim": 4, "entries": [0.0] * 15},
        {"dim": 4.9, "entries": [0.0] * 16},
        {"dim": "4", "entries": [0.0] * 16},
    ],
    ids=["no_dim", "dim_not_int", "entries_not_numbers", "short", "dim_float", "dim_string"],
)
def test_linear_map_json_rejects_malformed_payload(payload):
    with pytest.raises(InvalidInput):
        linear_map_from_json(payload, build_factor("I_R(2,2)"))


@pytest.mark.parametrize(
    "changes",
    [
        {"dim": -1, "tensor": [0.0]},
        {"tensor": ["x"] * 256},
        {"complex_structure": [0.0] * 15},
        {"dim": 4.5},
        {"dim": "4"},
    ],
    ids=["dim_negative", "tensor_not_numbers", "short_complex_structure", "dim_float", "dim_string"],
)
def test_system_json_rejects_malformed_payload(changes):
    payload = dict(system_to_json(build_factor("I_C(2,1)")), **changes)
    with pytest.raises(InvalidInput):
        system_from_json(payload)


def test_element_validation():
    system = build_factor("I_R(2,2)")
    with pytest.raises(InvalidInput):
        system.element([1.0, 2.0])
    with pytest.raises(InvalidInput):
        system.element([np.inf, 0.0, 0.0, 0.0])
    e = system.element([1.0, 0.0, 0.0, 1.0])
    assert abs((2.0 * e - e).norm() - e.norm()) < 1e-14


def test_dimension_cap():
    # the one cap on n; TooLarge is an InvalidInput, so either handler catches it
    with pytest.raises(TooLarge):
        TripleSystem("too-big", np.zeros((65,) * 4))
    assert issubclass(TooLarge, InvalidInput)


@pytest.mark.parametrize("rank_hint", [1.5, "two", -1, True])
def test_rank_hint_must_be_a_non_negative_int(rank_hint):
    with pytest.raises(InvalidInput, match="rank_hint"):
        TripleSystem("x", build_factor("I_R(2,2)").tensor, rank_hint=rank_hint)


def oracle_products(c, x, y, z):
    """Independent path: one unoptimized einsum per row."""
    n = c.shape[0]
    return np.array([np.einsum("ijkl,i,j,k->l", c, *rows) for rows in zip(x, y, z)]).reshape(-1, n)


@pytest.mark.parametrize("label", SUITE + ["I_R(2,2)+SPIN_R(3,1)"])
def test_product_batch_matches_per_row_einsum(label):
    if "+" in label:
        system = direct_sum([build_factor(part) for part in label.split("+")])
    else:
        system = build_factor(label)
    rng = np.random.default_rng(11)
    x, y, z = rng.standard_normal((3, 7, system.dim))
    for kind in ("triple", "symmetrized"):
        expected = oracle_products(system.product_tensor(kind), x, y, z)
        assert np.max(np.abs(product_batch(system.unfolding(kind), x, y, z) - expected)) <= 1e-12
    single = product_batch(system.unfolding("triple"), x[:1], y[:1], z[:1])[0]
    assert np.array_equal(system.product_arrays(x[0], y[0], z[0]), single)


@pytest.mark.parametrize(
    "ranks",
    [
        (5, None, None),
        (None, 5, None),
        (None, None, 5),
        (5, 5, 5),
        (2, None, 3),
        (3, 1, 4),
        (None, 0, 2),
    ],
    ids=lambda ranks: "-".join("x" if r is None else str(r) for r in ranks),
)
def test_in_slots_matches_einsum(ranks):
    """{A e_u, B e_v, C e_w}_l against one einsum, square and rectangular maps;
    with a leading stack axis on the maps, each entry of the stack is the 2-D
    call with its own maps, bit for bit."""
    n = 5
    rng = np.random.default_rng(sum(r or 0 for r in ranks))
    p = rng.standard_normal((n,) * 4)
    maps = [np.eye(n) if r is None else rng.standard_normal((n, r)) for r in ranks]
    expected = np.einsum("abcl,au,bv,cw->uvwl", p, *maps)
    got = triple_core.in_slots(p, *(None if r is None else m for r, m in zip(ranks, maps)))
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12

    stacks = [np.eye(n)[None] if r is None else rng.standard_normal((3, n, r)) for r in ranks]
    stacked = triple_core.in_slots(p, *(None if r is None else m for r, m in zip(ranks, stacks)))
    assert stacked.shape == (3, *expected.shape)
    for g in range(3):
        own = [m[0] if r is None else m[g] for r, m in zip(ranks, stacks)]
        alone = triple_core.in_slots(p, *(None if r is None else m for r, m in zip(ranks, own)))
        assert np.array_equal(stacked[g], alone)
        oracle = np.einsum("abcl,au,bv,cw->uvwl", p, *own)
        assert np.max(np.abs(stacked[g] - oracle), initial=0.0) <= 1e-12


def _in_slots_by_tensordot(p, *maps):
    """The slot maps contracted one at a time by ``np.tensordot``."""
    for slot, m in enumerate(maps):
        if m is not None:
            p = np.moveaxis(np.tensordot(m, p, axes=([0], [slot])), 0, slot)
    return p


@pytest.mark.parametrize("label", ["I_C(2,2)", "III_R(4)", "I_R(4,4)", "I_C(4,4)"])
def test_in_slots_reproduces_the_tensordot_contraction(label):
    # the flows and Leibniz defects of the suite read the same bits as with
    # one tensordot per slot
    system = build_factor(label)
    n = system.dim
    maps = np.random.default_rng(n).standard_normal((2, n, n))
    for kind in ("triple", "symmetrized"):
        p = system.product_tensor(kind)
        stacked = triple_core.in_slots(p, maps, maps, maps)
        for g, m in enumerate(maps):
            assert np.array_equal(stacked[g], _in_slots_by_tensordot(p, m, m, m))
            middle = triple_core.in_slots(p, None, m)
            assert np.array_equal(middle, _in_slots_by_tensordot(p, None, m))


def test_L_maps_rows_are_the_L_operator():
    rng = np.random.default_rng(5)
    for label in ("SPIN_R(4,0)", "I_C(2,1)", "I_H(2,1)", "III_R(3)"):
        system = build_factor(label)
        a, b = rng.standard_normal((2, 6, system.dim))
        stack = triple_core.L_maps(system, a, b)
        assert stack.shape == (6, system.dim, system.dim)
        for row, x, y in zip(stack, a, b):
            single = triple_core.L_operator(system.element(x), system.element(y)).entries
            assert np.array_equal(row, single)
            assert np.array_equal(row, np.einsum("ijkl,i,j->lk", system.tensor, x, y))


def test_Q_operator_is_its_einsum_formula():
    rng = np.random.default_rng(6)
    for label in ("SPIN_R(4,0)", "I_C(2,1)", "I_H(2,1)", "III_R(3)"):
        system = build_factor(label)
        for x in rng.standard_normal((6, system.dim)):
            expected = np.einsum("ijkl,i,k->lj", system.tensor, x, x)
            assert np.array_equal(Q_operator(system.element(x)).entries, expected)


def _tripotent(system):
    return factors.canonical_tripotents(system)[0]


def _pair(system, rng):
    return [system.element(x) for x in rng.standard_normal((2, system.dim))]


# each call takes a system and a seeded generator
LISTED_OPERATOR_CALLS = {
    "L_operator": lambda s, rng: L_operator(*_pair(s, rng)),
    "L_maps": lambda s, rng: triple_core.L_maps(s, *rng.standard_normal((2, 3, s.dim))),
    "Q_operator": lambda s, rng: Q_operator(_pair(s, rng)[0]),
    "peirce": lambda s, rng: structure.peirce(_tripotent(s)),
    "cube_root": lambda s, rng: structure.cube_root(_tripotent(s) * 8.0),
    "verify_rank_witness": lambda s, rng: structure.verify_rank_witness(
        s, factors.canonical_rank_witness(s)
    ),
    "is_minimal_tripotent": lambda s, rng: structure.is_minimal_tripotent(_tripotent(s)),
    "inner_derivation": lambda s, rng: derivations.inner_derivation(*_pair(s, rng)),
    **{
        f"derivation_space[{kind}]": lambda s, rng, kind=kind: derivations.derivation_space(s, kind)
        for kind in derivations.KINDS
    },
}


@pytest.mark.parametrize("name", LISTED_OPERATOR_CALLS)
def test_operators_leave_the_dense_view_unbuilt(name):
    # n = 32, many sign blocks: L, Q and the inner-span generators read the
    # nonzero list, so no call builds the n^4 view
    system = build_factor("I_C(4,4)")
    LISTED_OPERATOR_CALLS[name](system, np.random.default_rng(7))
    assert system._entries._dense is None
    assert system._symmetric is None or system._symmetric._dense is None


def test_in_slots_edge_cases():
    p = np.random.default_rng(2).standard_normal((3,) * 4)
    # no maps, or only None, leave the tensor itself
    assert triple_core.in_slots(p) is p
    assert triple_core.in_slots(p, None, None, None) is p
    empty = np.zeros((0,) * 4)
    assert triple_core.in_slots(empty, np.zeros((0, 0)), None, np.zeros((0, 0))).shape == (0,) * 4
    assert triple_core.in_slots(empty, np.zeros((0, 0))).shape == (0,) * 4


def test_product_batch_edge_shapes():
    empty_system = TripleSystem("empty", np.zeros((0, 0, 0, 0)))
    assert product_batch(graded_unfolding(empty_system._entries), *np.zeros((3, 5, 0))).shape == (5, 0)
    system = build_factor("I_C(2,1)")
    none = np.zeros((0, system.dim))
    assert product_batch(system.unfolding("triple"), none, none, none).shape == (0, system.dim)
    x, y, z = np.random.default_rng(2).standard_normal((3, 1, system.dim))
    single = product_batch(system.unfolding("triple"), x, y, z)
    assert single.shape == (1, system.dim)
    assert np.max(np.abs(single - oracle_products(system.tensor, x, y, z))) <= 1e-14
    for narrow in ((x[:, 1:], y), (x, y[:, 1:]), (x[0], y[0])):
        with pytest.raises(InvalidInput, match="stacks"):
            product_batch(system.unfolding("triple"), *narrow, z)
    assert empty_system.product_arrays(np.zeros(0), np.zeros(0), np.zeros(0)).shape == (0,)
    assert empty_system.unfolding("symmetrized").groups == ()
    assert symmetrized_product(*[Element(empty_system, np.zeros(0))] * 3).coords.shape == (0,)


_SUITE_CONFIG = load_suite()
KERNEL_SYSTEMS = (
    _SUITE_CONFIG["factors"]
    + ["+".join(specs) for specs in _SUITE_CONFIG["sums_equal"] + _SUITE_CONFIG["sums_gap"]]
    + ["II_C(4)", "I_C(4,4)", "rotated I_C(2,1)"]
)


def _kernel_system(label):
    """A suite factor or direct sum; "rotated X" is X in a random orthonormal
    basis, whose tensor has no zero entry and so a single character."""
    if label.startswith("rotated "):
        base = build_factor(label.split()[1])
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((base.dim, base.dim)))
        return TripleSystem(label, np.einsum("ijkl,ia,jb,kc,ld->abcd", base.tensor, q, q, q, q))
    return direct_sum([build_factor(spec) for spec in label.split("+")])


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
@pytest.mark.parametrize("label", KERNEL_SYSTEMS)
def test_graded_kernel_matches_per_row_einsum(label, kind):
    system = _kernel_system(label)
    n = system.dim
    p = system.product_tensor(kind)
    rng = np.random.default_rng(13)
    for b in (0, 1, triple_core.batch_rows(n * n) + 1):
        x, y, z = rng.standard_normal((3, b, n))
        got = product_batch(system.unfolding(kind), x, y, z)
        expected = oracle_products(p, x, y, z)
        assert got.shape == (b, n)
        scale = np.max(np.abs(expected), initial=1.0)
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["triple", "symmetrized"])
@pytest.mark.parametrize("label", KERNEL_SYSTEMS)
def test_unfolding_blocks_reassemble_the_tensor(label, kind):
    system = _kernel_system(label)
    n = system.dim
    p = system.product_tensor(kind)
    u = system.unfolding(kind)
    assert system.unfolding(kind) is u
    # the unfolding keeps the one scan of p: its nonzero indices and values
    assert np.array_equal(u.nonzero, np.stack(np.nonzero(p)))
    assert np.array_equal(u.values, p[np.nonzero(p)])
    assert not u.nonzero.flags.writeable and not u.values.flags.writeable
    chars = sign_grading(n, u.nonzero).reshape(-1)
    # two pairs share a block iff they share a character
    same_block = u.block[:, None] == u.block[None, :]
    assert np.array_equal(same_block, chars[:, None] == chars[None, :])
    unfolded = p.reshape(n * n, n * n)
    # the grading is read off the nonzero pattern: nothing outside the blocks
    assert np.all(unfolded[~same_block] == 0.0)
    pairs = u.left * n + u.right
    assert np.array_equal(np.sort(pairs), np.arange(n * n))
    assert np.array_equal(u.inverse[pairs], np.arange(n * n))
    # block b is the positions starts[b]:starts[b + 1]: numbers never decrease
    # along the plan order, and the widths never decrease either
    widths = np.diff(u.starts)
    assert u.starts[0] == 0 and np.all(widths > 0)
    assert np.array_equal(u.block[pairs], np.repeat(np.arange(widths.size), widths))
    assert np.all(np.diff(widths) >= 0)
    rebuilt = np.zeros_like(unfolded)
    copied = 0
    for lo, hi, blocks in u.groups:
        m, w = blocks.shape[:2]
        assert np.all(widths[u.block[pairs[lo:hi]]] == w)
        block_pairs = pairs[lo:hi].reshape(m, w)
        assert np.all(u.block[block_pairs] == u.block[block_pairs[:, :1]])
        rebuilt[block_pairs[:, :, None], block_pairs[:, None, :]] = blocks.transpose(0, 2, 1)
        if not np.shares_memory(blocks, p):
            copied += blocks.size
    assert np.array_equal(rebuilt, unfolded)
    assert sum(blocks.shape[0] for _, _, blocks in u.groups) == widths.size
    if widths.size == 1:
        # one character: the block is the tensor itself, not a copy
        assert len(u.groups) == 1 and np.shares_memory(u.groups[0][2], p) and copied == 0
    else:
        assert copied == int(np.sum(widths**2))


class _ScriptedRng:
    """Stands in for a Generator: standard_normal hands out a fixed sequence."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._next = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self._values[self._next : self._next + count].reshape(size)
        self._next += count
        return out


def oracle_norm_axiom(system, samples, rng, tol=1e-8):
    """The per-sample loop: one draw, one einsum cube and two norms per sample."""
    worst, witness = 0.0, {}
    for _ in range(samples):
        coords = rng.standard_normal(system.dim)
        if not np.any(coords):
            continue
        lhs = element_norm(system, np.einsum("ijkl,i,j,k->l", system.tensor, coords, coords, coords))
        rhs = element_norm(system, coords) ** 3
        rel = abs(lhs - rhs) / max(rhs, 1e-300)
        if rel > worst:
            worst = rel
            if rel > tol:
                witness = {"coords": coords}
    return worst, witness


@pytest.mark.parametrize("corrupt", [False, True])
def test_norm_axiom_matches_per_sample_loop(monkeypatch, corrupt):
    system = build_factor("I_R(2,2)")
    if corrupt:
        tensor = np.array(system.tensor)
        tensor[0, 0, 0, 0] += 0.1
        system = TripleSystem("broken", tensor, norm_kind="operator", factor_kind="I_R(2,2)")
    # blocks of 64 samples: 150 samples make three
    monkeypatch.setattr(triple_core, "BATCH_ENTRIES", 64 * system.dim**2)
    samples = 150
    values = np.random.default_rng(4).standard_normal((samples, system.dim))
    values[[0, 5, 64, samples - 1]] = 0.0  # rows the check must skip
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ScriptedRng(values.reshape(-1)))
    report = check_norm_axiom(system, samples, seed=9)
    worst, witness = oracle_norm_axiom(system, samples, _ScriptedRng(values.reshape(-1)))
    assert abs(report.residuals["max_relative_residual"] - worst) <= 1e-12 * max(worst, 1.0)
    assert report.status == ("fail" if corrupt else "pass")
    if corrupt:
        assert np.array_equal(report.witnesses["coords"], witness["coords"])
    else:
        assert report.witnesses == {} and witness == {}


def _einsum_jordan_norms(tensor, vecs):
    """Per-sample norm of the Jordan identity's defect, one optimized einsum per product."""

    def product(x, y, z):
        return np.einsum("ijkl,bi,bj,bk->bl", tensor, x, y, z, optimize=True)

    a, b, x, y, z = vecs
    defect = (
        product(a, b, product(x, y, z))
        - product(product(a, b, x), y, z)
        + product(x, product(b, a, y), z)
        - product(x, y, product(a, b, z))
    )
    return np.linalg.norm(defect, axis=1)


def _assert_jordan_matches_einsum(report, tensor, vecs):
    norms = _einsum_jordan_norms(tensor, vecs)
    assert report.status == "fail"
    assert abs(report.residuals["max_residual"] - norms.max()) <= 1e-12 * norms.max()
    assert report.witnesses["sample_index"] == int(norms.argmax())
    assert np.array_equal(report.witnesses["sample"], vecs[:, int(norms.argmax()), :])


def test_randomized_jordan_matches_einsum_across_draws():
    # a corrupted n = 16 system fails everywhere; 1500 samples are two draws,
    # and with this seed the worst sample is in the second
    system = build_factor("I_R(4,4)")
    tensor = np.array(system.tensor)
    tensor[0, 1, 0, 2] += 0.1
    broken = TripleSystem("broken", tensor)
    report = check_jordan_identity(broken, samples=1500, seed=3)
    rng = np.random.default_rng(3)
    draws = [rng.standard_normal((5, m, 16)) for m in (1024, 476)]
    vecs = np.concatenate([d / np.linalg.norm(d, axis=2, keepdims=True) for d in draws], axis=1)
    _assert_jordan_matches_einsum(report, broken.tensor, vecs)
    assert report.witnesses["sample_index"] >= 1024


@pytest.mark.parametrize("keeps_grading", [True, False], ids=["grading_kept", "grading_coarsened"])
def test_randomized_jordan_on_corrupted_large_tensor_matches_einsum(keeps_grading):
    # I_C(4,4), n = 32: one outer-symmetric pair of entries raised by 0.1,
    # either a nonzero pair (same nonzero pattern, same grading) or a pair
    # joining two characters (a coarser grading: fewer, wider blocks)
    system = build_factor("I_C(4,4)")
    chars = sign_grading(system.dim, np.stack(np.nonzero(system.tensor)))
    i, j = 0, 1
    if keeps_grading:
        k, l = next((k, l) for k, l in zip(*np.nonzero(system.tensor[i, j])) if k != i)
    else:
        k, l = next((k, l) for k in range(2, 32) for l in range(32) if chars[i, j] != chars[k, l])
    tensor = np.array(system.tensor)
    tensor[i, j, k, l] += 0.1
    tensor[k, j, i, l] += 0.1
    broken = TripleSystem("broken", tensor)
    graded, intact = broken.unfolding("triple"), system.unfolding("triple")
    # the same partition into blocks, or fewer, wider ones
    same_block = graded.block[:, None] == graded.block[None, :]
    same_char = chars.reshape(-1, 1) == chars.reshape(1, -1)
    assert np.array_equal(same_block, same_char) is keeps_grading
    assert np.all(same_block[same_char])
    assert (graded.starts.size == intact.starts.size) is keeps_grading
    report = check_jordan_identity(broken, samples=1000, seed=3)
    vecs = np.random.default_rng(3).standard_normal((5, 1000, 32))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    _assert_jordan_matches_einsum(report, broken.tensor, vecs)


def test_chunk_workspace_gives_the_bits_of_fresh_arrays_per_chunk():
    # n = 16, 1500 samples: the Jordan check's draws of 1024 and 476 samples
    # and the norm check's 1500 end in a chunk shorter than the workspace
    system = build_factor("I_R(4,4)")
    tensor = np.array(system.tensor)
    tensor[0, 1, 0, 2] += 0.1
    broken = TripleSystem("broken", tensor, norm_kind="operator", factor_kind="I_R(4,4)")
    u, n = broken.unfolding("triple"), broken.dim
    rows = triple_core.batch_rows(4 * n * n)
    assert 1500 % rows and 476 % rows

    def product(x, y, z):  # a fresh set of arrays per call
        return product_batch(u, x, y, z)

    rng = np.random.default_rng(3)
    jordan = []
    for m in (1024, 476):
        vecs = rng.standard_normal((5, m, n))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        for i in range(0, m, rows):
            a, b, x, y, z = vecs[:, i : i + rows]
            defect = (
                product(a, b, product(x, y, z))
                - product(product(a, b, x), y, z)
                + product(x, product(b, a, y), z)
                - product(x, y, product(a, b, z))
            )
            jordan.append(np.linalg.norm(defect, axis=1))
    jordan = np.concatenate(jordan)
    report = check_jordan_identity(broken, samples=1500, seed=3)
    assert report.residuals["max_residual"] == float(jordan.max())
    assert report.witnesses["sample_index"] == int(jordan.argmax())

    rng = np.random.default_rng(3)
    cube_norms = []
    for first in range(0, 1500, rows):
        coords = rng.standard_normal((min(rows, 1500 - first), n))
        lhs = element_norms(broken, product(coords, coords, coords))
        rhs = element_norms(broken, coords) ** 3
        cube_norms.append(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300))
    cube_norms = np.concatenate(cube_norms)
    report = check_norm_axiom(broken, 1500, seed=3)
    assert report.residuals["max_relative_residual"] == float(cube_norms.max())
    assert report.status == "fail"
    worst = np.random.default_rng(3).standard_normal((1500, n))[int(cube_norms.argmax())]
    assert np.array_equal(report.witnesses["coords"], worst)


def test_randomized_jordan_passes_on_the_largest_factor():
    assert check_jordan_identity(build_factor("I_H(4,4)")).status == "pass"


@pytest.mark.parametrize("samples", [0, -5])
def test_jordan_identity_rejects_sample_counts_below_one(samples):
    with pytest.raises(InvalidInput, match="samples"):
        check_jordan_identity(build_factor("I_R(4,4)"), samples=samples)


@pytest.mark.parametrize("samples", [0, -5])
def test_norm_axiom_rejects_sample_counts_below_one(samples):
    with pytest.raises(InvalidInput, match="samples"):
        check_norm_axiom(build_factor("I_R(2,2)"), samples)


def test_randomized_jordan_check_holds_a_few_stacks():
    # I_C(4,4), n = 32: chunks of batch_rows(n^2) rows peaked at 14.1 MB, about
    # seven 2 MB stacks; a quarter of those rows keeps it under three
    system = build_factor("I_C(4,4)")
    system.unfolding("triple")
    tracemalloc.start()
    try:
        report = check_jordan_identity(system, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "pass"
    assert peak < 3 * triple_core.BATCH_ENTRIES * 8


def test_jordan_and_norm_memory_is_bounded_for_large_sample_counts():
    # unchunked, 40000 samples at n = 16 would hold 26 MB of vectors and
    # 82 MB per batch of outer products
    system = build_factor("I_R(4,4)")
    tracemalloc.start()
    try:
        jordan = check_jordan_identity(system, samples=40000, seed=1)
        norm = check_norm_axiom(system, 40000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert jordan.status == "pass" and norm.status == "pass"
    assert peak < 16 * 2**20
