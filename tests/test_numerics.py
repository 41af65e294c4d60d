import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from triple_lab import build_factor
from triple_lab.errors import InvalidInput
from triple_lab.numerics import (
    expm,
    least_squares_residual,
    matrix_from_json,
    matrix_to_json,
    null_space,
    orthonormal_columns,
    span_distance,
)


def test_null_space_identity_is_trivial():
    assert null_space(np.eye(2), tol=1e-12).shape == (2, 0)


def test_null_space_of_difference_row():
    basis = null_space(np.array([[1.0, -1.0]]))
    assert basis.shape == (2, 1)
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(float(direction @ basis[:, 0])) - 1.0) < 1e-12


def _leibniz_defect_column(system, d):
    n = system.dim
    e = np.eye(n)
    defects = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                defects.append(
                    d @ system.product_arrays(e[i], e[j], e[k])
                    - system.product_arrays(d @ e[i], e[j], e[k])
                    - system.product_arrays(e[i], d @ e[j], e[k])
                    - system.product_arrays(e[i], e[j], d @ e[k])
                )
    return np.concatenate(defects)


def test_null_space_leibniz_system_rank_one_hilbert():
    # Assemble the triple-Leibniz system for the 2-dimensional Hilbert factor
    # by brute force and check the kernel is exactly the skew maps.
    system = build_factor("I_R(2,1)")
    n = system.dim
    columns = []
    for unit in range(n * n):
        d = np.zeros(n * n)
        d[unit] = 1.0
        columns.append(_leibniz_defect_column(system, d.reshape(n, n)))
    a = np.column_stack(columns)
    kernel = null_space(a)
    assert kernel.shape[1] == 1
    d = kernel[:, 0].reshape(n, n)
    assert np.max(np.abs(d + d.T)) < 1e-10  # skew

    # no symmetric map is in the kernel
    sym = np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(-1)
    assert np.linalg.norm(a @ sym) > 0.1


def test_null_space_rejects_bad_tol():
    with pytest.raises(InvalidInput):
        null_space(np.eye(2), tol=0.0)


def test_null_space_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        null_space(np.array([[np.nan, 0.0]]))


def test_null_space_of_tall_matrix_skips_full_u():
    # a full SVD would allocate the 4000 x 4000 U factor (128 MB)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4000, 2)) @ rng.standard_normal((2, 3))
    tracemalloc.start()
    try:
        basis = null_space(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.shape == (3, 1)
    assert np.linalg.norm(a @ basis) <= 1e-9 * np.linalg.norm(a)
    assert peak < 16 * 2**20


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(0, 10**6))
def test_null_space_invariants(rows, cols, deficiency, seed):
    rng = np.random.default_rng(seed)
    rank = max(min(rows, cols) - deficiency, 0)
    a = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
         if rank else np.zeros((rows, cols)))
    tol = 1e-9
    basis = null_space(a, tol=tol)
    assert basis.shape == (cols, cols - rank)
    if basis.shape[1]:
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10
        residual = np.linalg.norm(a @ basis)
        assert residual <= 10 * tol * max(np.linalg.norm(a), 1.0)


def test_least_squares_identity():
    assert least_squares_residual(np.eye(3), [1.0, 2.0, 3.0]) < 1e-14


def test_least_squares_zero_matrix():
    b = np.array([3.0, 4.0])
    assert abs(least_squares_residual(np.zeros((2, 2)), b) - 5.0) < 1e-12


def test_least_squares_orthogonal_complement():
    a = np.array([[1.0], [0.0]])
    assert abs(least_squares_residual(a, [0.0, 1.0]) - 1.0) < 1e-12


def test_least_squares_shape_mismatch():
    with pytest.raises(InvalidInput):
        least_squares_residual(np.eye(2), [1.0, 2.0, 3.0])


def test_expm_zero_and_scalar():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert abs(expm(np.array([[1.0]]))[0, 0] - np.e) < 1e-12


def test_expm_quarter_turn():
    theta = np.pi / 2
    g = expm(np.array([[0.0, -theta], [theta, 0.0]]))
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(g - expected)) < 1e-12


def test_expm_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        expm(np.zeros((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_expm_inverse_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= 5.0 / max(np.linalg.norm(a, 2), 5.0)
    product = expm(a) @ expm(-a)
    assert np.max(np.abs(product - np.eye(n))) < 1e-10


# 1-norms at 0.9 theta_m for Higham's (2005) bounds theta_3 .. theta_13, all
# taken by the unscaled [13/13] approximant, and two in the scaling-and-squaring
# branch
EXPM_NORMS = {
    "theta3": 0.9 * 1.495585217958292e-2,
    "theta5": 0.9 * 2.539398330063230e-1,
    "theta7": 0.9 * 9.504178996162932e-1,
    "theta9": 0.9 * 2.097847961257068,
    "theta13": 0.9 * 5.371920351148152,
    "scaled_20": 20.0,
    "scaled_50": 50.0,
}
EXPM_SIZES = range(1, 33)


def _with_norm1(a, norm):
    return a * (norm / np.abs(a).sum(axis=0).max())


def _relative_frobenius(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@pytest.mark.parametrize("band", sorted(EXPM_NORMS))
def test_expm_matches_scipy_across_norms(band):
    rng = np.random.default_rng(sorted(EXPM_NORMS).index(band))
    for n in EXPM_SIZES:
        a = _with_norm1(rng.standard_normal((n, n)), EXPM_NORMS[band])
        assert _relative_frobenius(expm(a), scipy.linalg.expm(a)) <= 1e-11, n


@pytest.mark.parametrize("band", sorted(EXPM_NORMS))
def test_expm_of_skew_matrix_is_orthogonal(band):
    rng = np.random.default_rng(100 + sorted(EXPM_NORMS).index(band))
    for n in EXPM_SIZES[1:]:
        b = rng.standard_normal((n, n))
        a = _with_norm1(b - b.T, EXPM_NORMS[band])
        g = expm(a)
        assert np.max(np.abs(g.T @ g - np.eye(n))) <= 1e-12, n
        assert _relative_frobenius(g, scipy.linalg.expm(a)) <= 1e-11, n


def test_expm_of_diagonal_is_exact():
    rng = np.random.default_rng(7)
    for n in EXPM_SIZES:
        d = rng.uniform(-50.0, 50.0, n)
        d[rng.random(n) < 0.25] = 0.0
        g = expm(np.diag(d))
        assert np.array_equal(g, np.diag(np.exp(d))), n
        assert _relative_frobenius(g, scipy.linalg.expm(np.diag(d))) <= 1e-11, n


def test_orthonormal_columns_and_distance():
    vectors = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    basis = orthonormal_columns(vectors)
    assert basis.shape == (3, 1)
    assert span_distance([1.0, 0.0, 1.0], basis) < 1e-12
    assert abs(span_distance([0.0, 1.0, 0.0], basis) - 1.0) < 1e-12


def test_matrix_json_roundtrip():
    m = np.arange(6.0).reshape(2, 3)
    payload = matrix_to_json(m)
    assert payload["rows"] == 2 and payload["cols"] == 3
    assert np.array_equal(matrix_from_json(payload), m)
    payload["entries"] = payload["entries"][:-1]
    with pytest.raises(InvalidInput):
        matrix_from_json(payload)
