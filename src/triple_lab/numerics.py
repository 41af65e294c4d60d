"""Dense real linear-algebra kernels used by every other module.

All routines are pure functions on immutable inputs and deterministic for a
fixed input: rank decisions go through LAPACK factorizations, never through
randomized algorithms.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidInput

# Relative singular-value cutoff for rank decisions.  Structure constants are
# exact small rationals/irrationals, so spectral gaps are large and a loose
# relative threshold is safe.
DEFAULT_RANK_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidInput(f"expected a 2-d array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    return m


def null_space(a, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``a``.

    A direction x belongs to the kernel when ||a x|| <= tol * ||a|| * ||x||;
    the decision is made on the singular values of ``a`` relative to the
    largest one, so the result is deterministic for a fixed input.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0:
        return np.eye(cols)
    # the kernel rows vt[rank:] need the full V only when rows < cols; a
    # thin SVD never builds the rows x rows U
    _, s, vt = np.linalg.svd(m, full_matrices=rows < cols)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T.copy()


def least_squares_residual(a, b) -> float:
    """Minimum of ||a x - b|| over x, in the Euclidean norm."""
    m = as_matrix(a)
    v = np.asarray(b, dtype=float).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise InvalidInput("right-hand side has non-finite entries")
    if v.shape[0] != m.shape[0]:
        raise InvalidInput(f"incompatible shapes: {m.shape} vs {v.shape}")
    if m.shape[1] == 0:
        return float(np.linalg.norm(v))
    x, *_ = np.linalg.lstsq(m, v, rcond=None)
    return float(np.linalg.norm(m @ x - v))


def expm(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a Pade core."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expm needs a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(m)


def orthonormal_columns(vectors, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``vectors``."""
    m = as_matrix(vectors)
    if m.shape[1] == 0 or not np.any(m):
        return np.zeros((m.shape[0], 0))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank].copy()


def span_distance(vector, basis) -> float:
    """Distance from ``vector`` to the span of the orthonormal ``basis`` columns."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    b = as_matrix(basis)
    if b.shape[1] == 0:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(v - b @ (b.T @ v)))


def matrix_to_json(m) -> dict:
    """Row-major serialization with an explicit (rows, cols) header."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": a.reshape(-1).tolist(),
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    rows, cols = int(payload["rows"]), int(payload["cols"])
    entries = np.asarray(payload["entries"], dtype=float)
    if entries.size != rows * cols:
        raise InvalidInput("entries length does not match rows*cols")
    return as_matrix(entries.reshape(rows, cols))
