"""Dense real linear-algebra kernels used by every other module.

All routines are pure functions on immutable inputs and deterministic for a
fixed input: rank decisions go through LAPACK factorizations, never through
randomized algorithms.
"""

from __future__ import annotations

import sys

import numpy as np

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


def check_tol(tol) -> float:
    """``tol`` as a float; InvalidInput unless it is a finite number above 0.

    A NaN fails every comparison and an infinity passes every bound, so either
    would turn a rank or residual decision into a silent wrong answer.
    """
    number = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if not (number and 0 < tol <= sys.float_info.max):
        raise InvalidInput(f"tol must be a finite number above 0, got {tol!r}")
    return float(tol)


def null_space(a, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of ``a``.

    A direction x belongs to the kernel when ||a x|| <= tol * ||a|| * ||x||;
    the decision is made on the singular values of ``a`` relative to the
    largest one, so the result is deterministic for a fixed input.
    """
    check_tol(tol)
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


# Pade [13/13] coefficients b_0..b_13 and its 1-norm bound theta_13 from
# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26: for ||a||_1 <= theta_13 the
# approximant is accurate to unit roundoff.
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def expm(a) -> np.ndarray:
    """Matrix exponential by Higham's (2005) scaling and squaring with Pade [13/13].

    ``a`` is an (n, n) matrix or a (..., n, n) stack of them, and each matrix
    of a stack is exponentiated as it would be alone.  A matrix is scaled by
    2^-s so that its 1-norm is at most theta_13, the [13/13] approximant
    r = (V - U)^-1 (V + U) is taken with one solve, and r is squared s times;
    in a stack each matrix keeps its own s.  A diagonal matrix is
    exponentiated entrywise, so expm(0) is exactly the identity.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        raise InvalidInput(f"expected a 2-d array or a stack of them, got shape {m.shape}")
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"expm needs a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")
    n = m.shape[-1]
    if n == 0:
        return np.zeros(m.shape)
    stack = m.reshape(-1, n, n)
    out = np.zeros(stack.shape)
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    is_diagonal = np.count_nonzero(stack, axis=(1, 2)) == np.count_nonzero(diagonal, axis=1)
    at = np.flatnonzero(is_diagonal)[:, None]
    out[at, np.arange(n), np.arange(n)] = np.exp(diagonal[is_diagonal])
    if not is_diagonal.all():
        out[~is_diagonal] = _pade_13_squared(stack[~is_diagonal])
    return out.reshape(m.shape)


def _pade_13_squared(m: np.ndarray) -> np.ndarray:
    """expm of each matrix of the (k, n, n) stack ``m``, none of them diagonal."""
    norm = np.abs(m).sum(axis=1).max(axis=1)
    squarings = np.maximum(0, np.ceil(np.log2(norm / _THETA_13))).astype(int)
    m = m / (2.0**squarings)[:, None, None]
    # U = m (a6 (b13 a6 + b11 a4 + b9 a2) + b7 a6 + b5 a4 + b3 a2 + b1 I) and
    # V = a6 (b12 a6 + b10 a4 + b8 a2) + b6 a6 + b4 a4 + b2 a2 + b0 I
    b = _PADE_13
    ident = np.eye(m.shape[-1])
    a2 = m @ m
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = m @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for step in range(int(squarings.max(initial=0))):
        more = squarings > step  # each matrix takes its own number of squarings
        r[more] = r[more] @ r[more]
    return r


def orthonormal_columns(vectors, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``vectors``."""
    check_tol(tol)
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
    return float(np.linalg.norm(v - b @ (b.T @ v)))


def row_dots(x, y) -> np.ndarray:
    """Row-wise dot products, summed as ``np.dot`` sums one row: the norms below
    equal a per-row ``np.linalg.norm`` bit for bit, ``norm(axis=1)`` does not."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def row_norms(x) -> np.ndarray:
    return np.sqrt(row_dots(x, x))
