"""Tripotents, Peirce decomposition and arithmetic, orthogonality, cube roots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergence, NotTripotent, TripleLabError
from .numerics import check_tol, null_space, orthonormal_columns, span_distance
from .report import Report, STATUS_FAIL, STATUS_PASS, timed
from .triple_core import (
    Element,
    L_maps,
    L_operator,
    LinearMap,
    Q_operator,
    TripleSystem,
    _same_system,
    in_slots,
    product_batch,
)


def is_tripotent(e: Element, tol: float = 1e-10) -> bool:
    """Whether {e,e,e} = e within tol (the zero element counts)."""
    check_tol(tol)
    cube = e.system.product_arrays(e.coords, e.coords, e.coords)
    return float(np.linalg.norm(cube - e.coords)) <= tol


@dataclass(frozen=True)
class PeirceSystem:
    """Spectral projections of L(e,e) at the eigenvalues 0, 1/2 and 1."""

    tripotent: Element
    p0: LinearMap
    p1: LinearMap
    p2: LinearMap

    def projection(self, k: int) -> LinearMap:
        return (self.p0, self.p1, self.p2)[k]

    def subspace_basis(self, k: int) -> np.ndarray:
        """Orthonormal basis (columns) of the Peirce k-space."""
        return orthonormal_columns(self.projection(k).entries, tol=0.5)

    def dims(self) -> tuple:
        return tuple(self.subspace_basis(k).shape[1] for k in range(3))


@dataclass(frozen=True)
class OrthogonalSystem:
    """A family of pairwise-orthogonal nonzero elements."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


def peirce(e: Element, tol: float = 1e-9) -> PeirceSystem:
    """Peirce projections as explicit quadratics in A = L(e,e).

    The eigenvalues of L(e,e) are 0, 1/2, 1, so the projections are the
    Lagrange polynomials P2 = A(2A-1), P1 = 4A(1-A), P0 = (1-A)(1-2A).
    This is the one-row case of ``peirce_projections``.
    """
    p0, p1, p2 = peirce_projections(e.system, e.coords[None], tol)
    return PeirceSystem(
        tripotent=e,
        p0=LinearMap(e.system, p0[0]),
        p1=LinearMap(e.system, p1[0]),
        p2=LinearMap(e.system, p2[0]),
    )


def peirce_projections(system: TripleSystem, coords, tol: float = 1e-9) -> tuple:
    """(P0, P1, P2) of ``peirce`` for each row e of the (k, n) stack ``coords``,
    as three (k, n, n) stacks; NotTripotent, as ``peirce``, if any row is not a
    tripotent within max(tol, 1e-9) or its projections violate their invariants
    by more than tol."""
    check_tol(tol)
    cube = product_batch(system.unfolding("triple"), coords, coords, coords)
    if np.any(np.linalg.norm(cube - coords, axis=1) > max(tol, 1e-9)):
        raise NotTripotent("peirce decomposition needs a tripotent")
    a = L_maps(system, coords, coords)
    eye = np.eye(system.dim)
    p2 = a @ (2.0 * a - eye)
    p1 = 4.0 * a @ (eye - a)
    p0 = (eye - a) @ (eye - 2.0 * a)
    worst = float(_invariant_residuals(a, (p0, p1, p2)).max(initial=0.0))
    if worst > tol:
        raise NotTripotent(
            f"Peirce projections violate their invariants (residual {worst:.3e}); "
            "the element is not a tripotent of a valid system"
        )
    return p0, p1, p2


def peirce_invariant_residual(ps: PeirceSystem) -> float:
    """Max violation of completeness, idempotency, disjointness and eigenspaces."""
    a = L_operator(ps.tripotent, ps.tripotent).entries
    mats = (ps.p0.entries, ps.p1.entries, ps.p2.entries)
    return float(_invariant_residuals(a[None], [m[None] for m in mats])[0])


def _invariant_residuals(a, mats) -> np.ndarray:
    """``peirce_invariant_residual`` for each entry of the stacks A = L(e,e) and
    (P0, P1, P2)."""
    eye = np.eye(a.shape[-1])

    def largest(x):
        return np.abs(x).max(axis=(-2, -1), initial=0.0)

    worst = largest(mats[0] + mats[1] + mats[2] - eye)
    for k, m in enumerate(mats):
        worst = np.maximum(worst, largest(m @ m - m))
        worst = np.maximum(worst, largest(a @ m - 0.5 * k * m))
        for other in mats[k + 1 :]:
            worst = np.maximum(worst, largest(m @ other))
    return worst


@timed
def check_peirce_arithmetic(e: Element, tol: float = 1e-9) -> Report:
    """Peirce multiplication rules over Peirce-basis triples.

    {E0,E2,E} = {E2,E0,E} = 0 entirely, and {E_i,E_j,E_k} lands in
    E_{i-j+k} (the zero space when i-j+k is outside 0..2).
    """
    check_tol(tol)
    ps = peirce(e)
    bases = [ps.subspace_basis(k) for k in range(3)]
    projections = [ps.p0.entries, ps.p1.entries, ps.p2.entries]
    system = e.system
    worst = 0.0
    witness = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                # products[u, v, w] = {u-th of E_i, v-th of E_j, w-th of E_k}
                products = in_slots(system.tensor, bases[i], bases[j], bases[k])
                if not products.size:
                    continue
                target = i - j + k
                annihilated = (i, j) in ((0, 2), (2, 0)) or (j, k) in ((2, 0), (0, 2))
                if not annihilated and 0 <= target <= 2:
                    products = products - products @ projections[target].T
                r = float(np.linalg.norm(products, axis=-1).max())
                if r > worst:
                    worst = r
                    if r > tol:
                        witness = {"peirce_indices": [i, j, k]}
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    return Report(
        statement_id=f"peirce_arithmetic[{system.name}]",
        status=status,
        residuals={"max_residual": worst},
        witnesses=witness,
    )


def are_orthogonal(a: Element, b: Element, tol: float = 1e-10) -> bool:
    """L(a,b) = 0, cross-validated against {a,a,b} = 0 and {b,b,a} = 0."""
    check_tol(tol)
    system = _same_system(a, b)
    scale = max(a.norm() * b.norm(), 1e-300)
    l_norm = float(np.linalg.norm(L_operator(a, b).entries, 2))
    r1 = l_norm / scale
    r2 = float(np.linalg.norm(system.product_arrays(a.coords, a.coords, b.coords)))
    r2 /= max(a.norm() ** 2 * b.norm(), 1e-300)
    r3 = float(np.linalg.norm(system.product_arrays(b.coords, b.coords, a.coords)))
    r3 /= max(b.norm() ** 2 * a.norm(), 1e-300)
    verdicts = [r <= tol for r in (r1, r2, r3)]
    if len(set(verdicts)) != 1:
        # the three conditions are equivalent in a valid triple; a genuine
        # disagreement means the tensor is broken
        raise TripleLabError(
            f"orthogonality conditions disagree: residuals {(r1, r2, r3)}"
        )
    return verdicts[0]


@timed
def verify_rank_witness(system: TripleSystem, family, tol: float = 1e-10) -> Report:
    """Certify rank >= card(family) and compare with the classification hint.

    Witnesses only ever certify a lower bound; the exact rank is metadata
    from the factor classification.
    """
    check_tol(tol)
    elements = list(family.elements if isinstance(family, OrthogonalSystem) else family)
    _same_system(*elements, system=system)
    residuals = {}
    ok = True
    witness = {}
    if not elements:
        ok = False
        witness["reason"] = "empty witness family certifies nothing"
    for idx, el in enumerate(elements):
        if el.norm() == 0.0:
            ok = False
            witness["zero_member"] = idx
    worst_pair = 0.0
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            l_norm = float(np.linalg.norm(L_operator(elements[i], elements[j]).entries, 2))
            rel = l_norm / max(elements[i].norm() * elements[j].norm(), 1e-300)
            worst_pair = max(worst_pair, rel)
            if rel > tol:
                ok = False
                witness["non_orthogonal_pair"] = [i, j]
    residuals["max_pairwise_L_norm"] = worst_pair
    residuals["witness_cardinality"] = float(len(elements))
    if system.rank_hint is not None:
        residuals["rank_hint"] = float(system.rank_hint)
        if len(elements) != system.rank_hint:
            ok = False
            witness["cardinality_mismatch"] = [len(elements), system.rank_hint]
    return Report(
        statement_id=f"rank_witness[{system.name}]",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals=residuals,
        witnesses=witness,
    )


# -- odd cube roots -------------------------------------------------------------


def _odd_power_span(a: Element) -> np.ndarray:
    """Orthonormal basis of span{a, {aaa}, {a,{aaa},a}, ...} up to stabilization.

    Each power is normalized before stacking: the powers scale like
    ||a||^(2k+1), and unnormalized the low ones fall under the relative
    rank cutoff.
    """
    system = a.system
    q = Q_operator(a).entries
    current = a.coords / np.linalg.norm(a.coords)
    vectors = [current]
    for _ in range(system.dim):
        current = q @ current
        size = np.linalg.norm(current)
        if size == 0.0:
            break
        current = current / size
        vectors.append(current)
        basis = orthonormal_columns(np.column_stack(vectors))
        if basis.shape[1] < len(vectors):
            break
    return orthonormal_columns(np.column_stack(vectors))


def cube_root(a: Element, tol: float = 1e-8) -> Element:
    """The odd cube root b with {b,b,b} = a, inside the subtriple generated by a.

    The triple functional calculus t -> t^(1/3): if a = sum s_k e_k over
    orthogonal tripotents, then L(a,a) e_k = s_k^2 e_k, so
    b = L(a,a)^(-1/3) a on the support of a.  One eigendecomposition of the
    self-adjoint L(a,a) serves every factor, direct sum and real form; a
    system whose L(a,a) is not self-adjoint fails the residual check.
    """
    check_tol(tol)
    system = a.system
    scale = float(np.linalg.norm(a.coords))
    if scale == 0.0:
        raise InvalidInput("cube_root needs a nonzero element")
    w, v = np.linalg.eigh(L_operator(a, a).entries)
    weights = np.zeros_like(w)
    positive = w > 0
    weights[positive] = w[positive] ** (-1.0 / 3.0)
    coords = v @ (weights * (v.T @ a.coords))
    residual = float(
        np.linalg.norm(system.product_arrays(coords, coords, coords) - a.coords)
    )
    if residual > tol * scale:
        raise NoConvergence(
            f"cube root residual {residual:.3e} exceeds {tol:.1e} * ||a||",
            residual=residual,
        )
    span = _odd_power_span(a)
    drift = span_distance(coords, span)
    if drift > 1e-6 * max(1.0, float(np.linalg.norm(coords))):
        raise TripleLabError(
            f"cube root left the subtriple generated by the input (distance {drift:.3e})"
        )
    return Element(system, coords)


def is_minimal_tripotent(e: Element, tol: float = 1e-8) -> bool:
    """Minimality: the fixed space of Q(e) is the line through e."""
    check_tol(tol)
    if e.norm() == 0.0 or not is_tripotent(e, tol=max(tol, 1e-10)):
        return False
    n = e.system.dim
    fixed = null_space(Q_operator(e).entries - np.eye(n), tol=max(tol, 1e-9))
    if fixed.shape[1] != 1:
        return False
    direction = fixed[:, 0]
    overlap = abs(float(direction @ e.coords)) / e.norm()
    return overlap > 1.0 - 1e-6


def offblock_leakage(t: LinearMap) -> float:
    """Largest entry of the map outside the diagonal blocks of a direct sum:
    the one-map case of ``offblock_leakages``."""
    return float(offblock_leakages(t.system, t.entries[None])[0])


def offblock_leakages(system: TripleSystem, maps) -> np.ndarray:
    """Largest entry outside the diagonal blocks of the direct sum ``system``
    of each map of the (k, n, n) stack ``maps``."""
    if system.blocks is None:
        raise InvalidInput("offblock_leakage needs a direct-sum system")
    mask = np.ones((system.dim, system.dim), dtype=bool)
    for offset, length, _ in system.blocks:
        mask[offset : offset + length, offset : offset + length] = False
    return np.abs(maps[:, mask]).max(axis=1, initial=0.0)


@timed
def check_ideal_invariance(system: TripleSystem, maps, tol: float = 1e-8) -> Report:
    """Block invariance of maps on a direct sum: T(block) stays in the block.
    ``maps`` is a (k, n, n) stack on ``system`` or a sequence of its LinearMaps."""
    check_tol(tol)
    if not isinstance(maps, np.ndarray):
        maps = list(maps)
        _same_system(*maps, system=system)
        maps = np.reshape([t.entries for t in maps], (len(maps), system.dim, system.dim))
    leaks = offblock_leakages(system, maps)
    worst = float(leaks.max(initial=0.0))
    return Report(
        statement_id=f"ideal_invariance[{system.name}]",
        status=STATUS_PASS if worst <= tol else STATUS_FAIL,
        residuals={"max_offblock_entry": worst},
        # the first map attaining the worst leak
        witnesses={"map_index": int(leaks.argmax())} if worst > tol else {},
    )
