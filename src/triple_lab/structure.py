"""Tripotents, Peirce decomposition and arithmetic, orthogonality, cube roots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import factors
from .errors import InvalidInput, NoConvergence, NotTripotent, TripleLabError
from .numerics import null_space, orthonormal_columns, span_distance
from .report import Report, STATUS_FAIL, STATUS_PASS, timed
from .triple_core import (
    Element,
    L_operator,
    LinearMap,
    Q_operator,
    TripleSystem,
    _same_system,
    in_slots,
)


def is_tripotent(e: Element, tol: float = 1e-10) -> bool:
    """Whether {e,e,e} = e within tol (the zero element counts)."""
    if tol <= 0:
        raise InvalidInput("tol must be positive")
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
    """
    if not is_tripotent(e, tol=max(tol, 1e-9)):
        raise NotTripotent("peirce decomposition needs a tripotent")
    n = e.system.dim
    a = L_operator(e, e).entries
    eye = np.eye(n)
    p2 = a @ (2.0 * a - eye)
    p1 = 4.0 * a @ (eye - a)
    p0 = (eye - a) @ (eye - 2.0 * a)
    system = PeirceSystem(
        tripotent=e,
        p0=LinearMap(e.system, p0),
        p1=LinearMap(e.system, p1),
        p2=LinearMap(e.system, p2),
    )
    worst = peirce_invariant_residual(system)
    if worst > tol:
        raise NotTripotent(
            f"Peirce projections violate their invariants (residual {worst:.3e}); "
            "the element is not a tripotent of a valid system"
        )
    return system


def peirce_invariant_residual(ps: PeirceSystem) -> float:
    """Max violation of completeness, idempotency, disjointness and eigenspaces."""
    n = ps.tripotent.system.dim
    if n == 0:
        return 0.0
    eye = np.eye(n)
    a = L_operator(ps.tripotent, ps.tripotent).entries
    mats = [ps.p0.entries, ps.p1.entries, ps.p2.entries]
    worst = float(np.max(np.abs(mats[0] + mats[1] + mats[2] - eye)))
    for k, m in enumerate(mats):
        worst = max(worst, float(np.max(np.abs(m @ m - m))))
        worst = max(worst, float(np.max(np.abs(a @ m - 0.5 * k * m))))
        for other in mats[k + 1 :]:
            worst = max(worst, float(np.max(np.abs(m @ other))))
    return worst


@timed
def check_peirce_arithmetic(e: Element, tol: float = 1e-9) -> Report:
    """Peirce multiplication rules over Peirce-basis triples.

    {E0,E2,E} = {E2,E0,E} = 0 entirely, and {E_i,E_j,E_k} lands in
    E_{i-j+k} (the zero space when i-j+k is outside 0..2).
    """
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
    if isinstance(family, OrthogonalSystem):
        elements = list(family.elements)
    else:
        elements = list(family)
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
    """Orthonormal basis of span{a, {aaa}, {a,{aaa},a}, ...} up to stabilization."""
    system = a.system
    q = Q_operator(a).entries
    vectors = [a.coords]
    current = a.coords
    for _ in range(system.dim):
        current = q @ current
        vectors.append(current)
        basis = orthonormal_columns(np.column_stack(vectors))
        if basis.shape[1] < len(vectors):
            break
    return orthonormal_columns(np.column_stack(vectors))


def _newton_cube_root(a: Element, tol: float, max_iters: int) -> np.ndarray:
    system = a.system
    target = a.coords
    scale = float(np.linalg.norm(target))
    b = target / scale ** (2.0 / 3.0)
    residual = None
    for _ in range(max_iters):
        f = system.product_arrays(b, b, b) - target
        residual = float(np.linalg.norm(f))
        if residual <= tol * scale:
            return b
        point = Element(system, b)
        jac = 2.0 * L_operator(point, point).entries
        jac += Q_operator(point).entries
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, f, rcond=None)[0]
        damping = 1.0
        base = residual
        for _ in range(40):
            candidate = b - damping * step
            new_res = float(
                np.linalg.norm(system.product_arrays(candidate, candidate, candidate) - target)
            )
            if new_res < base:
                b = candidate
                break
            damping *= 0.5
        else:
            raise NoConvergence(
                f"cube-root Newton stalled at residual {residual:.3e}", residual=residual
            )
    f = system.product_arrays(b, b, b) - target
    residual = float(np.linalg.norm(f))
    if residual <= tol * scale:
        return b
    raise NoConvergence(
        f"cube-root Newton did not converge in {max_iters} iterations "
        f"(residual {residual:.3e})",
        residual=residual,
    )


def cube_root(a: Element, tol: float = 1e-8, max_iters: int = 200) -> Element:
    """The odd cube root b with {b,b,b} = a, inside the subtriple generated by a.

    Matrix-kind factors (and direct sums of them) use the closed-form
    U s^(1/3) V* root through their representation; everything else runs a
    damped Newton iteration on F(b) = {b,b,b} - a with Jacobian 2L(b,b) + Q(b).
    """
    system = a.system
    scale = float(np.linalg.norm(a.coords))
    if scale == 0.0:
        raise InvalidInput("cube_root needs a nonzero element")
    label = system.factor_kind
    coords = None
    if factors.is_matrix_kind(label):
        coords = factors.odd_cube_root_coords(label, a.coords)
    elif system.blocks is not None and all(
        factors.is_matrix_kind(part) for _, _, part in system.blocks
    ):
        coords = np.zeros(system.dim)
        for offset, length, part in system.blocks:
            piece = a.coords[offset : offset + length]
            if np.any(piece):
                coords[offset : offset + length] = factors.odd_cube_root_coords(part, piece)
    if coords is None:
        coords = _newton_cube_root(a, tol, max_iters)
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
    """Largest entry of the map outside the diagonal blocks of a direct sum."""
    blocks = t.system.blocks
    if blocks is None:
        raise InvalidInput("offblock_leakage needs a direct-sum system")
    mask = np.ones((t.system.dim, t.system.dim), dtype=bool)
    for offset, length, _ in blocks:
        mask[offset : offset + length, offset : offset + length] = False
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(t.entries[mask])))


@timed
def check_ideal_invariance(system: TripleSystem, maps, tol: float = 1e-8) -> Report:
    """Block invariance of maps on a direct sum: T(block) stays in the block."""
    worst = 0.0
    witness = {}
    for idx, t in enumerate(maps):
        leak = offblock_leakage(t)
        if leak > worst:
            worst = leak
            if leak > tol:
                witness = {"map_index": idx}
    return Report(
        statement_id=f"ideal_invariance[{system.name}]",
        status=STATUS_PASS if worst <= tol else STATUS_FAIL,
        residuals={"max_offblock_entry": worst},
        witnesses=witness,
    )
