"""Derivation spaces of the triple and symmetrized products, and the
predicates separating local triple derivations from triple derivations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, Unsupported
from .factors import complexify, extend_map_complex
from .numerics import expm, null_space, orthonormal_columns, span_distance
from .report import Report, STATUS_FAIL, STATUS_PASS, timed
from .structure import peirce
from .triple_core import (
    Element,
    L_operator,
    LinearMap,
    TripleSystem,
    _require_keys,
    _same_system,
    _wire_dim,
    _wire_floats,
    batch_rows,
    in_slots,
)

KINDS = ("triple", "symmetrized", "inner_span")
DEFAULT_SEED = 0xA11CE
DEFAULT_SAMPLES = 256

@dataclass(frozen=True)
class DerivationSpace:
    """Orthonormal basis (Frobenius inner product) of a derivation space.

    ``_frames`` is the memo of ``_local_residuals``: the SVD frames of the last
    chunk of points checked against this space.  It is not part of the value.
    """

    system: TripleSystem
    kind: str
    basis: tuple
    tol: float
    _frames: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_stack(self) -> np.ndarray:
        n = self.system.dim
        if not self.basis:
            return np.zeros((0, n, n))
        return np.stack([t.entries for t in self.basis])

    def member(self, weights) -> LinearMap:
        """The combination sum_r weights[r] * basis[r]."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.dim,):
            raise InvalidInput(f"need {self.dim} weights, got {weights.shape}")
        n = self.system.dim
        entries = np.zeros((n, n))
        for w, t in zip(weights, self.basis):
            entries += w * t.entries
        return LinearMap(self.system, entries)


def _leibniz_gram(p: np.ndarray) -> np.ndarray:
    """Gram matrix G = L^T L of the Leibniz operator of ``leibniz_residual``.

    L[(ijkl),(ab)] = d_la p[ijkb] - d_bi p[ajkl] - d_bj p[iakl] - d_bk p[ijal]
    (d the Kronecker delta) is the sum of four terms, so G is the sum of their
    16 pairwise products, each a contraction of p with itself:

      * d_ac sum p[ijkb] p[ijkd]                      (out-slot squared)
      * d_bd sum (p[ajkl] p[cjkl] + p[iakl] p[ickl] + p[ijal] p[ijcl])
      * S + S^T with S[ab,cd] = sum p[adkl] p[bckl] + p[ajdl] p[bjcl]
        + p[iadl] p[ibcl] - p[djkb] p[cjka] - p[idkb] p[icka] - p[ijdb] p[ijca].

    Each group is a sum of X X^T over (n^2, n^2) unfoldings of p, O(n^6).
    """
    n = p.shape[0]
    n2 = n * n

    def unfolded_gram(rows: int, orders) -> np.ndarray:
        out = np.zeros((rows, rows))
        for order in orders:
            x = p.transpose(order).reshape(rows, -1)
            out += x @ x.T
        return out

    # the "+" terms come out indexed [(ad),(bc)] and the "-" terms [(db),(ca)]
    plus = unfolded_gram(n2, [(0, 1, 2, 3), (0, 2, 1, 3), (1, 2, 0, 3)])
    s = plus.reshape(n, n, n, n).transpose(0, 2, 3, 1).reshape(n2, n2)
    del plus
    minus = unfolded_gram(n2, [(0, 3, 1, 2), (1, 3, 0, 2), (2, 3, 0, 1)])
    s -= minus.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n2, n2)
    del minus
    out_slot = unfolded_gram(n, [(3, 0, 1, 2)])
    in_slots = unfolded_gram(n, [(0, 1, 2, 3), (1, 0, 2, 3), (2, 0, 1, 3)])
    gram = np.kron(np.eye(n), out_slot)
    gram += np.kron(in_slots, np.eye(n))
    gram += s
    gram += s.T
    return gram


def derivation_space(
    system: TripleSystem,
    kind: str,
    tol: float = 1e-9,
) -> DerivationSpace:
    """Orthonormal basis of a derivation space, deterministically computed.

    ``kind``:
      * ``triple``       -- Leibniz rule for the triple product;
      * ``symmetrized``  -- Leibniz rule for the fully symmetric product,
        obtained by polarizing the cubic identity;
      * ``inner_span``   -- span of the maps L(e_i, e_j) - L(e_j, e_i).
    """
    if kind not in KINDS:
        raise InvalidInput(f"unknown derivation kind {kind!r}")
    n = system.dim
    if n == 0:
        return DerivationSpace(system, kind, (), tol)
    if kind == "inner_span":
        # column (i, j), i < j, is L(e_i, e_j) - L(e_j, e_i), whose entry [l, k] is
        # c[i, j, k, l] - c[j, i, k, l]
        c = system.tensor
        rows, cols = np.triu_indices(n, 1)
        vectors = (c[rows, cols] - c[cols, rows]).transpose(0, 2, 1).reshape(rows.size, n * n)
        basis_matrix = orthonormal_columns(vectors.T, tol=tol)
    else:
        # G is symmetric positive semi-definite, so its singular values are
        # its eigenvalues, the squares of those of L: for tol <= 1e-6 the
        # cutoff below is 1e-12 * lambda_max.  Measured over the suite factors and sums, the
        # Hilbert and benchmark ladders and n = 28..64 (II_R(8), I_C(4,4),
        # III_R(8), I_H(3,3), I_H(4,3), I_H(4,4)), kernel singular values are
        # at most 2.9e-15 * lambda_max (I_H(4,4), symmetrized) and kept ones
        # at least 0.133 * lambda_max (I_R(2,2)+SPIN_R(3,1), symmetrized):
        # 345x headroom below the cutoff, 1e11x above.  If the cutoff were
        # too loose, _validate_space would raise.
        gram = _leibniz_gram(system.product_tensor(kind))
        basis_matrix = null_space(gram, tol=max(tol, 1e-6) ** 2)
    # the basis maps are views of basis_matrix; frozen, they cannot outdate the frames memo
    basis_matrix.flags.writeable = False
    maps = tuple(
        LinearMap(system, basis_matrix[:, r].reshape(n, n))
        for r in range(basis_matrix.shape[1])
    )
    space = DerivationSpace(system, kind, maps, tol)
    _validate_space(space)
    return space


def _validate_space(space: DerivationSpace) -> None:
    if space.dim == 0:
        return
    stack = space.basis_stack().reshape(space.dim, -1)
    gram = stack @ stack.T
    if float(np.max(np.abs(gram - np.eye(space.dim)))) > 1e-10:
        raise InvalidInput("derivation basis lost orthonormality")
    leibniz_kind = "triple" if space.kind == "inner_span" else space.kind
    worst = max(
        leibniz_residual(t, leibniz_kind)["max_residual"] for t in space.basis
    )
    if worst > 10 * max(space.tol, 1e-9):
        raise InvalidInput(
            f"derivation basis violates its Leibniz identity (residual {worst:.3e})"
        )


def inner_derivation(a: Element, b: Element) -> LinearMap:
    """The inner triple derivation L(a,b) - L(b,a)."""
    _same_system(a, b)
    return L_operator(a, b) - L_operator(b, a)


def leibniz_residual(t: LinearMap, kind: str) -> dict:
    """Max Leibniz defect of ``t`` over all basis triples, with its witness."""
    if kind not in ("triple", "symmetrized"):
        raise InvalidInput(f"no Leibniz identity for kind {kind!r}")
    p = t.system.product_tensor(kind)
    m = t.entries
    res = p @ m.T
    res -= in_slots(p, m)
    res -= in_slots(p, None, m)
    res -= in_slots(p, None, None, m)
    if res.size == 0:
        return {"max_residual": 0.0, "witness_triple": None}
    norms = np.sqrt(np.einsum("...l,...l->...", res, res))
    worst = np.unravel_index(int(norms.argmax()), norms.shape)
    i, j, k = (int(v) for v in worst)
    applied = m @ p[i, j, k, :]
    defect = res[i, j, k, :]
    return {
        "max_residual": float(norms.max()),
        "witness_triple": (i, j, k),
        "witness_lhs": applied,
        "witness_leibniz_sum": applied - defect,
    }


@timed
def is_derivation(t: LinearMap, kind: str = "triple", tol: float = 1e-10) -> Report:
    """Pass iff the Leibniz rule of the given product holds within tol."""
    data = leibniz_residual(t, kind)
    worst = data["max_residual"]
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    witnesses = {}
    if status == STATUS_FAIL:
        witnesses = {
            "basis_triple": list(data["witness_triple"]),
            "map_applied_to_product": data["witness_lhs"],
            "leibniz_sum": data["witness_leibniz_sum"],
        }
    return Report(
        statement_id=f"leibniz_{kind}[{t.system.name}]",
        status=status,
        residuals={"max_residual": worst},
        witnesses=witnesses,
    )


def default_point_set(
    system: TripleSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list:
    """Canonical basis plus seeded random unit elements."""
    rng = np.random.default_rng(seed)
    points = [system.basis_element(i) for i in range(system.dim)]
    for _ in range(int(samples)):
        coords = rng.standard_normal(system.dim)
        norm = np.linalg.norm(coords)
        if norm > 0:
            points.append(Element(system, coords / norm))
    return points


@timed
def local_derivation_residual(
    t: LinearMap,
    points,
    space: DerivationSpace | None = None,
    tol: float = 1e-8,
    seed: int | None = None,
) -> Report:
    """Worst pointwise distance of T(a) from {D(a) : D a triple derivation}.

    A pass on the sampled set is evidence; a fail is a certified refutation,
    because D(a) ranges over the full derivation space at each point.
    """
    points = list(points)
    if not points:
        raise InvalidInput("local_derivation_residual needs at least one point")
    if space is None:
        space = derivation_space(t.system, "triple")
    elif space.kind != "triple":
        raise InvalidInput("local derivation checks compare against kind='triple'")
    for el in points:
        if el.system is not t.system and el.system != t.system:
            raise InvalidInput("sample point from a different system")
    n = t.system.dim
    coords = np.array([el.coords for el in points]).reshape(len(points), n)
    rows = batch_rows(n * space.dim)
    residuals = np.concatenate(
        [
            _local_residuals(space, t.entries, coords[first : first + rows])
            for first in range(0, len(points), rows)
        ]
    )
    # argmax keeps the first point that attains the maximum
    index = int(residuals.argmax())
    worst, worst_point = float(residuals[index]), points[index]
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    return Report(
        statement_id=f"local_derivation[{t.system.name}]",
        status=status,
        residuals={"max_residual": worst},
        witnesses={"worst_point": worst_point.coords, "points": len(points)},
        seed=seed,
    )


def _local_residuals(space: DerivationSpace, t: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distance of T(a) from {D(a) : D in space} for each row a of coords.

    The evaluation matrices E_a[:, r] = D_r(a) get one stacked thin SVD, and
    the residual is ||T(a) - U_k U_k^T T(a)||.  The rank k of each E_a uses the
    cutoff of ``lstsq(rcond=None)``: eps * max(n, r) * s_max.

    The frames (U, kept) depend on the space and the points, not on T, so the
    space keeps those of the last chunk, keyed by the exact bytes of coords:
    later maps checked at the same points skip the SVD.  The memo holds one
    chunk, at most ``BATCH_ENTRIES`` entries of U.
    """
    targets = coords @ t.T
    if space.dim == 0:
        return np.linalg.norm(targets, axis=1)
    key = coords.tobytes()
    frames = space._frames.get(key)
    if frames is None:
        space._frames.clear()  # before the SVD, so two chunks are never held at once
        evaluations = np.einsum("rnm,bm->bnr", space.basis_stack(), coords, optimize=True)
        u, s, _ = np.linalg.svd(evaluations, full_matrices=False)
        n, r = evaluations.shape[1:]
        kept = s > np.finfo(float).eps * max(n, r) * s[:, :1]
        frames = space._frames[key] = (u, kept)
    u, kept = frames
    coefficients = np.einsum("bnk,bn->bk", u, targets) * kept
    return np.linalg.norm(targets - np.einsum("bnk,bk->bn", u, coefficients), axis=1)


def rank_one_local_witness(t: LinearMap, x: Element) -> LinearMap:
    """Inner derivation matching T at x on a rank-one factor.

    With u = x/||x||, the witness is (1 / (2||x||)) * d(T(x) + 3 P1(u)T(x), u)
    where d(a, b) = L(a,b) - L(b,a).  For T in the symmetrized derivation
    space this reproduces T(x) at x to rounding.
    """
    system = _same_system(x)
    if t.system is not system and t.system != system:
        raise InvalidInput("map and point belong to different systems")
    if system.rank_hint != 1:
        raise Unsupported("the witness formula is limited to rank-one factors")
    norm = x.norm()
    if norm == 0.0:
        raise InvalidInput("x must be nonzero")
    u = Element(system, x.coords / norm)
    ps = peirce(u)
    tx = Element(system, t.entries @ x.coords)
    w = Element(system, tx.coords + 3.0 * (ps.p1.entries @ tx.coords))
    delta = inner_derivation(w, u)
    return LinearMap(system, delta.entries / (2.0 * norm))


@timed
def check_complex_linearity(space: DerivationSpace, tol: float = 1e-8) -> Report:
    """Commutation of every basis member with the complex structure J."""
    j = space.system.complex_structure
    if j is None:
        raise Unsupported(f"{space.system.name} carries no complex structure")
    worst = 0.0
    worst_index = None
    per_member = []
    for idx, t in enumerate(space.basis):
        comm = float(np.linalg.norm(t.entries @ j - j @ t.entries))
        per_member.append(comm)
        if comm > worst:
            worst = comm
            worst_index = idx
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    return Report(
        statement_id=f"complex_linearity[{space.system.name}:{space.kind}]",
        status=status,
        residuals={"max_commutator": worst},
        witnesses={
            "worst_member": worst_index,
            "commutators": per_member,
        },
    )


@timed
def exp_flow_check(
    t: LinearMap,
    kind: str,
    t_grid,
    tol: float = 1e-7,
) -> Report:
    """Automorphism defect of exp(tT) for the product of the given kind.

    For each t the residual is the worst basis-triple defect
    ||g{x,y,z} - {gx,gy,gz}||, compared against tol * (1 + ||g||^3).
    """
    p = t.system.product_tensor(kind)
    residuals = {}
    status = STATUS_PASS
    witness = {}
    for value in t_grid:
        g = expm(float(value) * t.entries)
        diff = p @ g.T - in_slots(p, g, g, g)
        if diff.size == 0:
            worst = 0.0
        else:
            worst = float(np.sqrt(np.einsum("...l,...l->...", diff, diff).max()))
        bound = tol * (1.0 + np.linalg.norm(g, 2) ** 3)
        residuals[f"t={value:g}"] = worst
        if worst > bound:
            status = STATUS_FAIL
            witness[f"t={value:g}"] = {"residual": worst, "bound": bound}
    return Report(
        statement_id=f"exp_flow_{kind}[{t.system.name}]",
        status=status,
        residuals=residuals,
        witnesses=witness,
    )


@timed
def check_IAP_finite(system: TripleSystem, tol: float = 1e-8) -> Report:
    """Equality of the inner-derivation span and the triple-derivation space.

    In finite dimension the closure in the inner approximation property
    collapses to the plain span, so mutual containment is the expected
    rendering.  Checked through projections of each orthonormal basis onto
    the other.
    """
    der = derivation_space(system, "triple")
    inner = derivation_space(system, "inner_span")
    n2 = system.dim**2
    der_cols, inner_cols = (s.basis_stack().reshape(s.dim, n2).T for s in (der, inner))
    worst_inner = max((span_distance(t.entries, der_cols) for t in inner.basis), default=0.0)
    worst_der = max((span_distance(t.entries, inner_cols) for t in der.basis), default=0.0)
    ok = der.dim == inner.dim and worst_inner <= tol and worst_der <= tol
    return Report(
        statement_id=f"iap_span_equality[{system.name}]",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals={
            "triple_dim": float(der.dim),
            "inner_dim": float(inner.dim),
            "inner_outside_triple": worst_inner,
            "triple_outside_inner": worst_der,
        },
        witnesses={} if ok else {"dims": [der.dim, inner.dim]},
    )


@timed
def two_local_lift(
    t: LinearMap,
    samples: int = 64,
    seed: int = DEFAULT_SEED,
) -> Report:
    """Lift T to T~(x + iy) = T(x) + iT(y) on the complexification and test it.

    The report records whether T~ is a local triple derivation and whether it
    is a triple derivation; the status is the lifted-derivation verdict.  For
    a map that agrees with a single derivation on every pair of points, the
    lift is expected to pass.
    """
    system = t.system
    if system.complex_structure is not None:
        raise InvalidInput("two_local_lift expects a map on a real form")
    complexified = complexify(system)
    lifted = extend_map_complex(t, complexified)
    space = derivation_space(complexified, "triple")
    local_report = local_derivation_residual(
        lifted,
        default_point_set(complexified, samples=samples, seed=seed),
        space=space,
        seed=seed,
    )
    derivation_report = is_derivation(lifted, "triple")
    return Report(
        statement_id=f"two_local_lift[{system.name}]",
        status=derivation_report.status,
        residuals={
            "lift_leibniz_residual": derivation_report.residuals["max_residual"],
            "lift_local_residual": local_report.residuals["max_residual"],
        },
        seed=seed,
        items=(local_report, derivation_report),
    )


# -- serialization of derivation spaces ----------------------------------------


def space_to_json(space: DerivationSpace) -> dict:
    return {
        "kind": space.kind,
        "dim": space.system.dim,
        "tol": space.tol,
        "basis": [t.entries.reshape(-1).tolist() for t in space.basis],
    }


def space_from_json(payload: dict, system: TripleSystem) -> DerivationSpace:
    _require_keys(payload, ("kind", "dim", "tol", "basis"), "derivation space")
    if payload["kind"] not in KINDS:
        raise InvalidInput(f"unknown derivation kind {payload['kind']!r}")
    n = _wire_dim(payload)
    if n != system.dim:
        raise InvalidInput("dimension mismatch between space and system")
    if not isinstance(payload["basis"], list):
        raise InvalidInput("basis must be a list of flat maps")
    count = len(payload["basis"])
    flat = _wire_floats(payload, "basis", count * n * n, f"{count} maps x dim^2")
    try:
        tol = float(payload["tol"])
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"tol must be a number, got {payload['tol']!r}") from exc
    flat.flags.writeable = False  # see derivation_space
    maps = tuple(LinearMap(system, m) for m in flat.reshape(count, n, n))
    return DerivationSpace(system, payload["kind"], maps, tol)
