"""Derivation spaces of the triple and symmetrized products, and the
predicates separating local triple derivations from triple derivations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoSpectralGap, Unsupported
from .factors import complexify, extend_map_complex
from .numerics import check_tol, expm, row_norms
from .report import Report, STATUS_FAIL, STATUS_PASS, timed
from .structure import peirce_projections
from .triple_core import (
    Element,
    L_maps,
    LinearMap,
    TripleSystem,
    _require_keys,
    _run_starts,
    _same_system,
    _wire_dim,
    _wire_floats,
    batch_rows,
    in_slots,
)

KINDS = ("triple", "symmetrized", "inner_span")
DEFAULT_SEED = 0xA11CE
DEFAULT_SAMPLES = 256
# Dense entries of the Leibniz blocks that ``_leibniz_blocks`` builds at once
# (a block larger than this comes alone): 64 MB
BLOCK_ENTRIES = 2**23


@dataclass(frozen=True, eq=False)
class DerivationSpace:
    """Orthonormal basis (Frobenius inner product) of a derivation space.

    The basis is one read-only (dim, n, n) float64 array, ``entries``, given
    as such a stack (which the space freezes) or as a sequence of maps, and
    ``basis`` is the tuple of its ``LinearMap`` views.  Two spaces are equal
    when their systems, kinds, tolerances and basis entries are.

    ``derivation_space`` also records the health of its rank decision: the
    ``rank`` above the relative ``cutoff``, the smallest value kept above it
    (``min_kept``, None if none) and the largest value at or below it
    (``max_kernel``), both over the largest value.  The values are the block
    Gram eigenvalues of the Leibniz operator, or for ``inner_span`` the
    singular values of the spanning vectors.  None of these is part of the
    value or of the JSON form; a space read from JSON has none of them.

    ``_frames`` is the memo of ``_local_residuals``: the SVD frames of the last
    chunk of points checked against this space.  It is not part of the value.
    """

    system: TripleSystem
    kind: str
    basis: tuple
    tol: float
    rank: int | None = None
    cutoff: float | None = None
    min_kept: float | None = None
    max_kernel: float | None = None
    entries: np.ndarray = field(init=False, repr=False)
    _frames: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.system.dim
        basis = self.basis
        if not isinstance(basis, np.ndarray):
            _same_system(*basis, system=self.system)
            basis = [t.entries for t in basis]
        entries = np.asarray(basis, dtype=float)
        # frozen, the basis cannot outdate the frames memo
        entries.flags.writeable = False
        entries = entries.reshape(len(basis), n, n)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "basis", tuple(LinearMap(self.system, m) for m in entries))

    def __eq__(self, other):
        if not isinstance(other, DerivationSpace):
            return NotImplemented
        return (
            (self.kind, self.tol) == (other.kind, other.tol)
            and (self.system is other.system or self.system == other.system)
            and np.array_equal(self.entries, other.entries)
        )

    @property
    def dim(self) -> int:
        return len(self.entries)

    def members(self, weights) -> np.ndarray:
        """The (k, n, n) stack of combinations sum_r weights[b, r] * basis[r],
        one per row b of the (k, dim) ``weights``."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != self.dim:
            raise InvalidInput(f"need rows of {self.dim} weights, got {weights.shape}")
        return np.einsum("br,rnm->bnm", weights, self.entries)

    def member(self, weights) -> LinearMap:
        """The combination sum_r weights[r] * basis[r]: the one-row case of ``members``."""
        return LinearMap(self.system, self.members([weights])[0])


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

    The space is computed one block of ``sign_grading`` at a time: a map
    entry of character chi only meets rows of the Leibniz operator of
    character chi, so its Gram matrix is block diagonal.  The basis comes
    block by block in the order of ``system.unfolding``.
    """
    if kind not in KINDS:
        raise InvalidInput(f"unknown derivation kind {kind!r}")
    check_tol(tol)
    n = system.dim
    if n == 0:
        return DerivationSpace(system, kind, (), tol)
    u = system.unfolding("triple" if kind == "inner_span" else kind)
    if kind == "inner_span":
        # vector (i, j), i < j, is L(e_i, e_j) - L(e_j, e_i), whose entry [l, k]
        # is c[i, j, k, l] - c[j, i, k, l]; it lies in the block of pair (i, j)
        c = system.tensor
        i, j = np.triu_indices(n, 1)
        vectors = (c[i, j] - c[j, i]).transpose(0, 2, 1).reshape(i.size, n * n)
        owners = u.block[i * n + j]
        cutoff = tol
        checked_up_to = np.inf
    else:
        # the eigenvalues of the block Grams M^T M are the squares of the
        # Leibniz operator's singular values: for tol <= 1e-6 the kernel is
        # the eigenvalues at most 1e-12 * lambda_max, lambda_max taken over
        # all blocks.  Measured over the suite factors and sums, the Hilbert
        # and benchmark ladders and n = 28..64 (II_R(8), I_C(4,4), III_R(8),
        # I_H(3,3), I_H(4,3), I_H(4,4)), kernel eigenvalues are at most
        # 3.2e-15 * lambda_max (I_H(4,4), symmetrized) and kept ones at least
        # 0.133 * lambda_max (I_R(2,2)+SPIN_R(3,1), symmetrized): 314x
        # headroom below the cutoff, 1e11x above.  _check_spectrum raises
        # before either margin falls under 10x.
        cutoff = max(tol, 1e-6) ** 2
        # each of the four terms of the operator is an unfolding of p, so
        # lambda_max <= (4 ||p||_F)^2: only eigenvalues up to cutoff times
        # that bound can be in the kernel, and only their vectors are checked
        checked_up_to = cutoff * 16.0 * float(u.values @ u.values)
    spectra = []  # per block: (columns, values, vectors, Leibniz residual of each vector)
    for b, block, rows, m in _leibniz_blocks(u):
        if kind == "inner_span":
            spanning = vectors[owners == b][:, block].T
            if not spanning.shape[1]:
                continue
            vecs, values, _ = np.linalg.svd(spanning, full_matrices=False)
        else:
            values, vecs = np.linalg.eigh(m.T @ m)
            values = np.abs(values)  # the Gram is PSD: a negative eigenvalue is rounding
        checked = values <= checked_up_to
        norms = np.full(values.size, np.inf)
        if checked.any():
            norms[checked] = _grouped_norms(m @ vecs[:, checked], rows // n)
        spectra.append((block, values, vecs, norms))
    top = max((float(values.max()) for _, values, _, _ in spectra), default=0.0)
    kept = [values > cutoff * top for _, values, _, _ in spectra]
    in_basis = kept if kind == "inner_span" else [~k for k in kept]
    health = _check_spectrum(system, kind, cutoff, top, spectra, kept)
    basis_matrix = np.zeros((sum(int(b.sum()) for b in in_basis), n * n))
    worst, row = 0.0, 0
    for (block, _, vecs, norms), chosen in zip(spectra, in_basis):
        picked = vecs[:, chosen]
        if picked.size and np.max(np.abs(picked.T @ picked - np.eye(picked.shape[1]))) > 1e-10:
            raise InvalidInput("derivation basis lost orthonormality")
        basis_matrix[row : row + picked.shape[1], block] = picked.T
        worst = max(worst, float(norms[chosen].max(initial=0.0)))
        row += picked.shape[1]
    if worst > 10 * max(tol, 1e-9):
        raise InvalidInput(
            f"derivation basis violates its Leibniz identity (residual {worst:.3e})"
        )
    return DerivationSpace(system, kind, basis_matrix, tol, **health)


def _check_spectrum(system, kind, cutoff, top, spectra, kept) -> dict:
    """The rank, cutoff and margins of a derivation space's rank decision, in
    units of the largest value ``top``; NoSpectralGap when a margin is within
    10x of the cutoff."""
    above = [values[k] for (_, values, _, _), k in zip(spectra, kept)]
    below = [values[~k] for (_, values, _, _), k in zip(spectra, kept)]
    scale = top if top > 0 else 1.0
    min_kept = min((float(v.min()) / scale for v in above if v.size), default=None)
    max_kernel = max((float(v.max()) / scale for v in below if v.size), default=0.0)
    where = f"{kind} derivation space of {system.name}"
    if max_kernel > 0.1 * cutoff:
        raise NoSpectralGap(
            f"{where}: largest kernel value {max_kernel:.2e} x max is above 0.1 x cutoff {cutoff:.1e}"
        )
    if min_kept is not None and min_kept < 10 * cutoff:
        raise NoSpectralGap(
            f"{where}: smallest kept value {min_kept:.2e} x max is below 10 x cutoff {cutoff:.1e}"
        )
    rank = sum(int(k.sum()) for k in kept)
    return {"rank": rank, "cutoff": cutoff, "min_kept": min_kept, "max_kernel": max_kernel}


def _leibniz_blocks(u):
    """Yield (block, columns, rows, M) for each block of the Leibniz operator
    of ``leibniz_residual``, generated from the nonzeros of the structure
    tensor p in the block order of its graded unfolding ``u``.

    Row (i, j, k, l) and column (a, b), flat a * n + b, of the operator hold
      d_la p[ijkb] - d_bi p[ajkl] - d_bj p[iakl] - d_bk p[ijal]
    (d the Kronecker delta).  So a nonzero p[ijkl] gives, for each slot s
    holding x and each index y, one term in the row that has y in slot s: in
    column (y, x) with sign + for the out slot s = 3, in column (x, y) with
    sign - for an input slot.  Either column is in the block u.block[x n + y].
    M is dense over the block's touched rows, whose keys ((i n + j) n + k) n + l
    ``rows`` lists in ascending order.  The blocks are generated in runs
    whose dense size, bounded by terms x columns, is about ``BLOCK_ENTRIES``.
    """
    n, nonzero, values = u.dim, u.nonzero, u.values
    places = n ** np.arange(3, -1, -1)  # row key ((i n + j) n + k) n + l
    keys = places @ nonzero
    block, first, width = u.block, u.starts[:-1], np.diff(u.starts)
    position = u.inverse - first[block]  # of map entry (a, b) within its block
    order = u.left * n + u.right
    # the terms (slot, nonzero, y) in flat order, grouped by block: int16 holds
    # the n^2 <= 4096 blocks and sorts by radix.  Index x has one term per
    # slot it fills and per y.
    term_block = block.astype(np.int16)[(nonzero[:, :, None] * n + np.arange(n)).reshape(-1)]
    terms = np.argsort(term_block, kind="stable")
    del term_block
    filled = sum(np.bincount(x, minlength=n) for x in nonzero)
    term_count = np.bincount(block, weights=filled.repeat(n), minlength=width.size)
    term_first = np.concatenate(([0], np.cumsum(term_count.astype(np.intp))))
    bound = term_count.astype(np.intp) * width  # terms x columns bounds the rows x columns
    run = (np.cumsum(bound) - bound) // BLOCK_ENTRIES
    edges = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), width.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        chosen = terms[term_first[lo] : term_first[hi]]
        slot, term, y = np.unravel_index(chosen, (4, values.size, n))
        x = nonzero[slot, term]
        out = slot == 3
        owner = block[x * n + y]
        # rows keyed by (block, row key): sorted, each block's rows are one run
        keyed = owner * n**4 + keys[term] + (y - x) * places[slot]
        sort = np.argsort(keyed, kind="stable")
        new_row = _run_starts(keyed[sort])
        rows = keyed[sort][new_row]
        row = np.empty(sort.size, dtype=np.intp)
        row[sort] = np.cumsum(new_row) - 1
        count = np.bincount(rows // n**4 - lo, minlength=hi - lo)
        row_first = np.cumsum(count) - count
        size = count * width[lo:hi]
        offset = np.cumsum(size) - size
        local = owner - lo
        dense = np.bincount(
            offset[local] + (row - row_first[local]) * width[owner]
            + position[np.where(out, y * n + x, x * n + y)],
            weights=np.where(out, values[term], -values[term]),
            minlength=int(size.sum()),
        )
        for i, b in enumerate(range(lo, hi)):
            m = dense[offset[i] : offset[i] + size[i]].reshape(count[i], width[b])
            row_keys = rows[row_first[i] : row_first[i] + count[i]] - b * n**4
            yield b, order[first[b] : first[b] + width[b]], row_keys, m


def _grouped_norms(res: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per column of ``res``, the largest norm over the runs of rows with equal ``group``."""
    if not res.shape[0]:
        return np.zeros(res.shape[1])
    starts = np.flatnonzero(_run_starts(group))
    return np.sqrt(np.add.reduceat(res * res, starts, axis=0).max(axis=0))


def inner_derivation(a: Element, b: Element) -> LinearMap:
    """The inner triple derivation L(a,b) - L(b,a)."""
    system = _same_system(a, b)
    return LinearMap(system, inner_derivation_maps(system, a.coords, b.coords))


def inner_derivation_maps(system: TripleSystem, a, b) -> np.ndarray:
    """Entries of L(a,b) - L(b,a) for coordinates ``a`` and ``b``, or their (k, n, n)
    stack for (k, n) stacks; ``inner_derivation`` is the one-pair case."""
    return L_maps(system, a, b) - L_maps(system, b, a)


def leibniz_residual(t: LinearMap, kind: str) -> dict:
    """Max Leibniz defect of ``t`` over all basis triples, with its witness:
    the one-map case of ``leibniz_residuals``."""
    worst, triples, defects = leibniz_residuals(t.system, t.entries[None], kind)
    if not t.system.dim:
        return {"max_residual": 0.0, "witness_triple": None}
    i, j, k = triples[0].tolist()
    applied = t.entries @ t.system.product_tensor(kind)[i, j, k]
    return {
        "max_residual": float(worst[0]),
        "witness_triple": (i, j, k),
        "witness_lhs": applied,
        "witness_leibniz_sum": applied - defects[0],
    }


def leibniz_residuals(system: TripleSystem, maps, kind: str) -> tuple:
    """For each map T of the (k, n, n) stack ``maps``, the largest norm of the
    Leibniz defect T{x,y,z} - {Tx,y,z} - {x,Ty,z} - {x,y,Tz} over the basis
    triples, the first triple (i, j, k) attaining it and the defect there: a
    (k,) float array, a (k, 3) int array and a (k, n) float array, checked
    ``batch_rows(n^4)`` maps at a time."""
    if kind not in ("triple", "symmetrized"):
        raise InvalidInput(f"no Leibniz identity for kind {kind!r}")
    p, n = system.product_tensor(kind), system.dim
    rows = batch_rows(n**4)
    worst = np.zeros(len(maps))
    triples = np.zeros((len(maps), 3), dtype=np.intp)
    defects = np.zeros((len(maps), n))
    for first in range(0, len(maps) if n else 0, rows):  # n = 0 has no basis triples
        chunk = maps[first : first + rows]
        res = p @ np.swapaxes(chunk, -1, -2)[:, None, None]
        res -= in_slots(p, chunk)
        res -= in_slots(p, None, chunk)
        res -= in_slots(p, None, None, chunk)
        norms = np.sqrt(np.einsum("...l,...l->...", res, res)).reshape(res.shape[0], -1)
        worst[first : first + rows] = norms.max(axis=1)
        where = np.unravel_index(norms.argmax(axis=1), (n, n, n))
        triples[first : first + rows] = np.column_stack(where)
        defects[first : first + rows] = res[(np.arange(len(chunk)), *where)]
    return worst, triples, defects


@timed
def is_derivation(t: LinearMap, kind: str = "triple", tol: float = 1e-10) -> Report:
    """Pass iff the Leibniz rule of the given product holds within tol."""
    check_tol(tol)
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
    # rows of one draw are the draws of successive samples, and row_norms are
    # np.linalg.norm's, so each point is the per-sample draw over its norm
    draws = rng.standard_normal((max(int(samples), 0), system.dim))
    norms = row_norms(draws)
    coords = np.concatenate([np.eye(system.dim), draws[norms > 0] / norms[norms > 0, None]])
    return [Element(system, c) for c in coords]


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
    check_tol(tol)
    points = list(points)
    if space is None:
        space = derivation_space(t.system, "triple")
    elif space.system is not t.system and space.system != t.system:
        raise InvalidInput("derivation space of a different system")
    residuals = local_residuals(t.entries[None], points, space)[0]
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


def local_residuals(maps, points, space: DerivationSpace) -> np.ndarray:
    """(k, len(points)) distances of T(a) from {D(a) : D in ``space``}, one row
    per map T of the (k, n, n) stack ``maps`` and one column per point a.

    The points go ``batch_rows(n * space.dim)`` at a time, each chunk against
    every map, so each chunk's SVD frames are taken once.
    """
    if not points:
        raise InvalidInput("local_derivation_residual needs at least one point")
    system = space.system
    if space.kind != "triple":
        raise InvalidInput("local derivation checks compare against kind='triple'")
    for el in points:
        if el.system is not system and el.system != system:
            raise InvalidInput("sample point from a different system")
    n = system.dim
    coords = np.array([el.coords for el in points]).reshape(len(points), n)
    rows = batch_rows(n * space.dim)
    return np.concatenate(
        [
            _local_residuals(space, maps, coords[first : first + rows])
            for first in range(0, len(points), rows)
        ],
        axis=1,
    )


def _local_residuals(space: DerivationSpace, maps: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distance of T(a) from {D(a) : D in space} for each map T of the (k, n, n)
    stack ``maps`` (one row each) and each row a of coords (one column each).

    The evaluation matrices E_a[:, r] = D_r(a) get one stacked thin SVD, and
    the residual is ||T(a) - U_k U_k^T T(a)||.  The rank k of each E_a uses the
    cutoff of ``lstsq(rcond=None)``: eps * max(n, r) * s_max.

    The frames (U, kept) depend on the space and the points, not on T, so the
    space keeps those of the last chunk, keyed by the exact bytes of coords:
    later maps checked at the same points skip the SVD.  The memo holds one
    chunk, at most ``BATCH_ENTRIES`` entries of U.
    """
    targets = coords @ np.swapaxes(maps, -1, -2)
    key = coords.tobytes()
    frames = space._frames.get(key)
    if frames is None:
        space._frames.clear()  # before the SVD, so two chunks are never held at once
        evaluations = np.einsum("rnm,bm->bnr", space.entries, coords, optimize=True)
        u, s, _ = np.linalg.svd(evaluations, full_matrices=False)
        n, r = evaluations.shape[1:]
        kept = s > np.finfo(float).eps * max(n, r) * s[:, :1]
        frames = space._frames[key] = (u, kept)
    u, kept = frames
    coefficients = np.einsum("bnk,tbn->tbk", u, targets) * kept
    return np.linalg.norm(targets - np.einsum("bnk,tbk->tbn", u, coefficients), axis=-1)


def rank_one_local_witness(t: LinearMap, x: Element) -> LinearMap:
    """Inner derivation matching T at x on a rank-one factor.

    With u = x/||x||, the witness is (1 / (2||x||)) * d(T(x) + 3 P1(u)T(x), u)
    where d(a, b) = L(a,b) - L(b,a).  For T in the symmetrized derivation
    space this reproduces T(x) at x to rounding.  This is the one-row case of
    ``rank_one_witness_maps``.
    """
    system = _same_system(x)
    if t.system is not system and t.system != system:
        raise InvalidInput("map and point belong to different systems")
    return LinearMap(system, rank_one_witness_maps(system, t.entries[None], x.coords[None])[0])


def rank_one_witness_maps(system: TripleSystem, maps, coords) -> np.ndarray:
    """The witness of ``rank_one_local_witness`` for each map T_b of the
    (k, n, n) stack ``maps`` at the point x_b, row b of the (k, n) stack
    ``coords``, as a (k, n, n) stack: one Peirce pass over all the points."""
    if system.rank_hint != 1:
        raise Unsupported("the witness formula is limited to rank-one factors")
    norms = np.linalg.norm(coords, axis=1)
    if np.any(norms == 0.0):
        raise InvalidInput("x must be nonzero")
    u = coords / norms[:, None]
    _, p1, _ = peirce_projections(system, u)
    tx = (maps @ coords[:, :, None])[:, :, 0]
    w = tx + 3.0 * (p1 @ tx[:, :, None])[:, :, 0]
    return inner_derivation_maps(system, w, u) / (2.0 * norms)[:, None, None]


@timed
def check_complex_linearity(space: DerivationSpace, tol: float = 1e-8) -> Report:
    """Commutation of every basis member with the complex structure J."""
    check_tol(tol)
    j = space.system.complex_structure
    if j is None:
        raise Unsupported(f"{space.system.name} carries no complex structure")
    m = space.entries
    # row_norms are np.linalg.norm's Frobenius norms of the commutators
    per_member = row_norms((m @ j - j @ m).reshape(space.dim, space.system.dim**2))
    worst = float(per_member.max(initial=0.0))
    # the first member attaining a nonzero worst commutator
    worst_index = int(per_member.argmax()) if worst > 0 else None
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    return Report(
        statement_id=f"complex_linearity[{space.system.name}:{space.kind}]",
        status=status,
        residuals={"max_commutator": worst},
        witnesses={
            "worst_member": worst_index,
            "commutators": per_member.tolist(),
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
    ||g{x,y,z} - {gx,gy,gz}||, compared against tol * (1 + ||g||^3).  A NaN or
    infinite defect (a flow that overflows) fails, with no bound.  This is the
    one-map case of ``exp_flow_reports``.
    """
    return exp_flow_reports(t.system, t.entries[None], kind, t_grid, tol)[0]


def exp_flow_reports(system: TripleSystem, maps, kind: str, t_grid, tol: float = 1e-7) -> list:
    """The ``exp_flow_check`` report of each map of the (k, n, n) stack ``maps``.

    The flows exp(tT), one per map T and value t of the grid, are checked
    ``batch_rows(n^4)`` at a time, with one stacked ``expm`` and one stacked
    defect per chunk; at n >= 23 that is one flow at a time.
    """
    check_tol(tol)
    p = system.product_tensor(kind)
    values = list(map(float, t_grid))
    if not values:  # an empty grid would pass without checking anything
        raise InvalidInput("exp_flow_check needs at least one t")
    # the short label where it reads back as the same t, so distinct t never share a key
    keys = [f"t={value:g}" if float(f"{value:g}") == value else f"t={value!r}" for value in values]
    n, count = system.dim, len(values)
    maps = np.asarray(maps, dtype=float)
    rates = (maps[:, None] * np.array(values)[:, None, None]).reshape(len(maps) * count, n, n)
    residuals = [{} for _ in range(len(maps))]
    witnesses = [{} for _ in range(len(maps))]
    rows = batch_rows(n**4)
    for first in range(0, len(rates), rows):
        flows = expm(rates[first : first + rows])
        # the defect with its sign flipped, which leaves its norms as they are
        diff = in_slots(p, flows, flows, flows)
        diff -= p @ np.swapaxes(flows, -1, -2)[:, None, None]
        squares = np.einsum("...l,...l->...", diff, diff).reshape(len(flows), -1)
        del diff
        worsts = np.sqrt(squares.max(axis=1, initial=0.0))
        for index, g, worst in zip(range(first, len(rates)), flows, worsts.tolist()):
            member, key = index // count, keys[index % count]
            residuals[member][key] = worst
            if not np.isfinite(worst):
                witnesses[member][key] = {"residual": worst, "bound": None}
            elif worst > tol:  # the bound is at least tol: its SVD only when it can fail
                bound = tol * (1.0 + np.linalg.norm(g, 2) ** 3)
                if worst > bound:
                    witnesses[member][key] = {"residual": worst, "bound": bound}
    return [
        Report(
            statement_id=f"exp_flow_{kind}[{system.name}]",
            status=STATUS_FAIL if witness else STATUS_PASS,
            residuals=residual,
            witnesses=witness,
        )
        for residual, witness in zip(residuals, witnesses)
    ]


@timed
def check_IAP_finite(system: TripleSystem, tol: float = 1e-8) -> Report:
    """Equality of the inner-derivation span and the triple-derivation space.

    In finite dimension the closure in the inner approximation property
    collapses to the plain span, so mutual containment is the expected
    rendering.  Checked through projections of each orthonormal basis onto
    the other.
    """
    check_tol(tol)
    der = derivation_space(system, "triple")
    inner = derivation_space(system, "inner_span")
    der_rows, inner_rows = (s.entries.reshape(s.dim, system.dim**2) for s in (der, inner))
    # what is left of each basis map off the span of the other orthonormal basis
    rests = [a - (a @ b.T) @ b for a, b in ((inner_rows, der_rows), (der_rows, inner_rows))]
    worst_inner, worst_der = (float(row_norms(r).max(initial=0.0)) for r in rests)
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
        "basis": space.entries.reshape(space.dim, space.system.dim**2).tolist(),
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
    tol = check_tol(payload["tol"])
    return DerivationSpace(system, payload["kind"], flat.reshape(count, n, n), tol)
