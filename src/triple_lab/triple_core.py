"""Triple systems as dense structure-constant tensors.

A system of dimension n stores the tensor c[i, j, k, l]: the l-th coordinate
of the product {e_i, e_j, e_k} of basis elements.  Everything is
real-trilinear; a complex structure, when present, travels as an explicit
matrix J with J^2 = -I so that complex-linearity is a checkable predicate
rather than a storage assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidSpec, SystemMismatch, TooLarge, Unsupported
from .numerics import check_tol
from .report import (
    Report,
    STATUS_ADVISORY,
    STATUS_FAIL,
    STATUS_PASS,
    read_json_array,
    timed,
    write_json,
)

NORM_KINDS = ("operator", "spin", "hilbert", "product")

# n^4 tensor entries stay below ~1.7e7 for desk-scale systems.
MAX_DIM = 64

# Samples per draw of the randomized Jordan check, whatever the sample count;
# a count up to this is a single draw.
BATCH_ROWS = 1024
# Entries of the per-row intermediates (outer products, maps, evaluation
# matrices) that one chunk of a batched check holds: 2 MB.  The Jordan and
# cube-norm checks hold about four n x n stacks per row.  The constructor
# scans its tensor this many entries at a time.
BATCH_ENTRIES = 2**18


def check_dim(n: int) -> None:
    """Raise TooLarge for a dimension over MAX_DIM; constructors call it before allocating."""
    if n > MAX_DIM:
        raise TooLarge(f"dimension {n} exceeds the cap of {MAX_DIM}")


def batch_rows(per_row: int) -> int:
    """Rows per chunk of a batched check whose rows hold ``per_row`` entries each."""
    return max(1, BATCH_ENTRIES // max(per_row, 1))


def _symmetrize_outer(flat: np.ndarray, n: int) -> None:
    """Overwrite the flat C-ordered n^4 tensor ``flat`` with (c + c_swap) * 0.5,
    c_swap[i, j, k, l] = c[k, j, i, l]; InvalidInput if an entry is not
    finite, lies more than 1e-10 from its swap, or sums to an overflow with it.

    Only entries whose bits are not +0.0 (so -0.0, NaN and inf too) and their
    swaps are read and written, one ``BATCH_ENTRIES`` scan at a time: the sum
    of two +0.0 is +0.0.  Each pair is visited once, at the first entry of it
    that a scan finds, while both entries still hold their input: an entry
    whose swap comes earlier is skipped unless the swap holds +0.0, since a
    swap with other bits was found first (and, in an earlier scan, written
    with the pair's value, which this entry holds too).  Non-finite input is
    named before asymmetry, and asymmetry before overflow, whichever entries
    show them.
    """
    bits = flat.view(np.uint64)
    step = n**3 - n  # swapping i and k moves a flat index by (k - i) * step
    asymmetric = overflow = False
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, BATCH_ENTRIES):
            at = np.flatnonzero(bits[start : start + BATCH_ENTRIES] != 0) + start
            swap = at + (at // n % n - at // n**3) * step
            b = flat[swap]
            first = (swap >= at) | (b.view(np.uint64) == 0)
            at, swap, b = at[first], swap[first], b[first]
            a = flat[at]
            # an inf difference of finite entries is asymmetry; NaN compares false
            asymmetric = asymmetric or bool(np.any(np.abs(a - b) > 1e-10))
            sym = np.add(a, b, out=a)
            sym *= 0.5
            if not np.all(np.isfinite(sym)):  # a finite sum has finite terms
                if not (np.all(np.isfinite(flat[at])) and np.all(np.isfinite(b))):
                    raise InvalidInput("tensor has non-finite entries")
                overflow = True  # a finite pair above about 9e307
            flat[at] = sym
            flat[swap] = sym
    if asymmetric:
        raise InvalidInput("tensor is not symmetric in the outer slots")
    if overflow:
        raise InvalidInput("tensor entries overflow when symmetrized")


@dataclass(frozen=True, eq=False)
class _Fresh:
    """A tensor handed to ``TripleSystem`` by the code that just made it and
    never reads it again: the builders, the direct sum, the complexification
    and the factor-file reader.  The constructor symmetrizes and freezes the
    array in place instead of copying it."""

    array: np.ndarray


class TripleSystem:
    """A finite-dimensional real-trilinear triple system.

    The tensor is validated and then symmetrized in the outer slots, so
    c[i, j, k, l] == c[k, j, i, l] holds bit-exactly after construction.
    The caller's array is only read.  Instances are immutable; all operations
    on them are pure.
    """

    def __init__(
        self,
        name: str,
        tensor,
        norm_kind: str = "operator",
        rank_hint: int | None = None,
        complex_structure=None,
        factor_kind: str = "custom",
        blocks: tuple | None = None,
    ):
        fresh = isinstance(tensor, _Fresh)
        tensor = np.asarray(tensor.array if fresh else tensor, dtype=float)
        if tensor.ndim != 4 or len(set(tensor.shape)) > 1:
            raise InvalidInput(f"tensor must be n^4, got shape {tensor.shape}")
        n = tensor.shape[0] if tensor.ndim == 4 else 0
        check_dim(n)
        # one C-ordered buffer becomes the tensor: a copy of the caller's
        # array, of any layout, or a fresh C-ordered array itself
        tensor = np.ascontiguousarray(tensor) if fresh else np.array(tensor, order="C")
        _symmetrize_outer(tensor.reshape(-1), n)
        tensor.flags.writeable = False
        if norm_kind not in NORM_KINDS:
            raise InvalidInput(f"unknown norm_kind {norm_kind!r}")
        # bool is an int subclass but no rank
        if rank_hint is not None and (type(rank_hint) is not int or rank_hint < 0):
            raise InvalidInput(f"rank_hint must be null or a non-negative integer, got {rank_hint!r}")

        if complex_structure is not None:
            complex_structure = np.array(complex_structure, dtype=float)
            if complex_structure.shape != (n, n):
                raise InvalidInput("complex_structure must be an n x n matrix")
            if n and np.max(np.abs(complex_structure @ complex_structure + np.eye(n))) > 1e-10:
                raise InvalidInput("complex_structure does not square to -identity")
            complex_structure.flags.writeable = False

        self.name = str(name)
        self.dim = n
        self.tensor = tensor
        self.norm_kind = norm_kind
        self.rank_hint = rank_hint
        self.complex_structure = complex_structure
        self.factor_kind = str(factor_kind)
        # (offset, length, factor_kind) per summand; direct sums and their real forms only.
        self.blocks = None if blocks is None else tuple(blocks)
        self._sym_tensor = None
        self._unfoldings = {}

    def __repr__(self):
        return f"TripleSystem({self.name!r}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, TripleSystem):
            return NotImplemented
        metadata = ("dim", "norm_kind", "factor_kind", "rank_hint", "blocks")
        if any(getattr(self, key) != getattr(other, key) for key in metadata):
            return False
        if not np.array_equal(self.tensor, other.tensor):
            return False
        a, b = self.complex_structure, other.complex_structure
        if (a is None) != (b is None):
            return False
        return a is None or np.array_equal(a, b)

    __hash__ = None

    # -- constructors for attached objects ---------------------------------

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, index: int) -> "Element":
        if not 0 <= index < self.dim:
            raise InvalidInput(f"basis index {index} is outside 0..{self.dim - 1}")
        coords = np.zeros(self.dim)
        coords[index] = 1.0
        return Element(self, coords)

    def linear_map(self, entries) -> "LinearMap":
        return LinearMap(self, entries)

    def identity_map(self) -> "LinearMap":
        return LinearMap(self, np.eye(self.dim))

    # -- products on raw coordinate arrays ---------------------------------

    def product_arrays(self, x, y, z) -> np.ndarray:
        rows = [np.reshape(v, (1, -1)) for v in (x, y, z)]
        return product_batch(self.unfolding("triple"), *rows)[0]

    def sym_tensor(self) -> np.ndarray:
        """Structure tensor of the fully symmetric product <a,b,c>."""
        if self._sym_tensor is None:
            c = self.tensor
            s = (c + np.einsum("kijl->ijkl", c) + np.einsum("jkil->ijkl", c)) / 3.0
            s.flags.writeable = False
            self._sym_tensor = s
        return self._sym_tensor

    def product_tensor(self, kind: str) -> np.ndarray:
        if kind == "triple":
            return self.tensor
        if kind == "symmetrized":
            return self.sym_tensor()
        raise InvalidInput(f"unknown product kind {kind!r}")

    def unfolding(self, kind: str) -> "GradedUnfolding":
        """``graded_unfolding`` of ``product_tensor(kind)``, built once per kind."""
        if kind not in self._unfoldings:
            self._unfoldings[kind] = graded_unfolding(self.product_tensor(kind))
        return self._unfoldings[kind]


@dataclass(frozen=True, eq=False)
class Element:
    """Coordinate vector in a system's basis."""

    system: TripleSystem
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).reshape(-1)
        if coords.shape[0] != self.system.dim:
            raise InvalidInput(
                f"coords length {coords.shape[0]} != system dim {self.system.dim}"
            )
        if coords.size and not np.all(np.isfinite(coords)):
            raise InvalidInput("coords have non-finite entries")
        object.__setattr__(self, "coords", coords)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "Element") -> "Element":
        _same_system(self, other)
        return Element(self.system, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _same_system(self, other)
        return Element(self.system, self.coords - other.coords)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.system, self.coords * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Real-linear operator on a system, acting on coordinates from the left."""

    system: TripleSystem
    entries: np.ndarray

    def __post_init__(self):
        n = self.system.dim
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (n, n):
            raise InvalidInput(f"entries must be {n} x {n}, got {entries.shape}")
        if entries.size and not np.all(np.isfinite(entries)):
            raise InvalidInput("entries have non-finite values")
        object.__setattr__(self, "entries", entries)

    def __call__(self, x: Element) -> Element:
        _same_system(self, x)
        return Element(self.system, self.entries @ x.coords)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        _same_system(self, other)
        return LinearMap(self.system, self.entries + other.entries)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        _same_system(self, other)
        return LinearMap(self.system, self.entries - other.entries)

    def __mul__(self, scalar: float) -> "LinearMap":
        return LinearMap(self.system, self.entries * float(scalar))

    __rmul__ = __mul__


def _same_system(*elements, system=None) -> TripleSystem:
    """The system of the elements or maps, which must all share it, and ``system`` if given."""
    system = elements[0].system if system is None else system
    for e in elements:
        if e.system is not system and e.system != system:
            raise SystemMismatch("elements or maps belong to different triple systems")
    return system


# -- products and operators -------------------------------------------------


def product_batch(u: "GradedUnfolding", x, y, z) -> np.ndarray:
    """Rows {x_b, y_b, z_b} of the product whose graded unfolding is ``u``.

    ``x``, ``y`` and ``z`` are (b, n) stacks of coordinates.  The products
    x_b[i] y_b[j] form an (n^2, b) matrix in the block order of ``u``, one
    batched GEMM per block width gives the maps z -> {x_b, y_b, z}, and a
    batched matrix-vector product applies them to z_b.
    """
    return _apply_maps(_product_maps(u, x, y), z)


def _product_maps(u: "GradedUnfolding", x, y) -> np.ndarray:
    """(b, n, n) stack M with {x_b, y_b, z} = z @ M[b]."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    b = x.shape[0]
    # one row per pair and one column per sample, so that each gather copies
    # whole rows and each group of blocks is a contiguous (m, w, b) stack
    xy = x.T[u.left] * y.T[u.right]
    out = np.empty_like(xy)
    for lo, hi, blocks in u.groups:
        m, w = blocks.shape[:2]
        np.matmul(blocks, xy[lo:hi].reshape(m, w, b), out=out[lo:hi].reshape(m, w, b))
    return np.ascontiguousarray(out[u.inverse].T).reshape(b, u.dim, u.dim)


def _apply_maps(maps, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.matmul(z[:, None, :], maps)[:, 0, :]


def in_slots(p, *maps) -> np.ndarray:
    """Tensor whose entry [u, v, w, l] is {A e_u, B e_v, C e_w}_l for maps (A, B, C).

    Each map is an n x r matrix applied to one input slot of the structure
    tensor ``p``; ``None`` (or a missing trailing map) leaves that slot alone.
    A map may also be a (G, n, r) stack, and ``p`` a (G, n, n, n, n) stack:
    the result then carries the leading axis, entry g taking the maps of
    stack entry g.  One matmul per slot contracts the slot's axis, with the
    axes before it as the batch and those after it as the columns.  A map on
    the output slot is ``in_slots(...) @ m.T`` at the call site.
    """
    for slot, m in enumerate(maps):
        if m is None:
            continue
        m = np.asarray(m, dtype=float)
        lead, dims = p.shape[:-4], p.shape[-4:]
        before, after = math.prod(dims[:slot]), math.prod(dims[slot + 1 :])
        out = np.swapaxes(m, -1, -2)[..., None, :, :] @ p.reshape(*lead, before, dims[slot], after)
        p = out.reshape(*out.shape[:-3], *dims[:slot], m.shape[-1], *dims[slot + 1 :])
    return p


def sign_grading(n: int, nonzero) -> np.ndarray:
    """Characters of the sign automorphisms of an n-dimensional product whose
    structure tensor p is nonzero at the (4, nnz) index rows ``nonzero``.

    A sign vector sigma is an automorphism iff sigma_i sigma_j sigma_k sigma_l = 1
    on every nonzero p[i, j, k, l]; written additively, the sigmas annihilate a
    GF(2) row space read off the nonzero pattern alone.  With s_a the unit vector
    e_a reduced modulo those rows, entry [a, b] of the returned (n, n) uint64
    array is the character s_a xor s_b of the map entry (a, b).  Conjugation by
    sigma scales that entry by sigma_a sigma_b; two entries share a character iff
    every sigma scales them alike, so derivation spaces split over the distinct
    characters, and a tensor without sign symmetry gives one character.
    """
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    i, j, k, l = nonzero
    rows = bits[i] ^ bits[j] ^ bits[k] ^ bits[l]
    codes = bits
    # Gaussian elimination over GF(2), one column at a time: a column's pivot has
    # its bit and bits of later columns only, so it clears that bit from rows and
    # codes alike and leaves each code e_a reduced, with bits on free columns only
    for bit in bits:
        rows = rows[rows != 0]
        hit = (rows & bit) != 0
        if hit.any():
            pivot = rows[np.argmax(hit)]
            rows = np.where(hit, rows ^ pivot, rows)
            codes = np.where((codes & bit) != 0, codes ^ pivot, codes)
    return codes[:, None] ^ codes[None, :]


@dataclass(frozen=True, eq=False)
class GradedUnfolding:
    """The (n^2, n^2) unfolding U of a structure tensor p, row (i, j) and
    column (k, l) holding p[i, j, k, l], stored as the diagonal blocks of U^T.

    A nonzero p[i, j, k, l] has one character at (i, j) and (k, l) (``sign_grading``),
    so U is block diagonal over the characters.  Position q of the block order
    is the pair (left[q], right[q]); the pairs are sorted by (block width,
    character), and flat pair i * n + j is at position inverse[i * n + j], in
    block block[i * n + j], whose positions are starts[b]:starts[b + 1].
    ``groups`` holds (lo, hi, blocks) per distinct width w: the (m, w, w) stack
    of the m blocks of U^T at positions lo:hi.  A tensor with one character is
    one block, a view of the tensor.  ``nonzero`` holds the (4, nnz) indices of
    the nonzero entries of p in C order, and ``values`` the entries there.
    """

    dim: int
    nonzero: np.ndarray
    values: np.ndarray
    left: np.ndarray
    right: np.ndarray
    inverse: np.ndarray
    block: np.ndarray
    starts: np.ndarray
    groups: tuple


def graded_unfolding(p) -> GradedUnfolding:
    """The unfolding of ``p`` split into the blocks of its ``sign_grading``."""
    n = p.shape[0]
    nonzero = np.stack(np.nonzero(p))
    values = p[tuple(nonzero)]
    nonzero.flags.writeable = values.flags.writeable = False
    flat = sign_grading(n, nonzero).reshape(-1)
    order = np.argsort(flat, kind="stable")
    by_char = np.cumsum(_run_starts(flat[order])) - 1
    width = np.bincount(by_char)[by_char]
    by_width = np.argsort(width, kind="stable")
    order, width = order[by_width], width[by_width]
    # adjacent blocks of one width have distinct characters
    new_block = _run_starts(flat[order])
    unfolded = p.reshape(n * n, n * n)
    edges = [*np.flatnonzero(_run_starts(width)).tolist(), n * n]
    groups = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = int(width[lo])
        if w == n * n:  # one character: no copy
            blocks = unfolded.T[None]
        else:
            pairs = order[lo:hi].reshape(-1, w)
            blocks = unfolded[pairs[:, None, :], pairs[:, :, None]]
        groups.append((lo, hi, blocks))
    inverse = np.empty(n * n, dtype=np.intp)
    inverse[order] = np.arange(n * n)
    block = (np.cumsum(new_block) - 1)[inverse]
    starts = np.append(np.flatnonzero(new_block), n * n)
    return GradedUnfolding(
        n, nonzero, values, order // n, order % n, inverse, block, starts, tuple(groups)
    )


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return new


def triple_product(x: Element, y: Element, z: Element) -> Element:
    system = _same_system(x, y, z)
    return Element(system, system.product_arrays(x.coords, y.coords, z.coords))


def symmetrized_product(a: Element, b: Element, c: Element) -> Element:
    """Fully symmetric product <a,b,c>: the average of the three cyclic shifts."""
    system = _same_system(a, b, c)
    rows = [e.coords[None, :] for e in (a, b, c)]
    return Element(system, product_batch(system.unfolding("symmetrized"), *rows)[0])


def L_operator(a: Element, b: Element) -> LinearMap:
    """The map x -> {a, b, x}."""
    system = _same_system(a, b)
    return LinearMap(system, L_maps(system, a.coords, b.coords))


def L_maps(system: TripleSystem, a, b) -> np.ndarray:
    """Entries of L(a, b) for coordinates ``a`` and ``b``, or the (k, n, n) stack
    of L(a_i, b_i) for (k, n) stacks of them; ``L_operator`` is the one-pair case."""
    return np.einsum("ijkl,...i,...j->...lk", system.tensor, a, b)


def Q_operator(a: Element) -> LinearMap:
    """The map x -> {a, x, a}."""
    entries = np.einsum("ijkl,i,k->lj", a.system.tensor, a.coords, a.coords)
    return LinearMap(a.system, entries)


# -- axiom checks -------------------------------------------------------------


@timed
def check_jordan_identity(
    system: TripleSystem,
    tol: float = 1e-10,
    samples: int = 1000,
    seed: int = 0,
) -> Report:
    """Residual of L(a,b){xyz} = {L(a,b)x,y,z} - {x,L(b,a)y,z} + {x,y,L(a,b)z}.

    Exhaustive over basis 5-tuples for dim <= 8 (trilinearity makes that
    sufficient), randomized over seeded unit samples above, at least 1000.
    """
    check_tol(tol)
    if samples < 1:  # no samples would pass without checking anything
        raise InvalidInput(f"samples must be at least 1, got {samples!r}")
    n = system.dim
    c = system.tensor
    witness = {}
    used_seed = None
    if n == 0:
        max_residual = 0.0
    elif n <= 8:
        lhs = np.einsum("abml,xyzm->abxyzl", c, c, optimize=True)
        t1 = np.einsum("abxm,myzl->abxyzl", c, c, optimize=True)
        t2 = np.einsum("baym,xmzl->abxyzl", c, c, optimize=True)
        t3 = np.einsum("abzm,xyml->abxyzl", c, c, optimize=True)
        res = lhs - t1 + t2 - t3
        norms = np.sqrt(np.einsum("abxyzl,abxyzl->abxyz", res, res))
        max_residual = float(norms.max())
        if max_residual > tol:
            idx = np.unravel_index(int(norms.argmax()), norms.shape)
            witness = {"basis_tuple": [int(i) for i in idx]}
    else:
        used_seed = seed
        u = system.unfolding("triple")
        rng = np.random.default_rng(seed)
        count = max(int(samples), 1000)
        rows = batch_rows(4 * n * n)
        worst = None
        for first in range(0, count, BATCH_ROWS):
            vecs = rng.standard_normal((5, min(BATCH_ROWS, count - first), n))
            vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
            norms = np.concatenate(
                [_jordan_defects(u, vecs[:, i : i + rows]) for i in range(0, vecs.shape[1], rows)]
            )
            if worst is None or norms.max() > max_residual:
                max_residual = float(norms.max())
                index = int(norms.argmax())
                worst = (first + index, vecs[:, index, :].copy())
        if max_residual > tol:
            witness = {"sample_index": worst[0], "sample": worst[1]}
    status = STATUS_PASS if max_residual <= tol else STATUS_FAIL
    return Report(
        statement_id=f"jordan_identity[{system.name}]",
        status=status,
        residuals={"max_residual": max_residual},
        witnesses=witness,
        seed=used_seed,
    )


def _jordan_defects(u, vecs) -> np.ndarray:
    """Per-sample norm of the Jordan identity's defect at rows (a, b, x, y, z)."""
    a, b, x, y, z = vecs
    # L(a,b) and L(x,y) each act twice: five kernel calls, not seven
    ab, xy = _product_maps(u, a, b), _product_maps(u, x, y)
    lhs = _apply_maps(ab, _apply_maps(xy, z))
    t1 = product_batch(u, _apply_maps(ab, x), y, z)
    t2 = product_batch(u, x, product_batch(u, b, a, y), z)
    t3 = _apply_maps(xy, _apply_maps(ab, z))
    return np.linalg.norm(lhs - t1 + t2 - t3, axis=1)


@timed
def check_norm_axiom(
    system: TripleSystem,
    samples: int,
    seed: int = 0,
    tol: float = 1e-8,
) -> Report:
    """Relative residual of ||{a,a,a}|| = ||a||^3 on seeded random elements."""
    from .factors import element_norms  # late import: factors builds on this module

    check_tol(tol)
    if samples < 1:  # see check_jordan_identity
        raise InvalidInput(f"samples must be at least 1, got {samples!r}")
    rng = np.random.default_rng(seed)
    samples = int(samples)
    worst = 0.0
    witness = {}
    rows = batch_rows(4 * system.dim**2)
    u = system.unfolding("triple")
    # row by row, the blocks draw the same stream as one draw per sample
    for first in range(0, samples, rows):
        coords = rng.standard_normal((min(rows, samples - first), system.dim))
        coords = coords[np.any(coords, axis=1)]
        cubes = product_batch(u, coords, coords, coords)
        lhs = element_norms(system, cubes)
        rhs = element_norms(system, coords) ** 3
        rel = np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)
        if rel.size and rel.max() > worst:
            i = int(rel.argmax())
            worst = float(rel[i])
            if worst > tol:
                witness = {
                    "coords": coords[i],
                    "cube_norm": float(lhs[i]),
                    "norm_cubed": float(rhs[i]),
                }
    status = STATUS_PASS if worst <= tol else STATUS_FAIL
    return Report(
        statement_id=f"norm_cube_identity[{system.name}]",
        status=status,
        residuals={"max_relative_residual": worst},
        witnesses=witness,
        seed=seed,
    )


@timed
def check_complex_structure(system: TripleSystem, tol: float = 1e-12) -> Report:
    """J-compatibility: {Jx,y,z} = J{x,y,z} and {x,Jy,z} = -J{x,y,z} on basis triples."""
    check_tol(tol)
    j = system.complex_structure
    if j is None:
        raise Unsupported(f"{system.name} carries no complex structure")
    c = system.tensor
    applied = c @ j.T
    outer = in_slots(c, j) - applied
    middle = in_slots(c, None, j) + applied
    square = j @ j + np.eye(system.dim)
    residuals = {
        "outer_linearity": float(np.max(np.abs(outer))) if outer.size else 0.0,
        "middle_conjugate_linearity": float(np.max(np.abs(middle))) if middle.size else 0.0,
        "j_squares_to_minus_identity": float(np.max(np.abs(square))) if square.size else 0.0,
    }
    worst = max(residuals.values())
    return Report(
        statement_id=f"complex_structure_compatibility[{system.name}]",
        status=STATUS_PASS if worst <= tol else STATUS_FAIL,
        residuals=residuals,
        witnesses={} if worst <= tol else {"tolerance": tol},
    )


@timed
def check_hermitian_surrogate(system: TripleSystem) -> Report:
    """Advisory check: L(a,a) symmetric with nonnegative spectrum in coordinates.

    The constructed bases are orthonormal for the natural positive form of
    each factor, so coordinate symmetry of L(a,a) is the finite-dimensional
    surrogate for hermitian-ness.  Advisory only, never acceptance-blocking.
    """
    worst_asym = 0.0
    min_eig = 0.0
    for i in range(system.dim):
        m = system.tensor[i, i].T  # L(e_i, e_i)
        worst_asym = max(worst_asym, float(np.max(np.abs(m - m.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (m + m.T)).min()))
    return Report(
        statement_id=f"hermitian_surrogate[{system.name}]",
        status=STATUS_ADVISORY,
        residuals={"max_asymmetry": worst_asym, "min_eigenvalue": min_eig},
    )


# -- serialization ------------------------------------------------------------


def _wire_payload(system: TripleSystem) -> dict:
    """The wire format with the tensor and J as flat ndarray views; Unsupported
    when the factor_kind cannot carry the blocks, so the file would not load."""
    from .factors import blocks_from_kind  # late import, see check_norm_axiom

    try:
        carried = blocks_from_kind(system.factor_kind) == system.blocks
    except InvalidSpec:  # a hand-built summand: its label gives no size
        carried = False
    if not carried:
        raise Unsupported(f"factor kind {system.factor_kind!r} does not record the summand sizes")
    j = system.complex_structure
    return {
        "name": system.name,
        "dim": system.dim,
        "tensor": system.tensor.reshape(-1),
        "norm_kind": system.norm_kind,
        "rank_hint": system.rank_hint,
        "complex_structure": None if j is None else j.reshape(-1),
        "factor_kind": system.factor_kind,
    }


def system_to_json(system: TripleSystem) -> dict:
    """The wire format: exactly these keys, tensor flat in (i,j,k,l) row-major."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in _wire_payload(system).items()
    }


def _require_keys(payload, keys, what: str) -> None:
    """Raise InvalidInput unless ``payload`` is an object holding every key in ``keys``."""
    if not isinstance(payload, dict):
        raise InvalidInput(f"{what}: the top level must be an object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise InvalidInput(f"{what}: missing key(s) {', '.join(missing)}")


def _wire_dim(payload) -> int:
    """``payload["dim"]``, which must be a JSON integer of at least 0: no float,
    string or bool, which ``int()`` would silently truncate or convert."""
    n = payload["dim"]
    if type(n) is not int or n < 0:
        raise InvalidInput(f"dim must be a non-negative integer, got {n!r}")
    return n


def _wire_floats(payload, key: str, size: int, size_text: str) -> np.ndarray:
    """``payload[key]`` as a flat float array of ``size`` entries, or InvalidInput."""
    try:
        raw = payload[key]
        values = np.asarray(raw)
        # numpy would parse the string "1.5" as a number, and true and false
        # as 1.0 and 0.0; the factor-file reader's arrays hold neither
        if values.dtype.kind in "SUb" or (isinstance(raw, list) and _holds_bool(raw)):
            raise TypeError
        values = values.astype(float, copy=False).reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{key} must be a list of numbers") from exc
    if values.size != size:
        raise InvalidInput(f"{key} length {values.size} != {size_text} = {size}")
    return values


def _holds_bool(values: list) -> bool:
    """Whether the list ``values``, or a list nested in it, holds a bool."""
    kinds = set(map(type, values))
    if list in kinds:
        return any(_holds_bool(v) if type(v) is list else type(v) is bool for v in values)
    return bool in kinds


def system_from_json(payload: dict) -> TripleSystem:
    """The system of a wire-format dict, whose arrays are only read."""
    return _system_from_wire(payload, fresh=False)


def _system_from_wire(payload: dict, fresh: bool) -> TripleSystem:
    """``system_from_json``; with ``fresh``, the payload is the reader's own and
    its tensor is handed to the constructor (``_Fresh``), not copied."""
    _require_keys(payload, ("name", "dim", "tensor", "norm_kind"), "factor")
    n = _wire_dim(payload)
    tensor = _wire_floats(payload, "tensor", n**4, "dim^4").reshape(n, n, n, n)
    j = payload.get("complex_structure")
    if j is not None:
        j = _wire_floats(payload, "complex_structure", n * n, "dim^2").reshape(n, n)
    from .factors import blocks_from_kind  # late import, see check_norm_axiom

    factor_kind = str(payload.get("factor_kind", "custom"))
    return TripleSystem(
        name=str(payload["name"]),
        tensor=_Fresh(tensor) if fresh else tensor,
        norm_kind=str(payload["norm_kind"]),
        rank_hint=payload.get("rank_hint"),
        complex_structure=j,
        factor_kind=factor_kind,
        blocks=blocks_from_kind(factor_kind),
    )


def save_system(system: TripleSystem, path) -> None:
    """Write the wire format; ``canonical_bytes`` encodes the tensor without boxing its zeros."""
    write_json(_wire_payload(system), path)


def load_system(path) -> TripleSystem:
    """Read the wire format; ``read_json_array`` parses only the tensor's nonzero
    entries, into an array that becomes the system's tensor."""
    return _system_from_wire(read_json_array(path, "factor", "tensor"), fresh=True)


def linear_map_to_json(t: LinearMap) -> dict:
    return {
        "dim": t.system.dim,
        "entries": t.entries.reshape(-1).tolist(),
    }


def linear_map_from_json(payload: dict, system: TripleSystem) -> LinearMap:
    _require_keys(payload, ("dim", "entries"), "map")
    n = _wire_dim(payload)
    if n != system.dim:
        raise InvalidInput(f"map dim {n} != system dim {system.dim}")
    return LinearMap(system, _wire_floats(payload, "entries", n * n, "dim^2").reshape(n, n))
