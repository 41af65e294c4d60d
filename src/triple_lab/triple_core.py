"""Triple systems as structure-constant tensors.

A system of dimension n stores the tensor c[i, j, k, l]: the l-th coordinate
of the product {e_i, e_j, e_k} of basis elements, as the list of its entries
whose bits are not +0.0, and builds the dense array when it is read.  Everything is
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
    FlatEntries,
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
# cube-norm checks hold about four n x n stacks per row, in one ``_Workspace``
# that each call allocates once and every chunk reuses: no chunk allocates
# an n x n stack.  The constructor reads a dense tensor in chunks of slabs
# c[i] of at most this many entries, or one slab.
BATCH_ENTRIES = 2**18


def check_dim(n: int) -> None:
    """Raise TooLarge for a dimension over MAX_DIM; constructors call it before allocating."""
    if n > MAX_DIM:
        raise TooLarge(f"dimension {n} exceeds the cap of {MAX_DIM}")


def batch_rows(per_row: int) -> int:
    """Rows per chunk of a batched check whose rows hold ``per_row`` entries each."""
    return max(1, BATCH_ENTRIES // max(per_row, 1))


def _pair_means(a: np.ndarray, b: np.ndarray) -> tuple:
    """(a + b) * 0.5, whether some |a - b| exceeds 1e-10 and whether some sum
    overflows; InvalidInput if an entry of a or b is not finite.  NaN, which
    only non-finite entries give, propagates through max and min."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = np.subtract(a, b)
        # an inf difference of finite entries is asymmetry
        asymmetric = bool(sym.max(initial=0.0) > 1e-10 or sym.min(initial=0.0) < -1e-10)
        np.add(a, b, out=sym)
        sym *= 0.5
    overflow = not (np.isfinite(sym.max(initial=0.0)) and np.isfinite(sym.min(initial=0.0)))
    if overflow and not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInput("tensor has non-finite entries")  # a finite sum has finite terms
    return sym, asymmetric, overflow


def _frozen_entries(n: int, index, values, asymmetric: bool, overflow: bool) -> FlatEntries:
    """The checked, symmetrized entries, whose bits are not +0.0, as a
    system's tensor: InvalidInput on asymmetry, then on overflow."""
    if asymmetric:
        raise InvalidInput("tensor is not symmetric in the outer slots")
    if overflow:
        raise InvalidInput("tensor entries overflow when symmetrized")
    index = index.astype(np.int32, copy=False)
    index.flags.writeable = values.flags.writeable = False
    return FlatEntries((n,) * 4, index, values)


def _dense_entries(tensor: np.ndarray) -> FlatEntries:
    """The entries of (c + c_swap) * 0.5, c_swap[i, j, k, l] = c[k, j, i, l],
    for a dense n^4 tensor c of any layout, which is only read.

    A first pass finds the rows c[i, j, k, :] holding an entry whose bits are
    not +0.0 (so -0.0, NaN and inf too); a second reads those rows and their
    swaps, since two +0.0 sum to +0.0.  Both read the slabs c[i] in chunks
    of ``BATCH_ENTRIES``.  Non-finite input is named before asymmetry, and
    asymmetry before overflow.  A fully dense input costs 12 bytes per entry
    as a list, half again its own size.
    """
    n = tensor.shape[0]
    step = batch_rows(n**3)  # slabs per chunk
    held = np.zeros((n,) * 3, dtype=bool)
    listed = 0
    for lo in range(0, n, step):
        bits = np.ascontiguousarray(tensor[lo : lo + step]).view(np.uint64)  # a copy only if not C-ordered
        held[lo : lo + step] = bits.any(axis=3)
        listed += int(np.count_nonzero(bits))
    held |= held.transpose(2, 1, 0)
    # room for the entries kept: each listed entry and its swap, at most
    # every entry of the rows read
    index = np.empty(min(int(np.count_nonzero(held)) * n, 2 * listed), dtype=np.int32)
    values = np.empty(index.size)
    columns = np.arange(n, dtype=np.int32)
    count, asymmetric, overflow = 0, False, False
    for lo in range(0, n, step):
        rows = (np.flatnonzero(held[lo : lo + step]) + lo * n * n).astype(np.int32)
        i, j, k = np.unravel_index(rows, (n,) * 3)
        sym, asym, over = _pair_means(tensor[i, j, k], tensor[k, j, i])
        asymmetric, overflow = asymmetric or asym, overflow or over
        bits = sym.view(np.uint64).reshape(-1)
        end = count + int(np.count_nonzero(bits))
        kept = slice(None) if end - count == bits.size else np.flatnonzero(bits)
        values[count:end] = sym.reshape(-1)[kept]
        index[count:end] = (rows[:, None] * n + columns).reshape(-1)[kept]
        count = end
    if count < index.size:
        index, values = index[:count].copy(), values[:count].copy()
    return _frozen_entries(n, index, values, asymmetric, overflow)


def _listed_entries(given: FlatEntries) -> FlatEntries:
    """The entries of (c + c_swap) * 0.5 for a tensor c handed over as its
    entries, which are only read: the checks of ``_dense_entries``, each
    entry's swap looked up in the list, and a swap the list lacks added.
    The list must be one value per index, the indices ascending flat
    positions of the n^4 tensor."""
    n = given.shape[0]
    index = np.asarray(given.index, dtype=np.intp)
    values = np.asarray(given.values, dtype=float)
    if index.ndim != 1 or index.shape != values.shape or np.any(np.diff(index) <= 0) or (
        index.size and (index[0] < 0 or index[-1] >= n**4)
    ):
        raise InvalidInput("tensor entries must be ascending flat indices below n^4, one per value")
    # swapping i and k moves a flat index by (k - i) * (n^3 - n)
    swap = index + (index // n % n - index // n**3) * (n**3 - n)
    swapped, found = _lookup(index, values, swap)
    sym, asymmetric, overflow = _pair_means(values, swapped)
    if not np.all(found):
        index = np.concatenate([index, swap[~found]])
        sym = np.concatenate([sym, sym[~found]])
        order = np.argsort(index, kind="stable")
        index, sym = index[order], sym[order]
    kept = sym.view(np.uint64) != 0
    return _frozen_entries(n, index[kept], sym[kept], asymmetric, overflow)


def _lookup(index: np.ndarray, values: np.ndarray, at: np.ndarray) -> tuple:
    """The entries at the flat indices ``at`` of the tensor whose entries are
    (``index``, ``values``), +0.0 where it lists none, and where it lists one."""
    if not index.size:
        return np.zeros(at.shape), np.zeros(at.shape, dtype=bool)
    where = np.minimum(np.searchsorted(index, at), index.size - 1)
    found = index[where] == at
    return np.where(found, values[where], 0.0), found


def _symmetric_entries(c: FlatEntries) -> FlatEntries:
    """The entries of the fully symmetric tensor s[i, j, k, l] =
    (c[i, j, k, l] + c[k, i, j, l] + c[j, k, i, l]) / 3.0, summed in this
    order: an entry c[a, b, d, l] is a term at [a, b, d, l], [b, d, a, l]
    and [d, a, b, l]."""
    shape = c.shape
    index = np.asarray(c.index, dtype=np.intp)
    i, j, k, l = np.unravel_index(index, shape)
    at = [index, np.ravel_multi_index((j, k, i, l), shape), np.ravel_multi_index((k, i, j, l), shape)]
    at = np.sort(np.concatenate(at), kind="stable")
    at = at[_run_starts(at)]
    i, j, k, l = np.unravel_index(at, shape)
    terms = [at, np.ravel_multi_index((k, i, j, l), shape), np.ravel_multi_index((j, k, i, l), shape)]
    first, second, third = (_lookup(index, c.values, t)[0] for t in terms)
    s = (first + second + third) / 3.0
    kept = s.view(np.uint64) != 0
    return _frozen_entries(shape[0], at[kept], s[kept], False, False)


class TripleSystem:
    """A finite-dimensional real-trilinear triple system.

    The tensor is validated and then symmetrized in the outer slots, so
    c[i, j, k, l] == c[k, j, i, l] holds bit-exactly after construction.
    ``tensor`` is a dense n^4 array or ``FlatEntries`` of that shape, which
    are only read, an array in any layout and without a copy of it; both are
    checked alike.  The system stores the result as ``FlatEntries`` with
    frozen arrays, and ``tensor`` is its dense view, built on first read.
    Instances are immutable; all operations on them are pure.
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
        listed = isinstance(tensor, FlatEntries)
        if not listed:
            tensor = np.asarray(tensor, dtype=float)
        if len(tensor.shape) != 4 or len(set(tensor.shape)) > 1:
            raise InvalidInput(f"tensor must be n^4, got shape {tensor.shape}")
        n = tensor.shape[0]
        check_dim(n)
        entries = _listed_entries(tensor) if listed else _dense_entries(tensor)
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
        self._entries = entries
        self.norm_kind = norm_kind
        self.rank_hint = rank_hint
        self.complex_structure = complex_structure
        self.factor_kind = str(factor_kind)
        # (offset, length, factor_kind) per summand; direct sums and their real forms only.
        self.blocks = None if blocks is None else tuple(blocks)
        self._symmetric = None
        self._unfoldings = {}
        self._spaces = {}  # derivations.derivation_space, by (kind, tol)

    @property
    def tensor(self) -> np.ndarray:
        """The read-only, C-ordered n^4 structure tensor, built on first read."""
        return self._entries.dense()

    def __repr__(self):
        return f"TripleSystem({self.name!r}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, TripleSystem):
            return NotImplemented
        metadata = ("dim", "norm_kind", "factor_kind", "rank_hint", "blocks")
        if any(getattr(self, key) != getattr(other, key) for key in metadata):
            return False
        # equal tensors list the same entries but their -0.0
        mine, theirs = (e.values != 0 for e in (self._entries, other._entries))
        if not (
            np.array_equal(self._entries.index[mine], other._entries.index[theirs])
            and np.array_equal(self._entries.values[mine], other._entries.values[theirs])
        ):
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

    def product_tensor(self, kind: str) -> np.ndarray:
        """The dense structure tensor of the triple product, or of the fully
        symmetric product <a,b,c> for ``kind`` "symmetrized"."""
        return self._product(kind).dense()

    def _product(self, kind: str) -> FlatEntries:
        """The entries of ``product_tensor(kind)``."""
        if kind == "triple":
            return self._entries
        if kind == "symmetrized":
            if self._symmetric is None:
                self._symmetric = _symmetric_entries(self._entries)
            return self._symmetric
        raise InvalidInput(f"unknown product kind {kind!r}")

    def unfolding(self, kind: str) -> "GradedUnfolding":
        """``graded_unfolding`` of ``product_tensor(kind)``, built once per kind."""
        if kind not in self._unfoldings:
            self._unfoldings[kind] = graded_unfolding(self._product(kind))
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


class _Workspace:
    """The arrays of n^2 entries per sample that ``_product_maps`` writes, for
    up to ``rows`` samples: two scratch arrays and ``stacks`` result stacks.
    A chunked check allocates one per call and hands it to every chunk, so no
    chunk allocates an array of that size."""

    def __init__(self, n: int, rows: int, stacks: int = 1):
        self.size = n * n
        self.buffers = np.empty((2 + stacks, self.size * rows))

    def view(self, index: int, b: int) -> np.ndarray:
        """Buffer ``index`` as a C-ordered (n^2, b) array."""
        return self.buffers[index, : self.size * b].reshape(self.size, b)


def _product_maps(u: "GradedUnfolding", x, y, work: _Workspace | None = None, stack: int = 0):
    """(b, n, n) stack M with {x_b, y_b, z} = z @ M[b], written to result stack
    ``stack`` of ``work`` (a workspace of its own when ``work`` is None)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    b = x.shape[0]
    # the gathers clip their indices, so a narrow stack would pass unnoticed
    if x.shape != (b, u.dim) or y.shape != x.shape:
        raise InvalidInput(f"x and y must be (b, {u.dim}) stacks, got {x.shape} and {y.shape}")
    if work is None:
        work = _Workspace(u.dim, b)
    pairs, out = work.view(0, b), work.view(1, b)
    # one row per pair and one column per sample, so that each gather copies
    # whole rows and each group of blocks is a contiguous (m, w, b) stack
    np.take(x.T, u.left, axis=0, out=pairs, mode="clip")
    np.multiply(pairs, np.take(y.T, u.right, axis=0, out=out, mode="clip"), out=pairs)
    for lo, hi, blocks in u.groups:
        m, w = blocks.shape[:2]
        np.matmul(blocks, pairs[lo:hi].reshape(m, w, b), out=out[lo:hi].reshape(m, w, b))
    np.take(out, u.inverse, axis=0, out=pairs, mode="clip")
    maps = work.view(2 + stack, b).reshape(b, u.dim**2)
    np.copyto(maps, pairs.T)
    return maps.reshape(b, u.dim, u.dim)


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


def graded_unfolding(p: FlatEntries) -> GradedUnfolding:
    """The unfolding of the tensor with entries ``p`` split into the blocks of
    its ``sign_grading``.  A tensor of one character is its dense view's
    unfolding; the blocks of any other are written from the entries."""
    n = p.shape[0]
    nonzero_at = p.values != 0  # not -0.0 either
    nonzero = np.stack(np.unravel_index(p.index[nonzero_at], (n,) * 4))
    values = p.values[nonzero_at]
    nonzero.flags.writeable = values.flags.writeable = False
    flat = sign_grading(n, nonzero).reshape(-1)
    order = np.argsort(flat, kind="stable")
    by_char = np.cumsum(_run_starts(flat[order])) - 1
    width = np.bincount(by_char)[by_char]
    by_width = np.argsort(width, kind="stable")
    order, width = order[by_width], width[by_width]
    # adjacent blocks of one width have distinct characters
    new_block = _run_starts(flat[order])
    inverse = np.empty(n * n, dtype=np.intp)
    inverse[order] = np.arange(n * n)
    block = (np.cumsum(new_block) - 1)[inverse]
    # entry [i, j, k, l] is row (i, j) and column (k, l) of the unfolding, at
    # these positions of the block order; it lies in a block iff both pairs
    # share one (a -0.0 may lie outside)
    row, column = p.index // (n * n), p.index % (n * n)
    inside = block[row] == block[column]
    row, column, inside_values = inverse[row[inside]], inverse[column[inside]], p.values[inside]
    edges = [*np.flatnonzero(_run_starts(width)).tolist(), n * n]
    groups = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = int(width[lo])
        if w == n * n:  # one character: no copy
            blocks = p.dense().reshape(n * n, n * n).T[None]
        else:
            # block b of U^T holds U[pairs[b, s], pairs[b, r]] at [b, r, s]
            blocks = np.zeros((hi - lo) * w)
            here = (row >= lo) & (row < hi)
            blocks[(column[here] - lo) * w + (row[here] - lo) % w] = inside_values[here]
            blocks = blocks.reshape(-1, w, w)
        groups.append((lo, hi, blocks))
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
    return _listed_maps(system, a, b, (0, 1, 3, 2))


def Q_operator(a: Element) -> LinearMap:
    """The map x -> {a, x, a}."""
    return LinearMap(a.system, _listed_maps(a.system, a.coords, a.coords, (0, 2, 3, 1)))


def _listed_maps(system: TripleSystem, a, b, slots) -> np.ndarray:
    """The maps M with M[r, s] = sum of c[i0, i1, i2, i3] a[i_p] b[i_q] over
    the entries with i_u = r and i_v = s, for ``slots`` (p, q, u, v): one per
    row of the (..., n) stacks ``a`` and ``b`` of one shape.

    The entries are the nonzeros that the triple unfolding lists, in
    ascending flat order, and ``np.bincount`` adds each map entry's terms in
    that order, so a stack row is its one-row call bit for bit.
    """
    u, n = system.unfolding("triple"), system.dim
    lead = np.shape(a)[:-1]
    a, b = (np.reshape(np.asarray(v, dtype=float), (math.prod(lead), n)) for v in (a, b))
    p, q, r, s = (u.nonzero[slot] for slot in slots)
    rows = batch_rows(u.values.size)
    maps = np.empty((len(a), n * n))
    for first in range(0, len(a), rows):
        terms = u.values * a[first : first + rows, p] * b[first : first + rows, q]
        bins = (np.arange(len(terms))[:, None] * (n * n) + r * n + s).reshape(-1)
        sums = np.bincount(bins, weights=terms.reshape(-1), minlength=len(terms) * n * n)
        maps[first : first + rows] = sums.reshape(len(terms), n * n)
    return maps.reshape(*lead, n, n)


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
    witness = {}
    used_seed = None
    if n == 0:
        max_residual = 0.0
    elif n <= 8:
        norms = _exhaustive_jordan_norms(system.tensor)
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
        work = _Workspace(n, rows, stacks=3)
        worst = None
        for first in range(0, count, BATCH_ROWS):
            vecs = rng.standard_normal((5, min(BATCH_ROWS, count - first), n))
            vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
            norms = np.concatenate(
                [
                    _jordan_defects(u, vecs[:, i : i + rows], work)
                    for i in range(0, vecs.shape[1], rows)
                ]
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


def _exhaustive_jordan_norms(c) -> np.ndarray:
    """Norm of the Jordan identity's defect at every basis 5-tuple (a, b, x, y, z).

    One leading index a at a time: three matmuls per a fill (n,)*5 buffers
    reused for every a, each entry the same sum over the inner index m as in
    one contraction of the whole (n,)*6 stack.
    """
    n = c.shape[0]
    defect, outer, middle = (np.empty((n,) * 5) for _ in range(3))
    norms = np.empty((n,) * 5)
    for a in range(n):
        # {a, b, {x, y, z}}_l = sum_m c[x, y, z, m] c[a, b, m, l]
        np.matmul(c.reshape(n**3, n), c[a], out=defect.reshape(n, n**3, n))
        # {{a, b, x}, y, z}_l = sum_m c[a, b, x, m] c[m, y, z, l]
        np.matmul(c[a].reshape(n * n, n), c.reshape(n, n**3), out=outer.reshape(n * n, n**3))
        # {x, {b, a, y}, z}_l = sum_m c[b, a, y, m] c[x, m, z, l]
        np.matmul(c[:, a, None], c.reshape(n, n, n * n), out=middle.reshape(n, n, n, n * n))
        defect -= outer
        defect += middle
        # {x, y, {a, b, z}} is {{a, b, z}, y, x}: the outer slots are symmetric
        defect -= outer.transpose(0, 3, 2, 1, 4)
        np.einsum("bxyzl,bxyzl->bxyz", defect, defect, out=norms[a])
    return np.sqrt(norms, out=norms)


def _jordan_defects(u, vecs, work: _Workspace) -> np.ndarray:
    """Per-sample norm of the Jordan identity's defect at rows (a, b, x, y, z);
    the maps go to the three result stacks of ``work``."""
    a, b, x, y, z = vecs
    # L(a,b) and L(x,y) each act twice: five kernel calls, not seven
    ab, xy = _product_maps(u, a, b, work, 0), _product_maps(u, x, y, work, 1)
    lhs = _apply_maps(ab, _apply_maps(xy, z))
    t1 = _apply_maps(_product_maps(u, _apply_maps(ab, x), y, work, 2), z)
    ba_y = _apply_maps(_product_maps(u, b, a, work, 2), y)
    t2 = _apply_maps(_product_maps(u, x, ba_y, work, 2), z)
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
    rows = min(batch_rows(4 * system.dim**2), samples)
    u = system.unfolding("triple")
    work = _Workspace(system.dim, rows)
    # row by row, the blocks draw the same stream as one draw per sample
    for first in range(0, samples, rows):
        coords = rng.standard_normal((min(rows, samples - first), system.dim))
        coords = coords[np.any(coords, axis=1)]
        cubes = _apply_maps(_product_maps(u, coords, coords, work), coords)
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
    # one n^4 defect at a time beside ``applied``, reduced in place
    outer = in_slots(c, j)
    outer -= applied
    outer_residual = _max_abs(outer)
    del outer
    middle = in_slots(c, None, j)
    middle += applied
    square = j @ j + np.eye(system.dim)
    residuals = {
        "outer_linearity": outer_residual,
        "middle_conjugate_linearity": _max_abs(middle),
        "j_squares_to_minus_identity": _max_abs(square),
    }
    worst = max(residuals.values())
    return Report(
        statement_id=f"complex_structure_compatibility[{system.name}]",
        status=STATUS_PASS if worst <= tol else STATUS_FAIL,
        residuals=residuals,
        witnesses={} if worst <= tol else {"tolerance": tol},
    )


def _max_abs(defect: np.ndarray) -> float:
    """Largest absolute entry of ``defect``, which it overwrites; 0.0 when empty."""
    return float(np.abs(defect, out=defect).max()) if defect.size else 0.0


@timed
def check_hermitian_surrogate(system: TripleSystem) -> Report:
    """Advisory check: L(a,a) symmetric with nonnegative spectrum in coordinates.

    The constructed bases are orthonormal for the natural positive form of
    each factor, so coordinate symmetry of L(a,a) is the finite-dimensional
    surrogate for hermitian-ness.  Advisory only, never acceptance-blocking.
    """
    i, j, k, l = np.unravel_index(system._entries.index, (system.dim,) * 4)
    on = i == j  # the listed entries of the slabs c[i, i]: L(e_i, e_i) = c[i, i].T, stacked
    m = np.zeros((system.dim,) * 3)
    m[i[on], l[on], k[on]] = system._entries.values[on]
    mt = m.transpose(0, 2, 1)
    worst_asym = float(np.abs(m - mt).max(initial=0.0))
    # min(0.0, ...) reads +0.0, not a -0.0 eigenvalue, when none is negative
    min_eig = min(0.0, float(np.linalg.eigvalsh(0.5 * (m + mt)).min(initial=0.0)))
    return Report(
        statement_id=f"hermitian_surrogate[{system.name}]",
        status=STATUS_ADVISORY,
        residuals={"max_asymmetry": worst_asym, "min_eigenvalue": min_eig},
    )


# -- serialization ------------------------------------------------------------


def _wire_payload(system: TripleSystem) -> dict:
    """The wire format with the tensor as the system's ``FlatEntries`` and J
    as a flat ndarray view; Unsupported when the factor_kind cannot
    carry the blocks, so the file would not load."""
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
        "tensor": system._entries,
        "norm_kind": system.norm_kind,
        "rank_hint": system.rank_hint,
        "complex_structure": None if j is None else j.reshape(-1),
        "factor_kind": system.factor_kind,
    }


def system_to_json(system: TripleSystem) -> dict:
    """The wire format: exactly these keys, tensor flat in (i,j,k,l) row-major."""
    payload = _wire_payload(system)
    payload["tensor"] = payload["tensor"].flat()
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in payload.items()
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
    """The system of a wire-format dict, whose arrays are only read.  A tensor
    as ``FlatEntries``, which ``load_system`` reads, is handed to the
    constructor as its lists; a list of numbers is a dense tensor."""
    _require_keys(payload, ("name", "dim", "tensor", "norm_kind"), "factor")
    n = _wire_dim(payload)
    tensor = payload["tensor"]
    if isinstance(tensor, FlatEntries):
        if tensor.size != n**4:
            raise InvalidInput(f"tensor length {tensor.size} != dim^4 = {n**4}")
        tensor = FlatEntries((n,) * 4, tensor.index, tensor.values)
    else:
        tensor = _wire_floats(payload, "tensor", n**4, "dim^4").reshape(n, n, n, n)
    j = payload.get("complex_structure")
    if j is not None:
        j = _wire_floats(payload, "complex_structure", n * n, "dim^2").reshape(n, n)
    from .factors import blocks_from_kind  # late import, see check_norm_axiom

    factor_kind = str(payload.get("factor_kind", "custom"))
    return TripleSystem(
        name=str(payload["name"]),
        tensor=tensor,
        norm_kind=str(payload["norm_kind"]),
        rank_hint=payload.get("rank_hint"),
        complex_structure=j,
        factor_kind=factor_kind,
        blocks=blocks_from_kind(factor_kind),
    )


def save_system(system: TripleSystem, path) -> None:
    """Write the wire format; ``canonical_bytes`` writes the tensor from its lists."""
    write_json(_wire_payload(system), path)


def load_system(path) -> TripleSystem:
    """Read the wire format; ``read_json_array`` parses only the tensor's nonzero
    entries, into lists that the constructor symmetrizes into the system's own."""
    return system_from_json(read_json_array(path, "factor", "tensor"))


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
