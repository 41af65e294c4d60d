"""Constructors for generalized real Cartan factors and their combinations.

Basis conventions (fixed so serialized tensors are bit-reproducible):

* matrix units are enumerated row-major;
* realified complex entries store the real slot before the imaginary slot,
  per unit (so the canonical basis of realified C^2 is
  (1,0), (i,0), (0,1), (0,i));
* quaternionic entries store components in the order (1, i, j, k) per unit;
* symmetric/hermitian kinds enumerate index pairs (u, v) with u <= v
  row-major, diagonal units first within each pair slot;
* spin factors list the X1 coordinates before the X2 coordinates.

All bases are orthonormal for the natural positive inner product of the
factor (real Frobenius form for matrix kinds, the Hilbert inner product for
spin kinds), so coordinate norms agree with the underlying Hilbert norms.

Naming note: the hermitian/skew split between the type-2 and type-3 labels
follows the real classification used here (II_C hermitian, II_R skew,
II_H hermitian, III_R symmetric, III_H skew).  The hermitian II_C is a real
form, so it carries no complex structure even though its entries are complex.
"""

from __future__ import annotations

import copy
import re
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptySpec, InvalidInput, InvalidSpec, Unsupported
from .numerics import row_dots, row_norms
from .report import FlatEntries
from .triple_core import Element, LinearMap, TripleSystem, check_dim

# -- quaternion arithmetic ----------------------------------------------------

# Hamilton product tensor: (ab)_g = sum_{a,b} QMUL[a,b,g] a_a b_b,
# components ordered (1, i, j, k).
QMUL = np.zeros((4, 4, 4))
for _b in range(4):
    QMUL[0, _b, _b] = 1.0
    QMUL[_b, 0, _b] = 1.0
for _a in (1, 2, 3):
    QMUL[_a, _a, 0] = -1.0
for _a, _b, _g in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
    QMUL[_a, _b, _g] = 1.0
    QMUL[_b, _a, _g] = -1.0

_QCONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x i + y j + z k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @property
    def components(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(self.components + other.components))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*qmul(self.components, other.components))
        return Quaternion(*(self.components * float(other)))

    __rmul__ = __mul__

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def left_matrix(self) -> np.ndarray:
        """Matrix of p -> q*p on (1, i, j, k) coordinates; exact entries."""
        return np.einsum("abg,a->gb", QMUL, self.components)


def qmul(a, b) -> np.ndarray:
    """Hamilton product on trailing component axes, broadcasting over the rest."""
    return np.einsum("...a,...b,abg->...g", a, b, QMUL)


def qconj(a) -> np.ndarray:
    return np.asarray(a) * _QCONJ_SIGNS


def _qmat_adjoint(x) -> np.ndarray:
    return qconj(x).transpose(1, 0, 2)


def quaternion_matrix_to_complex(x) -> np.ndarray:
    """Embed an (..., m, n, 4) quaternionic matrix as a 2m x 2n complex matrix.

    Each entry w + xi + yj + zk maps to [[w+xi, y+zi], [-y+zi, w-xi]]; the
    embedding is an isometric *-homomorphism, so operator norms agree.
    Leading axes index a stack of matrices.
    """
    x = np.asarray(x, dtype=float)
    z1 = x[..., 0] + 1j * x[..., 1]
    z2 = x[..., 2] + 1j * x[..., 3]
    out = np.empty(z1.shape[:-2] + (2 * z1.shape[-2], 2 * z1.shape[-1]), dtype=complex)
    out[..., 0::2, 0::2] = z1
    out[..., 0::2, 1::2] = z2
    out[..., 1::2, 0::2] = -np.conj(z2)
    out[..., 1::2, 1::2] = np.conj(z1)
    return out


def complex_matrix_to_quaternion(z) -> np.ndarray:
    """Inverse of :func:`quaternion_matrix_to_complex` on its image."""
    z = np.asarray(z, dtype=complex)
    z1 = z[..., 0::2, 0::2]
    z2 = z[..., 0::2, 1::2]
    out = np.empty(z1.shape + (4,))
    out[..., 0] = z1.real
    out[..., 1] = z1.imag
    out[..., 2] = z2.real
    out[..., 3] = z2.imag
    return out


# -- factor specifications ----------------------------------------------------

_MATRIX_FIELD = {
    "I_R": "R",
    "I_C": "C",
    "I_H": "H",
    "II_R": "R",
    "II_C": "C",
    "II_H": "H",
    "III_R": "R",
    "III_H": "H",
}
_TWO_DIM_KINDS = ("I_R", "I_C", "I_H", "SPIN_R")
_KINDS = tuple(_MATRIX_FIELD) + ("SPIN_R", "SPIN_C")

_LABEL_RE = re.compile(r"^([A-Z_]+)\(([0-9]+(?:,[0-9]+)?)\)$")


@dataclass(frozen=True)
class FactorSpec:
    """A factor kind plus its defining dimensions."""

    kind: str
    dims: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown factor kind {self.kind!r}")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        expected = 2 if self.kind in _TWO_DIM_KINDS else 1
        if len(dims) != expected:
            raise InvalidSpec(f"{self.kind} needs {expected} dimension(s), got {dims}")
        if self.kind == "SPIN_R":
            r, s = dims
            if r < 1 or s < 0 or r + s < 2:
                raise InvalidSpec(f"SPIN_R needs r >= 1, s >= 0, r + s >= 2, got {dims}")
        elif any(d < 1 for d in dims):
            raise InvalidSpec(f"{self.kind} dims must be >= 1, got {dims}")
        if self.kind == "II_R" and dims[0] < 2:
            raise InvalidSpec("II_R needs n >= 2 (skew 1 x 1 matrices vanish)")

    @staticmethod
    def parse(label: str) -> "FactorSpec":
        match = _LABEL_RE.match(label.strip()) if isinstance(label, str) else None
        if not match:
            raise InvalidSpec(f"cannot parse factor label {label!r}")
        kind = match.group(1)
        dims = tuple(int(d) for d in match.group(2).split(","))
        return FactorSpec(kind, dims)

    def label(self) -> str:
        return f"{self.kind}({','.join(str(d) for d in self.dims)})"

    def dim(self) -> int:
        """Real dimension of the constructed system."""
        kind, dims = self.kind, self.dims
        if kind == "I_R":
            return dims[0] * dims[1]
        if kind == "I_C":
            return 2 * dims[0] * dims[1]
        if kind == "I_H":
            return 4 * dims[0] * dims[1]
        if kind == "II_R":
            return dims[0] * (dims[0] - 1) // 2
        if kind == "II_C":
            return dims[0] * dims[0]
        if kind == "II_H":
            return dims[0] * (2 * dims[0] - 1)
        if kind == "III_R":
            return dims[0] * (dims[0] + 1) // 2
        if kind == "III_H":
            return dims[0] * (2 * dims[0] + 1)
        if kind == "SPIN_R":
            return dims[0] + dims[1]
        return 2 * dims[0]  # SPIN_C

    def rank(self) -> int:
        """Rank from the classification; certified only as metadata."""
        kind, dims = self.kind, self.dims
        if kind in ("I_R", "I_C", "I_H"):
            return min(dims)
        if kind == "II_R":
            return dims[0] // 2
        if kind == "SPIN_R":
            return 1 if dims[1] == 0 else 2
        if kind == "SPIN_C":
            return 2 if dims[0] >= 2 else 1
        return dims[0]  # II_C, II_H, III_R, III_H

    def norm_kind(self) -> str:
        if self.kind == "SPIN_R":
            return "hilbert" if self.dims[1] == 0 else "spin"
        if self.kind == "SPIN_C":
            return "spin"
        return "operator"


# -- bases in the matrix representation ---------------------------------------


def _matrix_basis(spec: FactorSpec):
    """Stacked representation basis plus the field tag ('R', 'C' or 'H').

    One rule for every matrix kind: e = eps E_uv for each unit eps of the
    field, (1), (1, i) or (1, i, j, k).  Type I takes every e; types II and
    III take e + sign e* over the pairs u <= v, with sign -1 for the skew
    kinds II_R and III_H, drop the zero results and scale the rest to unit
    norm.
    """
    kind = spec.kind
    field = _MATRIX_FIELD[kind]
    type_one = kind.startswith("I_")
    m, n = spec.dims if type_one else spec.dims * 2
    units = {"R": (1.0,), "C": (1.0 + 0j, 1j), "H": tuple(np.eye(4))}[field]
    sign = -1.0 if kind in ("II_R", "III_H") else 1.0
    basis = []
    for u in range(m):
        for v in range(0 if type_one else u, n):
            for unit in units:
                e = np.zeros((m, n) + np.shape(unit), dtype=np.result_type(unit))
                e[u, v] = unit
                if not type_one:
                    e = e + sign * (_qmat_adjoint(e) if field == "H" else np.conj(e).T)
                    if not e.any():
                        continue
                    e = e * (0.5 if u == v else 1.0 / np.sqrt(2.0))
                basis.append(e)
    return field, np.stack(basis)


@lru_cache(maxsize=64)
def _basis_for(label: str):
    return _matrix_basis(FactorSpec.parse(label))


def _real_embedding(field: str, basis: np.ndarray):
    """Real matrices rho_i of the basis elements and the factor d of the trace form.

    R is embedded as itself, each complex entry a + bi as the 2 x 2 block
    [[a, -b], [b, a]], and H first into C by
    :func:`quaternion_matrix_to_complex`.  rho is a *-homomorphism, so
    rho(x*) = rho(x)^T, and tr(rho(x) rho(y)^T) = d Re tr(x y*) with
    d = 1, 2, 4 for R, C, H.
    """
    if field == "R":
        return basis, 1
    z = quaternion_matrix_to_complex(basis) if field == "H" else basis
    rho = np.empty(z.shape[:-2] + (2 * z.shape[-2], 2 * z.shape[-1]))
    rho[..., 0::2, 0::2] = z.real
    rho[..., 0::2, 1::2] = -z.imag
    rho[..., 1::2, 0::2] = z.imag
    rho[..., 1::2, 1::2] = z.real
    return rho, 2 if field == "C" else 4


def _matrix_tensor(field: str, basis: np.ndarray) -> np.ndarray:
    """Structure constants of {x,y,z} = (x y* z + z y* x) / 2 in the given basis.

    The basis is orthonormal for Re tr(x y*), so with the real matrices
    rho_i of :func:`_real_embedding` and their factor d

        c[i,j,k,l] = (tr(rho_i rho_j^T rho_k rho_l^T)
                      + tr(rho_k rho_j^T rho_i rho_l^T)) / (2d).

    With the rows Z[(i,j)] = [vec(rho_i rho_j^T), vec(rho_j^T rho_i)], the dot
    product Z[(i,j)] . Z[(l,k)] is the sum of the two traces.  So the
    (n^2, n^2) unfolding of c is one GEMM of Z with Z_swap, its rows
    reindexed (i,j) -> (j,i), and the tensor comes out in C order without
    any n^3 m^2 product stack.
    """
    rho, d = _real_embedding(field, basis)
    n, rows, cols = rho.shape
    z = np.empty((n, n, rows * rows + cols * cols))
    left = rho.reshape(n * rows, cols)
    outer = z[..., : rows * rows].reshape(n, n, rows, rows)
    outer[...] = (left @ left.T).reshape(n, rows, n, rows).transpose(0, 2, 1, 3)
    right = rho.transpose(1, 0, 2).reshape(rows, n * cols)
    inner = z[..., rows * rows :].reshape(n, n, cols, cols)
    inner[...] = (right.T @ right).reshape(n, cols, n, cols).transpose(2, 0, 1, 3)
    swapped = z.transpose(1, 0, 2).reshape(n * n, -1)
    c = z.reshape(n * n, -1) @ swapped.T
    c *= 1.0 / (2 * d)
    return c.reshape((n,) * 4)


def _interleaved_j(pairs: int) -> np.ndarray:
    return np.kron(np.eye(pairs), np.array([[0.0, -1.0], [1.0, 0.0]]))


def _spin_real_entries(r: int, s: int) -> FlatEntries:
    """c[i,j,k,l] = d_ij d_kl + d_jk d_il - d_ik d_jl s_i s_j, with s_i = 1 on
    the first r coordinates and -1 on the other s.  For i != k the three
    Kronecker-delta terms sit at distinct entries [i,i,k,k], [i,k,k,i] and
    [i,k,i,k]; for i = k they meet at [i,i,i,i], where they sum to 1."""
    n = r + s
    sig = np.concatenate([np.ones(r), -np.ones(s)])
    i, k = np.indices((n, n)).reshape(2, -1)
    apart = i != k
    i, k = i[apart], k[apart]
    index = np.concatenate(
        [((i * n + i) * n + k) * n + k, ((i * n + k) * n + k) * n + i, ((i * n + k) * n + i) * n + k]
    )
    values = np.concatenate([np.ones(2 * i.size), -sig[i] * sig[k]])
    diagonal = np.arange(n) * (n**3 + n**2 + n + 1)
    index, values = np.append(index, diagonal), np.append(values, np.ones(n))
    order = np.argsort(index, kind="stable")
    return FlatEntries((n,) * 4, index[order], values[order])


# (e1, e2, e3, part, sign) for the parts e (0 real, 1 imaginary) of the three
# slots: the phase i^e1 (-i)^e2 i^e3 of a product of basis coordinates is
# sign times 1 (part 0) or i (part 1).
_PHASES = tuple(
    (e1, e2, e3, (e1 - e2 + e3) % 2, 1.0 if (e1 - e2 + e3) % 4 < 2 else -1.0)
    for e1 in (0, 1)
    for e2 in (0, 1)
    for e3 in (0, 1)
)


def _complexified_entries(real: FlatEntries) -> FlatEntries:
    """The entries of the 2n-dimensional tensor whose part [e1::2, e2::2,
    e3::2, part::2] is sign times the n-dimensional ``real``, per phase of
    ``_PHASES``, written at the entries ``real`` lists, and +0.0 elsewhere."""
    n = real.shape[0]
    # (i, j, k, l) -> (2i, 2j, 2k, 2l) in the C order of the (2n)^4 tensor
    digits = np.unravel_index(np.asarray(real.index, dtype=np.intp), real.shape)
    base = 2 * np.ravel_multi_index(digits, (2 * n,) * 4)
    index, values = [], []
    for e1, e2, e3, part, sign in _PHASES:
        scaled = real.values * sign
        listed = scaled.view(np.uint64) != 0
        index.append(base[listed] + np.ravel_multi_index((e1, e2, e3, part), (2 * n,) * 4))
        values.append(scaled[listed])
    index, values = np.concatenate(index), np.concatenate(values)
    order = np.argsort(index, kind="stable")
    return FlatEntries((2 * n,) * 4, index[order], values[order])


def build_factor(spec) -> TripleSystem:
    """Construct the triple system for a factor specification."""
    if isinstance(spec, str):
        spec = FactorSpec.parse(spec)
    check_dim(spec.dim())
    kind = spec.kind
    if kind == "SPIN_R" and sum(spec.dims) == 2:
        warnings.warn(
            "spin factors are classified for total dimension >= 3; "
            f"{spec.label()} is built for toy tests only",
            stacklevel=2,
        )
    if kind in _MATRIX_FIELD:
        # the GEMM's dense output, which the constructor reads for its entries
        field, basis = _basis_for(spec.label())
        tensor = _matrix_tensor(field, basis)
        complex_structure = _interleaved_j(spec.dims[0] * spec.dims[1]) if kind == "I_C" else None
    elif kind == "SPIN_R":
        tensor = _spin_real_entries(*spec.dims)
        complex_structure = None
    else:  # SPIN_C: the complexification of SPIN_R(n, 0), at its entries only
        tensor = _complexified_entries(_spin_real_entries(spec.dims[0], 0))
        complex_structure = _interleaved_j(spec.dims[0])
    return TripleSystem(
        name=spec.label(),
        tensor=tensor,
        norm_kind=spec.norm_kind(),
        rank_hint=spec.rank(),
        complex_structure=complex_structure,
        factor_kind=spec.label(),
    )


# -- complexification and direct sums -----------------------------------------


def complexify(system: TripleSystem) -> TripleSystem:
    """Canonical complexification of a real form, with interleaved coordinates.

    The product extends so it is J-linear in the outer slots and
    J-conjugate-linear in the middle slot, and restricts to the original
    product on the real part.
    """
    if system.complex_structure is not None:
        raise InvalidInput(f"{system.name} already carries a complex structure")
    n = system.dim
    check_dim(2 * n)
    return TripleSystem(
        name=f"complexified({system.name})",
        tensor=_complexified_entries(system._entries),
        norm_kind=system.norm_kind,
        rank_hint=None,
        complex_structure=_interleaved_j(n),
        factor_kind=f"complexified({system.factor_kind})",
    )


def extend_map_complex(t: LinearMap, target: TripleSystem | None = None) -> LinearMap:
    """Extension x + iy -> T(x) + iT(y) onto the complexification."""
    system = t.system
    if system.complex_structure is not None:
        raise InvalidInput("extend_map_complex expects a map on a real form")
    if target is None:
        target = complexify(system)
    if target.dim != 2 * system.dim:
        raise InvalidInput("target is not a complexification of the map's system")
    return LinearMap(target, np.kron(t.entries, np.eye(2)))


def direct_sum(systems) -> TripleSystem:
    """Orthogonal direct sum; summands become mutually orthogonal ideals."""
    systems = list(systems)
    if not systems:
        raise EmptySpec("direct_sum needs at least one summand")
    if len(systems) == 1:
        return systems[0]
    dims = [s.dim for s in systems]
    total = sum(dims)
    check_dim(total)
    # each summand's entries, shifted onto its diagonal block: in summand
    # order, the flat indices ascend
    index, values = [], []
    offset = 0
    blocks = []
    for s in systems:
        digits = np.unravel_index(s._entries.index, s._entries.shape)
        index.append(np.ravel_multi_index(tuple(d + offset for d in digits), (total,) * 4))
        values.append(s._entries.values)
        blocks.append((offset, s.dim, s.factor_kind))
        offset += s.dim
    if all(s.complex_structure is not None for s in systems):
        j = np.zeros((total, total))
        offset = 0
        for s in systems:
            sl = slice(offset, offset + s.dim)
            j[sl, sl] = s.complex_structure
            offset += s.dim
    else:
        j = None
    hints = [s.rank_hint for s in systems]
    rank_hint = sum(hints) if all(h is not None for h in hints) else None
    label = "sum(" + "|".join(s.factor_kind for s in systems) + ")"
    return TripleSystem(
        name="sum(" + "|".join(s.name for s in systems) + ")",
        tensor=FlatEntries((total,) * 4, np.concatenate(index), np.concatenate(values)),
        norm_kind="product",
        rank_hint=rank_hint,
        complex_structure=j,
        factor_kind=label,
        blocks=tuple(blocks),
    )


def as_real_form(system: TripleSystem) -> TripleSystem:
    """The same system viewed as a real form: the complex structure is dropped.
    It is a copy of the system object, so the two share the one frozen
    tensor, its dense view and the products built from it; its derivation
    spaces are its own, since a space names the system it was computed on."""
    real = copy.copy(system)
    real.name = f"realform({system.name})"
    real.complex_structure = None
    real.factor_kind = f"realform({system.factor_kind})"
    real._unfoldings = dict(system._unfoldings)
    real._spaces = {}
    return real


# -- factor-kind label utilities ----------------------------------------------


def _split_label(label: str):
    """``(wrapper, parts)`` of a ``sum(A|B|...)``, ``realform(X)`` or
    ``complexified(X)`` label, and ``(None, (label,))`` for a factor label."""
    label = label.strip()
    wrapper, _, inner = label.partition("(")
    if wrapper not in ("sum", "realform", "complexified") or not inner.endswith(")"):
        return None, (label,)
    parts = []
    depth = 0
    current = []
    for ch in inner[:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "|" and depth == 0 and wrapper == "sum":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return wrapper, tuple(parts)


def kind_dim(label: str) -> int:
    wrapper, parts = _split_label(label)
    if wrapper is None:
        return FactorSpec.parse(label).dim()
    return (2 if wrapper == "complexified" else 1) * sum(kind_dim(part) for part in parts)


def blocks_from_kind(label: str):
    """(offset, length, kind) per summand of a sum label, through ``realform``
    wrappers (a real form keeps the coordinates); None for any other label."""
    wrapper, parts = _split_label(label)
    if wrapper == "realform":
        return blocks_from_kind(parts[0])
    if wrapper != "sum":
        return None
    blocks = []
    offset = 0
    for part in parts:
        d = kind_dim(part)
        blocks.append((offset, d, part))
        offset += d
    return tuple(blocks)


def _leaves(label: str, offset: int = 0, stride: int = 1) -> list:
    """(factor label, coordinate positions) of each constructed factor in ``label``.

    A sum places its parts one after another, ``realform(X)`` keeps the
    coordinates of X, and ``complexified(X)`` puts them on the real slots, the
    even coordinates.
    """
    wrapper, parts = _split_label(label)
    if wrapper is None:
        return [(label, offset + stride * np.arange(kind_dim(label)))]
    if wrapper == "complexified":
        stride *= 2
    out = []
    for part in parts:
        out += _leaves(part, offset, stride)
        offset += stride * kind_dim(part)
    return out


# -- coordinates <-> representations, norms ------------------------------------


def coords_to_representation(label: str, coords):
    """Matrix representation of a matrix-kind factor's coordinates: a vector or a stack of rows."""
    spec = FactorSpec.parse(label)
    if spec.kind not in _MATRIX_FIELD:
        raise Unsupported(f"{label} has no matrix representation")
    field, basis = _basis_for(label)
    coords = np.asarray(coords, dtype=complex if field == "C" else float)
    return field, np.tensordot(coords, basis, axes=(-1, 0))


def representation_to_coords(label: str, rep) -> np.ndarray:
    field, basis = _basis_for(label)
    if field == "R":
        return np.einsum("uv,iuv->i", np.asarray(rep, dtype=float), basis)
    if field == "C":
        rep = np.asarray(rep, dtype=complex)
        return np.einsum("uv,iuv->i", rep, np.conj(basis)).real
    return np.einsum("uva,iuva->i", np.asarray(rep, dtype=float), basis)


def _operator_norms(label: str, coords) -> np.ndarray:
    field, rep = coords_to_representation(label, coords)
    if field == "H":
        rep = quaternion_matrix_to_complex(rep)
    return np.linalg.svd(rep, compute_uv=False)[:, 0]


def _spin_norms(label: str, coords) -> np.ndarray:
    spec = FactorSpec.parse(label)
    if spec.kind == "SPIN_R":
        r = spec.dims[0]
        # X1 + X2 split with the l1 combination of the two Hilbert norms;
        # this equals the generic spin-norm formula for the real conjugation.
        return row_norms(coords[:, :r]) + row_norms(coords[:, r:])
    v = coords[:, 0::2] + 1j * coords[:, 1::2]
    quad = row_dots(np.conj(v), v).real
    s = np.sum(v * v, axis=1)
    bilin = np.hypot(s.real, s.imag)
    return np.sqrt(quad + np.sqrt(np.maximum(quad * quad - bilin * bilin, 0.0)))


def _norms(label: str, norm_kind: str, coords, blocks=None) -> np.ndarray:
    """Norms of the rows of a (b, n) stack; a product's summands are ``blocks`` or the label's."""
    wrapper, parts = _split_label(label)
    if wrapper == "realform":  # a real form keeps the coordinates and the norm
        return _norms(parts[0], norm_kind, coords, blocks)
    if wrapper == "complexified":
        raise Unsupported(f"no norm is defined for factor kind {label!r}")
    if norm_kind == "hilbert":
        return row_norms(coords)
    if norm_kind in ("spin", "operator"):
        return (_spin_norms if norm_kind == "spin" else _operator_norms)(label, coords)
    if norm_kind == "product":
        blocks = blocks_from_kind(label) if blocks is None else blocks
        if blocks is None:
            raise Unsupported(f"product norm needs per-summand factor kinds, got {label!r}")
        norms = [_norms(p, _default_norm_kind(p), coords[:, o : o + d]) for o, d, p in blocks]
        return np.max(norms, axis=0)
    raise Unsupported(f"unknown norm kind {norm_kind!r}")


def _default_norm_kind(label: str) -> str:
    wrapper, parts = _split_label(label)
    if wrapper == "sum":
        return "product"
    if wrapper == "realform":
        return _default_norm_kind(parts[0])
    return FactorSpec.parse(label).norm_kind()


def element_norms(system: TripleSystem, coords) -> np.ndarray:
    """The factor's own norm of each row of a (b, n) coordinate stack, as a (b,) array.

    Supported for constructed factors, their direct sums (summands read from
    ``system.blocks``) and real forms; complexified systems and hand-built
    summands have no recognized norm and raise Unsupported.
    """
    coords = np.asarray(coords, dtype=float)
    try:
        return _norms(system.factor_kind, system.norm_kind, coords, system.blocks)
    except InvalidSpec as exc:  # a label inside names no factor, so no norm formula
        raise Unsupported(f"no norm is defined for factor kind {system.factor_kind!r}") from exc


def element_norm(system: TripleSystem, coords) -> float:
    """The factor's own norm of one coordinate vector."""
    return float(element_norms(system, np.reshape(coords, (1, -1)))[0])


# -- canonical tripotents and rank witnesses ------------------------------------


def _basis_vec(dim: int, i: int, scale=1.0) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = scale
    return v


def _tripotent_coord_list(label: str) -> list:
    """The first rank witness; a spin factor of rank 2 lists e1 before it."""
    spec = FactorSpec.parse(label)
    witness = _witness_coord_list(label)
    if spec.kind in _MATRIX_FIELD or spec.rank() == 1:
        return witness[:1]
    return [_basis_vec(spec.dim(), 0)] + witness[:1]


def _embedded(system: TripleSystem, coord_list) -> list:
    """``coord_list`` of each factor inside the system's label, placed at its coordinates."""
    out = []
    for label, positions in _leaves(system.factor_kind):
        for coords in coord_list(label):
            v = np.zeros(system.dim)
            v[positions] = coords
            out.append(Element(system, v))
    return out


def canonical_tripotents(system: TripleSystem) -> list:
    """A small list of constructor-supplied tripotents for the system."""
    return _embedded(system, _tripotent_coord_list)


def _witness_coord_list(label: str) -> list:
    """Coordinates of a rank witness, read off the basis enumeration.

    A matrix kind takes, for t < rank, the first basis element nonzero at
    (t, t); II_R has a zero diagonal and takes sqrt(2) times the element at
    (2t, 2t + 1).  A spin factor takes e1 at rank 1 and (e1 +- f)/2 at rank 2,
    with f the first X2 coordinate (SPIN_R) or i e2 (SPIN_C).
    """
    spec = FactorSpec.parse(label)
    dim, rank = spec.dim(), spec.rank()
    if spec.kind in _MATRIX_FIELD:
        basis = _basis_for(label)[1]
        skew = spec.kind == "II_R"
        out = []
        for t in range(rank):
            u, v = (2 * t, 2 * t + 1) if skew else (t, t)
            i = next(i for i, e in enumerate(basis) if e[u, v].any())
            out.append(_basis_vec(dim, i, np.sqrt(2.0) if skew else 1.0))
        return out
    e1 = _basis_vec(dim, 0)
    if rank == 1:
        return [e1]
    f = _basis_vec(dim, spec.dims[0] if spec.kind == "SPIN_R" else 3)
    return [(e1 + f) / 2, (e1 - f) / 2]


def canonical_rank_witness(system: TripleSystem) -> list:
    """A pairwise-orthogonal family of nonzero elements realizing rank_hint."""
    return _embedded(system, _witness_coord_list)
