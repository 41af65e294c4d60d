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

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptySpec, InvalidInput, InvalidSpec, Unsupported
from .triple_core import Element, LinearMap, TripleSystem

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
    """Embed an (m, n, 4) quaternionic matrix as a 2m x 2n complex matrix.

    Each entry w + xi + yj + zk maps to [[w+xi, y+zi], [-y+zi, w-xi]]; the
    embedding is an isometric *-homomorphism, so operator norms agree.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape[0], x.shape[1]
    z1 = x[..., 0] + 1j * x[..., 1]
    z2 = x[..., 2] + 1j * x[..., 3]
    out = np.empty((2 * m, 2 * n), dtype=complex)
    out[0::2, 0::2] = z1
    out[0::2, 1::2] = z2
    out[1::2, 0::2] = -np.conj(z2)
    out[1::2, 1::2] = np.conj(z1)
    return out


def complex_matrix_to_quaternion(z) -> np.ndarray:
    """Inverse of :func:`quaternion_matrix_to_complex` on its image."""
    z = np.asarray(z, dtype=complex)
    z1 = z[0::2, 0::2]
    z2 = z[0::2, 1::2]
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
        match = _LABEL_RE.match(label.strip())
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
    """Stacked representation basis plus the field tag ('R', 'C' or 'H')."""
    kind = spec.kind
    field = _MATRIX_FIELD[kind]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)

    def unit(m, n, u, v, dtype=float):
        e = np.zeros((m, n), dtype=dtype)
        e[u, v] = 1.0
        return e

    def qunit(n, u, v, component):
        e = np.zeros((n, n, 4))
        e[u, v, component] = 1.0
        return e

    basis = []
    if kind == "I_R":
        m, n = spec.dims
        basis = [unit(m, n, u, v) for u in range(m) for v in range(n)]
    elif kind == "I_C":
        m, n = spec.dims
        for u in range(m):
            for v in range(n):
                basis.append(unit(m, n, u, v, complex))
                basis.append(1j * unit(m, n, u, v, complex))
    elif kind == "I_H":
        m, n = spec.dims
        for u in range(m):
            for v in range(n):
                for comp in range(4):
                    e = np.zeros((m, n, 4))
                    e[u, v, comp] = 1.0
                    basis.append(e)
    elif kind == "II_R":
        n = spec.dims[0]
        basis = [
            (unit(n, n, u, v) - unit(n, n, v, u)) * inv_sqrt2
            for u in range(n)
            for v in range(u + 1, n)
        ]
    elif kind == "III_R":
        n = spec.dims[0]
        for u in range(n):
            for v in range(u, n):
                if u == v:
                    basis.append(unit(n, n, u, u))
                else:
                    basis.append((unit(n, n, u, v) + unit(n, n, v, u)) * inv_sqrt2)
    elif kind == "II_C":
        n = spec.dims[0]
        for u in range(n):
            for v in range(u, n):
                if u == v:
                    basis.append(unit(n, n, u, u, complex))
                else:
                    basis.append((unit(n, n, u, v, complex) + unit(n, n, v, u, complex)) * inv_sqrt2)
                    basis.append((unit(n, n, u, v, complex) - unit(n, n, v, u, complex)) * 1j * inv_sqrt2)
    elif kind == "II_H":
        n = spec.dims[0]
        for u in range(n):
            for v in range(u, n):
                if u == v:
                    basis.append(qunit(n, u, u, 0))
                else:
                    for comp in range(4):
                        e = qunit(n, u, v, comp) + _QCONJ_SIGNS[comp] * qunit(n, v, u, comp)
                        basis.append(e * inv_sqrt2)
    elif kind == "III_H":
        n = spec.dims[0]
        for u in range(n):
            for v in range(u, n):
                if u == v:
                    for comp in (1, 2, 3):
                        basis.append(qunit(n, u, u, comp))
                else:
                    for comp in range(4):
                        e = qunit(n, u, v, comp) - _QCONJ_SIGNS[comp] * qunit(n, v, u, comp)
                        basis.append(e * inv_sqrt2)
    return field, np.stack(basis)


@lru_cache(maxsize=64)
def _basis_for(label: str):
    return _matrix_basis(FactorSpec.parse(label))


def _matrix_tensor(field: str, basis: np.ndarray) -> np.ndarray:
    """Structure constants of {x,y,z} = (x y* z + z y* x) / 2 in the given basis."""
    if field == "R":
        pair = np.einsum("iuw,jvw->ijuv", basis, basis, optimize=True)
        prod = np.einsum("ijuv,kvw->ijkuw", pair, basis, optimize=True)
        prod = 0.5 * (prod + prod.transpose(2, 1, 0, 3, 4))
        return np.einsum("ijkuw,luw->ijkl", prod, basis, optimize=True)
    if field == "C":
        pair = np.einsum("iuw,jvw->ijuv", basis, np.conj(basis), optimize=True)
        prod = np.einsum("ijuv,kvw->ijkuw", pair, basis, optimize=True)
        prod = 0.5 * (prod + prod.transpose(2, 1, 0, 3, 4))
        coeff = np.einsum("ijkuw,luw->ijkl", prod, np.conj(basis), optimize=True)
        return np.ascontiguousarray(coeff.real)
    adjoint = np.stack([_qmat_adjoint(b) for b in basis])
    pair = np.einsum("iuva,jvwb,abg->ijuwg", basis, adjoint, QMUL, optimize=True)
    prod = np.einsum("ijuvg,kvwh,ghf->ijkuwf", pair, basis, QMUL, optimize=True)
    prod = 0.5 * (prod + prod.transpose(2, 1, 0, 3, 4, 5))
    return np.einsum("ijkuwf,luwf->ijkl", prod, basis, optimize=True)


def _interleaved_j(pairs: int) -> np.ndarray:
    return np.kron(np.eye(pairs), np.array([[0.0, -1.0], [1.0, 0.0]]))


def _spin_real_tensor(r: int, s: int) -> np.ndarray:
    n = r + s
    eye = np.eye(n)
    sig = np.concatenate([np.ones(r), -np.ones(s)])
    tensor = (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("jk,il->ijkl", eye, eye)
        - np.einsum("ik,jl,i,j->ijkl", eye, eye, sig, sig)
    )
    return tensor


def _spin_complex_tensor(n: int) -> np.ndarray:
    vecs = np.zeros((2 * n, n), dtype=complex)
    for t in range(n):
        vecs[2 * t, t] = 1.0
        vecs[2 * t + 1, t] = 1j
    inner = np.einsum("ia,ja->ij", vecs, np.conj(vecs))
    bilinear = np.einsum("ia,ka->ik", vecs, vecs)
    value = (
        np.einsum("ij,ka->ijka", inner, vecs)
        + np.einsum("kj,ia->ijka", inner, vecs)
        - np.einsum("ik,ja->ijka", bilinear, np.conj(vecs))
    )
    tensor = np.empty((2 * n,) * 4)
    tensor[..., 0::2] = value.real
    tensor[..., 1::2] = value.imag
    return tensor


def build_factor(spec) -> TripleSystem:
    """Construct the triple system for a factor specification."""
    if isinstance(spec, str):
        spec = FactorSpec.parse(spec)
    kind = spec.kind
    if kind == "SPIN_R" and sum(spec.dims) == 2:
        warnings.warn(
            "spin factors are classified for total dimension >= 3; "
            f"{spec.label()} is built for toy tests only",
            stacklevel=2,
        )
    if kind in _MATRIX_FIELD:
        field, basis = _basis_for(spec.label())
        tensor = _matrix_tensor(field, basis)
        complex_structure = _interleaved_j(spec.dims[0] * spec.dims[1]) if kind == "I_C" else None
    elif kind == "SPIN_R":
        tensor = _spin_real_tensor(*spec.dims)
        complex_structure = None
    else:  # SPIN_C
        tensor = _spin_complex_tensor(spec.dims[0])
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
    tensor = np.zeros((2 * n,) * 4)
    for e1 in (0, 1):
        for e2 in (0, 1):
            for e3 in (0, 1):
                # phase i^e1 * (-i)^e2 * i^e3 decides sign and real/imag slot
                k = (e1 - e2 + e3) % 4
                sign = 1.0 if k in (0, 1) else -1.0
                tensor[e1::2, e2::2, e3::2, (k % 2)::2] = sign * system.tensor
    return TripleSystem(
        name=f"complexified({system.name})",
        tensor=tensor,
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
    tensor = np.zeros((total,) * 4)
    offset = 0
    blocks = []
    for s in systems:
        sl = slice(offset, offset + s.dim)
        tensor[sl, sl, sl, sl] = s.tensor
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
        tensor=tensor,
        norm_kind="product",
        rank_hint=rank_hint,
        complex_structure=j,
        factor_kind=label,
        blocks=tuple(blocks),
    )


def as_real_form(system: TripleSystem) -> TripleSystem:
    """The same system viewed as a real form: the complex structure is dropped."""
    return TripleSystem(
        name=f"realform({system.name})",
        tensor=system.tensor,
        norm_kind=system.norm_kind,
        rank_hint=system.rank_hint,
        complex_structure=None,
        factor_kind=f"realform({system.factor_kind})",
        blocks=system.blocks,
    )


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
    """Matrix representation of a coordinate vector of a matrix-kind factor."""
    spec = FactorSpec.parse(label)
    if spec.kind not in _MATRIX_FIELD:
        raise Unsupported(f"{label} has no matrix representation")
    field, basis = _basis_for(label)
    coords = np.asarray(coords, dtype=float)
    if field == "C":
        return field, np.einsum("i,iuv->uv", coords.astype(complex), basis)
    return field, np.einsum("i,i...->...", coords, basis)


def representation_to_coords(label: str, rep) -> np.ndarray:
    field, basis = _basis_for(label)
    if field == "R":
        return np.einsum("uv,iuv->i", np.asarray(rep, dtype=float), basis)
    if field == "C":
        rep = np.asarray(rep, dtype=complex)
        return np.einsum("uv,iuv->i", rep, np.conj(basis)).real
    return np.einsum("uva,iuva->i", np.asarray(rep, dtype=float), basis)


def _coords_to_complex_vector(coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    return coords[0::2] + 1j * coords[1::2]


def _operator_norm(label: str, coords) -> float:
    field, rep = coords_to_representation(label, coords)
    if field == "H":
        rep = quaternion_matrix_to_complex(rep)
    sing = np.linalg.svd(rep, compute_uv=False)
    return float(sing[0]) if sing.size else 0.0


def _spin_norm(label: str, coords) -> float:
    spec = FactorSpec.parse(label)
    coords = np.asarray(coords, dtype=float)
    if spec.kind == "SPIN_R":
        r = spec.dims[0]
        # X1 + X2 split with the l1 combination of the two Hilbert norms;
        # this equals the generic spin-norm formula for the real conjugation.
        return float(np.linalg.norm(coords[:r]) + np.linalg.norm(coords[r:]))
    v = _coords_to_complex_vector(coords)
    quad = float(np.real(np.vdot(v, v)))
    bilin = abs(complex(np.sum(v * v)))
    return float(np.sqrt(quad + np.sqrt(max(quad * quad - bilin * bilin, 0.0))))


def _norm_for_kind(label: str, norm_kind: str, coords) -> float:
    wrapper, parts = _split_label(label)
    if wrapper == "realform":  # a real form keeps the coordinates and the norm
        return _norm_for_kind(parts[0], norm_kind, coords)
    if wrapper == "complexified":
        raise Unsupported(f"no norm is defined for factor kind {label!r}")
    if norm_kind == "hilbert":
        return float(np.linalg.norm(coords))
    if norm_kind == "spin":
        return _spin_norm(label, coords)
    if norm_kind == "operator":
        return _operator_norm(label, coords)
    if norm_kind == "product":
        blocks = blocks_from_kind(label)
        if blocks is None:
            raise Unsupported(f"product norm needs per-summand factor kinds, got {label!r}")
        coords = np.asarray(coords, dtype=float)
        worst = 0.0
        for offset, length, part in blocks:
            part_norm_kind = _default_norm_kind(part)
            worst = max(worst, _norm_for_kind(part, part_norm_kind, coords[offset : offset + length]))
        return worst
    raise Unsupported(f"unknown norm kind {norm_kind!r}")


def _default_norm_kind(label: str) -> str:
    wrapper, parts = _split_label(label)
    if wrapper == "sum":
        return "product"
    if wrapper == "realform":
        return _default_norm_kind(parts[0])
    try:
        return FactorSpec.parse(label).norm_kind()
    except InvalidSpec as exc:
        raise Unsupported(f"no norm is defined for factor kind {label!r}") from exc


def element_norm(system: TripleSystem, coords) -> float:
    """The factor's own norm of a coordinate vector.

    Supported for constructed factors, their direct sums and real forms;
    complexified systems have no recognized norm and raise Unsupported.
    """
    return _norm_for_kind(system.factor_kind, system.norm_kind, coords)


# -- odd cube roots via the matrix representation -------------------------------


def odd_cube_root_coords(label: str, coords) -> np.ndarray:
    """Closed-form odd cube root U s^(1/3) V* through the factor's representation."""
    field, rep = coords_to_representation(label, coords)
    if field == "H":
        rep = quaternion_matrix_to_complex(rep)
    u, s, vt = np.linalg.svd(rep, full_matrices=False)
    root = (u * np.cbrt(s)) @ vt
    if field == "H":
        root = complex_matrix_to_quaternion(root)
    return representation_to_coords(label, root)


def is_matrix_kind(label: str) -> bool:
    try:
        return FactorSpec.parse(label).kind in _MATRIX_FIELD
    except InvalidSpec:
        return False


# -- canonical tripotents and rank witnesses ------------------------------------


def _tripotent_coord_list(label: str) -> list:
    spec = FactorSpec.parse(label)
    kind, dims = spec.kind, spec.dims
    dim = spec.dim()
    out = []

    def basis_vec(i, scale=1.0):
        v = np.zeros(dim)
        v[i] = scale
        return v

    if kind in ("I_R", "I_C", "I_H", "III_R", "II_C", "II_H", "III_H"):
        out.append(basis_vec(0))
    if kind == "II_R":
        out.append(basis_vec(0, np.sqrt(2.0)))
    if kind == "SPIN_R":
        r, s = dims
        out.append(basis_vec(0))
        if s >= 1:
            v = np.zeros(dim)
            v[0] = 0.5
            v[r] = 0.5
            out.append(v)
    if kind == "SPIN_C":
        out.append(basis_vec(0))
        if dims[0] >= 2:
            v = np.zeros(dim)
            v[0] = 0.5
            v[3] = 0.5  # (e1 + i e2) / 2
            out.append(v)
    return out


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
    spec = FactorSpec.parse(label)
    kind, dims = spec.kind, spec.dims
    dim = spec.dim()
    out = []

    def basis_vec(i, scale=1.0):
        v = np.zeros(dim)
        v[i] = scale
        return v

    if kind in ("I_R", "I_C", "I_H"):
        m, n = dims
        per_unit = {"I_R": 1, "I_C": 2, "I_H": 4}[kind]
        for t in range(min(m, n)):
            out.append(basis_vec(per_unit * (t * n + t)))
    elif kind == "II_R":
        n = dims[0]
        pair_index = {}
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                pair_index[(u, v)] = idx
                idx += 1
        for t in range(n // 2):
            out.append(basis_vec(pair_index[(2 * t, 2 * t + 1)], np.sqrt(2.0)))
    elif kind in ("III_R", "II_C", "II_H", "III_H"):
        n = dims[0]
        idx = 0
        per_diag = {"III_R": 1, "II_C": 1, "II_H": 1, "III_H": 3}[kind]
        per_off = {"III_R": 1, "II_C": 2, "II_H": 4, "III_H": 4}[kind]
        for u in range(n):
            out.append(basis_vec(idx))
            idx += per_diag + per_off * (n - 1 - u)
    elif kind == "SPIN_R":
        r, s = dims
        if s == 0:
            out.append(basis_vec(0))
        else:
            u = np.zeros(dim)
            u[0], u[r] = 0.5, 0.5
            v = np.zeros(dim)
            v[0], v[r] = 0.5, -0.5
            out.extend([u, v])
    elif kind == "SPIN_C":
        if dims[0] == 1:
            out.append(basis_vec(0))
        else:
            u = np.zeros(dim)
            u[0], u[3] = 0.5, 0.5
            v = np.zeros(dim)
            v[0], v[3] = 0.5, -0.5
            out.extend([u, v])
    return out


def canonical_rank_witness(system: TripleSystem) -> list:
    """A pairwise-orthogonal family of nonzero elements realizing rank_hint."""
    return _embedded(system, _witness_coord_list)
