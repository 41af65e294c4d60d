import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triple_lab import (
    FactorSpec,
    Quaternion,
    TripleSystem,
    as_real_form,
    build_factor,
    canonical_rank_witness,
    canonical_tripotents,
    check_jordan_identity,
    check_norm_axiom,
    complexify,
    direct_sum,
    element_norm,
    element_norms,
    extend_map_complex,
    inner_derivation,
    is_derivation,
    is_tripotent,
    triple_product,
)
from triple_lab.errors import EmptySpec, InvalidInput, InvalidSpec, TooLarge, Unsupported
from triple_lab import factors
from triple_lab.factors import (
    QMUL,
    blocks_from_kind,
    complex_matrix_to_quaternion,
    coords_to_representation,
    kind_dim,
    qconj,
    qmul,
    quaternion_matrix_to_complex,
    representation_to_coords,
)
from triple_lab.structure import (
    are_orthogonal,
    cube_root,
    offblock_leakage,
    verify_rank_witness,
)
from triple_lab.triple_core import (
    L_operator,
    load_system,
    save_system,
    system_from_json,
    system_to_json,
)

DIM_TABLE = {
    "I_R(2,2)": (4, 2),
    "I_R(3,1)": (3, 1),
    "I_C(2,1)": (4, 1),
    "I_C(2,2)": (8, 2),
    "I_H(2,1)": (8, 1),
    "II_R(4)": (6, 2),
    "II_C(2)": (4, 2),
    "II_H(2)": (6, 2),
    "III_R(3)": (6, 3),
    "III_H(2)": (10, 2),
    "SPIN_R(3,0)": (3, 1),
    "SPIN_R(3,1)": (4, 2),
    "SPIN_C(3)": (6, 2),
}


@pytest.mark.parametrize("label,expected", sorted(DIM_TABLE.items()))
def test_dimensions_and_rank_hints(label, expected):
    dim, rank = expected
    spec = FactorSpec.parse(label)
    assert spec.dim() == dim
    system = build_factor(label)
    assert system.dim == dim
    assert system.rank_hint == rank
    assert system.factor_kind == label


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        FactorSpec.parse("I_R(2)")
    with pytest.raises(InvalidSpec):
        FactorSpec.parse("IV_R(2,2)")
    with pytest.raises(InvalidSpec):
        FactorSpec("I_R", (0, 2))
    with pytest.raises(InvalidSpec):
        FactorSpec("II_R", (1,))
    with pytest.raises(InvalidSpec):
        FactorSpec("SPIN_R", (1, 0))


def test_small_spin_factor_warns():
    with pytest.warns(UserWarning):
        system = build_factor("SPIN_R(2,0)")
    assert system.dim == 2


def test_quaternion_multiplication_table():
    one, i, j, k = (Quaternion(*row) for row in np.eye(4))
    assert (i * j).components.tolist() == k.components.tolist()
    assert (j * i).components.tolist() == (-1.0 * k).components.tolist()
    assert (j * k).components.tolist() == i.components.tolist()
    assert (k * i).components.tolist() == j.components.tolist()
    for unit in (i, j, k):
        assert (unit * unit).components.tolist() == (-1.0 * one).components.tolist()
    assert i.conjugate().components.tolist() == (-1.0 * i).components.tolist()


def test_left_regular_representation_is_exact_homomorphism():
    basis = [Quaternion(*row) for row in np.eye(4)]
    for p in basis:
        for q in basis:
            lhs = (p * q).left_matrix()
            rhs = p.left_matrix() @ q.left_matrix()
            assert np.array_equal(lhs, rhs)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_quaternion_norm_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(
        np.linalg.norm(qmul(p, q)) - np.linalg.norm(p) * np.linalg.norm(q)
    ) < 1e-10


def test_quaternion_complex_embedding_is_multiplicative():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((3, 2, 4))
    prod = np.einsum("uva,vwb,abg->uwg", x, y, QMUL)
    lhs = quaternion_matrix_to_complex(prod)
    rhs = quaternion_matrix_to_complex(x) @ quaternion_matrix_to_complex(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(complex_matrix_to_quaternion(lhs) - prod)) < 1e-12
    # adjoint compatibility
    adj = qconj(x).transpose(1, 0, 2)
    assert np.max(np.abs(
        quaternion_matrix_to_complex(adj) - quaternion_matrix_to_complex(x).conj().T
    )) < 1e-12


def test_quaternion_embedding_takes_a_stack():
    x = np.random.default_rng(12).standard_normal((5, 2, 3, 4))
    stacked = quaternion_matrix_to_complex(x)
    assert stacked.shape == (5, 4, 6)
    for b in range(5):
        assert np.array_equal(stacked[b], quaternion_matrix_to_complex(x[b]))
    assert np.array_equal(complex_matrix_to_quaternion(stacked), x)


# label: samples; one factor per field at n = 28..36 with fewer samples
MATRIX_KINDS = {
    **dict.fromkeys(["I_R(2,2)", "I_C(2,1)", "I_C(3,1)", "I_C(2,2)", "I_H(2,1)", "II_R(4)",
                     "II_C(2)", "II_H(2)", "III_R(3)", "III_H(2)"], 100),
    **dict.fromkeys(["II_R(8)", "I_C(4,4)", "III_R(8)", "I_H(3,3)"], 20),
}


@pytest.mark.parametrize("label", MATRIX_KINDS)
def test_tensor_product_matches_direct_matrix_evaluation(label):
    # oracle path: reconstruct representations and evaluate (xy*z + zy*x)/2
    # directly, bypassing the structure tensor
    system = build_factor(label)
    rng = np.random.default_rng(42)
    for _ in range(MATRIX_KINDS[label]):
        coords = rng.standard_normal((3, system.dim))
        via_tensor = system.product_arrays(*coords)
        field, x = coords_to_representation(label, coords[0])
        _, y = coords_to_representation(label, coords[1])
        _, z = coords_to_representation(label, coords[2])
        if field == "H":
            x, y, z = (quaternion_matrix_to_complex(m) for m in (x, y, z))
        direct = 0.5 * (x @ y.conj().T @ z + z @ y.conj().T @ x)
        if field == "H":
            direct = complex_matrix_to_quaternion(direct)
        expected = representation_to_coords(label, direct)
        assert np.max(np.abs(via_tensor - expected)) < 1e-12


@pytest.mark.parametrize("label", sorted(DIM_TABLE))
def test_every_factor_satisfies_jordan_identity(label):
    assert check_jordan_identity(build_factor(label), tol=1e-10).status == "pass"


def test_hermitian_complex_factor_is_a_real_form():
    # the hermitian kind is not closed under multiplication by i, so it
    # carries no complex structure
    assert build_factor("II_C(2)").complex_structure is None
    assert build_factor("I_C(2,1)").complex_structure is not None
    assert build_factor("SPIN_C(3)").complex_structure is not None


def test_complexify_one_dimensional_factor():
    # complexified R is C with {x,y,z} = x conj(y) z
    system = complexify(build_factor("I_R(1,1)"))
    assert system.dim == 2
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y, z = (rng.standard_normal(2) for _ in range(3))
        expected = (x[0] + 1j * x[1]) * (y[0] - 1j * y[1]) * (z[0] + 1j * z[1])
        out = system.product_arrays(x, y, z)
        assert abs(complex(out[0], out[1]) - expected) < 1e-12


def test_complexify_doubles_and_restricts():
    base = build_factor("I_R(2,2)")
    doubled = complexify(base)
    assert doubled.dim == 8
    assert doubled.rank_hint is None
    # the real part embeds as a subtriple
    assert np.array_equal(doubled.tensor[0::2, 0::2, 0::2, 0::2], base.tensor)
    # interleaved coordinates: J is the canonical doubling
    assert np.array_equal(
        doubled.complex_structure, np.kron(np.eye(4), [[0.0, -1.0], [1.0, 0.0]])
    )
    with pytest.raises(InvalidInput):
        complexify(build_factor("I_C(2,1)"))


def test_complexified_real_matrix_factor_is_the_complex_factor():
    built = complexify(build_factor("I_R(2,2)"))
    target = build_factor("I_C(2,2)")
    # identity intertwiner: same basis conventions on both sides
    assert np.max(np.abs(built.tensor - target.tensor)) < 1e-10
    assert np.max(np.abs(built.complex_structure - target.complex_structure)) < 1e-12
    assert check_jordan_identity(built).status == "pass"


def test_extend_map_complex_basics():
    base = build_factor("I_R(2,2)")
    target = complexify(base)
    ident = extend_map_complex(base.identity_map(), target)
    assert np.array_equal(ident.entries, np.eye(8))
    zero = extend_map_complex(base.linear_map(np.zeros((4, 4))), target)
    assert not np.any(zero.entries)
    # extensions commute with J exactly
    rng = np.random.default_rng(3)
    t = extend_map_complex(base.linear_map(rng.standard_normal((4, 4))), target)
    j = target.complex_structure
    assert np.array_equal(t.entries @ j, j @ t.entries)


def test_extended_inner_derivation_is_a_derivation():
    base = build_factor("I_R(2,2)")
    target = complexify(base)
    rng = np.random.default_rng(8)
    delta = inner_derivation(
        base.element(rng.standard_normal(4)), base.element(rng.standard_normal(4))
    )
    lifted = extend_map_complex(delta, target)
    assert is_derivation(lifted, "triple", tol=1e-10).status == "pass"


def test_direct_sum_structure():
    a = build_factor("I_R(2,2)")
    b = build_factor("SPIN_R(3,1)")
    total = direct_sum([a, b])
    assert total.dim == 8
    assert total.rank_hint == a.rank_hint + b.rank_hint
    assert total.norm_kind == "product"
    assert total.blocks == ((0, 4, "I_R(2,2)"), (4, 4, "SPIN_R(3,1)"))
    # cross-block elements are orthogonal
    x = total.basis_element(0)
    y = total.basis_element(5)
    assert np.max(np.abs(L_operator(x, y).entries)) == 0.0
    assert are_orthogonal(x, y)
    # single summand passes through, empty input is an error
    assert direct_sum([a]) is a
    with pytest.raises(EmptySpec):
        direct_sum([])


def test_constructors_refuse_oversized_dimensions_before_allocating():
    summands = [build_factor("I_R(4,4)")] * 5  # dim 80
    real = build_factor("SPIN_R(33,0)")  # complexified dim 66
    constructions = [
        lambda: build_factor("I_R(20,20)"),  # dim 400: a 191 GiB tensor
        lambda: build_factor("SPIN_R(300,0)"),
        lambda: build_factor("I_R(9,8)"),  # dim 72: a 215 MB tensor
        lambda: direct_sum(summands),
        lambda: complexify(real),
    ]
    tracemalloc.start()
    try:
        for construct in constructions:
            with pytest.raises(TooLarge):
                construct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_matrix_factor_builds_without_product_stacks():
    # III_R(8), n = 36: the built tensor and the constructor's symmetrization
    # buffer are 2 n^4 doubles; the n^3 m^2 product stacks of an einsum
    # contraction (24 MB each) would not fit beside them
    factors._basis_for.cache_clear()
    tracemalloc.start()
    try:
        system = build_factor("III_R(8)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.dim == 36
    assert peak < 2.5 * 36**4 * 8


def test_direct_sum_json_roundtrip_recovers_blocks(tmp_path):
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")])
    payload = json.loads(json.dumps(system_to_json(total)))
    loaded = system_from_json(payload)
    assert loaded == total
    assert loaded.blocks == total.blocks
    assert loaded.norm_kind == "product"
    # the product norm works after the roundtrip
    coords = np.zeros(8)
    coords[0] = 2.0
    coords[4] = 1.0
    assert abs(element_norm(loaded, coords) - 2.0) < 1e-12


def test_kind_dim_parses_nested_labels():
    assert kind_dim("sum(I_R(2,2)|I_C(2,1))") == 8
    assert kind_dim("complexified(I_R(2,2))") == 8
    assert kind_dim("sum(complexified(I_R(1,1))|SPIN_R(3,0))") == 5
    blocks = blocks_from_kind("sum(I_R(2,2)|SPIN_R(3,0))")
    assert blocks == ((0, 4, "I_R(2,2)"), (4, 3, "SPIN_R(3,0)"))


@pytest.mark.parametrize("label", sorted(DIM_TABLE))
def test_canonical_tripotents_and_witnesses(label):
    system = build_factor(label)
    tripotents = canonical_tripotents(system)
    assert tripotents
    for e in tripotents:
        assert is_tripotent(e, tol=1e-10)
    witness = canonical_rank_witness(system)
    assert len(witness) == system.rank_hint
    for i in range(len(witness)):
        assert witness[i].norm() > 0
        for j in range(i + 1, len(witness)):
            assert are_orthogonal(witness[i], witness[j])


# SHA-256 prefixes of (basis, tripotent coordinates, rank-witness coordinates),
# recorded from the per-kind constructors that the single (u, v, unit)
# enumeration replaced.  The arrays come from exact assignments and correctly
# rounded scalar operations, no BLAS call, so the digests hold on any
# little-endian machine.
ENUMERATION_DIGESTS = {
    "I_R(1,3)": ("785ebf8d1f3b24aa", "4f2f028327bb81d0", "4f2f028327bb81d0"),
    "I_C(3,1)": ("dc03ffd3f186452e", "5b9dc27822f05b99", "5b9dc27822f05b99"),
    "I_H(1,1)": ("4fba9cfbbf2a2db6", "17ef346263a3f021", "17ef346263a3f021"),
    "I_H(2,3)": ("84b29d0d08542b57", "0bd4b706fe4c4600", "72399c9e09a64f81"),
    "II_R(2)": ("62326871855b6b27", "9a6a58cb766ff109", "9a6a58cb766ff109"),
    "II_R(5)": ("68cd0109a5f51c6b", "048728f7b5d29d06", "fc3c9f7ae47fd696"),
    "II_C(1)": ("42ee487f212ac2ea", "c6144efb4632f420", "c6144efb4632f420"),
    "II_C(3)": ("a903806a6940897c", "d4a55727b8d7fbc8", "d0fe6a698a37ddf8"),
    "II_H(1)": ("5fe6f8ecc577bcbe", "c6144efb4632f420", "c6144efb4632f420"),
    "II_H(3)": ("118a75e1d376dd60", "fd5377873579e760", "db9d9ca0f268aa0f"),
    "III_R(1)": ("2fb95dbacbac8331", "c6144efb4632f420", "c6144efb4632f420"),
    "III_R(4)": ("53898276edab6fec", "d6e443f26b11e41a", "6dc6ab21496f4074"),
    "III_H(1)": ("d60a188fa88f9c89", "4f2f028327bb81d0", "4f2f028327bb81d0"),
    "III_H(3)": ("7f0f160bd545f3c7", "5abfc6b4edfbc4a3", "1ca896ba043b48bf"),
    "SPIN_R(3,0)": (None, "4f2f028327bb81d0", "4f2f028327bb81d0"),
    "SPIN_R(4,2)": (None, "be947e1a2462090c", "085bf60f4988f954"),
    "SPIN_C(1)": (None, "0e8576dbd5f5b941", "0e8576dbd5f5b941"),
    "SPIN_C(4)": (None, "becbd024514c9529", "a90e1d2a60c8d51c"),
}


def _digest(arrays) -> str:
    a = np.asarray(arrays)
    header = repr((a.dtype.str, a.shape)).encode()
    return hashlib.sha256(header + a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("label", list(ENUMERATION_DIGESTS))
def test_basis_tripotents_and_witnesses_are_pinned(label):
    basis, tripotents, witness = ENUMERATION_DIGESTS[label]
    if basis is not None:
        assert _digest(factors._basis_for(label)[1]) == basis
    assert _digest(factors._tripotent_coord_list(label)) == tripotents
    assert _digest(factors._witness_coord_list(label)) == witness


def test_canonical_tripotents_on_sums_and_real_forms():
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("SPIN_R(3,0)")])
    for e in canonical_tripotents(total):
        assert is_tripotent(e)
    real = as_real_form(build_factor("I_C(2,1)"))
    assert real.complex_structure is None
    for e in canonical_tripotents(real):
        assert is_tripotent(e)


def _real_form_of_sum():
    return as_real_form(direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")]))


def test_real_form_of_a_sum_keeps_the_summand_coordinates():
    real = _real_form_of_sum()
    total = direct_sum([build_factor("I_R(2,2)"), build_factor("I_C(2,1)")])
    assert real.factor_kind == "realform(sum(I_R(2,2)|I_C(2,1)))"
    assert blocks_from_kind(real.factor_kind) == ((0, 4, "I_R(2,2)"), (4, 4, "I_C(2,1)"))
    tripotents = canonical_tripotents(real)
    assert [int(np.flatnonzero(e.coords)[0]) for e in tripotents] == [0, 4]
    for e in tripotents:
        assert is_tripotent(e)
    witness = canonical_rank_witness(real)
    assert verify_rank_witness(real, witness).status == "pass"
    coords = np.zeros(8)
    coords[0], coords[4] = 2.0, 1.0
    assert element_norm(real, coords) == 2.0
    # the same L(a,a) on the real form and on the sum, so the same root
    a = np.random.default_rng(5).standard_normal(8)
    assert np.array_equal(cube_root(real.element(a)).coords, cube_root(total.element(a)).coords)


def test_real_form_of_a_sum_keeps_its_blocks_through_the_wire_format(tmp_path):
    real = _real_form_of_sum()
    save_system(real, tmp_path / "f.json")
    loaded = load_system(tmp_path / "f.json")
    assert loaded == real
    assert loaded.blocks == real.blocks
    assert offblock_leakage(loaded.identity_map()) == 0.0


def test_complexified_labels_embed_the_real_lists_and_have_no_norm():
    base = build_factor("I_R(2,2)")
    system = complexify(base)
    witness = canonical_rank_witness(system)
    # the real parts sit on the even coordinates
    assert [np.flatnonzero(e.coords).tolist() for e in witness] == [[0], [6]]
    assert verify_rank_witness(system, witness).status == "pass"
    for e in canonical_tripotents(system):
        assert is_tripotent(e)
    with pytest.raises(Unsupported):
        element_norm(system, np.ones(system.dim))


def test_realification_keeps_spin_product():
    # {e,e,e} = e for the first X1 unit even with a nontrivial split
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = build_factor("SPIN_R(2,1)")
    e = system.basis_element(0)
    assert np.allclose(triple_product(e, e, e).coords, e.coords)


def _sum_with_hand_built_summand():
    tensor = build_factor("I_R(2,1)").tensor
    return direct_sum([TripleSystem("x", tensor, norm_kind="hilbert"), build_factor("I_R(2,1)")])


def test_norm_of_a_sum_with_a_hand_built_summand_is_unsupported():
    # the summand's label "custom" names no factor, so it has no norm formula
    total = _sum_with_hand_built_summand()
    for system in (total, direct_sum([total, build_factor("I_R(2,1)")])):
        with pytest.raises(Unsupported):
            element_norm(system, np.ones(system.dim))
        with pytest.raises(Unsupported):
            check_norm_axiom(system, samples=4)


def test_a_sum_with_a_hand_built_summand_is_not_written(tmp_path):
    # its label cannot carry the summand's size, so the file would not load back
    total = _sum_with_hand_built_summand()
    with pytest.raises(Unsupported):
        save_system(total, tmp_path / "f.json")
    assert not (tmp_path / "f.json").exists()
    with pytest.raises(Unsupported):
        system_to_json(total)


# -- the per-row norm formulas that element_norms replaced, kept as an oracle --


def _oracle_representation(label, coords):
    field, basis = factors._basis_for(label)
    if field == "C":
        return field, np.einsum("i,iuv->uv", coords.astype(complex), basis)
    return field, np.einsum("i,i...->...", coords, basis)


def _oracle_norm(label, norm_kind, coords):
    wrapper, parts = factors._split_label(label)
    if wrapper == "realform":
        return _oracle_norm(parts[0], norm_kind, coords)
    if norm_kind == "hilbert":
        return float(np.linalg.norm(coords))
    if norm_kind == "product":
        return max(
            _oracle_norm(part, factors._default_norm_kind(part), coords[offset : offset + length])
            for offset, length, part in blocks_from_kind(label)
        )
    if norm_kind == "operator":
        field, rep = _oracle_representation(label, coords)
        if field == "H":
            rep = quaternion_matrix_to_complex(rep)
        return float(np.linalg.svd(rep, compute_uv=False)[0])
    spec = FactorSpec.parse(label)
    if spec.kind == "SPIN_R":
        r = spec.dims[0]
        return float(np.linalg.norm(coords[:r]) + np.linalg.norm(coords[r:]))
    v = coords[0::2] + 1j * coords[1::2]
    quad = float(np.real(np.vdot(v, v)))
    bilin = abs(complex(np.sum(v * v)))
    return float(np.sqrt(quad + np.sqrt(max(quad * quad - bilin * bilin, 0.0))))


NORM_LABELS = [
    "I_R(2,2)", "I_R(3,1)", "I_R(4,4)", "I_C(2,1)", "I_C(2,2)", "I_C(4,4)", "I_H(2,1)",
    "I_H(2,2)", "II_R(4)", "II_R(5)", "II_C(3)", "II_H(2)", "III_R(3)", "III_R(4)",
    "III_H(2)", "SPIN_R(3,0)", "SPIN_R(3,1)", "SPIN_R(4,2)", "SPIN_C(4)",
]


def _oracle_sum():
    return direct_sum([build_factor("I_R(2,2)"), build_factor("SPIN_C(3)")])


NORM_SYSTEMS = {
    **{label: (lambda label=label: build_factor(label)) for label in NORM_LABELS},
    "sum(I_R(2,2)|SPIN_C(3))": _oracle_sum,
    "realform(I_C(2,2))": lambda: as_real_form(build_factor("I_C(2,2)")),
    "realform(sum(I_R(2,2)|SPIN_C(3)))": lambda: as_real_form(_oracle_sum()),
}


@pytest.mark.parametrize("name", list(NORM_SYSTEMS))
def test_element_norms_equal_the_per_row_formulas_bit_for_bit(name):
    system = NORM_SYSTEMS[name]()
    rows = np.random.default_rng(system.dim).standard_normal((200, system.dim))
    oracle = np.array([_oracle_norm(system.factor_kind, system.norm_kind, row) for row in rows])
    assert np.array_equal(element_norms(system, rows), oracle)
    assert np.array_equal(element_norms(system, rows[7:8]), oracle[7:8])
    assert element_norm(system, rows[7]) == oracle[7]
    assert element_norms(system, rows[:0]).shape == (0,)


@pytest.mark.parametrize("label", [label for label in NORM_LABELS if not label.startswith("SPIN_")])
def test_representations_and_cube_roots_equal_the_einsum_forms(label):
    rows = np.random.default_rng(3).standard_normal((50, kind_dim(label)))
    reps = [_oracle_representation(label, row) for row in rows]
    assert np.array_equal(coords_to_representation(label, rows)[1], [rep for _, rep in reps])
    for row, (_, rep) in zip(rows, reps):
        assert np.array_equal(coords_to_representation(label, row)[1], rep)
