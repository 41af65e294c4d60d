"""The public statement functions at the MAX_DIM = 64 cap, each within a
minute, on one factor per family at its largest size up to n = 64.
Opt-in: python -m pytest -m scale"""

import time

import numpy as np
import pytest

from triple_lab import build_factor, derivations, factors, structure
from triple_lab.triple_core import check_jordan_identity, check_norm_axiom

pytestmark = pytest.mark.scale

BUDGET_S = 60.0
CAP_FACTORS = [
    "I_R(8,8)", "I_C(4,8)", "I_H(4,4)", "II_R(11)", "II_C(8)", "II_H(5)",
    "III_R(10)", "III_H(5)", "SPIN_R(64,0)", "SPIN_C(32)",
]  # fmt: skip


def _first_basis_map(system):
    return derivations.derivation_space(system, "triple").basis[0]


# each call takes the system and its first canonical tripotent
STATEMENTS = {
    "check_IAP_finite": lambda s, e: derivations.check_IAP_finite(s),
    "check_peirce_arithmetic": lambda s, e: structure.check_peirce_arithmetic(e),
    "verify_rank_witness": lambda s, e: structure.verify_rank_witness(
        s, factors.canonical_rank_witness(s)
    ),
    "cube_root": lambda s, e: structure.cube_root(e * 8.0),
    "is_minimal_tripotent": lambda s, e: structure.is_minimal_tripotent(e),
    "is_derivation": lambda s, e: derivations.is_derivation(_first_basis_map(s)),
    "exp_flow_check": lambda s, e: derivations.exp_flow_check(_first_basis_map(s), "triple", [1.0]),
    "check_jordan_identity": lambda s, e: check_jordan_identity(s),
    "check_norm_axiom": lambda s, e: check_norm_axiom(s, 64),
}


@pytest.fixture(scope="module", params=CAP_FACTORS)
def system(request):
    return build_factor(request.param)


@pytest.mark.parametrize("name", STATEMENTS)
def test_public_statement_at_the_cap_within_a_minute(system, name):
    tripotent = factors.canonical_tripotents(system)[0]
    start = time.perf_counter()
    result = STATEMENTS[name](system, tripotent)
    assert time.perf_counter() - start <= BUDGET_S
    if name == "cube_root":  # the cube root of 8e is 2e
        assert np.max(np.abs(result.coords - 2.0 * tripotent.coords)) <= 1e-8
    elif name != "is_minimal_tripotent":
        assert result.status == "pass"
