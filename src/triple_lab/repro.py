"""End-to-end reproduction of the finite-dimensional statements.

Each statement in the registry verifies one mathematical claim about
derivations on generalized real Cartan factors, over the version-controlled
factor suite; the claim is the docstring of the statement's runner.
Statements run in registry order with isolated seeds (seed xor statement
index), so the report bytes depend only on the seed and the suite.
"""

from __future__ import annotations

import json
import warnings
from importlib import resources

import numpy as np

from . import derivations, factors, structure, triple_core
from .errors import EmptySpec, InvalidInput, InvalidSpec, TripleLabError
from .numerics import row_norms
from .report import FlatEntries, Report, STATUS_ADVISORY, STATUS_FAIL, STATUS_PASS, read_json, timed
from .triple_core import MAX_DIM, Element, LinearMap, TripleSystem, _lookup

DEFAULT_SEED = 0xA11CE


def load_suite(path=None) -> dict:
    """The factor suite and sample counts; packaged default unless overridden."""
    if path is None:
        return json.loads(resources.files("triple_lab").joinpath("suite.json").read_text())
    return read_json(path, "suite")


def _check_suite(config) -> None:
    """Raise InvalidInput unless ``config`` holds exactly the keys a run reads, typed."""

    def require(ok, message):
        if not ok:
            raise InvalidInput(f"suite: {message}")

    def require_known(table, known, where):
        unknown = sorted(set(table) - set(known))
        require(not unknown, f"unknown key(s) {', '.join(map(repr, unknown))}{where}")

    require(isinstance(config, dict), "the top level must be an object")
    lists = (
        ("factors", str),
        ("hilbert_sizes", int),
        ("complex_factors", str),
        ("rank_one_factors", str),
        ("sums_equal", list),
        ("sums_gap", list),
    )
    samples = ("norm", "flow_maps", "witness_pairs")
    require_known(config, [key for key, _ in lists] + ["samples"], "")
    for key, entry in lists:
        value = config.get(key)
        # an empty list checks nothing; bool is an int subclass but no size
        require(
            isinstance(value, list) and value and all(type(v) is entry for v in value),
            f"{key!r} must be a non-empty list of {entry.__name__}",
        )
    # every system the statements build must parse and fit the cap; a Hilbert
    # size n builds I_R(n,1) and SPIN_R(n,0), of dimension n, and SPIN_R needs n >= 2
    sums = [[f"SPIN_R({n},0)"] for n in config["hilbert_sizes"]]
    for key in ("factors", "complex_factors", "rank_one_factors"):
        sums += [[label] for label in config[key]]
    for key in ("sums_equal", "sums_gap"):
        require(all(config[key]), f"{key!r} must hold no empty sum")
        sums += config[key]
    for specs in sums:
        try:
            total = sum(factors.FactorSpec.parse(label).dim() for label in specs)
        except InvalidSpec as exc:
            raise InvalidInput(f"suite: {exc}") from exc
        require(total <= MAX_DIM, f"{'+'.join(specs)} has dimension {total}, over {MAX_DIM}")
    table = config.get("samples")
    # bool is an int subclass but no count; a count of 0 checks nothing
    require(
        isinstance(table, dict)
        and all(type(table.get(n)) is int and table[n] > 0 for n in samples),
        f"'samples' must give {', '.join(samples)} as positive integers",
    )
    require_known(table, samples, " in 'samples'")


def counterexample_map(system: TripleSystem) -> LinearMap:
    """The real-part swap (a, b) -> (Re b, -Re a) on realified C^2 coordinates."""
    if system.dim != 4:
        raise InvalidInput("the counterexample map lives on a 4-dimensional system")
    entries = np.zeros((4, 4))
    entries[0, 2] = 1.0
    entries[2, 0] = -1.0
    return LinearMap(system, entries)


class _RunContext:
    """The systems of one reproduction run, each built once, and the checked
    suite it runs over; with no ``config`` it holds only the systems one
    public statement call asks for.  Under ``fault`` the first of ``factors``
    is a corrupted copy, a system of its own."""

    def __init__(self, config: dict | None = None, fault: bool = False):
        self._systems = {}
        if config is None:
            return
        _check_suite(config)
        self.config = config
        self.samples = config["samples"]
        self.factors = [self.system(label) for label in config["factors"]]
        if fault and self.factors:
            first = self.factors[0]
            listed = first._entries
            index = np.union1d(listed.index, [0])  # with the entry c[0, 0, 0, 0]
            corrupted = _lookup(listed.index, listed.values, index)[0]
            corrupted[0] += 0.1
            self.factors[0] = TripleSystem(
                name=first.name,
                tensor=FlatEntries(listed.shape, index, corrupted),
                norm_kind=first.norm_kind,
                rank_hint=first.rank_hint,
                complex_structure=first.complex_structure,
                factor_kind=first.factor_kind,
            )

    def system(self, *labels) -> TripleSystem:
        """The clean factor of one label, or the direct sum of several, built once per run."""
        if labels not in self._systems:
            self._systems[labels] = (
                factors.direct_sum(map(self.system, labels))
                if len(labels) > 1
                else factors.build_factor(*labels)
            )
        return self._systems[labels]


def _seeded_members(space, count, seed):
    """(count, n, n) stack of deterministic unit-norm combinations of a derivation basis."""
    rng = np.random.default_rng(seed)
    # rows of one draw are the draws of successive members, and row_norms are
    # np.linalg.norm's
    weights = rng.standard_normal((count, space.dim))
    weights /= np.maximum(row_norms(weights), 1e-300)[:, None]
    return space.members(weights)


def _sub(statement_id, ok, residuals, witnesses=None, seed=None, items=()):
    return Report(
        statement_id=statement_id,
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals=residuals,
        witnesses=witnesses or ({} if ok else {"expectation": "violated"}),
        seed=seed,
        items=items,
    )


def _aggregate(statement_id, seed, items) -> Report:
    """One report over sub-reports; it fails when any of them fails."""
    items = tuple(items)
    ok = all(item.status != STATUS_FAIL for item in items)
    return Report(
        statement_id=statement_id,
        status=STATUS_PASS if ok else STATUS_FAIL,
        seed=seed,
        items=items,
    )


# -- individual statements -----------------------------------------------------


@timed
def repro_example_counterexample(seed: int = DEFAULT_SEED) -> Report:
    """Full verification of the rank-one complex counterexample."""
    return _counterexample(factors.build_factor("I_C(2,1)"), seed)


def _counterexample(system: TripleSystem, seed: int) -> Report:
    """``repro_example_counterexample`` on the given ``I_C(2,1)`` system."""
    t = counterexample_map(system)
    rng = np.random.default_rng(seed)

    # rows of one (128, 4) draw are the draws of 128 successive samples
    xs = rng.standard_normal((128, 4))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    txs = xs @ t.entries.T
    skew_worst = float(np.max(np.abs(np.sum(xs * txs, axis=1))))
    u = system.unfolding("triple")
    lhs = triple_core.product_batch(u, xs, xs, xs) @ t.entries.T
    rhs = 2.0 * triple_core.product_batch(u, txs, xs, xs)
    rhs += triple_core.product_batch(u, xs, txs, xs)
    cubic_worst = float(np.max(np.linalg.norm(lhs - rhs, axis=1)))

    sym_report = derivations.is_derivation(t, "symmetrized", tol=1e-10)
    points = derivations.default_point_set(system, samples=256, seed=seed)
    local_report = derivations.local_derivation_residual(t, points, seed=seed)
    triple_report = derivations.is_derivation(t, "triple", tol=1e-10)

    # the exact witness is the basis triple ((1,0), (i,0), (1,0)); none if the rule held
    witness = triple_report.witnesses
    applied = np.asarray(witness.get("map_applied_to_product", np.nan))
    leibniz = np.asarray(witness.get("leibniz_sum", np.nan))
    expected_sum = np.array([0.0, 0.0, 0.0, 1.0])  # the element (0, i)
    applied_err = float(np.linalg.norm(applied))
    leibniz_err = float(np.linalg.norm(leibniz - expected_sum))

    ok = (
        skew_worst <= 1e-12
        and cubic_worst <= 1e-10
        and sym_report.status == STATUS_PASS
        and local_report.status == STATUS_PASS
        and triple_report.status == STATUS_FAIL
        and triple_report.residuals["max_residual"] >= 0.9
        and witness.get("basis_triple") == [0, 1, 0]
        and applied_err <= 1e-12
        and leibniz_err <= 1e-12
    )
    return Report(
        statement_id="counterexample_rank_one_complex",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals={
            "real_inner_product_skewness": skew_worst,
            "cubic_identity_residual": cubic_worst,
            "symmetrized_leibniz_residual": sym_report.residuals["max_residual"],
            "local_derivation_residual": local_report.residuals["max_residual"],
            "triple_leibniz_residual": triple_report.residuals["max_residual"],
            "witness_product_image_error": applied_err,
            "witness_leibniz_sum_error": leibniz_err,
        },
        witnesses={
            "witness_triple": [0, 1, 0],
            "map_applied_to_product": applied,
            "leibniz_sum": leibniz,
        },
        seed=seed,
    )


def _skew_characterization(ctx, statement_id, label_template, seed) -> Report:
    rng = np.random.default_rng(seed)

    @timed
    def run(n):
        with warnings.catch_warnings():
            # toy spin sizes below the classification threshold are intended here
            warnings.simplefilter("ignore")
            system = ctx.system(label_template.format(n=n))
        der = derivations.derivation_space(system, "triple")
        sym = derivations.derivation_space(system, "symmetrized")
        expected_dim = n * (n - 1) // 2
        sym_part = float(np.abs(der.entries + np.swapaxes(der.entries, 1, 2)).max(initial=0.0))
        raw = rng.standard_normal((n, n))
        skew_map = system.linear_map(raw - raw.T)
        skew_ok = derivations.is_derivation(skew_map, "triple").status == STATUS_PASS

        symmetric = raw + raw.T
        symmetric /= np.linalg.norm(symmetric)
        sym_map = system.linear_map(symmetric)
        fails_triple = derivations.is_derivation(sym_map, "triple").status == STATUS_FAIL
        fails_sym = derivations.is_derivation(sym_map, "symmetrized").status == STATUS_FAIL
        local_rep = derivations.local_derivation_residual(
            sym_map,
            derivations.default_point_set(system, samples=32, seed=seed),
            space=der,
        )
        fails_local = local_rep.status == STATUS_FAIL
        not_skew = float(np.max(np.abs(sym_map.entries + sym_map.entries.T))) > 1e-9

        residuals = {
            "triple_dim": float(der.dim),
            "symmetrized_dim": float(sym.dim),
            "expected_dim": float(expected_dim),
            "max_symmetric_part": sym_part,
            "symmetric_map_local_residual": local_rep.residuals["max_residual"],
        }
        ok = (
            der.dim == expected_dim
            and sym.dim == expected_dim
            and sym_part <= 1e-9
            and skew_ok
            and fails_triple
            and fails_sym
            and fails_local
            and not_skew
        )
        return _sub(f"{label_template.format(n=n)}", ok, residuals, seed=seed)

    return _aggregate(statement_id, seed, map(run, ctx.config["hilbert_sizes"]))


def _gap_rule(ctx, summand: TripleSystem) -> dict:
    """Whether ``summand`` forces a gap between the symmetrized and triple
    derivation spaces of a direct sum, read off its tensors.

    On a column factor, 2{x,y,z} = <x|y>z + <z|y>x, the symmetrized product
    reads only the real inner product, so its tensor is that of the real
    spin factor ``SPIN_R(m,0)`` of its dimension m, whose derivations are
    so(m); its symmetrized entries are those of the real column
    ``I_R(m,1)``.  The summand forces a gap iff its triple space is smaller
    than so(m) and its symmetrized entries are those of ``SPIN_R(m,0)``.
    The entries are compared only when the dimensions leave a gap open, so
    m >= 2.  Over the suite summands, ``I_C(1,1)``, ``I_H(1,1)``,
    ``I_C(3,1)`` and ``I_R(4,1)`` the largest entry difference is exactly
    0.0 or at least 1/3.
    """
    m = summand.dim
    hilbert = f"SPIN_R({m},0)"
    triple_dim = derivations.derivation_space(summand, "triple").dim
    skew_dim = m * (m - 1) // 2
    difference = None
    if triple_dim < skew_dim:
        with warnings.catch_warnings():
            # SPIN_R(2,0) is below the classification threshold, and intended
            warnings.simplefilter("ignore")
            spin = ctx.system(hilbert)
        mine, theirs = (s._product("symmetrized") for s in (summand, spin))
        at = np.concatenate((mine.index, theirs.index))  # an entry of either
        gaps = _lookup(mine.index, mine.values, at)[0] - _lookup(theirs.index, theirs.values, at)[0]
        difference = float(np.abs(gaps).max(initial=0.0))
    return {
        "summand": summand.name,
        "hilbert_factor": hilbert,
        "triple_dim": triple_dim,
        "hilbert_triple_dim": skew_dim,
        "symmetrized_difference": difference,
        "forces_gap": difference is not None and difference <= 1e-12,
    }


@timed
def repro_theorem_surrogate(specs, seed: int = DEFAULT_SEED) -> Report:
    """Derivation-space comparison on a direct sum of factor specs."""
    labels = [(factors.FactorSpec.parse(s) if isinstance(s, str) else s).label() for s in specs]
    if not labels:
        raise EmptySpec("the surrogate needs at least one factor spec")
    return _surrogate(_RunContext(), labels, seed)


@timed
def _surrogate(ctx, labels, seed: int) -> Report:
    """``repro_theorem_surrogate`` on the direct sum of ``labels``, its
    systems read through ``ctx``.

    The two spaces decide it by projection.  A and B are the orthonormal
    bases of the symmetrized and triple spaces, as rows of n^2 entries, and
    every row of B satisfies the triple Leibniz rule (``derivation_space``
    checks it to 10 x tol).  Without a gap, each row of A lies in span(B), so it is
    a triple derivation, which is local at every point.  With one, B lies in
    span(A), and the rest off span(B) of A's farthest row, normalized, is a
    unit symmetrized derivation orthogonal to Der(E): it must fail the
    triple Leibniz rule.
    """
    summands = [ctx.system(label) for label in labels]
    system = ctx.system(*labels)
    sym = derivations.derivation_space(system, "symmetrized")
    der = derivations.derivation_space(system, "triple")
    gap = sym.dim - der.dim
    rules = [_gap_rule(ctx, summand) for summand in summands]
    forbidden = any(rule["forces_gap"] for rule in rules)

    leakage = 0.0 if system.blocks is None else \
        float(structure.offblock_leakages(system, sym.entries).max(initial=0.0))

    residuals = {
        "symmetrized_dim": float(sym.dim),
        "triple_dim": float(der.dim),
        "gap": float(gap),
        "max_offblock_leakage": leakage,
    }
    witnesses = {
        "summands": [summand.name for summand in summands],
        "forbidden_summand": forbidden,
        "gap_rule": rules,
    }
    n = system.dim
    a, b = (s.entries.reshape(s.dim, n * n) for s in (sym, der))
    rest = a - (a @ b.T) @ b  # what is left of each row of A off span(B)
    rests = row_norms(rest)
    if forbidden:
        outside = float(row_norms(b - (b @ a.T) @ a).max(initial=0.0))
        residuals["triple_outside_symmetrized"] = outside
        worst = -1.0
        if rests.max(initial=0.0) > 0.0:
            r = int(rests.argmax())
            witness = system.linear_map((rest[r] / rests[r]).reshape(n, n))
            worst = derivations.leibniz_residual(witness, "triple")["max_residual"]
            witnesses["witness_map"] = witness.entries
        residuals["witness_triple_leibniz_residual"] = worst
        ok = gap >= 1 and outside <= 1e-8 and worst > 1e-6 and leakage <= 1e-8
    else:
        worst_rest = float(rests.max(initial=0.0))
        residuals["basis_projection_rest"] = worst_rest
        ok = gap == 0 and worst_rest <= 1e-8 and leakage <= 1e-8
    return Report(
        statement_id=f"surrogate[{'+'.join(witnesses['summands'])}]",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals=residuals,
        witnesses=witnesses,
        seed=seed,
    )


def _stmt_counterexample(ctx, seed):
    """On realified C^2 the real-part swap map derives the symmetrized
    product and is a local triple derivation, yet fails the triple Leibniz
    rule with an explicit basis witness."""
    return _counterexample(ctx.system("I_C(2,1)"), seed)


def _stmt_hilbert_skew(ctx, seed):
    """On real Hilbert factors the triple derivations are exactly the
    skew-symmetric operators; symmetric maps fail every equivalent
    predicate."""
    return _skew_characterization(ctx, "hilbert_factor_skew_characterization", "I_R({n},1)", seed)


def _stmt_spin_skew(ctx, seed):
    """On rank-one real spin factors the triple derivations are exactly the
    skew-symmetric operators."""
    return _skew_characterization(ctx, "spin_rank_one_skew_characterization", "SPIN_R({n},0)", seed)


def _stmt_complex_linear(ctx, seed):
    """Real-linear triple derivations of a factor with complex structure
    commute with J; the symmetrized space of the rank-one complex factor
    does not."""

    @timed
    def run(label):
        der = derivations.derivation_space(ctx.system(label), "triple")
        rep = derivations.check_complex_linearity(der)
        return _sub(
            f"triple_derivations_commute_with_J[{label}]", rep.status == STATUS_PASS, rep.residuals
        )

    @timed
    def breaks(label):
        sym = derivations.derivation_space(ctx.system(label), "symmetrized")
        rep = derivations.check_complex_linearity(sym)
        worst = rep.residuals["max_commutator"]
        return _sub(
            f"symmetrized_space_breaks_complex_linearity[{label}]",
            rep.status == STATUS_FAIL and worst >= 0.5,
            {"max_commutator": worst},
        )

    items = [*map(run, ctx.config["complex_factors"]), breaks("I_C(2,1)")]
    return _aggregate("derivations_complex_linear", seed, items)


def _stmt_rank_one_witness(ctx, seed):
    """On rank-one factors an explicit inner derivation witnesses every
    symmetrized-product derivation pointwise."""
    pairs = ctx.samples["witness_pairs"]

    @timed
    def run(offset, label):
        system = ctx.system(label)
        sym = derivations.derivation_space(system, "symmetrized")
        rng = np.random.default_rng(seed ^ offset)
        # row b of one draw holds the weights of member b, then its point: the
        # draws of the pairs one after another
        draws = rng.standard_normal((pairs, sym.dim + system.dim))
        weights, coords = draws[:, : sym.dim], draws[:, sym.dim :]
        members = sym.members(weights)
        deltas = derivations.rank_one_witness_maps(system, members, coords)
        points = coords[:, :, None]
        errors = np.linalg.norm((deltas @ points - members @ points)[:, :, 0], axis=1)
        worst = float(np.max(errors / np.linalg.norm(coords, axis=1)))
        return _sub(f"witness_formula[{label}]", worst <= 1e-8, {"max_relative_error": worst})

    items = (run(*pair) for pair in enumerate(ctx.config["rank_one_factors"]))
    return _aggregate("rank_one_symmetrized_implies_local", seed, items)


def _stmt_flows(ctx, seed):
    """exp(tT) flows of triple derivations are automorphisms of the triple
    product; the counterexample flow is not."""
    grid = [1.0, -1.0, 0.5, -0.5]
    count = ctx.samples["flow_maps"]

    @timed
    def run(system):
        der = derivations.derivation_space(system, "triple")
        members = _seeded_members(der, count, seed)
        reports = derivations.exp_flow_reports(system, members, "triple", grid)
        worst = max([0.0, *(max(rep.residuals.values(), default=0.0) for rep in reports)])
        ok = all(rep.status == STATUS_PASS for rep in reports)
        return _sub(f"flows[{system.name}]", ok, {"max_residual": worst})

    @timed
    def breaks_triple_product(t):
        rep = derivations.exp_flow_check(t, "triple", [1.0])
        defect = rep.residuals["t=1"]
        ok = rep.status == STATUS_FAIL and defect >= 0.1
        return _sub("counterexample_flow_breaks_triple_product", ok, {"defect_at_t1": defect})

    @timed
    def preserves_symmetrized_product(t):
        rep = derivations.exp_flow_check(t, "symmetrized", grid)
        return _sub(
            "counterexample_flow_preserves_symmetrized_product",
            rep.status == STATUS_PASS,
            {"max_residual": max(rep.residuals.values())},
        )

    items = list(map(run, ctx.factors))
    t = counterexample_map(ctx.system("I_C(2,1)"))
    items += [breaks_triple_product(t), preserves_symmetrized_product(t)]
    return _aggregate("rank_gt_one_flow_equivalence", seed, items)


def _stmt_surrogate(ctx, seed):
    """Symmetrized and triple derivation spaces coincide on direct sums
    without rank-one complex or quaternionic column summands, and a strict
    gap appears when one is included."""
    sums = ctx.config["sums_equal"] + ctx.config["sums_gap"]
    return _aggregate(
        "direct_sum_theorem_surrogate",
        seed,
        (_surrogate(ctx, labels, seed) for labels in sums),
    )


def _stmt_ideal_invariance(ctx, seed):
    """Symmetrized-product derivations leave direct-sum blocks invariant;
    odd cube roots stay inside the block of their argument."""
    rng = np.random.default_rng(seed)

    @timed
    def run(specs):
        system = ctx.system(*specs)
        sym = derivations.derivation_space(system, "symmetrized")
        leak_rep = structure.check_ideal_invariance(system, sym.entries)
        worst_root_leak = 0.0
        for offset, length, _ in system.blocks:
            coords = np.zeros(system.dim)
            coords[offset : offset + length] = rng.standard_normal(length)
            root = structure.cube_root(Element(system, coords))
            outside = np.array(root.coords, copy=True)
            outside[offset : offset + length] = 0.0
            worst_root_leak = max(worst_root_leak, float(np.linalg.norm(outside)))
        ok = leak_rep.status == STATUS_PASS and worst_root_leak <= 1e-8
        return _sub(
            f"ideal_invariance[{system.name}]",
            ok,
            {
                "max_offblock_entry": leak_rep.residuals["max_offblock_entry"],
                "cube_root_outside_block": worst_root_leak,
            },
        )

    sums = (ctx.config["sums_equal"][0], ctx.config["sums_gap"][0])
    return _aggregate("ideal_invariance_cube_root", seed, map(run, sums))


def _stmt_two_local(ctx, seed):
    """Extending a map to the complexification by T(x) + iT(y) turns
    derivations into derivations and exposes the counterexample."""
    base = ctx.system("I_R(2,2)")
    der = derivations.derivation_space(base, "triple")
    member = base.linear_map(_seeded_members(der, 1, seed)[0])
    lifted_ok = derivations.two_local_lift(member, samples=32, seed=seed)
    real_form = factors.as_real_form(ctx.system("I_C(2,1)"))
    t = counterexample_map(real_form)
    lifted_bad = derivations.two_local_lift(t, samples=32, seed=seed)
    ok = lifted_ok.status == STATUS_PASS and lifted_bad.status == STATUS_FAIL
    return Report(
        statement_id="two_local_complexification",
        status=STATUS_PASS if ok else STATUS_FAIL,
        residuals={
            "derivation_lift_residual": lifted_ok.residuals["lift_leibniz_residual"],
            "counterexample_lift_residual": lifted_bad.residuals["lift_leibniz_residual"],
        },
        seed=seed,
    )


def _stmt_jordan(ctx, seed):
    """All suite factors satisfy the Jordan identity."""
    return _aggregate(
        "axioms_jordan_identity",
        seed,
        (triple_core.check_jordan_identity(s, seed=seed) for s in ctx.factors),
    )


def _stmt_norm(ctx, seed):
    """All suite factors satisfy the cube-norm identity."""
    return _aggregate(
        "axioms_norm_cube",
        seed,
        (triple_core.check_norm_axiom(s, ctx.samples["norm"], seed=seed) for s in ctx.factors),
    )


def _stmt_hermitian(ctx, seed):
    """Advisory surrogate: L(a,a) is coordinate-symmetric with nonnegative
    spectrum on basis elements."""
    items = tuple(triple_core.check_hermitian_surrogate(s) for s in ctx.factors)
    return Report(
        statement_id="hermitian_positivity_advisory",
        status=STATUS_ADVISORY,
        residuals={
            "max_asymmetry": max(i.residuals["max_asymmetry"] for i in items),
            "min_eigenvalue": min(i.residuals["min_eigenvalue"] for i in items),
        },
        seed=seed,
        items=items,
    )


def _stmt_peirce(ctx, seed):
    """Peirce projections of canonical tripotents obey the multiplication
    rules."""

    @timed
    def run(system):
        worst = 0.0
        sub = []
        for e in factors.canonical_tripotents(system):
            rep = structure.check_peirce_arithmetic(e)
            sub.append(rep)
            worst = max(worst, rep.residuals["max_residual"])
        ok = all(r.status == STATUS_PASS for r in sub)
        return _sub(f"peirce[{system.name}]", ok, {"max_residual": worst})

    return _aggregate("peirce_arithmetic", seed, map(run, ctx.factors))


def _stmt_rank_witness(ctx, seed):
    """Canonical orthogonal families certify the classification rank as a
    lower bound."""
    return _aggregate(
        "orthogonality_rank_witness",
        seed,
        (structure.verify_rank_witness(s, factors.canonical_rank_witness(s)) for s in ctx.factors),
    )


def _stmt_inner_leibniz(ctx, seed):
    """Maps L(a,b) - L(b,a) satisfy the triple Leibniz rule."""

    @timed
    def run(system):
        rng = np.random.default_rng(seed)
        # row d of one draw holds a, then b, of draw d: the draws one after another
        a, b = np.split(rng.standard_normal((8, 2 * system.dim)), 2, axis=1)
        delta = derivations.inner_derivation_maps(system, a, b)
        worst = float(derivations.leibniz_residuals(system, delta, "triple")[0].max())
        flipped = derivations.inner_derivation_maps(system, b, a)
        self_term = derivations.inner_derivation_maps(system, a, a)
        antisym = float(np.abs(delta + flipped).max(initial=0.0))
        antisym = max(antisym, float(np.abs(self_term).max(initial=0.0)))
        scale = max(1.0, float(np.abs(system._entries.values).max(initial=0.0)))
        ok = worst <= 1e-10 * scale * system.dim**2 and antisym <= 1e-12 * scale * system.dim
        return _sub(
            f"inner_leibniz[{system.name}]",
            ok,
            {"max_leibniz_residual": worst, "max_antisymmetry_defect": antisym},
        )

    return _aggregate("inner_derivations_leibniz", seed, map(run, ctx.factors))


def _stmt_iap(ctx, seed):
    """The span of basis inner derivations equals the triple derivation space
    (finite-dimensional inner approximation)."""
    return _aggregate(
        "iap_span_equality", seed, map(derivations.check_IAP_finite, ctx.factors)
    )


def _stmt_tripotent_identities(ctx, seed):
    """At every canonical tripotent e, maps passing the local-derivation
    check satisfy P0(e)T(e) = 0 and P2(e)T(e) = -Q(e)T(e)."""

    @timed
    def run(system):
        # the identities are linear in T, so the symmetrized basis decides them
        sym = derivations.derivation_space(system, "symmetrized")
        der = derivations.derivation_space(system, "triple")
        points = derivations.default_point_set(system, samples=32, seed=seed)
        worst_local = float(derivations.local_residuals(sym.entries, points, der).max(initial=0.0))
        worst_p0 = worst_p2 = 0.0
        for e in factors.canonical_tripotents(system):
            ps = structure.peirce(e)
            te = sym.entries @ e.coords  # row r is T_r(e) for basis map r
            q = triple_core.Q_operator(e).entries
            p0_te = np.linalg.norm(te @ ps.p0.entries.T, axis=1)
            p2_te = np.linalg.norm(te @ (ps.p2.entries + q).T, axis=1)
            worst_p0 = max(worst_p0, float(p0_te.max(initial=0.0)))
            worst_p2 = max(worst_p2, float(p2_te.max(initial=0.0)))
        ok = worst_local <= 1e-8 and worst_p0 <= 1e-8 and worst_p2 <= 1e-8
        return _sub(
            f"tripotent_identities[{system.name}]",
            ok,
            {
                "max_local_residual": worst_local,
                "max_P0_Te": worst_p0,
                "max_P2_plus_Q_Te": worst_p2,
            },
        )

    return _aggregate("tripotent_projection_identities", seed, map(run, ctx.factors))


#: every statement the tool reproduces, in run order: (id, runner(ctx, seed)),
#: each runner returning a report under its own id
_STATEMENT_RUNNERS = (
    ("counterexample_rank_one_complex", _stmt_counterexample),
    ("hilbert_factor_skew_characterization", _stmt_hilbert_skew),
    ("spin_rank_one_skew_characterization", _stmt_spin_skew),
    ("derivations_complex_linear", _stmt_complex_linear),
    ("rank_one_symmetrized_implies_local", _stmt_rank_one_witness),
    ("rank_gt_one_flow_equivalence", _stmt_flows),
    ("direct_sum_theorem_surrogate", _stmt_surrogate),
    ("ideal_invariance_cube_root", _stmt_ideal_invariance),
    ("two_local_complexification", _stmt_two_local),
    ("axioms_jordan_identity", _stmt_jordan),
    ("axioms_norm_cube", _stmt_norm),
    ("hermitian_positivity_advisory", _stmt_hermitian),
    ("peirce_arithmetic", _stmt_peirce),
    ("orthogonality_rank_witness", _stmt_rank_witness),
    ("inner_derivations_leibniz", _stmt_inner_leibniz),
    ("iap_span_equality", _stmt_iap),
    ("tripotent_projection_identities", _stmt_tripotent_identities),
)

#: the claim each statement establishes, read from its runner's docstring
STATEMENTS = {
    statement_id: " ".join(runner.__doc__.split())
    for statement_id, runner in _STATEMENT_RUNNERS
}


@timed
def repro_all(
    seed: int = DEFAULT_SEED,
    suite: dict | None = None,
    fault: bool = False,
) -> Report:
    """Run every registry statement in order and aggregate one report.

    Statement i runs with seed ``seed ^ i``, so the report bytes depend only
    on (seed, suite).  Each statement's report carries its own runtime.
    """
    if seed < 0:  # the statement seeds seed ^ i feed numpy generators
        raise InvalidInput(f"the seed must be non-negative, got {seed}")
    config = suite if suite is not None else load_suite()
    ctx = _RunContext(config, fault=fault)

    @timed
    def run_one(index, statement_id, runner):
        try:
            return runner(ctx, seed ^ index)
        except TripleLabError as exc:
            # a broken tensor surfaces as exceptions deep in the checks;
            # record the failure instead of aborting the whole run
            return Report(
                statement_id=statement_id,
                status=STATUS_FAIL,
                witnesses={"error": f"{type(exc).__name__}: {exc}"},
                seed=seed ^ index,
            )

    # read at call time, so a caller may wrap the runners
    items = tuple(
        run_one(index, statement_id, runner)
        for index, (statement_id, runner) in enumerate(_STATEMENT_RUNNERS)
    )
    return Report(
        statement_id="repro_all",
        status=STATUS_PASS if all(item.all_passed for item in items) else STATUS_FAIL,
        witnesses={
            "statements": len(items),
            "suite": list(config["factors"]),
            "fault_injected": bool(fault),
        },
        seed=seed,
        items=items,
    )
