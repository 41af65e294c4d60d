"""Command-line interface: build factors, inspect structure, compute
derivation spaces, and run the full reproduction suite."""

from __future__ import annotations

import argparse
import sys

from . import derivations, factors, repro, structure, triple_core
from .errors import InvalidInput, TripleLabError
from .report import STATUS_FAIL, canonical_json, read_json, write_json


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _parse_dims(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _write_json(payload: dict, path: str | None) -> None:
    if path is None:
        print(canonical_json(payload))
    else:
        write_json(payload, path)


def _cmd_factor_build(args) -> int:
    spec = factors.FactorSpec(args.kind, _parse_dims(args.dims))
    system = factors.build_factor(spec)
    triple_core.save_system(system, args.out)
    print(f"wrote {spec.label()} (dim {system.dim}) to {args.out}")
    return 0


def _cmd_structure_peirce(args) -> int:
    system = triple_core.load_system(args.factor)
    text = args.tripotent
    try:
        if "," in text or "." in text:
            e = system.element([float(v) for v in text.split(",")])
        else:
            e = system.basis_element(int(text))
    except ValueError as exc:
        raise InvalidInput(
            f"--tripotent {text!r} is neither a basis index nor coordinates"
        ) from exc
    ps = structure.peirce(e)
    arithmetic = structure.check_peirce_arithmetic(e)
    payload = {
        "factor": system.name,
        "tripotent": e.coords.tolist(),
        "peirce_dims": list(ps.dims()),
        "projection_invariant_residual": structure.peirce_invariant_residual(ps),
        "arithmetic": arithmetic.to_dict(),
    }
    _write_json(payload, args.report)
    return 0 if arithmetic.status != STATUS_FAIL else 1


def _cmd_der_compute(args) -> int:
    system = triple_core.load_system(args.factor)
    kind = {"inner": "inner_span"}.get(args.kind, args.kind)
    space = derivations.derivation_space(system, kind)
    _write_json(derivations.space_to_json(space), args.out)
    print(f"{kind} derivation space of {system.name}: dim {space.dim}")
    return 0


def _cmd_der_check_local(args) -> int:
    system = triple_core.load_system(args.factor)
    t = triple_core.linear_map_from_json(read_json(args.map, "map"), system)
    points = derivations.default_point_set(system, samples=args.samples, seed=args.seed)
    report = derivations.local_derivation_residual(t, points, seed=args.seed)
    _write_json(report.to_dict(), args.report)
    return 0 if report.status != STATUS_FAIL else 1


def _cmd_repro_all(args) -> int:
    suite = repro.load_suite(args.suite)
    report = repro.repro_all(seed=args.seed, suite=suite, fault=args.fault)
    _write_json(report.to_dict(include_timings=args.timings), args.out)
    if args.markdown is not None:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(report.to_markdown())
    failures = report.flat_failures()
    summary = "all statements pass" if not failures else (
        f"{len(failures)} failing report(s), e.g. {failures[0].statement_id}"
    )
    print(f"repro: {summary}", file=sys.stderr)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triple-lab",
        description="Numerical laboratory for finite-dimensional JB*-triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    factor = sub.add_parser("factor", help="factor constructors")
    factor_sub = factor.add_subparsers(dest="subcommand", required=True)
    build = factor_sub.add_parser("build", help="build a factor and save it as JSON")
    build.add_argument("--kind", required=True, help="e.g. I_R, I_C, SPIN_R")
    build.add_argument("--dims", required=True, help="comma-separated, e.g. 2,2")
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_factor_build)

    struct = sub.add_parser("structure", help="tripotents and Peirce decomposition")
    struct_sub = struct.add_subparsers(dest="subcommand", required=True)
    peirce = struct_sub.add_parser("peirce", help="Peirce decomposition of a tripotent")
    peirce.add_argument("--factor", required=True)
    peirce.add_argument(
        "--tripotent",
        required=True,
        help="basis index or comma-separated coordinates",
    )
    peirce.add_argument("--report", default=None)
    peirce.set_defaults(func=_cmd_structure_peirce)

    der = sub.add_parser("der", help="derivation spaces")
    der_sub = der.add_subparsers(dest="subcommand", required=True)
    compute = der_sub.add_parser("compute", help="compute a derivation space")
    compute.add_argument("--factor", required=True)
    compute.add_argument(
        "--kind", required=True, choices=["triple", "symmetrized", "inner"]
    )
    compute.add_argument("--out", required=True)
    compute.set_defaults(func=_cmd_der_compute)
    check = der_sub.add_parser("check-local", help="pointwise local-derivation check")
    check.add_argument("--factor", required=True)
    check.add_argument("--map", required=True)
    check.add_argument("--samples", type=int, default=derivations.DEFAULT_SAMPLES)
    check.add_argument("--seed", type=_parse_seed, default=derivations.DEFAULT_SEED)
    check.add_argument("--report", default=None)
    check.set_defaults(func=_cmd_der_check_local)

    rep = sub.add_parser("repro", help="reproduce the full statement suite")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    allcmd = rep_sub.add_parser("all", help="run every statement")
    allcmd.add_argument("--seed", type=_parse_seed, default=repro.DEFAULT_SEED)
    allcmd.add_argument("--out", default=None)
    allcmd.add_argument("--markdown", default=None)
    allcmd.add_argument(
        "--fault",
        action="store_true",
        help="corrupt one tensor entry of the first suite factor (self-test)",
    )
    allcmd.add_argument("--suite", default=None, help="override the packaged suite file")
    allcmd.add_argument(
        "--timings", action="store_true", help="include volatile runtimes in the JSON"
    )
    allcmd.set_defaults(func=_cmd_repro_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TripleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
