"""Command-line interface.

Subcommands: check, fit, synth, mean, envelope, caratheodory, report.
Exit codes: 0 = pass, 1 = property failed, 2 = usage error, 3 = numerical
failure.  Every randomized command requires --seed; there is no wall-clock
default, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._version import __version__
from .acceptance import criterion_names, run_acceptance
from .choquet import caratheodory_decompose, concave_envelope
from .connections import (
    arithmetic_spec,
    evaluate_connection,
    geometric_spec,
    harmonic_spec,
)
from .errors import NumericalFailure, UsageError
from .fileio import (
    dump_json,
    dump_samples_csv,
    load_gridfunction_csv,
    load_matrix,
    load_measure,
    load_polytope,
    load_samples_csv,
    matrix_to_obj,
    measure_to_obj,
    parse_point_arg,
)
from .functions import _node_values, get_function
from .hermitian import Interval
from .measures import (
    RadonMeasure01,
    _require_design_size,
    default_lambda_grid,
    fit_measure,
    synthesize,
)
from .monotonicity import (
    check_convex_order_n,
    check_midpoint_concavity,
    check_monotone_direct,
    check_monotone_order_n,
)
from .report import DEFAULT_ORDER_CAP, CheckRecord, RunConfig, make_report

_CHECKERS = {
    "monotone": (check_monotone_order_n, r"[\Delta f(t_i, t_j)]_{i,j=1}^{n} \geq 0"),
    "convex": (check_convex_order_n, r"[\Delta^2 f(t_i, t_j, t_1)]_{i,j} \geq 0"),
    "monotone-direct": (check_monotone_direct, r"A \leq B \Rightarrow f(A) \leq f(B)"),
    "concave-midpoint": (
        check_midpoint_concavity,
        r"f(\tfrac{A+B}{2}) \geq \tfrac{f(A)+f(B)}{2}",
    ),
}


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--interval expects LO,HI; got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"--interval expects numbers; got {text!r}") from exc
    return Interval(lo, hi)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _witness_obj(witness):
    from .divdiff import NodeSet
    from .hermitian import HermitianMatrix

    if witness is None:
        return None
    if isinstance(witness, NodeSet):
        return {"nodes": list(witness.nodes)}
    if isinstance(witness, tuple) and all(isinstance(w, HermitianMatrix) for w in witness):
        return {"pair": [matrix_to_obj(w) for w in witness]}
    return repr(witness)


def cmd_check(args) -> int:
    f = get_function(args.function)
    if args.order < 1 or args.order > DEFAULT_ORDER_CAP:
        raise UsageError(f"--order must be in [1, {DEFAULT_ORDER_CAP}], got {args.order}")
    iv = _parse_interval(args.interval)
    cfg = RunConfig(seed=args.seed, trials=args.trials)
    checker, anchor = _CHECKERS[args.property]
    verdict = checker(f, args.order, iv, args.trials, args.seed)
    record = CheckRecord(
        name=f"check:{args.function}:{args.property}",
        anchor=anchor,
        outcome=verdict.outcome,
        evidence={
            "function": args.function,
            "property": args.property,
            "order": verdict.order,
            "trials": verdict.trials,
            "interval": [iv.lo, iv.hi],
            "min_eig_over_norm": verdict.min_eig_seen,
            "witness": _witness_obj(verdict.witness),
        },
    )
    report = make_report(__version__, cfg, [record])
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_fit(args) -> int:
    samples = load_samples_csv(args.samples)
    _require_design_size(len(samples), args.grid_size)
    grid = default_lambda_grid(args.grid_size)
    mu, residual = fit_measure(samples, grid, mass_constraint=args.mass)
    if args.format == "csv":
        text = dump_samples_csv(mu.atoms, header=("lambda", "w"))
    else:
        text = dump_json(measure_to_obj(mu))
    _emit(text, args.out)
    print(f"residual: {residual:.6e}  atoms: {len(mu.atoms)}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    if not (0.0 < args.tmin <= args.tmax < math.inf):
        raise UsageError(
            f"--tmin/--tmax must satisfy 0 < tmin <= tmax < inf, got {args.tmin}, {args.tmax}"
        )
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    f = synthesize(load_measure(args.measure))
    ts = np.geomspace(args.tmin, args.tmax, args.count)
    vals = _node_values(f, ts)
    finite = np.isfinite(vals)
    if not finite.all():
        t = float(ts[np.argmin(finite)])
        raise NumericalFailure(f"the synthesized function overflows at t = {t!r}")
    pairs = list(zip(ts.tolist(), vals.tolist()))
    if args.format == "json":
        text = dump_json({"samples": [[t, v] for t, v in pairs]})
    else:
        text = dump_samples_csv(pairs)
    _emit(text, args.out)
    return 0


def _resolve_connection(name: str) -> RadonMeasure01:
    if name == "arithmetic":
        return arithmetic_spec()
    if name == "harmonic":
        return harmonic_spec()
    if name == "geometric":
        return geometric_spec()
    if name.startswith("geometric:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad node count in {name!r}") from exc
        return geometric_spec(n)
    # anything else is a path to a measure JSON file
    return load_measure(name)


def cmd_mean(args) -> int:
    spec = _resolve_connection(args.spec)
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    result = evaluate_connection(spec, a, b)
    _emit(dump_json(matrix_to_obj(result)), args.out)
    return 0


def cmd_envelope(args) -> int:
    gf = load_gridfunction_csv(args.grid)
    env = concave_envelope(gf)
    pairs = list(zip(env.xs.tolist(), env.ys.tolist()))
    if args.format == "json":
        text = dump_json({"xs": env.xs.tolist(), "ys": env.ys.tolist()})
    else:
        text = dump_samples_csv(pairs, header=("x", "envelope"))
    _emit(text, args.out)
    return 0


def cmd_caratheodory(args) -> int:
    vertices, embedded = load_polytope(args.polytope)
    if args.point is not None:
        point = parse_point_arg(args.point, vertices.shape[1])
    elif embedded is not None:
        point = embedded
    else:
        raise UsageError('no point given: pass --point or a "point" key in the JSON')
    res = caratheodory_decompose(vertices, point)
    obj = {
        "indices": res.indices.tolist(),
        "weights": res.weights.tolist(),
        "point": res.point.tolist(),
        "residual": res.residual,
    }
    _emit(dump_json(obj), args.out)
    return 0


def cmd_report(args) -> int:
    names = None
    if args.criteria is not None:
        names = [n.strip() for n in args.criteria.split(",") if n.strip()]
        if not names:
            raise UsageError(f"--criteria names no criterion: {args.criteria!r}")
    cfg = RunConfig(seed=args.seed, trials=args.trials)
    report = run_acceptance(cfg, names)
    _emit(report.to_json(), args.out)
    for rec in report.records:
        print(f"{rec.outcome.upper():4s}  {rec.name}", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loewnerlab",
        description="Loewner matrices, operator monotonicity, and operator means",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="randomized matrix-order checks for a catalog function")
    c.add_argument("function", help="catalog name, e.g. sqrt, power:0.25, kernel:0.5")
    c.add_argument("--property", choices=sorted(_CHECKERS), default="monotone")
    c.add_argument("--order", type=int, default=4)
    c.add_argument("--interval", default="0.1,10")
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("fit", help="fit a kernel measure to CSV samples of t,f(t)")
    c.add_argument("samples")
    c.add_argument("--grid-size", type=int, default=200)
    c.add_argument("--mass", type=float, default=None)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--out")
    c.set_defaults(func=cmd_fit)

    c = sub.add_parser("synth", help="sample the function synthesized from a measure JSON")
    c.add_argument("measure")
    c.add_argument("--tmin", type=float, default=1e-3)
    c.add_argument("--tmax", type=float, default=1e3)
    c.add_argument("--count", type=int, default=60)
    c.add_argument("--format", choices=["json", "csv"], default="csv")
    c.add_argument("--out")
    c.set_defaults(func=cmd_synth)

    c = sub.add_parser("mean", help="apply a connection to two positive definite matrices")
    c.add_argument("spec", help="arithmetic | harmonic | geometric[:N] | measure JSON path")
    c.add_argument("a", help="matrix file (JSON, or CSV for real symmetric)")
    c.add_argument("b", help="matrix file (JSON, or CSV for real symmetric)")
    c.add_argument("--out")
    c.set_defaults(func=cmd_mean)

    c = sub.add_parser("envelope", help="least concave majorant of a CSV grid function")
    c.add_argument("grid")
    c.add_argument("--format", choices=["json", "csv"], default="csv")
    c.add_argument("--out")
    c.set_defaults(func=cmd_envelope)

    c = sub.add_parser("caratheodory", help="convex decomposition over polytope vertices")
    c.add_argument("polytope", help='JSON with "vertices" (and optionally "point")')
    c.add_argument("--point", help="comma-separated coordinates")
    c.add_argument("--out")
    c.set_defaults(func=cmd_caratheodory)

    c = sub.add_parser("report", help="run the acceptance criteria and emit a report")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--trials", type=int, default=None)
    c.add_argument(
        "--criteria",
        help=f"comma-separated subset of: {', '.join(criterion_names())}",
    )
    c.add_argument("--out")
    c.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a size argument too large to allocate is a usage error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
