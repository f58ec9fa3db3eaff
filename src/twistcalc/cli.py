"""Command line surface: suites, charge, Haar, Hodge, integration, oracle.

Exit codes: 0 success, 1 check failures, 2 usage errors (bad flags, bad
expressions, out-of-range indices).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import sys
import warnings

from . import chern, oracle, sphere
from .exprio import format_element, format_scalar, parse_expr
from .haar import haar_plane
from .qphase import DeformationContext
from .suites import SUITE_NAMES, run_suite

_DEFAULT_THETA = math.pi / 4


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="twistcalc",
        description="Exact calculus on twisted quantum Euclidean planes and spheres")
    sub = top.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="verification suites")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    run = suite_sub.add_parser("run", help="run one suite or 'all'")
    run.add_argument("name", choices=SUITE_NAMES)
    run.add_argument("--dim", type=int, default=5)
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--moduli", type=_moduli_arg, default=None,
                     help="oracle suite: modulus of each of the two models")
    run.add_argument("--json", action="store_true")
    run.add_argument("--profile", metavar="FILE", default=None,
                     help="write cProfile stats of the run to FILE")

    ch = sub.add_parser("charge", help="instanton charge on the 2n-sphere")
    ch.add_argument("--n", type=int, required=True)
    ch.add_argument("--numeric-check", action="store_true",
                    help="also report the numeric value at sample phases")
    ch.add_argument("--json", action="store_true")
    ch.add_argument("--profile", metavar="FILE", default=None,
                    help="write cProfile stats of the computation to FILE")

    ha = sub.add_parser("haar", help="Haar functional of a function")
    ha.add_argument("--dim", type=int, required=True)
    ha.add_argument("--expr", type=str, required=True)
    ha.add_argument("--theta", type=_theta_arg, default=None,
                    help="angles for the numeric value (default pi/4 each)")
    ha.add_argument("--json", action="store_true")

    ho = sub.add_parser("hodge", help="sphere Hodge star of a form")
    ho.add_argument("--sphere", type=int, required=True, metavar="N")
    ho.add_argument("--expr", type=str, required=True)

    it = sub.add_parser("integrate", help="integral of a top sphere form")
    it.add_argument("--sphere", type=int, required=True, metavar="N")
    it.add_argument("--expr", type=str, required=True)
    it.add_argument("--theta", type=_theta_arg, default=None)

    orc = sub.add_parser("oracle", help="numeric model evaluation")
    orc.add_argument("--dim", type=int, required=True)
    orc.add_argument("--expr", type=str, required=True)
    orc.add_argument("--moduli", type=_moduli_arg, default=None,
                     help="modulus of each of the two models, e.g. 13,17"
                          " (one value serves both; each at least 3); a"
                          " model of modulus m has side m^ceil(h/2), h = D//2")
    orc.add_argument("--seed", type=int, default=42)
    orc.add_argument("--points", type=int, default=20)
    orc.add_argument("--sphere-class", action="store_true",
                     help="check the sphere class instead of the plane element")
    orc.add_argument("--json", action="store_true")
    return top


def _moduli_arg(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad moduli list {text!r}")


def _theta_arg(text: str):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}")


def _angles(ctx: DeformationContext, theta):
    if theta is None:
        return [_DEFAULT_THETA] * ctx.nparams
    if len(theta) == 1:
        return theta * ctx.nparams
    if len(theta) != ctx.nparams:
        raise ValueError(
            f"need {ctx.nparams} angles for dimension {ctx.dim}, got {len(theta)}")
    return theta


def _complex_json(z) -> dict | None:
    if z is None:
        return None
    return {"re": z.real, "im": z.imag}


def _profiled(command, args) -> int:
    """Run a command, under cProfile when --profile names a stats file."""
    if args.profile is None:
        return command(args)
    profile = cProfile.Profile()
    try:
        return profile.runcall(command, args)
    finally:
        profile.dump_stats(args.profile)


def _cmd_suite_run(args) -> int:
    report = run_suite(args.name, dim=args.dim, n=args.n, seed=args.seed,
                       moduli=args.moduli)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        status = "ok" if report.ok else "FAILED"
        print(f"suite {report.suite}: {report.cases} cases, "
              f"{len(report.failures)} failures [{status}] "
              f"({report.wall_time_s:.2f}s, seed {report.seed})")
        for nm, (cases, wall) in report.suites.items():
            print(f"  {nm}: {cases} cases ({wall:.2f}s)")
        for f in report.failures:
            print(f"  FAIL {f['expression']}: expected {f['expected']}, "
                  f"got {f['got']}")
            if "residue" in f:
                print(f"    residue outside J: {f['residue']}")
    return 0 if report.ok else 1


def _cmd_charge(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be a positive integer")
    value = chern.charge(args.n)  # refuses n above the limit first
    exact = format_scalar(value)
    ok = value == value.ctx.scalar_one()
    numeric = None
    if args.numeric_check:
        numeric = value.eval([_DEFAULT_THETA] * value.ctx.nparams)
    if args.json:
        print(json.dumps({"n": args.n, "exact": exact, "is_one": ok,
                          "numeric": _complex_json(numeric)}))
    else:
        print(f"charge(n={args.n}) = {exact}")
        if numeric is not None:
            print(f"numeric check at theta=pi/4: {numeric:.12g}")
    return 0 if ok else 1


def _cmd_haar(args) -> int:
    ctx = DeformationContext(args.dim)
    value = haar_plane(ctx, parse_expr(ctx, args.expr))
    angles = _angles(ctx, args.theta)
    numeric = value.eval(angles)
    if args.json:
        print(json.dumps({"exact": format_scalar(value),
                          "numeric": _complex_json(numeric)}))
    else:
        print(f"exact:   {format_scalar(value)}")
        print(f"numeric: {numeric:.12g}")
    return 0


def _cmd_hodge(args) -> int:
    ctx = DeformationContext(args.sphere + 1)
    result = sphere.hodge_sphere(parse_expr(ctx, args.expr))
    # every term of a sphere star carries some x^{a'}, so only a zero
    # result is a number
    print(json.dumps({"exact": format_element(result),
                      "numeric": None if result else _complex_json(0j),
                      "degree": result.form_degree() if result else 0}))
    return 0


def _cmd_integrate(args) -> int:
    ctx = DeformationContext(args.sphere + 1)
    value = sphere.integrate_form(parse_expr(ctx, args.expr))
    numeric = value.eval(_angles(ctx, args.theta))
    print(json.dumps({"exact": format_scalar(value),
                      "numeric": _complex_json(numeric),
                      "degree": 0}))
    return 0


def _cmd_oracle(args) -> int:
    ctx = DeformationContext(args.dim)
    el = parse_expr(ctx, args.expr)
    checker = oracle.BatchChecker(ctx, args.seed, args.points, args.moduli)
    with warnings.catch_warnings():
        # numpy's overflow warnings: an overflow shows as an inf sup
        warnings.simplefilter("ignore", RuntimeWarning)
        sup = (checker.sphere_sup(el) if args.sphere_class
               else checker.element_sup(el))
    is_zero = sup < oracle.DEFAULT_TOL
    payload = {"max_abs": sup, "zero": is_zero, "seed": args.seed,
               "points": args.points,
               "mode": "sphere-class" if args.sphere_class else "plane"}
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"max |value| over samples: {sup:.3e}  "
              f"({payload['mode']}, seed {args.seed})")
        print(f"zero within {oracle.DEFAULT_TOL:g}: {is_zero}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            return _profiled(_cmd_suite_run, args)
        if args.command == "charge":
            return _profiled(_cmd_charge, args)
        if args.command == "haar":
            return _cmd_haar(args)
        if args.command == "hodge":
            return _cmd_hodge(args)
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (ValueError, IndexError) as exc:
        # every usage error, a bad expression (ExprSyntaxError) included
        print(f"twistcalc: error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
