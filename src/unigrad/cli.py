"""Command-line interface.

Subcommands:

    run           execute one algorithm and write trace.csv/report.json/bounds.csv
    check-bounds  re-verify the theorem bounds recorded in a trace file
    reference     solve a problem to high accuracy and print x*, f* and the
                  certificate gap >= f(x*) - f*

Validation failures exit with status 2 and a message naming the offending
field; check-bounds exits 1 when a bound is violated.
"""

import argparse
import functools
import json
import os
import sys

from .harness import (
    ALGORITHMS,
    ORDERS,
    PROBLEM_FIELDS,
    REFERENCE_TOL,
    RunConfig,
    check_bounds,
    problem_from_descriptor,
    reference_solution,
    run_experiment,
)


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", dest="path", default=None, metavar="PATH",
                        help="sample CSV for lasso-csv (rows: b,a_1,...,a_p)")
    parser.add_argument("--p", type=int, default=20, help="dimension (generators)")
    parser.add_argument("--n", type=int, default=100, help="sample count for synth-lasso")
    parser.add_argument("--m", type=int, default=50, help="center count for steiner")
    parser.add_argument("--sparsity", type=int, default=5,
                        help="nonzeros in the synth-lasso ground truth")
    parser.add_argument("--noise", type=float, default=0.1,
                        help="observation noise scale for synth-lasso")
    parser.add_argument("--mu", type=float, default=0.1, help="l1 weight of the regularizer")
    parser.add_argument("--ridge", type=float, default=0.0,
                        help="ridge weight (makes the regularizer strongly convex)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for data generation and sampling order")
    parser.add_argument("--tol", type=float, default=REFERENCE_TOL,
                        help="fixed-point residual tolerance of the reference solver")


@functools.cache  # one parser a process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unigrad",
        description="Universal gradient methods for composite problems: "
                    "online primal/dual variants and a stochastic surrogate method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write artifacts")
    run_p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--problem", required=True, choices=PROBLEM_FIELDS)
    run_p.add_argument("--fixed-step", action="store_true",
                       help="replace the line search with the fixed accuracy-matched modulus")
    run_p.add_argument("--eps", default="1e-2",
                       help="accuracy parameter: a positive float, or 'auto' for "
                            "T^(-(1+v)/2), v the stream's Holder degree")
    run_p.add_argument("--L0", type=float, default=1.0, help="initial modulus guess")
    run_p.add_argument("--M", type=float, default=None, help="surrogate modulus (sug)")
    run_p.add_argument("--T", type=int, default=1000, help="round/iteration budget")
    run_p.add_argument("--order", choices=ORDERS, default="random")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default runs/<algorithm>)")
    _add_problem_flags(run_p)

    chk_p = sub.add_parser("check-bounds",
                           help="recompute the theorem bounds for a saved trace")
    chk_p.add_argument("trace", help="path to a trace.csv written by run")

    ref_p = sub.add_parser("reference", help="solve a problem to high accuracy")
    ref_p.add_argument("problem", choices=PROBLEM_FIELDS)
    _add_problem_flags(ref_p)

    return parser


def _problem_descriptor(args) -> dict:
    """The descriptor of the chosen problem: each field of its kind in
    PROBLEM_FIELDS from the flag of its name, path from --data."""
    desc = {"kind": args.problem}
    desc.update((key, getattr(args, key)) for key in PROBLEM_FIELDS[args.problem])
    if "path" in desc:
        if not desc["path"]:
            raise ValueError(f"data is required when problem is {args.problem} (flag --data)")
        # absolute, so check-bounds can rebuild the problem from any directory
        desc["path"] = os.path.abspath(desc["path"])
    return desc


def _parse_eps(text):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"eps must be a positive float or 'auto', got {text!r}") from None


def _cmd_run(args) -> int:
    # every other field from the flag of its name
    cfg = RunConfig(
        problem=_problem_descriptor(args), out=args.out or f"runs/{args.algorithm}",
        eps=_parse_eps(args.eps), **{key: getattr(args, key) for key in (
            "algorithm", "T", "L0", "M", "order", "seed", "fixed_step", "tol")},
    )
    paths = run_experiment(cfg)
    print(json.dumps(paths, indent=2, sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    report, ok = check_bounds(args.trace)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_reference(args) -> int:
    problem = problem_from_descriptor(_problem_descriptor(args))
    ref = reference_solution(problem, tol=args.tol)
    print(
        json.dumps(
            {
                "x_star": [float(v) for v in ref.x],
                "f_star": ref.f,
                "gap": ref.gap,
                "iterations": ref.iterations,
                "residual": ref.residual,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-bounds":
            return _cmd_check(args)
        return _cmd_reference(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
