"""Command-line interface.

Subcommands:

  run        execute an experiment spec file (JSON)
  solve      run a single solver on a dataset or a bundled synthetic problem
  certify    re-run the solver of a trace, check that it reproduces its files, and certify it
  demo-root  scalar penalty/augmented root finding on a polynomial

Exit codes: 0 success, 1 solver or replay failure, 2 usage, input or IO error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from ..errors import PnewtonError, ReplayMismatch
from ..objective import LINK_CURVATURE
from ..solvers import METHODS, root_augmented_newton, root_penalty_newton
from .datasets import READERS
from .experiment import BUILTINS, PRECONDITIONERS, ExperimentSpec, SolverSpec, certify_trace, run_experiment

__all__ = ["cli_main", "main", "parse_polynomial", "poly_eval", "poly_derivative"]

_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*(?P<var>x)?(?:\^(?P<power>\d+))?$"
)


def parse_polynomial(text: str) -> dict[int, float]:
    """Parse a single-variable polynomial like ``x^2-2`` into {power: coeff}.

    Supports integer powers, optional ``*`` between coefficient and ``x``,
    and plain decimal coefficients.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    # split into signed terms: insert separators before every +/- sign
    pieces = re.sub(r"(?<!^)([+-])", r";\1", compact).split(";")
    coeffs: dict[int, float] = {}
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if m is None or (m.group("power") and not m.group("var")):
            raise ValueError(f"could not parse polynomial term {piece!r}")
        coeff_str = m.group("coeff")
        if m.group("var"):
            if coeff_str in ("", "+"):
                coeff = 1.0
            elif coeff_str == "-":
                coeff = -1.0
            else:
                coeff = float(coeff_str)
            power = int(m.group("power")) if m.group("power") else 1
        else:
            if coeff_str in ("", "+", "-"):
                raise ValueError(f"could not parse polynomial term {piece!r}")
            coeff = float(coeff_str)
            power = 0
        coeffs[power] = coeffs.get(power, 0.0) + coeff
    return coeffs


def poly_eval(coeffs: dict[int, float], x: float) -> float:
    return sum(c * x**p for p, c in coeffs.items())


def poly_derivative(coeffs: dict[int, float]) -> dict[int, float]:
    return {p - 1: c * p for p, c in coeffs.items() if p >= 1}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # an option not given stays out of ``args``, so the spec's or the library's default applies
    add_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="path to the experiment spec JSON")

    p_solve = add_parser("solve", help="run one solver on a dataset or builtin problem")
    p_solve.add_argument("--method", choices=METHODS, required=True)
    p_solve.add_argument("--precond", choices=list(PRECONDITIONERS))
    p_solve.add_argument("--rho0", type=float)
    p_solve.add_argument("--c", type=float)
    p_solve.add_argument("--rho-max", type=float)
    p_solve.add_argument("--step-L", type=float)
    p_solve.add_argument("--alpha", type=float)
    p_solve.add_argument("--link", choices=sorted(LINK_CURVATURE))
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-iters", type=int)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--out")
    p_solve.add_argument("--diagnostics", action="store_true")
    p_solve.add_argument("--timing", action="store_true",
                         help="record wall time in traces (breaks byte determinism)")
    p_solve.add_argument("--dataset", dest="path", help="dataset path (omit to use a builtin)")
    p_solve.add_argument("--format", choices=list(READERS))
    p_solve.add_argument("--problem", dest="builtin", choices=list(BUILTINS), default=next(iter(BUILTINS)),
                         help="builtin problem when no dataset is given")
    p_solve.add_argument("--n", type=int, help="builtin problem dimension")
    p_solve.add_argument("--m", type=int, help="builtin problem sample count")

    p_cert = add_parser("certify", help="re-run the solver of an existing trace, check it and certify it")
    p_cert.add_argument("--trace", dest="trace_path", required=True, help="path to a <name>.trace.csv")

    p_root = add_parser("demo-root", help="scalar root finding on a polynomial")
    p_root.add_argument("--poly", required=True, help='polynomial, e.g. "x^2-2"')
    p_root.add_argument("--rho", type=float, default=10.0)
    p_root.add_argument("--x0", type=float, required=True)
    p_root.add_argument("--x1", type=float, help="second start for the augmented variant (default: x0)")
    p_root.add_argument("--tol", type=float)
    p_root.add_argument("--max-iters", type=int)
    p_root.add_argument("--variant", choices=["penalty", "augmented", "both"], default="both")

    return parser


def _given(args, names) -> dict:
    """The options among ``names`` that the command line set."""
    return {name: value for name, value in vars(args).items() if name in names}


def _run(spec: ExperimentSpec) -> int:
    """Run ``spec`` and print one line per solver; 1 when a solver did not converge."""
    summary = run_experiment(spec)
    print(f"wrote {len(summary['solvers'])} trace(s) to {spec.out}")
    for entry in summary["solvers"]:
        gap = entry["final_gap"]
        gap_str = "" if gap is None else f"  gap={gap:.3e}"
        print(
            f"  {entry['name']}: {entry['termination']} in {entry['iterations']} iters, "
            f"||grad||={entry['final_grad_norm']:.3e}{gap_str}"
        )
    unconverged = [entry["name"] for entry in summary["solvers"] if entry["termination"] != "converged"]
    if unconverged:
        print(f"solver failure: not converged: {', '.join(unconverged)}", file=sys.stderr)
    return 1 if unconverged else 0


def _solve_spec(args) -> ExperimentSpec:
    """The one-solver spec a ``solve`` command line describes; options not given keep the spec's defaults."""
    problem = _given(args, ("path", "format") if "path" in args else ("builtin", "n", "m"))
    sspec = SolverSpec(name=args.method, **_given(args, SolverSpec.__dataclass_fields__))
    return ExperimentSpec(problem=problem, solvers=[sspec], **_given(args, ExperimentSpec.__dataclass_fields__))


def _cmd_certify(args) -> int:
    report, matches = certify_trace(args.trace_path)
    aggregate = report.to_dict()["aggregate"]
    print(json.dumps(aggregate, indent=2))
    if matches is not None:
        print(f"matches stored certification: {matches}")
    return 0 if matches is not False and aggregate["all_certified"] else 1


def _cmd_demo_root(args) -> int:
    coeffs = parse_polynomial(args.poly)
    deriv = poly_derivative(coeffs)

    def evaluator(c, what):
        def evaluate(x):
            try:
                return poly_eval(c, x)
            except OverflowError:  # float ** raises where float * gives inf
                raise OverflowError(f"evaluating {what} at x = {x!r} overflowed a float") from None
        return evaluate

    f = evaluator(coeffs, f"the polynomial {args.poly!r}")
    fp = evaluator(deriv, f"the derivative of {args.poly!r}")
    budget = _given(args, ("tol", "max_iters"))

    def report(name, root, xs):
        print(f"{name}: root = {root:.10f} after {len(xs) - 1} iterations, |f(root)| = {abs(f(root)):.3e}")
        print("  iterates: " + ", ".join(f"{v:.10g}" for v in xs))

    if args.variant in ("penalty", "both"):
        root, xs = root_penalty_newton(f, fp, args.x0, args.rho, **budget)
        report("penalty", root, xs)
    if args.variant in ("augmented", "both"):
        root, xs = root_augmented_newton(f, fp, args.x0, getattr(args, "x1", args.x0), args.rho, **budget)
        report("augmented", root, xs)
    return 0


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _run(ExperimentSpec.from_json_file(args.spec))
        if args.command == "solve":
            return _run(_solve_spec(args))
        if args.command == "certify":
            return _cmd_certify(args)
        return _cmd_demo_root(args)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PnewtonError, OverflowError) as exc:
        print(f"{'replay' if isinstance(exc, ReplayMismatch) else 'solver'} failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
