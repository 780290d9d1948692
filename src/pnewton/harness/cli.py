"""Command-line interface.

Subcommands:

  run        execute an experiment spec file (JSON)
  solve      run a single solver on a dataset or a bundled synthetic problem
  certify    re-run contraction certification on an existing trace
  demo-root  scalar penalty/augmented root finding on a polynomial

Exit codes: 0 success, 1 solver failure, 2 usage, input or IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from ..errors import BadLabel, BadShape, EmptyDataset, ParseError, PnewtonError
from .experiment import ExperimentSpec, SolverSpec, certify_trace, run_experiment

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

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="path to the experiment spec JSON")

    p_solve = sub.add_parser("solve", help="run one solver on a dataset or builtin problem")
    p_solve.add_argument("--method", choices=["newton", "damped_newton", "pnm", "anm"], required=True)
    p_solve.add_argument("--precond", choices=["identity", "diag"], default="identity")
    p_solve.add_argument("--rho0", type=float, default=1.0)
    p_solve.add_argument("--c", type=float, default=2.0)
    p_solve.add_argument("--rho-max", type=float, default=1e12)
    p_solve.add_argument("--step-L", type=float, default=None)
    p_solve.add_argument("--alpha", type=float, default=0.1)
    p_solve.add_argument("--link", choices=["logistic", "squared"], default="logistic")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iters", type=int, default=500)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default="results")
    p_solve.add_argument("--diagnostics", action="store_true")
    p_solve.add_argument("--timing", action="store_true",
                         help="record wall time in traces (breaks byte determinism)")
    p_solve.add_argument("--dataset", default=None, help="dataset path (omit to use a builtin)")
    p_solve.add_argument("--format", choices=["csv", "libsvm"], default="csv")
    p_solve.add_argument("--problem", choices=["quadratic", "logistic"], default="quadratic",
                         help="builtin problem when no dataset is given")
    p_solve.add_argument("--n", type=int, default=8, help="builtin problem dimension")
    p_solve.add_argument("--m", type=int, default=80, help="builtin problem sample count")

    p_cert = sub.add_parser("certify", help="re-run certification on an existing trace")
    p_cert.add_argument("--trace", required=True, help="path to a <name>.trace.csv")
    p_cert.add_argument("--meta", default=None, help="meta sidecar (default: next to the trace)")

    p_root = sub.add_parser("demo-root", help="scalar root finding on a polynomial")
    p_root.add_argument("--poly", required=True, help='polynomial, e.g. "x^2-2"')
    p_root.add_argument("--rho", type=float, default=10.0)
    p_root.add_argument("--x0", type=float, required=True)
    p_root.add_argument("--x1", type=float, default=None,
                        help="second start for the augmented variant (default: x0)")
    p_root.add_argument("--tol", type=float, default=1e-10)
    p_root.add_argument("--max-iters", type=int, default=100)
    p_root.add_argument("--variant", choices=["penalty", "augmented", "both"], default="both")

    return parser


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
    """The one-solver spec a ``solve`` command line describes."""
    if args.dataset is not None:
        problem = {"path": args.dataset, "format": args.format}
    else:
        problem = {"builtin": args.problem, "n": args.n, "m": args.m}
    sspec = SolverSpec(name=args.method, method=args.method, precond=args.precond, rho0=args.rho0, c=args.c,
                       rho_max=args.rho_max, step_L=args.step_L, tol=args.tol, max_iters=args.max_iters)
    return ExperimentSpec(problem=problem, solvers=[sspec], link=args.link, alpha=args.alpha, seed=args.seed,
                          out=args.out, diagnostics=args.diagnostics, timing=args.timing)


def _cmd_certify(args) -> int:
    report, matches = certify_trace(args.trace, args.meta)
    agg = report.to_dict()["aggregate"]
    print(json.dumps(agg, indent=2))
    if matches is not None:
        print(f"matches stored certification: {matches}")
        if not matches:
            return 1
    return 0 if report.all_certified else 1


def _cmd_demo_root(args) -> int:
    from ..solvers import root_augmented_newton, root_penalty_newton

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
    x1 = args.x0 if args.x1 is None else args.x1

    def report(name, root, xs):
        print(f"{name}: root = {root:.10f} after {len(xs) - 1} iterations, |f(root)| = {abs(f(root)):.3e}")
        print("  iterates: " + ", ".join(f"{v:.10g}" for v in xs))

    if args.variant in ("penalty", "both"):
        root, xs = root_penalty_newton(f, fp, args.x0, args.rho, args.tol, args.max_iters)
        report("penalty", root, xs)
    if args.variant in ("augmented", "both"):
        root, xs = root_augmented_newton(f, fp, args.x0, x1, args.rho, args.tol, args.max_iters)
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
    except (ParseError, EmptyDataset, BadLabel, BadShape,
            OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PnewtonError, OverflowError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
