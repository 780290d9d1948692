"""Shared seeded instance generators and experiment specs for the test suite."""

import os

# One BLAS thread, set before numpy loads BLAS: on these small matrices a
# multi-threaded BLAS waits on busy cores, which makes the wall-clock budgets
# in test_acceptance depend on machine load. An explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from pnewton.harness import ExperimentSpec, SolverSpec
from pnewton.objective import glm_build


def rand_psd(rng, n, rank=None):
    """Random symmetric PSD matrix of the given rank (full rank by default)."""
    rank = n if rank is None else rank
    B = rng.standard_normal((n, rank))
    H = B @ B.T
    return 0.5 * (H + H.T)


def rand_pd(rng, n):
    """Random symmetric PD matrix, dense (non-diagonal), eigenvalues roughly [0.4, 2]."""
    B = rng.standard_normal((n, n))
    G = B @ B.T + n * np.eye(n)
    G *= 2.0 / np.linalg.norm(G, 2)
    return 0.5 * (G + G.T)


def fixed_rho(rho):
    """The ``SolverConfig`` settings that hold the penalty at ``rho``."""
    return {"rho0": rho, "c": 1.0, "rho_max": rho}


def rand_glm(seed, n=8, m=40, alpha=0.3, link="logistic"):
    """Seeded GLM problem with O(1)-scale data; returns (problem, model)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) / np.sqrt(n)
    if link == "logistic":
        labels = np.where(rng.standard_normal(m) >= 0.0, 1.0, -1.0)
    else:
        labels = rng.standard_normal(m)
    problem = glm_build(A, link, alpha, labels)
    return problem, problem.model()


def quadratic_spec(outdir, solvers=None, **kwargs):
    """The builtin quadratic (n = 6, seed 1) under newton, pnm and anm, or under ``solvers``."""
    solvers = solvers or [
        SolverSpec(name="newton", method="newton"),
        SolverSpec(name="pnm", method="pnm"),
        SolverSpec(name="anm", method="anm"),
    ]
    return ExperimentSpec(
        problem={"builtin": "quadratic", "n": 6},
        solvers=solvers,
        seed=1,
        out=str(outdir),
        **kwargs,
    )


def lock_spec(outdir):
    """The builtin logistic (10 x 80, seed 17) under all six solvers, diagnostics on."""
    solvers = [SolverSpec(name="newton", method="newton"), SolverSpec(name="damped_newton", method="damped_newton")]
    solvers += [
        SolverSpec(name=f"{method}_{precond}", method=method, precond=precond, max_iters=300)
        for method in ("pnm", "anm") for precond in ("identity", "diag")
    ]
    return ExperimentSpec(
        problem={"builtin": "logistic", "n": 10, "m": 80},
        solvers=solvers,
        alpha=0.1,
        seed=17,
        out=str(outdir),
        diagnostics=True,
    )


def step_below_L_spec(outdir):
    """The default builtin logistic (20 x 200, seed 0) under pnm, diag pnm and anm at step_L = 0.6, below its L."""
    solvers = [SolverSpec(name="pnm", method="pnm", step_L=0.6),
               SolverSpec(name="pnm_diag", method="pnm", precond="diag", step_L=0.6),
               SolverSpec(name="anm", method="anm", step_L=0.6)]
    return ExperimentSpec(problem={"builtin": "logistic", "n": 20, "m": 200}, solvers=solvers,
                          seed=0, alpha=0.1, out=str(outdir), diagnostics=True)
