"""Shared seeded instance generators for the test suite."""

import os

# One BLAS thread, set before numpy loads BLAS: on these small matrices a
# multi-threaded BLAS waits on busy cores, which makes the wall-clock budgets
# in test_acceptance depend on machine load. An explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

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
