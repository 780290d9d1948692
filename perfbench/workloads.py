"""The benchmark's workloads: sizes, experiment specs and seeded input files.

Every input is a function of the run's seed. pnewton itself only receives the
generated files: an experiment spec, and for ``wide-replay`` a libsvm dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-8
ALPHA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    link: str
    n: int
    m: int
    diagnostics: bool
    solvers: tuple[tuple[str, str], ...]  # (method, precond)
    replay: bool = False
    density: float = 1.0

    @property
    def data_file(self) -> str | None:
        return "data.libsvm" if self.replay else None

    def solver_names(self) -> list[str]:
        return [solver_name(method, precond) for method, precond in self.solvers]

    def sizes(self) -> dict:
        out = {"n": self.n, "m": self.m, "link": self.link, "alpha": ALPHA, "tol": TOL,
               "solvers": self.solver_names(), "diagnostics": self.diagnostics}
        if self.replay:
            out["density"] = self.density
        return out


def solver_name(method: str, precond: str) -> str:
    return method if method in ("newton", "damped_newton") else f"{method}_{precond}"


ALL_SOLVERS = ("newton", "damped_newton", "pnm_identity", "pnm_diag", "anm_identity", "anm_diag")

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="tall-oracle",
            link="logistic", n=150, m=20000, diagnostics=False,
            solvers=(("newton", "identity"), ("damped_newton", "identity"),
                     ("pnm", "identity"), ("pnm", "diag"), ("anm", "identity"), ("anm", "diag")),
        ),
        Workload(
            name="square-certify",
            link="logistic", n=300, m=600, diagnostics=True,
            solvers=(("pnm", "identity"), ("pnm", "diag"), ("anm", "identity"), ("anm", "diag")),
        ),
        Workload(
            name="wide-replay",
            link="squared", n=300, m=150, diagnostics=True,
            solvers=(("newton", "identity"), ("damped_newton", "identity"),
                     ("pnm", "diag"), ("anm", "identity")),
            replay=True, density=0.2,
        ),
    ]
}


def make_sparse_regression(n: int, m: int, density: float, seed: int):
    """Seeded sparse ``(A, y)`` with ``A`` of shape ``(n, m)``.

    Every feature row gets at least one nonzero, so the libsvm file names all
    ``n`` features and reads back at full width.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < density
    empty = ~mask.any(axis=1)
    mask[empty, rng.integers(0, m, size=int(empty.sum()))] = True
    A = np.where(mask, rng.standard_normal((n, m)), 0.0) / np.sqrt(density * n)
    w = rng.standard_normal(n)
    y = A.T @ w + 0.1 * rng.standard_normal(m)
    return A, y


def write_libsvm(path, A, labels) -> None:
    """Write ``(A, labels)`` as libsvm lines ``label idx:val ...`` (1-based, nonzeros only).

    Floats are written with shortest round-trip ``repr`` so the file reads
    back bit for bit.
    """
    A = np.asarray(A, dtype=float)
    lines = []
    for j in range(A.shape[1]):
        col = A[:, j]
        fields = [repr(float(labels[j]))]
        fields += [f"{i + 1}:{float(col[i])!r}" for i in np.flatnonzero(col)]
        lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def experiment_spec(w: Workload, seed: int) -> dict:
    if w.replay:
        problem = {"path": w.data_file, "format": "libsvm"}
    else:
        problem = {"builtin": "logistic", "n": w.n, "m": w.m}
    return {
        "problem": problem,
        "link": w.link,
        "alpha": ALPHA,
        "seed": seed,
        "out": "out",
        "diagnostics": w.diagnostics,
        "fstar": {"policy": "oracle"},
        "solvers": [
            {"name": solver_name(method, precond), "method": method, "precond": precond,
             "tol": TOL, "max_iters": 500}
            for method, precond in w.solvers
        ],
    }


def prepare(workdir: Path, w: Workload, seed: int) -> None:
    """Write the spec (and the dataset, for replay workloads) into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if w.replay:
        A, y = make_sparse_regression(w.n, w.m, w.density, seed)
        write_libsvm(workdir / w.data_file, A, y)
    with open(workdir / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(experiment_spec(w, seed), fh, indent=2)
        fh.write("\n")
