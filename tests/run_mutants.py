"""Run tier-1 against one-token mutants of ``src/pnewton``: does each check bite?

Usage::

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py tie_slack  # only the named ones

Each mutant replaces one exact snippet of one source file. The runner copies the
repository (no ``.git``, no caches) to a temporary directory, runs tier-1 there
unmutated as a control, and then, for each mutant, applies it to a fresh copy
and runs tier-1 with ``-x`` and BLAS on one thread. A failing run prints
``killed`` and the test that failed, a passing one ``survived``. The exit status is 0 when every mutant
is killed or listed in ``EQUIVALENT``, 1 when another mutant survives, and 2
when the control fails or a snippet is not found exactly once (the list is stale).

The name does not start with ``test_``, so pytest does not collect this file and
tier-1 does not run it. A full run takes about as long as tier-1 once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/pnewton
    old: str
    new: str


MUTANTS = [
    # tolerances
    Mutant("energy_tol", "diagnostics.py", "ENERGY_TOL = 1e-10", "ENERGY_TOL = 1e-8"),
    Mutant("range_tol", "linalg.py", "residual <= 1e-8 * (1.0", "residual <= 1e-6 * (1.0"),
    Mutant("norm_clamp_band", "linalg.py", "band = 1e-12 *", "band = 1e-9 *"),
    Mutant("symmetry_rtol", "linalg.py", "SYMMETRY_RTOL = 1e-12", "SYMMETRY_RTOL = 1e-9"),
    Mutant("fstar_premise", "diagnostics.py", "record in records)) + FSTAR_SLACK:", "record in records)) + 1e-6:"),
    # damped Newton near the float floor
    Mutant("tie_slack", "solvers.py", "tie_slack = 16.0 *", "tie_slack = 64.0 *"),
    Mutant("stall_threshold", "solvers.py", "if t < 1e-16:", "if t < 1e-20:"),
    # the composite value's clamp band is open at -FSTAR_SLACK
    Mutant("fstar_band_edge", "solvers.py", "-FSTAR_SLACK < v < 0.0", "-FSTAR_SLACK <= v < 0.0"),
    # the run loop and its settings
    Mutant("anm_rho_frozen", "solvers.py", "rho_max) if penalized else rho", 'rho_max) if method == "pnm" else rho'),
    Mutant("anm_step_test_dropped", "solvers.py", 'small_step = method != "anm" or', "small_step = True or"),
    Mutant("growth_c_positive", "solvers.py", "self.c >= 1.0", "self.c > 0.0"),
    # certificates
    Mutant("range_hypothesis_true", "diagnostics.py", "return pd or float(", "return True or float("),
    Mutant("vacuous_at_one", "diagnostics.py", "vacuous=not (0.0 < factor <= 1.0)", "vacuous=not (0.0 < factor < 1.0)"),
    Mutant("xi_unmasked", "diagnostics.py", "lam_min = float(self.lam[nonzero][0])", "lam_min = float(self.lam[0])"),
    # spectral rules
    Mutant("rank_rule_ge", "linalg.py", "return w > DEFAULT_RANK_TOL", "return w >= DEFAULT_RANK_TOL"),
    Mutant("psd_floor", "linalg.py", "float(w[0]) < -1e-10 * lam_max:", "float(w[0]) < -1e-8 * lam_max:"),
    # the one PD test of a matrix G, against a plain sign test
    Mutant("pd_rule_sign", "linalg.py", "not nonzero_mask(w := sym_eig(G)[0])[0]:", "not (w := sym_eig(G)[0])[0] > 0:"),
    # a 0x0 matrix is refused where it enters
    Mutant("empty_matrix_accepted", "linalg.py", "or M.size == 0", "or False"),
    # the shifted solve's jitter ladder
    Mutant("jitter_base", "linalg.py", "base = 1e-12 *", "base = 1e-10 *"),
    Mutant("jitter_one_retry", "linalg.py", "retries == 3", "retries == 1"),
    # shared work
    Mutant("margin_memo_off", "objective.py", 'if getattr(memo, "key", None) != key:', "if True:"),
    Mutant("share_start_off", "harness/experiment.py", "return lambda x: at_x0 if", "return lambda x: fn(x) if"),
    # a spec's problem may not contradict the spec's own seed, alpha or link
    Mutant("spec_conflict_unchecked", "harness/experiment.py", "if problem[key] != desc[key]:", "if False:"),
]

#: Mutant name -> why no test can tell it from the code; such a survivor does not fail the run.
EQUIVALENT: dict[str, str] = {}

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build")


def tier1(root: Path) -> tuple[bool, float, str]:
    """Whether tier-1 passes in ``root`` (stopping at the first failure), its wall time in seconds, and that failure."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, time.perf_counter() - start, failed[0] if failed else ""


def copy_with(scratch: Path, mutant: Mutant | None) -> Path:
    """A fresh copy of the repository under ``scratch``, with ``mutant`` applied when given."""
    root = scratch / (mutant.name if mutant else "control")
    shutil.copytree(ROOT, root, ignore=IGNORED)
    if mutant:
        target = root / "src" / "pnewton" / mutant.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return root


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    source = {m.path: (ROOT / "src" / "pnewton" / m.path).read_text(encoding="utf-8") for m in MUTANTS}
    stale = [m.name for m in MUTANTS if source[m.path].count(m.old) != 1]
    if stale:
        print(f"snippets not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="pnewton-mutants-") as tmp:
        scratch = Path(tmp)
        passed, seconds, failure = tier1(copy_with(scratch, None))
        print(f"{'control':24} {'passed' if passed else 'FAILED'} ({seconds:.1f} s) {failure}", flush=True)
        if not passed:
            return 2
        survivors = []
        for mutant in chosen:
            root = copy_with(scratch, mutant)
            passed, seconds, failure = tier1(root)
            shutil.rmtree(root)
            verdict = "survived" if passed else "killed"
            note = f"equivalent: {EQUIVALENT[mutant.name]}" if passed and mutant.name in EQUIVALENT else failure
            print(f"{mutant.name:24} {verdict} ({seconds:.1f} s) {note}", flush=True)
            if passed and mutant.name not in EQUIVALENT:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed or equivalent"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
