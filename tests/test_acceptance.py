"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion pins its tolerance here; nothing is deferred to calibration.
Run with ``pytest -v tests/test_acceptance.py`` (the pass/fail lines appear
in the PASSES summary section, or directly with ``-s``).
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import fixed_rho, rand_glm, rand_pd, rand_psd
from pnewton.diagnostics import (
    certify_augmented_contraction,
    certify_penalty_contraction,
    rate_constants,
    shifted_inverse,
    verify_inverse_identities,
    verify_spectrum_match,
)
from pnewton.harness import ExperimentSpec, SolverSpec, run_experiment
from pnewton.linalg import inv_sqrt_pd, lambda_min_pos, psd_sqrt, sym_eig
from pnewton.objective import check_relative_bounds, fd_gradient, fd_hessian, glm_constants
from pnewton.solvers import (
    SolverConfig,
    anm_step_dual,
    anm_step_momentum,
    fstar_oracle,
    in_level_set,
    newton_step,
    pnm_step,
    root_augmented_newton,
    root_penalty_newton,
    run,
)

RHOS = (0.1, 1.0, 10.0, 1e4)


def _report(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail}) [{elapsed:.2f}s < {budget:g}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _sweep(n_instances=100, seed=2024):
    rng = np.random.default_rng(seed)
    for trial in range(n_instances):
        n = int(rng.integers(2, 11))
        rank = int(rng.integers(1, n + 1))
        yield rand_psd(rng, n, rank), rand_pd(rng, n), RHOS[trial % len(RHOS)]


def test_criterion_01_inverse_identities():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for H, G, rho in _sweep():
        check = verify_inverse_identities(H, G, rho, tol=1e-8)
        ok = ok and bool(check)
        scale = check.values["gkg_scale"]
        worst = max(worst, check.values["res_hk"], check.values["res_gkg"] / scale)
    _report(1, "inverse-identities", ok, f"worst scaled residual {worst:.2e} <= 1e-8",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_spectral_suite():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for H, G, rho in _sweep():
        match = verify_spectrum_match(H, G, rho)
        ok = ok and bool(match)
        worst = max(worst, match.values["max_diff"])

        # xi through both routes of its definition
        xi = rate_constants(H, G, rho).xi
        S = psd_sqrt(H)
        P = S @ shifted_inverse(H, G, rho) @ S
        xi_alt = lambda_min_pos(0.5 * (P + P.T))
        ok = ok and abs(xi - xi_alt) <= 1e-8
        worst = max(worst, abs(xi - xi_alt))

        # closed-form filter map on the whitened spectrum
        Gis = inv_sqrt_pd(G)
        W = Gis @ H @ Gis
        lam, _ = sym_eig(0.5 * (W + W.T))
        lam = lam[lam > 1e-10 * max(float(lam[-1]), 0.0)]
        expected = np.sort(rho * lam / (1.0 + rho * lam))
        M = S @ shifted_inverse(H, G, rho) @ S
        got, _ = sym_eig(0.5 * (M + M.T))
        got = got[got > 1e-10 * max(float(got[-1]), 0.0)]
        ok = ok and got.size == expected.size
        if got.size == expected.size and got.size:
            diff = float(np.abs(np.sort(got) - expected).max())
            ok = ok and diff <= 1e-8
            worst = max(worst, diff)
    _report(2, "spectral-suite", ok, f"worst deviation {worst:.2e} <= 1e-8",
            time.perf_counter() - t0, 5.0)


def test_criterion_03_newton_limit():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    states = 0
    for seed in (301, 302):
        _, model = rand_glm(seed, n=8, m=60)
        L = model.constants[0]
        rng = np.random.default_rng(seed)
        for _ in range(10):
            x = rng.standard_normal(8)
            nm = newton_step(model, x, L)
            scale = 1.0 + np.linalg.norm(nm)
            d1 = np.linalg.norm(pnm_step(model, x, 1e12, np.eye(8), L) - nm) / scale
            d2 = np.linalg.norm(
                anm_step_momentum(model, x, x + rng.standard_normal(8), 1e12, np.eye(8), L) - nm
            ) / scale
            worst = max(worst, d1, d2)
            ok = ok and d1 <= 1e-6 and d2 <= 1e-6
            states += 1
    _report(3, "newton-limit", ok and states == 20,
            f"{states} states, worst relative gap {worst:.2e} <= 1e-6",
            time.perf_counter() - t0, 2.0)


def test_criterion_04_special_case_equivalence():
    t0 = time.perf_counter()
    _, model = rand_glm(400, n=7, m=50)
    L = model.constants[0]
    rng = np.random.default_rng(400)
    worst = 0.0
    for trial in range(20):
        x = rng.standard_normal(7)
        x_prev = x + 0.5 * rng.standard_normal(7)
        rho = (0.5, 2.0, 20.0, 200.0)[trial % 4]
        H = model.hessian(x)
        g = model.gradient(x)
        D = np.diag(np.diag(H))
        eye = np.eye(7)
        M_lev = eye / rho + H
        M_lm = D / rho + H
        references = (
            (pnm_step(model, x, rho, eye, L), x - np.linalg.solve(M_lev, g) / L),
            (pnm_step(model, x, rho, D, L), x - np.linalg.solve(M_lm, g) / L),
            (
                anm_step_momentum(model, x, x_prev, rho, eye, L),
                x - np.linalg.solve(M_lev, g) / L + np.linalg.solve(M_lev, x - x_prev) / rho,
            ),
            (
                anm_step_momentum(model, x, x_prev, rho, D, L),
                x - np.linalg.solve(M_lm, g) / L + np.linalg.solve(M_lm, D @ (x - x_prev)) / rho,
            ),
        )
        for step, reference in references:
            worst = max(worst, float(np.abs(step - reference).max()))
    _report(4, "special-case-equivalence", worst <= 1e-12,
            f"worst |step - reference| {worst:.2e} <= 1e-12",
            time.perf_counter() - t0, 2.0)


def test_criterion_05_anm_form_equivalence():
    t0 = time.perf_counter()
    worst_x = 0.0
    worst_z = 0.0
    cfg = SolverConfig(rho0=1.0, c=2.0)  # its penalty schedule drives both routes
    for seed in range(500, 505):
        _, model = rand_glm(seed, n=6, m=40)
        L = model.constants[0]
        G = np.eye(6)
        x0 = 0.8 * np.ones(6)
        x1 = np.zeros(6)
        # drive both update maps for the full 50 iterations with a shared schedule
        xm_prev, xm = x0, x1
        xd = x1
        z = x0 - x1
        rho = cfg.rho0
        for _ in range(50):
            xm_next = anm_step_momentum(model, xm, xm_prev, rho, G, L)
            xd_next, z = anm_step_dual(model, xd, z, rho, G, L)
            worst_z = max(worst_z, float(np.abs(z - (xd - xd_next)).max()))
            xm_prev, xm = xm, xm_next
            xd = xd_next
            worst_x = max(worst_x, float(np.linalg.norm(xm - xd)))
            rho = min(cfg.c * rho, cfg.rho_max)
    ok = worst_x <= 1e-10 and worst_z <= 1e-12
    _report(5, "anm-form-equivalence", ok,
            f"worst iterate gap {worst_x:.2e} <= 1e-10, multiplier residual {worst_z:.2e} <= 1e-12",
            time.perf_counter() - t0, 5.0)


def test_criterion_06_derivative_oracle():
    t0 = time.perf_counter()
    worst_g = 0.0
    worst_h = 0.0
    points = 0
    for seed in range(600, 610):
        link = "logistic" if seed % 2 == 0 else "squared"
        _, model = rand_glm(seed, n=6, m=30, link=link)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.standard_normal(6)
            g = model.gradient(x)
            rel_g = np.linalg.norm(g - fd_gradient(model, x)) / max(1.0, np.linalg.norm(g))
            H = model.hessian(x)
            rel_h = np.linalg.norm(H - fd_hessian(model, x), "fro") / np.linalg.norm(H, "fro")
            worst_g = max(worst_g, rel_g)
            worst_h = max(worst_h, rel_h)
            points += 1
    ok = points == 50 and worst_g <= 1e-5 and worst_h <= 1e-4
    _report(6, "derivative-oracle", ok,
            f"50 points, gradient rel {worst_g:.2e} <= 1e-5, hessian rel {worst_h:.2e} <= 1e-4",
            time.perf_counter() - t0, 5.0)


def test_criterion_07_relative_bound_sampling():
    t0 = time.perf_counter()
    violations = 0
    pairs_total = 0
    for seed in range(700, 705):
        problem, model = rand_glm(seed, n=6, m=50)
        rc = glm_constants(problem)
        x_star = fstar_oracle(model).final.x
        x0 = 1.5 * np.ones(6)
        rng = np.random.default_rng(seed)
        pairs = []
        attempts = 0
        while len(pairs) < 200 and attempts < 10_000:
            attempts += 1
            x = x_star + 0.3 * rng.standard_normal(6)
            y = x_star + 0.3 * rng.standard_normal(6)
            if in_level_set(model, x, y, x0, x0, np.eye(6), rho=1.0, step_L=rc.L):
                pairs.append((x, y))
        assert len(pairs) == 200, f"could not sample 200 level-set pairs for seed {seed}"
        for x, y in pairs:
            chk = check_relative_bounds(model, x, y, rc.L, rc.mu)
            if not (chk.ok_upper and chk.ok_lower):
                violations += 1
        pairs_total += len(pairs)
    _report(7, "relative-bound-sampling", violations == 0,
            f"{pairs_total} level-set pairs on 5 problems, {violations} violations",
            time.perf_counter() - t0, 10.0)


def _fixed_rho_problems():
    rhos = (0.5, 1.0, 2.0, 10.0, 100.0)
    for i, seed in enumerate(range(800, 805)):
        problem, model = rand_glm(seed, n=10 + 2 * i, m=80 + 20 * i, alpha=0.2)
        model = dataclasses.replace(model, f_star=fstar_oracle(model).final.f)
        yield model, rhos[i]


def test_criterion_08_penalty_contraction_certification():
    t0 = time.perf_counter()
    all_ok = True
    nonvacuous_clean = 0
    details = []
    for model, rho in _fixed_rho_problems():
        L, mu = model.constants
        cfg = SolverConfig(
            method="pnm", step_L=L, **fixed_rho(rho),
            grad_tol=1e-9, max_iters=150,
        )
        trace = run(model, np.zeros(model.dim), cfg)
        report = certify_penalty_contraction(trace, model)
        all_ok = all_ok and report.aggregate.all_certified
        if report.aggregate.n_vacuous == 0 and report.aggregate.fraction_satisfied == 1.0 and report.entries:
            nonvacuous_clean += 1
        details.append(f"rho={rho:g}: {len(report.entries)} iters, vacuous={report.aggregate.n_vacuous}")
    ok = all_ok and nonvacuous_clean >= 3
    _report(8, "penalty-contraction", ok,
            f"{nonvacuous_clean}/5 configurations fully non-vacuous; " + "; ".join(details),
            time.perf_counter() - t0, 30.0)


def test_criterion_09_augmented_contraction_certification():
    t0 = time.perf_counter()
    all_ok = True
    monotone = True
    total_iters = 0
    for model, rho in _fixed_rho_problems():
        L, mu = model.constants
        cfg = SolverConfig(
            method="anm", step_L=L, **fixed_rho(rho),
            grad_tol=1e-9, max_iters=150,
        )
        trace = run(model, np.zeros(model.dim), cfg)
        report = certify_augmented_contraction(trace, model)
        all_ok = all_ok and report.aggregate.all_certified and report.aggregate.n_vacuous == 0
        lyap = [r.lyapunov for r in trace.records[1:]]
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))
        total_iters += len(report.entries)
    ok = all_ok and monotone
    _report(9, "augmented-contraction", ok,
            f"{total_iters} certified iterations across 5 problems, descent value nonincreasing",
            time.perf_counter() - t0, 30.0)


def test_criterion_10_scalar_root_finding():
    t0 = time.perf_counter()
    f = lambda v: v * v - 2.0  # noqa: E731
    fp = lambda v: 2.0 * v  # noqa: E731
    _, xs_first = root_penalty_newton(f, fp, 2.0, rho=1.0, tol=1e-10, max_iters=100)
    first_exact = xs_first[1] == 1.6
    r1, xs1 = root_penalty_newton(f, fp, 2.0, rho=10.0, tol=1e-10, max_iters=100)
    r2, xs2 = root_augmented_newton(f, fp, 2.0, 2.0, rho=10.0, tol=1e-10, max_iters=100)
    ok = (
        first_exact
        and abs(f(r1)) <= 1e-10 and len(xs1) - 1 <= 100
        and abs(f(r2)) <= 1e-10 and len(xs2) - 1 <= 100
    )
    _report(10, "scalar-root-finding", ok,
            f"first step {xs_first[1]!r} == 1.6, penalty {len(xs1)-1} iters, augmented {len(xs2)-1} iters",
            time.perf_counter() - t0, 1.0)


def test_criterion_11_end_to_end_harness(tmp_path):
    t0 = time.perf_counter()
    solvers = [
        SolverSpec(name="newton", method="newton", tol=1e-8, max_iters=500),
        SolverSpec(name="damped_newton", method="damped_newton", tol=1e-8, max_iters=500),
        SolverSpec(name="pnm_c1", method="pnm", c=1.0, rho0=1.0, tol=1e-8, max_iters=500),
        SolverSpec(name="pnm_c2", method="pnm", c=2.0, rho0=1.0, tol=1e-8, max_iters=500),
        SolverSpec(name="pnm_c10", method="pnm", c=10.0, rho0=1.0, tol=1e-8, max_iters=500),
        SolverSpec(name="anm", method="anm", c=2.0, rho0=1.0, tol=1e-8, max_iters=500),
    ]

    def build(outdir):
        return ExperimentSpec(
            problem={"builtin": "logistic", "n": 20, "m": 200},
            solvers=solvers,
            alpha=0.1,
            seed=1105,
            out=str(outdir),
        )

    summary = run_experiment(build(tmp_path / "run1"))
    run_experiment(build(tmp_path / "run2"))

    converged = all(
        e["termination"] == "converged" and e["final_grad_norm"] <= 1e-8 and e["iterations"] <= 500
        for e in summary["solvers"]
    )
    identical = all(
        (tmp_path / "run1" / f"{s.name}.trace.csv").read_bytes()
        == (tmp_path / "run2" / f"{s.name}.trace.csv").read_bytes()
        for s in solvers
    )
    iters = {e["name"]: e["iterations"] for e in summary["solvers"]}
    ok = converged and identical and len(summary["solvers"]) == 6
    _report(11, "end-to-end-harness", ok,
            f"all 6 solvers converged ({iters}), traces byte-identical across runs",
            time.perf_counter() - t0, 60.0)
