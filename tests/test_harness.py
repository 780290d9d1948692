import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pnewton
from pnewton.errors import BadLabel, BadShape, EmptyDataset, ParseError, PnewtonError
from pnewton.harness import (
    ExperimentSpec,
    SolverSpec,
    TRACE_HEADER,
    certify_trace,
    cli_main,
    load_dataset,
    make_logistic_dataset,
    normalize_binary_labels,
    read_trace_csv,
    run_experiment,
    write_csv_dataset,
)
from pnewton.harness.cli import parse_polynomial, poly_derivative, poly_eval
from pnewton.harness.datasets import MAX_FEATURES


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def test_load_csv_example(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1,2,1\n3,4,-1\n")
    A, labels = load_dataset(path, "csv")
    assert A.shape == (2, 2)
    assert np.array_equal(A, [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(labels, [1.0, -1.0])


def test_load_csv_garbage_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,1\nnot,numbers,here\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, "csv")
    assert err.value.line == 2


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,1\n3,4\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, "csv")
    assert err.value.line == 2


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(EmptyDataset):
        load_dataset(path, "csv")


def test_load_libsvm_example(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("+1 1:0.5 3:2\n")
    A, labels = load_dataset(path, "libsvm")
    assert A.shape == (3, 1)
    assert np.array_equal(A[:, 0], [0.5, 0.0, 2.0])
    assert labels[0] == 1.0


def test_load_libsvm_bad_token(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:0.5\n-1 parrot\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, "libsvm")
    assert err.value.line == 2


def test_load_libsvm_feature_index_above_cap(tmp_path):
    path = tmp_path / "wide.libsvm"
    path.write_text(f"1 1:1\n1 {MAX_FEATURES}:1\n1 2000000:1\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, "libsvm")
    assert err.value.line == 3
    assert "2000000" in str(err.value)
    path.write_text(f"1 1:1\n1 {MAX_FEATURES}:1\n")
    assert load_dataset(path, "libsvm")[0].shape == (MAX_FEATURES, 2)


def test_logistic_label_remap(tmp_path):
    path = tmp_path / "zeroone.csv"
    path.write_text("1,0,0\n2,1,1\n")
    _, labels = load_dataset(path, "csv", link="logistic")
    assert np.array_equal(labels, [-1.0, 1.0])
    assert np.array_equal(normalize_binary_labels(np.array([-1.0, 1.0])), [-1.0, 1.0])
    with pytest.raises(BadLabel):
        normalize_binary_labels(np.array([0.5]))


def test_csv_dataset_round_trip(tmp_path):
    A, labels = make_logistic_dataset(4, 9, seed=5)
    path = tmp_path / "round.csv"
    write_csv_dataset(path, A, labels)
    A2, labels2 = load_dataset(path, "csv")
    assert np.array_equal(A, A2)
    assert np.array_equal(labels, labels2)


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

def _quadratic_spec(outdir, solvers=None, **kwargs):
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


def test_run_experiment_quadratic(tmp_path):
    spec = _quadratic_spec(tmp_path / "exp")
    summary = run_experiment(spec)
    for name in ("newton", "pnm", "anm"):
        assert (tmp_path / "exp" / f"{name}.trace.csv").exists()
        assert (tmp_path / "exp" / f"{name}.meta.json").exists()
    assert (tmp_path / "exp" / "summary.json").exists()
    newton = summary["solvers"][0]
    assert newton["name"] == "newton"
    rows = read_trace_csv(tmp_path / "exp" / "newton.trace.csv")
    assert rows[1]["gap"] <= 1e-15  # quadratic: one full Newton step closes the gap
    assert rows[0]["k"] == 0 and rows[-1]["k"] == len(rows) - 1


def test_run_experiment_logistic_schedule_family(tmp_path):
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 20, "m": 200},
        solvers=[
            SolverSpec(name=f"pnm_c{c:g}", method="pnm", c=c, rho0=1.0, max_iters=200)
            for c in (1.0, 2.0, 10.0)
        ],
        alpha=0.1,
        seed=7,
        out=str(tmp_path / "glm"),
    )
    summary = run_experiment(spec)
    for entry in summary["solvers"]:
        assert entry["termination"] == "converged"
        assert entry["final_grad_norm"] <= 1e-8
        assert entry["iterations"] <= 200
    # f* provenance is recorded alongside the gaps it defines
    assert summary["f_star_provenance"]["policy"] == "oracle"
    assert summary["f_star_provenance"]["terminal_grad_norm"] <= 1e-13


def test_trace_bytes_deterministic(tmp_path):
    spec_a = _quadratic_spec(tmp_path / "a")
    spec_b = _quadratic_spec(tmp_path / "b")
    run_experiment(spec_a)
    run_experiment(spec_b)
    for name in ("newton", "pnm", "anm"):
        bytes_a = (tmp_path / "a" / f"{name}.trace.csv").read_bytes()
        bytes_b = (tmp_path / "b" / f"{name}.trace.csv").read_bytes()
        assert bytes_a == bytes_b


def test_parallel_workers_match_sequential(tmp_path, monkeypatch):
    spec_a = _quadratic_spec(tmp_path / "seq")
    run_experiment(spec_a)
    monkeypatch.setenv("PN_THREADS", "3")
    spec_b = _quadratic_spec(tmp_path / "par")
    run_experiment(spec_b)
    for name in ("newton", "pnm", "anm"):
        assert (tmp_path / "seq" / f"{name}.trace.csv").read_bytes() == (
            tmp_path / "par" / f"{name}.trace.csv"
        ).read_bytes()


def test_certify_round_trip(tmp_path):
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 8, "m": 60},
        solvers=[
            SolverSpec(name="pnm_fixed", method="pnm", c=1.0, rho0=1.0, max_iters=150),
            SolverSpec(name="anm_fixed", method="anm", c=1.0, rho0=1.0, max_iters=150),
        ],
        alpha=0.2,
        seed=11,
        out=str(tmp_path / "cert"),
        diagnostics=True,
    )
    run_experiment(spec)
    for name in ("pnm_fixed", "anm_fixed"):
        report, matches = certify_trace(tmp_path / "cert" / f"{name}.trace.csv")
        assert matches is True  # byte-for-byte reproduction of the stored report
        assert report.all_certified


def test_certify_round_trip_from_dataset_file(tmp_path):
    A, labels = make_logistic_dataset(6, 50, seed=13)
    data = tmp_path / "data.csv"
    write_csv_dataset(data, A, labels)
    spec = ExperimentSpec(
        problem={"path": str(data), "format": "csv"},
        solvers=[SolverSpec(name="pnm", method="pnm", c=1.0, max_iters=120)],
        link="logistic",
        alpha=0.2,
        seed=13,
        out=str(tmp_path / "certds"),
        diagnostics=True,
    )
    run_experiment(spec)
    report, matches = certify_trace(tmp_path / "certds" / "pnm.trace.csv")
    assert matches is True
    assert report.all_certified


def test_one_glm_constants_per_run(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    import pnewton.objective as objective_mod

    calls = []
    real = objective_mod.glm_constants

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(objective_mod, "glm_constants", counting)
    monkeypatch.setattr(experiment_mod, "glm_constants", counting)
    A, labels = make_logistic_dataset(6, 50, seed=13)
    write_csv_dataset(tmp_path / "data.csv", A, labels)
    problems = [{"builtin": "logistic", "n": 6, "m": 50}, {"path": str(tmp_path / "data.csv"), "format": "csv"}]
    for i, problem in enumerate(problems):
        calls.clear()
        spec = ExperimentSpec(
            problem=problem,
            solvers=[SolverSpec(name="pnm", method="pnm"), SolverSpec(name="newton", method="newton")],
            seed=13,
            out=str(tmp_path / f"run{i}"),
            diagnostics=True,
        )
        summary = run_experiment(spec)
        assert len(calls) == 1
        assert summary["constants"]["L"] == real(calls[0]).L
        meta = json.loads((tmp_path / f"run{i}" / "pnm.meta.json").read_text())
        assert meta["resolved_step_L"] == summary["constants"]["L"]
        calls.clear()
        _, matches = certify_trace(tmp_path / f"run{i}" / "pnm.trace.csv")
        assert matches is True and len(calls) == 1


def test_each_matrix_checked_once_where_it_enters(tmp_path, monkeypatch):
    import dataclasses

    import pnewton.diagnostics as diagnostics_mod
    import pnewton.harness.experiment as experiment_mod
    import pnewton.linalg as linalg_mod
    import pnewton.objective as objective_mod
    import pnewton.solvers as solvers_mod

    counts = {"as_symmetric": 0, "hessian": 0, "received": 0, "sym_eig": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (linalg_mod, solvers_mod, diagnostics_mod):
        monkeypatch.setattr(module, "as_symmetric", counting("as_symmetric", module.as_symmetric))
    for module in (linalg_mod, solvers_mod, diagnostics_mod, objective_mod):
        monkeypatch.setattr(module, "sym_eig", counting("sym_eig", module.sym_eig))
    monkeypatch.setattr(objective_mod.GlmProblem, "hessian", counting("hessian", objective_mod.GlmProblem.hessian))
    real_share_start = experiment_mod._share_start

    def share_counting_receptions(model, x0):
        shared = real_share_start(model, x0)
        return dataclasses.replace(shared, hessian=counting("received", shared.hessian))

    monkeypatch.setattr(experiment_mod, "_share_start", share_counting_receptions)
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 8, "m": 60},
        solvers=[
            SolverSpec(name=f"{method}_{precond}", method=method, precond=precond)
            for method in ("pnm", "anm") for precond in ("identity", "diag")
        ],
        seed=19,
        out=str(tmp_path / "checks"),
        diagnostics=True,
    )
    summary = run_experiment(spec)
    assert all(entry["certification"]["all_certified"] for entry in summary["solvers"])
    # every Hessian is checked where it is received, every eigen route checks
    # its input, and nothing on the per-iterate path checks again; the Hessian
    # at the shared start point is evaluated once but received by every solver
    # and certifier
    assert counts["hessian"] > 0 and counts["sym_eig"] > 0
    assert counts["hessian"] < counts["received"]
    assert counts["as_symmetric"] == counts["received"] + counts["sym_eig"]


def _all_bytes(outdir):
    return {path.name: path.read_bytes() for path in sorted(Path(outdir).iterdir())}


def _lock_spec(outdir):
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


def test_oracle_memo_and_workers_change_no_output_byte(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    from pnewton.objective import GlmProblem

    run_experiment(_lock_spec(tmp_path / "memo"))
    written = _all_bytes(tmp_path / "memo")
    assert sum(name.endswith(".cert.json") for name in written) == 4
    assert sum(name.endswith(".trace.csv") for name in written) == 6

    monkeypatch.setenv("PN_THREADS", "2")
    run_experiment(_lock_spec(tmp_path / "two_workers"))
    assert _all_bytes(tmp_path / "two_workers") == written

    # every oracle call recomputes from the margins A^T x
    monkeypatch.setenv("PN_THREADS", "1")
    monkeypatch.setattr(GlmProblem, "_terms_at", lambda self, x: self._loss_terms(self.A.T @ x))
    run_experiment(_lock_spec(tmp_path / "no_memo"))
    assert _all_bytes(tmp_path / "no_memo") == written

    # every solver and certifier evaluates the start point itself
    monkeypatch.undo()
    monkeypatch.setattr(experiment_mod, "_share_start", lambda model, x0: model)
    run_experiment(_lock_spec(tmp_path / "no_sharing"))
    assert _all_bytes(tmp_path / "no_sharing") == written


@pytest.mark.parametrize("threads", ["1", "2"])
def test_start_point_evaluated_once_per_run(tmp_path, monkeypatch, threads):
    from pnewton.objective import GlmProblem

    at_start = {"value": 0, "gradient": 0, "hessian": 0}

    def counting(name):
        real = getattr(GlmProblem, name)

        def wrapped(self, x):
            if not np.asarray(x).any():
                at_start[name] += 1
            return real(self, x)
        return wrapped

    for name in at_start:
        monkeypatch.setattr(GlmProblem, name, counting(name))
    monkeypatch.setenv("PN_THREADS", threads)
    summary = run_experiment(_lock_spec(tmp_path / "run"))  # f* from the oracle, diagnostics on
    assert summary["f_star_provenance"]["policy"] == "oracle"
    assert len(summary["solvers"]) == 6 and not summary["failed"]
    assert at_start == {"value": 1, "gradient": 1, "hessian": 1}


def test_shared_start_point_is_read_only(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod

    real_run = experiment_mod.solvers.run
    received = []

    def capturing_run(model, x0, config, x1=None):
        received.append((model, x0))
        return real_run(model, x0, config, x1=x1)

    monkeypatch.setattr(experiment_mod.solvers, "run", capturing_run)
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 5, "m": 30},
        solvers=[SolverSpec(name="pnm", method="pnm")],
        seed=4,
        out=str(tmp_path / "ro"),
    )
    run_experiment(spec)
    model, x0 = received[-1]
    g, H = model.gradient(x0), model.hessian(x0)
    assert model.gradient(x0.copy()) is g and model.hessian(x0.copy()) is H
    with pytest.raises(ValueError):
        g[0] = 1.0
    with pytest.raises(ValueError):
        H += 1.0
    # any other point goes through to the problem and returns writable arrays
    x = np.full(5, 0.5)
    H_x = model.hessian(x)
    H_x[0, 0] = 0.0
    assert model.gradient(x).flags.writeable


def test_partial_results_flushed_on_failure(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    from pnewton.errors import NotPositiveDefinite

    real_run = experiment_mod.solvers.run

    def failing_run(model, x0, config, x1=None):
        if config.method == "anm":
            raise NotPositiveDefinite("injected failure")
        return real_run(model, x0, config, x1=x1)

    monkeypatch.setattr(experiment_mod.solvers, "run", failing_run)
    out = tmp_path / "partial"
    spec = ExperimentSpec(
        problem={"builtin": "quadratic", "n": 5},
        solvers=[SolverSpec(name="newton", method="newton"), SolverSpec(name="anm", method="anm")],
        seed=2,
        out=str(out),
    )
    with pytest.raises(NotPositiveDefinite):
        run_experiment(spec)
    # completed solver and the summary are on disk despite the abort
    assert (out / "newton.trace.csv").exists()
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["failed"] == [{"name": "anm", "error": "injected failure"}]
    assert summary["solvers"][0]["name"] == "newton"


def test_failed_first_solver_outcome_independent_of_workers(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    from pnewton.errors import NotPositiveDefinite

    real_run = experiment_mod.solvers.run

    def failing_run(model, x0, config, x1=None):
        if config.method == "newton":
            raise NotPositiveDefinite("injected failure")
        return real_run(model, x0, config, x1=x1)

    monkeypatch.setattr(experiment_mod.solvers, "run", failing_run)
    summaries = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PN_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        with pytest.raises(NotPositiveDefinite):
            run_experiment(_quadratic_spec(out))  # newton is the first solver
        summaries[threads] = (out / "summary.json").read_bytes()
        for name in ("pnm", "anm"):
            assert (out / f"{name}.trace.csv").exists()
    assert summaries["1"] == summaries["2"]
    summary = json.loads(summaries["1"])
    assert [entry["name"] for entry in summary["solvers"]] == ["pnm", "anm"]
    assert summary["failed"] == [{"name": "newton", "error": "injected failure"}]


def test_trace_csv_schema(tmp_path):
    spec = _quadratic_spec(tmp_path / "schema")
    run_experiment(spec)
    text = (tmp_path / "schema" / "pnm.trace.csv").read_text()
    assert text.splitlines()[0] == TRACE_HEADER
    rows = read_trace_csv(tmp_path / "schema" / "pnm.trace.csv")
    ks = [r["k"] for r in rows]
    assert ks == list(range(len(ks)))
    for row in rows:
        assert row["elapsed_ns"] == 0  # timing off by default keeps bytes deterministic
    with open(tmp_path / "schema" / "summary.json") as fh:
        summary = json.load(fh)
    assert {"problem", "f_star", "solvers"} <= set(summary)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(problem={"builtin": "quadratic"}, solvers=[])
    with pytest.raises(ValueError):
        ExperimentSpec(
            problem={"builtin": "quadratic"},
            solvers=[SolverSpec(name="a"), SolverSpec(name="a")],
        )
    with pytest.raises(ValueError):
        SolverSpec(name="x", method="sgd")
    with pytest.raises(ValueError, match="unknown preconditioner"):
        SolverSpec(name="x", precond="cholesky")
    bad_fields = [{"rho0": -1.0}, {"rho0": 0.0}, {"c": 0.5}, {"rho0": 2.0, "rho_max": 1.0},
                  {"tol": 0.0}, {"max_iters": 0}, {"max_iters": 2.5}, {"step_L": -1.0}]
    for fields in bad_fields:
        with pytest.raises(ValueError):
            SolverSpec(name="x", method="pnm", **fields)
    for name in ("", ".", "..", "../../x", "a/b", "/x"):  # a name becomes a file name under ``out``
        with pytest.raises(ValueError, match="not a plain file name"):
            SolverSpec(name=name)
    with pytest.raises(ValueError):
        ExperimentSpec(
            problem={"builtin": "quadratic"},
            solvers=[SolverSpec(name="a")],
            fstar={"policy": "provided"},
        )


def test_spec_json_round_trip(tmp_path):
    spec = _quadratic_spec(tmp_path / "json", diagnostics=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = ExperimentSpec.from_json_file(path)
    assert loaded.to_dict() == spec.to_dict()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_demo_root(capsys):
    code = cli_main(["demo-root", "--poly", "x^2-2", "--rho", "10", "--x0", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.4142135624" in out
    assert "penalty" in out and "augmented" in out


def test_cli_demo_root_budget_defaults_are_the_library_defaults(capsys):
    args = ["demo-root", "--poly", "x^3-2x-5", "--x0", "2"]
    assert cli_main(args) == 0
    default_out = capsys.readouterr().out
    assert cli_main([*args, "--tol", "1e-10", "--max-iters", "100"]) == 0
    assert capsys.readouterr().out == default_out
    assert cli_main([*args, "--max-iters", "1"]) == 1  # a flag that is given still reaches the solver
    assert capsys.readouterr().err.startswith("solver failure:")


def test_cli_demo_root_bad_poly(capsys):
    code = cli_main(["demo-root", "--poly", "x^^2", "--x0", "2"])
    assert code == 2


def test_cli_solve_quadratic(tmp_path, capsys):
    code = cli_main(
        ["solve", "--method", "pnm", "--precond", "identity", "--problem", "quadratic",
         "--n", "5", "--out", str(tmp_path / "cli")]
    )
    assert code == 0
    assert (tmp_path / "cli" / "pnm.trace.csv").exists()


def test_cli_solve_prints_the_run_report(tmp_path, capsys):
    # solve is a one-solver run: same files, same report, same exit code
    args = ["--method", "anm", "--precond", "diag", "--problem", "logistic", "--n", "5", "--m", "30",
            "--seed", "4", "--diagnostics"]
    assert cli_main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
    solve_out = capsys.readouterr().out
    spec = ExperimentSpec(problem={"builtin": "logistic", "n": 5, "m": 30}, seed=4, diagnostics=True,
                          solvers=[SolverSpec(name="anm", method="anm", precond="diag")], out=str(tmp_path / "run"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert cli_main(["run", str(path)]) == 0
    run_out = capsys.readouterr().out
    assert solve_out.startswith(f"wrote 1 trace(s) to {tmp_path / 'solve'}\n  anm: converged in ")
    assert solve_out.count("\n") == 2 and "||grad||=" in solve_out and "  gap=" in solve_out
    assert solve_out.replace(str(tmp_path / "solve"), str(tmp_path / "run")) == run_out
    for name in ("anm.trace.csv", "anm.meta.json", "anm.cert.json", "summary.json"):
        assert (tmp_path / "solve" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


@pytest.mark.parametrize("problem", ["logistic", "quadratic"])
def test_cli_solve_defaults_are_the_spec_defaults(tmp_path, capsys, problem):
    # every flag left off takes the spec's default: builtin logistic is 20 x 200, not a CLI-only size
    assert cli_main(["solve", "--method", "pnm", "--problem", problem, "--out", str(tmp_path / "solve")]) == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"problem": {"builtin": problem}, "out": str(tmp_path / "run"),
                                "solvers": [{"name": "pnm", "method": "pnm"}]}))
    assert cli_main(["run", str(path)]) == 0
    for name in ("pnm.trace.csv", "pnm.meta.json", "summary.json"):
        assert (tmp_path / "solve" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    if problem == "logistic":
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert (summary["problem"]["n"], summary["problem"]["m"]) == (20, 200)


def test_cli_solve_dataset(tmp_path):
    A, labels = make_logistic_dataset(5, 40, seed=2)
    data = tmp_path / "data.csv"
    write_csv_dataset(data, A, labels)
    code = cli_main(
        ["solve", "--method", "damped_newton", "--dataset", str(data), "--link", "logistic",
         "--alpha", "0.2", "--out", str(tmp_path / "ds")]
    )
    assert code == 0


def test_cli_certify(tmp_path, capsys):
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 6, "m": 40},
        solvers=[SolverSpec(name="pnm", method="pnm", c=1.0, max_iters=100)],
        seed=3,
        out=str(tmp_path / "c"),
        diagnostics=True,
    )
    run_experiment(spec)
    code = cli_main(["certify", "--trace", str(tmp_path / "c" / "pnm.trace.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "matches stored certification: True" in out


def test_cli_run_spec_file(tmp_path, capsys):
    spec = _quadratic_spec(tmp_path / "runout")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert cli_main(["run", str(path)]) == 0
    assert "newton" in capsys.readouterr().out


def test_cli_run_unconverged_is_failure(tmp_path, capsys):
    out = tmp_path / "unconverged"
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 20, "m": 10},
        solvers=[
            SolverSpec(name="pnm", method="pnm", step_L=1e-3),
            SolverSpec(name="newton", method="newton", max_iters=1),
        ],
        alpha=1e-9,
        out=str(out),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert cli_main(["run", str(path)]) == 1
    assert "pnm, newton" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert [entry["termination"] for entry in summary["solvers"]] == ["diverged", "max_iters"]
    assert (out / "pnm.trace.csv").exists() and (out / "newton.trace.csv").exists()


@pytest.mark.parametrize("poly, x0", [("x^99999", "2"), ("x^2-2", "1e308")])
def test_cli_demo_root_overflow_is_failure(capsys, poly, x0):
    assert cli_main(["demo-root", "--poly", poly, "--x0", x0]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and err.count("\n") == 1
    assert f"{poly!r} at x = {float(x0)!r} overflowed a float" in err


def test_cli_exit_codes():
    assert cli_main(["solve", "--method", "nope"]) == 2  # unknown method
    assert cli_main(["run", "/does/not/exist.json"]) == 2  # missing file
    assert cli_main(["frobnicate"]) == 2  # unknown subcommand


def test_cli_bad_logistic_label_is_input_error(tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text("0.5,1\n-0.5,2\n")
    code = cli_main(
        ["solve", "--method", "pnm", "--dataset", str(data), "--link", "logistic",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: cannot map label 2.0 onto {-1, +1}\n"


def test_cli_empty_builtin_shape_is_input_error(tmp_path, capsys):
    spec = {"problem": {"builtin": "logistic", "n": 0, "m": 10}, "out": str(tmp_path / "x"),
            "solvers": [{"name": "pnm", "method": "pnm"}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: need n >= 1 and m >= 1, got shape (0, 10)\n"
    assert not (tmp_path / "x").exists()


def _no_fstar_oracle(monkeypatch):
    import pnewton.solvers

    def refuse(model):
        raise AssertionError("the f* oracle ran before the input was rejected")
    monkeypatch.setattr(pnewton.solvers, "fstar_oracle", refuse)


def test_cli_bad_solver_field_exits_before_any_output(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "a" / "b" / "x"  # "../../x" would land in tmp_path / "a"
    bad = [({"rho0": -1.0}, "rho0 must be > 0, got -1.0"),
           ({"max_iters": 2.5}, "max_iters must be an integer >= 1, got 2.5"),
           ({"name": "../../x"}, "solver name '../../x' is not a plain file name"),
           ({"name": ""}, "solver name '' is not a plain file name")]
    for fields, message in bad:
        spec = {"problem": {"builtin": "logistic", "n": 4, "m": 20}, "out": str(out),
                "solvers": [{"name": "a", "method": "pnm"}, {"name": "b", "method": "pnm", **fields}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("fields, message", [
    ({"problem": {"builtin": "logistic"}, "link": "squared"},
     "a builtin problem takes only the default link 'logistic', got 'squared'"),
    ({"problem": {"builtin": "quadratic"}, "link": "squared"},
     "a builtin problem takes only the default link 'logistic', got 'squared'"),
    ({"problem": {}},
     'problem must be {"path": ..., "format": "csv"|"libsvm"} '
     'or {"builtin": "quadratic"|"logistic", "n": ..., "m": ...}, got {}'),
    ({"problem": {"builtin": "cubic"}},
     'problem must be {"path": ..., "format": "csv"|"libsvm"} '
     'or {"builtin": "quadratic"|"logistic", "n": ..., "m": ...}, got {\'builtin\': \'cubic\'}'),
], ids=["logistic-squared", "quadratic-squared", "empty", "unknown-builtin"])
def test_cli_problem_it_would_misread_exits_before_any_output(tmp_path, capsys, monkeypatch, fields, message):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "x"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**fields, "out": str(out), "solvers": [{"name": "pnm", "method": "pnm"}]}))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_solve_builtin_with_squared_link_is_input_error(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "x"
    code = cli_main(["solve", "--method", "pnm", "--problem", "logistic", "--link", "squared", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: a builtin problem takes only the default link")
    assert not out.exists()


@pytest.mark.parametrize("error", [BadShape, BadLabel, ParseError, EmptyDataset])
def test_cli_input_error_classes_are_value_errors_and_exit_2(tmp_path, capsys, monkeypatch, error):
    import pnewton.harness.cli

    assert issubclass(error, ValueError) and issubclass(error, PnewtonError)

    def fail(spec):
        raise error("bad input")
    monkeypatch.setattr(pnewton.harness.cli, "run_experiment", fail)
    assert cli_main(["solve", "--method", "pnm", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_cli_libsvm_index_above_cap_exits_before_any_trace(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    data = tmp_path / "wide.libsvm"
    data.write_text("1 2000000:1\n")
    out = tmp_path / "x"
    code = cli_main(["solve", "--method", "pnm", "--dataset", str(data), "--format", "libsvm",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 1: feature index 2000000 exceeds the limit of {MAX_FEATURES}\n"
    assert not out.exists()


def test_cli_missing_dataset(tmp_path):
    code = cli_main(
        ["solve", "--method", "pnm", "--dataset", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_cli_solve_unconverged_is_failure(tmp_path, capsys):
    code = cli_main(
        ["solve", "--method", "pnm", "--problem", "logistic", "--n", "8", "--m", "60",
         "--c", "1", "--max-iters", "2", "--tol", "1e-12", "--out", str(tmp_path / "u")]
    )
    assert code == 1
    assert capsys.readouterr().err == "solver failure: not converged: pnm\n"


@pytest.mark.parametrize("method", ["pnm", "anm"])
def test_cli_solve_diverging_is_failure_with_finite_trace(tmp_path, method):
    out = tmp_path / "div"
    code = cli_main(
        ["solve", "--method", method, "--problem", "logistic", "--alpha", "1e-9",
         "--n", "20", "--m", "10", "--step-L", "1e-3", "--out", str(out)]
    )
    assert code == 1
    with open(out / "summary.json") as fh:
        assert json.load(fh)["solvers"][0]["termination"] == "diverged"
    rows = read_trace_csv(out / f"{method}.trace.csv")
    assert len(rows) > 2
    for row in rows:
        values = [row[key] for key in ("f", "gap", "grad_norm", "rho", "step_norm_G", "lyapunov")]
        assert np.isfinite(values).all()


def test_cli_solve_diverging_emits_no_runtime_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(
            ["solve", "--method", "pnm", "--problem", "logistic", "--alpha", "1e-9",
             "--n", "20", "--m", "10", "--step-L", "1e-3", "--out", str(tmp_path / "div")]
        )
    assert code == 1


# ---------------------------------------------------------------------------
# Polynomial mini-parser
# ---------------------------------------------------------------------------

def test_parse_polynomial_forms():
    assert parse_polynomial("x^2-2") == {2: 1.0, 0: -2.0}
    assert parse_polynomial("3x^3 + 2x - 5") == {3: 3.0, 1: 2.0, 0: -5.0}
    assert parse_polynomial("-x^2+4") == {2: -1.0, 0: 4.0}
    assert parse_polynomial("2.5*x^4") == {4: 2.5}
    assert parse_polynomial("7") == {0: 7.0}
    assert poly_eval(parse_polynomial("x^2-2"), 2.0) == 2.0
    assert poly_derivative(parse_polynomial("x^2-2")) == {1: 2.0}


@pytest.mark.parametrize("bad", ["", "x^", "y+1", "x^2.5", "^3", "2**x"])
def test_parse_polynomial_rejects(bad):
    with pytest.raises(ValueError):
        parse_polynomial(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_gram_overflow_is_input_error_without_warning(tmp_path, capsys, monkeypatch):
    # finite entries whose Gram product A A^T overflows; any NumPy RuntimeWarning fails this test
    _no_fstar_oracle(monkeypatch)
    data = tmp_path / "huge.libsvm"
    data.write_text("1 1:1e308 2:1\n-1 1:1e308\n")
    out = tmp_path / "x"
    code = cli_main(["solve", "--method", "pnm", "--dataset", str(data), "--format", "libsvm",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the data's Gram product A A^T overflows float64 (max |A| entry 1.000e+308)\n"
    )
    assert not out.exists()


def test_cli_fstar_oracle_failure_exits_1_before_any_output(tmp_path, capsys, monkeypatch):
    import pnewton.solvers

    def fail(model):
        raise PnewtonError("f* oracle failed")
    monkeypatch.setattr(pnewton.solvers, "fstar_oracle", fail)
    out = tmp_path / "x"
    assert cli_main(["solve", "--method", "pnm", "--problem", "logistic", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "solver failure: f* oracle failed\n"
    assert not out.exists()


def test_cli_module_entry_point_runs_without_warnings():
    src = str(Path(pnewton.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pnewton", "demo-root", "--poly", "x^2-2", "--x0", "2"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "penalty: root = 1.4142135624" in proc.stdout and proc.stderr == ""
