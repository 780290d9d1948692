import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pnewton
from conftest import lock_spec, quadratic_spec, step_below_L_spec
from pnewton.diagnostics import ContractionAggregate
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
    run_experiment,
)
from pnewton.harness.cli import parse_polynomial, poly_derivative, poly_eval
from pnewton.harness.datasets import MAX_FEATURES


def _read_trace(path):
    """A trace file's rows as dicts under ``TRACE_HEADER``: ``k`` and ``elapsed_ns`` ints, "" None, the rest floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == TRACE_HEADER.split(",")
        return [{key: None if val == "" else int(val) if key in ("k", "elapsed_ns") else float(val)
                 for key, val in row.items()} for row in reader]


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


def test_load_libsvm_index_zero_names_line(tmp_path):
    path = tmp_path / "zero.libsvm"
    path.write_text("+1 1:0.5\n-1 0:2\n")
    with pytest.raises(ParseError, match="libsvm indices are 1-based, got 0") as err:
        load_dataset(path, "libsvm")
    assert err.value.line == 2


def test_load_libsvm_refuses_a_repeated_index_and_keeps_any_order(tmp_path):
    # a repeated index has no one value to keep; indices out of order but each given once load as written
    path = tmp_path / "repeat.libsvm"
    path.write_text("1 1:0.5 3:1 3:2\n")
    with pytest.raises(ParseError, match="^line 1: feature index 3 is repeated$") as err:
        load_dataset(path, "libsvm")
    assert err.value.line == 1
    path.write_text("1 3:2 1:0.5\n")
    assert np.array_equal(load_dataset(path, "libsvm")[0][:, 0], [0.5, 0.0, 2.0])


def test_load_dataset_refuses_an_unknown_format(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("+1 1:0.5\n")
    with pytest.raises(ValueError, match="unknown dataset format 'xml'; choose csv or libsvm"):
        load_dataset(path, "xml")


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
    _write_csv(path, A, labels)
    A2, labels2 = load_dataset(path, "csv")
    assert np.array_equal(A, A2)
    assert np.array_equal(labels, labels2)


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

def test_run_experiment_quadratic(tmp_path):
    spec = quadratic_spec(tmp_path / "exp")
    summary = run_experiment(spec)
    for name in ("newton", "pnm", "anm"):
        assert (tmp_path / "exp" / f"{name}.trace.csv").exists()
        assert (tmp_path / "exp" / f"{name}.meta.json").exists()
    assert (tmp_path / "exp" / "summary.json").exists()
    newton = summary["solvers"][0]
    assert newton["name"] == "newton"
    rows = _read_trace(tmp_path / "exp" / "newton.trace.csv")
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
    spec_a = quadratic_spec(tmp_path / "a")
    spec_b = quadratic_spec(tmp_path / "b")
    run_experiment(spec_a)
    run_experiment(spec_b)
    for name in ("newton", "pnm", "anm"):
        bytes_a = (tmp_path / "a" / f"{name}.trace.csv").read_bytes()
        bytes_b = (tmp_path / "b" / f"{name}.trace.csv").read_bytes()
        assert bytes_a == bytes_b


def test_parallel_workers_match_sequential(tmp_path, monkeypatch):
    spec_a = quadratic_spec(tmp_path / "seq")
    run_experiment(spec_a)
    monkeypatch.setenv("PN_THREADS", "3")
    spec_b = quadratic_spec(tmp_path / "par")
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
        assert report.aggregate.all_certified


def test_certify_round_trip_from_dataset_file(tmp_path):
    A, labels = make_logistic_dataset(6, 50, seed=13)
    data = tmp_path / "data.csv"
    _write_csv(data, A, labels)
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
    assert report.aggregate.all_certified


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
    _write_csv(tmp_path / "data.csv", A, labels)
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
        cert = json.loads((tmp_path / f"run{i}" / "pnm.cert.json").read_text())
        assert cert["step_L"] == summary["constants"]["L"]
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


def test_a_newton_run_writes_the_same_trace_and_cert_under_every_preconditioner(tmp_path):
    # a Newton step reads the identity whatever G the spec names, so the run and its certificate do too
    out = tmp_path / "newton"
    solvers = [SolverSpec(name=precond, method="newton", precond=precond) for precond in ("identity", "diag")]
    summary = run_experiment(dataclasses.replace(lock_spec(out), solvers=solvers))
    for suffix in (".trace.csv", ".cert.json"):
        assert (out / f"identity{suffix}").read_bytes() == (out / f"diag{suffix}").read_bytes()
    assert summary["solvers"][0]["certification"] == summary["solvers"][1]["certification"]


def test_oracle_memo_and_workers_change_no_output_byte(tmp_path, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    from pnewton.objective import GlmProblem

    run_experiment(lock_spec(tmp_path / "memo"))
    written = _all_bytes(tmp_path / "memo")
    assert sum(name.endswith(".cert.json") for name in written) == 5  # every solver but damped_newton
    assert sum(name.endswith(".trace.csv") for name in written) == 6

    monkeypatch.setenv("PN_THREADS", "2")
    run_experiment(lock_spec(tmp_path / "two_workers"))
    assert _all_bytes(tmp_path / "two_workers") == written

    # every oracle call recomputes from the margins A^T x
    monkeypatch.setenv("PN_THREADS", "1")
    monkeypatch.setattr(GlmProblem, "_terms_at", lambda self, x: self._loss_terms(self.A.T @ x))
    run_experiment(lock_spec(tmp_path / "no_memo"))
    assert _all_bytes(tmp_path / "no_memo") == written

    # every solver and certifier evaluates the start point itself
    monkeypatch.undo()
    monkeypatch.setattr(experiment_mod, "_share_start", lambda model, x0: model)
    run_experiment(lock_spec(tmp_path / "no_sharing"))
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
    summary = run_experiment(lock_spec(tmp_path / "run"))  # f* from the oracle, diagnostics on
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
            run_experiment(quadratic_spec(out))  # newton is the first solver
        summaries[threads] = (out / "summary.json").read_bytes()
        for name in ("pnm", "anm"):
            assert (out / f"{name}.trace.csv").exists()
    assert summaries["1"] == summaries["2"]
    summary = json.loads(summaries["1"])
    assert [entry["name"] for entry in summary["solvers"]] == ["pnm", "anm"]
    assert summary["failed"] == [{"name": "newton", "error": "injected failure"}]


def test_trace_csv_schema(tmp_path):
    spec = quadratic_spec(tmp_path / "schema")
    run_experiment(spec)
    text = (tmp_path / "schema" / "pnm.trace.csv").read_text()
    assert text.splitlines()[0] == TRACE_HEADER
    rows = _read_trace(tmp_path / "schema" / "pnm.trace.csv")
    ks = [r["k"] for r in rows]
    assert ks == list(range(len(ks)))
    for row in rows:
        assert row["elapsed_ns"] == 0  # timing off by default keeps bytes deterministic
    with open(tmp_path / "schema" / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == {"problem", "f_star", "f_star_provenance", "constants", "solvers", "failed"}
    # f and rho have one owner, the trace; link, alpha and seed the problem; the method the solver record;
    # of the iterates only the last is kept, for the replay to check its re-run against
    meta = json.loads((tmp_path / "schema" / "pnm.meta.json").read_text())
    assert set(meta) == {"solver", "problem", "termination", "steps_taken", "f_star", "f_star_provenance",
                         "x_final"}
    assert len(meta["x_final"]) == 6 and all(type(v) is float for v in meta["x_final"])


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
    # the library's matrix precond is no spec spelling, whether it comes as a JSON list or an array
    listed = re.escape(repr(np.eye(2).tolist()))
    with pytest.raises(ValueError, match=rf"^unknown preconditioner {listed}; choose identity or diag$"):
        SolverSpec(name="x", precond=np.eye(2))
    nan, inf = float("nan"), float("inf")
    bad_fields = [{"rho0": -1.0}, {"rho0": 0.0}, {"c": 0.5}, {"rho0": 2.0, "rho_max": 1.0},
                  {"tol": 0.0}, {"max_iters": 0}, {"max_iters": 2.5}, {"step_L": -1.0},
                  {"rho0": nan}, {"rho0": inf}, {"c": nan}, {"c": inf}, {"rho_max": nan},
                  {"step_L": nan}, {"step_L": inf}, {"tol": nan}, {"tol": inf}]
    for fields in bad_fields:
        with pytest.raises(ValueError):
            SolverSpec(name="x", method="pnm", **fields)
    assert SolverSpec(name="x", rho_max=inf).rho_max == inf  # an uncapped penalty stays allowed
    for name in ("", ".", "..", "../../x", "a/b", "/x", "a\0b"):  # a name becomes a file name under ``out``
        with pytest.raises(ValueError, match="not a plain file name"):
            SolverSpec(name=name)
    # out and a dataset path are file names too, which no NUL byte may cut short
    with pytest.raises(ValueError, match="out must be free of NUL bytes"):
        ExperimentSpec(problem={"builtin": "quadratic"}, solvers=[SolverSpec(name="a")], out="o\0ut")
    with pytest.raises(ValueError, match="problem path must be free of NUL bytes"):
        ExperimentSpec(problem={"path": "d\0.csv"}, solvers=[SolverSpec(name="a")])
    with pytest.raises(ValueError):
        ExperimentSpec(
            problem={"builtin": "quadratic"},
            solvers=[SolverSpec(name="a")],
            fstar={"policy": "provided"},
        )


def test_spec_problem_is_the_description_every_file_records(tmp_path):
    out = tmp_path / "x"
    spec = ExperimentSpec(problem={"builtin": "logistic"}, seed=3, out=str(out),
                          solvers=[SolverSpec(name="pnm"), SolverSpec(name="newton", method="newton")])
    desc = {"builtin": "logistic", "n": 20, "m": 200, "seed": 3, "alpha": 0.1}
    assert spec.problem == desc
    assert ExperimentSpec.from_dict(dataclasses.asdict(spec)) == spec
    with pytest.raises(ValueError, match="problem seed 3 differs from the spec's seed 4"):
        dataclasses.replace(spec, seed=4)  # the recorded description names seed 3: build a new spec instead
    summary = run_experiment(spec)
    assert summary["problem"] == json.loads((out / "summary.json").read_text())["problem"] == desc
    for name in ("pnm", "newton"):
        assert json.loads((out / f"{name}.meta.json").read_text())["problem"] == desc


def test_spec_json_round_trip(tmp_path):
    spec = quadratic_spec(tmp_path / "json", diagnostics=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dataclasses.asdict(spec)))
    loaded = ExperimentSpec.from_json_file(path)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(spec)
    dataset = ExperimentSpec(problem={"path": "d.csv"}, link="squared", alpha=0.5, solvers=[SolverSpec(name="a")])
    assert ExperimentSpec.from_dict(dataclasses.asdict(dataset)) == dataset  # its description records link and alpha


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


@pytest.mark.parametrize("args, message", [
    (["--max-iters", "-1"], "max_iters must be an integer >= 1, got -1"),
    (["--max-iters", "0"], "max_iters must be an integer >= 1, got 0"),
    (["--tol", "-1"], "tol must be finite and > 0, got -1.0"),
    (["--tol", "inf"], "tol must be finite and > 0, got inf"),
    (["--rho", "nan"], "rho must be finite and > 0, got nan"),
    (["--rho", "0"], "rho must be finite and > 0, got 0.0"),
    (["--x0", "inf"], "x0 must be finite, got inf"),
    (["--x1", "nan", "--variant", "augmented"], "x1 must be finite, got nan"),
], ids=["max-iters-negative", "max-iters-zero", "tol-negative", "tol-inf", "rho-nan", "rho-zero", "x0-inf", "x1-nan"])
def test_cli_demo_root_bad_input_exits_2_before_any_output(capsys, args, message):
    assert cli_main(["demo-root", "--poly", "x^2-2", "--x0", "1", *args]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    path.write_text(json.dumps(dataclasses.asdict(spec)))
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


@pytest.mark.parametrize("flags, problem", [
    (["--dataset", "d.csv", "--n", "5"], {"path": "d.csv", "n": 5}),
    (["--dataset", "d.csv", "--problem", "quadratic"], {"path": "d.csv", "builtin": "quadratic"}),
    (["--format", "libsvm"], {"builtin": "quadratic", "format": "libsvm"}),  # no --dataset: solve's default builtin
], ids=["size-with-dataset", "builtin-with-dataset", "format-without-dataset"])
def test_cli_solve_refuses_a_problem_flag_that_does_not_apply_as_its_spec_does(tmp_path, capsys, flags, problem):
    # solve is a one-solver run: every problem flag given is in the spec's problem, so one it does not take is the
    # same unknown-key refusal, exit 2 before any output
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"problem": problem, "out": str(tmp_path / "run"),
                                "solvers": [{"name": "pnm", "method": "pnm"}]}))
    assert cli_main(["run", str(path)]) == 2
    refusal = capsys.readouterr()
    assert refusal.out == "" and refusal.err.startswith("error: unknown problem key ")
    assert cli_main(["solve", "--method", "pnm", *flags, "--out", str(tmp_path / "solve")]) == 2
    assert capsys.readouterr() == refusal
    assert not (tmp_path / "run").exists() and not (tmp_path / "solve").exists()


def test_cli_solve_dataset(tmp_path):
    A, labels = make_logistic_dataset(5, 40, seed=2)
    data = tmp_path / "data.csv"
    _write_csv(data, A, labels)
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


def test_cli_certify_exits_1_when_the_stored_cert_differs(tmp_path, capsys):
    # the re-run reproduces the trace and x_final but not the edited cert: the replay says so and exits 1,
    # although the certificate itself holds
    spec = ExperimentSpec(problem={"builtin": "logistic", "n": 6, "m": 40}, seed=3, out=str(tmp_path / "c"),
                          solvers=[SolverSpec(name="pnm", method="pnm", c=1.0, max_iters=100)], diagnostics=True)
    run_experiment(spec)
    cert_path = tmp_path / "c" / "pnm.cert.json"
    cert = json.loads(cert_path.read_text())
    assert list(cert) == ["kind", "f_star", "mu", "step_L", "aggregate", "entries"]
    assert list(cert["aggregate"]) == list(ContractionAggregate._fields)
    cert["entries"][0]["lhs"] /= 2.0
    cert_path.write_text(json.dumps(cert, indent=2) + "\n")
    assert cli_main(["certify", "--trace", str(tmp_path / "c" / "pnm.trace.csv")]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nmatches stored certification: False\n")
    assert json.loads(out.removesuffix("matches stored certification: False\n"))["all_certified"] is True


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: run reads a certificate's conclusion, not the theorem's "
                   "hypothesis step_L >= L, and 498 of this pnm certificate's 500 entries are vacuous")
def test_a_step_far_below_L_is_named_as_a_certificate_failure(tmp_path, capsys):
    # step_L = 0.4 against L = 1.197: pnm diverges to a gap of 4.6e168 in max_iters, yet its certificate reads
    # all_certified, so stderr names pnm only as not converged; item 13 makes run name pnm's certificate
    spec = dataclasses.asdict(step_below_L_spec(tmp_path / "s"))
    spec["solvers"] = [{"name": "pnm", "method": "pnm", "step_L": 0.4}]
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert cli_main(["run", str(tmp_path / "spec.json")]) == 1
    stderr = capsys.readouterr().err
    assert any("pnm" in line and "certificate" in line for line in stderr.splitlines()), stderr


def test_a_step_below_L_fails_its_certificate_where_it_is_read(tmp_path, capsys):
    # step_L = 0.6 is below this problem's L (1.197): pnm and anm converge, yet their certificates fail;
    # every pnm_diag entry is vacuous (eta > 1), so it reads true with nothing scored
    out = tmp_path / "s"
    spec = step_below_L_spec(out)
    (tmp_path / "spec.json").write_text(json.dumps(dataclasses.asdict(spec)))
    # pnewton run reads each certificate: it names the failed ones and the one with nothing scored, and exits 1
    assert cli_main(["run", str(tmp_path / "spec.json")]) == 1
    stdout, stderr = capsys.readouterr()
    assert [line.split(": ")[0] for line in stdout.splitlines()[1:]] == ["  pnm", "  pnm_diag", "  anm"]
    assert [line.endswith("  certificate: 0 of 29 entries scored") for line in stdout.splitlines()[1:]] == [
        False, True, False]
    summary = json.loads((out / "summary.json").read_text())
    certs = {entry["name"]: entry["certification"] for entry in summary["solvers"]}
    assert stderr == "".join(f"solver failure: certificate failed: {name} (worst slack "
                             f"{certs[name]['worst_slack']:.3e})\n" for name in ("pnm", "anm"))
    assert summary["constants"]["L"] > 0.6
    worst = {"pnm": -1.97e-5, "pnm_diag": None, "anm": -4.49e-3}
    for entry in summary["solvers"]:
        name = entry["name"]
        aggregate = json.loads((out / f"{name}.cert.json").read_text())["aggregate"]
        assert entry["termination"] == "converged" and entry["certification"] == aggregate
        if worst[name] is None:
            assert aggregate["all_certified"] is True and aggregate["worst_slack"] is None
            assert aggregate["n_vacuous"] == aggregate["iterations"] == 29
        else:
            assert aggregate["all_certified"] is False
            assert aggregate["worst_slack"] == pytest.approx(worst[name], rel=0.01)
        assert cli_main(["certify", "--trace", str(out / f"{name}.trace.csv")]) == (1 if worst[name] else 0)
        assert capsys.readouterr().out.endswith("matches stored certification: True\n")


@pytest.mark.parametrize("method", ["newton", "damped_newton"])
def test_cli_certify_replays_newton_and_refuses_damped_newton(tmp_path, capsys, method):
    # newton is PNM's rho = inf limit, so its run writes a cert that the replay reproduces; damped_newton's line
    # search is outside the theorem, so it has no cert and its trace is an input error naming its meta
    run_experiment(ExperimentSpec(problem={"builtin": "logistic", "n": 6, "m": 40}, seed=3, out=str(tmp_path / "c"),
                                  solvers=[SolverSpec(name="base", method=method)], diagnostics=True))
    code = cli_main(["certify", "--trace", str(tmp_path / "c" / "base.trace.csv")])
    out, err = capsys.readouterr()
    meta_path = tmp_path / "c" / "base.meta.json"
    assert (tmp_path / "c" / "base.cert.json").exists() is (method == "newton")
    if method == "newton":
        assert code == 0 and err == "" and out.endswith("\nmatches stored certification: True\n")
    else:
        assert code == 2 and out == ""
        assert err == f"error: {meta_path}: certification applies to pnm/newton/anm traces, not {method!r}\n"


def _halve_f_on_row_3(lines):
    fields = lines[4].split(",")
    fields[1] = repr(float(fields[1]) / 2)
    return [*lines[:4], ",".join(fields), *lines[5:]]


def _renumber_row_1(lines):
    return [lines[0], "7" + lines[1][lines[1].index(","):], *lines[2:]]


@pytest.mark.parametrize("edit, line", [
    (_halve_f_on_row_3, "line 5 differs"), (None, None), (lambda lines: lines[:-2], "line {n_less_1} is missing"),
    (_renumber_row_1, "line 2 differs"),
], ids=["f-edited", "deleted", "two-rows-short", "misnumbered"])
def test_cli_certify_replays_the_trace_it_is_given(tmp_path, capsys, edit, line):
    # the replay re-runs the solver and holds the trace to it; a missing trace is an input error
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 6, "m": 40},
        solvers=[SolverSpec(name="pnm", method="pnm", c=1.0, max_iters=100)],
        seed=3,
        out=str(tmp_path / "c"),
        diagnostics=True,
    )
    run_experiment(spec)
    trace, meta = tmp_path / "c" / "pnm.trace.csv", tmp_path / "c" / "pnm.meta.json"
    n = len(trace.read_text().splitlines())
    if edit is None:
        trace.unlink()
    else:
        trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
    assert cli_main(["certify", "--trace", str(trace)]) == (2 if edit is None else 1)
    out, err = capsys.readouterr()
    assert out == ""
    if edit is None:
        assert err.startswith("error: ") and str(trace) in err
    else:
        line = line.format(n_less_1=n - 1)
        assert err == f"replay failure: {trace} {line}, against the re-run of {meta} ({n} lines)\n"


def test_certify_replays_a_meta_that_still_holds_the_dropped_keys(tmp_path):
    # meta files written before f, rho and the method had one owner, before the replay re-ran the
    # solver, or before the replay derived L as the run does, also held these keys; the L is not the run's
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 6, "m": 40},
        solvers=[SolverSpec(name="anm", method="anm", max_iters=100)],
        seed=3,
        out=str(tmp_path / "c"),
        diagnostics=True,
    )
    run_experiment(spec)
    meta_path = tmp_path / "c" / "anm.meta.json"
    rows = _read_trace(tmp_path / "c" / "anm.trace.csv")
    meta = json.loads(meta_path.read_text())
    meta.update(link=spec.link, alpha=spec.alpha, seed=spec.seed, method="anm", fs=[row["f"] for row in rows],
                rhos=[None if row["rho"] == float("inf") else row["rho"] for row in rows],
                iterates=[meta["x_final"]] * len(rows), resolved_step_L=123.0)
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    report, matches = certify_trace(tmp_path / "c" / "anm.trace.csv")
    assert matches is True and report.aggregate.all_certified and report.step_L != 123.0


#: The meta keys a replay reads.
REPLAY_META_KEYS = ("solver", "problem", "x_final", "f_star")


#: A dataset problem as a meta file records it.
_CSV_PROBLEM = {"path": "d.csv", "format": "csv", "link": "logistic", "alpha": 0.1}

#: The rest of the replay failure line after the meta file's name when its x_final is not the re-run's.
_NOT_THE_FINAL_ITERATE = ": x_final is not the re-run's final iterate"

#: Meta contents that no run writes: the edit, and the rest of the error line after the meta file's name.
META_NO_RUN_WRITES = {
    "meta-list": (lambda meta: [1], " does not hold a JSON object"),
    "problem-without-m": (
        lambda meta: {**meta, "problem": {key: v for key, v in meta["problem"].items() if key != "m"}},
        ": problem {'builtin': 'logistic', 'n': 6, 'seed': 3, 'alpha': 0.1} is not the description a run records",
    ),
    "problem-list": (lambda meta: {**meta, "problem": [1]}, ': problem must be {"path": ...'),
    "solver-number": (lambda meta: {**meta, "solver": 5}, ": solver must be an object, got 5"),
    "f_star-null": (lambda meta: {**meta, "f_star": None}, ": f_star must be a finite number, got None"),
    "iterate-cut": (lambda meta: {**meta, "x_final": meta["x_final"][:1]}, _NOT_THE_FINAL_ITERATE),
    "iterate-nan": (lambda meta: {**meta, "x_final": [float("nan"), *meta["x_final"][1:]]}, _NOT_THE_FINAL_ITERATE),
    "precond-hessian_diagonal": (lambda meta: {**meta, "solver": {**meta["solver"], "precond": "hessian_diagonal"}},
                                 ": unknown preconditioner 'hessian_diagonal'; choose identity or diag"),
    "precond-matrix": (lambda meta: {**meta, "solver": {**meta["solver"], "precond": np.eye(6).tolist()}},
                       ": unknown preconditioner [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, "),  # a PD G
    "format-xml": (lambda meta: {**meta, "problem": {**_CSV_PROBLEM, "format": "xml"}},
                   ": unknown problem format 'xml'; choose csv or libsvm"),
    "path-null": (lambda meta: {**meta, "problem": {**_CSV_PROBLEM, "path": None}},
                  ": problem path must be a non-empty string, got None"),
    "alpha-negative": (lambda meta: {**meta, "problem": {**meta["problem"], "alpha": -1.0}},
                       ": regularization alpha must be finite and > 0, got -1.0"),
}


def _break_a_replay_file(case, out):
    """Break one file that ``certify`` reads in the run ``out``; return its arguments and the error it must print."""
    trace = out / "pnm.trace.csv"
    lines = trace.read_text().splitlines()
    if case in ("extra-field", "short-row"):
        lines[4] = lines[4] + ",999" if case == "extra-field" else ",".join(lines[4].split(",")[:4])
        trace.write_text("\n".join(lines) + "\n")
        return ["--trace", str(trace)], f"{trace} line 5 differs"
    if case == "misnamed":
        renamed = out / "pnm.csv"
        trace.rename(renamed)
        return ["--trace", str(renamed)], f"{renamed} is not named <name>.trace.csv, so it has no meta or cert file"
    if case == "meta-option":
        return ["--trace", str(trace), "--meta", str(out / "pnm.meta.json")], "unrecognized arguments: --meta"
    if case == "not-a-number":
        lines[4] = ",".join(["3", "abc", *lines[4].split(",")[2:]])
        trace.write_text("\n".join(lines) + "\n")
        return ["--trace", str(trace)], f"{trace} line 5 differs"
    if case in META_NO_RUN_WRITES:
        meta_path, (edit, message) = out / "pnm.meta.json", META_NO_RUN_WRITES[case]
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        return ["--trace", str(trace)], f"{meta_path}{message}"
    if case.startswith("rho-"):
        # a run without diagnostics leaves no cert, so only the re-run stands between this trace and exit 0
        (out / "pnm.cert.json").unlink()
        rho = "nan" if case == "rho-nan" else "-3.0"
        rows = [line.split(",") for line in lines[1:]]
        trace.write_text("\n".join([lines[0], *(",".join([*row[:4], rho, *row[5:]]) for row in rows)]) + "\n")
        return ["--trace", str(trace)], f"{trace} line 2 differs"
    if case.startswith("dataset-"):
        # a dataset problem the library refuses to build: its file is missing, or its link is unknown
        meta_path, data = out / "pnm.meta.json", out / "data.csv"
        data.write_text("1.0,1.0\n")
        path, link = (out / "missing.csv", "logistic") if case == "dataset-missing" else (data, "cubic")
        meta = json.loads(meta_path.read_text())
        meta["problem"] = {**_CSV_PROBLEM, "path": str(path), "link": link}
        meta_path.write_text(json.dumps(meta))
        message = (f"[Errno 2] No such file or directory: '{path}'" if case == "dataset-missing"
                   else "unknown link 'cubic'; choose from ['logistic', 'squared']")
        return ["--trace", str(trace)], f"{meta_path}: {message}"
    if case.startswith("meta-without-"):
        meta_path, key = out / "pnm.meta.json", case.removeprefix("meta-without-")
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        return ["--trace", str(trace)], f"{meta_path} has no '{key}' key"
    broken = out / f"pnm.{case}.json"
    broken.write_text(broken.read_text()[:-20])
    return ["--trace", str(trace)], f"{broken} is not valid JSON: "


#: Broken replay inputs that the re-run does not reproduce: exit 1, not an input error.
REPLAY_FAILURES = ("extra-field", "short-row", "not-a-number", "iterate-cut", "iterate-nan", "rho-nan", "rho-negative")


@pytest.mark.parametrize("case", ["extra-field", "short-row", "misnamed", "meta-option", "meta", "cert", "not-a-number",
                                  *(f"meta-without-{key}" for key in REPLAY_META_KEYS), *META_NO_RUN_WRITES,
                                  "dataset-missing", "dataset-link",
                                  "rho-nan", "rho-negative"])
def test_cli_certify_names_the_file_it_refuses(tmp_path, capsys, case):
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 6, "m": 40},
        solvers=[SolverSpec(name="pnm", method="pnm", c=1.0, max_iters=100)],
        seed=3,
        out=str(tmp_path / "c"),
        diagnostics=True,
    )
    run_experiment(spec)
    args, message = _break_a_replay_file(case, tmp_path / "c")
    failed = case in REPLAY_FAILURES
    assert cli_main(["certify", *args]) == (1 if failed else 2)
    out, err = capsys.readouterr()
    assert out == "" and f"{'replay failure' if failed else 'error'}: {message}" in err


def _anm_and_pnm_runs(out):
    """An ``anm`` run with diagnostics and a ``pnm`` run without, as ``pnewton run`` writes them into ``out``."""
    spec = ExperimentSpec(
        problem={"builtin": "logistic", "n": 6, "m": 40},
        solvers=[SolverSpec(name="anm", method="anm", max_iters=100), SolverSpec(name="pnm", method="pnm")],
        seed=3,
        out=str(out),
        diagnostics=True,
    )
    run_experiment(spec)
    (out / "pnm.cert.json").unlink()


def test_cli_certify_refuses_an_anm_iterate_cut_short(tmp_path, capsys):
    # the ANM certificate reads the last iterate; cut to one entry, x_final is no longer the re-run's
    _anm_and_pnm_runs(tmp_path / "c")
    meta_path = tmp_path / "c" / "anm.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["x_final"] = meta["x_final"][:1]
    meta_path.write_text(json.dumps(meta))
    assert cli_main(["certify", "--trace", str(tmp_path / "c" / "anm.trace.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"replay failure: {meta_path}{_NOT_THE_FINAL_ITERATE}\n"


def test_cli_certify_reads_an_infinite_rho(tmp_path, capsys):
    # an uncapped schedule (rho_max = Infinity) overflows to inf: a run's own inf replays, one written in does not
    out = tmp_path / "c"
    run_experiment(ExperimentSpec(problem={"builtin": "logistic", "n": 6, "m": 40}, seed=3, out=str(out),
                                  solvers=[SolverSpec(name="inf", method="pnm", c=1e100, rho_max=float("inf")),
                                           SolverSpec(name="pnm", method="pnm")]))
    assert "inf" in [line.split(",")[4] for line in (out / "inf.trace.csv").read_text().splitlines()]
    assert cli_main(["certify", "--trace", str(out / "inf.trace.csv")]) == 0
    trace = out / "pnm.trace.csv"
    lines = trace.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    trace.write_text("\n".join([lines[0], *(",".join([*row[:4], "inf", *row[5:]]) for row in rows)]) + "\n")
    assert cli_main(["certify", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"replay failure: {trace} line 2 differs, against the re-run of {out / 'pnm.meta.json'}")


def _nudge_cell(column):
    """An edit moving ``column`` of row 3 (line 4) one float up, and where the replay must point."""
    def edit(lines):
        fields = lines[3].split(",")
        i = TRACE_HEADER.split(",").index(column)
        fields[i] = repr(float(np.nextafter(float(fields[i]), np.inf)))
        return [*lines[:3], ",".join(fields), *lines[4:]], "line 4 differs"
    return edit


def _append_a_row(lines):
    k, rest = lines[-1].split(",", 1)
    return [*lines, f"{int(k) + 1},{rest}"], f"line {len(lines) + 1} is extra"


#: Trace edits that no run writes: the edit, returning the new lines and where the replay must point.
TRACE_EDITS = {
    **{column: _nudge_cell(column) for column in ("f", "gap", "grad_norm", "rho", "step_norm_G", "lyapunov")},
    "row-dropped": lambda lines: ([*lines[:3], *lines[4:]], "line 4 differs"),
    "row-appended": _append_a_row,
    "not-utf-8": lambda lines: ([*lines[:3], "\udcff" + lines[3], *lines[4:]], "line 4 differs"),
    "elapsed_ns-not-digits": lambda lines: ([*lines[:3], lines[3][:-1] + "-1", *lines[4:]], "line 4 differs"),
}


@pytest.mark.parametrize("cert", [True, False], ids=["with-cert", "without-cert"])
@pytest.mark.parametrize("case", [*TRACE_EDITS, "x_final"])
def test_replay_refuses_what_the_re_run_does_not_reproduce(tmp_path, capsys, case, cert):
    # one float up in any recorded value, a row dropped or added: the re-run writes otherwise, with or without a cert
    out = tmp_path / "c"
    run_experiment(ExperimentSpec(problem={"builtin": "logistic", "n": 6, "m": 40}, seed=3, out=str(out),
                                  diagnostics=True, solvers=[SolverSpec(name="pnm", method="pnm")]))
    if not cert:
        (out / "pnm.cert.json").unlink()
    trace, meta_path = out / "pnm.trace.csv", out / "pnm.meta.json"
    if case == "x_final":
        meta = json.loads(meta_path.read_text())
        meta["x_final"][2] = float(np.nextafter(meta["x_final"][2], np.inf))
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        where = f"{meta_path}{_NOT_THE_FINAL_ITERATE}\n"
    else:
        lines, at = TRACE_EDITS[case](trace.read_text().splitlines())
        trace.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
        where = f"{trace} {at}, against the re-run of {meta_path}"
    assert cli_main(["certify", "--trace", str(trace)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"replay failure: {where}")


@pytest.mark.parametrize("spec", [
    {"timing": True},
    {"solvers": [{"name": m, "method": m, "c": 1e100, "rho_max": float("inf")} for m in ("pnm", "anm")]},
], ids=["timing", "uncapped"])
def test_a_timed_and_an_uncapped_run_replay(tmp_path, capsys, spec):
    # the replay skips elapsed_ns, which --timing fills, and re-runs a schedule that overflows rho to inf
    path, out = tmp_path / "spec.json", tmp_path / "c"
    path.write_text(json.dumps({"problem": {"builtin": "logistic", "n": 6, "m": 40}, "seed": 3, "diagnostics": True,
                                "out": str(out), "solvers": [{"name": m, "method": m} for m in ("pnm", "anm")],
                                **spec}))
    timed = "timing" in spec
    assert timed or '"rho_max": Infinity' in path.read_text()
    assert cli_main(["run", str(path)]) == 0
    rows = [row for name in ("pnm", "anm") for row in _read_trace(out / f"{name}.trace.csv")]
    assert any(row["elapsed_ns"] > 0 if timed else row["rho"] == float("inf") for row in rows)
    capsys.readouterr()
    entries = json.loads((out / "summary.json").read_text())["solvers"]
    for name, entry in zip(("pnm", "anm"), entries):
        # augmented entries carry no beta, so only a penalty aggregate has a smallest one
        beta_min = json.loads((out / f"{name}.cert.json").read_text())["aggregate"]["beta_min"]
        assert entry["certification"]["beta_min"] == beta_min
        assert beta_min is None if name == "anm" else beta_min > 0.0
        assert cli_main(["certify", "--trace", str(out / f"{name}.trace.csv")]) == 0
        assert capsys.readouterr().out.endswith("matches stored certification: True\n")


def test_an_uncapped_schedule_is_scored_at_its_rho_inf_limit(tmp_path, capsys):
    # c = 1e100 overflows rho to inf at k = 3; there xi -> 1 and eta -> mu/L, the Newton factor 1 - mu/L
    out = tmp_path / "c"
    run_experiment(ExperimentSpec(problem={"builtin": "logistic", "n": 10, "m": 80}, out=str(out), diagnostics=True,
                                  solvers=[SolverSpec(name="pnm", method="pnm", c=1e100, rho_max=float("inf"))]))
    cert = json.loads((out / "pnm.cert.json").read_text())
    rhos = [row["rho"] for row in _read_trace(out / "pnm.trace.csv")]
    at_inf = [e for e in cert["entries"] if rhos[e["k"]] == float("inf")]
    assert len(at_inf) == 11 and cert["aggregate"]["all_certified"] and cert["aggregate"]["n_vacuous"] == 0
    assert all(e["xi"] == 1.0 and e["eta"] == cert["mu"] / cert["step_L"] for e in at_inf)
    assert "nan" not in json.dumps(cert)
    assert cli_main(["certify", "--trace", str(out / "pnm.trace.csv")]) == 0
    assert "matches stored certification: True" in capsys.readouterr().out


def test_cli_spec_that_does_not_parse_names_the_file(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    path = tmp_path / "spec.json"
    path.write_text('{"problem": {')
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 14 (char 13)\n"
    )


def test_cli_run_spec_file(tmp_path, capsys):
    spec = quadratic_spec(tmp_path / "runout")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dataclasses.asdict(spec)))
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
    path.write_text(json.dumps(dataclasses.asdict(spec)))
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


def test_cli_run_names_an_eigensolver_failure_in_certification_as_a_solver_failure(tmp_path, capsys, monkeypatch):
    # the solve needs no eigensolve; the certificate's fails, so the trace and meta are written and no cert
    def diverge(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    out = tmp_path / "out"
    path = tmp_path / "spec.json"
    spec = quadratic_spec(out, solvers=[SolverSpec(name="pnm", method="pnm")], diagnostics=True)
    path.write_text(json.dumps(dataclasses.asdict(spec)))
    assert cli_main(["run", str(path)]) == 1
    message = "eigendecomposition did not converge: Eigenvalues did not converge"
    assert capsys.readouterr() == ("", f"solver failure: {message}\n")
    assert json.loads((out / "summary.json").read_text())["failed"] == [{"name": "pnm", "error": message}]
    assert (out / "pnm.trace.csv").exists() and not (out / "pnm.cert.json").exists()


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


@pytest.mark.parametrize("fmt, text", [("csv", "0.5,1\n-0.5,nan\n"), ("libsvm", "1 1:0.5\ninf 1:-0.5\n")])
def test_cli_non_finite_squared_label_exits_2_naming_the_labels(tmp_path, capsys, monkeypatch, fmt, text):
    # the labels are refused where the problem is built, not blamed on the start point after the f* oracle
    _no_fstar_oracle(monkeypatch)
    data, out = tmp_path / f"labels.{fmt}", tmp_path / "x"
    data.write_text(text)
    code = cli_main(["solve", "--method", "pnm", "--dataset", str(data), "--format", fmt, "--link", "squared",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: labels have non-finite entries\n")
    assert not out.exists()


def test_cli_empty_builtin_shape_is_input_error(tmp_path, capsys):
    spec = {"problem": {"builtin": "logistic", "n": 0, "m": 10}, "out": str(tmp_path / "x"),
            "solvers": [{"name": "pnm", "method": "pnm"}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: a builtin problem's n must be an integer >= 1, got 0\n"
    assert not (tmp_path / "x").exists()


def _no_fstar_oracle(monkeypatch):
    import pnewton.solvers

    def refuse(model):
        raise AssertionError("the f* oracle ran before the input was rejected")
    monkeypatch.setattr(pnewton.solvers, "fstar_oracle", refuse)


def test_provided_fstar_is_used_without_the_oracle_and_replays(tmp_path, capsys, monkeypatch):
    def spec(out, fstar):
        return ExperimentSpec(problem={"builtin": "logistic", "n": 6, "m": 40}, seed=3, out=str(tmp_path / out),
                              solvers=[SolverSpec(name=m, method=m, max_iters=200) for m in ("pnm", "anm")],
                              diagnostics=True, fstar=fstar)

    v = run_experiment(spec("oracle", {"policy": "oracle"}))["f_star"]
    _no_fstar_oracle(monkeypatch)
    summary = run_experiment(spec("provided", {"policy": "provided", "value": v}))
    out = tmp_path / "provided"
    assert summary["f_star"] == v and summary["f_star_provenance"] == {"policy": "provided"}
    for name in ("pnm", "anm"):
        meta = json.loads((out / f"{name}.meta.json").read_text())
        assert meta["f_star"] == v and meta["f_star_provenance"] == {"policy": "provided"}
        rows = _read_trace(out / f"{name}.trace.csv")
        assert all(row["gap"] == row["f"] - v for row in rows)
        assert cli_main(["certify", "--trace", str(out / f"{name}.trace.csv")]) == 0
        assert "matches stored certification: True" in capsys.readouterr().out


def test_a_provided_fstar_above_a_runs_values_fails_its_certificate_as_an_input_error(tmp_path, capsys):
    # an f* 1e-6 above the oracle's lies above the lowest f each run records, so every gap is negative; neither
    # certifier scores such a run: both solvers fail, with their traces and metas written and no cert, and run exits 2
    from pnewton.harness.experiment import _build_model
    from pnewton.solvers import fstar_oracle

    out = tmp_path / "above"
    spec = {"problem": {"builtin": "logistic"}, "seed": 0, "alpha": 0.1, "diagnostics": True, "out": str(out),
            "solvers": [{"name": "pnm", "method": "pnm"}, {"name": "anm", "method": "anm"}]}
    f_star = fstar_oracle(_build_model(ExperimentSpec.from_dict(spec).problem)).final.f + 1e-6
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "fstar": {"policy": "provided", "value": f_star}}))
    assert cli_main(["run", str(path)]) == 2
    stdout, stderr = capsys.readouterr()
    failed = json.loads((out / "summary.json").read_text())["failed"]
    assert [entry["name"] for entry in failed] == ["pnm", "anm"]
    for entry in failed:
        f_low = min(row["f"] for row in _read_trace(out / f"{entry['name']}.trace.csv"))
        assert f_star > f_low + 1e-9
        assert entry["error"] == f"f_star = {f_star!r} exceeds the lowest recorded f(x) = {f_low!r} beyond tolerance"
        assert (out / f"{entry['name']}.meta.json").exists()
    assert stdout == "" and stderr == f"error: {failed[0]['error']}\n"
    assert not list(out.glob("*.cert.json"))


def test_cli_bad_solver_field_exits_before_any_output(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "a" / "b" / "x"  # "../../x" would land in tmp_path / "a"
    bad = [({"rho0": -1.0}, "rho0 must be finite and > 0, got -1.0"),
           ({"max_iters": 2.5}, "max_iters must be an integer >= 1, got 2.5"),
           ({"name": "../../x"}, "solver name '../../x' is not a plain file name"),
           ({"name": ""}, "solver name '' is not a plain file name"),
           ({"name": "a\0b"}, "solver name 'a\\x00b' is not a plain file name")]
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
    ({"problem": {"path": None}}, "problem path must be a non-empty string, got None"),
    ({"problem": {"path": ""}}, "problem path must be a non-empty string, got ''"),
    ({"problem": {"path": "d\0.csv"}}, "problem path must be free of NUL bytes, got 'd\\x00.csv'"),
    ({"problem": {"builtin": "logistic"}, "out": "o\0ut"}, "out must be free of NUL bytes, got 'o\\x00ut'"),
], ids=["logistic-squared", "quadratic-squared", "empty", "unknown-builtin", "path-null", "path-empty", "path-nul",
        "out-nul"])
def test_cli_problem_it_would_misread_exits_before_any_output(tmp_path, capsys, monkeypatch, fields, message):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "x"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"out": str(out), **fields, "solvers": [{"name": "pnm", "method": "pnm"}]}))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _write_csv(path, A, labels):
    lines = [",".join([*(repr(float(v)) for v in col), repr(float(y))]) for col, y in zip(A.T, labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_libsvm(path, A, labels):
    lines = [" ".join([repr(float(y)), *(f"{i + 1}:{float(v)!r}" for i, v in enumerate(col))])
             for col, y in zip(A.T, labels)]
    Path(path).write_text("\n".join(lines) + "\n")


#: How a test writes a dataset in each format; a format the parser offers without one here fails the test below.
_DATASET_WRITERS = {"csv": _write_csv, "libsvm": _write_libsvm}


@pytest.mark.parametrize("flag, field, offered_args, unoffered, refusal", [
    ("--precond", "preconditioner",
     lambda name, tmp: ["--precond", name, "--problem", "logistic", "--n", "4", "--m", "20"],
     "hessian_diagonal", lambda bad, tmp: {"solvers": [{"name": "a", "method": "pnm", "precond": bad}]}),
    ("--format", "problem format",
     lambda name, tmp: ["--dataset", str(tmp / f"data.{name}"), "--format", name],
     "xml", lambda bad, tmp: {"problem": {"path": str(tmp / "data.xml"), "format": bad}}),
    ("--problem", "builtin",
     lambda name, tmp: ["--problem", name, "--n", "4"],
     "cubic", lambda bad, tmp: {"problem": {"builtin": bad}}),
], ids=["precond", "format", "builtin"])
def test_every_name_solve_offers_runs_and_a_spec_name_it_does_not_offer_is_refused(
        tmp_path, capsys, monkeypatch, flag, field, offered_args, unoffered, refusal):
    assert cli_main(["solve", "--help"]) == 0
    offered = re.search(rf"{flag} {{([^}}]*)}}", capsys.readouterr().out).group(1).split(",")
    A, labels = make_logistic_dataset(3, 12, seed=0)
    for name in offered:
        if flag == "--format":
            _DATASET_WRITERS[name](tmp_path / f"data.{name}", A, labels)
        out = tmp_path / f"solve-{name}"
        assert cli_main(["solve", "--method", "pnm", *offered_args(name, tmp_path), "--out", str(out)]) == 0, name
        assert (out / "pnm.trace.csv").exists()
    capsys.readouterr()

    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "refused"
    path = tmp_path / "spec.json"
    spec = {"problem": {"builtin": "logistic", "n": 4, "m": 20}, "out": str(out),
            "solvers": [{"name": "a", "method": "pnm"}], **refusal(unoffered, tmp_path)}
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError) as info:  # refused where the spec is read, before any file is opened
        ExperimentSpec.from_json_file(path)
    assert cli_main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {info.value}\n"
    assert field in err and repr(unoffered) in err and all(name in err for name in offered)
    assert not out.exists()


_FSTAR_FORMS = 'fstar must be {"policy": "oracle"} or {"policy": "provided", "value": <finite number>}'

#: A spec field of the wrong type or value, and the line that refuses it on every route into a spec.
_WRONG_FIELDS = [
    ({"problem": [1]},
     'problem must be {"path": ..., "format": "csv"|"libsvm"} '
     'or {"builtin": "quadratic"|"logistic", "n": ..., "m": ...}, got [1]'),
    ({"fstar": "oracle"}, f"{_FSTAR_FORMS}, got 'oracle'"),
    ({"fstar": {"policy": "provided", "value": "0.5"}},
     f"{_FSTAR_FORMS}, got {{'policy': 'provided', 'value': '0.5'}}"),
    ({"fstar": {"policy": "provided", "value": float("nan")}},
     f"{_FSTAR_FORMS}, got {{'policy': 'provided', 'value': nan}}"),
    ({"problem": {"builtin": "logistic", "n": 2.5}}, "a builtin problem's n must be an integer >= 1, got 2.5"),
    ({"problem": {"builtin": "logistic", "n": "7"}}, "a builtin problem's n must be an integer >= 1, got '7'"),
    ({"problem": {"builtin": "quadratic", "n": True}}, "a builtin problem's n must be an integer >= 1, got True"),
    ({"problem": {"builtin": "logistic", "m": True}}, "a builtin problem's m must be an integer >= 1, got True"),
    ({"problem": {"builtin": "quadratic", "n": 0}}, "a builtin problem's n must be an integer >= 1, got 0"),
    ({"problem": {"builtin": "logistic", "n": -3}}, "a builtin problem's n must be an integer >= 1, got -3"),
    ({"problem": {"builtin": "logistic", "m": 0}}, "a builtin problem's m must be an integer >= 1, got 0"),
    ({"solvers": [{"name": 5, "method": "pnm"}]}, "solver name 5 is not a plain file name"),
    ({"solvers": [{"name": "pnm", "method": "pnm", "max_iters": True}]},
     "max_iters must be an integer >= 1, got True"),
    ({"problem": {"builtin": "logistic", "N": 5, "m": 30}},
     "unknown problem key 'N'; this problem takes only ['builtin', 'n', 'm', 'seed', 'alpha']"),
    ({"problem": {"builtin": "quadratic", "m": 30}},
     "unknown problem key 'm'; this problem takes only ['builtin', 'n', 'seed']"),
    ({"problem": {"path": "data.csv", "seed": 1}},
     "unknown problem key 'seed'; this problem takes only ['path', 'format', 'link', 'alpha']"),
    ({"fstar": {"policy": "oracle", "value": 3}}, f"{_FSTAR_FORMS}, got {{'policy': 'oracle', 'value': 3}}"),
    ({"problem": {"builtin": "logistic", "seed": 5}}, "problem seed 5 differs from the spec's seed 0"),
    ({"problem": {"builtin": "logistic", "alpha": 0.5}}, "problem alpha 0.5 differs from the spec's alpha 0.1"),
    ({"problem": {"path": "data.csv", "link": "squared"}},
     "problem link 'squared' differs from the spec's link 'logistic'"),
    ({"diagnostics": "no"}, "diagnostics must be true or false, got 'no'"),
    ({"timing": 1}, "timing must be true or false, got 1"),
    ({"alpha": "0.1"}, "alpha must be a finite number, got '0.1'"),
    ({"alpha": True}, "alpha must be a finite number, got True"),
    ({"seed": 2.5}, "seed must be an integer >= 0, got 2.5"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"solvers": "pnm"}, "solvers must be a list of objects, got 'pnm'"),
    ({"solvers": ["pnm"]}, "solvers must be a list of objects, got ['pnm']"),
    ({"solvers": {"name": "a"}}, "solvers must be a list of objects, got {'name': 'a'}"),
    ({"out": 5}, "out must be a non-empty string, got 5"),
    ({"out": ""}, "out must be a non-empty string, got ''"),
    ({"solvers": [{"name": "pnm", "c": float("nan")}]}, "growth factor c must be finite and >= 1, got nan"),
    ({"solvers": [{"name": "pnm", "rho_max": float("nan")}]}, "rho_max must be >= rho0, got nan"),
    ({"solvers": [{"name": "pnm", "step_L": float("inf")}]}, "step constant L must be finite and > 0, got inf"),
    ({"solvers": [{"name": "a", "method": "pnm", "tol": True, "rho0": True}]}, "rho0 must be finite and > 0, got True"),
    ({"solvers": [{"name": "a", "tol": True}]}, "tol must be finite and > 0, got True"),
    ({"solvers": [{"name": "a", "tol": "1e-8"}]}, "tol must be finite and > 0, got '1e-8'"),
    ({"solvers": [{"name": "a", "step_L": True}]}, "step constant L must be finite and > 0, got True"),
    ({"solvers": [{"name": "a", "c": True}]}, "growth factor c must be finite and >= 1, got True"),
    ({"solvers": [{"name": "a", "rho0": "1"}]}, "rho0 must be finite and > 0, got '1'"),
    ({"solvers": [{"name": "a", "rho_max": "1"}]}, "rho_max must be >= rho0, got '1'"),
    ({"solvers": [{"name": "a", "rho_max": True}]}, "rho_max must be >= rho0, got True"),
    # the library takes a PD matrix as its precond; a spec names its G by a spelling only
    ({"solvers": [{"name": "a", "precond": [[1.0, 0.0], [0.0, 1.0]]}]},
     "unknown preconditioner [[1.0, 0.0], [0.0, 1.0]]; choose identity or diag"),
]
_WRONG_FIELD_IDS = ["problem-list", "fstar-string", "fstar-value-string", "fstar-value-nan", "n-float", "n-string",
        "quadratic-n-bool", "m-bool", "quadratic-n-zero", "n-negative", "m-zero", "name-int", "max-iters-bool",
        "logistic-unknown-key",
        "quadratic-unknown-key", "dataset-unknown-key", "fstar-oracle-value", "problem-seed", "problem-alpha",
        "problem-link", "diagnostics-string", "timing-int", "alpha-string", "alpha-bool", "seed-float",
        "seed-negative", "solvers-string", "solvers-list-of-strings", "solvers-object", "out-int", "out-empty",
        "c-nan", "rho-max-nan", "step-l-inf", "tol-and-rho0-bool", "tol-bool", "tol-string", "step-l-bool",
        "c-bool", "rho0-string", "rho-max-string", "rho-max-bool", "precond-matrix"]


def _wrong_field_spec(out: Path, fields: dict) -> dict:
    return {"problem": {"builtin": "logistic", "n": 4, "m": 20}, "out": str(out),
            "solvers": [{"name": "pnm", "method": "pnm"}], **fields}


@pytest.mark.parametrize("fields, message", _WRONG_FIELDS, ids=_WRONG_FIELD_IDS)
def test_cli_spec_field_of_wrong_type_exits_before_any_output(tmp_path, capsys, monkeypatch, fields, message):
    _no_fstar_oracle(monkeypatch)
    out = tmp_path / "x"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_wrong_field_spec(out, fields)))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("fields, message", _WRONG_FIELDS, ids=_WRONG_FIELD_IDS)
def test_spec_constructor_refuses_each_field_as_a_spec_file_is(tmp_path, fields, message):
    # a spec built from Python is checked as one read from a file: the same ValueError, word for word
    with pytest.raises(ValueError) as info:
        ExperimentSpec(**_wrong_field_spec(tmp_path / "x", fields))
    assert str(info.value) == message


def test_spec_takes_each_solver_as_its_json_object_or_a_solver_spec():
    problem = {"builtin": "logistic", "n": 4, "m": 20}
    spec = ExperimentSpec(problem=problem, solvers=[SolverSpec(name="pnm")])
    assert ExperimentSpec(problem=problem, solvers=[{"name": "pnm"}]) == spec
    assert ExperimentSpec.from_dict({"problem": problem, "solvers": [{"name": "pnm"}]}) == spec
    assert ExperimentSpec(**dataclasses.asdict(spec)) == spec
    # a missing solver list reads the same on both routes
    for build in (lambda: ExperimentSpec(problem=problem), lambda: ExperimentSpec.from_dict({"problem": problem})):
        with pytest.raises(ValueError, match="^experiment needs at least one solver$"):
            build()


def test_cli_spec_that_is_not_an_object_exits_before_any_output(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    path = tmp_path / "spec.json"
    path.write_text("[1]")
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: a spec must be a JSON object, got [1]\n"


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "", "2.5"])
def test_cli_bad_pn_threads_exits_before_any_output(tmp_path, capsys, monkeypatch, threads):
    _no_fstar_oracle(monkeypatch)
    monkeypatch.setenv("PN_THREADS", threads)
    out = tmp_path / "x"
    assert cli_main(["solve", "--method", "pnm", "--problem", "logistic", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: PN_THREADS must be an integer >= 1, got {threads!r}\n"
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


def test_cli_csv_wider_than_the_cap_exits_before_any_output(tmp_path, capsys, monkeypatch):
    # the cap is lowered on the binding _load_csv reads; no test runs a problem at the real cap (800 MB Hessians)
    import pnewton.harness.datasets

    _no_fstar_oracle(monkeypatch)
    monkeypatch.setattr(pnewton.harness.datasets, "MAX_FEATURES", 3)
    data = tmp_path / "wide.csv"
    data.write_text("1,2,3,1\n4,5,6,-1\n")
    assert load_dataset(data, "csv")[0].shape == (3, 2)  # at the cap
    data.write_text("1,2,3,4,5,1\n6,7,8,9,10,-1\n")
    out = tmp_path / "x"
    assert cli_main(["solve", "--method", "pnm", "--dataset", str(data), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 1: need 1 to 3 feature columns plus a label, found 5\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("builtin", ["quadratic", "logistic"])
def test_cli_builtin_wider_than_the_cap_exits_before_any_output_and_is_not_replayed(tmp_path, capsys, monkeypatch,
                                                                                     builtin):
    # the cap is lowered on the binding _problem_desc reads, which checks a spec and a replayed meta alike
    import pnewton.harness.experiment

    run_experiment(ExperimentSpec(problem={"builtin": builtin, "n": 4}, seed=3, out=str(tmp_path / "c"),
                                  solvers=[SolverSpec(name="pnm", method="pnm")]))
    _no_fstar_oracle(monkeypatch)
    monkeypatch.setattr(pnewton.harness.experiment, "MAX_FEATURES", 3)
    assert ExperimentSpec(problem={"builtin": builtin, "n": 3}, solvers=[SolverSpec(name="a")]).problem["n"] == 3
    out = tmp_path / "x"
    assert cli_main(["solve", "--method", "pnm", "--problem", builtin, "--n", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a builtin problem's n 4 exceeds the limit of 3\n" and captured.out == ""
    assert not out.exists()
    meta = tmp_path / "c" / "pnm.meta.json"
    assert cli_main(["certify", "--trace", str(tmp_path / "c" / "pnm.trace.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {meta}: a builtin problem's n 4 exceeds the limit of 3\n" and captured.out == ""


def test_cli_libsvm_repeated_index_exits_before_any_output(tmp_path, capsys, monkeypatch):
    _no_fstar_oracle(monkeypatch)
    data = tmp_path / "repeat.libsvm"
    data.write_text("1 1:0.5 3:1 3:2\n")
    out = tmp_path / "x"
    code = cli_main(["solve", "--method", "pnm", "--dataset", str(data), "--format", "libsvm", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 1: feature index 3 is repeated\n" and captured.out == ""
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


def test_stalled_solver_keeps_its_trace_and_meta_and_exits_1(tmp_path, capsys, monkeypatch):
    import pnewton.harness.experiment as experiment_mod
    from pnewton.objective import ObjectiveModel

    # value jumps up everywhere away from the start 0, so damped Newton's line search accepts no step
    jump = ObjectiveModel(dim=1, value=lambda x: 0.0 if x[0] == 0.0 else 1.0, gradient=lambda x: np.array([-1.0]),
                          hessian=lambda x: np.eye(1), constants=(1.0, 1.0))
    monkeypatch.setattr(experiment_mod, "_build_model", lambda problem: jump)
    _no_fstar_oracle(monkeypatch)
    spec = {"problem": {"builtin": "logistic", "n": 1, "m": 1}, "fstar": {"policy": "provided", "value": 0.0},
            "solvers": [{"name": "dn", "method": "damped_newton"}]}
    out = tmp_path / "lib"
    summary = run_experiment(ExperimentSpec.from_dict({**spec, "out": str(out)}))
    assert summary["failed"] == []
    assert [(e["name"], e["termination"], e["iterations"]) for e in summary["solvers"]] == [("dn", "stalled", 0)]
    meta = json.loads((out / "dn.meta.json").read_text())
    assert meta["termination"] == "stalled" and meta["steps_taken"] == 0 and meta["x_final"] == [0.0]
    assert [row["k"] for row in _read_trace(out / "dn.trace.csv")] == [0]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "out": str(tmp_path / "cli")}))
    assert cli_main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "solver failure: not converged: dn\n"
    assert (tmp_path / "cli" / "dn.trace.csv").read_bytes() == (out / "dn.trace.csv").read_bytes()


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
    rows = _read_trace(out / f"{method}.trace.csv")
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
