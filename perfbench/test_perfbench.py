"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from pnewton.harness import load_dataset  # noqa: E402
from tracer import Span, SpanIndex, Tracer, all_bindings, resolve, union_length  # noqa: E402
from workloads import WORKLOADS, Workload, make_sparse_regression, prepare, write_libsvm  # noqa: E402


def span(id, start, end, parent=None, tid=1, name="x"):
    return Span(id=id, name=name, start_ns=start, end_ns=end, parent=parent, op=0, tid=tid)


# ---------------------------------------------------------------- span arithmetic


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25), (25, 30), (7, 7)]) == 25


def test_self_time_nested_same_thread():
    spans = [
        span(1, 0, 100),
        span(2, 10, 30, parent=1),
        span(3, 20, 50, parent=1),  # overlaps its sibling: counted once
        span(4, 12, 15, parent=2),  # grandchild: inside span 2 already
        span(5, 90, 120, parent=1),  # runs past its parent: clipped at 100
    ]
    idx = SpanIndex(spans)
    assert idx.self_ns(spans[0]) == 100 - (40 + 10)
    assert idx.self_ns(spans[1]) == 20 - 3
    assert idx.self_ns(spans[3]) == 3


def test_self_time_ignores_children_on_other_threads():
    spans = [
        span(1, 0, 100, tid=1),
        span(2, 0, 20, parent=1, tid=1),
        span(3, 10, 60, parent=1, tid=2),  # pool worker
        span(4, 40, 90, parent=1, tid=3),  # second pool worker
        span(5, 45, 50, parent=3, tid=2),
    ]
    idx = SpanIndex(spans)
    # only the same-thread child [0, 20] counts; pool work overlaps, it does not subtract
    assert idx.self_ns(spans[0]) == 80
    assert idx.self_ns(spans[2]) == 45


def test_outermost_and_ancestors():
    spans = [
        span(1, 0, 100, name="solvers.run"),
        span(2, 10, 50, parent=1, name="linalg.sym_eig"),
        span(3, 20, 40, parent=2, name="linalg.eigh"),
        span(4, 60, 70, parent=1, name="linalg.eigh"),
    ]
    idx = SpanIndex(spans)
    assert [s.id for s in idx.outermost("linalg.")] == [2, 4]
    assert idx.has_ancestor(spans[2], "solvers.run")
    assert not idx.has_ancestor(spans[0], "solvers.run")


def test_tracer_links_pool_threads_to_the_submitting_span():
    tracer = Tracer(bindings=[])

    def work():
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass

    with tracer, tracer.span("outer"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            for fut in futures:
                fut.result(timeout=10)
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 4
    assert all(s.parent == outer.id and s.tid != outer.tid for s in inner)
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert sorted(s.parent for s in leaves) == sorted(s.id for s in inner)


# ---------------------------------------------------------------- wrappers


def _binding_targets():
    out = {}
    for owner_path, attr, _ in all_bindings():
        owner = resolve(owner_path)
        out[(owner_path, attr)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


def _tiny_spec(tmp_path, seed=3):
    w = Workload(name="tiny", link="squared", n=12, m=8, diagnostics=True,
                 solvers=(("newton", "identity"), ("pnm", "diag"), ("anm", "identity")),
                 replay=True, density=0.3)
    prepare(tmp_path, w, seed)
    return w


def test_wrappers_restore_every_binding(tmp_path, monkeypatch):
    import worker

    before = _binding_targets()
    w = _tiny_spec(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PN_THREADS", "2")
    tracer = Tracer()
    op = worker.run_op(w, tracer, worker.ridge_fstar(w))
    assert op["errors"] == []
    names = {s.name for s in tracer.spans}
    for expected in ("objective.hessian", "linalg.eigh", "linalg.spd_solve", "linalg.as_symmetric",
                     "solvers.run", "solvers.fstar", "diagnostics.certify", "harness.replay",
                     "harness.experiment.run", "harness.experiment.solver", "harness.datasets.load"):
        assert expected in names
    after = _binding_targets()
    assert all(after[key] is before[key] for key in before)

    # a crash inside a traced call restores them too
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_binding_targets()[key] is before[key] for key in before)


def test_traced_ops_repeat_counts_and_bytes(tmp_path, monkeypatch):
    import worker

    w = _tiny_spec(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PN_THREADS", "2")
    ridge = worker.ridge_fstar(w)
    untraced = worker.run_op(w, Tracer(worker.E2E_BINDINGS), ridge)
    results = []
    for op_id in (1, 2):
        tracer = Tracer()
        tracer.op = op_id
        op = worker.run_op(w, tracer, ridge)
        assert op["errors"] == []
        assert op["digest"] == untraced["digest"]
        results.append(worker.layer_metrics(w, worker.op_spans(tracer, op_id), op)[1])
    assert results[0] == results[1]
    assert results[0]["diagnostics.certified_iterates"] > 0


def test_metric_names_match_benchmark_json():
    import json

    import run
    import worker

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    # wide-replay is runnable by hand but not measured (see README.md)
    assert [w["name"] for w in bench["workloads"]] == ["tall-oracle", "square-certify"]
    assert set(WORKLOADS) == {"tall-oracle", "square-certify", "wide-replay"}

    # every per-layer metric comes out of one traced op, plus the overhead
    w = WORKLOADS["square-certify"]
    op = {"summary": {"solvers": [{"name": "pnm_diag", "iterations": 3}],
                      "f_star_provenance": {"iterations": 2}},
          "certs": [], "bytes_written": 1}
    times, counts = worker.layer_metrics(w, [], op)
    assert set(times) | set(counts) | {"trace.overhead_s"} == set(run.LAYER_UNITS)


# ---------------------------------------------------------------- inputs


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_libsvm_writer_round_trips_exactly(tmp_path, seed):
    A, y = make_sparse_regression(40, 25, 0.2, seed)
    A[:, 3] = 0.0  # a sample with no features: a label-only line
    A[5, 4] = -0.0
    path = tmp_path / "data.libsvm"
    write_libsvm(path, A, y)
    A2, y2 = load_dataset(str(path), "libsvm", link="squared")
    assert A2.shape == A.shape
    assert np.array_equal(A2, A) and np.array_equal(y2, y)


def test_inputs_depend_only_on_the_seed():
    w = WORKLOADS["wide-replay"]
    A1, y1 = make_sparse_regression(w.n, w.m, w.density, 5)
    A2, y2 = make_sparse_regression(w.n, w.m, w.density, 5)
    A3, _ = make_sparse_regression(w.n, w.m, w.density, 6)
    assert np.array_equal(A1, A2) and np.array_equal(y1, y2)
    assert not np.array_equal(A1, A3)
    assert (A1 != 0).any(axis=1).all()
    assert abs((A1 != 0).mean() - w.density) < 0.02
