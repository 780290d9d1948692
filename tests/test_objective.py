import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_glm
from pnewton.errors import BadLabel, BadShape, NotPSD
from pnewton.objective import (
    GlmProblem,
    ObjectiveModel,
    RelativeConstants,
    check_relative_bounds,
    fd_gradient,
    fd_hessian,
    glm_build,
    glm_constants,
    quadratic_model,
)
from pnewton.solvers import fstar_oracle, in_level_set


def test_glm_squared_scalar_value():
    # one sample, one feature, squared loss: f(2) = 2^2/2 + (1/2)*4 = 4
    p = glm_build(np.array([[1.0]]), "squared", 1.0)
    assert p.value(np.array([2.0])) == pytest.approx(4.0)
    assert np.allclose(p.hessian(np.array([2.0])), [[2.0]])
    assert np.allclose(p.hessian(np.array([-7.0])), [[2.0]])


def test_glm_logistic_value_at_origin():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 9))
    labels = np.where(rng.standard_normal(9) > 0, 1.0, -1.0)
    p = glm_build(A, "logistic", 0.5, labels)
    assert p.value(np.zeros(4)) == pytest.approx(np.log(2.0))


def test_glm_build_validation():
    with pytest.raises(BadShape):
        glm_build(np.ones((2, 3)), "logistic", 1.0, labels=np.ones(2))
    with pytest.raises(BadShape):
        glm_build(np.ones(3), "logistic", 1.0)
    for empty in (np.ones((0, 3)), np.ones((3, 0))):
        with pytest.raises(BadShape, match="need n >= 1 and m >= 1"):
            glm_build(empty, "logistic", 1.0)
    with pytest.raises(BadLabel):
        glm_build(np.ones((2, 2)), "logistic", 1.0, labels=np.array([1.0, 0.5]))
    # alpha is read by the one positive-number rule: finite, > 0, and a number (a bool or a string is not one)
    for alpha in (0.0, 0, -1, np.inf, np.nan, True, "1"):
        with pytest.raises(ValueError, match=r"^regularization alpha must be finite and > 0, got "):
            glm_build(np.ones((2, 2)), "squared", alpha)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="data matrix has non-finite entries"):
            glm_build(np.array([[bad, 1.0]]), "squared", 1.0)
        with pytest.raises(ValueError, match="labels have non-finite entries"):
            glm_build(np.ones((1, 2)), "squared", 1.0, labels=np.array([1.0, bad]))


def _handover(kind):
    """``(the A given to GlmProblem, the caller's own array or list behind it)``."""
    data = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    if kind == "read-only view":
        view = data.view()
        view.setflags(write=False)
        return view, data
    if kind == "list":
        rows = data.tolist()
        return rows, rows
    A = {"frozen": data, "writeable": data, "float32": data.astype(np.float32),
         "fortran": np.asfortranarray(data)}[kind]
    A.setflags(write=kind == "writeable")
    return A, A


@pytest.mark.parametrize("kind", ["frozen", "writeable", "read-only view", "float32", "fortran", "list"])
def test_glm_keeps_a_frozen_owning_matrix_and_copies_anything_else(kind):
    A, original = _handover(kind)
    p = glm_build(A, "squared", 1.0)
    assert not p.A.flags.writeable and p.A.dtype == np.float64
    if kind == "frozen":
        assert np.shares_memory(p.A, A)
        return
    if isinstance(original, list):
        original[0][0] = -1.0
    else:
        assert original.flags.owndata  # so the caller may make it writeable again
        original.setflags(write=True)
        original[0, 0] = -1.0
        assert not np.shares_memory(p.A, original)
    assert p.A[0, 0] == 0.0


def test_glm_build_of_a_frozen_matrix_copies_none_of_it():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((50, 4000))
    A.setflags(write=False)
    labels = np.where(rng.standard_normal(4000) >= 0.0, 1.0, -1.0)
    tracemalloc.start()
    try:
        glm_build(A, "logistic", 0.1, labels).model()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * A.nbytes


def test_glm_constants_against_svd_oracle():
    # sigma_max^2 computed by brute-force SVD of a fixed matrix
    A = np.diag([2.0, 1.0])
    sigma_sq = np.linalg.svd(A, compute_uv=False)[0] ** 2
    assert sigma_sq == pytest.approx(4.0)
    p = glm_build(A, "logistic", 1.0)
    rc = glm_constants(p)
    # (0.25*4 + 2) / (0*4 + 2) and its reciprocal
    assert rc.L == pytest.approx(1.5)
    assert rc.mu == pytest.approx(2.0 / 3.0)


def test_glm_constants_squared_link_trivial():
    rng = np.random.default_rng(1)
    p = glm_build(rng.standard_normal((3, 7)), "squared", 0.2)
    rc = glm_constants(p)
    assert rc.L == pytest.approx(1.0)
    assert rc.mu == pytest.approx(1.0)


def test_glm_constants_large_alpha_limit():
    p = glm_build(np.array([[1.0]]), "logistic", 1e6, labels=np.array([1.0]))
    rc = glm_constants(p)
    assert abs(rc.L - 1.0) <= 1e-6
    assert abs(rc.mu - 1.0) <= 1e-6


def test_a_glm_model_holds_the_glm_constants_as_they_are_returned(monkeypatch):
    import pnewton.objective as objective_mod

    p = glm_build(np.diag([2.0, 1.0]), "logistic", 1.0)
    returned = []

    def recording(q):
        returned.append(glm_constants(q))
        return returned[-1]

    monkeypatch.setattr(objective_mod, "glm_constants", recording)
    model = p.model()
    assert RelativeConstants._fields == ("L", "mu")
    assert model.constants is returned[0] and type(model.constants) is RelativeConstants
    L, mu = model.constants
    assert (L, mu) == (model.constants.L, model.constants.mu) == (1.5, 2.0 / 3.0)


def test_every_model_holds_its_constants_as_relative_constants():
    # the builtin quadratic's pair and a plain pair given to ObjectiveModel are read by name, as a GLM's are
    q = quadratic_model(np.eye(2)).constants
    assert type(q) is RelativeConstants and (q.L, q.mu) == (1.0, 1.0)
    model = ObjectiveModel(dim=1, value=abs, gradient=np.sign, hessian=np.zeros_like, constants=(2.0, 0.5))
    assert type(model.constants) is RelativeConstants and model.constants._asdict() == {"L": 2.0, "mu": 0.5}
    for constants in ((0.5, 2.0), (np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, True)):
        with pytest.raises(ValueError, match=r"^need 0 < mu <= L, got L="):
            ObjectiveModel(dim=1, value=abs, gradient=np.sign, hessian=np.zeros_like, constants=constants)


def test_glm_constants_reciprocity_sweep():
    for seed in range(20):
        p, _ = rand_glm(seed, n=5, m=30)
        rc = glm_constants(p)
        assert abs(rc.L * rc.mu - 1.0) <= 1e-10
        assert 0.0 < rc.mu <= 1.0 <= rc.L


def test_fd_gradient_on_quadratic():
    model = quadratic_model(np.eye(2))
    g = fd_gradient(model, np.array([1.0, 2.0]))
    assert np.allclose(g, [1.0, 2.0], atol=1e-8)


def test_fd_gradient_constant_function():
    model = ObjectiveModel(
        dim=3, value=lambda x: 4.2, gradient=lambda x: np.zeros(3), hessian=lambda x: np.zeros((3, 3))
    )
    assert np.allclose(fd_gradient(model, np.ones(3)), 0.0)


def test_fd_hessian_on_quadratics():
    assert np.allclose(fd_hessian(quadratic_model(np.eye(2)), np.array([0.3, -0.7])), np.eye(2), atol=1e-6)
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4))
    Q = B @ B.T + np.eye(4)
    model = quadratic_model(Q)
    assert np.allclose(fd_hessian(model, rng.standard_normal(4)), Q, atol=1e-6)


def test_quadratic_model_refuses_an_indefinite_q():
    # f = x^T Q x / 2 has no minimum, so its f* = 0 and (L, mu) = (1, 1) would be false
    with pytest.raises(NotPSD, match="eigenvalue -5.000e-01"):
        quadratic_model(np.diag([1.0, -0.5]))
    singular = quadratic_model(np.diag([1.0, 0.0]))  # PSD: its minimum 0 is reached on the null space
    assert singular.f_star == 0.0 and singular.value(np.array([0.0, 3.0])) == 0.0


def test_glm_derivatives_match_finite_differences():
    # the finite-difference routes are the oracle for the analytic GLM code
    checked = 0
    for seed in range(10):
        p, model = rand_glm(seed, n=6, m=25, link="logistic" if seed % 2 == 0 else "squared")
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            x = rng.standard_normal(6)
            g = model.gradient(x)
            g_fd = fd_gradient(model, x)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))
            H = model.hessian(x)
            H_fd = fd_hessian(model, x)
            rel = np.linalg.norm(H - H_fd, "fro") / np.linalg.norm(H, "fro")
            assert rel <= 1e-4
            checked += 1
    assert checked >= 50


def test_glm_hessian_is_pd():
    p, model = rand_glm(4, n=5, m=20, alpha=0.7)
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = np.linalg.eigvalsh(model.hessian(rng.standard_normal(5)))
        assert w[0] >= 0.7 * (1 - 1e-10)


def test_relative_bounds_tight_on_quadratic():
    rng = np.random.default_rng(6)
    B = rng.standard_normal((3, 3))
    model = quadratic_model(B @ B.T + np.eye(3))
    for _ in range(5):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        chk = check_relative_bounds(model, x, y, L=1.0, mu=1.0)
        assert chk.ok_upper and chk.ok_lower
        assert abs(chk.slack_upper) <= 1e-9
        assert abs(chk.slack_lower) <= 1e-9


def _level_set_pairs(problem, model, n_pairs, seed):
    """Sample pairs inside the composite level set anchored at a distant start."""
    rc = glm_constants(problem)
    n = problem.n
    x0 = 1.5 * np.ones(n)
    x_star = fstar_oracle(model).final.x
    rng = np.random.default_rng(seed)
    G = np.eye(n)
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs and attempts < 50 * n_pairs:
        attempts += 1
        x = x_star + 0.3 * rng.standard_normal(n)
        y = x_star + 0.3 * rng.standard_normal(n)
        if in_level_set(model, x, y, x0, x0, G, rho=1.0, step_L=rc.L):
            pairs.append((x, y))
    assert len(pairs) == n_pairs, f"only sampled {len(pairs)} level-set pairs"
    return pairs, rc


def test_relative_bounds_hold_on_logistic_glm():
    problem, model = rand_glm(12, n=6, m=40)
    pairs, rc = _level_set_pairs(problem, model, 200, seed=99)
    for x, y in pairs:
        chk = check_relative_bounds(model, x, y, rc.L, rc.mu)
        assert chk.ok_upper and chk.ok_lower


def test_relative_bounds_falsified_by_halved_L():
    # halving L on a non-quadratic instance must be caught by the sampling check
    problem, model = rand_glm(12, n=6, m=40)
    pairs, rc = _level_set_pairs(problem, model, 200, seed=99)
    violations = sum(
        not check_relative_bounds(model, x, y, rc.L / 2.0, rc.mu).ok_upper
        for x, y in pairs
    )
    assert violations > 0


# ---------------------------------------------------------------------------
# The per-thread memo of the GLM loss terms
# ---------------------------------------------------------------------------

MEMO_CASES = [(link, labelled) for link in ("logistic", "squared") for labelled in (True, False)]


def _memo_problem(link, labelled):
    problem, _ = rand_glm(21, n=5, m=30, link=link)
    return problem if labelled else glm_build(problem.A, link, problem.alpha)


def _fresh(problem, kind, x):
    """``kind`` at ``x`` from a new problem on the same data: nothing memoized."""
    return getattr(glm_build(problem.A, problem.link, problem.alpha, problem.labels), kind)(x)


def _bitwise_equal(a, b):
    return a == b if isinstance(a, float) else np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(MEMO_CASES),
    calls=st.lists(
        st.tuples(st.sampled_from(["value", "gradient", "hessian"]), st.integers(0, 2)),
        min_size=1, max_size=12,
    ),
)
def test_memo_changes_no_bits(case, calls):
    problem = _memo_problem(*case)
    points = np.random.default_rng(5).standard_normal((3, problem.n))
    for kind, i in calls:
        got = getattr(problem, kind)(points[i])
        assert _bitwise_equal(got, _fresh(problem, kind, points[i]))


@pytest.mark.parametrize("link,labelled", MEMO_CASES)
def test_memo_misses_after_in_place_mutation(link, labelled):
    problem = _memo_problem(link, labelled)
    x = np.full(problem.n, 0.3)
    problem.value(x)
    x[1] = -2.0
    assert np.array_equal(problem.gradient(x), _fresh(problem, "gradient", x))
    x *= 0.5
    assert np.array_equal(problem.hessian(x), _fresh(problem, "hessian", x))


def test_memo_is_per_thread(monkeypatch):
    problem = _memo_problem("logistic", True)
    rng = np.random.default_rng(9)
    # each thread owns two points and evaluates f, g and H at each in turn,
    # strictly alternating with the other thread through the barrier
    own = [rng.standard_normal((2, problem.n)) for _ in range(2)]
    schedule = [(p, kind) for p in range(2) for kind in ("value", "gradient", "hessian")]
    expected = [[_fresh(problem, kind, own[t][p]) for p, kind in schedule] for t in range(2)]
    calls = {}  # loss-term passes per thread
    real = GlmProblem._loss_terms

    def counting(self, t):
        tid = threading.get_ident()
        calls[tid] = calls.get(tid, 0) + 1
        return real(self, t)

    monkeypatch.setattr(GlmProblem, "_loss_terms", counting)
    barrier = threading.Barrier(2)
    results = [[], []]
    tids = [None, None]

    def worker(t):
        tids[t] = threading.get_ident()
        for turn in range(2 * len(schedule)):
            barrier.wait(timeout=10)
            if turn % 2 == t:
                p, kind = schedule[turn // 2]
                results[t].append(getattr(problem, kind)(own[t][p]))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert not any(th.is_alive() for th in threads)
    for t in range(2):
        assert len(results[t]) == len(schedule)
        assert all(_bitwise_equal(a, b) for a, b in zip(results[t], expected[t]))
        assert calls[tids[t]] == 2  # one pass per distinct point of its own


def test_memo_under_thread_contention():
    problem = _memo_problem("logistic", True)
    rng = np.random.default_rng(10)
    points = rng.standard_normal((6, problem.n))
    kinds = ("value", "gradient", "hessian")
    expected = {(i, kind): _fresh(problem, kind, points[i]) for i in range(6) for kind in kinds}

    def worker(seed):
        order = np.random.default_rng(seed)
        for _ in range(200):
            i, kind = int(order.integers(6)), kinds[int(order.integers(3))]
            if not _bitwise_equal(getattr(problem, kind)(points[i]), expected[(i, kind)]):
                return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(worker, seed) for seed in range(6)]
            outcomes = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(outcomes)
