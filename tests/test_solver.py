"""Deflated CG solver tests: projector contracts, trace contracts,
equivalence with explicitly projected / split-preconditioned formulations."""
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from recycg import (ContractViolation, NumericalFailure, Preconditioner,
                    RankDeficient, SolveConfig, SolveTrace, SparseSpdMatrix,
                    apcg_solve, benchmark_spec, build_deflation, dense_sym_eig,
                    generate_diffusion_sequence, solver)
from conftest import (preconditioned_residuals, random_spd, random_spd_matrix,
                      residual_history)


def reference_cg(A, b, tol=1e-10, max_iters=500):
    """Textbook preconditioner-free CG; independent oracle implementation.

    Returns (x, residual_norms).  Works on dense arrays, including
    symmetric positive *semi*-definite operators with consistent b.
    """
    x = np.zeros_like(b)
    r = b.copy()
    norms = [np.linalg.norm(r)]
    if norms[0] == 0.0:
        return x, norms
    p = r.copy()
    rr = r @ r
    for _ in range(max_iters):
        Ap = A @ p
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        norms.append(np.linalg.norm(r))
        if norms[-1] <= tol * norms[0]:
            break
        rr_next = r @ r
        p = r + (rr_next / rr) * p
        rr = rr_next
    return x, norms


def allocating_apcg(A, M, D, b, cfg):
    """The APCG loop with every update allocating a new vector, x + alpha w,
    r - alpha A w and z + beta w, and the sweep's A-norms rebuilt as an array
    at each sweep; the in-place loop of ``apcg_solve`` must give its bits."""
    trace = SolveTrace()
    x = D.initial_guess(b)
    r = b - A @ x
    r0_norm = float(np.linalg.norm(r))
    trace.residual_norms.append(r0_norm)
    z = D.project(M.apply(r)).copy()
    rz = float(r @ z)
    w = z.copy()
    keep, swept = cfg.store != "none", cfg.store == "swept"
    W, wAws = np.empty((64 if keep else 0, A.n)), []
    for _ in range(cfg.max_iters):
        Aw = A @ w
        wAw = float(w @ Aw)
        alpha = rz / wAw
        trace.alphas.append(alpha)
        trace.rz_inner.append(rz)
        x = x + alpha * w
        r = r - alpha * Aw
        rnorm = float(np.linalg.norm(r))
        trace.residual_norms.append(rnorm)
        if keep:
            if len(wAws) == len(W):
                W = np.concatenate([W, np.empty_like(W)])
            W[len(wAws)] = w
            wAws.append(wAw)
        if rnorm <= cfg.tol * r0_norm:
            trace.converged = True
            break
        z = D.project(M.apply(r)).copy()
        rz_next = float(r @ z)
        beta = rz_next / rz
        trace.betas.append(beta)
        w = z + beta * w
        if swept:
            c = (W[:len(wAws)] @ (A @ w)) / np.array(wAws)
            w -= c @ W[:len(wAws)]
            trace.sweeps.append(c)
        rz = rz_next
    if keep:
        trace.directions = W[:len(wAws)]
    return x, trace


def solve(A, b, C=None, M=None, **cfg_kwargs):
    C = np.zeros((A.n, 0)) if C is None else C
    M = M or Preconditioner.identity()
    D = build_deflation(A, C)
    cfg = SolveConfig(**{"tol": 1e-10, "max_iters": 500, **cfg_kwargs})
    return apcg_solve(A, M, D, b, cfg)


# ---------------------------------------------------------------------------
# Preconditioner


def test_jacobi_preconditioner():
    A = SparseSpdMatrix.from_dense(np.diag([2.0, 4.0]))
    M = Preconditioner.jacobi(A)
    np.testing.assert_allclose(M.apply(np.array([2.0, 4.0])), [1.0, 1.0])
    np.testing.assert_allclose(M.inv_diag, [0.5, 0.25])


def test_identity_preconditioner_copies():
    M = Preconditioner.identity()
    r = np.array([1.0, 2.0])
    out = M.apply(r)
    np.testing.assert_array_equal(out, r)
    assert out is not r
    assert M.inv_diag is None


def test_user_diagonal_rejects_nonpositive():
    with pytest.raises(ContractViolation):
        Preconditioner.user_diagonal([1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_user_diagonal_rejects_nonfinite(bad):
    with pytest.raises(ContractViolation):
        Preconditioner.user_diagonal([1.0, bad])


# ---------------------------------------------------------------------------
# build_deflation / project


def test_deflation_single_eigenvector():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    e1 = np.eye(3)[:, :1]
    D = build_deflation(A, e1)
    np.testing.assert_allclose(D.coarse_factor @ D.coarse_factor.T, [[1.0]])
    np.testing.assert_allclose(D.project(e1[:, 0]), np.zeros(3), atol=1e-14)


def test_empty_deflation_is_identity():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 2.0]))
    D = build_deflation(A, np.zeros((2, 0)))
    x = np.array([3.0, 4.0])
    np.testing.assert_array_equal(D.project(x), x)
    np.testing.assert_array_equal(D.initial_guess(x), np.zeros(2))


def test_projected_operator_rank(rng):
    A = random_spd_matrix(6, rng)
    C = rng.standard_normal((6, 2))
    D = build_deflation(A, C)
    P = np.column_stack([D.project(col) for col in np.eye(6)])
    PtAP = P.T @ A.to_dense() @ P
    values = dense_sym_eig(0.5 * (PtAP + PtAP.T)).values
    assert np.sum(np.abs(values) > 1e-8 * values.max()) == 4


def test_projection_idempotent(rng):
    A = random_spd_matrix(8, rng)
    D = build_deflation(A, rng.standard_normal((8, 3)))
    x = rng.standard_normal(8)
    once = D.project(x)
    np.testing.assert_allclose(D.project(once), once,
                               atol=1e-10 * np.linalg.norm(x))


def test_projection_kills_coarse_residual(rng):
    A = random_spd_matrix(8, rng)
    C = rng.standard_normal((8, 3))
    D = build_deflation(A, C)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(C.T @ (A @ D.project(x)), np.zeros(3),
                               atol=1e-10 * np.linalg.norm(x))


def test_basis_in_range_projects_to_zero(rng):
    A = random_spd_matrix(8, rng)
    C = rng.standard_normal((8, 3))
    D = build_deflation(A, C)
    v = C @ rng.standard_normal(3)
    np.testing.assert_allclose(D.project(v), np.zeros(8),
                               atol=1e-10 * np.linalg.norm(v))


def test_build_deflation_rejects_bad_shapes(rng):
    A = random_spd_matrix(4, rng)
    with pytest.raises(ContractViolation):
        build_deflation(A, np.ones((3, 1)))
    with pytest.raises(ContractViolation):
        build_deflation(A, np.ones((4, 5)))


@pytest.mark.parametrize("n_c", [20, 37, 60, 220])
def test_coarse_solve_bit_identical_to_two_triangular_solves(rng, n_c):
    A = random_spd_matrix(240, rng)
    D = build_deflation(A, rng.standard_normal((240, n_c)))
    rhs = rng.standard_normal(n_c)
    L = D.coarse_factor
    y = scipy.linalg.solve_triangular(L, rhs, lower=True, check_finite=False)
    expected = scipy.linalg.solve_triangular(L.T, y, lower=False, check_finite=False)
    np.testing.assert_array_equal(D.coarse_solve(rhs), expected)


def test_coarse_solve_on_empty_basis():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 2.0]))
    out = build_deflation(A, np.zeros((2, 0))).coarse_solve(np.zeros(0))
    assert out.shape == (0,)


def test_deflation_keeps_no_block_beside_the_basis():
    """Building the operator and projecting once at n 4096, n_c 300 allocate
    less than one n x n_c block: the operator stores no A C, and the coarse
    matrix is formed from column chunks of A C and factored in place."""
    grid = 64
    lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
    eye = scipy.sparse.identity(grid)
    A = SparseSpdMatrix.from_scipy(scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap))
    rng = np.random.default_rng(0)
    C = np.asfortranarray(rng.standard_normal((A.n, 300)))
    x = rng.standard_normal(A.n)
    tracemalloc.start()
    try:
        D = build_deflation(A, C)
        D.project(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(D.basis, C)
    assert peak < C.nbytes


def diffusion_64():
    """The 5-point Laplacian on a 64 x 64 grid, n 4096."""
    lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64))
    eye = scipy.sparse.identity(64)
    return SparseSpdMatrix.from_scipy(scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap))


@pytest.fixture
def coarse_pool(monkeypatch):
    """``use(workers, in_flight)`` has each coarse build start ``workers``
    threads and let ``in_flight`` chunk products run at once (default: as
    many as there are workers).  ``COARSE_WORKERS`` sets both in the solver;
    a different thread count swaps in an executor of that many threads."""

    def use(workers, in_flight=None):
        monkeypatch.setattr(solver, "COARSE_WORKERS", in_flight or workers)
        if in_flight is not None:
            monkeypatch.setattr(solver, "ThreadPoolExecutor",
                                lambda _, **kwargs: ThreadPoolExecutor(workers, **kwargs))

    return use


def test_coarse_factor_bit_identical_for_one_and_two_workers(coarse_pool):
    A = diffusion_64()
    C = np.asfortranarray(np.random.default_rng(1).standard_normal((A.n, 300)))
    factors = {}
    for workers in (1, 2):
        coarse_pool(workers)
        factors[workers] = [build_deflation(A, C[:, :n_c]).coarse_factor
                            for n_c in (0, 1, 63, 64, 65, 200, 300)]
    for one, two in zip(factors[1], factors[2]):
        np.testing.assert_array_equal(one, two)


def test_dependent_column_reported_alike_by_one_and_two_workers(coarse_pool):
    A = diffusion_64()
    C = np.asfortranarray(np.random.default_rng(2).standard_normal((A.n, 200)))
    C[:, 150] = C[:, 3] - 2.0 * C[:, 90]
    columns = []
    for workers in (1, 2):
        coarse_pool(workers)
        with pytest.raises(RankDeficient) as exc_info:
            build_deflation(A, C)
        columns.append(exc_info.value.column)
    assert columns[0] == columns[1] == 150


def test_coarse_build_forms_every_block_product_on_the_calling_thread(
        coarse_pool, monkeypatch):
    """A tracer wrapping ``A @`` keeps one span stack, so the chunks of A C
    are formed by the caller while the pool multiplies them by C."""
    coarse_pool(2)
    A = diffusion_64()
    C = np.asfortranarray(np.random.default_rng(3).standard_normal((A.n, 300)))
    matmul, calls = SparseSpdMatrix.__matmul__, []

    def spy(self, other):
        calls.append((threading.get_ident(), np.ndim(other)))
        return matmul(self, other)

    monkeypatch.setattr(SparseSpdMatrix, "__matmul__", spy)
    build_deflation(A, C)
    assert calls == [(threading.get_ident(), 2)] * 5


def test_deflation_keeps_no_block_beside_the_basis_with_four_workers(coarse_pool):
    """A pool of four threads forms no more chunks at once than
    ``COARSE_WORKERS``: the in-flight window, not the thread count, bounds
    the build's temporaries below one n x n_c block."""
    coarse_pool(4, in_flight=solver.COARSE_WORKERS)
    A = diffusion_64()
    rng = np.random.default_rng(0)
    C = np.asfortranarray(rng.standard_normal((A.n, 300)))
    x = rng.standard_normal(A.n)
    tracemalloc.start()
    try:
        D = build_deflation(A, C)
        D.project(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(D.basis, C)
    assert peak < C.nbytes


def test_coarse_build_leaves_no_thread_running():
    """The build joins the workers it starts before it returns."""
    A = diffusion_64()
    C = np.asfortranarray(np.random.default_rng(4).standard_normal((A.n, 200)))
    before = threading.active_count()
    build_deflation(A, C)
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("recycg-coarse")]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fork start method is unavailable")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_builds_after_a_parent_build():
    """A child forked after a build in its parent completes its own build:
    it starts its own workers instead of waiting on threads it lacks."""
    A = diffusion_64()
    C = np.asfortranarray(np.random.default_rng(5).standard_normal((A.n, 100)))
    build_deflation(A, C)
    child = multiprocessing.get_context("fork").Process(target=build_deflation, args=(A, C))
    child.start()
    child.join(30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_import_without_sched_getaffinity():
    """Where the OS has no ``sched_getaffinity`` (macOS, Windows), the
    worker count comes from ``os.cpu_count`` and the import succeeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import os; os.__dict__.pop('sched_getaffinity', None); import recycg; "
            "print(recycg.solver.COARSE_WORKERS)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == min(2, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# apcg_solve basics


def test_identity_system_one_iteration(rng):
    A = SparseSpdMatrix.from_dense(np.eye(5))
    b = rng.standard_normal(5)
    x, trace = solve(A, b)
    assert trace.converged
    assert trace.iterations == 1
    np.testing.assert_allclose(x, b, rtol=1e-12)


def test_full_augmentation_zero_iterations(rng):
    n = 6
    A = SparseSpdMatrix.from_dense(np.diag(np.arange(1.0, n + 1.0)))
    b = rng.standard_normal(n)
    x, trace = solve(A, b, C=np.eye(n))
    assert trace.converged
    assert trace.iterations == 0
    np.testing.assert_allclose(x, b / np.arange(1.0, n + 1.0), rtol=1e-10)


def test_deflated_iteration_count_matches_reduced_system():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 10.0, 100.0]))
    b = np.ones(3)
    _, trace = solve(A, b, C=np.eye(3)[:, :1], tol=1e-10)
    _, norms = reference_cg(np.diag([10.0, 100.0]), np.ones(2), tol=1e-10)
    assert trace.converged
    assert trace.iterations == len(norms) - 1 == 2


def test_trace_contracts(rng):
    A = random_spd_matrix(30, rng)
    b = rng.standard_normal(30)
    x, trace = solve(A, b, C=rng.standard_normal((30, 4)))
    assert trace.converged
    m = trace.iterations
    assert len(trace.alphas) == m
    assert len(trace.betas) == m - 1
    assert len(trace.residual_norms) == m + 1
    assert all(a > 0 for a in trace.alphas)
    assert all(rz > 0 for rz in trace.rz_inner)
    np.testing.assert_allclose(A @ x, b, atol=1e-9 * np.linalg.norm(b))


def test_coarse_orthogonality_of_residuals(rng):
    A = random_spd_matrix(25, rng)
    C = rng.standard_normal((25, 5))
    b = rng.standard_normal(25)
    _, trace = solve(A, b, C=C)
    R = residual_history(A, b, build_deflation(A, C).initial_guess(b), trace)
    bound = 1e-10 * np.linalg.norm(b)
    for r in R.T:
        assert np.abs(C.T @ r).max() <= bound


def test_max_iters_reports_nonconvergence(rng):
    A = random_spd_matrix(40, rng, condition=1e4)
    b = rng.standard_normal(40)
    _, trace = solve(A, b, tol=1e-12, max_iters=3)
    assert not trace.converged
    assert trace.iterations == 3


def test_deflation_operator_of_another_matrix_rejected(rng):
    """A projector built on another matrix, even one of the same size, would
    make the loop and the projection use different operators."""
    A = random_spd_matrix(30, rng)
    other = SparseSpdMatrix.from_dense(A.to_dense() + 30.0 * np.eye(30), keep_zeros=True)
    D = build_deflation(other, rng.standard_normal((30, 4)))
    with pytest.raises(ContractViolation, match="another matrix"):
        apcg_solve(A, Preconditioner.identity(), D, rng.standard_normal(30),
                   SolveConfig(max_iters=200))


@pytest.mark.parametrize("n_c", [0, 2])
def test_nonfinite_rhs_rejected(rng, n_c):
    A = random_spd_matrix(10, rng)
    b = rng.standard_normal(10)
    b[4] = np.nan
    with pytest.raises(ContractViolation, match="finite"):
        solve(A, b, C=rng.standard_normal((10, n_c)))


def test_nonfinite_residual_raises():
    # A w overflows on the first step, so the residual turns to NaN
    A = SparseSpdMatrix.from_dense(np.diag([1e300, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailure, match="not finite"):
        solve(A, np.array([1e10, 1.0]))


def test_orthogonality_across_reorthogonalization_block_growth():
    # 157 iterations: the stored-direction block grows from 64 to 128 to 256
    rng = np.random.Generator(np.random.Philox(5))
    n = 300
    G = random_spd(n, rng, condition=1e4)
    A = SparseSpdMatrix.from_dense(G, keep_zeros=True)
    b = rng.standard_normal(n)
    _, trace = solve(A, b, tol=1e-3, max_iters=n, store="swept")
    m = trace.iterations
    assert trace.converged and m > 128

    R = residual_history(A, b, np.zeros(n), trace)
    Z = preconditioned_residuals(A, b, Preconditioner.identity(),
                                 build_deflation(A, np.zeros((n, 0))), trace)
    rz = np.abs(R.T @ Z) / np.outer(np.linalg.norm(R, axis=0),
                                    np.linalg.norm(Z, axis=0))
    np.fill_diagonal(rz, 0.0)
    assert rz.max() <= 1e-8

    W = trace.directions.T
    gram = W.T @ (G @ W)
    a_norms = np.sqrt(np.diag(gram))
    waw = np.abs(gram) / np.outer(a_norms, a_norms)
    np.fill_diagonal(waw, 0.0)
    assert waw.max() <= 1e-8


@pytest.mark.parametrize("store", ["none", "directions", "swept"])
@pytest.mark.parametrize("n_c", [0, 6])
@pytest.mark.parametrize("precond", ["identity", "jacobi"])
def test_in_place_loop_bit_identical_to_allocating_loop(store, n_c, precond):
    # every case takes more than 64 iterations, so the direction block grows
    (A, b), = generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 1)
    M = Preconditioner.identity() if precond == "identity" else Preconditioner.jacobi(A)
    C = np.random.Generator(np.random.Philox(9)).standard_normal((A.n, n_c))
    D = build_deflation(A, C)
    cfg = SolveConfig(tol=1e-6, max_iters=400, store=store)
    x_ref, ref = allocating_apcg(A, M, D, b, cfg)
    x, trace = apcg_solve(A, M, D, b, cfg)
    assert trace.converged and 64 < trace.iterations < cfg.max_iters
    assert np.array_equal(x, x_ref)
    for name in ("alphas", "betas", "rz_inner", "residual_norms"):
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
    assert len(trace.sweeps) == len(ref.sweeps) == (trace.iterations - 1) * (store == "swept")
    assert all(np.array_equal(c, c_ref) for c, c_ref in zip(trace.sweeps, ref.sweeps))
    if store != "none":
        assert np.array_equal(trace.directions, ref.directions)


def test_solve_config_validation():
    with pytest.raises(ContractViolation):
        SolveConfig(tol=0.0)
    with pytest.raises(ContractViolation):
        SolveConfig(tol=2.0)
    with pytest.raises(ContractViolation):
        SolveConfig(max_iters=0)
    with pytest.raises(ContractViolation, match="unknown direction store"):
        SolveConfig(store="sweep")


def test_trace_json_round_trip(rng):
    A = random_spd_matrix(10, rng)
    _, trace = solve(A, rng.standard_normal(10))
    d = trace.to_json_dict()
    back = SolveTrace.from_json_dict(d)
    assert back.iterations == trace.iterations
    assert back.converged == trace.converged
    np.testing.assert_allclose(back.alphas, trace.alphas)
    np.testing.assert_allclose(back.betas, trace.betas)
    # the Krylov data stays out of the artifact; an old artifact's is ignored
    assert trace.directions is not None and trace.sweeps
    assert "directions" not in d and "sweeps" not in d and "z_history" not in d
    assert back.directions is None and back.sweeps == []
    old = SolveTrace.from_json_dict({**d, "z_history": [[1.0] * 10]})
    assert old.directions is None and old.sweeps == [] and old.alphas == back.alphas


def test_trace_iterations_is_the_number_of_alphas(rng):
    A = random_spd_matrix(10, rng)
    _, trace = solve(A, rng.standard_normal(10))
    assert trace.iterations == len(trace.alphas) > 0
    d = trace.to_json_dict()
    assert d["iterations"] == trace.iterations
    with pytest.raises(ContractViolation, match="is not the number of alphas"):
        SolveTrace.from_json_dict({**d, "iterations": trace.iterations - 1})
    assert SolveTrace.from_json_dict({"alphas": [1.0, 2.0]}).iterations == 2


# ---------------------------------------------------------------------------
# equivalence properties


def test_matches_cg_on_projected_operator(rng):
    """Residual history of the deflated solve equals plain CG applied to the
    explicitly projected operator with the projected right-hand side."""
    for n, n_c, steps in ((12, 2, 8), (25, 4, 10), (40, 6, 10)):
        A = random_spd_matrix(n, rng)
        C = rng.standard_normal((n, n_c))
        b = rng.standard_normal(n)
        D = build_deflation(A, C)
        # fixed iteration window: comparing converged runs would make the
        # last term depend on which side crosses the threshold first
        _, trace = solve(A, b, C=C, tol=1e-15, max_iters=steps,
                         store="none")

        P = np.column_stack([D.project(col) for col in np.eye(n)])
        B = P.T @ A.to_dense() @ P
        c = P.T @ b
        _, norms = reference_cg(0.5 * (B + B.T), c, tol=1e-15, max_iters=steps)
        assert len(norms) == len(trace.residual_norms) == steps + 1
        np.testing.assert_allclose(trace.residual_norms, norms, rtol=1e-8)


def test_split_preconditioner_equivalence(rng):
    """With M = L L^T diagonal, the alpha/beta sequences equal those of the
    identity-preconditioned solve of the symmetrically scaled system."""
    n, n_c = 20, 3
    A = random_spd_matrix(n, rng)
    C = rng.standard_normal((n, n_c))
    b = rng.standard_normal(n)
    diag = rng.uniform(0.5, 4.0, n)
    M = Preconditioner.user_diagonal(diag)

    L = np.sqrt(diag)
    A_hat = SparseSpdMatrix.from_dense(A.to_dense() / np.outer(L, L),
                                       keep_zeros=True)
    steps = 12  # fixed window; late iterations of a full run are noise-driven
    _, t1 = solve(A, b, C=C, M=M, tol=1e-15, max_iters=steps,
                  store="none")
    _, t2 = solve(A_hat, b / L, C=C * L[:, None], tol=1e-15, max_iters=steps,
                  store="none")
    assert t1.iterations == t2.iterations == steps
    np.testing.assert_allclose(t1.alphas, t2.alphas, rtol=1e-9)
    np.testing.assert_allclose(t1.betas, t2.betas, rtol=1e-9)


def test_finite_termination_on_few_distinct_values(rng):
    for k in (2, 3, 5):
        values = np.repeat(np.arange(1.0, k + 1.0), 4)
        A = SparseSpdMatrix.from_dense(np.diag(values))
        b = rng.uniform(0.5, 1.5, len(values))
        _, trace = solve(A, b, tol=1e-12)
        assert trace.converged
        assert trace.iterations <= k


def test_augmentation_never_hurts(rng):
    for _ in range(5):
        A = random_spd_matrix(30, rng, condition=1e3)
        b = rng.standard_normal(30)
        C = rng.standard_normal((30, 3))
        _, t_small = solve(A, b, C=C, tol=1e-8)
        C_big = np.column_stack([C, rng.standard_normal((30, 3))])
        _, t_big = solve(A, b, C=C_big, tol=1e-8)
        assert t_big.iterations <= t_small.iterations + 1
