"""Acceptance gate: one test per headline criterion, each printing a
single pass/fail line.  The sequence-benchmark margins are calibrated by the
pilot run frozen in fixtures/benchmark_pilot.json."""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from recycg import (Preconditioner, RecycleStrategy, SolveConfig,
                    SparseSpdMatrix, apcg_solve,
                    build_deflation,
                    generate_diffusion_sequence,
                    lanczos_from_trace, predict_iterations, run_sequence,
                    select_converged, subspace_overlap, tridiag_eig,
                    update_basis_srks)
from recycg.cli import cli_run
from recycg.problems import benchmark_spec
from recycg.recycle import AugmentationState, select_spectrum
from conftest import (dense_sym_eig, generate_prescribed_spectrum, preconditioned_residuals,
                      residual_history)

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "benchmark_pilot.json").read_text())

REPO_ROOT = Path(__file__).parent.parent


def report(capsys, number, name, passed):
    with capsys.disabled():
        print(f"acceptance {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def plain_solve(A, b, C=None, **cfg_kwargs):
    C = np.zeros((A.n, 0)) if C is None else C
    D = build_deflation(A, C)
    cfg = SolveConfig(**cfg_kwargs)
    return apcg_solve(A, Preconditioner.identity(), D, b, cfg)


def test_criterion_1_orthogonality(capsys):
    """50 random SPD systems: residual/direction cross-orthogonality 1e-8."""
    rng = np.random.Generator(np.random.Philox(42))
    start = time.time()
    worst_rz = worst_waw = 0.0
    converged_runs = 0
    for trial in range(50):
        n = int(rng.integers(20, 301))
        # conditioning chosen so every run converges within the 60-step cap;
        # tighter tolerances push the final residuals to the roundoff floor
        # where *normalized* cross products necessarily degrade
        lam = np.geomspace(1.0, rng.uniform(10.0, 50.0), n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        G = (Q * lam) @ Q.T
        A = SparseSpdMatrix.from_dense(0.5 * (G + G.T))
        b = rng.standard_normal(n)
        _, trace = plain_solve(A, b, tol=1e-6, max_iters=60,
                               store="swept")
        m = trace.iterations
        if not trace.converged or m < 2:
            continue
        converged_runs += 1
        R = residual_history(A, b, np.zeros(n), trace)
        Z = preconditioned_residuals(A, b, Preconditioner.identity(),
                                     build_deflation(A, np.zeros((n, 0))), trace)
        cross = np.abs(R.T @ Z) / np.outer(np.linalg.norm(R, axis=0),
                                           np.linalg.norm(Z, axis=0))
        np.fill_diagonal(cross, 0.0)
        worst_rz = max(worst_rz, cross.max())

        W = trace.directions.T
        AW = np.column_stack([A @ w for w in trace.directions])
        gram = W.T @ AW
        a_norms = np.sqrt(np.diag(gram))
        waw = np.abs(gram) / np.outer(a_norms, a_norms)
        np.fill_diagonal(waw, 0.0)
        worst_waw = max(worst_waw, waw.max())
    elapsed = time.time() - start
    report(capsys, 1, "orthogonality suite",
           converged_runs >= 45 and worst_rz <= 1e-8 and worst_waw <= 1e-8
           and elapsed < 30.0)


def test_criterion_2_deflation_exactness(capsys):
    """Deflating the k lowest exact eigenvectors reduces the iteration count
    to that of plain CG on the remaining spectrum (within one iteration)."""
    n = 100
    lam = np.geomspace(0.01, 100.0, n)
    A = generate_prescribed_spectrum(lam, seed=21)
    eig = dense_sym_eig(A.to_dense())  # descending
    vectors = eig.vectors[:, ::-1]     # ascending to match lam
    rng = np.random.Generator(np.random.Philox(7))
    b = rng.standard_normal(n)
    ok = True
    for k in (1, 3, 5):
        C = vectors[:, :k]
        _, trace = plain_solve(A, b, C=C, tol=1e-8, max_iters=400)
        # oracle: same tolerance on the explicitly deflated spectrum
        A_red = SparseSpdMatrix.from_dense(np.diag(lam[k:]))
        b_red = vectors[:, k:].T @ b
        _, oracle = plain_solve(A_red, b_red, tol=1e-8, max_iters=400)
        ok &= trace.converged and oracle.converged
        ok &= abs(trace.iterations - oracle.iterations) <= 1
    report(capsys, 2, "deflation exactness", ok)


def test_criterion_3_projected_equivalence(capsys):
    """Residual histories match the projected / split-preconditioned
    formulations within 1e-8 relative on small dense instances."""
    rng = np.random.Generator(np.random.Philox(99))
    ok = True
    for n, n_c, steps in ((20, 3, 10), (40, 5, 12)):
        lam = np.geomspace(1.0, 200.0, n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        G = (Q * lam) @ Q.T
        A = SparseSpdMatrix.from_dense(0.5 * (G + G.T))
        C = rng.standard_normal((n, n_c))
        b = rng.standard_normal(n)
        D = build_deflation(A, C)

        # projected-operator formulation
        _, trace = plain_solve(A, b, C=C, tol=1e-15, max_iters=steps,
                               store="none")
        P = np.column_stack([D.project(col) for col in np.eye(n)])
        B = P.T @ A.to_dense() @ P
        B = 0.5 * (B + B.T)
        x = np.zeros(n)
        r = P.T @ b
        norms = [np.linalg.norm(r)]
        p = r.copy()
        rr = r @ r
        for _ in range(steps):
            Bp = B @ p
            alpha = rr / (p @ Bp)
            x += alpha * p
            r -= alpha * Bp
            norms.append(np.linalg.norm(r))
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next
        ok &= np.allclose(trace.residual_norms, norms, rtol=1e-8)

        # split-preconditioned formulation
        diag = rng.uniform(0.5, 4.0, n)
        M = Preconditioner.user_diagonal(diag)
        L = np.sqrt(diag)
        A_hat = SparseSpdMatrix.from_dense(A.to_dense() / np.outer(L, L))
        D1 = build_deflation(A, C)
        cfg = SolveConfig(tol=1e-15, max_iters=steps, store="none")
        _, t1 = apcg_solve(A, M, D1, b, cfg)
        D2 = build_deflation(A_hat, C * L[:, None])
        _, t2 = apcg_solve(A_hat, Preconditioner.identity(), D2, b / L, cfg)
        ok &= np.allclose(t1.alphas, t2.alphas, rtol=1e-8)
        ok &= np.allclose(t1.betas, t2.betas, rtol=1e-8)
    report(capsys, 3, "projected/split equivalence", ok)


def test_criterion_4_ritz_fidelity(capsys):
    """Run to full termination on a 200-point spectrum: every stagnated Ritz
    value lies within 1e-7 relative of a true eigenvalue (unstagnated
    interior values are by definition still in flight and carry no accuracy
    claim); interlacing holds at every intermediate step."""
    n = 200
    lam = np.geomspace(1.0, 100.0, n)
    A = generate_prescribed_spectrum(lam, seed=13)
    rng = np.random.Generator(np.random.Philox(5))
    b = rng.standard_normal(n)
    _, trace = plain_solve(A, b, tol=1e-13, max_iters=n,
                           store="swept")
    view = lanczos_from_trace(trace)
    cur = tridiag_eig(view.tridiag)
    prev_values = tridiag_eig(view.tridiag.truncated(view.m - 1)).values
    mask = select_converged(cur.values, prev_values, epsilon=1e-8)
    theta = cur.values[mask]
    rel_err = np.abs(theta[:, None] - lam[None, :]).min(axis=1) / theta
    values_ok = (trace.converged and len(theta) >= 40
                 and rel_err.max() <= 1e-7)

    interlace_ok = True
    prev = None
    for m in range(1, view.m + 1):
        cur = tridiag_eig(view.tridiag.truncated(m)).values
        if prev is not None:
            slack = 1e-12 * cur[0]
            for j in range(m - 1):
                interlace_ok &= cur[j] >= prev[j] - slack
                interlace_ok &= prev[j] >= cur[j + 1] - slack
        prev = cur
    report(capsys, 4, "ritz fidelity", values_ok and interlace_ok)


def test_criterion_5_superconvergence_ordering(capsys):
    """Observed iterations on a spectrum with 3 isolated pairs sit below the
    classical prediction and within +3 of the isolated-pair prediction."""
    lam = np.concatenate([[1e-3, 3e-3, 1e-2], np.linspace(1.0, 2.0, 44),
                          [50.0, 200.0, 1000.0]])
    eps_cg = 1e-6
    pred = predict_iterations(lam, eps_cg, p=3)

    rng = np.random.Generator(np.random.Philox(17))
    A = SparseSpdMatrix.from_dense(np.diag(lam))
    x_true = rng.standard_normal(len(lam))
    b = lam * x_true
    D = build_deflation(A, np.zeros((A.n, 0)))
    cfg = SolveConfig(tol=1e-13, max_iters=300)
    _, trace = apcg_solve(A, Preconditioner.identity(), D, b, cfg)

    # iteration at which the A-norm error first drops below eps_cg
    x = np.zeros(len(lam))
    e0 = math.sqrt(x_true @ (lam * x_true))
    observed = None
    for i, (alpha, w) in enumerate(zip(trace.alphas, trace.directions), start=1):
        x = x + alpha * w
        err = x - x_true
        if math.sqrt(err @ (lam * err)) <= eps_cg * e0:
            observed = i
            break
    ok = (observed is not None
          and observed <= pred.n_eps_classical
          and observed <= pred.n_eps_isolated + 3)
    report(capsys, 5, "superconvergence ordering", ok)


def test_criterion_6_sequence_benchmark(capsys):
    """Desk-scale strategy ordering and basis-growth shapes on the 40-system
    diffusion benchmark, margins frozen from the committed pilot run."""
    margins = FIXTURE["margins"]
    start = time.time()
    systems = list(generate_diffusion_sequence(benchmark_spec(seed=0), 40))

    def run(strategy, tol):
        cfg = SolveConfig(tol=tol, max_iters=3000)
        return run_sequence(iter(systems), Preconditioner.jacobi, strategy,
                            cfg)

    ok = True
    # tol 1e-3: iteration ordering with margin, TRKS basis plateau
    rep = {name: run(strat, 1e-3) for name, strat in
           [("none", RecycleStrategy("none")),
            ("trks", RecycleStrategy("trks")),
            ("srks", RecycleStrategy("srks", epsilon=1e-14))]}
    avg = {name: np.mean(r.iterations()[1:]) for name, r in rep.items()}
    margin = 1.0 - margins["ordering_margin"]
    ok &= avg["trks"] <= margin * avg["srks"]
    ok &= avg["srks"] <= margin * avg["none"]
    ok &= all(all(rec.converged for rec in r.records) for r in rep.values())

    ncs = rep["trks"].n_c_history()
    early = np.diff(ncs[1:12]).mean()
    late = np.diff(ncs[-11:]).mean()
    ok &= late <= margins["trks_plateau_increment_ratio"] * early

    # tol 1e-6: TRKS growth unbounded, SRKS basis plateau
    trks6 = run(RecycleStrategy("trks"), 1e-6)
    srks6 = run(RecycleStrategy("srks", epsilon=1e-14), 1e-6)
    ncs_t = trks6.n_c_history()
    ok &= all(b > a for a, b in zip(ncs_t[-10:], ncs_t[-9:]))
    ncs_s = srks6.n_c_history()
    ok &= max(ncs_s[30:40]) <= margins["srks_plateau_factor"] * \
        max(ncs_s[10:20])

    elapsed = time.time() - start
    ok &= elapsed < margins["runtime_seconds_budget"]
    report(capsys, 6, "sequence benchmark", ok)


def test_criterion_7_selection_and_coarse_identity(capsys):
    """Stagnation selection is monotone in epsilon; constant-operator
    selective recycling yields an identity coarse matrix after scaling."""
    rng = np.random.Generator(np.random.Philox(31))
    ok = True
    for _ in range(5):
        n = 30
        lam = np.geomspace(1.0, 1e3, n)
        A = generate_prescribed_spectrum(lam, seed=int(rng.integers(1000)))
        _, trace = plain_solve(A, rng.standard_normal(n), tol=1e-12,
                               max_iters=200)
        tight = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-14))
        loose = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-6))
        ok &= bool(np.all(loose.converged_mask[tight.converged_mask]))

        spectrum = select_spectrum(trace, RecycleStrategy("srks",
                                                          epsilon=1e-10))
        if spectrum.converged_mask.any():
            state = AugmentationState(n)
            update_basis_srks(state, spectrum)
            coarse = state.basis.T @ (A @ state.basis)
            ok &= np.allclose(coarse, np.eye(state.n_c), atol=1e-8)
    report(capsys, 7, "selection monotonicity / coarse identity", ok)


def test_criterion_8_subspace_overlap(capsys):
    """Nested synthetic bases produce the sqrt(2)/1/0 singular-value
    pattern."""
    rng = np.random.Generator(np.random.Philox(8))
    e1 = np.eye(6)[:, :1]
    ok = np.allclose(subspace_overlap(e1, e1), [np.sqrt(2.0), 0.0],
                     atol=1e-8)
    ok &= np.allclose(subspace_overlap(e1, np.eye(6)[:, 1:2]), [1.0, 1.0],
                      atol=1e-8)
    U1 = rng.standard_normal((12, 4))
    U2 = U1 @ rng.standard_normal((4, 2))
    sv = np.sort(subspace_overlap(U1, U2))[::-1]
    ok &= np.allclose(sv, [np.sqrt(2.0)] * 2 + [1.0] * 2 + [0.0] * 2,
                      atol=1e-8)
    report(capsys, 8, "subspace overlap diagnostic", ok)


def test_criterion_9_csv_determinism(capsys, tmp_path):
    """Two runs of the default benchmark config produce byte-identical CSV
    output once the timing columns are removed."""
    config = REPO_ROOT / "configs" / "default.yaml"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    status1 = cli_run(config, out=out1)
    status2 = cli_run(config, out=out2)

    def strip_timing(text):
        rows = [line.split(",") for line in text.splitlines()]
        return "\n".join(",".join(r[:7] + r[9:]) for r in rows)

    csv1 = strip_timing((out1 / "runs.csv").read_text())
    csv2 = strip_timing((out2 / "runs.csv").read_text())
    report(capsys, 9, "csv determinism",
           status1 == 0 and status2 == 0 and csv1 == csv2)
