"""Sequence-driver tests: basis accumulation, rank guarding, restart,
strategy behavior on constant and varying operator sequences."""
from time import perf_counter

import numpy as np
import pytest

from recycg import (AugmentationState, ContractViolation, Preconditioner,
                    RecycleStrategy, SolveConfig, SparseSpdMatrix, apcg_solve,
                    build_deflation, run_sequence, subspace_overlap,
                    update_basis_srks, update_basis_trks)
from recycg import recycle
from recycg.recycle import guarded_deflation, select_spectrum
from recycg.solver import SolveTrace
from conftest import random_spd_matrix


def constant_sequence(A, b, count):
    return ((A, b.copy()) for _ in range(count))


def solve_once(A, b, **cfg_kwargs):
    D = build_deflation(A, np.zeros((A.n, 0)))
    cfg = SolveConfig(**{"tol": 1e-12, "max_iters": 500, **cfg_kwargs})
    return apcg_solve(A, Preconditioner.identity(), D, b, cfg)


# ---------------------------------------------------------------------------
# strategy / state plumbing


def test_strategy_validation():
    with pytest.raises(ContractViolation):
        RecycleStrategy("bogus")
    with pytest.raises(ContractViolation):
        RecycleStrategy("srks", epsilon=0.0)
    with pytest.raises(ContractViolation):
        RecycleStrategy("trks", nc_limit=-1)


def test_augmentation_state_bookkeeping(rng):
    C0 = rng.standard_normal((6, 2))
    state = AugmentationState.from_initial(6, C0)
    assert state.n_c == 2
    state.append(rng.standard_normal((6, 3)), [("ritz", 0, 1.0)] * 3)
    assert state.n_c == 5
    state.drop_column(3)
    assert state.n_c == 4
    assert len(state.origin_tags) == 4
    state.restart()
    assert state.n_c == 2
    np.testing.assert_array_equal(state.basis, C0)


def test_guarded_deflation_drops_dependent_columns(rng):
    A = random_spd_matrix(8, rng)
    good = rng.standard_normal((8, 2))
    C = np.column_stack([good, good[:, 0] + 2.0 * good[:, 1]])
    state = AugmentationState.from_initial(8, C)
    events = []
    D = guarded_deflation(A, state, events)
    assert D.n_c == 2
    assert state.n_c == 2
    assert events and events[0][0] == "dropped_column"


def test_guarded_deflation_drops_dependent_column_of_large_basis(rng):
    A = random_spd_matrix(60, rng)
    C = rng.standard_normal((60, 40))
    C[:, 25] = C[:, 3] + 2.0 * C[:, 11]
    state = AugmentationState.from_initial(60)
    tags = [("direction", 0, j) for j in range(40)]
    state.append(C, tags)
    events = []
    D = guarded_deflation(A, state, events)
    assert events == [("dropped_column", 25, ("direction", 0, 25))]
    assert D.n_c == 39
    np.testing.assert_array_equal(state.basis, np.delete(C, 25, axis=1))
    assert state.origin_tags == tags[:25] + tags[26:]


# ---------------------------------------------------------------------------
# basis updates


def test_trks_appends_all_directions(rng):
    A = random_spd_matrix(12, rng)
    _, trace = solve_once(A, rng.standard_normal(12), tol=1e-3,
                          store_directions=True)
    state = AugmentationState.from_initial(12)
    update_basis_trks(state, trace)
    assert state.n_c == trace.iterations
    np.testing.assert_allclose(np.linalg.norm(state.basis, axis=0), 1.0)


def test_trks_requires_stored_directions(rng):
    A = random_spd_matrix(8, rng)
    _, trace = solve_once(A, rng.standard_normal(8))
    state = AugmentationState.from_initial(8)
    with pytest.raises(ContractViolation):
        update_basis_trks(state, trace)


def test_trks_zero_iteration_trace_is_noop():
    state = AugmentationState.from_initial(4)
    update_basis_trks(state, SolveTrace())
    assert state.n_c == 0


def test_srks_no_flags_is_noop(rng):
    A = random_spd_matrix(10, rng)
    _, trace = solve_once(A, rng.standard_normal(10))
    spectrum = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-30))
    state = AugmentationState.from_initial(10)
    update_basis_srks(state, spectrum)
    # with an absurdly small epsilon essentially nothing stagnates
    assert state.n_c == int(spectrum.converged_mask.sum())


def test_srks_requires_mask(rng):
    A = random_spd_matrix(6, rng)
    _, trace = solve_once(A, rng.standard_normal(6))
    from recycg import lanczos_from_trace, ritz_pairs
    spectrum = ritz_pairs(lanczos_from_trace(trace))
    with pytest.raises(ContractViolation):
        update_basis_srks(AugmentationState.from_initial(6), spectrum)


def test_srks_selection_monotone_in_epsilon(rng):
    A = random_spd_matrix(25, rng, condition=1e4)
    _, trace = solve_once(A, rng.standard_normal(25), tol=1e-10)
    tight = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-14))
    loose = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-6))
    assert np.all(loose.converged_mask[tight.converged_mask])


def test_srks_constant_operator_coarse_identity(rng):
    A = random_spd_matrix(30, rng, condition=1e3)
    _, trace = solve_once(A, rng.standard_normal(30), tol=1e-12)
    spectrum = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-10))
    assert spectrum.converged_mask.sum() >= 3
    state = AugmentationState.from_initial(30)
    update_basis_srks(state, spectrum)
    coarse = state.basis.T @ (A @ state.basis)
    np.testing.assert_allclose(coarse, np.eye(state.n_c), atol=1e-8)


# ---------------------------------------------------------------------------
# run_sequence


def test_constant_operator_trks_second_solve_free(rng):
    A = random_spd_matrix(20, rng)
    b = rng.standard_normal(20)
    report = run_sequence(constant_sequence(A, b, 3),
                          lambda A: Preconditioner.identity(),
                          RecycleStrategy("trks"),
                          SolveConfig(tol=1e-10, max_iters=200))
    iters = report.iterations()
    assert iters[0] > 0
    assert iters[1] == 0 and iters[2] == 0
    assert all(rec.converged for rec in report.records)


def test_constant_operator_srks_coarse_identity(rng):
    A = random_spd_matrix(30, rng, condition=1e3)
    b = rng.standard_normal(30)
    report = run_sequence(constant_sequence(A, b, 2),
                          lambda A: Preconditioner.identity(),
                          RecycleStrategy("srks", epsilon=1e-10),
                          SolveConfig(tol=1e-12, max_iters=200))
    C = report.final_basis
    assert C.shape[1] >= 3
    coarse = C.T @ (A @ C)
    np.testing.assert_allclose(coarse, np.eye(C.shape[1]), atol=1e-8)


def test_none_strategy_keeps_basis_fixed(rng):
    A = random_spd_matrix(15, rng)
    b = rng.standard_normal(15)
    C0 = rng.standard_normal((15, 2))
    report = run_sequence(constant_sequence(A, b, 3),
                          lambda A: Preconditioner.identity(),
                          RecycleStrategy("none"),
                          SolveConfig(tol=1e-8, max_iters=100), C0=C0)
    assert report.n_c_history() == [2, 2, 2]
    np.testing.assert_array_equal(report.final_basis, C0)


def test_nc_limit_triggers_restart(rng):
    A = random_spd_matrix(20, rng)
    b = rng.standard_normal(20)
    report = run_sequence(constant_sequence(A, b, 3),
                          lambda A: Preconditioner.identity(),
                          RecycleStrategy("trks", nc_limit=5),
                          SolveConfig(tol=1e-10, max_iters=100))
    assert any(ev[0] == "restart" for ev in report.events)
    # basis was reset to the (empty) initial block after overflowing
    assert report.n_c_history()[1] == 0


def test_record_bookkeeping(rng):
    systems = [(random_spd_matrix(12, rng), rng.standard_normal(12))
               for _ in range(4)]
    report = run_sequence(iter(systems), Preconditioner.jacobi,
                          RecycleStrategy("trks"),
                          SolveConfig(tol=1e-8, max_iters=200))
    assert len(report.records) == 4
    for prev, cur in zip(report.records, report.records[1:]):
        assert cur.n_c_before == prev.n_c_before + prev.n_c_selected
    for rec in report.records:
        assert rec.solve_seconds >= 0.0
        assert rec.augmentation_seconds >= 0.0
        assert rec.converged
        assert rec.final_residual <= 1e-6  # relative to the right-hand side


def test_record_times_are_wall_time_counted_once(rng):
    systems = [(random_spd_matrix(40, rng), rng.standard_normal(40))
               for _ in range(6)]
    t0 = perf_counter()
    report = run_sequence(iter(systems), Preconditioner.jacobi,
                          RecycleStrategy("trks"),
                          SolveConfig(tol=1e-8, max_iters=200))
    wall = perf_counter() - t0
    assert report.records[-1].n_c_before > 0
    total = sum(r.solve_seconds + r.augmentation_seconds for r in report.records)
    assert 0.0 < total <= wall


def test_augmentation_never_hurts_in_sequence(rng):
    systems = [(random_spd_matrix(20, rng, condition=1e3),
                rng.standard_normal(20)) for _ in range(5)]
    cfg = SolveConfig(tol=1e-8, max_iters=300)
    recycled = run_sequence(iter(systems), lambda A: Preconditioner.identity(),
                            RecycleStrategy("trks"), cfg)
    for (A, b), rec in zip(systems, recycled.records):
        _, fresh = solve_once(A, b, tol=1e-8, max_iters=300)
        assert rec.iterations <= fresh.iterations + 1


KINDS = ["none", "trks", "srks", "srks_cluster"]


def solve_configs_seen(monkeypatch, rng, kind, cfg):
    """The configs ``run_sequence`` hands to ``apcg_solve`` over two solves."""
    seen = []

    def spy(A, M, D, b, run_cfg):
        seen.append(run_cfg)
        return apcg_solve(A, M, D, b, run_cfg)

    monkeypatch.setattr(recycle, "apcg_solve", spy)
    A = random_spd_matrix(15, rng, condition=10.0)
    run_sequence(constant_sequence(A, rng.standard_normal(15), 2),
                 lambda A: Preconditioner.identity(), RecycleStrategy(kind), cfg)
    assert len(seen) == 2
    return seen


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("switches", [{}, dict(reorthogonalize=False,
                                               trace_capture=False,
                                               store_directions=True)])
def test_solve_switches_follow_strategy(monkeypatch, rng, kind, switches):
    cfg = SolveConfig(tol=1e-4, max_iters=100, **switches)
    for run_cfg in solve_configs_seen(monkeypatch, rng, kind, cfg):
        assert run_cfg.reorthogonalize is (kind != "none")
        assert run_cfg.trace_capture is (kind in ("srks", "srks_cluster"))
        assert run_cfg.store_directions is (kind == "trks")
        assert (run_cfg.tol, run_cfg.max_iters) == (cfg.tol, cfg.max_iters)


def test_failed_solve_aborts_with_partial_report(rng):
    A = random_spd_matrix(10, rng)
    b = rng.standard_normal(10)
    # an invalid (indefinite) preconditioner triggers a numerical failure
    bad = Preconditioner("user_diagonal", inv_diag=-np.ones(10))
    report = run_sequence(constant_sequence(A, b, 3), lambda A: bad,
                          RecycleStrategy("none"),
                          SolveConfig(tol=1e-8, max_iters=50))
    assert report.aborted
    assert len(report.records) == 0
    assert any(ev[0] == "solve_failed" for ev in report.events)


# ---------------------------------------------------------------------------
# subspace overlap


def test_overlap_identical_direction():
    e1 = np.eye(4)[:, :1]
    sv = subspace_overlap(e1, e1)
    np.testing.assert_allclose(sv, [np.sqrt(2.0), 0.0], atol=1e-12)


def test_overlap_orthogonal_directions():
    sv = subspace_overlap(np.eye(4)[:, :1], np.eye(4)[:, 1:2])
    np.testing.assert_allclose(sv, [1.0, 1.0], atol=1e-12)


def test_overlap_nested_spaces(rng):
    U1 = rng.standard_normal((10, 4))
    U2 = U1 @ rng.standard_normal((4, 2))  # span(U2) inside span(U1)
    sv = np.sort(subspace_overlap(U1, U2))[::-1]
    np.testing.assert_allclose(sv[:2], np.sqrt(2.0), atol=1e-8)
    np.testing.assert_allclose(sv[2:4], 1.0, atol=1e-8)
    np.testing.assert_allclose(sv[4:], 0.0, atol=1e-8)


def test_overlap_drops_zero_columns(rng):
    U1 = np.column_stack([np.zeros(5), np.eye(5)[:, 0]])
    sv = subspace_overlap(U1, np.eye(5)[:, :1])
    np.testing.assert_allclose(sv, [np.sqrt(2.0), 0.0], atol=1e-12)


def test_overlap_row_mismatch():
    with pytest.raises(ContractViolation):
        subspace_overlap(np.eye(3), np.eye(4))
