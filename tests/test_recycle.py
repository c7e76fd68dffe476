"""Sequence-driver tests: basis accumulation, rank guarding, run records,
strategy behavior on constant and varying operator sequences."""
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from recycg import (AugmentationState, ContractViolation, NumericalFailure,
                    Preconditioner, RecycleStrategy, Recycler, SolveConfig,
                    SparseSpdMatrix, apcg_solve, benchmark_spec, build_deflation,
                    generate_diffusion_sequence, lanczos_tridiag, run_sequence,
                    subspace_overlap, tridiag_eig, update_basis_srks,
                    update_basis_trks)
from recycg import recycle
from recycg.recycle import flag_spectrum, guarded_deflation, select_spectrum
from recycg.ritz import lanczos_from_trace, ritz_pairs
from recycg.solver import SolveTrace
from conftest import benchmark_solve, preconditioned_residuals, random_spd_matrix


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
    # a boolean is not a number, and epsilon is checked for every kind
    for kind, epsilon in (("srks", True), ("srks", np.True_), ("trks", -1.0)):
        with pytest.raises(ContractViolation, match=re.escape(f"bad epsilon value {epsilon!r}")):
            RecycleStrategy(kind, epsilon=epsilon)
    # YAML reads 1e-6, without a dot, as text
    assert RecycleStrategy("srks", epsilon="1e-6").epsilon == 1e-6


@pytest.mark.parametrize("kind", ["srks", "srks_cluster"])
@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_srks_strategy_rejects_a_non_finite_epsilon(kind, epsilon):
    """NaN would select no Ritz value, and +inf every one."""
    with pytest.raises(ContractViolation, match=f"bad epsilon value {epsilon}"):
        RecycleStrategy(kind, epsilon=epsilon)


@pytest.mark.parametrize("kind", ["srks", "srks_cluster"])
@pytest.mark.parametrize("epsilon", ["tiny", None])
def test_srks_strategy_rejects_a_non_numeric_epsilon(kind, epsilon):
    with pytest.raises(ContractViolation, match="epsilon"):
        RecycleStrategy(kind, epsilon=epsilon)


def test_augmentation_state_bookkeeping(rng):
    state = AugmentationState(6)
    assert state.n_c == 0
    state.append(rng.standard_normal((6, 2)), [("initial", j) for j in range(2)], np.ones(2))
    assert state.n_c == 2
    state.append(rng.standard_normal((6, 3)), [("ritz", 0, 1.0)] * 3, np.ones(3))
    assert state.n_c == 5
    state.drop_column(3)
    assert state.n_c == 4
    assert len(state.origin_tags) == 4


def test_augmentation_state_wants_one_tag_per_column(rng):
    """``n_c`` counts the origin tags, so an append with too few is refused."""
    state = AugmentationState(6)
    state.append(rng.standard_normal((6, 2)), [("initial", j) for j in range(2)], np.ones(2))
    with pytest.raises(ContractViolation, match="2 origin tags for 3 columns"):
        state.append(rng.standard_normal((6, 3)), [("ritz", 0, 1.0)] * 2, np.ones(3))
    assert state.n_c == len(state.origin_tags) == 2


def test_augmentation_block_grows_and_closes_up(rng):
    """Appends past the spare columns and drops at the first, a middle and
    the last column match a column_stack / np.delete reference; the operator
    built on the state reads its block, not a copy."""
    n = 40
    state = AugmentationState(n)
    ref, ref_tags = np.zeros((n, 0)), []
    # capacity goes 3, 6, 12, 24: the appends of 1, 5 and 9 columns overflow it
    for k, size in enumerate((3, 1, 5, 2, 9)):
        block = rng.standard_normal((n, size))
        tags = [("direction", k, j) for j in range(size)]
        divisors = rng.uniform(0.5, 2.0, size) if k % 2 else np.ones(size)
        before = state.basis
        state.append(block, tags, divisors=divisors)
        if k == 3:  # fits in the spare columns: the block is not copied
            assert np.shares_memory(before, state.basis)
        ref = np.column_stack([ref, block / divisors])
        ref_tags += tags
        np.testing.assert_array_equal(state.basis, ref)
        assert state.origin_tags == ref_tags
    assert state.basis.flags.f_contiguous
    D = build_deflation(random_spd_matrix(n, rng), state.basis)
    assert np.shares_memory(D.basis, state.basis)
    for index in (0, 9, 17):
        state.drop_column(index)
        ref = np.delete(ref, index, axis=1)
        del ref_tags[index]
        np.testing.assert_array_equal(state.basis, ref)
        assert state.origin_tags == ref_tags
    assert state.n_c == 17


def test_guarded_deflation_drops_dependent_columns(rng):
    A = random_spd_matrix(8, rng)
    good = rng.standard_normal((8, 2))
    C = np.column_stack([good, good[:, 0] + 2.0 * good[:, 1]])
    state = AugmentationState(8)
    state.append(C, [("initial", j) for j in range(3)], np.ones(3))
    events = []
    D = guarded_deflation(A, state, events)
    assert D.n_c == 2
    assert state.n_c == 2
    assert events and events[0][0] == "dropped_column"


def test_guarded_deflation_drops_dependent_column_of_large_basis(rng):
    A = random_spd_matrix(60, rng)
    C = rng.standard_normal((60, 40))
    C[:, 25] = C[:, 3] + 2.0 * C[:, 11]
    state = AugmentationState(60)
    tags = [("direction", 0, j) for j in range(40)]
    state.append(C, tags, np.ones(40))
    events = []
    D = guarded_deflation(A, state, events)
    assert events == [("dropped_column", {"index": 25, "origin": ("direction", 0, 25)})]
    assert D.n_c == 39
    np.testing.assert_array_equal(state.basis, np.delete(C, 25, axis=1))
    assert state.origin_tags == tags[:25] + tags[26:]


def test_guarded_deflation_all_columns_dependent(rng):
    A = random_spd_matrix(8, rng)
    state = AugmentationState(8)
    state.append(np.zeros((8, 3)), [("initial", j) for j in range(3)], np.ones(3))
    events = []
    D = guarded_deflation(A, state, events)
    assert events == [("dropped_column", {"index": 0, "origin": ("initial", j)})
                      for j in range(3)]
    assert state.n_c == D.n_c == 0
    x = rng.standard_normal(8)
    np.testing.assert_array_equal(D.project(x), x)


# ---------------------------------------------------------------------------
# basis updates


def test_trks_appends_all_directions(rng):
    A = random_spd_matrix(12, rng)
    _, trace = solve_once(A, rng.standard_normal(12), tol=1e-3)
    state = AugmentationState(12)
    update_basis_trks(state, trace)
    assert state.n_c == trace.iterations
    np.testing.assert_allclose(np.linalg.norm(state.basis, axis=0), 1.0)


def test_trks_requires_stored_directions(rng):
    A = random_spd_matrix(8, rng)
    _, trace = solve_once(A, rng.standard_normal(8), store="none")
    state = AugmentationState(8)
    with pytest.raises(ContractViolation):
        update_basis_trks(state, trace)


def test_trks_zero_iteration_trace_is_noop():
    state = AugmentationState(4)
    update_basis_trks(state, SolveTrace())
    assert state.n_c == 0


def test_srks_no_flags_is_noop(rng):
    A = random_spd_matrix(10, rng)
    _, trace = solve_once(A, rng.standard_normal(10))
    spectrum = select_spectrum(trace, RecycleStrategy("srks", epsilon=1e-30))
    state = AugmentationState(10)
    update_basis_srks(state, spectrum)
    # with an absurdly small epsilon essentially nothing stagnates
    assert state.n_c == int(spectrum.converged_mask.sum())


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
    state = AugmentationState(30)
    update_basis_srks(state, spectrum)
    coarse = state.basis.T @ (A @ state.basis)
    np.testing.assert_allclose(coarse, np.eye(state.n_c), atol=1e-8)


def full_spectrum_selection(A, b, M, D, trace, strategy):
    """The reference, independent of ``lanczos_from_trace``: the Lanczos
    basis from the exact z_j of the solve, flagged on the full spectrum,
    with the Ritz vectors of the flagged values."""
    m = trace.iterations
    Z = preconditioned_residuals(A, b, M, D, trace)
    V = Z * ((-1.0) ** np.arange(m) / np.sqrt(np.asarray(trace.rz_inner[:m])))
    T = lanczos_tridiag(trace.alphas[:m], trace.betas[:m - 1])
    eig = tridiag_eig(T)
    mask = flag_spectrum(T, eig.values, strategy)
    return mask, V @ eig.vectors[:, mask]


def assert_same_selection(solve, strategy):
    mask, vectors = full_spectrum_selection(*solve, strategy)
    spectrum = select_spectrum(solve[-1], strategy)
    np.testing.assert_array_equal(spectrum.converged_mask, mask)
    assert spectrum.vectors.shape == vectors.shape
    for got, want in zip(spectrum.vectors.T, vectors.T):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    return int(mask.sum())


def reference_solve(A, b, M, C, store, **cfg_kwargs):
    D = build_deflation(A, C)
    _, trace = apcg_solve(A, M, D, b, SolveConfig(store=store, **cfg_kwargs))
    return A, b, M, D, trace


STRATEGIES = [RecycleStrategy("srks", epsilon=1e-2),
              RecycleStrategy("srks", epsilon=1e-4),
              RecycleStrategy("srks", epsilon=1e-6),
              RecycleStrategy("srks", epsilon=1e-10),
              RecycleStrategy("srks", epsilon=1e-14),
              RecycleStrategy("srks_cluster", epsilon=1e-2),
              RecycleStrategy("srks_cluster", epsilon=1e-10)]
STRATEGY_IDS = ["srks2", "srks4", "srks6", "srks10", "srks14", "cluster2", "cluster10"]


def with_stores(cases, ids):
    """Each case on a swept trace, under its id, and on an unswept (SRKS)
    trace, under its id with ``-unswept`` appended."""
    return [pytest.param(case, store, id=i if store == "swept" else f"{i}-unswept")
            for store in ("swept", "directions") for case, i in zip(cases, ids)]


@pytest.mark.parametrize("strategy, store", with_stores(STRATEGIES, STRATEGY_IDS))
def test_selection_forms_only_kept_vectors(rng, strategy, store):
    kept = 0
    for n, condition in ((20, 1e2), (40, 1e3), (60, 1e4)):
        A = random_spd_matrix(n, rng, condition=condition)
        solve = reference_solve(A, rng.standard_normal(n), Preconditioner.identity(),
                                np.zeros((n, 0)), store, tol=1e-10, max_iters=500)
        kept += assert_same_selection(solve, strategy)
    assert kept > 0


@pytest.mark.parametrize("kind, store", with_stores(["srks", "srks_cluster"],
                                                   ["srks", "srks_cluster"]))
def test_selection_forms_only_kept_vectors_on_benchmark_trace(kind, store):
    assert assert_same_selection(benchmark_solve(store),
                                 RecycleStrategy(kind, epsilon=1e-14)) > 0


@pytest.mark.parametrize("strategy, store", with_stores(STRATEGIES, STRATEGY_IDS))
def test_selection_forms_only_kept_vectors_on_trace_stopped_by_cap(rng, strategy, store):
    # with n_c 5 the z_j are projected
    n = 60
    A = random_spd_matrix(n, rng, condition=1e4)
    solve = reference_solve(A, rng.standard_normal(n), Preconditioner.jacobi(A),
                            rng.standard_normal((n, 5)), store, tol=1e-10, max_iters=25)
    trace = solve[-1]
    assert not trace.converged and trace.iterations == 25
    assert len(trace.betas) == 24
    assert len(trace.sweeps) == (24 if store == "swept" else 0)
    assert assert_same_selection(solve, strategy) > 0


def test_srks_rejects_vectors_of_unflagged_values(rng):
    A = random_spd_matrix(20, rng)
    _, trace = solve_once(A, rng.standard_normal(20))
    view = lanczos_from_trace(trace)
    full = ritz_pairs(view, lambda values: np.ones(len(values), dtype=bool))
    mask = flag_spectrum(view.tridiag, full.values, RecycleStrategy("srks", epsilon=1e-6))
    assert 0 < mask.sum() < len(mask)
    with pytest.raises(ContractViolation):
        update_basis_srks(AugmentationState(20),
                          replace(full, converged_mask=mask))


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
    report = run_sequence(constant_sequence(A, b, 3),
                          lambda A: Preconditioner.identity(),
                          RecycleStrategy("none"),
                          SolveConfig(tol=1e-8, max_iters=100))
    assert report.n_c_history() == [0, 0, 0]
    assert report.final_basis.shape == (15, 0)


def test_removed_sequence_settings_are_rejected(rng):
    # the basis starts empty and is never restarted; the cluster size is
    # always a fifth of the preselected count
    with pytest.raises(TypeError):
        RecycleStrategy("trks", nc_limit=5)
    with pytest.raises(TypeError):
        RecycleStrategy("srks_cluster", min_cluster=3)
    A = random_spd_matrix(6, rng)
    with pytest.raises(TypeError):
        run_sequence([(A, np.ones(6))], Preconditioner.jacobi, RecycleStrategy(),
                     SolveConfig(), C0=np.eye(6)[:, :1])
    with pytest.raises(TypeError):
        AugmentationState(6, np.eye(6)[:, :1])


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


@pytest.mark.parametrize("kind", ["none", "trks", "srks"])
def test_final_residual_is_true_residual(monkeypatch, kind):
    solutions = []

    def spy(*args):
        x, trace = apcg_solve(*args)
        solutions.append((x, trace))
        return x, trace

    monkeypatch.setattr(recycle, "apcg_solve", spy)
    systems = list(generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 3))
    report = run_sequence(iter(systems), Preconditioner.jacobi,
                          RecycleStrategy(kind, epsilon=1e-6),
                          SolveConfig(tol=1e-6, max_iters=500))
    assert len(solutions) == len(report.records) == 3
    assert report.records[-1].n_c_before > 0 or kind == "none"
    for (A, b), (x, trace), rec in zip(systems, solutions, report.records):
        true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert rec.final_residual == pytest.approx(true, rel=1e-12, abs=0.0)
        # the recursive residual of the solver drifts from the true one
        # (by up to about 1e-6 relative here), so the record is not the trace's
        recursive = trace.residual_norms[-1] / np.linalg.norm(b)
        assert rec.final_residual == pytest.approx(recursive, rel=1e-3)


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
    """The configs ``run_sequence`` hands to ``apcg_solve`` over two solves,
    each with the trace it returned."""
    seen = []

    def spy(A, M, D, b, run_cfg):
        x, trace = apcg_solve(A, M, D, b, run_cfg)
        seen.append((run_cfg, trace))
        return x, trace

    monkeypatch.setattr(recycle, "apcg_solve", spy)
    A = random_spd_matrix(15, rng, condition=10.0)
    run_sequence(constant_sequence(A, rng.standard_normal(15), 2),
                 lambda A: Preconditioner.identity(), RecycleStrategy(kind), cfg)
    assert len(seen) == 2
    return seen


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("switches", [{}, dict(store="none")])
def test_solve_switches_follow_strategy(monkeypatch, rng, kind, switches):
    cfg = SolveConfig(tol=1e-4, max_iters=100, **switches)
    stores = {"none": "none", "trks": "swept", "srks": "directions",
              "srks_cluster": "directions"}
    for run_cfg, trace in solve_configs_seen(monkeypatch, rng, kind, cfg):
        assert run_cfg.store == stores[kind]
        assert (run_cfg.tol, run_cfg.max_iters) == (cfg.tol, cfg.max_iters)
        if kind.startswith("srks"):
            assert trace.sweeps == [] and trace.directions is not None


@pytest.mark.parametrize("kind", KINDS)
def test_step_frees_operator_and_trace_before_next_build(monkeypatch, rng, kind):
    operators, traces, alive_at_build = [], [], []

    def deflation_spy(A, state, events=None):
        alive_at_build.append([ref() is not None for ref in operators + traces])
        D = guarded_deflation(A, state, events)
        operators.append(weakref.ref(D))
        return D

    def solve_spy(*args):
        x, trace = apcg_solve(*args)
        traces.append(weakref.ref(trace))
        return x, trace

    monkeypatch.setattr(recycle, "guarded_deflation", deflation_spy)
    monkeypatch.setattr(recycle, "apcg_solve", solve_spy)
    A = random_spd_matrix(15, rng, condition=10.0)
    run_sequence(constant_sequence(A, rng.standard_normal(15), 3),
                 lambda A: Preconditioner.identity(), RecycleStrategy(kind),
                 SolveConfig(tol=1e-4, max_iters=100))
    assert alive_at_build == [[], [False, False], [False] * 4]


@pytest.mark.parametrize("kind", ["trks", "srks", "srks_cluster"])
def test_operator_freed_before_basis_update(monkeypatch, rng, kind):
    # the step's AC block and coarse factor are gone before the basis grows
    operators, alive_at_update = [], []

    def deflation_spy(A, state, events=None):
        D = guarded_deflation(A, state, events)
        operators.append(weakref.ref(D))
        return D

    def update_spy(update):
        def spy(*args, **kwargs):
            alive_at_update.append([ref() is not None for ref in operators])
            return update(*args, **kwargs)
        return spy

    monkeypatch.setattr(recycle, "guarded_deflation", deflation_spy)
    for name in ("update_basis_trks", "update_basis_srks"):
        monkeypatch.setattr(recycle, name, update_spy(getattr(recycle, name)))
    A = random_spd_matrix(15, rng, condition=10.0)
    run_sequence(constant_sequence(A, rng.standard_normal(15), 3),
                 lambda A: Preconditioner.identity(), RecycleStrategy(kind, 1e-6),
                 SolveConfig(tol=1e-4, max_iters=100))
    assert alive_at_update and all(not any(alive) for alive in alive_at_update)
    assert len(alive_at_update[0]) == 1


def test_failed_solve_aborts_with_partial_report(rng):
    A = random_spd_matrix(10, rng)
    b = rng.standard_normal(10)
    # an invalid (indefinite) preconditioner triggers a numerical failure
    bad = Preconditioner(inv_diag=-np.ones(10))
    report = run_sequence(constant_sequence(A, b, 3), lambda A: bad,
                          RecycleStrategy("none"),
                          SolveConfig(tol=1e-8, max_iters=50))
    assert report.aborted
    assert len(report.records) == 0
    assert any(ev[0] == "solve_failed" for ev in report.events)


# ---------------------------------------------------------------------------
# Recycler: one step per system


@pytest.mark.parametrize("kind", KINDS)
def test_recycler_solves_systems_built_from_earlier_solutions(kind):
    """Defect correction across a changing operator: system k+1 solves for
    the correction of the running solution under A_{k+1}, so its right-hand
    side b - A_{k+1} x exists only once x_k has been returned."""
    tol = 1e-6
    recycler = Recycler(Preconditioner.jacobi, RecycleStrategy(kind, epsilon=1e-6),
                        SolveConfig(tol=tol, max_iters=500))
    x = None
    for A, b in generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 4):
        rhs = b if x is None else b - A @ x
        C = np.zeros((A.n, 0)) if recycler.state is None else recycler.state.basis.copy()
        correction = recycler.solve(A, rhs)
        x0 = build_deflation(A, C).initial_guess(rhs)
        assert recycler.report.records[-1].iterations > 0
        assert np.linalg.norm(rhs - A @ correction) <= tol * np.linalg.norm(rhs - A @ x0)
        x = correction if x is None else x + correction
    assert len(recycler.report.records) == 4 and recycler.report.events == []
    assert recycler.state.n_c > 0 or kind == "none"


@pytest.mark.parametrize("kind", KINDS)
def test_recycler_loop_matches_run_sequence(kind):
    """Every kind, on a sequence with swept re-solves and dropped columns."""
    rng = np.random.default_rng(0)
    systems = [(random_spd_matrix(60, rng), rng.standard_normal(60)) for _ in range(4)]
    args = (Preconditioner.jacobi, RecycleStrategy(kind, epsilon=1e-8),
            SolveConfig(tol=1e-8, max_iters=200))
    report = run_sequence(iter(systems), *args)
    recycler = Recycler(*args)
    for A, b in systems:
        recycler.solve(A, b)
    manual = recycler.report
    assert manual.iterations() == report.iterations()
    assert manual.n_c_history() == report.n_c_history()
    assert manual.events == report.events
    # srks_cluster re-solves systems 0-2 swept (each reaches n - n_c
    # iterations), and the basis it keeps has no dependent column
    assert {event[0] for event in report.events} == {
        "srks": {"swept_resolve", "dropped_column"},
        "srks_cluster": {"swept_resolve"}}.get(kind, set())
    np.testing.assert_array_equal(recycler.state.basis, report.final_basis)


def test_recycler_failed_solve_reraises_and_records_nothing(rng):
    A, A_bad = random_spd_matrix(10, rng), random_spd_matrix(10, rng)
    # an invalid (indefinite) preconditioner for the second system
    bad = Preconditioner(inv_diag=-np.ones(10))

    def preconditioner(matrix):
        return bad if matrix is A_bad else Preconditioner.jacobi(matrix)

    recycler = Recycler(preconditioner, RecycleStrategy("none"),
                        SolveConfig(tol=1e-8, max_iters=50))
    recycler.solve(A, rng.standard_normal(10))
    with pytest.raises(NumericalFailure):
        recycler.solve(A_bad, rng.standard_normal(10))
    report = recycler.report
    assert report.aborted and len(report.records) == 1
    message = "(r, z) <= 0: preconditioner or operator not SPD"
    assert report.events == [("solve_failed", {"system": 1, "message": message})]


def test_recycler_refuses_to_solve_after_an_abort(monkeypatch, rng):
    """Records after a failed solve would not match the systems they came from."""
    A, A_bad = random_spd_matrix(10, rng), random_spd_matrix(10, rng)
    bad = Preconditioner(inv_diag=-np.ones(10))

    def preconditioner(matrix):
        return bad if matrix is A_bad else Preconditioner.jacobi(matrix)

    recycler = Recycler(preconditioner, RecycleStrategy("none"),
                        SolveConfig(tol=1e-8, max_iters=50))
    with pytest.raises(NumericalFailure):
        recycler.solve(A_bad, rng.standard_normal(10))
    builds = []
    monkeypatch.setattr(recycle, "guarded_deflation", lambda *args: builds.append(args))
    for _ in range(2):
        with pytest.raises(ContractViolation, match="aborted"):
            recycler.solve(A, rng.standard_normal(10))
    assert builds == [] and recycler.report.records == []
    assert [(kind, fields["system"]) for kind, fields in recycler.report.events] == [
        ("solve_failed", 0)]


@pytest.mark.parametrize("seed, kind, epsilon", [(37, "srks", 1e-8),
                                                 (3, "srks_cluster", 1e-4)])
def test_srks_unswept_solve_past_the_projected_space_is_resolved(seed, kind, epsilon):
    """A deflated solve searches range(P), of dimension n - n_c: an unswept
    one that runs that long keeps Ritz vectors of lost orthogonality.  Kept,
    these gave 21 columns at n 20 (seed 37, a ContractViolation at the third
    build) or a later (r, z) <= 0 (seed 3, at system 3)."""
    rng = np.random.default_rng(seed)
    A = random_spd_matrix(20, rng, condition=1e3)
    systems = [(A, rng.standard_normal(20)) for _ in range(4)]
    report = run_sequence(iter(systems), Preconditioner.jacobi,
                          RecycleStrategy(kind, epsilon), SolveConfig(tol=1e-10, max_iters=200))
    assert not report.aborted
    assert len(report.records) == 4 and all(rec.converged for rec in report.records)
    assert "swept_resolve" in {event[0] for event in report.events}


# ---------------------------------------------------------------------------
# thread-count determinism

HISTORY_SCRIPT = """
import json
from recycg import (Preconditioner, RecycleStrategy, SolveConfig, benchmark_spec,
                    generate_diffusion_sequence, run_sequence)
runs = [("none", 1e-14, 1e-3), ("trks", 1e-14, 1e-6), ("srks", 1e-6, 1e-3),
        ("srks_cluster", 1e-2, 1e-3)]
histories = {}
for kind, epsilon, tol in runs:
    systems = generate_diffusion_sequence(benchmark_spec(seed=0, grid=(32, 32)), 12)
    report = run_sequence(systems, Preconditioner.jacobi, RecycleStrategy(kind, epsilon),
                          SolveConfig(tol=tol, max_iters=3000))
    histories[kind] = [report.iterations(), report.n_c_history()]
print(json.dumps(histories))
"""


def sequence_histories(blas_threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", HISTORY_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout)


def test_histories_do_not_depend_on_blas_thread_count():
    one, two = sequence_histories(1), sequence_histories(2)
    assert set(one) == {"none", "trks", "srks", "srks_cluster"}
    assert one["trks"][1][-1] > 0 and one["srks"][1][-1] > 0
    assert one == two


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
