"""Spectral post-processing tests: Lanczos recovery, Ritz pairs, stagnation
selection, cluster filtering, and the convergence-rate predictors."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recycg import (ContractViolation, NumericalFailure, Preconditioner,
                    RitzSpectrum, SolveConfig, SparseSpdMatrix, apcg_solve,
                    build_deflation, cluster_filter, dense_sym_eig,
                    instantaneous_rate, lanczos_from_trace, lanczos_tridiag,
                    predict_iterations, ritz_pairs, select_converged,
                    tridiag_eig)
from conftest import random_spd_matrix


def plain_solve(A, b, tol=1e-12, max_iters=500):
    D = build_deflation(A, np.zeros((A.n, 0)))
    cfg = SolveConfig(tol=tol, max_iters=max_iters)
    return apcg_solve(A, Preconditioner.identity(), D, b, cfg)


# ---------------------------------------------------------------------------
# Lanczos recovery


def test_lanczos_tridiag_single_step():
    T = lanczos_tridiag([0.5], [])
    np.testing.assert_array_equal(T.diag, [2.0])
    assert len(T.offdiag) == 0


def test_lanczos_tridiag_validation():
    with pytest.raises(ContractViolation):
        lanczos_tridiag([], [])
    with pytest.raises(ContractViolation):
        lanczos_tridiag([1.0, 1.0], [])
    with pytest.raises(NumericalFailure):
        lanczos_tridiag([1.0, 1.0], [-0.5])


def test_lanczos_from_trace_requires_history(rng):
    A = random_spd_matrix(10, rng)
    _, trace = plain_solve(A, rng.standard_normal(10))
    trace.z_history.clear()
    with pytest.raises(ContractViolation):
        lanczos_from_trace(trace)


def test_two_point_spectrum_recovered_exactly():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 4.0]))
    _, trace = plain_solve(A, np.array([1.0, 1.0]))
    view = lanczos_from_trace(trace)
    values = tridiag_eig(view.tridiag).values
    np.testing.assert_allclose(values, [4.0, 1.0], atol=1e-12)
    # the recovered basis diagonalizes A onto the tridiagonal
    H = view.basis.T @ A.to_dense() @ view.basis
    np.testing.assert_allclose(H, view.tridiag.to_dense(), atol=1e-12)


def test_full_krylov_space_recovers_spectrum():
    n = 10
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    A = SparseSpdMatrix.from_dense(lap)
    # excite every eigenmode (the all-ones vector misses the odd ones)
    b = np.arange(1.0, n + 1.0)
    _, trace = plain_solve(A, b, tol=1e-14)
    view = lanczos_from_trace(trace)
    assert view.m == n
    values = np.sort(tridiag_eig(view.tridiag).values)
    expected = np.sort(dense_sym_eig(lap).values)
    np.testing.assert_allclose(values, expected, rtol=1e-8)


def test_basis_orthonormal_for_identity_preconditioner(rng):
    A = random_spd_matrix(20, rng)
    _, trace = plain_solve(A, rng.standard_normal(20))
    view = lanczos_from_trace(trace)
    gram = view.basis.T @ view.basis
    np.testing.assert_allclose(gram, np.eye(view.m), atol=1e-6)


# ---------------------------------------------------------------------------
# Ritz pairs


def test_single_iteration_ritz_pair(rng):
    A = SparseSpdMatrix.from_dense(np.diag([3.0, 3.0]))
    _, trace = plain_solve(A, np.array([1.0, 2.0]))
    spectrum = ritz_pairs(lanczos_from_trace(trace))
    assert spectrum.m == 1
    np.testing.assert_allclose(spectrum.values, [3.0], rtol=1e-12)


def test_ritz_vectors_reproduce_axes():
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    _, trace = plain_solve(A, np.ones(3), tol=1e-13)
    spectrum = ritz_pairs(lanczos_from_trace(trace))
    np.testing.assert_allclose(np.sort(spectrum.values), [1.0, 2.0, 3.0],
                               rtol=1e-10)
    # descending values -> vectors should match e3, e2, e1 up to sign
    expected = np.eye(3)[:, ::-1]
    for got, want in zip(spectrum.vectors.T, expected.T):
        got = got / np.linalg.norm(got)
        assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-6


def test_ritz_a_orthogonality(rng):
    A = random_spd_matrix(30, rng)
    _, trace = plain_solve(A, rng.standard_normal(30), tol=1e-12)
    spectrum = ritz_pairs(lanczos_from_trace(trace))
    YAY = spectrum.vectors.T @ A.to_dense() @ spectrum.vectors
    np.testing.assert_allclose(YAY, np.diag(spectrum.values),
                               atol=1e-6 * spectrum.values.max())
    np.testing.assert_allclose(spectrum.vectors.T @ spectrum.vectors,
                               np.eye(spectrum.m), atol=1e-6)


def test_interlacing_along_a_run(rng):
    A = random_spd_matrix(40, rng, condition=1e3)
    _, trace = plain_solve(A, rng.standard_normal(40), tol=1e-12)
    view = lanczos_from_trace(trace)
    prev = None
    for m in range(1, view.m + 1):
        cur = tridiag_eig(view.tridiag.truncated(m)).values
        if prev is not None:
            slack = 1e-12 * cur[0]
            for j in range(m - 1):
                assert cur[j] >= prev[j] - slack
                assert prev[j] >= cur[j + 1] - slack
        prev = cur


# ---------------------------------------------------------------------------
# stagnation selection


def _spectrum(values):
    values = np.asarray(values, dtype=np.float64)
    return RitzSpectrum(values, np.eye(len(values)))


def test_select_exact_stagnation_flags_heads():
    cur = _spectrum([9.0, 5.0, 2.0, 1.0])
    out = select_converged(cur, [9.0, 5.0, 2.0], epsilon=1e-12)
    # every previous value reappears exactly -> flagged from above
    assert list(out.converged_mask) == [True, True, True, False]


def test_select_shifted_spectrum_flags_nothing():
    cur = _spectrum([9.0, 5.0, 2.0])
    out = select_converged(cur, [9.9, 5.5], epsilon=1e-6)
    assert not out.converged_mask.any()


def test_select_single_value_empty_mask():
    out = select_converged(_spectrum([3.0]), [], epsilon=1e-6)
    assert out.m == 1 and not out.converged_mask.any()


def test_select_convergence_from_below():
    # previous value 1.0 persists as the *last* current value
    cur = _spectrum([9.0, 4.0, 1.0])
    out = select_converged(cur, [6.0, 1.0], epsilon=1e-12)
    assert list(out.converged_mask) == [False, False, True]


def test_select_requires_matching_sizes():
    with pytest.raises(ContractViolation):
        select_converged(_spectrum([2.0, 1.0]), [2.0, 1.5], epsilon=1e-6)
    with pytest.raises(ContractViolation):
        select_converged(_spectrum([2.0, 1.0]), [2.0], epsilon=0.0)


def test_select_coalesces_degenerate_multiples():
    cur = _spectrum([5.0, 5.0 * (1.0 + 1e-15), 1.0])
    out = select_converged(cur, [5.0, 5.0], epsilon=1e-12)
    mask = out.converged_mask
    assert mask[0] and not mask[1]


def test_isolated_high_value_converges_first():
    values = np.concatenate([[1.0], np.arange(2.0, 3.01, 0.1), [100.0]])
    A = SparseSpdMatrix.from_dense(np.diag(values))
    b = np.ones(len(values))
    D = build_deflation(A, np.zeros((A.n, 0)))
    cfg = SolveConfig(tol=1e-10, max_iters=200)
    _, trace = apcg_solve(A, Preconditioner.identity(), D, b, cfg)
    view = lanczos_from_trace(trace)
    first_flag = {}
    for m in range(2, view.m + 1):
        cur = tridiag_eig(view.tridiag.truncated(m))
        prev = tridiag_eig(view.tridiag.truncated(m - 1)).values
        sel = select_converged(RitzSpectrum(cur.values, cur.vectors), prev,
                               epsilon=1e-8)
        for j in np.flatnonzero(sel.converged_mask):
            key = round(float(sel.values[j]), 3)
            first_flag.setdefault(key, m)
    near_100 = min(first_flag.items(), key=lambda kv: abs(kv[0] - 100.0))
    interior = [m for v, m in first_flag.items() if 1.5 < v < 50.0]
    assert near_100[1] <= min(interior, default=10 ** 9)


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=2,
                max_size=12, unique=True))
@settings(max_examples=40, deadline=None)
def test_select_monotone_in_epsilon(values):
    cur = np.sort(np.asarray(values))[::-1]
    prev = cur[:-1] * 1.0000003
    small = select_converged(_spectrum(cur), prev, 1e-7).converged_mask
    large = select_converged(_spectrum(cur), prev, 1e-5).converged_mask
    assert np.all(large[small])  # flagged at small epsilon -> flagged at large


# ---------------------------------------------------------------------------
# cluster filter


def test_cluster_filter_externals():
    values = [100.0, 10.2, 10.1, 10.0, 9.9, 1.0]
    assert cluster_filter(values, min_cluster=3) == [0, 5]


def test_cluster_filter_uniform_is_deterministic():
    values = list(np.linspace(10.0, 1.0, 8))
    out1 = cluster_filter(values, min_cluster=3)
    out2 = cluster_filter(values, min_cluster=3)
    assert out1 == out2
    assert len(out1) <= 8 - 3


def test_cluster_filter_all_equal():
    assert cluster_filter([2.0, 2.0, 2.0, 2.0], min_cluster=2) == []


def test_cluster_filter_too_few_values():
    assert cluster_filter([3.0, 1.0], min_cluster=5) == [0, 1]
    with pytest.raises(ContractViolation):
        cluster_filter([3.0, 1.0], min_cluster=0)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30, deadline=None)
def test_cluster_filter_scale_invariant(scale):
    values = np.array([50.0, 5.2, 5.1, 5.05, 5.0, 4.9, 0.5])
    base = cluster_filter(values, min_cluster=3)
    scaled = cluster_filter(values * scale, min_cluster=3)
    assert base == scaled


def loop_cluster_filter(values, min_cluster):
    """The original O(m^2) double loop, kept as the reference."""
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    if m < min_cluster or m < 2:
        return list(range(m))
    gaps = np.abs(np.diff(values))
    ng = len(gaps)
    prefix = np.concatenate([[0.0], np.cumsum(gaps)])
    prefix2 = np.concatenate([[0.0], np.cumsum(gaps ** 2)])

    def sse(i, j):
        if j <= i:
            return 0.0
        s, s2, c = prefix[j] - prefix[i], prefix2[j] - prefix2[i], j - i
        return s2 - s * s / c

    def mean(i, j):
        return (prefix[j] - prefix[i]) / (j - i) if j > i else 0.0

    best = None
    min_len = min_cluster - 1
    for a in range(0, ng - min_len + 1):
        for b in range(a + min_len, ng + 1):
            err = sse(0, a) + sse(a, b) + sse(b, ng)
            key = (err, -(b - a), mean(a, b), a)
            if best is None or key < best[0]:
                best = (key, a, b)
    _, a, b = best
    return [i for i in range(m) if i < a or i > b]


# ties: values from a small set repeat gaps; all-equal: every fit is exact
cluster_inputs = st.one_of(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]), min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, st.floats(min_value=-1e3, max_value=1e3),
              st.integers(1, 30)),
)


@given(cluster_inputs, st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_cluster_filter_matches_loop(values, min_cluster):
    assert cluster_filter(values, min_cluster) == \
        loop_cluster_filter(values, min_cluster)


def test_cluster_filter_matches_loop_at_ritz_size(rng):
    values = np.sort(np.concatenate([rng.uniform(1.0, 2.0, 290),
                                     rng.uniform(10.0, 50.0, 10)]))[::-1]
    assert cluster_filter(values, 60) == loop_cluster_filter(values, 60)


# ---------------------------------------------------------------------------
# predictors


def test_predict_single_point_spectrum():
    pred = predict_iterations([1.0, 1.0], eps_cg=1e-6)
    assert pred.n_eps_classical == 1
    assert pred.sigma == 0.0


def test_predict_two_point_formula():
    pred = predict_iterations([1.0, 100.0], eps_cg=1e-6)
    expected = math.ceil(math.log(5e-7) / math.log(9.0 / 11.0))
    assert expected == 73
    assert pred.n_eps_classical == expected
    assert pred.sigma == pytest.approx(9.0 / 11.0)


def test_predict_p_zero_reduces_to_classical():
    lam = np.geomspace(1.0, 500.0, 20)
    pred = predict_iterations(lam, eps_cg=1e-6, p=0)
    assert pred.n_eps_isolated == pred.n_eps_classical


def test_predict_isolated_pairs_tighter():
    lam = np.concatenate([[1e-3, 4e-3], np.linspace(1.0, 2.0, 30),
                          [50.0, 200.0]])
    pred = predict_iterations(lam, eps_cg=1e-6, p=2)
    assert pred.n_eps_isolated <= pred.n_eps_classical


def test_predict_validation():
    with pytest.raises(ContractViolation):
        predict_iterations([2.0, 1.0], eps_cg=1e-6)
    with pytest.raises(ContractViolation):
        predict_iterations([-1.0, 2.0], eps_cg=1e-6)
    with pytest.raises(ContractViolation):
        predict_iterations([1.0, 2.0], eps_cg=1e-6, p=1)
    with pytest.raises(ContractViolation):
        predict_iterations([1.0, 2.0], eps_cg=2.0)


def test_observed_iterations_below_classical_bound(rng):
    lam = np.geomspace(1.0, 100.0, 25)
    A = SparseSpdMatrix.from_dense(np.diag(lam))
    x_true = rng.standard_normal(25)
    b = lam * x_true
    pred = predict_iterations(lam, eps_cg=1e-6)
    # track the A-norm error directly (the quantity the bound speaks about)
    D = build_deflation(A, np.zeros((25, 0)))
    cfg = SolveConfig(tol=1e-10, max_iters=pred.n_eps_classical)
    x, trace = apcg_solve(A, Preconditioner.identity(), D, b, cfg)
    err = x - x_true
    e0 = math.sqrt(x_true @ (lam * x_true))
    assert math.sqrt(err @ (lam * err)) <= 1e-6 * e0


# ---------------------------------------------------------------------------
# instantaneous rate


def test_instantaneous_rate_trivial_case():
    lam = [1.0, 2.0, 4.0]
    bound = instantaneous_rate(lam, [1.5], l=0, r=0)
    kappa = 4.0
    sigma = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    assert bound == pytest.approx(2.0 * sigma)


def test_instantaneous_rate_degenerate_is_inf():
    lam = [1.0, 2.0, 4.0]
    # theta coincides with an interior eigenvalue used in a denominator
    assert instantaneous_rate(lam, [2.0], l=1, r=0) == math.inf


def test_instantaneous_rate_converged_extremes_deflate():
    lam = list(np.concatenate([[0.01], np.linspace(1.0, 2.0, 10), [50.0]]))
    # exact extreme Ritz values: deflated rate with a finite factor
    bound = instantaneous_rate(lam, [0.01, 1.4, 50.0], l=1, r=1)
    kappa = 2.0 / 1.0
    sigma = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    assert math.isfinite(bound)
    assert bound >= 2.0 * sigma * 0.99


def test_instantaneous_rate_validation():
    with pytest.raises(ContractViolation):
        instantaneous_rate([1.0, 2.0], [1.5], l=1, r=1)
    with pytest.raises(ContractViolation):
        instantaneous_rate([1.0, 2.0], [1.0, 1.5, 2.0], l=2, r=1)


def test_instantaneous_rate_bounds_observed_contraction(rng):
    lam = np.arange(1.0, 21.0)
    A = SparseSpdMatrix.from_dense(np.diag(lam))
    x_true = rng.standard_normal(20)
    b = lam * x_true
    D = build_deflation(A, np.zeros((20, 0)))
    cfg = SolveConfig(tol=1e-12, max_iters=40, store_directions=True)
    _, trace = apcg_solve(A, Preconditioner.identity(), D, b, cfg)
    view = lanczos_from_trace(trace)

    # reconstruct the error history from the stored directions
    xs = [np.zeros(20)]
    for alpha, w in zip(trace.alphas, trace.w_history):
        xs.append(xs[-1] + alpha * w)
    errs = [math.sqrt((x - x_true) @ (lam * (x - x_true))) for x in xs]

    for i in range(3, min(10, view.m)):
        theta = tridiag_eig(view.tridiag.truncated(i)).values
        best = min(instantaneous_rate(lam, theta, l, r)
                   for l in range(3) for r in range(3) if l + r <= i)
        observed = errs[i + 1] / errs[i]
        assert observed <= best * (1.0 + 1e-8)
