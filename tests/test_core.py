"""Dense/sparse kernel tests: CSR container, Cholesky, eigensolvers."""
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse

from recycg import (ContractViolation, EigDecomposition, InclusionGridSpec,
                    RankDeficient, SparseSpdMatrix, TridiagSym, benchmark_spec,
                    core, dense_cholesky, dense_sym_eig,
                    generate_diffusion_sequence, tridiag_eig)
from conftest import random_spd


# ---------------------------------------------------------------------------
# SparseSpdMatrix container


def test_from_dense_round_trip():
    dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    A = SparseSpdMatrix.from_dense(dense)
    assert A.n == 3
    assert A.nnz == 7
    np.testing.assert_array_equal(A.to_dense(), dense)
    np.testing.assert_array_equal(A.diagonal(), [2.0, 2.0, 2.0])


def test_keep_zeros_stores_full_pattern():
    A = SparseSpdMatrix.from_dense(np.eye(3), keep_zeros=True)
    assert A.nnz == 9


def test_rejects_nonsquare():
    with pytest.raises(ContractViolation):
        SparseSpdMatrix.from_dense(np.ones((2, 3)))


def test_rejects_missing_diagonal():
    # off-diagonal-only pattern: no diagonal entries at all
    with pytest.raises(ContractViolation):
        SparseSpdMatrix(2, np.array([0, 1, 2]), np.array([1, 0]),
                        np.array([1.0, 1.0]))


def test_rejects_nonpositive_diagonal():
    with pytest.raises(ContractViolation):
        SparseSpdMatrix.from_dense(np.diag([1.0, -2.0]))


def test_rejects_asymmetric_values():
    ro = np.array([0, 2, 4])
    ci = np.array([0, 1, 0, 1])
    va = np.array([1.0, 2.0, 3.0, 1.0])  # (0,1) != (1,0)
    with pytest.raises(ContractViolation):
        SparseSpdMatrix(2, ro, ci, va)


def test_rejects_unsorted_columns():
    ro = np.array([0, 2, 4])
    ci = np.array([1, 0, 0, 1])  # row 0 columns out of order
    va = np.array([2.0, 1.0, 2.0, 1.0])
    with pytest.raises(ContractViolation):
        SparseSpdMatrix(2, ro, ci, va)


@pytest.mark.parametrize("ci", [[0, 1, 1, 5], [-1, 0, 0, 1]])
def test_rejects_column_index_out_of_range(ci):
    # every row has its diagonal, so only the range check can catch this
    with pytest.raises(ContractViolation, match="out of range"):
        SparseSpdMatrix(2, np.array([0, 2, 4]), np.array(ci), np.ones(4))


def test_rejects_asymmetric_pattern_with_explicit_zero():
    ro = np.array([0, 2, 3])
    ci = np.array([0, 1, 1])  # (0, 1) stored as an explicit zero, (1, 0) not
    va = np.array([1.0, 0.0, 1.0])
    with pytest.raises(ContractViolation, match="symmetric"):
        SparseSpdMatrix(2, ro, ci, va)


def test_rejects_inconsistent_offsets():
    with pytest.raises(ContractViolation):
        SparseSpdMatrix(2, np.array([0, 1]), np.array([0]), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_nonfinite_values(bad):
    for dense in (np.diag([1.0, bad]), np.array([[2.0, bad], [bad, 2.0]])):
        with pytest.raises(ContractViolation, match="finite"):
            SparseSpdMatrix.from_dense(dense)


# ---------------------------------------------------------------------------
# spmv (A @ x)


def test_spmv_identity():
    A = SparseSpdMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(A @ [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_spmv_diagonal():
    A = SparseSpdMatrix.from_dense(np.diag([2.0, 3.0]))
    np.testing.assert_array_equal(A @ [1.0, 1.0], [2.0, 3.0])


def test_spmv_laplacian_stencil():
    lap = (2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1))
    A = SparseSpdMatrix.from_dense(lap)
    np.testing.assert_array_equal(A @ [1.0, 0.0, 0.0, 0.0],
                                  [2.0, -1.0, 0.0, 0.0])


def test_spmv_dimension_mismatch():
    A = SparseSpdMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError):
        A @ np.ones(4)


def test_spmv_symmetry_bilinear(rng):
    A = SparseSpdMatrix.from_dense(random_spd(20, rng), keep_zeros=True)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    assert (A @ x) @ y == pytest.approx((A @ y) @ x, rel=1e-12)


def csr_product(A, x):
    """``A @ x`` through scipy's CSR kernel on A's own arrays."""
    return scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                   shape=(A.n, A.n)) @ x


@pytest.mark.parametrize("grid", [(50,), (16, 12), (6, 5, 7)], ids=["50", "16x12", "6x5x7"])
def test_banded_spmv_bit_identical_to_csr(grid, rng):
    spec = InclusionGridSpec(grid=grid, inclusion_layout=(tuple((1, 3) for _ in grid),),
                             rel_std=0.3, seed=3)
    for A, _ in generate_diffusion_sequence(spec, 2):
        assert isinstance(core._dia_operator(A), scipy.sparse.dia_matrix)
        for x in (rng.standard_normal(A.n), rng.standard_normal(A.n) * 1e-300):
            assert np.array_equal(A @ x, csr_product(A, x))


def test_unbanded_matrix_keeps_csr_without_warning(rng):
    n = 60
    S = scipy.sparse.random(n, n, density=0.05, random_state=7, format="csr")
    A = SparseSpdMatrix.from_scipy(S + S.T + scipy.sparse.identity(n) * n)
    x = rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = A @ x
        assert core._dia_operator(A) is None
    assert np.array_equal(y, csr_product(A, x))


def test_block_operand_keeps_csr_product(rng):
    A, _ = next(generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 1))
    X = rng.standard_normal((A.n, 5))
    A @ X[:, 0]  # the diagonals of A are built
    assert np.array_equal(A @ X, csr_product(A, X))
    assert np.array_equal(A @ np.asfortranarray(X), csr_product(A, X))


def test_banded_kernel_holds_one_matrix_diagonals():
    systems = [A for A, _ in generate_diffusion_sequence(
        benchmark_spec(seed=0, grid=(32, 32)), 40)]
    x = np.ones(systems[0].n)
    diagonals = 5 * x.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = []
        for A in systems:
            A @ x
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    assert max(held) < 2 * diagonals  # one matrix's 5 diagonals of n at most
    ref = weakref.ref(A)
    del systems[:], A
    assert ref() is None
    assert core._dia_slot == (None, None)


# ---------------------------------------------------------------------------
# dense_cholesky


def test_cholesky_identity():
    np.testing.assert_allclose(dense_cholesky(np.eye(2)), np.eye(2))


def test_cholesky_empty():
    assert dense_cholesky(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("G", [np.float64(2.0), np.ones(3)])
def test_cholesky_rejects_non_matrix(G):
    with pytest.raises(ContractViolation):
        dense_cholesky(G)


def test_cholesky_2x2():
    L = dense_cholesky(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_singular_raises():
    with pytest.raises(RankDeficient) as exc_info:
        dense_cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert exc_info.value.column == 1


def test_cholesky_reassembly(rng):
    for n in (3, 10, 50):
        G = random_spd(n, rng)
        L = dense_cholesky(G)
        assert np.all(np.diag(L) > 0)
        np.testing.assert_allclose(L @ L.T, G,
                                   atol=1e-10 * np.linalg.norm(G))


def test_cholesky_large_matches_small_path(rng):
    # the factor at a size beyond the small cases above agrees with numpy's
    G = random_spd(40, rng)
    np.testing.assert_allclose(dense_cholesky(G), np.linalg.cholesky(G), rtol=1e-10)


def test_cholesky_rank_deficient_large_reports_column(rng):
    n = 40
    G = random_spd(n, rng)
    v = rng.standard_normal(n)
    # make column 20 an exact combination of earlier columns
    B = np.linalg.cholesky(G)
    B[:, 20] = B[:, 5] + 2.0 * B[:, 7]
    G2 = B @ B.T
    # a negative diagonal entry gives a negative pivot at column 30
    indefinite = G.copy()
    indefinite[30, 30] = -1.0
    for bad, column in ((0.5 * (G2 + G2.T), 20), (indefinite, 30)):
        with pytest.raises(RankDeficient) as exc_info:
            dense_cholesky(bad, pivot_rtol=1e-12)
        assert exc_info.value.column == column


def test_cholesky_lower_only_factors_in_place(rng):
    G = random_spd(30, rng)
    lower = np.asfortranarray(np.tril(G))
    lower[np.triu_indices(30, 1)] = np.nan  # the upper triangle is never read
    L = dense_cholesky(lower, lower_only=True)
    assert np.shares_memory(L, lower)
    np.testing.assert_array_equal(L, dense_cholesky(G))
    with pytest.raises(ContractViolation):
        dense_cholesky(np.ascontiguousarray(G), lower_only=True)  # row-major


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        dense_cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# TridiagSym


def test_tridiag_validation():
    with pytest.raises(ContractViolation):
        TridiagSym(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_tridiag_truncated():
    T = TridiagSym(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
    T2 = T.truncated(2)
    np.testing.assert_array_equal(T2.diag, [1.0, 2.0])
    np.testing.assert_array_equal(T2.offdiag, [0.5])
    with pytest.raises(ContractViolation):
        T.truncated(4)


def test_tridiag_to_dense():
    T = TridiagSym(np.array([2.0, 2.0]), np.array([1.0]))
    np.testing.assert_array_equal(T.to_dense(), [[2.0, 1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# eigensolvers


def _check_decomposition(eig: EigDecomposition, H):
    m = len(eig.values)
    assert np.all(np.diff(eig.values) <= 0)
    np.testing.assert_allclose(eig.vectors.T @ eig.vectors, np.eye(m),
                               atol=1e-12 * m)
    for theta, q in zip(eig.values, eig.vectors.T):
        assert np.linalg.norm(H @ q - theta * q) <= 1e-10 * np.linalg.norm(H)


def test_tridiag_eig_1x1():
    eig = tridiag_eig(TridiagSym(np.array([5.0]), np.empty(0)))
    np.testing.assert_array_equal(eig.values, [5.0])
    np.testing.assert_array_equal(eig.vectors, [[1.0]])


def test_tridiag_eig_2x2():
    T = TridiagSym(np.array([2.0, 2.0]), np.array([1.0]))
    eig = tridiag_eig(T)
    np.testing.assert_allclose(eig.values, [3.0, 1.0])
    _check_decomposition(eig, T.to_dense())


def test_tridiag_eig_laplacian_closed_form():
    T = TridiagSym(np.full(4, 2.0), np.full(3, -1.0))
    eig = tridiag_eig(T)
    expected = sorted((2.0 - 2.0 * np.cos(k * np.pi / 5.0) for k in range(1, 5)),
                      reverse=True)
    np.testing.assert_allclose(eig.values, expected, rtol=1e-12)
    _check_decomposition(eig, T.to_dense())


def test_dense_sym_eig_examples():
    np.testing.assert_allclose(dense_sym_eig(np.eye(3)).values, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(dense_sym_eig([[2.0, 1.0], [1.0, 2.0]]).values,
                               [3.0, 1.0])
    eig = dense_sym_eig(np.diag([9.0, 4.0, 1.0]))
    np.testing.assert_allclose(eig.values, [9.0, 4.0, 1.0])
    np.testing.assert_allclose(np.abs(eig.vectors), np.eye(3), atol=1e-14)


def test_dense_sym_eig_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        dense_sym_eig([[1.0, 2.0], [0.0, 1.0]])


def test_solvers_agree_on_tridiagonal(rng):
    for m in (2, 5, 12):
        T = TridiagSym(rng.uniform(1.0, 3.0, m), rng.uniform(-1.0, 1.0, m - 1))
        v1 = tridiag_eig(T).values
        v2 = dense_sym_eig(T.to_dense()).values
        np.testing.assert_allclose(v1, v2, rtol=1e-9,
                                   atol=1e-9 * np.abs(v2).max())


def _cofactor_det(G):
    n = G.shape[0]
    if n == 1:
        return G[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(G, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * G[0, j] * _cofactor_det(minor)
    return total


def test_eigenvalues_match_trace_and_determinant(rng):
    for n in (2, 4, 6, 8):
        G = random_spd(n, rng, condition=10.0)
        eig = dense_sym_eig(G)
        assert eig.values.sum() == pytest.approx(np.trace(G), rel=1e-8)
        assert np.prod(eig.values) == pytest.approx(_cofactor_det(G), rel=1e-8)
