"""Dense/sparse kernel tests: CSR container, Cholesky, eigensolvers."""
import copy
import hashlib
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse

from recycg import (ContractViolation, EigDecomposition, InclusionGridSpec,
                    RankDeficient, SparseSpdMatrix, TridiagSym, benchmark_spec,
                    core, dense_cholesky, generate_diffusion_sequence,
                    tridiag_eig)
from conftest import dense_sym_eig, random_spd, tridiag_dense


# ---------------------------------------------------------------------------
# SparseSpdMatrix container


def test_from_dense_round_trip():
    dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    A = SparseSpdMatrix.from_dense(dense)
    assert A.n == 3
    assert A.nnz == 7
    np.testing.assert_array_equal(A.to_dense(), dense)
    np.testing.assert_array_equal(A.diagonal(), [2.0, 2.0, 2.0])


def test_matrix_pickles_and_copies_as_its_arrays(rng):
    A, _ = next(generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 1))
    x = rng.standard_normal(A.n)
    y = A @ x  # A's pattern now holds its DIA operator
    for B in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
        assert B.n == A.n and all(np.array_equal(getattr(B, name), getattr(A, name))
                                  for name in ("row_offsets", "col_indices", "values"))
        assert np.array_equal(B @ x, y)


def test_rejects_nonsquare():
    for dense in (np.ones((2, 3)), np.ones(3), np.float64(2.0)):
        with pytest.raises(ContractViolation, match="dense input must be square"):
            SparseSpdMatrix.from_dense(dense)


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
    A = SparseSpdMatrix.from_dense(random_spd(20, rng))
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
        for x in (rng.standard_normal(A.n), rng.standard_normal(A.n) * 1e-300):
            assert np.array_equal(A @ x, csr_product(A, x))
        assert isinstance(A._pattern._last[1], scipy.sparse.dia_matrix)


def test_unbanded_matrix_keeps_csr_without_warning(rng):
    n = 60
    S = scipy.sparse.random(n, n, density=0.05, random_state=7, format="csr")
    A = SparseSpdMatrix.from_scipy(S + S.T + scipy.sparse.identity(n) * n)
    x = rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = A @ x
        assert A._pattern.slots is None and A._pattern._last == (None, None)
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
    pattern, ref, dia = A._pattern, weakref.ref(A), weakref.ref(A._pattern._last[1])
    assert all(B._pattern is pattern for B in systems)
    del systems[:], A
    # the pattern keeps no matrix alive, and drops the operator of a dead one
    assert ref() is None and dia() is None
    assert pattern._last == (None, None)


def test_matrices_of_one_pattern_apply_their_own_values(rng):
    sequence = generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 3)
    (A1, _), (A2, _) = next(sequence), next(sequence)
    x = rng.standard_normal(A1.n)
    for A in (A1, A2, A1, A1, A2):
        assert np.array_equal(A @ x, csr_product(A, x))
    pattern = A1._pattern
    del A, A1, A2  # the next matrix may take a freed address
    A3, _ = next(sequence)
    assert A3._pattern is pattern and pattern._last == (None, None)
    assert np.array_equal(A3 @ x, csr_product(A3, x))


def test_threads_apply_their_own_matrices_of_one_pattern(rng):
    sequence = generate_diffusion_sequence(benchmark_spec(seed=0), 2)
    matrices = [A for A, _ in sequence]
    x = rng.standard_normal(matrices[0].n)
    expected = [csr_product(A, x) for A in matrices]
    wrong, start = [], threading.Barrier(2)

    def apply(A, y):
        start.wait(timeout=60)
        for _ in range(500):
            if not np.array_equal(A @ x, y):
                wrong.append(A)

    threads = [threading.Thread(target=apply, args=pair) for pair in zip(matrices, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong


def test_banded_matrix_makes_its_csr_only_for_a_block(rng):
    A, _ = next(generate_diffusion_sequence(benchmark_spec(seed=0, grid=(16, 16)), 1))
    A @ rng.standard_normal(A.n)
    assert np.array_equal(A.diagonal(), csr_product(A, np.eye(A.n)).diagonal())
    assert "_csr" not in vars(A)
    X = rng.standard_normal((A.n, 3))
    A @ X
    csr = A._csr
    assert np.array_equal(A @ X, csr_product(A, X)) and A._csr is csr


# ---------------------------------------------------------------------------
# shared CSR patterns


def tridiagonal_pattern(n):
    """Writable (row_offsets, col_indices, values) of a 1-D Laplacian."""
    A = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    return A.indptr.copy(), A.indices.copy(), A.data.copy()


@pytest.mark.parametrize("fault, message", [
    ("nan", "matrix values must be finite"),
    ("inf", "matrix values must be finite"),
    ("diagonal", "all diagonal entries must be present and positive"),
    ("asymmetric", "matrix is not symmetric (pattern or values)"),
])
def test_cached_pattern_still_checks_values(fault, message, monkeypatch):
    ro, ci, va = tridiagonal_pattern(5)
    SparseSpdMatrix(5, ro, ci, va)

    def missed(*args):
        raise AssertionError("the pattern was checked again")

    monkeypatch.setattr(core, "_check_pattern", missed)
    bad = va.copy()
    if fault == "nan":
        bad[3] = np.nan
    elif fault == "inf":
        bad[0] = -np.inf
    elif fault == "diagonal":
        bad[ro[2] + 1] = 0.0  # entry (2, 2)
    else:
        bad[1] = -0.5  # (0, 1) != (1, 0)
    with pytest.raises(ContractViolation, match=re.escape(message)):
        SparseSpdMatrix(5, ro, ci, bad)
    SparseSpdMatrix(5, ro, ci, va)  # a hit, since the slot kept the pattern


@pytest.mark.parametrize("cached", [False, True])
def test_first_fault_reported_with_or_without_cached_pattern(cached, monkeypatch):
    ro, ci, va = tridiagonal_pattern(4)
    nan_values = va.copy()
    nan_values[-1] = np.nan
    negative_diagonal = -va
    if cached:
        SparseSpdMatrix(4, ro, ci, va)
    else:
        monkeypatch.setattr(core, "_pattern_slot", None)
    with pytest.raises(ContractViolation, match="finite"):
        SparseSpdMatrix(4, ro, ci, nan_values)
    with pytest.raises(ContractViolation, match="diagonal"):
        SparseSpdMatrix(4, ro, ci, negative_diagonal)
    # an unsorted or asymmetric pattern with bad values reports the values
    swapped = ci.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    with pytest.raises(ContractViolation, match="finite"):
        SparseSpdMatrix(4, ro, swapped, nan_values)
    one_sided = ci.copy()
    one_sided[1] = 2  # (0, 2) without (2, 0)
    with pytest.raises(ContractViolation, match="diagonal"):
        SparseSpdMatrix(4, ro, one_sided, negative_diagonal)


@pytest.mark.parametrize("name, ro, ci", [
    ("row_offsets", [0, 1.7, 2.0], [0, 1]),
    ("col_indices", [0, 1, 2], [0, 1.9]),
    ("row_offsets", [False, True, True], [0, 1]),
    ("col_indices", [0, 1, 2], [False, True]),
])
def test_rejects_index_arrays_that_are_not_integers(name, ro, ci):
    with pytest.raises(ContractViolation, match=name):
        SparseSpdMatrix(2, np.array(ro), np.array(ci), np.array([1.0, 2.0]))


def test_index_arrays_keep_int32_and_int64_and_widen_the_rest():
    for dtype, stored in [(np.int32, np.int32), (np.int64, np.int64),
                          (np.int8, np.int32), (np.uint64, np.int32)]:
        ro, ci = np.arange(3, dtype=dtype), np.arange(2, dtype=dtype)
        A = SparseSpdMatrix(2, ro, ci, np.array([1.0, 2.0]))
        assert A.row_offsets.dtype == A.col_indices.dtype == stored
        assert np.shares_memory(A.col_indices, ci) == (dtype == stored)
    with pytest.raises(ContractViolation, match="bad n value 2.0"):
        SparseSpdMatrix(2.0, ro, ci, np.array([1.0, 2.0]))


def test_transpose_permutation_is_the_stable_column_sort(rng):
    ro, ci, va = tridiagonal_pattern(5)
    matrices = [SparseSpdMatrix(5, ro, ci, va), SparseSpdMatrix.from_dense(random_spd(20, rng))]
    for grid in [(50,), (16, 12), (6, 5, 7)]:
        spec = InclusionGridSpec(grid=grid, inclusion_layout=(tuple((1, 3) for _ in grid),))
        matrices += [A for A, _ in generate_diffusion_sequence(spec, 1)]
    S = scipy.sparse.random(60, 60, density=0.05, random_state=7, format="csr")
    matrices.append(SparseSpdMatrix.from_scipy(S + S.T + scipy.sparse.identity(60) * 60))
    for A in matrices:
        assert np.array_equal(A._pattern.perm, np.argsort(A.col_indices, kind="stable"))


def test_pattern_changed_in_place_is_checked_again(monkeypatch):
    ro, ci, va = tridiagonal_pattern(4)
    monkeypatch.setattr(core, "_pattern_slot", None)
    SparseSpdMatrix(4, ro, ci, va)  # checks these very arrays
    ci[1] = 2  # row 0 now holds (0, 2), and row 2 has no (2, 0)
    with pytest.raises(ContractViolation, match="symmetric"):
        SparseSpdMatrix(4, ro, ci, va)
    ci[1] = 1
    ro[1] = 1  # row 0 keeps only its diagonal, row 1 gains (0, 1)'s slot
    with pytest.raises(ContractViolation):
        SparseSpdMatrix(4, ro, ci, va)


def reference_banded(A):
    """A's DIA form built from its own arrays: the reference for the cached layout."""
    n = A.n
    rows = np.repeat(np.arange(n, dtype=A.col_indices.dtype), np.diff(A.row_offsets))
    shifted = A.col_indices - rows + n
    present = np.bincount(shifted, minlength=2 * n + 1) > 0
    kept = np.flatnonzero(present) - n
    if len(kept) * n > core.DIA_MAX_FILL * A.nnz:
        return None
    data = np.zeros(len(kept) * n)
    data[(np.cumsum(present) - 1)[shifted] * n + A.col_indices] = A.values
    return scipy.sparse.dia_matrix((data.reshape(len(kept), n), kept), shape=(n, n))


def test_dia_form_bit_identical_to_reference(rng):
    grids = [(50,), (16, 12), (6, 5, 7), (64, 64)]
    sequences = [list(generate_diffusion_sequence(
        InclusionGridSpec(grid=grid, inclusion_layout=(tuple((1, 3) for _ in grid),),
                          rel_std=0.3, seed=3), 2)) for grid in grids]
    S = scipy.sparse.random(40, 40, density=0.1, random_state=5, format="csr")
    unbanded = SparseSpdMatrix.from_scipy(S + S.T + scipy.sparse.identity(40) * 40)
    # matrices of different patterns in turn: each SpMV makes its operator anew
    for A in [A for pair in zip(*sequences) for A, _ in pair] + [unbanded]:
        ref = reference_banded(A)
        if ref is None:
            assert A._pattern.slots is None
            continue
        x = rng.standard_normal(A.n)
        assert np.array_equal(A @ x, ref @ x)
        dia = A._pattern.dia(A)
        assert np.array_equal(dia.offsets, ref.offsets)
        assert dia.data.dtype == ref.data.dtype and np.array_equal(dia.data, ref.data)


# col_indices and values of benchmark_spec(seed=0)'s 40 matrices, in order
BENCHMARK_MATRIX_DIGEST = "1d92845cbc1d0149c2a350eaa804d4d52d245b8e1ce885965b9362ee5482fa5a"


def test_benchmark_matrices_keep_their_bits():
    systems = [A for A, _ in generate_diffusion_sequence(benchmark_spec(seed=0), 40)]
    digest = hashlib.sha256()
    for A in systems:
        assert A.col_indices.dtype == np.int32 and A.values.dtype == np.float64
        digest.update(A.col_indices.tobytes())
        digest.update(A.values.tobytes())
    assert digest.hexdigest() == BENCHMARK_MATRIX_DIGEST
    # the matrices hold the generator's shared pattern, not copies of it
    assert all(np.shares_memory(A.col_indices, systems[0].col_indices) for A in systems)
    assert not any(np.shares_memory(A.col_indices, core._pattern_slot.col_indices)
                   for A in systems)


# ---------------------------------------------------------------------------
# dense_cholesky


def lower_copy(G):
    """The form ``dense_cholesky`` factors: G's lower triangle, column-major."""
    return np.asfortranarray(np.tril(G))


def test_cholesky_identity():
    np.testing.assert_allclose(dense_cholesky(lower_copy(np.eye(2))), np.eye(2))


def test_cholesky_empty():
    assert dense_cholesky(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("G", [np.float64(2.0), np.ones(3)])
def test_cholesky_rejects_non_matrix(G):
    with pytest.raises(ContractViolation):
        dense_cholesky(G)


def test_cholesky_2x2():
    L = dense_cholesky(lower_copy(np.array([[4.0, 2.0], [2.0, 2.0]])))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 1.0]])


def test_cholesky_singular_raises():
    with pytest.raises(RankDeficient) as exc_info:
        dense_cholesky(lower_copy(np.array([[1.0, 1.0], [1.0, 1.0]])))
    assert exc_info.value.column == 1


def test_cholesky_reassembly(rng):
    for n in (3, 10, 50):
        G = random_spd(n, rng)
        L = dense_cholesky(lower_copy(G))
        assert np.all(np.diag(L) > 0)
        np.testing.assert_allclose(L @ L.T, G,
                                   atol=1e-10 * np.linalg.norm(G))


def test_cholesky_large_matches_small_path(rng):
    # the factor at a size beyond the small cases above agrees with numpy's
    G = random_spd(40, rng)
    np.testing.assert_allclose(dense_cholesky(lower_copy(G)), np.linalg.cholesky(G),
                               rtol=1e-10)


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
            dense_cholesky(lower_copy(bad))
        assert exc_info.value.column == column


def test_cholesky_lower_only_factors_in_place(rng):
    G = random_spd(30, rng)
    lower = lower_copy(G)
    lower[np.triu_indices(30, 1)] = np.nan  # the upper triangle is never read
    L = dense_cholesky(lower)
    assert np.shares_memory(L, lower)
    np.testing.assert_array_equal(L, dense_cholesky(lower_copy(G)))
    with pytest.raises(ContractViolation):
        dense_cholesky(np.ascontiguousarray(G))  # row-major


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
    np.testing.assert_array_equal(tridiag_dense(T), [[2.0, 1.0], [1.0, 2.0]])


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
    _check_decomposition(eig, tridiag_dense(T))


def test_tridiag_eig_laplacian_closed_form():
    T = TridiagSym(np.full(4, 2.0), np.full(3, -1.0))
    eig = tridiag_eig(T)
    expected = sorted((2.0 - 2.0 * np.cos(k * np.pi / 5.0) for k in range(1, 5)),
                      reverse=True)
    np.testing.assert_allclose(eig.values, expected, rtol=1e-12)
    _check_decomposition(eig, tridiag_dense(T))


def test_solvers_agree_on_tridiagonal(rng):
    for m in (2, 5, 12):
        T = TridiagSym(rng.uniform(1.0, 3.0, m), rng.uniform(-1.0, 1.0, m - 1))
        v1 = tridiag_eig(T).values
        v2 = dense_sym_eig(tridiag_dense(T)).values
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
