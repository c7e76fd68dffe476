"""
Shared dense and sparse linear-algebra kernels.

Everything else in the package is built on the few primitives defined here:
a CSR container for symmetric positive definite operators (applied with
``A @ x``, to a vector in diagonal form when the matrix is banded), a LAPACK
dense Cholesky with explicit rank reporting, and symmetric eigensolvers
(tridiagonal and full) that return sorted, orthonormal decompositions.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

# A matrix whose distinct diagonals hold at most this many slots per stored
# entry is applied to vectors in scipy's DIA (diagonal) form.  At n 4096 (one
# OpenBLAS thread, 2-core Xeon VM) a DIA SpMV took 14 us against 21 us in CSR
# on the 5-point stencil (1.01 slots per entry), broke even near 1.8 slots per
# entry and was slower beyond; 1.5 keeps a margin below the break-even.
DIA_MAX_FILL = 1.5

# (weak reference to the matrix applied to a vector last, its DIA operator or
# None for CSR): one matrix's diagonals at a time, freed with the matrix
_dia_slot = (None, None)


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions."""


class RankDeficient(RuntimeError):
    """A Cholesky pivot failed; ``column`` is the offending column index."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"non-positive pivot at column {column}")


class NumericalFailure(RuntimeError):
    """An iterative kernel failed to converge or met an impossible state."""


@dataclass(frozen=True)
class SparseSpdMatrix:
    """Symmetric positive definite operator in CSR form (full pattern stored).

    Invariants checked at construction: finite values, structural symmetry
    with equal values, strictly positive diagonal present in every row,
    nondecreasing row offsets, and column indices in range and strictly
    increasing within each row.  The index arrays are stored in scipy's
    index dtype and shared with the CSR operator.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _csr: scipy.sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ro = np.asarray(self.row_offsets)
        ci = np.asarray(self.col_indices)
        va = np.asarray(self.values, dtype=np.float64)
        if len(ro) != self.n + 1 or ro[0] != 0 or ro[-1] != len(ci) or len(ci) != len(va):
            raise ContractViolation("inconsistent CSR arrays")
        if np.any(np.diff(ro) < 0):
            raise ContractViolation("row_offsets must be nondecreasing")
        # scipy's C kernels below index with these without bounds checks
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n):
            raise ContractViolation("col_indices out of range")
        if not np.all(np.isfinite(va)):
            raise ContractViolation("matrix values must be finite")
        # no copy of index arrays already in scipy's index dtype; the checks
        # below allocate no pattern-sized temporaries besides the transpose
        csr = scipy.sparse.csr_matrix((va, ci, ro), shape=(self.n, self.n))
        if not csr.has_canonical_format:
            raise ContractViolation("col_indices must be sorted within each row")
        if np.any(csr.diagonal() <= 0.0):
            raise ContractViolation("all diagonal entries must be present and positive")
        t = csr.T.tocsr()
        if not (np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)
                and np.array_equal(t.data, csr.data)):
            raise ContractViolation("matrix is not symmetric (pattern or values)")
        object.__setattr__(self, "row_offsets", csr.indptr)
        object.__setattr__(self, "col_indices", csr.indices)
        object.__setattr__(self, "values", csr.data)
        object.__setattr__(self, "_csr", csr)

    @classmethod
    def from_dense(cls, dense, keep_zeros=False):
        """Build from a dense symmetric array, optionally keeping the full pattern."""
        dense = np.asarray(dense, dtype=np.float64)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise ContractViolation("dense input must be square")
        sym = 0.5 * (dense + dense.T)
        if keep_zeros:
            ro = np.arange(n + 1) * n
            ci = np.tile(np.arange(n), n)
            return cls(n, ro, ci, sym.ravel())
        return cls.from_scipy(sym)

    @classmethod
    def from_scipy(cls, mat):
        csr = scipy.sparse.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    def to_dense(self):
        return self._csr.toarray()

    def diagonal(self):
        return self._csr.diagonal()

    @property
    def nnz(self):
        return len(self.values)

    def __matmul__(self, other):
        """``A @ x`` for a vector or a block of columns.

        A vector meets a banded matrix in DIA form, which gives the CSR
        product bit for bit when the vector is finite: both kernels start
        each row from zero and add its terms in ascending column order, and
        DIA's padding adds 0 * x_j, an exact zero.  Blocks, and matrices with
        more padding, stay in CSR.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            dia = _dia_operator(self)
            if dia is not None:
                return dia @ other
        return self._csr @ other


def _dia_operator(A):
    """A's DIA operator (None: CSR), built at A's first SpMV after another
    matrix's, so the constructor does not pay for it."""
    global _dia_slot
    ref, dia = _dia_slot
    if ref is None or ref() is not A:
        dia = _banded(A)
        _dia_slot = (weakref.ref(A, _release_dia), dia)
    return dia


def _release_dia(ref):
    global _dia_slot
    if _dia_slot[0] is ref:
        _dia_slot = (None, None)


def _banded(A):
    """A in DIA form, or None when its diagonals hold more than
    ``DIA_MAX_FILL`` slots per stored entry."""
    n = A.n
    rows = np.repeat(np.arange(n, dtype=A.col_indices.dtype), np.diff(A.row_offsets))
    shifted = A.col_indices - rows + n  # offset j - i of each entry, plus n
    present = np.bincount(shifted, minlength=2 * n + 1) > 0
    kept = np.flatnonzero(present) - n
    if len(kept) * n > DIA_MAX_FILL * A.nnz:
        return None
    # scipy's DIA layout: data[d, j] holds A[j - kept[d], j]; the running
    # count of present offsets numbers each entry's diagonal
    data = np.zeros(len(kept) * n)
    data[(np.cumsum(present) - 1)[shifted] * n + A.col_indices] = A.values
    return scipy.sparse.dia_matrix((data.reshape(len(kept), n), kept), shape=(n, n))


@dataclass(frozen=True)
class TridiagSym:
    """Symmetric tridiagonal matrix stored as diagonal/off-diagonal arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.float64)
        e = np.asarray(self.offdiag, dtype=np.float64)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if len(d) < 1 or len(e) != len(d) - 1:
            raise ContractViolation("need |offdiag| = |diag| - 1 with |diag| >= 1")

    @property
    def m(self):
        return len(self.diag)

    def truncated(self, m):
        """Leading principal ``m x m`` submatrix."""
        if not 1 <= m <= self.m:
            raise ContractViolation("truncation size out of range")
        return TridiagSym(self.diag[:m].copy(), self.offdiag[:m - 1].copy())

    def to_dense(self):
        T = np.diag(self.diag)
        idx = np.arange(self.m - 1)
        T[idx, idx + 1] = self.offdiag
        T[idx + 1, idx] = self.offdiag
        return T


@dataclass(frozen=True)
class EigDecomposition:
    """Eigenvalues sorted descending with column-matched orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _as_descending(values, vectors):
    order = np.argsort(values)[::-1]
    return EigDecomposition(np.ascontiguousarray(values[order]),
                            np.ascontiguousarray(vectors[:, order]))


def tridiag_eig(T: TridiagSym) -> EigDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix."""
    if T.m == 1:
        return EigDecomposition(T.diag.copy(), np.ones((1, 1)))
    try:
        values, vectors = scipy.linalg.eigh_tridiagonal(T.diag, T.offdiag)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise NumericalFailure(str(exc)) from exc
    return _as_descending(values, vectors)


def dense_sym_eig(G) -> EigDecomposition:
    """Full eigendecomposition of a dense symmetric matrix (brute-force oracle)."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ContractViolation("input must be square")
    scale = np.linalg.norm(G)
    if scale > 0 and np.linalg.norm(G - G.T) > 1e-12 * scale:
        raise ContractViolation("input is not symmetric")
    try:
        values, vectors = np.linalg.eigh(0.5 * (G + G.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(str(exc)) from exc
    return _as_descending(values, vectors)


def dense_cholesky(G, pivot_rtol=0.0, lower_only=False):
    """Lower Cholesky factor of a dense symmetric positive definite matrix.

    One LAPACK ``potrf`` call for every size; the pivot guard is applied to
    the computed pivots afterwards.

    Parameters
    ----------
    G : array_like
        Symmetric matrix (checked within ``1e-12 * ||G||``).
    pivot_rtol : float
        Pivots below ``pivot_rtol`` times the largest pivot seen so far are
        treated as rank deficiencies (used as the basis rank guard).
    lower_only : bool
        ``G`` is a column-major float64 array that holds the matrix in its
        lower triangle only, as ``solver.build_deflation`` forms it.  The
        upper triangle is neither read nor checked for symmetry, and ``G``
        is overwritten by the factor, so no copy of it is made.

    Raises
    ------
    RankDeficient
        On a non-positive, non-finite or guarded pivot; carries the offending
        column index so the caller can drop dependent columns.
    """
    if lower_only:
        if not (isinstance(G, np.ndarray) and G.dtype == np.float64
                and G.flags.f_contiguous and G.flags.writeable):
            raise ContractViolation("lower_only needs a writable column-major float64 array")
    else:
        G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ContractViolation("input must be square")
    if not lower_only:
        scale = np.linalg.norm(G)
        if scale > 0 and np.linalg.norm(G - G.T) > 1e-12 * scale:
            raise ContractViolation("input is not symmetric")
    # LAPACK stops at the first non-positive pivot and reports its column as
    # info - 1; the columns after it are left unfactored.  It lets NaN pivots
    # through, so the factor is checked for finiteness here.
    L, info = scipy.linalg.lapack.dpotrf(G, lower=1, clean=1, overwrite_a=int(lower_only))
    d = np.diag(L) ** 2
    prev_max = np.concatenate(([0.0], np.maximum.accumulate(d)[:-1]))
    bad = ~np.isfinite(L).all(axis=0) | (d <= prev_max * pivot_rtol) | (d <= 0.0)
    if info > 0:
        bad[info - 1] = True
    if np.any(bad):
        raise RankDeficient(int(np.argmax(bad)))
    return L
