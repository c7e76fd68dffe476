"""
Shared dense and sparse linear-algebra kernels.

Everything else in the package is built on the few primitives defined here:
a CSR container for symmetric positive definite operators (applied with
``A @ x``, to a vector in diagonal form when the matrix is banded), a LAPACK
dense Cholesky with explicit rank reporting, a symmetric tridiagonal
eigensolver that returns sorted, orthonormal decompositions, and the one
checker through which every object converts a value it takes from outside.
"""
from __future__ import annotations

import functools
import operator
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
# a Cholesky pivot below this times the largest pivot before it marks its
# column as dependent on the earlier ones (the augmentation basis rank guard)
RANK_GUARD_RTOL = 1e-12

# the _Pattern checked last, which the matrices of a sequence share
_pattern_slot = None


class ContractViolation(ValueError):
    """An operation was called with inputs that break its preconditions."""


class RankDeficient(RuntimeError):
    """A Cholesky pivot failed; ``column`` is the offending column index."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"non-positive pivot at column {column}")


class NumericalFailure(RuntimeError):
    """An iterative kernel failed to converge or met an impossible state."""


def _number(convert):
    """``convert`` that refuses a boolean, which Python would read as 0 or 1."""
    def checked(value):
        if isinstance(value, (bool, np.bool_)):
            raise TypeError("a boolean is not a number")
        return convert(value)
    return checked


_integer, _real = _number(operator.index), _number(float)


def _field(name, value, convert, valid=lambda v: True):
    """``convert(value)``; a value that ``convert`` rejects or whose result
    fails ``valid`` raises a ContractViolation naming the field and value."""
    try:
        if valid(out := convert(value)):
            return out
    except (TypeError, ValueError):
        pass
    raise ContractViolation(f"bad {name} value {value!r}")


@dataclass(frozen=True, eq=False)
class SparseSpdMatrix:
    """Symmetric positive definite operator in CSR form (full pattern stored).

    Invariants checked at construction: integer index arrays, finite values,
    structural symmetry with equal values, strictly positive diagonal present
    in every row, nondecreasing row offsets, and column indices in range and
    strictly increasing within each row.  A matrix is its checked
    ``_Pattern`` plus its values.  The pattern checks run once per pattern:
    a matrix whose index arrays hold the same numbers as the last checked
    pattern's has only its values checked.  scipy's CSR form is made at the
    first product that needs it.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _pattern: _Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _field("n", self.n, _integer, lambda v: v >= 0)
        ro = _index_array("row_offsets", self.row_offsets)
        ci = _index_array("col_indices", self.col_indices)
        va = np.asarray(self.values, dtype=np.float64)
        if len(ci) != len(va):
            raise ContractViolation("inconsistent CSR arrays")
        if not np.all(np.isfinite(va)):
            raise ContractViolation("matrix values must be finite")
        pattern = _pattern(n, ro, ci, va)
        if np.any(va[pattern.diag] <= 0.0):
            raise ContractViolation("all diagonal entries must be present and positive")
        if not np.array_equal(va[pattern.perm], va):
            raise ContractViolation("matrix is not symmetric (pattern or values)")
        self.__dict__.update(n=n, row_offsets=ro, col_indices=ci, values=va, _pattern=pattern)

    @classmethod
    def from_dense(cls, dense):
        """Build from a dense array, symmetrized; explicit zeros are not stored."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ContractViolation("dense input must be square")
        return cls.from_scipy(0.5 * (dense + dense.T))

    @classmethod
    def from_scipy(cls, mat):
        csr = scipy.sparse.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.indptr, csr.indices, csr.data)

    def __reduce__(self):
        """Pickled and copied as the four fields, checked again when rebuilt."""
        return type(self), (self.n, self.row_offsets, self.col_indices, self.values)

    @functools.cached_property
    def _csr(self):
        return scipy.sparse.csr_matrix((self.values, self.col_indices, self.row_offsets),
                                       shape=(self.n, self.n))

    def to_dense(self):
        return self._csr.toarray()

    def diagonal(self):
        return self.values[self._pattern.diag]

    @property
    def nnz(self):
        return len(self.values)

    def __matmul__(self, other):
        """``A @ x`` for a vector or a block of columns.

        A vector meets a banded matrix in its pattern's DIA form, which gives
        the CSR product bit for bit when the vector is finite: both kernels
        start each row from zero and add its terms in ascending column order,
        and DIA's padding adds 0 * x_j, an exact zero.  Blocks, and matrices
        with more padding, go through CSR.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1 and self._pattern.slots is not None:
            return self._pattern.dia(self) @ other
        return self._csr @ other


def _index_array(name, a):
    """``a`` as an index array: int32 and int64 as given, other integers as
    scipy casts them (to int32 where they fit); floats and booleans refused."""
    a = np.asarray(a)
    if a.dtype in (np.int32, np.int64):
        return a
    if a.size and a.dtype.kind not in "iu":
        raise ContractViolation(f"{name} must hold integers, not {a.dtype}")
    wide = a.size and (a.min() < -2**31 or a.max() >= 2**31)
    return a.astype(np.int64 if wide else np.int32)


@dataclass(eq=False)
class _Pattern:
    """A checked CSR pattern, what its matrices' checks and DIA form read.

    ``row_offsets`` and ``col_indices`` are the pattern's own read-only
    copies, so an array changed in place after the check no longer matches.
    ``perm[k]`` is the position of entry (j, i) for the entry (i, j) at k,
    and ``diag[i]`` the position of entry (i, i).  ``offsets`` are the
    diagonals j - i the pattern occupies, and ``slots[k]`` is entry k's
    index in the flattened scipy DIA data, where ``data[d, j]`` holds
    ``A[j - offsets[d], j]``; both are None when the diagonals hold more
    than ``DIA_MAX_FILL`` slots per stored entry.  ``_last`` holds a weak
    reference to the matrix applied to a vector last and its DIA operator;
    both are dropped when that matrix dies.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    perm: np.ndarray
    diag: np.ndarray
    offsets: np.ndarray | None
    slots: np.ndarray | None
    _last: tuple = field(default=(None, None), init=False)

    def dia(self, A):
        """A's DIA operator: the one kept for A, else a new one.  None is
        refilled, so no thread's product reads another matrix's values."""
        ref, dia = self._last
        if ref is None or ref() is not A:
            data = np.zeros(len(self.offsets) * self.n)
            data[self.slots] = A.values
            dia = scipy.sparse.dia_matrix((data.reshape(-1, self.n), self.offsets),
                                          shape=(self.n, self.n))
            self._last = (weakref.ref(A, self._forget), dia)
        return dia

    def _forget(self, ref):
        if self._last[0] is ref:
            self._last = (None, None)


def _pattern(n, ro, ci, va):
    """The _Pattern of ``(n, ro, ci)``: the slot's when its arrays hold the
    same numbers, else checked and laid out here and kept in the slot."""
    global _pattern_slot
    p = _pattern_slot
    if p is None or p.n != n or not (np.array_equal(p.row_offsets, ro)
                                     and np.array_equal(p.col_indices, ci)):
        p = _pattern_slot = _check_pattern(n, ro, ci, va)
    return p


def _check_pattern(n, ro, ci, va):
    """Check the pattern ``(n, ro, ci)`` and lay it out.

    The diagonal values ``va[diag]`` are checked with the diagonal's
    presence, before the symmetry check, so a matrix with several faults
    reports the same one whether or not its pattern was checked before.
    """
    if len(ro) != n + 1 or ro[0] != 0 or ro[-1] != len(ci):
        raise ContractViolation("inconsistent CSR arrays")
    if np.any(ro[1:] < ro[:-1]):
        raise ContractViolation("row_offsets must be nondecreasing")
    # scipy's C kernels index with these without bounds checks
    if len(ci) and (ci.min() < 0 or ci.max() >= n):
        raise ContractViolation("col_indices out of range")
    row_nnz = np.diff(ro)
    rows = np.repeat(np.arange(n), row_nnz)
    if np.any((ci[1:] <= ci[:-1]) & (rows[1:] == rows[:-1])):
        raise ContractViolation("col_indices must be sorted within each row")
    diag = np.flatnonzero(rows == ci)
    if len(diag) != n or np.any(va[diag] <= 0.0):
        raise ContractViolation("all diagonal entries must be present and positive")
    # the entries in column order are the transpose's in CSR order; scipy's
    # CSC conversion is a stable counting sort of the entry numbers by column
    perm = scipy.sparse.csr_matrix((np.arange(len(ci)), ci, ro), shape=(n, n)).tocsc().data
    if not (np.array_equal(np.bincount(ci, minlength=n), row_nnz)
            and np.array_equal(rows[perm], ci)):
        raise ContractViolation("matrix is not symmetric (pattern or values)")
    shifted = ci - rows + n  # offset j - i of each entry, plus n
    present = np.bincount(shifted, minlength=2 * n + 1) > 0
    kept = np.flatnonzero(present) - n
    offsets = slots = None
    if len(kept) * n <= DIA_MAX_FILL * len(ci):
        # the running count of present offsets numbers each entry's diagonal
        offsets, slots = kept, (np.cumsum(present) - 1)[shifted] * n + ci
    ro, ci = ro.copy(), ci.copy()
    for a in (ro, ci, perm, diag, offsets, slots):
        if a is not None:
            a.flags.writeable = False
    return _Pattern(n, ro, ci, perm, diag, offsets, slots)


@dataclass(frozen=True, eq=False)
class TridiagSym:
    """Symmetric tridiagonal matrix stored as diagonal/off-diagonal arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.float64)
        e = np.asarray(self.offdiag, dtype=np.float64)
        self.__dict__.update(diag=d, offdiag=e)
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


@dataclass(frozen=True, eq=False)
class EigDecomposition:
    """Eigenvalues sorted descending with column-matched orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


def tridiag_eig(T: TridiagSym) -> EigDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix."""
    try:
        values, vectors = scipy.linalg.eigh_tridiagonal(T.diag, T.offdiag)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise NumericalFailure(str(exc)) from exc
    order = np.argsort(values)[::-1]
    return EigDecomposition(np.ascontiguousarray(values[order]),
                            np.ascontiguousarray(vectors[:, order]))


def dense_cholesky(G):
    """Lower Cholesky factor of a symmetric positive definite matrix, in place.

    ``G`` is a writable column-major float64 square array holding the matrix
    in its lower triangle, as ``solver.build_deflation`` forms it; the upper
    triangle is not read, and ``G`` is overwritten by the factor.  One LAPACK
    ``potrf`` call; the pivot guard is applied to its pivots afterwards.

    Raises
    ------
    RankDeficient
        On a non-positive or non-finite pivot, or one below
        ``RANK_GUARD_RTOL`` times the largest pivot before it; carries the
        offending column index so the caller can drop dependent columns.
    """
    if not (isinstance(G, np.ndarray) and G.dtype == np.float64 and G.ndim == 2
            and G.shape[0] == G.shape[1] and G.flags.f_contiguous and G.flags.writeable):
        raise ContractViolation("need a writable square column-major float64 array")
    # LAPACK stops at the first non-positive pivot and reports its column as
    # info - 1; the columns after it are left unfactored.  It lets NaN pivots
    # through, so the factor is checked for finiteness here.
    L, info = scipy.linalg.lapack.dpotrf(G, lower=1, clean=1, overwrite_a=1)
    d = np.diag(L) ** 2
    prev_max = np.concatenate(([0.0], np.maximum.accumulate(d)[:-1]))
    bad = ~np.isfinite(L).all(axis=0) | (d <= prev_max * RANK_GUARD_RTOL) | (d <= 0.0)
    if info > 0:
        bad[info - 1] = True
    if np.any(bad):
        raise RankDeficient(int(np.argmax(bad)))
    return L
