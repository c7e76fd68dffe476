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

# (weak reference to the matrix applied to a vector last, its DIA operator or
# None for CSR): one matrix's diagonals at a time, freed with the matrix
_dia_slot = (None, None)
# the _Pattern of the matrix constructed or applied last: the matrices of a
# sequence share one pattern, which is checked and laid out once
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


@dataclass(frozen=True)
class SparseSpdMatrix:
    """Symmetric positive definite operator in CSR form (full pattern stored).

    Invariants checked at construction: finite values, structural symmetry
    with equal values, strictly positive diagonal present in every row,
    nondecreasing row offsets, and column indices in range and strictly
    increasing within each row.  The index arrays are stored in scipy's
    index dtype and shared with the CSR operator.  The pattern checks run
    once per pattern: a matrix whose index arrays hold the same numbers as
    the last checked pattern's has only its values checked.
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
        if len(ci) != len(va):
            raise ContractViolation("inconsistent CSR arrays")
        pattern = _pattern(self.n, ro, ci, va)
        if not np.all(np.isfinite(va)):
            raise ContractViolation("matrix values must be finite")
        if np.any(va[pattern.diag] <= 0.0):
            raise ContractViolation("all diagonal entries must be present and positive")
        if not np.array_equal(va[pattern.perm], va):
            raise ContractViolation("matrix is not symmetric (pattern or values)")
        # no copy of index arrays already in scipy's index dtype
        csr = scipy.sparse.csr_matrix((va, ci, ro), shape=(self.n, self.n))
        csr.has_canonical_format = True
        object.__setattr__(self, "row_offsets", csr.indptr)
        object.__setattr__(self, "col_indices", csr.indices)
        object.__setattr__(self, "values", csr.data)
        object.__setattr__(self, "_csr", csr)

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
    pattern = _pattern(A.n, A.row_offsets, A.col_indices, A.values)
    if pattern.slots is None:
        return None
    data = np.zeros(len(pattern.offsets) * A.n)
    data[pattern.slots] = A.values
    return scipy.sparse.dia_matrix((data.reshape(len(pattern.offsets), A.n), pattern.offsets),
                                   shape=(A.n, A.n))


@dataclass(frozen=True)
class _Pattern:
    """A checked CSR pattern and what its matrices' checks and DIA form read.

    ``row_offsets`` and ``col_indices`` are the pattern's own read-only
    copies, so an array changed in place after the check no longer matches.
    ``perm[k]`` is the position of entry (j, i) for the entry (i, j) at k,
    and ``diag[i]`` the position of entry (i, i).  ``offsets`` are the
    diagonals j - i the pattern occupies, and ``slots[k]`` is entry k's
    index in the flattened scipy DIA data, where ``data[d, j]`` holds
    ``A[j - offsets[d], j]``; both are None when the diagonals hold more
    than ``DIA_MAX_FILL`` slots per stored entry.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    perm: np.ndarray
    diag: np.ndarray
    offsets: np.ndarray | None
    slots: np.ndarray | None


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

    The value checks on ``va`` that precede a pattern check in the order
    of messages run before it, so a matrix with several faults reports the
    same one whether or not its pattern was checked before.
    """
    if len(ro) != n + 1 or ro[0] != 0 or ro[-1] != len(ci):
        raise ContractViolation("inconsistent CSR arrays")
    if np.any(ro[1:] < ro[:-1]):
        raise ContractViolation("row_offsets must be nondecreasing")
    # scipy's C kernels index with these without bounds checks
    if len(ci) and (ci.min() < 0 or ci.max() >= n):
        raise ContractViolation("col_indices out of range")
    if not np.all(np.isfinite(va)):
        raise ContractViolation("matrix values must be finite")
    # integer copies, as scipy casts index arrays of another type
    row_nnz, cols = np.diff(ro.astype(np.intp)), ci.astype(np.intp)
    rows = np.repeat(np.arange(n), row_nnz)
    if np.any((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1])):
        raise ContractViolation("col_indices must be sorted within each row")
    diag = np.flatnonzero(rows == cols)
    if len(diag) != n or np.any(va[diag] <= 0.0):
        raise ContractViolation("all diagonal entries must be present and positive")
    # the entries in column order are the transpose's in CSR order
    perm = np.argsort(cols, kind="stable")
    if not (np.array_equal(np.bincount(cols, minlength=n), row_nnz)
            and np.array_equal(rows[perm], cols)):
        raise ContractViolation("matrix is not symmetric (pattern or values)")
    shifted = cols - rows + n  # offset j - i of each entry, plus n
    present = np.bincount(shifted, minlength=2 * n + 1) > 0
    kept = np.flatnonzero(present) - n
    offsets = slots = None
    if len(kept) * n <= DIA_MAX_FILL * len(ci):
        # the running count of present offsets numbers each entry's diagonal
        offsets, slots = kept, (np.cumsum(present) - 1)[shifted] * n + cols
    ro, ci = ro.copy(), ci.copy()
    for a in (ro, ci, perm, diag, offsets, slots):
        if a is not None:
            a.flags.writeable = False
    return _Pattern(n, ro, ci, perm, diag, offsets, slots)


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


@dataclass(frozen=True)
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
