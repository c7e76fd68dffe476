"""
Augmented preconditioned conjugate gradient with deflation projector.

The solve searches the Krylov space of the projected, preconditioned operator
on top of a fixed augmentation subspace spanned by the columns of C.  The
initialization solves the coarse problem exactly, so the residual stays
C-orthogonal throughout.  The deflation operator stores C, the operator A and
the Cholesky factor of C^T A C, no A C block: A is symmetric, so a projection
applies (A C)^T x as C^T (A x) with one SpMV.  The trace records the
coefficients and residual norms of every iteration, and the search directions
when the solve stores them.  A swept solve (TRKS, whose basis is the
directions) also sweeps each one A-orthogonal against the earlier ones and
keeps the coefficients; SRKS needs no sweep, since plain CG loses
orthogonality only by repeating converged Ritz values (see SolveConfig).
"""
from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (ContractViolation, NumericalFailure, SparseSpdMatrix,
                   _field, _integer, _real, dense_cholesky)

# columns of A C formed at once while the coarse matrix is built; 64 was the
# fastest of 32-256 at n 4096 (n_c 300 and 1589, one OpenBLAS thread on a
# 2-core Xeon VM), and it bounds the build's temporaries to a few n x 64 blocks
COARSE_CHUNK = 64
# threads that form the coarse build's chunk products C[:, j:]^T (A C_chunk), and
# the number in flight: numpy releases the GIL in BLAS, so two GEMMs use two cores
COARSE_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)


@dataclass(frozen=True)
class Preconditioner:
    """Diagonal SPD preconditioner stored as inverse entries (None: identity)."""

    inv_diag: np.ndarray | None = None

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def jacobi(cls, A: SparseSpdMatrix):
        return cls(1.0 / A.diagonal())

    @classmethod
    def user_diagonal(cls, diag):
        diag = np.asarray(diag, dtype=np.float64)
        # NaN fails both comparisons; +inf would give a zero inverse entry
        if not np.all((diag > 0.0) & (diag < np.inf)):
            raise ContractViolation("preconditioner diagonal must be positive and finite")
        return cls(1.0 / diag)

    def apply(self, r):
        """M^{-1} r"""
        if self.inv_diag is None:
            return r.copy()
        return self.inv_diag * r


@dataclass(frozen=True)
class DeflationOperator:
    """Projector P = I - C (C^T A C)^{-1} C^T A from C, A and the coarse factor.

    ``basis`` is the caller's block, not a copy; no n x n_c array besides it
    is kept.  Because A is symmetric, ``project`` forms C^T A x as C^T (A x),
    one SpMV per call (the form of Saad, Yeung, Erhel and Guyomarc'h, SISC
    2000), instead of reading a stored A C block as large as the basis.
    """

    basis: np.ndarray          # C, shape (n, n_c)
    A: SparseSpdMatrix
    coarse_factor: np.ndarray  # lower Cholesky factor of C^T A C

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def n_c(self):
        return self.basis.shape[1]

    def coarse_solve(self, rhs):
        """(C^T A C)^{-1} rhs via the cached Cholesky factor: two LAPACK
        ``trtrs`` calls on the same factor, L y = rhs then L^T x = y.

        The factor is checked finite once, when it is built; ``apcg_solve``
        checks ``b`` and every residual norm, so no per-call scan is needed.
        """
        # trtrs rejects an empty system
        if self.n_c == 0:
            return np.zeros(0)
        y, info = lapack.dtrtrs(self.coarse_factor, rhs, lower=1)
        if info == 0:
            y, info = lapack.dtrtrs(self.coarse_factor, y, lower=1, trans=1)
        if info != 0:
            raise NumericalFailure(f"triangular coarse solve failed (info {info})")
        return y

    def project(self, x):
        """P x using one SpMV, one block dot product, one coarse solve and
        one combination; on an empty basis, ``x`` itself."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ContractViolation("vector length mismatch in project")
        # plain PCG projects once per iteration, and P is the identity here
        if self.n_c == 0:
            return x
        return x - self.basis @ self.coarse_solve(self.basis.T @ (self.A @ x))

    def initial_guess(self, b):
        """x_0 = C (C^T A C)^{-1} C^T b"""
        return self.basis @ self.coarse_solve(self.basis.T @ b)


def build_deflation(A: SparseSpdMatrix, C) -> DeflationOperator:
    """Form and factor the coarse matrix C^T A C for the projector.

    The lower triangle of C^T A C is formed from ``COARSE_CHUNK`` columns of
    A C at a time and factored in place, so no n x n_c block besides C and
    no second n_c x n_c matrix is allocated.  Each chunk's product with C
    runs on one of ``COARSE_WORKERS`` threads that the build starts and joins
    before it returns, while the caller forms the next chunk; every product
    is the same call on the same operands for any worker count, so the
    factor is bit-identical to a serial build.  Raises
    ``RankDeficient`` (with the dependent column index) when the coarse
    matrix is not positive definite, or when a pivot falls below
    ``core.RANK_GUARD_RTOL`` times the largest pivot before it.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != A.n or C.shape[1] > A.n:
        raise ContractViolation("augmentation basis must be n x n_c with n_c <= n")
    n_c = C.shape[1]
    coarse = np.zeros((n_c, n_c), order="F")

    def fill(j, cols, AC_chunk):
        coarse[j:, cols] = C[:, j:].T @ AC_chunk

    # every A @ block stays on this thread, where a tracer wrapping it keeps
    # its one span stack, and a chunk is formed only once a worker is free,
    # so at most COARSE_WORKERS n x COARSE_CHUNK blocks are alive
    pending = deque()
    with ThreadPoolExecutor(COARSE_WORKERS, thread_name_prefix="recycg-coarse") as pool:
        for j in range(0, n_c, COARSE_CHUNK):
            if len(pending) == COARSE_WORKERS:
                pending.popleft().result()
            cols = slice(j, min(j + COARSE_CHUNK, n_c))
            pending.append(pool.submit(fill, j, cols, A @ C[:, cols]))
        for future in pending:
            future.result()
    L = dense_cholesky(coarse)
    return DeflationOperator(C, A, L)


@dataclass
class SolveConfig:
    """Tolerance, iteration cap and direction store of one solve; ``tol`` is
    stored as a float in (0, 1) and ``max_iters`` as an integer >= 1.

    ``store`` keeps nothing, the search directions, or the directions each
    swept A-orthogonal against all earlier ones.  ``Recycler`` sets it
    from the strategy: ``none`` keeps nothing; TRKS sweeps, since its basis
    is the directions (unswept, its tol 1e-6 benchmark run aborts at system
    29 with (r, z) <= 0); SRKS does not, since plain CG loses orthogonality
    only by repeating converged Ritz values, and without the sweep its
    selections at epsilon >= 1e-4 are the same.
    """

    tol: float = 1e-6
    max_iters: int = 1000
    store: str = "swept"

    def __post_init__(self):
        if self.store not in ("none", "directions", "swept"):
            raise ContractViolation(f"unknown direction store {self.store!r}")
        self.tol = _field("tol", self.tol, _real, lambda t: 0.0 < t < 1.0)
        self.max_iters = _field("max_iters", self.max_iters, _integer, lambda m: m >= 1)


@dataclass
class SolveTrace:
    """Per-iteration record of one APCG run.

    ``betas[j]`` is the positive Gram-Schmidt ratio (r_{j+1}, z_{j+1}) /
    (r_j, z_j) coupling directions j and j+1, so the Lanczos tridiagonal can
    be rebuilt from ``alphas``/``betas`` alone.  ``directions`` is the
    (m, n) block of stored search directions, one per row; a swept solve
    (TRKS, whose basis they become) fills ``sweeps`` with the coefficients
    c_j of each sweep, w_j = z_j + beta_{j-1} w_{j-1} - c_j @ directions[:j]
    (an unswept SRKS solve, see ``SolveConfig``, leaves it empty: c_j = 0).
    ``iterations`` is the number of alphas, m; every trace, converged or
    stopped by the cap, has m - 1 betas and, when swept, m - 1 sweeps.
    """

    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    rz_inner: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    converged: bool = False
    directions: np.ndarray | None = None
    true_residual_norm: float = math.nan  # ||b - A x|| of the returned x

    @property
    def iterations(self):
        return len(self.alphas)

    def to_json_dict(self):
        """The coefficients and residual norms; no Krylov vectors are written."""
        return {
            "alphas": list(map(float, self.alphas)),
            "betas": list(map(float, self.betas)),
            "rz_inner": list(map(float, self.rz_inner)),
            "residual_norms": list(map(float, self.residual_norms)),
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, d):
        """The trace of ``to_json_dict``; an ``iterations`` entry that is not
        the number of alphas, or a ``converged`` entry that is not a JSON
        boolean, is rejected."""
        alphas = list(d.get("alphas", []))
        if _field("iterations", d.get("iterations", len(alphas)), _integer) != len(alphas):
            raise ContractViolation(f"iterations {d['iterations']!r} is not the number "
                                    f"of alphas ({len(alphas)})")
        return cls(
            alphas=alphas,
            betas=list(d.get("betas", [])),
            rz_inner=list(d.get("rz_inner", [])),
            residual_norms=list(d.get("residual_norms", [])),
            converged=_field("converged", d.get("converged", False), lambda v: v,
                             lambda v: isinstance(v, bool)),
        )


def apcg_solve(A: SparseSpdMatrix, M: Preconditioner, D: DeflationOperator,
               b, cfg: SolveConfig):
    """Augmented preconditioned conjugate gradient.

    Returns ``(x, trace)``.  Convergence is declared when
    ``||r_j|| <= tol * ||P^T b||``; when the coarse initialization already
    solves the system (within roundoff of ``||b||``) the loop is skipped and
    the trace reports zero iterations.  A non-finite ``b`` is rejected with
    ``ContractViolation``; a residual norm that stops being finite raises
    ``NumericalFailure``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ContractViolation("right-hand side length mismatch")
    if not np.all(np.isfinite(b)):
        raise ContractViolation("right-hand side must be finite")
    if D.A is not A:
        raise ContractViolation("deflation operator built on another matrix")

    trace = SolveTrace()
    x = D.initial_guess(b)

    r = b - A @ x
    r0_norm = float(np.linalg.norm(r))
    trace.residual_norms.append(r0_norm)
    if r0_norm <= 1e-13 * float(np.linalg.norm(b)):
        trace.converged = True
        trace.true_residual_norm = r0_norm
        return x, trace

    # direction block, one per row (a contiguous write), and the A-norms of
    # the directions, both grown geometrically; m counts the stored rows
    keep, swept = cfg.store != "none", cfg.store == "swept"
    W, wAws, m = np.empty((64 if keep else 0, A.n)), np.empty(64 if keep else 0), 0
    # the updates below run in place with the operand order of x + alpha w,
    # r - alpha A w and z + beta w, so every bit is that of the allocating form
    w, step = np.empty(A.n), np.empty(A.n)

    for j in range(cfg.max_iters):
        z = D.project(M.apply(r))
        rz_next = float(r @ z)
        if rz_next <= 0.0:
            raise NumericalFailure("(r, z) <= 0: preconditioner or operator not SPD")
        if j == 0:
            w[:] = z
        else:
            beta = rz_next / rz
            trace.betas.append(beta)
            w *= beta
            w += z
            if swept:
                # A-orthogonal sweep against the stored directions, (A W) w formed
                # as W (A w) with one SpMV; c recovers z_j (ritz.py)
                c = (W[:m] @ (A @ w)) / wAws[:m]
                w -= c @ W[:m]
                trace.sweeps.append(c)
        rz = rz_next
        Aw = A @ w
        wAw = float(w @ Aw)
        if wAw <= 0.0:
            raise NumericalFailure("(w, A w) <= 0: operator not SPD on search space")
        alpha = rz / wAw

        trace.alphas.append(alpha)
        trace.rz_inner.append(rz)

        np.multiply(w, alpha, out=step)
        x += step
        Aw *= alpha
        r -= Aw
        rnorm = float(np.linalg.norm(r))  # sqrt(r . r): histories rest on its bits, not dnrm2's
        if not math.isfinite(rnorm):
            raise NumericalFailure("residual norm is not finite")
        trace.residual_norms.append(rnorm)

        if keep:
            if m == len(W):
                W = np.concatenate([W, np.empty_like(W)])
                wAws = np.concatenate([wAws, np.empty_like(wAws)])
            W[m], wAws[m] = w, wAw
            m += 1

        if rnorm <= cfg.tol * r0_norm:
            trace.converged = True
            break

    if keep:
        trace.directions = W[:m]
    trace.true_residual_norm = float(np.linalg.norm(b - A @ x))
    return x, trace
