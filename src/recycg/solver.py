"""
Augmented preconditioned conjugate gradient with deflation projector.

The solve searches the Krylov space of the projected, preconditioned operator
on top of a fixed augmentation subspace spanned by the columns of C.  The
initialization solves the coarse problem exactly, so the residual stays
C-orthogonal throughout; full reorthogonalization of the search directions
against a stored block is on unless the configuration turns it off.  A
complete per-iteration trace (coefficients, residual norms, preconditioned
residuals) is captured for spectral post-processing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (ContractViolation, NumericalFailure, SparseSpdMatrix,
                   dense_cholesky)

IDENTITY = "identity"
JACOBI = "jacobi"
USER_DIAGONAL = "user_diagonal"


@dataclass(frozen=True)
class Preconditioner:
    """Diagonal (or identity) SPD preconditioner, stored as inverse entries."""

    kind: str
    inv_diag: np.ndarray | None = None

    @classmethod
    def identity(cls):
        return cls(IDENTITY)

    @classmethod
    def jacobi(cls, A: SparseSpdMatrix):
        return cls(JACOBI, 1.0 / A.diagonal())

    @classmethod
    def user_diagonal(cls, diag):
        diag = np.asarray(diag, dtype=np.float64)
        # NaN fails both comparisons; +inf would give a zero inverse entry
        if not np.all((diag > 0.0) & (diag < np.inf)):
            raise ContractViolation("preconditioner diagonal must be positive and finite")
        return cls(USER_DIAGONAL, 1.0 / diag)

    def apply(self, r):
        """M^{-1} r"""
        if self.inv_diag is None:
            return r.copy()
        return self.inv_diag * r


@dataclass(frozen=True)
class DeflationOperator:
    """Projector P = I - C (C^T A C)^{-1} C^T A with cached AC and coarse factor."""

    basis: np.ndarray          # C, shape (n, n_c)
    ac: np.ndarray             # A C
    coarse_factor: np.ndarray  # lower Cholesky factor of C^T A C

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def n_c(self):
        return self.basis.shape[1]

    def coarse_solve(self, rhs):
        """(C^T A C)^{-1} rhs via the cached Cholesky factor.

        The factor is checked finite once, when it is built; ``apcg_solve``
        checks ``b`` and every residual norm, so no per-call scan is needed.
        """
        y = scipy.linalg.solve_triangular(self.coarse_factor, rhs, lower=True,
                                          check_finite=False)
        return scipy.linalg.solve_triangular(self.coarse_factor.T, y, lower=False,
                                             check_finite=False)

    def project(self, x):
        """P x using one block dot product, one coarse solve, one combination."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ContractViolation("vector length mismatch in project")
        if self.n_c == 0:
            return x.copy()
        return x - self.basis @ self.coarse_solve(self.ac.T @ x)

    def initial_guess(self, b):
        """x_0 = C (C^T A C)^{-1} C^T b"""
        if self.n_c == 0:
            return np.zeros(self.n)
        return self.basis @ self.coarse_solve(self.basis.T @ b)


def build_deflation(A: SparseSpdMatrix, C) -> DeflationOperator:
    """Compute AC and the factorized coarse matrix for the projector.

    Raises ``RankDeficient`` (with the dependent column index) when the
    coarse matrix C^T A C is not positive definite.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.size == 0:
        C = C.reshape(A.n, 0)
    if C.ndim != 2 or C.shape[0] != A.n or C.shape[1] > A.n:
        raise ContractViolation("augmentation basis must be n x n_c with n_c <= n")
    if C.shape[1] == 0:
        return DeflationOperator(C, C.copy(), np.zeros((0, 0)))
    ac = A @ C
    coarse = C.T @ ac
    coarse = 0.5 * (coarse + coarse.T)
    L = dense_cholesky(coarse, pivot_rtol=1e-12)
    return DeflationOperator(C, ac, L)


@dataclass
class SolveConfig:
    """Tolerance/iteration settings and trace-capture switches for one solve.

    ``reorthogonalize`` sweeps each new search direction against all stored
    ones in the A-inner product.  ``run_sequence`` sets it, ``trace_capture``
    and ``store_directions`` from the strategy: reorthogonalization is off for
    ``none``, which reuses nothing, and on for the recycling strategies, whose
    reused directions and Ritz vectors depend on orthogonality.
    """

    tol: float = 1e-6
    max_iters: int = 1000
    reorthogonalize: bool = True
    trace_capture: bool = True
    store_directions: bool = False

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ContractViolation("tol must be in (0, 1)")
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be >= 1")


@dataclass
class SolveTrace:
    """Per-iteration record of one APCG run.

    ``betas[j]`` is the positive Gram-Schmidt ratio (r_{j+1}, z_{j+1}) /
    (r_j, z_j) coupling directions j and j+1, so the Lanczos tridiagonal can
    be rebuilt from ``alphas``/``betas`` alone.  ``z_history`` holds the
    projected preconditioned residuals z_j; ``w_history`` and ``r_history``
    are captured only when directions are stored (recycling / diagnostics).
    """

    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    rz_inner: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    z_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    w_history: list = field(default_factory=list)
    r_history: list = field(default_factory=list)

    def to_json_dict(self, spectrum=None, eps_cg=None):
        d = {
            "alphas": list(map(float, self.alphas)),
            "betas": list(map(float, self.betas)),
            "rz_inner": list(map(float, self.rz_inner)),
            "residual_norms": list(map(float, self.residual_norms)),
            "z_history": [list(map(float, z)) for z in self.z_history],
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if spectrum is not None:
            d["spectrum"] = list(map(float, spectrum))
        if eps_cg is not None:
            d["eps_cg"] = float(eps_cg)
        return d

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            alphas=list(d.get("alphas", [])),
            betas=list(d.get("betas", [])),
            rz_inner=list(d.get("rz_inner", [])),
            residual_norms=list(d.get("residual_norms", [])),
            z_history=[np.asarray(z, dtype=np.float64) for z in d.get("z_history", [])],
            iterations=int(d.get("iterations", len(d.get("alphas", [])))),
            converged=bool(d.get("converged", False)),
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
    if D.n != A.n:
        raise ContractViolation("deflation operator dimension mismatch")

    trace = SolveTrace()
    x = D.initial_guess(b)

    r = b - A @ x if D.n_c else b.copy()
    r0_norm = float(np.linalg.norm(r))
    trace.residual_norms.append(r0_norm)
    b_norm = float(np.linalg.norm(b))
    if r0_norm == 0.0 or r0_norm <= 1e-13 * b_norm:
        trace.converged = True
        return x, trace

    z = D.project(M.apply(r))
    rz = float(r @ z)
    if rz <= 0.0:
        raise NumericalFailure("(r, z) <= 0: preconditioner or operator not SPD")
    w = z.copy()

    # stored direction block for full reorthogonalization (A-inner product),
    # one direction per row so that storing one is a contiguous write; the
    # block grows geometrically to avoid per-iteration reallocation
    if cfg.reorthogonalize:
        cap = 64
        W = np.empty((cap, A.n))
        AW = np.empty((cap, A.n))
        wAw_diag = np.empty(cap)
        stored = 0

    for _ in range(cfg.max_iters):
        Aw = A @ w
        wAw = float(w @ Aw)
        if wAw <= 0.0:
            raise NumericalFailure("(w, A w) <= 0: operator not SPD on search space")
        alpha = rz / wAw

        trace.alphas.append(alpha)
        trace.rz_inner.append(rz)
        if cfg.trace_capture:
            trace.z_history.append(z)
        if cfg.store_directions:
            trace.w_history.append(w.copy())
            trace.r_history.append(r.copy())

        x = x + alpha * w
        r = r - alpha * Aw
        rnorm = float(np.linalg.norm(r))
        if not math.isfinite(rnorm):
            raise NumericalFailure("residual norm is not finite")
        trace.residual_norms.append(rnorm)
        trace.iterations += 1

        if cfg.reorthogonalize:
            if stored == cap:
                cap *= 2
                W = np.concatenate([W, np.empty_like(W)])
                AW = np.concatenate([AW, np.empty_like(AW)])
                wAw_diag = np.concatenate([wAw_diag, np.empty_like(wAw_diag)])
            W[stored] = w
            AW[stored] = Aw
            wAw_diag[stored] = wAw
            stored += 1

        if rnorm <= cfg.tol * r0_norm:
            trace.converged = True
            break

        z = D.project(M.apply(r))
        rz_next = float(r @ z)
        if rz_next <= 0.0:
            raise NumericalFailure("(r, z) <= 0: preconditioner or operator not SPD")
        beta = rz_next / rz
        trace.betas.append(beta)
        w = z + beta * w
        if cfg.reorthogonalize:
            # one sweep against all stored directions in the A-inner product
            w -= ((AW[:stored] @ w) / wAw_diag[:stored]) @ W[:stored]
        rz = rz_next

    return x, trace
