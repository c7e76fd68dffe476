"""
Spectral post-processing of conjugate gradient traces.

The CG coefficients of one solve determine the Lanczos tridiagonal of the
projected preconditioned operator; its eigenpairs (Ritz pairs) approximate
eigenpairs of that operator.  This module rebuilds the tridiagonal from a
trace and expresses the Lanczos basis in the trace's search directions (the
CG-Lanczos relation; only TRKS sweeps its directions, since plain CG's lost
orthogonality only repeats the converged values SRKS selects), computes Ritz
values and forms Ritz vectors only for the values a selection keeps, flags
converged values (a boolean mask) by stagnation against the one-step-shorter
spectrum, isolates the external part of the spectrum with a piecewise-constant
gap model, and evaluates the iteration-count predictors used as diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ContractViolation, NumericalFailure, TridiagSym,
                   tridiag_eig)
from .solver import SolveTrace

DEGENERATE_GAP = 1e-12
# cluster_filter scores at most this many (a, b) splits at once: at m 300
# (one OpenBLAS thread, 2-core Xeon VM) 2**14 took 1.0 ms a call, 2**16 2.6 ms
CLUSTER_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class LanczosView:
    """Lanczos tridiagonal and basis recovered from a CG trace.

    The basis V, with columns (-1)^j z_j / (r_j, z_j)^{1/2}, is never
    formed: it is ``directions.T @ coefficients``, the trace's (m, n)
    direction block (a view, not a copy) recombined by an m x m upper
    triangular matrix.
    """

    tridiag: TridiagSym
    directions: np.ndarray
    coefficients: np.ndarray

    @property
    def m(self):
        return self.tridiag.m


@dataclass(frozen=True, eq=False)
class RitzSpectrum:
    """Ritz values (descending), the boolean mask a selection flagged them
    with, and one Ritz vector per flagged value only."""

    values: np.ndarray
    vectors: np.ndarray
    converged_mask: np.ndarray


@dataclass(frozen=True)
class RatePrediction:
    """Iteration-count predictions from the asymptotic-rate bounds."""

    n_eps_classical: int
    n_eps_isolated: int
    sigma: float


def lanczos_tridiag(alphas, betas) -> TridiagSym:
    """Tridiagonal from CG coefficients: d_0 = 1/a_0, d_j = 1/a_j + b_{j-1}/a_{j-1},
    off-diagonal e_j = sqrt(b_j)/a_j."""
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    m = len(alphas)
    if m < 1:
        raise ContractViolation("need at least one iteration")
    if len(betas) != m - 1:
        raise ContractViolation("need exactly m - 1 beta coefficients")
    if np.any(betas < 0.0):
        raise NumericalFailure("negative beta coefficient: operator not SPD")
    diag = np.empty(m)
    diag[0] = 1.0 / alphas[0]
    if m > 1:
        diag[1:] = 1.0 / alphas[1:] + betas / alphas[:-1]
    offdiag = np.sqrt(betas) / alphas[:-1]
    return TridiagSym(diag, offdiag)


def lanczos_from_trace(trace: SolveTrace) -> LanczosView:
    """Recover the Lanczos view of a solve from its captured trace.

    Direction j is w_j = z_j + beta_{j-1} w_{j-1} - sum_{i<j} c_{j,i} w_i,
    with c_j the sweep coefficients in ``trace.sweeps``.  So z_j = W^T U e_j
    for the unit upper triangular U with U[j-1, j] = c_{j,j-1} - beta_{j-1}
    and U[i, j] = c_{j,i} for i < j - 1.  An unswept trace (SRKS, whose
    selected Ritz values survive plain CG's loss of orthogonality) has no
    sweeps, and U is the bidiagonal of z_j = w_j - beta_{j-1} w_{j-1}; a
    swept (TRKS) one needs its c_j (without them the kept Ritz vectors were
    off by up to 2.6e-6 relative at epsilon 1e-2).
    """
    if trace.iterations < 1:
        raise ContractViolation("trace has no iterations")
    m = trace.iterations
    if trace.directions is None:
        raise ContractViolation("trace has no search directions (SRKS solves store "
                                "them unswept; only TRKS, which appends them, sweeps)")
    if len(trace.sweeps) not in (0, m - 1):
        raise ContractViolation(f"trace has {len(trace.sweeps)} sweeps for {m} iterations "
                                f"(an unswept trace has none, a swept one {m - 1})")
    betas = np.asarray(trace.betas, dtype=np.float64)
    T = lanczos_tridiag(trace.alphas, betas)
    Ut = np.eye(m)  # row j holds column j of U
    for j, c in enumerate(trace.sweeps, start=1):
        Ut[j, :j] = c
    Ut[np.arange(1, m), np.arange(m - 1)] -= betas
    signs = (-1.0) ** np.arange(m)
    scales = signs / np.sqrt(np.asarray(trace.rz_inner, dtype=np.float64))
    return LanczosView(T, trace.directions, Ut.T * scales)


def ritz_pairs(view: LanczosView, flag) -> RitzSpectrum:
    """Ritz values (descending) of a Lanczos view and the vectors Y = V Q of
    the values that ``flag`` keeps.

    ``flag`` maps the values to a boolean mask; only the flagged columns
    ``V Q[:, mask]`` are formed, and the mask is kept on the spectrum.  V is
    applied as ``directions.T @ (coefficients @ Q)``, so V itself is never
    formed.
    """
    eig = tridiag_eig(view.tridiag)
    mask = flag(eig.values)
    Q = eig.vectors[:, mask]
    return RitzSpectrum(eig.values, view.directions.T @ (view.coefficients @ Q), mask)


def select_converged(values, previous_values, epsilon) -> np.ndarray:
    """Boolean mask of the Ritz values that stagnated between steps m-1 and m.

    Both spectra must be sorted descending; value j of the current spectrum
    is flagged when it stayed within ``epsilon`` relative of value j of the
    previous spectrum (convergence from above), and value j+1 when it stayed
    within ``epsilon`` of previous value j (convergence from below).
    Degenerate multiple values (relative gap below 1e-12) are coalesced so
    that only the first index of each group can carry a flag.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    cur = np.asarray(values, dtype=np.float64)
    prev = np.asarray(previous_values, dtype=np.float64)
    m = len(cur)
    mask = np.zeros(m, dtype=bool)
    if m >= 2:
        if len(prev) != m - 1:
            raise ContractViolation("previous spectrum must have m - 1 values")
        mask[:-1] = np.abs(cur[:-1] - prev) <= epsilon * np.abs(cur[:-1])
        mask[1:] |= np.abs(cur[1:] - prev) <= epsilon * np.abs(cur[1:])
        # coalesce degenerate multiples onto the first index of each group
        degenerate = np.abs(np.diff(cur)) < \
            DEGENERATE_GAP * np.maximum(np.abs(cur[:-1]), np.abs(cur[1:]))
        firsts = np.flatnonzero(np.concatenate([[True], ~degenerate]))
        any_flag = np.logical_or.reduceat(mask, firsts)
        mask[:] = False
        mask[firsts] = any_flag
    return mask


def cluster_filter(values, min_cluster):
    """Indices of values outside the central dense cluster.

    Fits the best piecewise-constant model with at most three segments
    (low externals | cluster | high externals) to the gaps between
    consecutive sorted values; the middle segment, constrained to cover at
    least ``min_cluster`` values, is the cluster.  Ties are broken toward
    the largest cluster with the smallest fitted gap level, so the result
    is deterministic and invariant under uniform scaling.
    """
    values = np.asarray(values, dtype=np.float64)
    m = len(values)
    if min_cluster < 1:
        raise ContractViolation("min_cluster must be >= 1")
    if m < min_cluster or m < 2:
        return list(range(m))
    gaps = np.abs(np.diff(values))
    ng = len(gaps)
    prefix = np.concatenate([[0.0], np.cumsum(gaps)])
    prefix2 = np.concatenate([[0.0], np.cumsum(gaps ** 2)])

    def sse(i, j):
        # least-squares error of a constant fit on gaps[i:j]; an empty
        # segment (j == i) gives s = s2 = 0 and so an error of exactly 0
        s, s2 = prefix[j] - prefix[i], prefix2[j] - prefix2[i]
        return s2 - s * s / np.maximum(j - i, 1)

    # smallest key (err, -size, mean, a) over every split (a, b) whose
    # cluster has at least min_cluster values, which span min_cluster - 1
    # gaps; vectorized over blocks of a, so memory stays O(CLUSTER_BLOCK + m)
    best = None
    min_len = min_cluster - 1
    n_a = ng - min_len + 1
    rows = max(1, CLUSTER_BLOCK // (ng + 1))
    for a0 in range(0, n_a, rows):
        a = np.arange(a0, min(a0 + rows, n_a))[:, None]
        b = np.arange(a0 + min_len, ng + 1)
        size = b - a
        err = sse(0, a) + sse(a, b) + sse(b, ng)
        err[size < min_len] = np.inf
        mean = (prefix[b] - prefix[a]) / np.maximum(size, 1)
        # the key's minimum one component at a time; flat indices run
        # through a first, so the first survivor has the smallest a
        k = np.flatnonzero(err == err.min())
        k = k[size.flat[k] == size.flat[k].max()]
        k = k[mean.flat[k] == mean.flat[k].min()]
        i, j = divmod(int(k[0]), len(b))
        key = (err[i, j], -size[i, j], mean[i, j], a0 + i)
        if best is None or key < best[0]:
            best = (key, a0 + i, int(b[j]))
    _, a, b = best
    # cluster covers value indices a .. b (inclusive)
    return [i for i in range(m) if i < a or i > b]


def _sigma(kappa):
    sk = math.sqrt(kappa)
    return (sk - 1.0) / (sk + 1.0)


def predict_iterations(spectrum, eps_cg, p=0) -> RatePrediction:
    """Iteration-count predictions for plain CG on a known spectrum.

    ``spectrum`` must be sorted ascending and positive.  The classical count
    comes from the asymptotic rate over the full spectrum; the isolated-pair
    count assumes ``p`` isolated eigenvalues at each end and charges roughly
    one extra iteration per isolated value on top of the rate of the central
    part.
    """
    lam = np.asarray(spectrum, dtype=np.float64)
    n = len(lam)
    if np.any(lam <= 0.0) or np.any(np.diff(lam) < 0.0):
        raise ContractViolation("spectrum must be positive and sorted ascending")
    if not 0 <= 2 * p < n:
        raise ContractViolation("need 2p < n")
    if not 0.0 < eps_cg < 1.0:
        raise ContractViolation("eps_cg must be in (0, 1)")

    def count(kappa, extra=0.0):
        if kappa <= 1.0:
            return 1
        sig = _sigma(kappa)
        return max(1, math.ceil((math.log(eps_cg / 2.0) - extra) / math.log(sig)))

    kappa_full = lam[-1] / lam[0]
    n_classical = count(kappa_full)
    sigma_full = _sigma(kappa_full) if kappa_full > 1.0 else 0.0

    kappa_mid = lam[n - p - 1] / lam[p]
    extra = 0.0
    for i in range(p):
        lo, hi = lam[i], lam[n - p + i]
        extra += math.log((hi / (4.0 * lo)) * (1.0 - lo / hi))
    n_isolated = 2 * p + count(kappa_mid, extra)
    return RatePrediction(n_classical, n_isolated, sigma_full)

