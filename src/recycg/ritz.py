"""
Spectral post-processing of conjugate gradient traces.

The CG coefficients of one solve determine the Lanczos tridiagonal of the
projected preconditioned operator; its eigenpairs (Ritz pairs) approximate
eigenpairs of that operator.  This module rebuilds the tridiagonal and the
Lanczos basis from a trace, computes Ritz pairs, detects converged Ritz
values by stagnation against the one-step-shorter spectrum, isolates the
external part of the spectrum with a piecewise-constant gap model, and
evaluates the iteration-count predictors used as diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ContractViolation, NumericalFailure, TridiagSym,
                   tridiag_eig)
from .solver import SolveTrace

DEGENERATE_GAP = 1e-12


@dataclass(frozen=True)
class LanczosView:
    """Lanczos tridiagonal and basis recovered from a CG trace."""

    tridiag: TridiagSym
    basis: np.ndarray  # columns (-1)^j z_j / (r_j, z_j)^{1/2}

    @property
    def m(self):
        return self.tridiag.m


@dataclass(frozen=True)
class RitzSpectrum:
    """Ritz values (descending) with vectors and per-value convergence flags."""

    values: np.ndarray
    vectors: np.ndarray
    converged_mask: np.ndarray | None = None
    epsilon: float | None = None

    @property
    def m(self):
        return len(self.values)


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
    """Recover the Lanczos view of a solve from its captured trace."""
    if trace.iterations < 1:
        raise ContractViolation("trace has no iterations")
    if len(trace.z_history) < trace.iterations:
        raise ContractViolation("trace was captured without z_history")
    m = trace.iterations
    # a run stopped by the iteration cap has one trailing beta with no
    # successor direction; the tridiagonal only uses the first m - 1
    T = lanczos_tridiag(trace.alphas[:m], trace.betas[:m - 1])
    signs = (-1.0) ** np.arange(m)
    scales = signs / np.sqrt(np.asarray(trace.rz_inner[:m], dtype=np.float64))
    basis = np.column_stack(trace.z_history[:m]) * scales
    return LanczosView(T, basis)


def ritz_pairs(view: LanczosView) -> RitzSpectrum:
    """Ritz values (descending) and vectors Y = V Q of a Lanczos view."""
    eig = tridiag_eig(view.tridiag)
    return RitzSpectrum(eig.values, view.basis @ eig.vectors)


def select_converged(current: RitzSpectrum, previous_values, epsilon) -> RitzSpectrum:
    """Flag Ritz values that stagnated between steps m-1 and m.

    Both spectra must be sorted descending; value j of the current spectrum
    is flagged when it stayed within ``epsilon`` relative of value j of the
    previous spectrum (convergence from above), and value j+1 when it stayed
    within ``epsilon`` of previous value j (convergence from below).
    Degenerate multiple values (relative gap below 1e-12) are coalesced so
    that only the first index of each group can carry a flag.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    cur = np.asarray(current.values, dtype=np.float64)
    prev = np.asarray(previous_values, dtype=np.float64)
    m = len(cur)
    mask = np.zeros(m, dtype=bool)
    if m >= 2:
        if len(prev) != m - 1:
            raise ContractViolation("previous spectrum must have m - 1 values")
        for j in range(m - 1):
            if abs(cur[j] - prev[j]) <= epsilon * abs(cur[j]):
                mask[j] = True
            if abs(cur[j + 1] - prev[j]) <= epsilon * abs(cur[j + 1]):
                mask[j + 1] = True
        # coalesce degenerate multiples onto the first index of each group
        for j in range(1, m):
            denom = max(abs(cur[j - 1]), abs(cur[j]))
            if denom > 0 and abs(cur[j - 1] - cur[j]) < DEGENERATE_GAP * denom:
                if mask[j]:
                    first = j - 1
                    while first > 0 and abs(cur[first - 1] - cur[first]) < \
                            DEGENERATE_GAP * max(abs(cur[first - 1]), abs(cur[first])):
                        first -= 1
                    mask[first] = True
                    mask[j] = False
    return RitzSpectrum(current.values, current.vectors, mask, float(epsilon))


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
    # gaps; vectorized over b only, so memory stays O(m)
    best = None
    min_len = min_cluster - 1
    for a in range(ng - min_len + 1):
        b = np.arange(a + min_len, ng + 1)
        err = sse(0, a) + sse(a, b) + sse(b, ng)
        size = b - a
        mean = (prefix[b] - prefix[a]) / np.maximum(size, 1)
        # lexsort's last key is the primary one
        i = np.lexsort((mean, -size, err))[0]
        key = (err[i], -size[i], mean[i], a)
        if best is None or key < best[0]:
            best = (key, a, int(b[i]))
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


def instantaneous_rate(spectrum, ritz_values, l, r):
    """One-step A-norm error contraction bound at the current iteration.

    ``ritz_values`` are the Ritz values available at iteration ``i`` (any
    order; sorted internally), ``l`` and ``r`` count converged Ritz values
    at the low and high ends of the spectrum.  Returns the bound factor
    F * 2 * sigma of the deflated rate; degenerate Ritz/eigenvalue
    coincidences in a denominator yield +inf for this (l, r) pair.
    """
    lam = np.sort(np.asarray(spectrum, dtype=np.float64))
    theta = np.sort(np.asarray(ritz_values, dtype=np.float64))
    n = len(lam)
    i = len(theta)
    if l < 0 or r < 0 or l + r > i:
        raise ContractViolation("need l + r <= number of Ritz values")
    if l + r >= n:
        raise ContractViolation("need l + r < spectrum size")

    def j_factor(lam_lp):
        prod = 1.0
        for j in range(l):
            denom = abs(1.0 - lam_lp / theta[j])
            if denom == 0.0:
                return math.inf
            prod *= abs(1.0 - lam_lp / lam[j]) / denom
        return prod

    def l_factor(lam_nrp):
        prod = 1.0
        for j in range(1, r + 1):
            denom = abs(1.0 - lam_nrp / theta[i - j])
            if denom == 0.0:
                return math.inf
            prod *= abs(1.0 - lam_nrp / lam[n - j]) / denom
        return prod

    f_low = max((j_factor(lam[lp]) for lp in range(l, n)), default=1.0) if l else 1.0
    f_high = max((l_factor(lam[n - 1 - rp]) for rp in range(r, n)), default=1.0) if r else 1.0
    F = f_low * f_high
    if not math.isfinite(F):
        return math.inf
    kappa = lam[n - 1 - r] / lam[l]
    return F * 2.0 * (_sigma(kappa) if kappa > 1.0 else 0.0)
