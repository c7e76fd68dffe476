"""
Multiresolution drivers: solve a sequence of SPD systems while accumulating
an augmentation basis from earlier solves.

Strategies: no recycling (baseline), total reuse of all search directions,
selective reuse of Ritz vectors with stagnated Ritz values (optionally
restricted to the external part of the spectrum by the cluster filter).
A coarse-Cholesky rank guard drops dependent columns, and an optional cap
restarts the basis from its initial block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .core import ContractViolation, NumericalFailure, RankDeficient, SparseSpdMatrix
from .ritz import cluster_filter, lanczos_from_trace, ritz_pairs, select_converged
from .core import tridiag_eig
from .solver import (DeflationOperator, Preconditioner, SolveConfig,
                     SolveTrace, apcg_solve, build_deflation)

NONE = "none"
TRKS = "trks"
SRKS = "srks"
SRKS_CLUSTER = "srks_cluster"

RANK_GUARD_RTOL = 1e-12


@dataclass(frozen=True)
class RecycleStrategy:
    """Which information to keep after each solve, and how much of it."""

    kind: str = NONE
    epsilon: float = 1e-14
    nc_limit: int = 0
    min_cluster: int = 0  # 0 = one fifth of the preselected count

    def __post_init__(self):
        if self.kind not in (NONE, TRKS, SRKS, SRKS_CLUSTER):
            raise ContractViolation(f"unknown strategy kind {self.kind!r}")
        if self.kind in (SRKS, SRKS_CLUSTER) and self.epsilon <= 0.0:
            raise ContractViolation("epsilon must be positive for SRKS kinds")
        if self.nc_limit < 0:
            raise ContractViolation("nc_limit must be >= 0")


@dataclass
class AugmentationState:
    """Current augmentation basis with per-column provenance."""

    basis: np.ndarray
    origin_tags: list = field(default_factory=list)
    initial_basis: np.ndarray | None = None

    @classmethod
    def from_initial(cls, n, C0=None):
        C0 = np.zeros((n, 0)) if C0 is None else np.asarray(C0, dtype=np.float64)
        if C0.ndim != 2 or C0.shape[0] != n:
            raise ContractViolation("initial basis must have n rows")
        tags = [("initial", j) for j in range(C0.shape[1])]
        return cls(C0.copy(), tags, C0.copy())

    @property
    def n_c(self):
        return self.basis.shape[1]

    def append(self, block, tags):
        self.basis = np.column_stack([self.basis, block]) if block.size else self.basis
        self.origin_tags.extend(tags)

    def restart(self):
        self.basis = self.initial_basis.copy()
        self.origin_tags = [("initial", j) for j in range(self.basis.shape[1])]

    def drop_column(self, index):
        self.basis = np.delete(self.basis, index, axis=1)
        del self.origin_tags[index]


@dataclass
class SystemRecord:
    """One solve of the sequence.  Times are wall seconds: ``solve_seconds``
    covers ``apcg_solve`` (projection included), ``augmentation_seconds`` the
    deflation build before it and the basis update after it."""

    k: int
    iterations: int
    n_c_before: int
    n_c_selected: int
    solve_seconds: float
    augmentation_seconds: float
    final_residual: float
    converged: bool


@dataclass
class SequenceReport:
    """Per-system statistics for a whole multiresolution run."""

    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    aborted: bool = False
    final_basis: np.ndarray | None = None
    final_tags: list = field(default_factory=list)

    def iterations(self):
        return [rec.iterations for rec in self.records]

    def n_c_history(self):
        return [rec.n_c_before for rec in self.records]


def guarded_deflation(A: SparseSpdMatrix, state: AugmentationState, events=None):
    """Build the deflation operator, dropping columns that trip the rank guard."""
    while True:
        try:
            return build_deflation(A, state.basis)
        except RankDeficient as exc:
            tag = state.origin_tags[exc.column]
            state.drop_column(exc.column)
            if events is not None:
                events.append(("dropped_column", exc.column, tag))
            if state.n_c == 0:
                return build_deflation(A, state.basis)


def update_basis_trks(state: AugmentationState, trace: SolveTrace,
                      system_index=0) -> AugmentationState:
    """Append all captured search directions, normalized to unit length."""
    if not trace.w_history:
        if trace.iterations > 0:
            raise ContractViolation("trace has no stored directions (enable store_directions)")
        return state
    W = np.column_stack(trace.w_history)
    norms = np.linalg.norm(W, axis=0)
    keep = norms > 0.0
    W = W[:, keep] / norms[keep]
    tags = [("direction", system_index, j) for j in range(W.shape[1])]
    state.append(W, tags)
    return state


def update_basis_srks(state: AugmentationState, spectrum,
                      system_index=0) -> AugmentationState:
    """Append flagged Ritz vectors, each scaled by 1/sqrt(|theta|)."""
    if spectrum.converged_mask is None:
        raise ContractViolation("spectrum has no convergence mask")
    idx = np.flatnonzero(spectrum.converged_mask)
    if len(idx) == 0:
        return state
    block = spectrum.vectors[:, idx] / np.sqrt(np.abs(spectrum.values[idx]))
    tags = [("ritz", system_index, float(spectrum.values[i])) for i in idx]
    state.append(block, tags)
    return state


def select_spectrum(trace: SolveTrace, strategy: RecycleStrategy):
    """Ritz extraction + stagnation selection (+ cluster filter) for one trace."""
    view = lanczos_from_trace(trace)
    spectrum = ritz_pairs(view)
    if view.m < 2:
        return select_converged(spectrum, np.empty(0), strategy.epsilon)
    prev = tridiag_eig(view.tridiag.truncated(view.m - 1)).values
    spectrum = select_converged(spectrum, prev, strategy.epsilon)
    if strategy.kind == SRKS_CLUSTER:
        preselected = int(spectrum.converged_mask.sum())
        if preselected > 0:
            min_cluster = strategy.min_cluster or max(1, math.ceil(preselected / 5))
            retained = set(cluster_filter(spectrum.values, min_cluster))
            mask = spectrum.converged_mask.copy()
            for j in range(len(mask)):
                if j not in retained:
                    mask[j] = False
            spectrum = replace(spectrum, converged_mask=mask)
    return spectrum


def run_sequence(systems, M_factory, strategy: RecycleStrategy,
                 cfg: SolveConfig, C0=None) -> SequenceReport:
    """Solve a sequence of (A, b) systems, recycling per the chosen strategy.

    ``M_factory`` maps each operator to its preconditioner.  Only ``tol`` and
    ``max_iters`` of ``cfg`` are used; the rest follows from the strategy:
    reorthogonalization is off for ``none``, which reuses nothing, and on for
    the recycling strategies, and the trace is captured only where it is
    consumed, since the report keeps none.  Non-converged solves contribute
    nothing to the basis; a failed solve aborts the run with a partial report.
    """
    run_cfg = replace(cfg, reorthogonalize=strategy.kind != NONE,
                      store_directions=strategy.kind == TRKS,
                      trace_capture=strategy.kind in (SRKS, SRKS_CLUSTER))
    report = SequenceReport()
    state = None
    for k, (A, b) in enumerate(systems):
        if state is None:
            state = AugmentationState.from_initial(A.n, C0)
        n_c_before = state.n_c

        t0 = perf_counter()
        D = guarded_deflation(A, state, report.events)
        build_seconds = perf_counter() - t0

        M = M_factory(A)
        t0 = perf_counter()
        try:
            x, trace = apcg_solve(A, M, D, b, run_cfg)
        except NumericalFailure as exc:
            report.events.append(("solve_failed", k, str(exc)))
            report.aborted = True
            break
        solve_seconds = perf_counter() - t0

        selected = 0
        t0 = perf_counter()
        if trace.converged and trace.iterations > 0:
            if strategy.kind == TRKS:
                update_basis_trks(state, trace, system_index=k)
                selected = state.n_c - n_c_before
            elif strategy.kind in (SRKS, SRKS_CLUSTER):
                spectrum = select_spectrum(trace, strategy)
                update_basis_srks(state, spectrum, system_index=k)
                selected = state.n_c - n_c_before
        update_seconds = perf_counter() - t0

        if strategy.nc_limit > 0 and state.n_c >= strategy.nc_limit:
            report.events.append(("restart", k, state.n_c))
            state.restart()

        b_norm = float(np.linalg.norm(b))
        final_rel = trace.residual_norms[-1] / b_norm if b_norm > 0 else 0.0
        report.records.append(SystemRecord(
            k=k, iterations=trace.iterations, n_c_before=n_c_before,
            n_c_selected=selected, solve_seconds=solve_seconds,
            augmentation_seconds=build_seconds + update_seconds,
            final_residual=final_rel, converged=trace.converged))
    if state is not None:
        report.final_basis = state.basis
        report.final_tags = list(state.origin_tags)
    return report


def subspace_overlap(U1, U2):
    """Singular values of the concatenation of two orthonormalized blocks.

    Values near sqrt(2) indicate shared directions, near 1 independent ones,
    near 0 redundancy.  Zero columns are dropped before analysis.
    """
    def orthonormalize(U):
        U = np.asarray(U, dtype=np.float64)
        if U.ndim != 2:
            raise ContractViolation("blocks must be 2-D")
        norms = np.linalg.norm(U, axis=0)
        U = U[:, norms > 0.0]
        if U.shape[1] == 0:
            return U
        q, s, _ = np.linalg.svd(U, full_matrices=False)
        return q[:, s > s[0] * 1e-12]

    Q1, Q2 = orthonormalize(U1), orthonormalize(U2)
    if Q1.shape[0] != Q2.shape[0]:
        raise ContractViolation("blocks must have the same number of rows")
    stacked = np.column_stack([Q1, Q2])
    if stacked.shape[1] == 0:
        return np.empty(0)
    return np.linalg.svd(stacked, compute_uv=False)
