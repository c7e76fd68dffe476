"""
Multiresolution drivers: solve a sequence of SPD systems while accumulating
an augmentation basis from earlier solves.

Strategies: no recycling (baseline), total reuse of all search directions,
swept A-orthogonal, and selective reuse of the Ritz vectors of unswept
directions whose Ritz values stagnated (optionally restricted to the external
part of the spectrum by the cluster filter).  The basis starts empty and only
grows; a coarse-Cholesky rank guard drops the columns that become dependent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .core import (ContractViolation, NumericalFailure, RankDeficient,
                   SparseSpdMatrix, tridiag_eig)
from .ritz import cluster_filter, lanczos_from_trace, ritz_pairs, select_converged
from .solver import SolveConfig, SolveTrace, apcg_solve, build_deflation

NONE = "none"
TRKS = "trks"
SRKS = "srks"
SRKS_CLUSTER = "srks_cluster"
STORE = {NONE: "none", TRKS: "swept", SRKS: "directions", SRKS_CLUSTER: "directions"}


@dataclass(frozen=True)
class RecycleStrategy:
    """What to keep after each solve: nothing, all search directions (``trks``)
    or the Ritz vectors whose values stagnated to ``epsilon`` (``srks``),
    outside the central cluster only for ``srks_cluster``."""

    kind: str = NONE
    epsilon: float = 1e-14

    def __post_init__(self):
        if self.kind not in (NONE, TRKS, SRKS, SRKS_CLUSTER):
            raise ContractViolation(f"unknown strategy kind {self.kind!r}")
        if self.kind in (SRKS, SRKS_CLUSTER) and not 0.0 < self.epsilon < math.inf:
            raise ContractViolation("epsilon must be positive and finite for SRKS kinds")


class AugmentationState:
    """Current augmentation basis with per-column provenance; a run starts
    from ``AugmentationState(n)``, the empty basis.

    The columns live in one column-major block with spare columns that grows
    geometrically, so an append copies the existing columns only when the
    block is full, and a dropped column is closed up in place.  ``basis`` is
    a view of the columns in use; it shares memory with the block and is
    valid until the next ``append`` or ``drop_column``.
    """

    def __init__(self, n):
        self._block = np.empty((n, 0), order="F")
        self.n_c = 0
        self.origin_tags = []

    @property
    def basis(self):
        return self._block[:, :self.n_c]

    def append(self, block, tags, divisors=None):
        """Store the columns of ``block``, column j divided by ``divisors[j]``
        when given, after the current ones."""
        n, k = self._block.shape[0], block.shape[1]
        end = self.n_c + k
        if end > self._block.shape[1]:
            grown = np.empty((n, max(end, 2 * self._block.shape[1])), order="F")
            grown[:, :self.n_c] = self.basis
            self._block = grown
        if divisors is None:
            self._block[:, self.n_c:end] = block
        else:
            np.divide(block, divisors, out=self._block[:, self.n_c:end])
        self.n_c = end
        self.origin_tags.extend(tags)

    def drop_column(self, index):
        # one column at a time: an overlapping slice assignment would copy
        # the shifted columns into a temporary first
        for j in range(index, self.n_c - 1):
            self._block[:, j] = self._block[:, j + 1]
        self.n_c -= 1
        del self.origin_tags[index]


@dataclass
class SystemRecord:
    """One solve of the sequence.  ``final_residual`` is the true relative
    residual ||b - A x|| / ||b||.  Times are wall seconds: ``solve_seconds``
    covers ``apcg_solve`` (projection included), ``augmentation_seconds``
    the deflation build before it and the basis update after it."""

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

    def iterations(self):
        return [rec.iterations for rec in self.records]

    def n_c_history(self):
        return [rec.n_c_before for rec in self.records]


def guarded_deflation(A: SparseSpdMatrix, state: AugmentationState, events):
    """Build the deflation operator; each column the rank guard drops is logged."""
    while True:
        try:
            return build_deflation(A, state.basis)
        except RankDeficient as exc:
            tag = state.origin_tags[exc.column]
            state.drop_column(exc.column)
            events.append(("dropped_column", exc.column, tag))


def update_basis_trks(state: AugmentationState, trace: SolveTrace, system_index=0):
    """Append all search directions of the solve, normalized to unit length."""
    if trace.iterations == 0:
        return
    if trace.directions is None:
        raise ContractViolation("trace has no search directions (TRKS solves store them "
                                "swept, as its basis: unswept, they lose A-orthogonality)")
    # every stored direction passed (w, Aw) > 0, so none has zero norm
    W = trace.directions
    tags = [("direction", system_index, j) for j in range(len(W))]
    state.append(W.T, tags, divisors=np.linalg.norm(W, axis=1))


def update_basis_srks(state: AugmentationState, spectrum, system_index=0):
    """Append the selected Ritz vectors, each scaled by 1/sqrt(|theta|)."""
    if spectrum.converged_mask is None:
        raise ContractViolation("spectrum has no convergence mask")
    values = spectrum.values[spectrum.converged_mask]
    if spectrum.vectors.shape[1] != len(values):
        raise ContractViolation("spectrum needs one vector per flagged value")
    tags = [("ritz", system_index, float(theta)) for theta in values]
    state.append(spectrum.vectors, tags, divisors=np.sqrt(np.abs(values)))


def flag_spectrum(tridiag, values, strategy: RecycleStrategy):
    """Boolean mask of the Ritz ``values`` of ``tridiag`` that the strategy
    keeps: stagnation against the m-1 spectrum, ANDed for ``srks_cluster``
    with the values outside the central cluster.  Needs no Ritz vectors."""
    m = len(values)
    prev = tridiag_eig(tridiag.truncated(m - 1)).values if m >= 2 else np.empty(0)
    mask = select_converged(values, prev, strategy.epsilon)
    if strategy.kind == SRKS_CLUSTER and mask.any():
        # the cluster holds at least a fifth of the preselected values
        external = np.zeros(m, dtype=bool)
        external[cluster_filter(values, math.ceil(mask.sum() / 5))] = True
        mask &= external
    return mask


def select_spectrum(trace: SolveTrace, strategy: RecycleStrategy):
    """Ritz values of one trace, flagged by ``flag_spectrum``, with the Ritz
    vectors of the flagged values only."""
    view = lanczos_from_trace(trace)
    return ritz_pairs(view, lambda values: flag_spectrum(view.tridiag, values, strategy))


def run_sequence(systems, M_factory, strategy: RecycleStrategy,
                 cfg: SolveConfig) -> SequenceReport:
    """Solve a sequence of (A, b) systems, recycling per the chosen strategy.

    The basis starts empty, grows by what the strategy keeps from each
    converged solve and loses the columns that the rank guard drops.
    ``M_factory`` maps each operator to its preconditioner.  Only ``tol`` and
    ``max_iters`` of ``cfg`` are used; the store is the strategy's ``STORE``
    (only TRKS sweeps; ``SolveConfig`` says why).  An unswept solve of m >= n
    iterations (more Krylov vectors than unknowns: orthogonality is lost) is
    solved again swept and logged as a ``swept_resolve`` event.  A failed
    solve aborts with a partial report.
    """
    run_cfg = replace(cfg, store=STORE[strategy.kind])
    report = SequenceReport()
    state = None
    for k, (A, b) in enumerate(systems):
        if state is None:
            state = AugmentationState(A.n)
        n_c_before = state.n_c

        t0 = perf_counter()
        D = guarded_deflation(A, state, report.events)
        build_seconds = perf_counter() - t0

        M = M_factory(A)
        t0 = perf_counter()
        try:
            x, trace = apcg_solve(A, M, D, b, run_cfg)
            if run_cfg.store == "directions" and trace.iterations >= A.n:
                report.events.append(("swept_resolve", k, trace.iterations))
                x, trace = apcg_solve(A, M, D, b, replace(run_cfg, store="swept"))
        except NumericalFailure as exc:
            report.events.append(("solve_failed", k, str(exc)))
            report.aborted = True
            break
        solve_seconds = perf_counter() - t0
        # free the coarse factor and the operator's view of the basis block
        # before the basis grows, so a regrown block never sits beside the old
        del D

        t0 = perf_counter()
        if trace.converged and trace.iterations > 0:
            if strategy.kind == TRKS:
                update_basis_trks(state, trace, system_index=k)
            elif strategy.kind in (SRKS, SRKS_CLUSTER):
                update_basis_srks(state, select_spectrum(trace, strategy),
                                  system_index=k)
        selected = state.n_c - n_c_before
        update_seconds = perf_counter() - t0

        # a zero b is solved by x = 0 with a zero residual
        final_rel = trace.true_residual_norm / (float(np.linalg.norm(b)) or 1.0)
        report.records.append(SystemRecord(
            k=k, iterations=trace.iterations, n_c_before=n_c_before,
            n_c_selected=selected, solve_seconds=solve_seconds,
            augmentation_seconds=build_seconds + update_seconds,
            final_residual=final_rel, converged=trace.converged))
        # free the Krylov block before the next build
        del trace
    if state is not None:
        report.final_basis = state.basis
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
