"""Spans around the public calls into each recycg layer, recorded from outside.

``Tracer.installed()`` replaces the public functions and methods that
``run_sequence`` reaches with wrappers that open a span on entry and close it
on exit, and restores the originals afterwards.  Nothing inside the package
changes: functions are swapped in the namespace that looks them up at call
time (``recycle`` for the helpers of ``run_sequence``, ``solver`` for ``dense_cholesky``,
``ritz`` for the ``tridiag_eig`` behind ``ritz_pairs``), methods on their
class.

Per-iteration kernels (SpMV, preconditioner, projection) would give one span
per CG step, so they are aggregated into their parent span instead: a call
count, the seconds spent and the computed work (flop or bytes from array
sizes, not from hardware counters).
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from recycg import core, recycle, ritz, solver


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    k: int | None
    end: float = 0.0
    n_c_before: int | None = None
    # aggregated per-iteration kernels: name -> [calls, seconds, work]
    kernels: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "k": self.k,
                "n_c_before": self.n_c_before, "kernels": self.kernels}


class Tracer:
    """In-memory span recorder; spans refer to their parent by list index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._k: int | None = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self._k))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = perf_counter()

    def begin_step(self, k):
        """Close the previous system's step span and open the next one."""
        self.end_step()
        self._k = k
        self.open("recycle.step")

    def end_step(self):
        if self._k is not None:
            self.close(self._stack[-1])
            self._k = None

    def add_kernel(self, name, seconds, work):
        agg = self.spans[self._stack[-1]].kernels.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += seconds
        agg[2] += work

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def installed(self):
        """Context in which every traced entry point is wrapped."""
        span = functools.partial(_span_wrapper, self)
        kernel = functools.partial(_kernel_wrapper, self)
        counted = functools.partial(_counted_wrapper, self)
        return patched([
            (core.SparseSpdMatrix, "__matmul__", functools.partial(_matmul_wrapper, self)),
            (solver.Preconditioner, "apply",
             lambda fn: kernel("solver.precond", fn, lambda M, r: 0.0)),
            (solver.DeflationOperator, "project",
             lambda fn: kernel("solver.project", fn, lambda D, x: 16.0 * D.n * D.n_c)),
            (solver.DeflationOperator, "initial_guess",
             lambda fn: span("solver.coarse_guess", fn)),
            (solver, "dense_cholesky", lambda fn: span("core.cholesky", fn)),
            (ritz, "tridiag_eig", lambda fn: span("core.tridiag_eig", fn)),
            (recycle, "tridiag_eig",
             lambda fn: span("ritz.prev_spectrum", span("core.tridiag_eig", fn))),
            (recycle, "build_deflation", lambda fn: span("solver.build_deflation", fn)),
            (recycle, "guarded_deflation", lambda fn: span("recycle.guard", fn)),
            (recycle, "apcg_solve", lambda fn: span("solver.apcg", fn)),
            (recycle, "select_spectrum", lambda fn: counted(
                "recycle.select", "ritz.vectors_kept",
                lambda spectrum: int(np.count_nonzero(spectrum.converged_mask)), fn)),
            (recycle, "lanczos_from_trace", lambda fn: span("ritz.lanczos", fn)),
            (recycle, "ritz_pairs", lambda fn: counted(
                "ritz.ritz_pairs", "ritz.vectors_formed",
                lambda spectrum: spectrum.vectors.shape[1], fn)),
            (recycle, "select_converged", lambda fn: span("ritz.select_converged", fn)),
            (recycle, "cluster_filter", lambda fn: span("ritz.cluster_filter", fn)),
            (recycle, "update_basis_trks", lambda fn: span("recycle.update", fn)),
            (recycle, "update_basis_srks", lambda fn: span("recycle.update", fn)),
        ])

    def seconds(self, name):
        return sum(s.seconds for s in self.spans if s.name == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def kernel_total(self, name):
        """(calls, seconds, work) of one aggregated kernel over all spans."""
        rows = [s.kernels[name] for s in self.spans if name in s.kernels]
        return tuple(float(sum(col)) for col in zip(*rows)) if rows else (0.0, 0.0, 0.0)

    def self_seconds(self):
        """Per span: duration minus the time covered by its children and kernels."""
        own = [s.seconds - sum(agg[1] for agg in s.kernels.values()) for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def total_self_seconds(self, name):
        own = self.self_seconds()
        return sum(own[i] for i, s in enumerate(self.spans) if s.name == name)


@contextmanager
def patched(replacements):
    """Replace ``owner.attr`` by ``make(original)`` for each triple, then restore."""
    originals = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _kernel_wrapper(tracer, name, fn, work):
    @functools.wraps(fn)
    def wrapper(self, x):
        t0 = perf_counter()
        out = fn(self, x)
        tracer.add_kernel(name, perf_counter() - t0, work(self, x))
        return out
    return wrapper


def _matmul_wrapper(tracer, fn):
    """SpMV (vector argument) is a kernel; SpMM (block ``A C``) is a span."""
    spmv = _kernel_wrapper(tracer, "core.spmv", fn, lambda A, x: 2.0 * A.nnz)
    spmm = _span_wrapper(tracer, "core.spmm", fn)

    @functools.wraps(fn)
    def wrapper(A, other):
        if np.ndim(other) == 1:
            return spmv(A, other)
        tracer.count("core.spmm_cols", np.shape(other)[1])
        return spmm(A, other)
    return wrapper


def _counted_wrapper(tracer, name, counter, measure, fn):
    """A span that also adds ``measure(result)`` to ``tracer.counts[counter]``."""
    inner = _span_wrapper(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args):
        out = inner(*args)
        tracer.count(counter, measure(out))
        return out
    return wrapper
