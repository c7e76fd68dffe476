"""The benchmark's tracer wraps package functions by name; entering its
patch context checks that every name it wraps still exists."""
from pathlib import Path

import numpy as np
import pytest

from recycg import (Preconditioner, RecycleStrategy, SolveConfig, core,
                    recycle, ritz, run_sequence, solver)
from conftest import random_spd_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def public_callables():
    return {(mod.__name__, name): obj
            for mod in (core, solver, ritz, recycle)
            for name, obj in vars(mod).items() if callable(obj)}


def test_tracer_installs_and_restores(tracer_module, rng):
    before = public_callables()
    matmul = core.SparseSpdMatrix.__matmul__
    tr = tracer_module.Tracer()
    A = random_spd_matrix(30, rng)
    systems = [(A, rng.standard_normal(30)) for _ in range(2)]
    with tr.installed():
        assert core.SparseSpdMatrix.__matmul__ is not matmul
        for kind in ("none", "trks", "srks_cluster"):
            run_sequence(systems, lambda A: Preconditioner.identity(),
                         RecycleStrategy(kind, epsilon=1e-6),
                         SolveConfig(tol=1e-8, max_iters=100))
    assert public_callables() == before
    assert core.SparseSpdMatrix.__matmul__ is matmul
    names = {span.name for span in tr.spans}
    assert {"solver.apcg", "recycle.guard", "recycle.update", "recycle.select",
            "ritz.lanczos", "ritz.select_converged", "ritz.cluster_filter",
            "ritz.prev_spectrum"} <= names
    assert tr.kernel_total("core.spmv")[0] > 0


def test_tracer_counts_only_kept_ritz_vectors(tracer_module, rng):
    tr = tracer_module.Tracer()
    A = random_spd_matrix(30, rng)
    systems = [(A, rng.standard_normal(30)) for _ in range(2)]
    with tr.installed():
        run_sequence(systems, lambda A: Preconditioner.identity(),
                     RecycleStrategy("srks_cluster", epsilon=1e-6),
                     SolveConfig(tol=1e-8, max_iters=100))
    assert tr.counts["ritz.vectors_formed"] == tr.counts["ritz.vectors_kept"] > 0
