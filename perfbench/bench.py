"""Sequence benchmark: wall time to solve a recycled 40-system sequence.

Each workload is one strategy and tolerance on ``benchmark_spec(seed)`` (64x64
grid, Jacobi, ``max_iters`` 3000, 40 systems, as in ``configs/benchmark.yaml``),
solved in a closed loop by one caller: system ``k+1`` starts only after system
``k`` and its basis update finish, because the basis depends on them.

The library is driven from outside through public calls.  The benchmark times
the ``run_sequence`` call and stamps every pull of the next ``(A, b)`` from the
iterator it hands over, which gives the time per system.  ``apcg_solve`` is
wrapped to keep each returned ``x``; after the timed region every solve is
checked against its true residual.  A traced run (``--trace 1``) wraps the
other public entry points as well (see ``tracer.py``) and reports per-layer
numbers; end-to-end numbers come only from untraced sequences.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from recycg import (Preconditioner, RecycleStrategy, SolveConfig,
                    benchmark_spec, generate_diffusion_sequence, recycle)

from tracer import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
FIXTURE = ROOT / "tests" / "fixtures" / "benchmark_pilot.json"
SRKS_REFERENCE = HERE / "reference_srks_cluster.json"

GRID = (64, 64)
COUNT = 40
MAX_ITERS = 3000
SETUP_REPEATS = 5

# The solver stops when its recursive residual reaches tol * ||b - A x0||
# (= tol * ||P^T b||).  The true residual drifts from the recursive one by
# round-off: at most 1.5% on trks-grow, where the true residual still stayed
# below tol * ||b - A x0|| on seeds 0-5.  A 10% slack admits that drift and
# rejects any x that is off by more.
RESIDUAL_SLACK = 1.1


@dataclass(frozen=True)
class Workload:
    strategy: RecycleStrategy
    tol: float


WORKLOADS = {
    "cg-plain": Workload(RecycleStrategy("none"), 1e-3),
    "trks-grow": Workload(RecycleStrategy("trks"), 1e-6),
    "srks-cluster": Workload(RecycleStrategy("srks_cluster", epsilon=1e-14), 1e-3),
}


@dataclass
class Solve:
    """What the check needs from one ``apcg_solve`` call (not its trace)."""

    A: object
    b: np.ndarray
    x: np.ndarray
    r0_norm: float
    converged: bool
    iterations: int


@dataclass
class SequenceRun:
    """One timed ``run_sequence`` call.  The report itself is not kept: its
    final basis would raise the peak memory of every later call."""

    seconds: float
    step_seconds: np.ndarray
    history: dict
    events: list
    solves: list
    tracer: Tracer | None = None


class TimedSystems:
    """The iterator handed to ``run_sequence``: stamps each pull of a system.

    The pull that raises ``StopIteration`` ends the last step, so a complete
    sequence of ``count`` systems gives ``count + 1`` stamps.
    """

    def __init__(self, systems, tracer=None):
        self._systems = iter(systems)
        self._tracer = tracer
        self.stamps = []

    def __iter__(self):
        return self

    def __next__(self):
        self.stamps.append(perf_counter())
        try:
            item = next(self._systems)
        except StopIteration:
            if self._tracer is not None:
                self._tracer.end_step()
            raise
        if self._tracer is not None:
            self._tracer.begin_step(len(self.stamps) - 1)
        return item


def generate(seed, grid=GRID, count=COUNT):
    return list(generate_diffusion_sequence(benchmark_spec(seed, grid=grid), count))


def solve_sequence(systems, workload, tracer=None):
    """One ``run_sequence`` call over ``systems``, timed and kept for checking."""
    solves = []

    def keeper(apcg_solve):
        def keep(A, M, D, b, cfg):
            x, trace = apcg_solve(A, M, D, b, cfg)
            solves.append(Solve(A, b, x, trace.residual_norms[0],
                                trace.converged, trace.iterations))
            return x, trace
        return keep

    timed = TimedSystems(systems, tracer)
    cfg = SolveConfig(tol=workload.tol, max_iters=MAX_ITERS)
    with tracer.installed() if tracer else patched([]), \
            patched([(recycle, "apcg_solve", keeper)]):
        root = tracer.open("recycle.run_sequence") if tracer else None
        t0 = perf_counter()
        report = recycle.run_sequence(timed, Preconditioner.jacobi,
                                      workload.strategy, cfg)
        seconds = perf_counter() - t0
        if tracer:
            tracer.end_step()  # still open if the run aborted
            tracer.close(root)
    history = {"iterations": report.iterations(), "n_c_before": report.n_c_history()}
    if tracer:
        steps = [s for s in tracer.spans if s.name == "recycle.step"]
        for span, n_c in zip(steps, history["n_c_before"]):
            span.n_c_before = n_c
    return SequenceRun(seconds, np.diff(timed.stamps), history, report.events,
                       solves, tracer)


def residual_ok(solve, tol):
    """Converged, and ``||b - A x|| <= slack * tol * ||b - A x0||``."""
    residual = np.linalg.norm(solve.b - solve.A @ solve.x)
    return solve.converged and residual <= RESIDUAL_SLACK * tol * solve.r0_norm


def failed_solves(run, workload, count):
    """Solves that failed the check, plus systems the run never solved."""
    bad = sum(not residual_ok(s, workload.tol) for s in run.solves)
    return bad + count - len(run.solves)


def reference_history(name):
    """Seed-0 histories the workload must reproduce, or None."""
    if name == "srks-cluster":
        return json.loads(SRKS_REFERENCE.read_text())["history"]
    runs = json.loads(FIXTURE.read_text())["runs"]
    if name == "cg-plain":
        pilot = runs["tol1e-3"]["none"]
        return {"iterations": pilot["iterations"], "n_c_before": [0] * COUNT}
    pilot = runs["tol1e-6"]["trks"]
    return {"iterations": pilot["iterations"], "n_c_before": pilot["n_c_before"]}


def reorth_flop(solve):
    """Computed: one sweep per non-final iteration costs 4 n j at j stored directions."""
    sweeps = solve.iterations - 1 if solve.converged else solve.iterations
    return 2.0 * solve.A.n * sweeps * (sweeps + 1)


def end_to_end_metrics(setup_seconds, runs):
    steps = np.concatenate([r.step_seconds for r in runs])
    iterations = runs[0].history["iterations"]
    return {
        "setup_s": statistics.median(setup_seconds),
        "sequence_s": statistics.median(r.seconds for r in runs),
        "step_s_p50": float(np.percentile(steps, 50)),
        "step_s_p75": float(np.percentile(steps, 75)),
        "iters_avg_2_40": float(np.mean(iterations[1:])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(run, untraced_seconds):
    t = run.tracer
    spmv_calls, spmv_s, spmv_flop = t.kernel_total("core.spmv")
    _, precond_s, _ = t.kernel_total("solver.precond")
    project_calls, project_s, project_bytes = t.kernel_total("solver.project")
    apcg_self_s = t.total_self_seconds("solver.apcg")
    flop = sum(reorth_flop(s) for s in run.solves)
    formed = t.counts.get("ritz.vectors_formed", 0)
    kept = t.counts.get("ritz.vectors_kept", 0)
    events = [e[0] for e in run.events]
    n_c = run.history["n_c_before"]
    return {
        "core.spmv_s": spmv_s,
        "core.spmv_calls": spmv_calls,
        "core.spmv_gflops": spmv_flop / spmv_s / 1e9 if spmv_s else 0.0,
        "core.spmm_s": t.seconds("core.spmm"),
        "core.spmm_cols": t.counts.get("core.spmm_cols", 0),
        "core.cholesky_s": t.seconds("core.cholesky"),
        "core.tridiag_eig_s": t.seconds("core.tridiag_eig"),
        "solver.apcg_s": t.seconds("solver.apcg"),
        "solver.apcg_self_s": apcg_self_s,
        "solver.iterations": sum(s.iterations for s in run.solves),
        "solver.reorth_flop": flop,
        "solver.apcg_self_gflops": flop / apcg_self_s / 1e9 if apcg_self_s > 0 else 0.0,
        "solver.precond_s": precond_s,
        "solver.project_s": project_s,
        "solver.project_calls": project_calls,
        "solver.project_gbps": project_bytes / project_s / 1e9 if project_s else 0.0,
        "solver.coarse_guess_s": t.seconds("solver.coarse_guess"),
        "solver.build_deflation_s": t.seconds("solver.build_deflation"),
        "solver.build_deflation_self_s": t.total_self_seconds("solver.build_deflation"),
        "ritz.lanczos_s": t.seconds("ritz.lanczos"),
        "ritz.ritz_pairs_s": t.seconds("ritz.ritz_pairs"),
        "ritz.prev_spectrum_s": t.seconds("ritz.prev_spectrum"),
        "ritz.select_converged_s": t.seconds("ritz.select_converged"),
        "ritz.cluster_filter_s": t.seconds("ritz.cluster_filter"),
        "ritz.cluster_filter_calls": t.calls("ritz.cluster_filter"),
        "ritz.vectors_formed": formed,
        "ritz.vectors_kept": kept,
        "ritz.kept_ratio": kept / formed if formed else 0.0,
        "recycle.guard_s": t.seconds("recycle.guard"),
        "recycle.build_calls": t.calls("solver.build_deflation"),
        "recycle.dropped_columns": events.count("dropped_column"),
        "recycle.restarts": events.count("restart"),
        "recycle.select_s": t.seconds("recycle.select"),
        "recycle.update_s": t.seconds("recycle.update"),
        "recycle.step_self_s": t.total_self_seconds("recycle.step"),
        "recycle.n_c_sum": sum(n_c),
        "recycle.n_c_final": n_c[-1] if n_c else 0,
        "trace.sequence_s": run.seconds,
        "trace.overhead_s": run.seconds - untraced_seconds,
    }


def machine_context(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace, grid=GRID, count=COUNT):
    """Set up, measure for about ``seconds`` and check one workload.

    Sequences are repeated while the next one is expected to end within the
    budget; at least one always runs.  A traced run spends the first half of
    the budget untraced (for the tracing overhead) and the rest traced.
    """
    workload = WORKLOADS[name]
    setup_seconds = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            generate(seed, grid, count)
            setup_seconds.append(perf_counter() - t0)

    # an untimed generation and a warm-up solve of the first system let
    # allocator and library set-up finish before anything is timed
    systems = generate(seed, grid, count)
    solve_sequence(systems[:1], workload)
    set_up()

    runs, traced = [], []
    start = perf_counter()
    budget = seconds / 2 if trace else seconds
    while not runs or perf_counter() - start + runs[-1].seconds <= budget:
        runs.append(solve_sequence(systems, workload))
        set_up()  # spreads the set-up samples over the run
    while trace and (not traced or perf_counter() - start + traced[-1].seconds <= seconds):
        traced.append(solve_sequence(systems, workload, Tracer()))

    everything = runs + traced
    failed = sum(failed_solves(r, workload, count) for r in everything)
    histories = [r.history for r in everything]
    reference = reference_history(name) if seed == 0 and (grid, count) == (GRID, COUNT) \
        else None
    result = {
        "workload": name,
        "context": machine_context(seed),
        "correct": failed == 0 and all(h == histories[0] for h in histories),
        "attempted": count * len(everything),
        "failed": failed,
        "sequence_seconds": {"untraced": [r.seconds for r in runs],
                             "traced": [r.seconds for r in traced]},
        "step_samples": int(sum(len(r.step_seconds) for r in runs)),
        "setup_seconds": setup_seconds,
        "history": histories[0],
        # a flag, not a failure: the reference is only defined for seed 0
        "history_matches_reference": None if reference is None else histories[0] == reference,
    }
    if trace:
        untraced = statistics.median(r.seconds for r in runs)
        per_run = [layer_metrics(r, untraced) for r in traced]
        result["metrics"] = {key: statistics.median(m[key] for m in per_run)
                             for key in per_run[0]}
        result["spans"] = [s.to_json() for s in traced[-1].tracer.spans]
    else:
        result["metrics"] = end_to_end_metrics(setup_seconds, runs)
    return result
