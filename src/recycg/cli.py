"""
Benchmark command line: run strategy grids over system sequences, emit
machine-readable reports and plot-ready data, and inspect saved artifacts.

Subcommands:
  run      execute the experiment described by a YAML config file
  inspect  print spectrum / rate diagnostics for a trace or report artifact
  gen      write a generated sequence to Matrix Market files
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import recycle
from .core import ContractViolation
from .problems import (InclusionGridSpec, generate_diffusion_sequence,
                       read_matrix_market, regular_inclusion_layout,
                       write_matrix_market)
from .recycle import RecycleStrategy, SequenceReport, run_sequence, subspace_overlap
from .ritz import (cluster_filter, lanczos_tridiag, predict_iterations,
                   select_converged)
from .core import TridiagSym, tridiag_eig
from .ritz import RitzSpectrum
from .solver import Preconditioner, SolveConfig, SolveTrace

CSV_HEADER = ("strategy,preconditioner,tol,k,iterations,n_c_before,"
              "n_c_selected,solve_seconds,augmentation_seconds,final_residual")

STRATEGY_SHORTHAND = {
    "none": RecycleStrategy(recycle.NONE),
    "cg": RecycleStrategy(recycle.NONE),
    "trks": RecycleStrategy(recycle.TRKS),
    "srks6": RecycleStrategy(recycle.SRKS, epsilon=1e-6),
    "srks14": RecycleStrategy(recycle.SRKS, epsilon=1e-14),
    "clust14": RecycleStrategy(recycle.SRKS_CLUSTER, epsilon=1e-14),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Parsed experiment grid."""

    problem: dict
    strategies: list
    strategy_names: list
    preconditioners: list
    tolerances: list
    max_iters: int = 2000
    seeds: list = field(default_factory=lambda: [0])
    output_dir: Path = Path("out")
    count: int = 40

    @classmethod
    def from_file(cls, path):
        path = Path(path)
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = mark.line + 1 if mark else "?"
            raise ConfigError(f"{path}:{line}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        try:
            problem = dict(raw["problem"])
            strategies, names = [], []
            for entry in raw["strategies"]:
                if isinstance(entry, str):
                    if entry not in STRATEGY_SHORTHAND:
                        raise ConfigError(f"{path}: unknown strategy {entry!r}")
                    strategies.append(STRATEGY_SHORTHAND[entry])
                    names.append(entry)
                else:
                    entry = dict(entry)
                    name = entry.pop("name", entry.get("kind", "custom"))
                    strategies.append(RecycleStrategy(**entry))
                    names.append(name)
            if not strategies:
                raise ConfigError(f"{path}: strategies list must be nonempty")
            tolerances = [float(t) for t in raw["tolerances"]]
            if not tolerances:
                raise ConfigError(f"{path}: tolerances list must be nonempty")
            preconds = [str(p) for p in raw.get("preconditioners", ["jacobi"])]
            return cls(problem=problem, strategies=strategies,
                       strategy_names=names,
                       preconditioners=preconds, tolerances=tolerances,
                       max_iters=int(raw.get("max_iters", 2000)),
                       seeds=[int(s) for s in raw.get("seeds", [0])],
                       output_dir=Path(raw.get("output_dir", "out")),
                       count=int(raw.get("count", raw["problem"].get("count", 40))))
        except KeyError as exc:
            raise ConfigError(f"{path}: missing config key {exc}") from exc


def problem_spec_from_dict(problem):
    kind = problem.get("kind", "diffusion")
    if kind == "files":
        return None
    if kind == "benchmark":
        from .problems import benchmark_spec
        return benchmark_spec(seed=int(problem.get("seed", 0)))
    grid = tuple(problem["grid"])
    layout = problem.get("inclusion_layout")
    if layout is None:
        per_axis = problem.get("inclusions_per_axis")
        if per_axis is None:
            count = int(problem.get("inclusions", 0))
            per_axis = round(count ** (1.0 / len(grid))) if count else 0
        layout = regular_inclusion_layout(grid, per_axis) if per_axis else ()
    inc_mean = problem.get("inclusion_coeff_mean", 100.0)
    if not isinstance(inc_mean, (list, tuple)):
        inc_mean = float(inc_mean)
    return InclusionGridSpec(
        grid=grid,
        inclusion_layout=layout,
        matrix_coeff_mean=float(problem.get("matrix_coeff_mean", 1.0)),
        inclusion_coeff_mean=inc_mean,
        rel_std=float(problem.get("rel_std", 0.10)),
        seed=int(problem.get("seed", 0)))


def _systems(config, seed):
    problem = config.problem
    if problem.get("kind", "diffusion") == "files":
        pairs = []
        rhs = read_matrix_market(problem["rhs"])
        for mat_path in problem["matrices"]:
            pairs.append((read_matrix_market(mat_path), rhs))
        return pairs
    spec = problem_spec_from_dict(problem)
    if seed != spec.seed:
        spec = InclusionGridSpec(grid=spec.grid,
                                 inclusion_layout=spec.inclusion_layout,
                                 matrix_coeff_mean=spec.matrix_coeff_mean,
                                 inclusion_coeff_mean=spec.inclusion_coeff_mean,
                                 rel_std=spec.rel_std, seed=seed)
    return generate_diffusion_sequence(spec, config.count)


def _preconditioner_factory(name):
    if name == "identity":
        return lambda A: Preconditioner.identity()
    if name == "jacobi":
        return Preconditioner.jacobi
    raise ConfigError(f"unknown preconditioner {name!r}")


@dataclass
class RunResult:
    name: str
    strategy: RecycleStrategy
    preconditioner: str
    tol: float
    seed: int
    report: SequenceReport


def _run_one(config, name, strategy, precond, tol, seed):
    cfg = SolveConfig(tol=tol, max_iters=config.max_iters)
    report = run_sequence(_systems(config, seed),
                          _preconditioner_factory(precond), strategy, cfg)
    return RunResult(name, strategy, precond, tol, seed, report)


def _format_row(result, rec):
    return (f"{result.name},{result.preconditioner},{result.tol:g},{rec.k},"
            f"{rec.iterations},{rec.n_c_before},{rec.n_c_selected},"
            f"{rec.solve_seconds:.6f},{rec.augmentation_seconds:.6f},"
            f"{rec.final_residual:.17g}")


def _summaries(results):
    summary = {}
    for res in results:
        recs = res.report.records
        iters = [r.iterations for r in recs]
        ncs = [r.n_c_before for r in recs]
        key = f"{res.name}|{res.preconditioner}|{res.tol:g}|seed{res.seed}"
        summary[key] = {
            "strategy": res.name,
            "preconditioner": res.preconditioner,
            "tol": res.tol,
            "seed": res.seed,
            "systems": len(recs),
            "avg_iterations": float(np.mean(iters)) if iters else math.nan,
            "avg_n_c": float(np.mean(ncs)) if ncs else math.nan,
            "max_n_c": int(max(ncs)) if ncs else 0,
            "avg_solve_seconds": float(np.mean([r.solve_seconds for r in recs])) if recs else math.nan,
            "avg_augmentation_seconds": float(np.mean([r.augmentation_seconds for r in recs])) if recs else math.nan,
            "all_converged": bool(all(r.converged for r in recs)) and not res.report.aborted,
        }
    return summary


def _write_outputs(config, results, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [CSV_HEADER]
    for res in results:
        rows.extend(_format_row(res, rec) for rec in res.report.records)
    (out_dir / "runs.csv").write_text("\n".join(rows) + "\n")

    summary = _summaries(results)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for res in results:
        tag = f"{res.name}_{res.preconditioner}_{res.tol:g}_seed{res.seed}".replace("-", "m")
        recs = res.report.records
        curves = {
            "iterations_vs_system": [(r.k, r.iterations) for r in recs],
            "nc_vs_system": [(r.k, r.n_c_before) for r in recs],
            "time_vs_system": [(r.k, r.solve_seconds + r.augmentation_seconds)
                               for r in recs],
        }
        for curve, points in curves.items():
            text = "\n".join(f"{k} {v:.17g}" if isinstance(v, float) else f"{k} {v}"
                             for k, v in points)
            (out_dir / f"{curve}_{tag}.dat").write_text(text + "\n")

    srks_runs = [r for r in results
                 if r.strategy.kind in (recycle.SRKS, recycle.SRKS_CLUSTER)
                 and r.report.final_basis is not None
                 and r.report.final_basis.shape[1] > 0]
    if len(srks_runs) >= 2:
        sv = subspace_overlap(srks_runs[0].report.final_basis,
                              srks_runs[1].report.final_basis)
        text = "\n".join(f"{i} {v:.17g}" for i, v in enumerate(sv))
        (out_dir / "overlap_singular_values.dat").write_text(text + "\n")
    return summary


def cli_run(config_path, out=None):
    """Run the full experiment grid; returns a process exit status."""
    config = ExperimentConfig.from_file(config_path)
    out_dir = Path(out) if out else config.output_dir
    results = [_run_one(config, name, strategy, precond, tol, seed)
               for (name, strategy) in zip(config.strategy_names, config.strategies)
               for precond in config.preconditioners
               for tol in config.tolerances
               for seed in config.seeds]
    summary = _write_outputs(config, results, out_dir)
    ok = all(entry["all_converged"] for entry in summary.values())
    return 0 if ok else 1


def _inspect_trace(artifact, stream):
    trace = SolveTrace.from_json_dict(artifact)
    m = trace.iterations
    print(f"trace: {m} iterations, converged={trace.converged}", file=stream)
    if m < 1:
        return 0
    T = lanczos_tridiag(trace.alphas, trace.betas)
    current = tridiag_eig(T)
    spectrum = RitzSpectrum(current.values, np.zeros((0, m)))
    if m >= 2:
        prev = tridiag_eig(T.truncated(m - 1)).values
        epsilon = float(artifact.get("epsilon", 1e-6))
        spectrum = select_converged(spectrum, prev, epsilon)
        flags = spectrum.converged_mask
    else:
        flags = np.zeros(m, dtype=bool)
    print("ritz spectrum (descending):", file=stream)
    for theta, flag in zip(spectrum.values, flags):
        print(f"  {theta: .12e}  {'converged' if flag else '-'}", file=stream)
    if m >= 3:
        retained = cluster_filter(spectrum.values, max(1, math.ceil(m / 5)))
        print(f"cluster segmentation: external indices {sorted(retained)}", file=stream)
    true_spectrum = artifact.get("spectrum")
    if true_spectrum:
        eps_cg = float(artifact.get("eps_cg", 1e-6))
        lam = np.sort(np.asarray(true_spectrum, dtype=np.float64))
        pred = predict_iterations(lam, eps_cg)
        print(f"predicted iterations (classical rate): {pred.n_eps_classical}", file=stream)
        print(f"observed iterations: {m}", file=stream)
    return 0


def cli_inspect(path, stream=None):
    """Print diagnostics for a saved trace or report; returns exit status."""
    stream = stream or sys.stdout
    path = Path(path)
    if not path.exists():
        print(f"error: no such artifact: {path}", file=sys.stderr)
        return 1
    artifact = json.loads(path.read_text())
    if "alphas" in artifact:
        return _inspect_trace(artifact, stream)
    print(f"report summary ({len(artifact)} runs):", file=stream)
    for key in sorted(artifact):
        entry = artifact[key]
        if isinstance(entry, dict) and "avg_iterations" in entry:
            print(f"  {key}: avg_iters={entry['avg_iterations']:.2f} "
                  f"avg_n_c={entry['avg_n_c']:.1f} max_n_c={entry['max_n_c']}",
                  file=stream)
    return 0


def cli_gen(spec_path, out_dir):
    """Write a generated sequence as Matrix Market files; returns exit status."""
    raw = yaml.safe_load(Path(spec_path).read_text())
    if not isinstance(raw, dict):
        print(f"error: {spec_path}: spec must be a mapping", file=sys.stderr)
        return 1
    problem = raw.get("problem", raw)
    count = int(raw.get("count", problem.get("count", 1)))
    spec = problem_spec_from_dict(problem)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rhs_written = False
    for k, (A, b) in enumerate(generate_diffusion_sequence(spec, count)):
        write_matrix_market(out / f"A_{k:03d}.mtx", A)
        if not rhs_written:
            write_matrix_market(out / "b.mtx", b)
            rhs_written = True
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="recycg",
                                     description="Krylov-recycling solver benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_inspect = sub.add_parser("inspect", help="inspect a trace or report artifact")
    p_inspect.add_argument("artifact")

    p_gen = sub.add_parser("gen", help="write a generated sequence to .mtx files")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cli_run(args.config, args.out)
        if args.command == "inspect":
            return cli_inspect(args.artifact)
        return cli_gen(args.spec, args.out)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
