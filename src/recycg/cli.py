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
import operator
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import recycle
from .core import ContractViolation, tridiag_eig
from .problems import (InclusionGridSpec, benchmark_spec, generate_diffusion_sequence,
                       read_matrix_market, regular_inclusion_layout, write_matrix_market)
from .recycle import RecycleStrategy, SequenceReport, run_sequence, subspace_overlap
from .ritz import lanczos_tridiag, predict_iterations
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

PRECONDITIONERS = {"identity": lambda A: Preconditioner.identity(),
                   "jacobi": Preconditioner.jacobi}


class ConfigError(ValueError):
    pass


def load_yaml_mapping(path, what):
    """The YAML mapping in ``path``; a file that cannot be read, malformed
    YAML or a document that is not a mapping raise a one-line ConfigError."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else "?"
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{path}:{line}: {problem}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a mapping")
    return raw


def config_value(path, key, value, convert, valid=lambda v: True):
    """``convert(value)``; a value that ``convert`` rejects or whose result
    fails ``valid`` raises a one-line ConfigError."""
    try:
        if valid(out := convert(value)):
            return out
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}: bad {key} value {value!r}")


def config_list(path, key, value, convert=lambda v: v, valid=lambda v: True):
    """``value`` as a list of ``config_value`` items; a scalar or a string
    is rejected instead of being iterated."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: {key} must be a list")
    return [config_value(path, key, item, convert, valid) for item in value]


def _strategy(path, entry):
    """``(name, strategy)`` of a shorthand or of an inline mapping."""
    if isinstance(entry, str) and entry in STRATEGY_SHORTHAND:
        return entry, STRATEGY_SHORTHAND[entry]
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: unknown strategy {entry!r}")
    unknown = sorted(map(str, set(entry) - {"name", "kind", "epsilon"}))
    if unknown:
        raise ConfigError(f"{path}: unknown strategy keys {unknown}; "
                          "an inline strategy takes name, kind and epsilon")
    epsilon = config_value(path, "epsilon", entry.get("epsilon", RecycleStrategy.epsilon), float)
    return (entry.get("name", entry.get("kind", "custom")),
            RecycleStrategy(entry.get("kind", recycle.NONE), epsilon))


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
        raw = load_yaml_mapping(path, "config")
        try:
            problem = dict(raw["problem"])
            named = [_strategy(path, entry)
                     for entry in config_list(path, "strategies", raw["strategies"])]
            tolerances = config_list(path, "tolerances", raw["tolerances"], float)
            if not named or not tolerances:
                raise ConfigError(f"{path}: strategies and tolerances must be nonempty lists")
            preconds = config_list(path, "preconditioners",
                                   raw.get("preconditioners", ["jacobi"]), str,
                                   PRECONDITIONERS.__contains__)
            count = raw.get("count", problem.get("count", 40))
            return cls(problem=problem,
                       strategies=[strategy for _, strategy in named],
                       strategy_names=[name for name, _ in named],
                       preconditioners=preconds, tolerances=tolerances,
                       max_iters=config_value(path, "max_iters", raw.get("max_iters", 2000),
                                              operator.index, lambda v: v >= 1),
                       seeds=config_list(path, "seeds", raw.get("seeds", [0]),
                                         operator.index, lambda v: v >= 0),
                       output_dir=Path(raw.get("output_dir", "out")),
                       count=config_value(path, "count", count, operator.index, lambda v: v >= 1))
        except KeyError as exc:
            raise ConfigError(f"{path}: missing config key {exc}") from exc


def problem_spec_from_dict(problem):
    kind = problem.get("kind", "diffusion")
    if kind == "files":
        return None
    if kind == "benchmark":
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
        rhs = read_matrix_market(problem["rhs"])
        return [(read_matrix_market(mat_path), rhs) for mat_path in problem["matrices"]]
    spec = replace(problem_spec_from_dict(problem), seed=seed)
    return generate_diffusion_sequence(spec, config.count)


@dataclass
class RunResult:
    name: str
    strategy: RecycleStrategy
    preconditioner: str
    tol: float
    seed: int
    report: SequenceReport


def _run_one(config, name, strategy, precond, tol, seed):
    report = run_sequence(_systems(config, seed), PRECONDITIONERS[precond], strategy,
                          SolveConfig(tol=tol, max_iters=config.max_iters))
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


def _write_outputs(results, out_dir):
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
    summary = _write_outputs(results, out_dir)
    return 0 if all(entry["all_converged"] for entry in summary.values()) else 1


def _inspect_trace(artifact, stream):
    trace = SolveTrace.from_json_dict(artifact)
    m = trace.iterations
    print(f"trace: {m} iterations, converged={trace.converged}", file=stream)
    if m < 1:
        return 0
    # the run's own selection, on the values alone: a saved trace does not
    # carry the search directions that Ritz vectors are built from
    T = lanczos_tridiag(trace.alphas[:m], trace.betas[:m - 1])
    values = tridiag_eig(T).values
    epsilon = float(artifact.get("epsilon", 1e-6))
    flags = recycle.flag_spectrum(T, values, RecycleStrategy(recycle.SRKS, epsilon))
    kept = recycle.flag_spectrum(T, values, RecycleStrategy(recycle.SRKS_CLUSTER, epsilon))
    print("ritz spectrum (descending):", file=stream)
    for theta, flag in zip(values, flags):
        print(f"  {theta: .12e}  {'converged' if flag else '-'}", file=stream)
    print(f"kept by the cluster filter: indices {np.flatnonzero(kept).tolist()}",
          file=stream)
    true_spectrum = artifact.get("spectrum")
    if true_spectrum:
        eps_cg = float(artifact.get("eps_cg", 1e-6))
        lam = np.sort(np.asarray(true_spectrum, dtype=np.float64))
        pred = predict_iterations(lam, eps_cg)
        print(f"predicted iterations (classical rate): {pred.n_eps_classical}", file=stream)
        print(f"observed iterations: {m}", file=stream)
    return 0


def cli_inspect(path, stream=None):
    """Print diagnostics for a saved trace or report; returns exit status.
    A missing or malformed artifact prints one error line and returns 1."""
    stream = stream or sys.stdout
    path = Path(path)
    try:
        artifact = json.loads(path.read_text())
        problem = None if isinstance(artifact, dict) else "artifact must be a JSON object"
    except OSError as exc:
        problem = f"cannot read artifact: {exc.strerror}"
    except json.JSONDecodeError as exc:
        problem = f"malformed JSON: {exc}"
    if problem:
        print(f"error: {path}: {problem}", file=sys.stderr)
        return 1
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
    raw = load_yaml_mapping(spec_path, "spec")
    problem = raw.get("problem", raw)
    count = config_value(spec_path, "count", raw.get("count", problem.get("count", 1)),
                         operator.index, lambda v: v >= 1)
    spec = problem_spec_from_dict(problem)
    if spec is None:
        raise ConfigError(f"{spec_path}: gen needs a generated problem, not kind: files")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, (A, b) in enumerate(generate_diffusion_sequence(spec, count)):
        write_matrix_market(out / f"A_{k:03d}.mtx", A)
        if k == 0:
            write_matrix_market(out / "b.mtx", b)
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
