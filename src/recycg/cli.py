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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import recycle
from .core import ContractViolation, NumericalFailure, _field, _integer, tridiag_eig
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

CONFIG_KEYS = {"problem", "count", "strategies", "preconditioners", "tolerances",
               "max_iters", "output_dir"}

PROBLEM_KEYS = {
    "diffusion": {"kind", "seed", "grid", "inclusion_layout", "inclusions_per_axis",
                  "inclusion_coeff_mean", "matrix_coeff_mean", "rel_std"},
    "benchmark": {"kind", "seed"},
    "files": {"kind", "rhs", "matrices"},
}


def load_yaml_mapping(path, what):
    """The YAML mapping in ``path``; a file that cannot be read, malformed
    YAML or a document that is not a mapping raise a one-line
    ContractViolation, to which ``main`` adds the path."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ContractViolation(f"cannot read {what}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ContractViolation(f"line {mark.line + 1}: {problem}" if mark else problem) from exc
    if not isinstance(raw, dict):
        raise ContractViolation(f"{what} must be a mapping")
    return raw


def config_list(key, value):
    """``value``, which must be a list: a scalar or a string is rejected
    instead of being iterated."""
    if not isinstance(value, list):
        raise ContractViolation(f"{key} must be a list")
    return value


def check_keys(what, mapping, known):
    """Raise a one-line ContractViolation naming the keys of ``mapping`` outside ``known``."""
    unknown = sorted(map(str, set(mapping) - known))
    if unknown:
        raise ContractViolation(f"unknown {what} keys {unknown}; "
                                f"the known ones are {sorted(known)}")


def _strategy(entry):
    """``(name, strategy)`` of a shorthand or of an inline mapping, which must
    name its ``kind`` (a missing one raises KeyError); ``name`` defaults to the
    kind, and the strategy checks ``kind`` and ``epsilon``."""
    if isinstance(entry, str) and entry in STRATEGY_SHORTHAND:
        return entry, STRATEGY_SHORTHAND[entry]
    if not isinstance(entry, dict):
        raise ContractViolation(f"unknown strategy {entry!r}")
    check_keys("strategy", entry, {"name", "kind", "epsilon"})
    kind = entry["kind"]
    return (entry.get("name", kind),
            RecycleStrategy(**{key: value for key, value in entry.items() if key != "name"}))


@dataclass(frozen=True)
class MatrixFiles:
    """A sequence stored as Matrix Market files: one matrix per system and
    one right-hand side shared by all of them."""

    rhs: Path
    matrices: tuple


def problem_spec_from_dict(problem):
    """The sequence a ``problem`` mapping names: an InclusionGridSpec for the
    ``diffusion`` and ``benchmark`` kinds, MatrixFiles for ``files``.  A key
    the kind does not take, a missing key or a bad value raises a one-line
    ContractViolation: the spec, the layout and the checker refuse the values."""
    if not isinstance(problem, dict):
        raise ContractViolation("problem must be a mapping")
    kind = problem.get("kind", "diffusion")
    if not isinstance(kind, str) or kind not in PROBLEM_KEYS:
        raise ContractViolation(f"unknown problem kind {kind!r}; "
                                f"the known ones are {sorted(PROBLEM_KEYS)}")
    check_keys(f"{kind} problem", problem, PROBLEM_KEYS[kind])
    try:
        if kind == "files":
            return MatrixFiles(_field("rhs", problem["rhs"], Path),
                               tuple(_field("matrices", matrix, Path)
                                     for matrix in config_list("matrices", problem["matrices"])))
        # the spec converts and checks its own values and holds their defaults
        values = {key: problem[key]
                  for key in problem.keys() - {"kind", "grid", "inclusions_per_axis"}}
        if kind == "benchmark":
            return benchmark_spec(**values)
        if "inclusion_layout" in problem and "inclusions_per_axis" in problem:
            raise ContractViolation("set inclusion_layout or inclusions_per_axis, not both")
        if "inclusions_per_axis" in problem:
            values["inclusion_layout"] = regular_inclusion_layout(
                problem["grid"], problem["inclusions_per_axis"])
        return InclusionGridSpec(grid=problem["grid"], **values)
    except KeyError as exc:
        raise ContractViolation(f"missing config key 'problem.{exc.args[0]}'") from exc


def read_matrix_files(files):
    """The (A, b) pairs of a ``files`` problem; a file that cannot be read or
    parsed, a vector listed as a matrix or a matrix given as the right-hand
    side raises a one-line ContractViolation naming the file."""
    def read(file, kind):
        try:
            value = read_matrix_market(file)
        except OSError as exc:
            raise ContractViolation(f"cannot read {file}: {exc.strerror}") from exc
        except ValueError as exc:  # malformed content or an invalid matrix
            raise ContractViolation(f"cannot read {file}: {str(exc).splitlines()[0]}") from exc
        if (found := "vector" if isinstance(value, np.ndarray) else "matrix") != kind:
            raise ContractViolation(f"{file} holds a {found}, not a {kind}")
        return value

    rhs = read(files.rhs, "vector")
    return tuple((read(matrix, "matrix"), rhs) for matrix in files.matrices)


def read_sequence(raw):
    """``(problem, count)`` of a config mapping, read the same way for ``run``
    and ``gen``: the sequence that ``problem_spec_from_dict`` makes of the
    ``problem`` mapping, and the number of systems to generate (default 40;
    a ``files`` problem solves every listed matrix).  A top-level key outside
    ``CONFIG_KEYS`` raises a one-line ContractViolation."""
    check_keys("config", raw, CONFIG_KEYS)
    if "problem" not in raw:
        raise ContractViolation("missing config key 'problem'")
    return (problem_spec_from_dict(raw["problem"]),
            _field("count", raw.get("count", 40), _integer, lambda c: c >= 1))


def run_key(name, preconditioner, tol):
    """The key of one run in ``summary.json`` and ``events.jsonl``."""
    return f"{name}|{preconditioner}|{tol:g}"


def run_tag(name, preconditioner, tol):
    """The suffix of one run's ``.dat`` curve files."""
    return f"{name}_{preconditioner}_{tol:g}".replace("-", "m")


@dataclass
class ExperimentConfig:
    """Parsed experiment grid: every (strategy, preconditioner, tolerance)
    combination runs on the one sequence that ``problem`` and ``count`` name.
    ``problem`` is the spec of a generated sequence or the (A, b) pairs read
    from a ``files`` problem; ``strategies`` holds ``(name, RecycleStrategy)``
    pairs and ``solve_configs`` one SolveConfig per tolerance."""

    problem: InclusionGridSpec | tuple
    count: int
    strategies: list
    preconditioners: list
    solve_configs: list
    output_dir: Path

    @classmethod
    def from_file(cls, path):
        """The experiment in ``path``.  Every fault of the config, a rule of
        its own or a value that the object taking it refuses, raises a
        one-line ContractViolation, to which ``main`` adds the path."""
        raw = load_yaml_mapping(path, "config")
        problem, count = read_sequence(raw)
        try:
            strategies = [_strategy(entry)
                          for entry in config_list("strategies", raw["strategies"])]
            solve_configs = [SolveConfig(tol=tol, max_iters=raw.get("max_iters", 2000))
                             for tol in config_list("tolerances", raw["tolerances"])]
        except KeyError as exc:
            raise ContractViolation(f"missing config key {exc}") from exc
        preconditioners = [_field("preconditioners", name, str, PRECONDITIONERS.__contains__)
                           for name in config_list("preconditioners",
                                                   raw.get("preconditioners", ["jacobi"]))]
        if not (strategies and preconditioners and solve_configs):
            raise ContractViolation("strategies, preconditioners and tolerances cannot be empty")
        if isinstance(problem, MatrixFiles) and not problem.matrices:
            raise ContractViolation("problem.matrices must be a nonempty list")
        config = cls(problem=problem, count=count, strategies=strategies,
                     preconditioners=preconditioners, solve_configs=solve_configs,
                     output_dir=_field("output_dir", raw.get("output_dir", "out"), Path))
        keys, tags = set(), set()
        for name, _, precond, cfg in config.runs():
            if (key := run_key(name, precond, cfg.tol)) in keys:
                raise ContractViolation(f"two runs share the key {key!r}")
            if "/" in (tag := run_tag(name, precond, cfg.tol)) or tag in tags:
                raise ContractViolation(f"the .dat tag {tag!r} of run {key!r} holds '/' or repeats")
            keys.add(key)
            tags.add(tag)
        if isinstance(problem, MatrixFiles):
            config.problem = read_matrix_files(problem)
        return config

    def runs(self):
        """``(name, strategy, preconditioner, SolveConfig)`` of every run, in
        output order."""
        return [(name, strategy, precond, cfg)
                for name, strategy in self.strategies
                for precond in self.preconditioners
                for cfg in self.solve_configs]


def _systems(config):
    """The (A, b) pairs of the configured sequence."""
    if isinstance(config.problem, InclusionGridSpec):
        return generate_diffusion_sequence(config.problem, config.count)
    return config.problem


@dataclass
class RunResult:
    name: str
    strategy: RecycleStrategy
    preconditioner: str
    tol: float
    report: SequenceReport

    @property
    def key(self):
        return run_key(self.name, self.preconditioner, self.tol)


def _run_one(config, name, strategy, precond, cfg):
    report = run_sequence(_systems(config), PRECONDITIONERS[precond], strategy, cfg)
    return RunResult(name, strategy, precond, cfg.tol, report)


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
        summary[res.key] = {
            "strategy": res.name,
            "preconditioner": res.preconditioner,
            "tol": res.tol,
            "systems": len(recs),
            # a run with no records has null averages
            "avg_iterations": float(np.mean(iters)) if iters else None,
            "avg_n_c": float(np.mean(ncs)) if ncs else None,
            "max_n_c": int(max(ncs)) if ncs else 0,
            "avg_solve_seconds": float(np.mean([r.solve_seconds for r in recs])) if recs else None,
            "avg_augmentation_seconds": (float(np.mean([r.augmentation_seconds for r in recs]))
                                         if recs else None),
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
    # strict JSON: a NaN raises instead of writing a file that parsers reject
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")

    (out_dir / "events.jsonl").write_text("".join(
        json.dumps({"run": res.key, "event": kind, **fields}) + "\n"
        for res in results for kind, fields in res.report.events))

    for res in results:
        tag = run_tag(res.name, res.preconditioner, res.tol)
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

    bases = [res.report.final_basis for res in results if res.report.final_basis is not None]
    if len(bases) == 2:
        sv = subspace_overlap(*bases)
        text = "\n".join(f"{i} {v:.17g}" for i, v in enumerate(sv))
        (out_dir / "overlap_singular_values.dat").write_text(text + "\n")
    return summary


def cli_run(config_path, out=None):
    """Run the full experiment grid; returns a process exit status.  Only the
    first two SRKS-kind runs with a nonempty final basis keep it, for the
    overlap diagnostic; every other run drops its basis as it finishes."""
    config = ExperimentConfig.from_file(config_path)
    out_dir = Path(out) if out else config.output_dir
    results, kept = [], 0
    for run in config.runs():
        results.append(result := _run_one(config, *run))
        basis = result.report.final_basis
        if (kept < 2 and result.strategy.kind in (recycle.SRKS, recycle.SRKS_CLUSTER)
                and basis is not None and basis.shape[1] > 0):
            kept += 1
        else:
            result.report.final_basis = None
    summary = _write_outputs(results, out_dir)
    return 0 if all(entry["all_converged"] for entry in summary.values()) else 1


def _trace_lines(artifact):
    """The diagnostics of a saved trace; raises on a trace it cannot decode."""
    trace = SolveTrace.from_json_dict(artifact)
    m = trace.iterations
    lines = [f"trace: {m} iterations, converged={trace.converged}"]
    if m < 1:
        return lines
    alphas = np.asarray(trace.alphas, dtype=np.float64)
    if not np.all(np.isfinite(alphas) & (alphas > 0.0)):
        raise ContractViolation("need one finite positive alpha per iteration")
    # the run's own selection, on the values alone: a saved trace does not
    # carry the search directions that Ritz vectors are built from
    T = lanczos_tridiag(alphas, trace.betas)
    values = tridiag_eig(T).values
    epsilon = artifact.get("epsilon", 1e-6)
    flags = recycle.flag_spectrum(T, values, RecycleStrategy(recycle.SRKS, epsilon))
    kept = recycle.flag_spectrum(T, values, RecycleStrategy(recycle.SRKS_CLUSTER, epsilon))
    lines.append("ritz spectrum (descending):")
    lines.extend(f"  {theta: .12e}  {'converged' if flag else '-'}"
                 for theta, flag in zip(values, flags))
    lines.append(f"kept by the cluster filter: indices {np.flatnonzero(kept).tolist()}")
    true_spectrum = artifact.get("spectrum")
    if true_spectrum:
        eps_cg = float(artifact.get("eps_cg", 1e-6))
        lam = np.sort(np.asarray(true_spectrum, dtype=np.float64))
        pred = predict_iterations(lam, eps_cg)
        lines.append(f"predicted iterations (classical rate): {pred.n_eps_classical}")
        lines.append(f"observed iterations: {m}")
    return lines


def _summary_lines(artifact):
    """One line per run; the null averages of a run with no records read n/a."""
    lines = [f"report summary ({len(artifact)} runs):"]
    for key in sorted(artifact):
        entry = artifact[key]
        if isinstance(entry, dict) and "avg_iterations" in entry:
            iters, n_c = entry["avg_iterations"], entry["avg_n_c"]
            lines.append(f"  {key}: avg_iters={'n/a' if iters is None else f'{iters:.2f}'} "
                         f"avg_n_c={'n/a' if n_c is None else f'{n_c:.1f}'} "
                         f"max_n_c={entry['max_n_c']}")
    return lines


def cli_inspect(path, stream=None):
    """Print diagnostics for a saved trace or report; returns exit status.
    An artifact that is missing, malformed or cannot be decoded prints one
    error line that names ``path`` as given and returns 1."""
    stream = stream or sys.stdout
    try:
        artifact = json.loads(Path(path).read_text())
        if not isinstance(artifact, dict):
            raise TypeError("artifact must be a JSON object")
        lines = _trace_lines(artifact) if "alphas" in artifact else _summary_lines(artifact)
    except OSError as exc:
        problem = f"cannot read artifact: {exc.strerror}"
    except json.JSONDecodeError as exc:
        problem = f"malformed JSON: {exc}"
    except (ValueError, TypeError, KeyError, NumericalFailure) as exc:
        problem = f"cannot decode artifact: {exc}".splitlines()[0]
    else:
        print("\n".join(lines), file=stream)
        return 0
    print(f"error: {path}: {problem}", file=sys.stderr)
    return 1


def cli_gen(spec_path, out_dir):
    """Write the sequence that a config's ``problem`` and ``count`` name as
    Matrix Market files; returns exit status.  The keys only ``run`` reads
    are accepted and ignored."""
    problem, count = read_sequence(load_yaml_mapping(spec_path, "spec"))
    if isinstance(problem, MatrixFiles):
        raise ContractViolation("gen needs a generated problem, not kind: files")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, (A, b) in enumerate(generate_diffusion_sequence(problem, count)):
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
    if args.command == "inspect":
        return cli_inspect(args.artifact)
    path = args.config if args.command == "run" else args.spec
    try:
        return cli_run(path, args.out) if args.command == "run" else cli_gen(path, args.out)
    except ContractViolation as exc:  # any config fault; the file is named as given
        print(f"error: {path}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
