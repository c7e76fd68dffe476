"""Benchmark CLI tests: config parsing, artifact layout, determinism,
inspection, and sequence export."""
import io
import json
from pathlib import Path

import numpy as np
import pytest

from recycg import (ContractViolation, InclusionGridSpec, RecycleStrategy, SequenceReport,
                    generate_diffusion_sequence, read_matrix_market, write_matrix_market)
from recycg.cli import (CSV_HEADER, ExperimentConfig, cli_gen,
                        cli_inspect, cli_run, load_yaml_mapping, main,
                        problem_spec_from_dict, read_sequence)
from conftest import benchmark_solve

REPO_ROOT = Path(__file__).resolve().parent.parent


SMALL_CONFIG = """\
problem:
  kind: diffusion
  grid: [8, 8]
  inclusion_layout: [[[2, 6], [2, 6]]]
  inclusion_coeff_mean: 100.0
  seed: 0
strategies: [none, trks]
preconditioners: [jacobi]
tolerances: [1.0e-6]
count: 2
max_iters: 500
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_timing(csv_text):
    """Drop the two timing columns so runs can be compared byte-stably."""
    out = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        out.append(",".join(cols[:7] + cols[9:]))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path))
    assert [s.kind for _, s in cfg.strategies] == ["none", "trks"]
    assert [(c.tol, c.max_iters) for c in cfg.solve_configs] == [(1e-6, 500)]
    assert cfg.count == 2
    assert cfg.problem.seed == 0


def test_config_inline_strategy(tmp_path):
    text = SMALL_CONFIG.replace(
        "strategies: [none, trks]",
        "strategies: [{name: tight, kind: srks, epsilon: 1.0e-10}]")
    cfg = ExperimentConfig.from_file(write_config(tmp_path, text))
    assert cfg.strategies == [("tight", RecycleStrategy("srks", epsilon=1e-10))]


def test_config_unknown_strategy(tmp_path):
    text = SMALL_CONFIG.replace("[none, trks]", "[bogus]")
    with pytest.raises(ContractViolation, match=r"unknown strategy 'bogus'"):
        ExperimentConfig.from_file(write_config(tmp_path, text))


def test_config_missing_key(tmp_path):
    with pytest.raises(ContractViolation, match="missing config key"):
        ExperimentConfig.from_file(write_config(tmp_path, "problem: {}\n"))


def test_config_yaml_error_reports_line(tmp_path):
    """The reader names the line; only ``main`` names the file."""
    path = write_config(tmp_path, "problem: {kind: diffusion\nstrategies: [\n")
    with pytest.raises(ContractViolation) as excinfo:
        ExperimentConfig.from_file(path)
    assert str(excinfo.value) == "line 2: expected ',' or '}', but got ':'"


def test_problem_spec_shorthand():
    spec = problem_spec_from_dict({"grid": [16, 16], "inclusions_per_axis": 2,
                                   "inclusion_coeff_mean": [10.0, 20.0, 30.0, 40.0]})
    assert len(spec.inclusion_layout) == 4
    assert spec.inclusion_coeff_mean == (10.0, 20.0, 30.0, 40.0)


def test_problem_spec_benchmark_kind():
    spec = problem_spec_from_dict({"kind": "benchmark", "seed": 5})
    assert spec.grid == (64, 64)
    assert spec.seed == 5


# ---------------------------------------------------------------------------
# cli_run


def test_run_produces_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli_run(config, out=out) == 0

    csv_text = (out / "runs.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # two strategies x two systems

    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 2
    for entry in summary.values():
        assert entry["all_converged"]
        assert entry["systems"] == 2

    for curve in ("iterations_vs_system", "nc_vs_system", "time_vs_system"):
        matches = list(out.glob(f"{curve}_*.dat"))
        assert len(matches) == 2

    # a clean run drops no column and fails no solve
    assert (out / "events.jsonl").read_text() == ""


def test_run_single_row(tmp_path):
    text = SMALL_CONFIG.replace("[none, trks]", "[none]").replace("count: 2",
                                                                  "count: 1")
    out = tmp_path / "out"
    assert cli_run(write_config(tmp_path, text), out=out) == 0
    lines = (out / "runs.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_run_deterministic_excluding_timings(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_run(config, out=out1) == 0
    assert cli_run(config, out=out2) == 0
    csv1 = strip_timing((out1 / "runs.csv").read_text())
    csv2 = strip_timing((out2 / "runs.csv").read_text())
    assert csv1 == csv2


def test_run_nonconverged_exit_status(tmp_path):
    text = SMALL_CONFIG.replace("max_iters: 500", "max_iters: 2")
    out = tmp_path / "out"
    assert cli_run(write_config(tmp_path, text), out=out) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not all(e["all_converged"] for e in summary.values())


def test_run_overlap_diagnostic_for_srks_pair(tmp_path):
    text = SMALL_CONFIG.replace("[none, trks]", "[srks14, clust14]") \
                       .replace("tolerances: [1.0e-6]", "tolerances: [1.0e-8]") \
                       .replace("count: 2", "count: 4")
    out = tmp_path / "out"
    cli_run(write_config(tmp_path, text), out=out)
    overlap = out / "overlap_singular_values.dat"
    assert overlap.exists()
    values = [float(line.split()[1]) for line in
              overlap.read_text().strip().splitlines()]
    assert all(-1e-9 <= v <= np.sqrt(2.0) + 1e-9 for v in values)


def test_run_drops_the_bases_no_output_reads(tmp_path, monkeypatch):
    import recycg.cli
    held = {}
    write_outputs = recycg.cli._write_outputs

    def record(results, out_dir):
        held.update((res.name, res.report.final_basis is not None) for res in results)
        return write_outputs(results, out_dir)

    monkeypatch.setattr(recycg.cli, "_write_outputs", record)
    out = tmp_path / "out"
    cli_run(write_config(tmp_path, SMALL_CONFIG.replace("[none, trks]", "[trks, srks6, srks14]")),
            out=out)
    # the overlap diagnostic reads the bases of the first two SRKS-kind runs
    assert held == {"trks": False, "srks6": True, "srks14": True}
    assert (out / "overlap_singular_values.dat").exists()


# ---------------------------------------------------------------------------
# cli_inspect


def test_inspect_trace(tmp_path):
    from recycg import (Preconditioner, SolveConfig, SparseSpdMatrix,
                        apcg_solve, build_deflation)
    A = SparseSpdMatrix.from_dense(np.diag([1.0, 4.0]))
    D = build_deflation(A, np.zeros((2, 0)))
    _, trace = apcg_solve(A, Preconditioner.identity(), D,
                          np.array([1.0, 1.0]), SolveConfig(tol=1e-12))
    artifact = {**trace.to_json_dict(), "spectrum": [1.0, 4.0], "eps_cg": 1e-6}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(artifact))

    stream = io.StringIO()
    assert cli_inspect(path, stream=stream) == 0
    text = stream.getvalue()
    assert "ritz spectrum" in text
    assert "converged" in text
    assert "predicted iterations" in text


def test_inspect_keeps_the_runs_selection(tmp_path):
    from recycg import RecycleStrategy
    from recycg.recycle import select_spectrum
    # a trace on which the cluster size ceil(m / 5) over all m Ritz values
    # splits the spectrum differently from the run's ceil(preselected / 5)
    *_, trace = benchmark_solve()
    strategy = RecycleStrategy("srks_cluster", epsilon=1e-14)
    expected = np.flatnonzero(select_spectrum(trace, strategy).converged_mask)
    assert 0 < len(expected)

    artifact = {**trace.to_json_dict(), "epsilon": strategy.epsilon}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(artifact))
    stream = io.StringIO()
    assert cli_inspect(path, stream=stream) == 0
    line, = [ln for ln in stream.getvalue().splitlines()
             if ln.startswith("kept by the cluster filter: indices ")]
    assert json.loads(line.split("indices ", 1)[1]) == expected.tolist()


def test_inspect_trace_stopped_by_iteration_cap(tmp_path):
    from recycg import (Preconditioner, SolveConfig, SparseSpdMatrix,
                        apcg_solve, build_deflation)
    A = SparseSpdMatrix.from_dense(np.diag(np.geomspace(1.0, 1e3, 40)))
    D = build_deflation(A, np.zeros((40, 0)))
    _, trace = apcg_solve(A, Preconditioner.identity(), D, np.ones(40),
                          SolveConfig(tol=1e-12, max_iters=5))
    assert not trace.converged and len(trace.betas) == trace.iterations - 1 == 4
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace.to_json_dict()))
    stream = io.StringIO()
    assert cli_inspect(path, stream=stream) == 0
    ritz_lines = [ln for ln in stream.getvalue().splitlines()
                  if ln.endswith(("converged", "-"))]
    assert len(ritz_lines) == 5


def test_inspect_report_summary(tmp_path):
    summary = {"none|jacobi|0.001|seed0": {"avg_iterations": 10.0,
                                           "avg_n_c": 0.0, "max_n_c": 0}}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    stream = io.StringIO()
    assert cli_inspect(path, stream=stream) == 0
    assert "avg_iters=10.00" in stream.getvalue()


def test_inspect_missing_artifact(tmp_path):
    assert cli_inspect(tmp_path / "nope.json") == 1


def test_inspect_names_the_artifact_as_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["inspect", "./missing.json"]) == 1
    assert capsys.readouterr().err == ("error: ./missing.json: cannot read artifact: "
                                       "No such file or directory\n")


@pytest.mark.parametrize("text, message", [
    ("{bad", "malformed JSON"),
    ("[1, 2]", "artifact must be a JSON object"),
    ('{"alphas": [1.0, 2.0], "betas": []}', "need exactly m - 1 beta coefficients"),
    ('{"alphas": [1.0, 2.0], "betas": [-1.0]}', "negative beta coefficient"),
    ('{"alphas": [1.0, "two"], "betas": [0.5]}', "could not convert string to float"),
    ('{"alphas": [1.0, 0.0], "betas": [0.5]}', "need one finite positive alpha per iteration"),
    ('{"alphas": [1.0, 2.0], "betas": [0.5], "iterations": 1}',
     "iterations 1 is not the number of alphas (2)"),
    ('{"alphas": [1.0, 2.0], "betas": [0.5], "iterations": 2.7}', "bad iterations value 2.7"),
    ('{"alphas": [1.0, 2.0], "betas": [0.5], "converged": "false"}',
     "bad converged value 'false'"),
], ids=["malformed", "list", "betas-short", "beta-negative", "alpha-word", "alpha-zero",
        "iterations", "iterations-fraction", "converged-string"])
def test_inspect_malformed_artifact(tmp_path, capsys, text, message):
    path = tmp_path / "artifact.json"
    path.write_text(text)
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# cli_gen and main


def test_gen_writes_sequence(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("problem:\n  grid: [4, 4]\n  seed: 0\ncount: 2\n")
    out = tmp_path / "seq"
    assert cli_gen(spec, out) == 0
    assert (out / "A_000.mtx").exists()
    assert (out / "A_001.mtx").exists()
    A = read_matrix_market(out / "A_000.mtx")
    b = read_matrix_market(out / "b.mtx")
    assert A.n == 16 and len(b) == 16


def test_main_files_problem_round_trip(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("problem:\n  grid: [6, 6]\n  seed: 1\ncount: 2\n")
    seq = tmp_path / "seq"
    assert main(["gen", "--spec", str(spec), "--out", str(seq)]) == 0

    config = tmp_path / "files.yaml"
    config.write_text(
        "problem:\n"
        "  kind: files\n"
        f"  rhs: {seq / 'b.mtx'}\n"
        "  matrices:\n"
        f"    - {seq / 'A_000.mtx'}\n"
        f"    - {seq / 'A_001.mtx'}\n"
        "strategies: [trks]\n"
        "tolerances: [1.0e-8]\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "runs.csv").read_text().strip().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("text, message", [
    ("problem:\n  kind: files\n  rhs: b.mtx\n  matrices: [A_000.mtx]\ncount: 1\n",
     "gen needs a generated problem"),
    ("- grid: [4, 4]\n", "spec must be a mapping"),
    (None, "cannot read spec"),
    ("problem: {grid: [4, 4]\ncount: 1\n", "spec.yaml: line 2: "),
    # the YAML reader gives no line for a character it does not accept
    ("count: 1\x01\n", "spec.yaml: unacceptable character #x0001: "),
], ids=["files", "not-a-mapping", "missing", "malformed", "control-character"])
def test_gen_config_errors_exit_2(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.yaml"
    if text is not None:
        spec.write_text(text)
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "seq")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "seq").exists()


UNKNOWN_BOGUS = ("unknown config keys ['bogus']; the known ones are ['count', 'max_iters', "
                 "'output_dir', 'preconditioners', 'problem', 'strategies', 'tolerances']")


@pytest.mark.parametrize("command, old, new, message", [
    ("run", "count: 2", "count: 2\nbogus: 1", UNKNOWN_BOGUS),
    ("gen", "count: 2", "count: 2\nbogus: 1", UNKNOWN_BOGUS),
    ("run", "tolerances: [1.0e-6]", "tolerances: [2.0]", "bad tol value 2.0"),
    # gen reads only the problem and count, so its value fault is the count
    ("gen", "count: 2", "count: 0", "bad count value 0"),
], ids=["run-structural", "gen-structural", "run-value", "gen-value"])
def test_config_path_as_given_exit_2(tmp_path, capsys, monkeypatch, command, old, new, message):
    """Every config fault prints the path as the command line gave it."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, SMALL_CONFIG.replace(old, new), name="cfg.yaml")
    option = "--config" if command == "run" else "--spec"
    assert main([command, option, "./cfg.yaml", "--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: ./cfg.yaml: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_missing_config_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"{missing}: cannot read config" in err and err.count("\n") == 1


@pytest.mark.parametrize("old, new, message", [
    ("[none, trks]", "[{kind: srks, bogus: 3}]", "unknown strategy keys ['bogus']"),
    ("[none, trks]", "[{kind: trks, nc_limit: 5}]", "unknown strategy keys ['nc_limit']"),
    ("[none, trks]", "[{kind: srks_cluster, min_cluster: 3}]",
     "unknown strategy keys ['min_cluster']"),
    ("[none, trks]", "[{kind: srks, epsilon: tiny}]", "bad epsilon value 'tiny'"),
    ("[none, trks]", "[[srks]]", "unknown strategy ['srks']"),
    # without a kind the strategy would run plain CG and ignore its epsilon
    ("[none, trks]", "[{name: tight, epsilon: 1.0e-10}]", "missing config key 'kind'"),
    ("[none, trks]", "none", "strategies must be a list"),
    ("tolerances: [1.0e-6]", "tolerances: [1.0e-6, tight]", "bad tol value 'tight'"),
    ("max_iters: 500", "max_iters: lots", "bad max_iters value 'lots'"),
    ("max_iters: 500", "max_iters: 2.5", "bad max_iters value 2.5"),
    # YAML reads yes and true as booleans, which Python would count as 1
    ("max_iters: 500", "max_iters: yes", "bad max_iters value True"),
    ("[none, trks]", "[{kind: srks, epsilon: yes}]", "bad epsilon value True"),
    ("count: 2", "count: 0", "bad count value 0"),
    ("count: 2", "count: 2\nseeds: [0, one]", "unknown config keys ['seeds']"),
    ("count: 2", "count: 2\nseeds: 3", "unknown config keys ['seeds']"),
    ("[jacobi]", "[jacobi, ilu]", "bad preconditioners value 'ilu'"),
    # two runs with one key would share a summary entry and the .dat curves
    ("[none, trks]", "[{kind: srks, epsilon: 1.0e-6}, {kind: srks, epsilon: 1.0e-10}]",
     "two runs share the key 'srks|jacobi|1e-06'"),
    ("[none, trks]", "[trks, trks]", "two runs share the key 'trks|jacobi|1e-06'"),
    ("[jacobi]", "[jacobi, jacobi]", "two runs share the key 'none|jacobi|1e-06'"),
    ("tolerances: [1.0e-6]", "tolerances: [1.0e-6, 1.0000001e-6]",
     "two runs share the key 'none|jacobi|1e-06'"),
    # a '-' is written as 'm' in the .dat names, and a '/' would name a directory
    ("[none, trks]", "[{name: s-1, kind: none}, {name: sm1, kind: trks}]",
     "the .dat tag 'sm1_jacobi_1em06' of run 'sm1|jacobi|1e-06' holds '/' or repeats"),
    ("[none, trks]", "[{name: a/b, kind: none}]",
     "the .dat tag 'a/b_jacobi_1em06' of run 'a/b|jacobi|1e-06' holds '/' or repeats"),
    # an empty list would solve nothing and still exit 0
    ("[none, trks]", "[]", "strategies, preconditioners and tolerances cannot be empty"),
    ("[jacobi]", "[]", "strategies, preconditioners and tolerances cannot be empty"),
    ("tolerances: [1.0e-6]", "tolerances: []",
     "strategies, preconditioners and tolerances cannot be empty"),
], ids=["unknown-key", "nc_limit", "min_cluster", "epsilon", "strategy-list",
        "inline-without-kind", "strategies-string", "tolerance", "max_iters-word",
        "max_iters-float", "max_iters-bool", "epsilon-bool", "count", "seed", "seeds-scalar", "preconditioner",
        "same-inline-name", "same-strategy", "same-preconditioner", "same-printed-tol",
        "same-dat-tag", "slash-in-name", "strategies-empty",
        "preconditioners-empty", "tolerances-empty"])
def test_run_config_errors_exit_2(tmp_path, capsys, old, new, message):
    assert old in SMALL_CONFIG
    config = write_config(tmp_path, SMALL_CONFIG.replace(old, new))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_tolerance_out_of_range_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    import recycg.cli
    solved = []
    monkeypatch.setattr(recycg.cli, "run_sequence", lambda *args: solved.append(args))
    config = write_config(tmp_path, SMALL_CONFIG.replace("tolerances: [1.0e-6]",
                                                         "tolerances: [1.0e-6, 2.0]"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: bad tol value 2.0\n"
    assert solved == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["srks", "srks_cluster"])
@pytest.mark.parametrize("epsilon", [".nan", ".inf"])
def test_non_finite_srks_epsilon_rejected_before_any_solve(tmp_path, capsys, monkeypatch,
                                                           kind, epsilon):
    """A NaN epsilon would make every SRKS solve select nothing: plain PCG."""
    import recycg.cli
    solved = []
    monkeypatch.setattr(recycg.cli, "run_sequence", lambda *args: solved.append(args))
    config = write_config(tmp_path, SMALL_CONFIG.replace(
        "[none, trks]", f"[{{kind: {kind}, epsilon: {epsilon}}}]"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: bad epsilon value {epsilon.strip('.')}\n"
    assert solved == [] and not (tmp_path / "out").exists()


def test_unknown_strategy_kind_is_a_config_error(tmp_path, capsys):
    """The strategy's own check reaches the caller, and main adds the path."""
    config = write_config(tmp_path, SMALL_CONFIG.replace("[none, trks]", "[{kind: bogus}]"))
    with pytest.raises(ContractViolation) as excinfo:
        ExperimentConfig.from_file(config)
    assert str(excinfo.value) == "unknown strategy kind 'bogus'"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown strategy kind 'bogus'\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_empty_matrices_list(tmp_path, capsys, monkeypatch):
    """A files problem with no matrix would write a header-only runs.csv."""
    monkeypatch.chdir(tmp_path)
    write_matrix_market(tmp_path / "b.mtx", np.ones(4))
    config = write_config(tmp_path, "problem:\n  kind: files\n  rhs: b.mtx\n  matrices: []\n"
                                    "strategies: [none]\ntolerances: [1.0e-6]\n")
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: problem.matrices must be a nonempty list\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rhs, matrix, message", [
    ("nob.mtx", "A.mtx", "cannot read nob.mtx: No such file or directory"),
    ("b.mtx", "bad.mtx", "cannot read bad.mtx: bad.mtx:1: missing MatrixMarket header"),
], ids=["missing", "malformed"])
def test_run_unreadable_files_exit_2(tmp_path, capsys, monkeypatch, rhs, matrix, message):
    import recycg.cli
    monkeypatch.chdir(tmp_path)
    A, b = next(generate_diffusion_sequence(InclusionGridSpec(grid=(4, 4)), 1))
    write_matrix_market(tmp_path / "A.mtx", A)
    write_matrix_market(tmp_path / "b.mtx", b)
    (tmp_path / "bad.mtx").write_text("not a matrix\n")
    solved = []
    monkeypatch.setattr(recycg.cli, "run_sequence", lambda *args: solved.append(args))
    config = write_config(tmp_path, f"problem:\n  kind: files\n  rhs: {rhs}\n"
                                    f"  matrices: [{matrix}]\nstrategies: [none]\n"
                                    "tolerances: [1.0e-6]\n")
    assert main(["run", "--config", str(config), "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and message in err and err.count("\n") == 1
    assert solved == [] and not (tmp_path / "out").exists()


# problem and count are read by one function for run and gen alike
PROBLEM_ERRORS = [
    (SMALL_CONFIG[:SMALL_CONFIG.index("strategies")], "problem: foo\n",
     "problem must be a mapping"),
    ("kind: diffusion\n", "kind: diffusoin\n", "unknown problem kind 'diffusoin'"),
    ("kind: diffusion\n  grid: [8, 8]\n  inclusion_layout: [[[2, 6], [2, 6]]]\n"
     "  inclusion_coeff_mean: 100.0\n", "kind: benchmark\n  grid: [8, 8]\n",
     "unknown benchmark problem keys ['grid']"),
    ("seed: 0\n", "sed: 4\n", "unknown diffusion problem keys ['sed']"),
    ("seed: 0\n", "seed: abc\n", "bad seed value 'abc'"),
    ("seed: 0\n", "seed: -1\n", "bad seed value -1"),
    ("seed: 0\n", "seed: true\n", "bad seed value True"),
    ("grid: [8, 8]", "grid: 5", "bad grid value 5"),
    ("grid: [8, 8]", "grid: [8, eight]", "bad grid value [8, 'eight']"),
    # the regular layout reads the grid before the spec checks it
    ("grid: [8, 8]\n  inclusion_layout: [[[2, 6], [2, 6]]]",
     "grid: [8, eight]\n  inclusions_per_axis: 2", "bad grid value [8, 'eight']"),
    ("  grid: [8, 8]\n", "", "missing config key 'problem.grid'"),
    ("[[[2, 6], [2, 6]]]", "[[2, 6]]", "bad inclusion_layout value [[2, 6]]"),
    ("[[[2, 6], [2, 6]]]", "[[[2, 6], [2, 9]]]", "inclusion block out of grid bounds"),
    ("inclusion_coeff_mean: 100.0", "inclusion_coeff_mean: [10.0, 20.0]",
     "need one inclusion mean per inclusion block"),
    ("inclusion_coeff_mean: 100.0", "inclusion_coeff_mean: heavy",
     "bad inclusion_coeff_mean value 'heavy'"),
    ("inclusion_coeff_mean: 100.0", "inclusions: 4", "unknown diffusion problem keys ['inclusions']"),
    ("inclusion_coeff_mean: 100.0", "inclusions_per_axis: 2",
     "set inclusion_layout or inclusions_per_axis, not both"),
    ("seed: 0\n", "seed: 0\n  count: 2\n", "unknown diffusion problem keys ['count']"),
    ("seed: 0\n", "seed: 0\n  rel_std: -0.5\n", "bad rel_std value -0.5"),
    ("max_iters: 500", "max_iter: 500", "unknown config keys ['max_iter']"),
    ("count: 2", "count: two", "bad count value 'two'"),
    ("count: 2", "count: true", "bad count value True"),
    # more blocks per axis than cells on the smallest axis would repeat blocks
    ("inclusion_layout: [[[2, 6], [2, 6]]]\n  inclusion_coeff_mean: 100.0",
     "inclusions_per_axis: 9", "bad inclusions_per_axis value 9"),
]
PROBLEM_ERROR_IDS = [
    "problem-scalar", "kind-typo", "benchmark-grid", "seed-typo", "seed-word", "seed-negative",
    "seed-bool", "grid-scalar", "grid-word", "per-axis-grid-word", "grid-missing",
    "layout-block", "layout-bounds", "means-count", "means-word", "inclusions",
    "layout-and-per-axis", "count-in-problem", "rel_std", "max_iters-typo", "count-word",
    "count-bool", "per-axis-beyond-grid"]


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("old, new, message", PROBLEM_ERRORS, ids=PROBLEM_ERROR_IDS)
def test_problem_config_errors_exit_2(tmp_path, capsys, command, old, new, message):
    assert old in SMALL_CONFIG
    config = write_config(tmp_path, SMALL_CONFIG.replace(old, new, 1))
    flag = "--config" if command == "run" else "--spec"
    assert main([command, flag, str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_solves_the_sequence_gen_writes(tmp_path, monkeypatch):
    import recycg.cli
    solved = []

    def spy(systems, *args):
        systems = list(systems)
        solved.append(systems)
        return run_sequence(systems, *args)

    run_sequence = recycg.cli.run_sequence
    monkeypatch.setattr(recycg.cli, "run_sequence", spy)
    config = write_config(tmp_path, SMALL_CONFIG.replace("seed: 0", "seed: 3")
                                                .replace("[none, trks]", "[none]"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert main(["gen", "--spec", str(config), "--out", str(tmp_path / "seq")]) == 0
    (systems,) = solved
    written = sorted((tmp_path / "seq").glob("A_*.mtx"))
    assert len(written) == len(systems) == 2
    b = read_matrix_market(tmp_path / "seq" / "b.mtx")
    for (A, rhs), path in zip(systems, written):
        np.testing.assert_array_equal(A.values, read_matrix_market(path).values)
        np.testing.assert_array_equal(rhs, b)
    # the seed is read: seed 0 draws other matrices
    seed0 = InclusionGridSpec(grid=(8, 8), inclusion_layout=(((2, 6), (2, 6)),), seed=0)
    A0, _ = next(generate_diffusion_sequence(seed0, 1))
    assert not np.array_equal(A0.values, systems[0][0].values)


def test_gen_count_default_matches_run(tmp_path):
    config = write_config(tmp_path, SMALL_CONFIG.replace("count: 2\n", "")
                                                .replace("[none, trks]", "[none]"))
    assert main(["gen", "--spec", str(config), "--out", str(tmp_path / "seq")]) == 0
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "runs.csv").read_text().strip().splitlines()[1:]
    assert len(list((tmp_path / "seq").glob("A_*.mtx"))) == len(rows) == 40


def readme_config_block():
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("### Configuration format", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("name", [path.name for path in sorted((REPO_ROOT / "configs").glob("*.yaml"))]
                         + ["README.md"])
def test_shipped_configs_parse(tmp_path, name):
    if name == "README.md":
        path = write_config(tmp_path, readme_config_block())
    else:
        path = REPO_ROOT / "configs" / name
    config = ExperimentConfig.from_file(path)
    problem, count = read_sequence(load_yaml_mapping(path, "spec"))
    assert (problem, count) == (config.problem, config.count)
    assert isinstance(problem, InclusionGridSpec)


def test_run_writes_events(tmp_path, monkeypatch):
    """Each event's fields are named where it is logged, so a kind the CLI
    has never seen is written as it is."""
    import recycg.cli
    events = [("dropped_column", {"index": 2, "origin": ("direction", 0, 5)}),
              ("borderline_selection", {"system": 3, "count": 2}),
              ("solve_failed", {"system": 1, "message": "residual norm is not finite"})]
    monkeypatch.setattr(recycg.cli, "run_sequence",
                        lambda *args: SequenceReport(events=list(events), aborted=True))
    out = tmp_path / "out"
    assert cli_run(write_config(tmp_path, SMALL_CONFIG.replace("[none, trks]", "[trks]")),
                   out=out) == 1
    lines = (out / "events.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"run": "trks|jacobi|1e-06", "event": "dropped_column", "index": 2,
         "origin": ["direction", 0, 5]},
        {"run": "trks|jacobi|1e-06", "event": "borderline_selection", "system": 3, "count": 2},
        {"run": "trks|jacobi|1e-06", "event": "solve_failed", "system": 1,
         "message": "residual norm is not finite"},
    ]
    assert set(json.loads((out / "summary.json").read_text())) == {"trks|jacobi|1e-06"}


def test_main_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: {}\n")
    assert main(["run", "--config", str(bad)]) == 2
