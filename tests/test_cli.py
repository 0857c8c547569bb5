import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import bsmx
from bsmx import cli, io
from bsmx.cli import main
from bsmx.irmxne import ReweightState
from bsmx.model import BlockSparseEstimate, SolverConfig, densify
from bsmx.mxne import ConvergenceTrace
from bsmx.sim import random_instance

from helpers import fed_fifo


@pytest.fixture()
def problem_files(tmp_path):
    rng = np.random.default_rng(0)
    m, g, _ = random_instance(rng, 15, 30, 1, 8, n_active=3, noise=0.1)
    gain = tmp_path / "gain.csv"
    data = tmp_path / "data.csv"
    io.write_matrix_csv(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    return gain, data, m, g


def _read_trace(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_outputs_and_manifest(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "40", "--out", str(out), "--seed", "7"])
    assert rc == 0
    est = io.read_estimate(out / "estimate.json")
    assert est.n_active > 0
    rows = _read_trace(out / "trace.csv")
    assert float(rows[-1]["gap"]) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["rng_seeds"] == [7]
    assert str(gain) in manifest["inputs"]
    assert manifest["wall_time_s"] > 0


@pytest.mark.parametrize("piped", ["gain", "data"])
def test_solve_reads_an_input_through_a_fifo(problem_files, tmp_path, piped):
    gain, data, _, _ = problem_files
    # the piped gain is binary, the piped data CSV
    io.write_matrix_binary(tmp_path / "gain.bin", io.read_matrix(gain))
    files = {"gain": tmp_path / "gain.bin", "data": data}
    base = ["solve", "--lambda-pct", "40", "--debias"]
    assert main([*base, "--gain", str(files["gain"]), "--data", str(data),
                 "--out", str(tmp_path / "file")]) == 0
    with fed_fifo(tmp_path / "pipe", files[piped].read_bytes()) as pipe:
        paths = {**files, piped: pipe}
        rc = main([*base, "--gain", str(paths["gain"]),
                   "--data", str(paths["data"]),
                   "--out", str(tmp_path / "pipe_run")])
    assert rc == 0
    for name in ("estimate.json", "estimate_debiased.json", "trace.csv"):
        lines = [(tmp_path / run / name).read_text().splitlines()
                 for run in ("file", "pipe_run")]
        if name == "trace.csv":
            # drop the seconds column
            lines = [[row.rsplit(",", 1)[0] for row in rows] for rows in lines]
        assert lines[0] == lines[1]
    inputs = json.loads((tmp_path / "pipe_run" / "manifest.json").read_text()
                        )["inputs"]
    # the consumed pipe is not opened again for a digest
    assert inputs[str(pipe)] is None
    other = "data" if piped == "gain" else "gain"
    assert inputs[str(files[other])] == hashlib.sha256(
        files[other].read_bytes()).hexdigest()


def test_solve_at_lambda_max_gives_empty_estimate(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "100", "--out", str(out)])
    assert rc == 0
    est = io.read_estimate(out / "estimate.json")
    assert est.n_active == 0


@pytest.fixture()
def degenerate_files(tmp_path):
    # a binary gain, a data header of 12 x 0, and all-zero data
    g = np.random.default_rng(0).standard_normal((12, 30))
    paths = {name: tmp_path / f"{name}.bin" for name in ("gain", "empty", "zero")}
    io.write_matrix_binary(paths["gain"], g)
    with open(paths["empty"], "wb") as fh:
        fh.write(io.MAGIC + np.array([12, 0], "<u4").tobytes())
    io.write_matrix_binary(paths["zero"], np.zeros((12, 5)))
    return paths


@pytest.mark.parametrize("lam", [["--lambda", "1"], ["--lambda-pct", "30"]])
def test_solve_rejects_data_without_columns_before_out(
        degenerate_files, tmp_path, caplog, lam):
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(degenerate_files["gain"]),
               "--data", str(degenerate_files["empty"]), *lam,
               "--out", str(out)])
    assert rc == 2
    assert (f"{degenerate_files['empty']}: data matrix has shape (12, 0)"
            in caplog.text)
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check"])
def test_lambda_pct_on_zero_data_rejected_before_out(
        degenerate_files, tmp_path, caplog, command):
    out = tmp_path / "run"
    est = tmp_path / "estimate.json"
    io.write_estimate(est, BlockSparseEstimate.empty(30, 1, 5))
    tail = (["--out", str(out)] if command == "solve"
            else ["--estimate", str(est)])
    rc = main([command, "--gain", str(degenerate_files["gain"]),
               "--data", str(degenerate_files["zero"]), "--lambda-pct", "30",
               *tail])
    assert rc == 2
    assert "--lambda-pct 30.0 gives lambda 0.0" in caplog.text
    assert "lambda_max is 0.0" in caplog.text
    assert not out.exists()


def test_lambda_on_zero_data_gives_empty_estimate(degenerate_files, tmp_path,
                                                  capsys):
    problem = ["--gain", str(degenerate_files["gain"]),
               "--data", str(degenerate_files["zero"]), "--lambda", "1"]
    out = tmp_path / "run"
    assert main(["solve", *problem, "--out", str(out)]) == 0
    assert io.read_estimate(out / "estimate.json").n_active == 0
    capsys.readouterr()
    assert main(["check", *problem,
                 "--estimate", str(out / "estimate.json")]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["gap"] == 0.0 and result["n_active"] == 0


def test_solve_methods_agree_at_single_reweight(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    out_mx = tmp_path / "mx"
    out_ir = tmp_path / "ir"
    base = ["--gain", str(gain), "--data", str(data), "--lambda-pct", "40",
            "--max-reweight", "1"]
    assert main(["solve", *base, "--method", "mxne", "--out", str(out_mx)]) == 0
    assert main(["solve", *base, "--method", "irmxne", "--out", str(out_ir)]) == 0
    est_mx = io.read_estimate(out_mx / "estimate.json")
    est_ir = io.read_estimate(out_ir / "estimate.json")
    assert est_mx.active_set == est_ir.active_set
    assert np.array_equal(densify(est_mx), densify(est_ir))
    assert (out_ir / "reweight_state.json").exists()


def test_check_matches_trace_final_primal(problem_files, tmp_path, capsys):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    assert main(["solve", "--gain", str(gain), "--data", str(data),
                 "--lambda-pct", "35", "--out", str(out)]) == 0
    rows = _read_trace(out / "trace.csv")
    final_primal = float(rows[-1]["primal"])
    capsys.readouterr()
    rc = main(["check", "--gain", str(gain), "--data", str(data),
               "--estimate", str(out / "estimate.json"),
               "--lambda-pct", "35"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert abs(result["primal"] - final_primal) <= 1e-10
    assert result["gap"] < 1e-6


def test_check_matches_reweight_objective(problem_files, tmp_path, capsys):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    assert main(["solve", "--gain", str(gain), "--data", str(data),
                 "--lambda-pct", "35", "--method", "irmxne",
                 "--out", str(out)]) == 0
    state = json.loads((out / "reweight_state.json").read_text())
    capsys.readouterr()
    rc = main(["check", "--gain", str(gain), "--data", str(data),
               "--estimate", str(out / "estimate.json"),
               "--lambda-pct", "35"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert abs(result["sqrt_penalty_objective"]
               - state["objective_trace"][-1]) <= 1e-10


def test_solve_with_debias_writes_second_estimate(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "40", "--debias", "--out", str(out)])
    assert rc == 0
    raw = io.read_estimate(out / "estimate.json")
    deb = io.read_estimate(out / "estimate_debiased.json")
    assert deb.active_set == raw.active_set


def test_solve_binary_gain_input(tmp_path):
    rng = np.random.default_rng(1)
    m, g, _ = random_instance(rng, 12, 20, 1, 6, n_active=2, noise=0.1)
    gain = tmp_path / "gain.bsmx"
    data = tmp_path / "data.csv"
    io.write_matrix_binary(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "50", "--out", str(out)])
    assert rc == 0


def test_solve_rejects_nan_in_binary_gain(tmp_path, caplog):
    rng = np.random.default_rng(1)
    m, g, _ = random_instance(rng, 12, 20, 1, 6, n_active=2, noise=0.1)
    entries = g.entries.copy()
    entries[3, 5] = np.nan
    gain = tmp_path / "gain.bsmx"
    data = tmp_path / "data.bsmx"
    io.write_matrix_binary(gain, entries)
    io.write_matrix_binary(data, m.entries)
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "50", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "non-finite" in caplog.text


def test_solve_rejects_oversized_binary_header(problem_files, tmp_path, caplog):
    _, data, _, _ = problem_files
    gain = tmp_path / "gain.bsmx"
    gain.write_bytes(io._HEADER.pack(io.MAGIC, 1 << 20, 1 << 20) + bytes(64))
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "50", "--out", str(out)])
    assert rc == 2
    assert "payload is 64 bytes" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("transforms", [[], ["--loose", "0.6", "--depth", "0.8"]],
                         ids=["plain", "loose-depth"])
def test_loaded_design_is_read_only(tmp_path, transforms):
    rng = np.random.default_rng(2)
    m, g, _ = random_instance(rng, 15, 12, 3, 6, n_active=2, noise=0.1)
    gain = tmp_path / "gain.bsmx"
    data = tmp_path / "data.csv"
    io.write_matrix_binary(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    args = cli._parse_args(["check", "--gain", str(gain), "--data", str(data),
                            "--n-orient", "3", "--lambda-pct", "40",
                            "--estimate", "unused.json", *transforms])
    _, design, _, _ = cli._load_problem(args)
    assert not design.entries.flags.writeable
    with pytest.raises(ValueError):
        design.entries[0, 0] = 1.0
    if not transforms:
        assert design.entries.tobytes() == g.entries.tobytes()


def test_runtime_does_not_import_scipy(tmp_path):
    # scipy is only a test dependency: the oracle of sim's filters
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import bsmx.cli
        from bsmx import io
        from bsmx.sim import random_instance
        m, g, _ = random_instance(np.random.default_rng(0), 8, 10, 1, 4)
        io.write_matrix_binary("gain.bsmx", g.entries)
        io.write_matrix_csv("data.csv", m.entries)
        assert bsmx.cli.main(["solve", "--gain", "gain.bsmx", "--data",
                              "data.csv", "--lambda-pct", "50", "--method",
                              "irmxne", "--out", "solve"]) == 0
        assert bsmx.cli.main(["simulate", "--seed", "0", "--n-sensors", "8",
                              "--n-locations", "12", "--n-times", "5",
                              "--n-trials", "3", "--n-noise-dipoles", "2",
                              "--out", "sim"]) == 0
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(bsmx.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_solve_free_orientation_with_transforms(tmp_path, capsys):
    rng = np.random.default_rng(2)
    m, g, _ = random_instance(rng, 15, 12, 3, 6, n_active=2, noise=0.1)
    gain = tmp_path / "gain.csv"
    data = tmp_path / "data.csv"
    io.write_matrix_csv(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--n-orient", "3", "--lambda-pct", "40", "--loose", "0.6",
               "--depth", "0.8", "--out", str(out)])
    assert rc == 0
    rows = _read_trace(out / "trace.csv")
    final_primal = float(rows[-1]["primal"])
    capsys.readouterr()
    rc = main(["check", "--gain", str(gain), "--data", str(data),
               "--estimate", str(out / "estimate.json"), "--n-orient", "3",
               "--lambda-pct", "40", "--loose", "0.6", "--depth", "0.8"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert abs(result["primal"] - final_primal) <= 1e-8 * max(1.0, final_primal)


def test_dimension_error_exits_2_naming_file(problem_files, tmp_path):
    gain, _, m, _ = problem_files
    bad_data = tmp_path / "bad_data.csv"
    io.write_matrix_csv(bad_data, m.entries[:-1])
    rc = main(["solve", "--gain", str(gain), "--data", str(bad_data),
               "--lambda-pct", "40", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_missing_lambda_exits_2(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda", "0.5", "--lambda-pct", "40",
               "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("flag, value", [
    ("--lambda-pct", "0"), ("--lambda-pct", "-5"), ("--lambda", "0"),
    ("--lambda", "nan"), ("--lambda", "inf"),
])
def test_bad_lambda_exits_2_before_any_work(problem_files, tmp_path,
                                            monkeypatch, caplog, command,
                                            flag, value):
    gain, data, _, _ = problem_files
    read = []
    monkeypatch.setattr(cli, "_read_gain_and_data",
                        lambda *args: read.append(args))
    out = tmp_path / "x"
    extra = (["--out", str(out)] if command == "solve"
             else ["--estimate", str(tmp_path / "estimate.json")])
    rc = main([command, "--gain", str(gain), "--data", str(data),
               flag, value, *extra])
    assert rc == 2
    assert f"{flag} must be positive and finite" in caplog.text
    assert read == []
    assert not out.exists()


def _fail_on_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("flag, value, message", [
    ("--n-orient", "0", "--n-orient must be at least 1, got 0"),
    ("--n-orient", "-3", "--n-orient must be at least 1, got -3"),
    ("--depth", "-1", "--depth must lie in [0, 1], got -1.0"),
    ("--depth", "1.5", "--depth must lie in [0, 1], got 1.5"),
    ("--loose", "0", "--loose must lie in (0, 1], got 0.0"),
    ("--loose", "2", "--loose must lie in (0, 1], got 2.0"),
    ("--loose", "0.6", "--loose requires --n-orient 3, got 1"),
])
def test_bad_problem_option_exits_2_before_reading(problem_files, tmp_path,
                                                   monkeypatch, caplog,
                                                   command, flag, value,
                                                   message):
    gain, data, _, _ = problem_files
    monkeypatch.setattr(io, "read_matrix", _fail_on_call("read_matrix"))
    out = tmp_path / "x"
    extra = (["--out", str(out)] if command == "solve"
             else ["--estimate", str(tmp_path / "estimate.json")])
    rc = main([command, "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "40", flag, value, *extra])
    assert rc == 2
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv, patched, message", [
    (["solve", "--lambda-pct", "40", "--gap-tol", "0"], "read_matrix",
     "gap_tol must be positive"),
    (["benchmark", "--seed", "0", "--gap-tol", "0"], "random_instance",
     "gap_tol must be positive"),
    (["simulate", "--seed", "0", "--n-sensors", "0"], "generate_scenario",
     "n_sensors must be positive"),
    (["simulate", "--seed", "0", "--n-orient", "0"], "generate_scenario",
     "n_orient must be positive"),
    (["benchmark", "--seed", "0", "--n-sensors", "0"], "lambda_max",
     "n_sensors must be positive"),
    (["benchmark", "--seed", "0", "--n-times", "0"], "lambda_max",
     "n_times must be positive"),
    (["benchmark", "--seed", "0", "--n-orient", "0"], "lambda_max",
     "n_orient must be positive"),
    (["benchmark", "--seed", "0", "--n-locations", "3"], "lambda_max",
     "n_locations must be at least n_active=5, got 3"),
    (["simulate", "--seed", "0", "--lambda-pct", "inf"], "generate_scenario",
     "lambda_pct must be positive and finite"),
    (["benchmark", "--seed", "0", "--lambda-pct", "inf"], "random_instance",
     "lambda_pct must be positive and finite"),
    (["simulate", "--seed", "-1"], "generate_scenario",
     "--seed must be non-negative, got -1"),
    (["benchmark", "--seed", "-1"], "random_instance",
     "--seed must be non-negative, got -1"),
    (["simulate", "--seed", "0", "--resamples", "-3"], "generate_scenario",
     "--resamples must be non-negative, got -3"),
    (["simulate", "--seed", "0", "--jobs", "0"], "generate_scenario",
     "--jobs must be at least 1, got 0"),
    (["simulate", "--seed", "0", "--seed", "0"], "generate_scenario",
     "--seed gives 0 twice"),
    (["simulate", "--seed", "0", "--lambda-pct", "30", "--lambda-pct", "30"],
     "generate_scenario", "--lambda-pct gives 30.0 twice"),
    (["simulate", "--seed", "0", "--method", "mxne", "--method", "mxne"],
     "generate_scenario", "--method gives 'mxne' twice"),
    (["benchmark", "--seed", "0", "--lambda-pct", "50", "--lambda-pct",
      "50.0"], "random_instance", "--lambda-pct gives 50.0 twice"),
    (["benchmark", "--seed", "0", "--methods", "bcd_as,bcd_as"],
     "random_instance", "--methods gives 'bcd_as' twice"),
    (["benchmark", "--seed", "0", "--methods", "bcd_as,pgd_as",
      "--methods", "pgd_as"], "random_instance",
     "--methods gives 'pgd_as' twice"),
    (["solve", "--lambda-pct", "40", "--gap-tol", "inf"], "read_matrix",
     "gap_tol must be positive and finite"),
    (["solve", "--lambda-pct", "40", "--method", "irmxne", "--reweight-tol",
      "inf"], "read_matrix", "reweight_tol must be positive and finite"),
    (["simulate", "--seed", "0", "--gap-tol", "inf"], "generate_scenario",
     "gap_tol must be positive and finite"),
    (["simulate", "--seed", "0", "--method", "irmxne", "--reweight-tol",
      "nan"], "generate_scenario", "reweight_tol must be positive and finite"),
    (["benchmark", "--seed", "0", "--gap-tol", "nan"], "random_instance",
     "gap_tol must be positive and finite"),
    (["benchmark", "--seed", "0", "--reweight-tol", "inf"], "random_instance",
     "reweight_tol must be positive and finite"),
])
def test_bad_option_exits_2_before_any_work(problem_files, tmp_path,
                                            monkeypatch, caplog, argv,
                                            patched, message):
    gain, data, _, _ = problem_files
    owner = io if patched == "read_matrix" else cli
    monkeypatch.setattr(owner, patched, _fail_on_call(patched))
    if argv[0] == "solve":
        argv = argv + ["--gain", str(gain), "--data", str(data)]
    out = tmp_path / "x"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    assert message in caplog.text
    assert not out.exists()


def test_solve_writes_through_the_traced_writers(problem_files, tmp_path,
                                                 monkeypatch):
    # the benchmark tracer times these three as the io.write spans
    calls = []

    def spy(owner, name):
        wrapped = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spy(io, "write_estimate")
    spy(ConvergenceTrace, "to_csv")
    spy(ReweightState, "to_json")
    gain, data, _, _ = problem_files
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "40", "--method", "irmxne", "--debias",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    assert sorted(calls) == ["to_csv", "to_json", "write_estimate",
                             "write_estimate"]


def test_solver_failure_exits_3(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "20", "--gap-tol", "1e-14",
               "--max-bcd-iter", "1", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_config_file_precedence(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_pct": 100.0}))
    out1 = tmp_path / "r1"
    assert main(["solve", "--gain", str(gain), "--data", str(data),
                 "--config", str(cfg), "--out", str(out1)]) == 0
    assert io.read_estimate(out1 / "estimate.json").n_active == 0
    # explicit flag wins over the config value
    out2 = tmp_path / "r2"
    assert main(["solve", "--gain", str(gain), "--data", str(data),
                 "--config", str(cfg), "--lambda-pct", "40",
                 "--out", str(out2)]) == 0
    assert io.read_estimate(out2 / "estimate.json").n_active > 0


SIM_ARGS = ["--n-sensors", "20", "--n-locations", "40", "--n-times", "10",
            "--n-trials", "8", "--n-noise-dipoles", "4"]


def test_simulate_writes_metrics_and_stability(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--seed", "2",
               "--lambda-pct", "40", "--lambda-pct", "60",
               "--method", "mxne", "--method", "irmxne", "--debias",
               "--resamples", "3", "--out", str(out)])
    assert rc == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # seeds x lambdas x methods
    for row in rows:
        assert row["method"] in ("mxne", "irmxne")
        assert float(row["gof"]) <= 1.0
        int(row["true_positives"])
    stability = json.loads((out / "stability.json").read_text())
    assert set(stability) == {"mxne", "irmxne"}
    assert set(stability["mxne"]) == {"40.0", "60.0"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rng_seeds"] == [1, 2]


@pytest.mark.parametrize("key, value, column, expected", [
    ("lambda_pct", 30, "lambda_pct", "30.0"),
    ("seed", 3, "seed", "3"),
    ("method", "irmxne", "method", "irmxne"),
])
def test_simulate_config_value_is_one_element_list(tmp_path, key, value,
                                                   column, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flags = {"seed": ["--seed", "1"], "lambda_pct": ["--lambda-pct", "50"],
             "method": ["--method", "mxne"]}
    flags.pop(key)
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, *sum(flags.values(), []),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row[column] for row in rows] == [expected]


def test_simulate_config_rejects_other_types(tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_pct": {"value": 30}}))
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--method", "mxne",
               "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert "'lambda_pct'" in caplog.text


@pytest.mark.parametrize("key,value", [
    ("seed", ["x"]), ("seed", [[1]]), ("lambda_pct", [30, "high"]),
    ("seed", []), ("lambda_pct", []), ("method", []),
])
def test_simulate_config_checks_list_elements(tmp_path, caplog, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flags = {"seed": ["--seed", "1"], "lambda_pct": ["--lambda-pct", "50"],
             "method": ["--method", "mxne"]}
    flags.pop(key)
    rc = main(["simulate", *SIM_ARGS, *sum(flags.values(), []),
               "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert repr(key) in caplog.text
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("value", [[30], 30, ["30"]])
def test_simulate_config_list_keys_match_rows(tmp_path, value):
    # stability keys and metric rows share the float the flag would give
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_pct": value}))
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--method", "mxne",
               "--resamples", "2", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    stability = json.loads((out / "stability.json").read_text())
    assert list(stability["mxne"]) == ["30.0"]
    with open(out / "metrics.csv") as fh:
        assert [row["lambda_pct"] for row in csv.DictReader(fh)] == ["30.0"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["lambda_pct"] == [30.0]


def test_simulate_draws_each_scenario_once(tmp_path, monkeypatch):
    drawn = []
    generate = cli.generate_scenario

    def counting(spec):
        drawn.append(spec.rng_seed)
        return generate(spec)

    monkeypatch.setattr(cli, "generate_scenario", counting)
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--seed", "2",
               "--lambda-pct", "40", "--lambda-pct", "60",
               "--method", "mxne", "--method", "irmxne", "--debias",
               "--resamples", "3", "--jobs", "1",
               "--out", str(tmp_path / "sim")])
    assert rc == 0
    assert drawn == [1, 2]


def test_simulate_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["simulate", *SIM_ARGS, "--seed", "3", "--seed", "4",
            "--lambda-pct", "50", "--lambda-pct", "70", "--method", "mxne",
            "--resamples", "3"]
    assert main([*base, "--jobs", "1", "--out", str(serial)]) == 0
    assert main([*base, "--jobs", "2", "--out", str(parallel)]) == 0
    for name in ("metrics.csv", "stability.json"):
        assert (serial / name).read_text() == (parallel / name).read_text()


def test_simulate_jobs_option_is_the_only_worker_count(tmp_path, monkeypatch):
    # the environment chooses no worker count; the manifest records the one
    # used
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("BSMX_JOBS", "2")
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--seed", "2",
               "--lambda-pct", "60", "--method", "mxne", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["jobs"] == 1


def test_simulate_generates_seed_when_absent(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, "--lambda-pct", "60",
               "--method", "mxne", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["rng_seeds"]) == 1


def test_benchmark_outputs(tmp_path):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--lambda-pct", "70",
               "--out", str(out)])
    assert rc == 0
    with open(out / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    methods = {row["method"] for row in rows}
    assert methods == {"bcd_as", "bcd_full", "pgd_as", "pgd_full"}
    assert len(rows) == 8
    for row in rows:
        assert float(row["final_gap"]) < 1e-6
        assert float(row["seconds"]) >= 0


def test_check_depth_rejects_estimate_over_other_locations(tmp_path, caplog):
    rng = np.random.default_rng(3)
    m, g, _ = random_instance(rng, 10, 8, 1, 4, n_active=2, noise=0.1)
    gain = tmp_path / "gain.csv"
    data = tmp_path / "data.csv"
    io.write_matrix_csv(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    # location 11 lies outside the 8-location design
    est = BlockSparseEstimate.from_blocks([(11, np.ones((1, 4)))], 12, 1, 4)
    path = tmp_path / "estimate.json"
    io.write_estimate(path, est)
    rc = main(["check", "--gain", str(gain), "--data", str(data),
               "--estimate", str(path), "--lambda-pct", "40",
               "--depth", "0.8"])
    assert rc == 2
    assert "covers 12 locations, design has 8" in caplog.text


def _record_inner_caps(monkeypatch):
    """Record the ``max_bcd_iter`` of every ``solve_active_set`` call and
    the ``max_iter`` of every inner solve the benchmark methods run."""
    configs, caps = [], []

    def recording(owner, name, cap_of):
        wrapped = getattr(owner, name)

        def call(*args, **kwargs):
            (configs if name == "solve_active_set" else caps).append(
                cap_of(args, kwargs))
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    recording(cli, "solve_active_set", lambda a, k: a[4].max_bcd_iter)
    for owner in (cli, bsmx.mxne):
        recording(owner, "solve_bcd", lambda a, k: k.get("max_iter"))
    for owner in (cli, bsmx.oracle):
        recording(owner, "solve_proximal_gradient",
                  lambda a, k: k.get("max_iter"))
    return configs, caps


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_benchmark_honours_max_bcd_iter(tmp_path, monkeypatch, method):
    configs, caps = _record_inner_caps(monkeypatch)
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--methods", method,
               "--max-bcd-iter", "5000", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_bcd_iter"] == 5000
    assert configs == ([5000] if method.endswith("_as") else [])
    # every inner solve, coordinate descent or proximal gradient, runs
    # under the cap
    assert caps and set(caps) == {5000}


@pytest.mark.parametrize("method", cli.BENCH_METHODS)
def test_benchmark_stops_every_method_at_max_bcd_iter(tmp_path, caplog,
                                                      method):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--methods", method,
               "--max-bcd-iter", "1", "--out", str(out)])
    assert rc == 3
    assert "solver failed" in caplog.text


def test_benchmark_keeps_finished_methods_when_a_later_one_fails(
        tmp_path, caplog):
    out = tmp_path / "bench"
    # bcd_as certifies within 60 sweeps, pgd_full does not
    rc = main(["benchmark", "--seed", "0", "--n-sensors", "10",
               "--n-locations", "20", "--n-times", "4", "--lambda-pct", "50",
               "--methods", "bcd_as,pgd_full", "--max-bcd-iter", "60",
               "--out", str(out)])
    assert rc == 3
    assert "solver failed" in caplog.text
    with open(out / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["bcd_as"]
    assert float(rows[0]["final_gap"]) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_bcd_iter"] == 60
    # the manifest names the methods one by one, and where the run stopped
    assert manifest["config"]["methods"] == ["bcd_as", "pgd_full"]
    stopped = manifest["config"]["stopped"]
    assert stopped["method"] == "pgd_full" and stopped["lambda_pct"] == 50
    assert stopped["gap"] > 1e-6


def test_benchmark_manifest_records_no_stop_on_success(tmp_path):
    out = tmp_path / "bench"
    assert main(["benchmark", "--seed", "0", "--n-sensors", "10",
                 "--n-locations", "20", "--n-times", "4", "--lambda-pct", "50",
                 "--methods", "bcd_as,bcd_full", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["methods"] == ["bcd_as", "bcd_full"]
    assert config["stopped"] is None


@pytest.mark.parametrize("methods", ["bcd_as,pgd_sa", "pgd_sa,bcd_as"])
def test_benchmark_rejects_unknown_method_before_running(tmp_path, monkeypatch,
                                                         caplog, methods):
    ran = []
    monkeypatch.setattr(cli, "_run_benchmark_method",
                        lambda name, *args: ran.append(name))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "0", "--n-sensors", "10",
               "--n-locations", "20", "--n-times", "4", "--lambda-pct", "50",
               "--lambda-pct", "60", "--methods", methods, "--out", str(out)])
    assert rc == 2
    assert "'pgd_sa'" in caplog.text
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    (",", "--methods names no benchmark method"),
    ("", "--methods names no benchmark method"),
    ([], "option 'methods': invalid value []"),
], ids=["comma", "blank", "config"])
def test_benchmark_rejects_empty_method_list_before_running(
        tmp_path, monkeypatch, caplog, methods, message):
    ran = []
    monkeypatch.setattr(cli, "_run_benchmark_method",
                        lambda name, *args: ran.append(name))
    # a list comes from the config file, a string from the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": methods}))
    option = (["--methods", methods] if isinstance(methods, str)
              else ["--config", str(cfg)])
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "0", "--n-sensors", "10",
               "--n-locations", "20", "--n-times", "4", "--lambda-pct", "50",
               *option, "--out", str(out)])
    assert rc == 2
    assert message in caplog.text
    assert ran == []
    assert not out.exists()


def test_benchmark_skips_empty_method_names(tmp_path):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--methods", "bcd_as,,pgd_as",
               "--out", str(out)])
    assert rc == 0
    with open(out / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["bcd_as", "pgd_as"]


def test_benchmark_rejects_nonpositive_lambda_before_running(
        tmp_path, monkeypatch, caplog):
    ran = []
    monkeypatch.setattr(cli, "_run_benchmark_method",
                        lambda name, *args: ran.append(name))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "0", "--n-sensors", "10",
               "--n-locations", "20", "--n-times", "4", "--lambda-pct", "50",
               "--lambda-pct", "0", "--out", str(out)])
    assert rc == 2
    assert "lambda_pct must be positive" in caplog.text
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--resamples", "1"], "need at least two resamples"),
    (["--resamples", "3", "--resample-fraction", "1.5"],
     "resample fraction 1.5 of 8 trials is not in (0, 1)"),
    (["--resamples", "3", "--resample-fraction", "0.01"],
     "resample fraction 0.01 of 8 trials"),
    (["--lambda-pct", "0"], "lambda_pct must be positive"),
    (["--lambda-pct", "inf"], "lambda_pct must be positive and finite"),
    (["--lambda-pct", "nan"], "lambda_pct must be positive and finite"),
    (["--seed", "-1"], "--seed must be non-negative, got -1"),
    (["--resamples", "-3"], "--resamples must be non-negative, got -3"),
    (["--jobs", "-4"], "--jobs must be at least 1, got -4"),
    (["--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["--seed", "1"], "--seed gives 1 twice"),
    (["--lambda-pct", "50"], "--lambda-pct gives 50.0 twice"),
    (["--method", "irmxne", "--method", "irmxne"],
     "--method gives 'irmxne' twice"),
])
def test_simulate_rejects_bad_options_before_solving(tmp_path, monkeypatch,
                                                     caplog, flags, message):
    ran = []
    monkeypatch.setattr(cli, "solve_with_method",
                        lambda *args: ran.append(args))
    out = tmp_path / "sim"
    rc = main(["simulate", *SIM_ARGS, "--seed", "1", "--lambda-pct", "50",
               *flags, "--out", str(out)])
    assert rc == 2
    assert message in caplog.text
    assert ran == []
    assert not out.exists()


def test_benchmark_config_lists_methods(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": ["bcd_as", "pgd_as"]}))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    with open(out / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["bcd_as", "pgd_as"]


@pytest.fixture()
def free_orient_files(tmp_path):
    rng = np.random.default_rng(4)
    m, g, _ = random_instance(rng, 15, 10, 3, 8, n_active=2, noise=0.1)
    gain = tmp_path / "gain.csv"
    data = tmp_path / "data.csv"
    io.write_matrix_csv(gain, g.entries)
    io.write_matrix_csv(data, m.entries)
    return ["--gain", str(gain), "--data", str(data), "--n-orient", "3",
            "--lambda-pct", "40"]


@pytest.mark.parametrize("key,value", [("loose", "0.6"), ("depth", "0.8")])
def test_solve_config_scalar_converts_as_its_flag(free_orient_files, tmp_path,
                                                  key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_file, from_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["solve", *free_orient_files, "--config", str(cfg),
                 "--out", str(from_file)]) == 0
    assert main(["solve", *free_orient_files, "--" + key, value,
                 "--out", str(from_flag)]) == 0
    assert ((from_file / "estimate.json").read_text()
            == (from_flag / "estimate.json").read_text())
    manifest = json.loads((from_file / "manifest.json").read_text())
    assert manifest["config"][key] == float(value)


@pytest.mark.parametrize("cfg", [
    {"debias": "no"}, {"debias": 1}, {"loose": "wide"}, {"depth": [0.8]},
    {"max_reweight": 2.5}, {"gap_tol": True},
])
def test_solve_config_rejects_mistyped_scalar(free_orient_files, tmp_path,
                                              caplog, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["solve", *free_orient_files, "--config", str(path),
               "--out", str(out)])
    assert rc == 2
    assert repr(next(iter(cfg))) in caplog.text
    assert not (out / "estimate_debiased.json").exists()


@pytest.mark.parametrize("method", ["mxne", "irmxne"])
def test_solve_takes_one_svd_of_long_data(tmp_path, monkeypatch, method):
    # T > n_sensors: lambda_max and the solver share one compression
    rng = np.random.default_rng(5)
    m, g, _ = random_instance(rng, 20, 30, 3, 60, n_active=3, noise=0.1)
    gain, data = tmp_path / "gain.bin", tmp_path / "data.bin"
    io.write_matrix_binary(gain, g.entries)
    io.write_matrix_binary(data, m.entries)
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--n-orient", "3", "--lambda-pct", "40", "--method", method,
               "--out", str(tmp_path / "run")])
    assert rc == 0
    assert calls == [(20, 60)]


def test_check_rejects_solver_flags(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    path = tmp_path / "estimate.json"
    io.write_estimate(path, BlockSparseEstimate.empty(30, 1, 8))
    argv = ["check", "--gain", str(gain), "--data", str(data),
            "--estimate", str(path), "--lambda-pct", "40"]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as info:
        main([*argv, "--gap-tol", "1e-3"])
    assert info.value.code == 2


def test_solver_options_match_config_fields():
    """The SolverConfig fields, the solver flags and the options the config
    builder reads are one set: no flag is dead and no field unreachable."""
    names = {f.name for f in dataclasses.fields(SolverConfig)}
    parser = argparse.ArgumentParser()
    cli._add_solver_options(parser)
    flags = {action.dest for action in parser._actions} - {"help"}
    args = parser.parse_args([])
    assert flags == names == set(vars(args))
    assert cli._solver_config(args) == SolverConfig()
    for command in (["solve", "--gain", "g", "--data", "d"], ["simulate"],
                    ["benchmark"]):
        args = cli._parse_args([*command, "--out", "o", "--max-reweight", "7"])
        assert names <= set(args.resolved)
        assert cli._solver_config(args).max_reweight == 7


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def _config_options(command):
    """Every option of the command a config file may set: all flags but
    --help, --config and the required paths."""
    return [a for a in _subcommands()[command]._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "config")]


def _sample(action):
    """A valid value of the option that is not its default."""
    if action.nargs == 0:
        return True
    if action.choices:
        return action.choices[-1]
    default = action.default
    if isinstance(default, list):
        default = default[-1]
    if action.type is int:
        return default + 1 if default else 2
    if action.type is float:
        return default / 2 if default else 0.5
    return default


def _base_options(command, tmp_path):
    """Small valid runs of each command, as dest -> flag tokens."""
    if command in ("solve", "check"):
        rng = np.random.default_rng(4)
        m, g, _ = random_instance(rng, 15, 10, 3, 8, n_active=2, noise=0.1)
        gain, data = tmp_path / "gain.csv", tmp_path / "data.csv"
        io.write_matrix_csv(gain, g.entries)
        io.write_matrix_csv(data, m.entries)
        base = {"gain": ["--gain", str(gain)], "data": ["--data", str(data)],
                "n_orient": ["--n-orient", "3"],
                "lambda_pct": ["--lambda-pct", "40"]}
        if command == "check":
            path = tmp_path / "estimate.json"
            io.write_estimate(path, BlockSparseEstimate.empty(10, 3, 8))
            base["estimate"] = ["--estimate", str(path)]
        return base
    if command == "simulate":
        base = {SIM_ARGS[i][2:].replace("-", "_"): SIM_ARGS[i:i + 2]
                for i in range(0, len(SIM_ARGS), 2)}
        return {**base, "seed": ["--seed", "1"]}
    return {"seed": ["--seed", "5"], "n_sensors": ["--n-sensors", "20"],
            "n_locations": ["--n-locations", "40"],
            "n_orient": ["--n-orient", "1"], "n_times": ["--n-times", "5"],
            "lambda_pct": ["--lambda-pct", "50"],
            "methods": ["--methods", "bcd_as"]}


@pytest.mark.parametrize("command, dest", [
    (command, action.dest) for command in ("solve", "simulate", "benchmark",
                                           "check")
    for action in _config_options(command)
])
def test_option_as_flag_matches_config_key(tmp_path, command, dest):
    action = next(a for a in _config_options(command) if a.dest == dest)
    value = _sample(action)
    base = _base_options(command, tmp_path)
    base.pop(dest, None)
    if dest == "lam":
        base.pop("lambda_pct")  # give exactly one lambda
    argv = [command, *sum(base.values(), [])]
    flag = action.option_strings[:1]
    if value is not True:
        flag.append(str(value))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: value}))
    runs = {"flag": flag, "file": ["--config", str(cfg)]}
    if command != "check":
        runs = {name: [*extra, "--out", str(tmp_path / name)]
                for name, extra in runs.items()}
    resolved = {name: cli._parse_args([*argv, *extra]).resolved
                for name, extra in runs.items()}
    assert resolved["flag"] == resolved["file"]
    assert resolved["flag"][dest] != action.default
    if command == "check":
        return
    manifests = {}
    for name, extra in runs.items():
        assert main([*argv, *extra]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json")
                                     .read_text())
    assert manifests["flag"]["config"] == manifests["file"]["config"]
    assert manifests["file"]["config"][dest] == resolved["file"][dest]
    if (command, dest) == ("solve", "seed"):
        assert manifests["file"]["rng_seeds"] == [value]


@pytest.mark.parametrize("command", ["solve", "simulate", "benchmark", "check"])
def test_config_rejects_unknown_key(tmp_path, caplog, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamda_pct": [30], "lambda_pct": 50}))
    argv = [command, *sum(_base_options(command, tmp_path).values(), []),
            "--config", str(cfg)]
    if command != "check":
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "'lamda_pct'" in caplog.text
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key, values, patched, message", [
    ("simulate", "seed", [3, 3], "generate_scenario", "--seed gives 3 twice"),
    ("simulate", "lambda_pct", [30, 30.0], "generate_scenario",
     "--lambda-pct gives 30.0 twice"),
    ("simulate", "method", ["mxne", "irmxne", "mxne"], "generate_scenario",
     "--method gives 'mxne' twice"),
    ("benchmark", "lambda_pct", [50, 50], "random_instance",
     "--lambda-pct gives 50.0 twice"),
    ("benchmark", "methods", ["bcd_as", "pgd_as,bcd_as"], "random_instance",
     "--methods gives 'bcd_as' twice"),
])
def test_config_rejects_repeated_value(tmp_path, monkeypatch, caplog, command,
                                       key, values, patched, message):
    monkeypatch.setattr(cli, patched, _fail_on_call(patched))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: values}))
    base = _base_options(command, tmp_path)
    base.pop(key, None)
    out = tmp_path / "run"
    assert main([command, *sum(base.values(), []), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


def test_benchmark_repeated_methods_flag_matches_config(tmp_path):
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--methods", "bcd_as",
               "--methods", "pgd_as", "--out", str(out)])
    assert rc == 0
    with open(out / "timings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["method"] for row in rows] == ["bcd_as", "pgd_as"]
