import csv
import json

import numpy as np
import pytest

from bsmx import cli, io
from bsmx.cli import main
from bsmx.model import BlockSparseEstimate, densify
from bsmx.sim import random_instance


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


def test_solve_at_lambda_max_gives_empty_estimate(problem_files, tmp_path):
    gain, data, _, _ = problem_files
    out = tmp_path / "run"
    rc = main(["solve", "--gain", str(gain), "--data", str(data),
               "--lambda-pct", "100", "--out", str(out)])
    assert rc == 0
    est = io.read_estimate(out / "estimate.json")
    assert est.n_active == 0


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
])
def test_simulate_config_checks_list_elements(tmp_path, caplog, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flags = {"seed": ["--seed", "1"], "lambda_pct": ["--lambda-pct", "50"]}
    flags.pop(key)
    rc = main(["simulate", *SIM_ARGS, *sum(flags.values(), []),
               "--method", "mxne", "--config", str(cfg),
               "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert repr(key) in caplog.text


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


def test_benchmark_honours_active_batch(tmp_path, monkeypatch):
    batches = []
    solve = cli.solve_active_set

    def recording(m, g, warm, lam, config, **kwargs):
        batches.append(config.active_batch)
        return solve(m, g, warm, lam, config, **kwargs)

    monkeypatch.setattr(cli, "solve_active_set", recording)
    out = tmp_path / "bench"
    rc = main(["benchmark", "--seed", "5", "--n-sensors", "20",
               "--n-locations", "40", "--n-orient", "1", "--n-times", "5",
               "--lambda-pct", "50", "--methods", "bcd_as",
               "--active-batch", "50", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["active_batch"] == 50
    assert batches == [50]


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
