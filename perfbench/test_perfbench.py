"""Smoke test of the benchmark at tiny sizes (20 sensors x 50 locations).

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# counts that must repeat exactly between two traced runs of one input
EXACT_COUNTS = ("mxne.sweeps", "mxne.expansions", "mxne.full_checks",
                "mxne.driver_calls", "irmxne.reweights", "sim.generate_calls",
                "sim.solves", "mxne.scoring_gflop", "mxne.sweep_gflop",
                "model.densify_calls", "prox.lipschitz_calls")


def bench(tmp_path, workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny", "--work-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_and_counts_repeat(tmp_path, workload):
    untraced = bench(tmp_path, workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, metric in untraced["metrics"].items():
        assert metric["value"] > 0 and metric["unit"] == units[name]

    first = bench(tmp_path, workload, 1)
    second = bench(tmp_path, workload, 1)
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in first["metrics"].items():
        assert metric["unit"] == units[name]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_tampered_estimate_counts_as_failed(tmp_path):
    workload = run.Workload("meg-dense", 0, "tiny", str(tmp_path))
    runner = run.Runner(workload, str(tmp_path / "runs"))
    result = runner.run("plain")
    assert workload.check(result)[:2] == (1, 0)

    path = os.path.join(result["outdir"], "estimate.json")
    with open(path) as fh:
        est = json.load(fh)
    first = str(est["active_set"][0])
    est["blocks"][first] = [[1.5 * v for v in row] for row in est["blocks"][first]]
    with open(path, "w") as fh:
        json.dump(est, fh)
    ops, failed, failures = workload.check(result)
    assert (ops, failed) == (1, 1)
    assert any("gap" in f for f in failures)


def test_bare_directory_exits_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src:
                (bare / "perfbench" / name).write_text(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meg-dense", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
