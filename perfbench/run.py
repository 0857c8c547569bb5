"""Benchmark of ``bsmx``, end to end through ``bsmx.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload meg-dense --seed 0 --seconds 20 --trace 0

Each iteration runs ``bsmx solve`` or ``bsmx simulate`` once, in a fresh
child process with pinned BLAS threads, then checks its outputs. With
``--trace 0`` the run reports the end-to-end metrics (medians over its
iterations); with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object; lines before it, starting
with ``#``, record the machine, the inputs and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("meg-dense", "meg-long-csv", "desk-study")

# Problem sizes: "full" is the benchmark; "tiny" is for the smoke test.
SCALES = {
    "full": {
        "meg": {"n_sensors": 306, "n_locations": 8196, "n_orient": 3,
                "n_trials": 20},
        "dense_times": 200,
        "long_times": 1000,
        "desk_seeds": 20,
        "desk_scenario": {},
        "resamples": 20,
    },
    "tiny": {
        "meg": {"n_sensors": 20, "n_locations": 50, "n_orient": 3,
                "n_trials": 5},
        "dense_times": 20,
        "long_times": 60,
        "desk_seeds": 2,
        "desk_scenario": {"n-sensors": 20, "n-locations": 50, "n-trials": 10},
        "resamples": 3,
    },
}
DESK_LAMBDA_PCTS = (30.0, 50.0, 70.0)
DESK_METHODS = ("mxne", "irmxne")
LONG_CSV_OPTIONS = {"lambda_pct": 50.0, "loose": 0.6, "depth": 0.8}

# Set-up-only child runs made before the timed loop of a meg-* run: they add
# set-up samples, and they take the first-repetition slowdown (5-10 % on the
# first child after the inputs were prepared) out of the timed loop.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0


# One BLAS thread (at most nproc): with two, peak RSS differs by ~50 MB
# between seeds of meg-dense and the second thread only spin-waits on the
# small per-block products.
BLAS_THREADS = 1


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_requested": BLAS_THREADS,
    }


class Runner:
    """Runs isolated children for one workload and collects their samples."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.count = 0
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        env["PYTHONHASHSEED"] = "0"
        env.pop("PYTHONPATH", None)
        self.env = env

    def run(self, mode):
        """Run the workload once in a fresh child process."""
        self.count += 1
        self.workload.warm_inputs()
        run_dir = os.path.join(self.work_dir, f"iter{self.count:03d}-{mode}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        outdir = os.path.join(run_dir, "out")
        job = {"argv": self.workload.argv(outdir), "mode": mode,
               "result": os.path.join(run_dir, "result.json")}
        job_path = os.path.join(run_dir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        with open(os.path.join(run_dir, "child.log"), "w") as log:
            try:
                status = subprocess.run([sys.executable, CHILD, job_path], cwd=ROOT,
                                        env=self.env, stdout=log, stderr=log,
                                        timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        result = {}
        if os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                result = json.load(fh)
        if status == 0 and result.get("peak_rss_mb") is None:
            status = "no VmHWM in /proc/self/status"
        result["status"] = status
        result["outdir"] = outdir
        return result


class Workload:
    """Inputs, command line and output checks of one workload."""

    def __init__(self, name, seed, scale, work_dir):
        self.name = name
        self.scale = SCALES[scale]
        self.record = {"workload": name, "seed": seed, "scale": scale}
        if name == "desk-study":
            n = self.scale["desk_seeds"]
            self.seeds = list(range(n * seed, n * seed + n))
            self.record["simulate_seeds"] = self.seeds
            return
        import numpy as np
        from checks import SolveInputs
        from inputs import prepare

        times = self.scale["dense_times" if name == "meg-dense" else "long_times"]
        spec = dict(self.scale["meg"], n_times=times)
        fmt = "binary" if name == "meg-dense" else "csv"
        self.meta = prepare(os.path.join(work_dir, "inputs"), name, spec, fmt, seed)
        d = self.meta["dir"]
        self.gain_path = os.path.join(d, self.meta["files"]["gain"])
        self.data_path = os.path.join(d, self.meta["files"]["data"])
        gain = np.load(os.path.join(d, self.meta["files"]["gain_npy"]))
        data = np.load(os.path.join(d, self.meta["files"]["data_npy"]))
        if name == "meg-dense":
            self.solve_inputs = SolveInputs(gain, data, n_orient=3,
                                            lam=self.meta["lambda"])
        else:
            self.solve_inputs = SolveInputs(gain, data, n_orient=3, **LONG_CSV_OPTIONS)
        self.record["inputs"] = {k: self.meta[k] for k in
                                 ("spec", "scenario_seed", "sha256")}
        if name == "meg-dense":
            self.record["lambda_rule"] = self.meta["lambda_rule"]
            self.record["lambda"] = self.meta["lambda"]

    def warm_inputs(self):
        """Read the input files once, so each child reads them from the page
        cache rather than from disk as it happens to be cached."""
        if self.name == "desk-study":
            return
        for path in (self.gain_path, self.data_path):
            with open(path, "rb") as fh:
                while fh.read(1 << 24):
                    pass

    def argv(self, outdir):
        if self.name == "desk-study":
            argv = ["simulate", "--jobs", "1", "--debias", "--resamples",
                    str(self.scale["resamples"]), "--out", outdir]
            for flag, value in self.scale["desk_scenario"].items():
                argv += [f"--{flag}", str(value)]
            for s in self.seeds:
                argv += ["--seed", str(s)]
            for p in DESK_LAMBDA_PCTS:
                argv += ["--lambda-pct", repr(p)]
            for meth in DESK_METHODS:
                argv += ["--method", meth]
            return argv
        argv = ["solve", "--gain", self.gain_path, "--data", self.data_path,
                "--n-orient", str(self.scale["meg"]["n_orient"]), "--out", outdir,
                "--method", "irmxne", "--debias"]
        if self.name == "meg-dense":
            return argv + ["--lambda", repr(self.meta["lambda"])]
        for key, value in LONG_CSV_OPTIONS.items():
            argv += ["--" + key.replace("_", "-"), repr(value)]
        return argv

    def setup_seconds(self, result):
        if self.name == "desk-study":
            return result.get("generate_s")
        return result.get("setup_s")

    def check(self, result):
        """(operations, failures) of one full iteration."""
        import checks

        outdir = result["outdir"]
        if self.name == "desk-study":
            ops, failures = checks.check_simulate(
                outdir, seeds=self.seeds, lambda_pcts=DESK_LAMBDA_PCTS,
                methods=DESK_METHODS, resamples=self.scale["resamples"],
                n_locations=self.scale["desk_scenario"].get("n-locations", 500),
            )
        else:
            ops = 1
            failures = checks.check_solve(outdir, self.solve_inputs,
                                          method="irmxne", debias=True)
            if not failures and "active" not in self.record:
                self.record["first_iteration_active"] = checks.first_support(outdir)
                with open(os.path.join(outdir, "estimate.json")) as fh:
                    self.record["active"] = len(json.load(fh)["active_set"])
        if result["status"] != 0:
            failures = [f"child status {result['status']}"] + failures
        failed = ops if result["status"] != 0 else min(ops, len(failures))
        return ops, failed, failures


def median(values):
    return statistics.median(values) if values else None


def run(args):
    work_dir = os.path.abspath(args.work_dir)
    os.makedirs(work_dir, exist_ok=True)
    workload = Workload(args.workload, args.seed, args.scale, work_dir)
    runner = Runner(workload, os.path.join(work_dir, "runs",
                                           f"{args.workload}-{args.seed}"))
    shutil.rmtree(runner.work_dir, ignore_errors=True)

    plain, traced = [], []
    attempted = failed = 0
    problems = []

    def full(mode):
        nonlocal attempted, failed
        result = runner.run(mode)
        ops, bad, failures = workload.check(result)
        attempted += ops
        failed += bad
        problems.extend(failures[:5])
        return result

    setup = []
    if not args.trace and workload.name != "desk-study":
        setup = [runner.run("setup").get("setup_s") for _ in range(SETUP_PROBES)]

    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(full("plain"))
        if args.trace:
            traced.append(full("traced"))
        if time.perf_counter() >= deadline:
            break

    ok_plain = [r for r in plain if r["status"] == 0]
    setup += [workload.setup_seconds(r) for r in ok_plain]
    setup = [s for s in setup if s is not None]

    samples = {
        "wall_s": [r["wall_s"] for r in ok_plain],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_plain],
    }
    if args.trace:
        metrics = traced_metrics(traced, samples["wall_s"], attempted, failed)
    else:
        metrics = {
            "wall_s": (median(samples["wall_s"]), "s"),
            "setup_s": (median(samples["setup_s"]), "s"),
            "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
        }
    missing = [k for k, (v, _) in metrics.items() if v is None]

    machine = machine_record()
    machine["blas_threads_seen"] = [json.loads(x) for x in sorted(
        {json.dumps(r["blas_threads"]) for r in plain + traced if "blas_threads" in r})]
    print("# machine " + json.dumps(machine))
    print("# record " + json.dumps(workload.record))
    print("# samples " + json.dumps({k: [round(v, 6) for v in vs]
                                     for k, vs in samples.items()}))
    for line in problems[:20]:
        print("# failure " + line)
    with open(os.path.join(runner.work_dir, "record.json"), "w") as fh:
        json.dump({"machine": machine, "record": workload.record,
                   "samples": samples, "failures": problems}, fh, indent=1)
    if missing:
        print(f"error: no successful sample for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


LAYER_UNITS = {
    "_s": "s", "_ms": "ms", "_mb": "MB", "_gflop": "gflop", "_frac": "ratio",
    "_yield": "ratio",
}


def _unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def traced_metrics(traced, plain_walls, attempted, failed):
    from tracing import layer_metrics

    ok = [r for r in traced if r["status"] == 0 and "trace" in r]
    for missing in (ok[0]["trace"]["missing"] if ok else []):
        print(f"# unhooked {missing}: not found in this version of bsmx")
    if not ok or not plain_walls:
        return {"trace.wall_s": (None, "s")}
    per_run = [layer_metrics(r["trace"], r["wall_s"]) for r in ok]
    out = {name: (median([m[name] for m in per_run]), _unit(name))
           for name in per_run[0]}
    out["process.cpu_s"] = (median([r["cpu_s"] for r in ok]), "s")
    out["process.blas_threads"] = (max(r["blas_threads"]["value"] for r in ok), "count")
    out["trace.overhead_frac"] = (
        out["trace.wall_s"][0] / median(plain_walls) - 1.0, "ratio")
    out["failed_frac"] = (failed / attempted if attempted else 0.0, "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perfbench_work"))
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "bsmx", "cli.py")):
        print(f"error: no bsmx sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
