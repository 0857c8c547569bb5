"""Command-line entry point.

Thin shell over the library: ``solve`` runs the solvers on matrices from
disk, ``simulate`` runs the synthetic study, ``benchmark`` compares solver
variants on one instance, and ``check`` recomputes objectives and the gap
for a stored estimate. Every run writes a manifest recording the resolved
configuration, input digests, seeds, and wall time.

Option precedence: command-line flags > JSON config file (``--config``) >
built-in defaults. Exit codes: 0 success, 2 parse or dimension errors,
3 solver failure (iteration cap exceeded).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from . import __version__, io
from .constraints import (
    DepthWeights,
    apply_depth_weights,
    apply_loose_orientation,
    undo_depth_weights,
)
from .debias import apply_scaling, estimate_scaling
from .irmxne import nonconvex_objective, solve_irmxne
from .model import BlockDesign, Measurements, SolverConfig
from .mxne import (
    IterationLimitError,
    duality_gap,
    lambda_max,
    solve_active_set,
    solve_bcd,
)
from .oracle import solve_proximal_gradient
from .sim import (
    MetricsReport,
    ScenarioSpec,
    evaluate,
    generate_scenario,
    random_instance,
    resample_stability,
    solve_with_method,
)

log = logging.getLogger("bsmx")

BENCH_METHODS = ("bcd_as", "bcd_full", "pgd_as", "pgd_full")


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config: dict
    inputs: dict = field(default_factory=dict)
    library_version: str = __version__
    rng_seeds: List[int] = field(default_factory=list)
    wall_time_s: float = 0.0

    def write(self, outdir):
        path = os.path.join(outdir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return cfg


class _Options:
    """Layered option lookup: CLI flag, then config file, then default."""

    def __init__(self, args, cfg):
        self.args = args
        self.cfg = cfg
        self.resolved = {}

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.cfg.get(key, default)
        self.resolved[key] = value
        return value

    def get_list(self, key, kind):
        """A list-valued option, or None if unset. The config file may give
        one value for a one-element list. Every element must be a scalar
        that ``kind`` (``int``, ``float`` or ``str``) accepts; the elements
        are returned as given."""
        value = self.get(key)
        if value is None:
            return None
        if isinstance(value, (str, int, float)):
            value = [value]
        elif not isinstance(value, list):
            raise ValueError(
                f"option {key!r} must be a value or a list, got {value!r}"
            )
        for item in value:
            try:
                if not isinstance(item, (str, int, float)):
                    raise TypeError
                kind(item)
            except (TypeError, ValueError):
                raise ValueError(
                    f"option {key!r} must hold {kind.__name__} values, "
                    f"got {item!r}"
                ) from None
        return value


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2 ** 32))


def _read_gain_and_data(gain_path, data_path, n_orient):
    gain = io.read_matrix(gain_path)
    data = io.read_matrix(data_path)
    if gain.shape[1] % n_orient != 0:
        raise ValueError(
            f"{gain_path}: {gain.shape[1]} columns is not a multiple of "
            f"n_orient={n_orient}"
        )
    if data.shape[0] != gain.shape[0]:
        raise ValueError(
            f"{data_path}: has {data.shape[0]} rows, expected "
            f"{gain.shape[0]} to match {gain_path}"
        )
    design = BlockDesign(gain, gain.shape[1] // n_orient, n_orient)
    return design, Measurements(data)


def _load_problem(args):
    """Options, data, transformed design, depth weights and lambda of a
    ``solve`` or ``check`` run.

    The design is weighted by orientation (``--loose``) and then by depth
    (``--depth``); a fractional lambda resolves against the weighted design.
    """
    opts = _Options(args, _load_config_file(args.config))
    n_orient = int(opts.get("n_orient", 1))
    design, data = _read_gain_and_data(args.gain, args.data, n_orient)
    loose, depth = opts.get("loose"), opts.get("depth")
    if loose is not None:
        design = apply_loose_orientation(design, loose)
    depth_weights = None
    if depth is not None and depth > 0:
        design, depth_weights = apply_depth_weights(design, depth)

    lam_abs = opts.get("lam")
    lam_pct = opts.get("lambda_pct")
    if (lam_abs is None) == (lam_pct is None):
        raise ValueError("give exactly one of --lambda or --lambda-pct")
    if lam_abs is not None:
        lam = float(lam_abs)
    else:
        lam = float(lam_pct) / 100.0 * lambda_max(data, design)
    return opts, data, design, depth_weights, lam


def _solver_config(opts, lam, lam_is_fraction=False) -> SolverConfig:
    """``SolverConfig`` whose tunable fields come from the options, each
    defaulting to the dataclass's own default."""
    tunable = {
        f.name: type(f.default)(opts.get(f.name, f.default))
        for f in fields(SolverConfig)
        if f.name not in ("lam", "lam_is_fraction")
    }
    return SolverConfig(lam=lam, lam_is_fraction=lam_is_fraction, **tunable)


def cmd_solve(args) -> int:
    t_start = time.perf_counter()
    opts, data, design, depth_weights, lam = _load_problem(args)
    config = _solver_config(opts, lam)
    method = opts.get("method", "mxne")

    os.makedirs(args.out, exist_ok=True)
    state = None
    if method == "mxne":
        est, trace = solve_active_set(data, design, None, lam, config)
    elif method == "irmxne":
        est, state, trace = solve_irmxne(data, design, config)
    else:
        raise ValueError(f"unknown method {method!r}")

    est_out = undo_depth_weights(est, depth_weights) if depth_weights else est
    io.write_estimate(os.path.join(args.out, "estimate.json"), est_out)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    if state is not None:
        state.to_json(os.path.join(args.out, "reweight_state.json"))

    if opts.get("debias", False):
        if est.n_active == 0:
            log.info("estimate is empty; skipping debiasing")
        else:
            scaling = estimate_scaling(data, design, est)
            debiased = apply_scaling(est, scaling)
            if depth_weights:
                debiased = undo_depth_weights(debiased, depth_weights)
            io.write_estimate(
                os.path.join(args.out, "estimate_debiased.json"), debiased
            )

    log.info(
        "solved method=%s lam=%.6g active=%d gap=%.3e",
        method, lam, est.n_active, trace.final.gap,
    )
    manifest = RunManifest(
        command="solve",
        config={**opts.resolved, "resolved_lambda": lam},
        inputs={args.gain: _sha256(args.gain), args.data: _sha256(args.data)},
        rng_seeds=[args.seed] if args.seed is not None else [],
        wall_time_s=time.perf_counter() - t_start,
    )
    manifest.write(args.out)
    return 0


def _simulate_task(payload: dict) -> Tuple[List[dict], Optional[dict]]:
    """One seed of the study: its scenario is drawn once and shared by
    every lambda and method, and by the stability pass when the payload
    asks for one. Returns the metric rows and the stability entries (None
    when no pass ran)."""
    seed = payload["seed"]
    spec = ScenarioSpec(**payload["scenario"], rng_seed=seed)
    scenario = generate_scenario(spec)
    rows = []
    for pct, config in payload["lambdas"]:
        for method in payload["methods"]:
            est = solve_with_method(scenario.m_avg, scenario.design, config,
                                    method)
            est_deb = None
            if payload["debias"] and est.n_active > 0:
                scaling = estimate_scaling(scenario.m_avg, scenario.design, est)
                est_deb = apply_scaling(est, scaling)
            report = evaluate(scenario, est, est_deb)
            rows.append({
                "seed": seed,
                "lambda_pct": float(pct),
                "method": method,
                **asdict(report),
            })

    if not payload["resamples"]:
        return rows, None
    stability = {}
    for method in payload["methods"]:
        stability[method] = {}
        for pct, config in payload["lambdas"]:
            report = resample_stability(
                scenario,
                payload["resample_fraction"],
                payload["resamples"],
                config,
                method=method,
                rng_seed=seed,
            )
            stability[method][str(pct)] = report.to_dict()
            log.info(
                "stability method=%s lambda_pct=%s alpha=%.3f",
                method, pct, report.krippendorff_alpha,
            )
    return rows, stability


def cmd_simulate(args) -> int:
    t_start = time.perf_counter()
    cfg = _load_config_file(args.config)
    opts = _Options(args, cfg)

    seeds = opts.get_list("seed", int)
    if not seeds:
        seeds = [_fresh_seed()]
        log.info("no seed given; generated %d", seeds[0])
    lambda_pcts = opts.get_list("lambda_pct", float) or [50.0]
    methods = opts.get_list("method", str) or ["mxne"]
    jobs = int(opts.get("jobs") or os.environ.get("BSMX_JOBS", "1"))

    spec_defaults = {f.name: f.default for f in fields(ScenarioSpec)}
    scenario_params = {
        name: int(opts.get(name, spec_defaults[name]))
        for name in ("n_sensors", "n_locations", "n_orient", "n_times",
                     "n_trials", "n_noise_dipoles")
    }
    debias = bool(opts.get("debias", False))
    configs = {
        pct: _solver_config(opts, float(pct) / 100.0, lam_is_fraction=True)
        for pct in lambda_pcts
    }
    # a count below one runs no stability pass
    n_resamples = max(int(opts.get("resamples", 0) or 0), 0)
    fraction = float(opts.get("resample_fraction", 0.8)) if n_resamples else None
    # stability is assessed on the first seed's scenario, inside its task
    payloads = [
        {
            "seed": int(seed),
            "scenario": scenario_params,
            "lambdas": [(pct, configs[pct]) for pct in lambda_pcts],
            "methods": list(methods),
            "debias": debias,
            "resamples": n_resamples if i == 0 else 0,
            "resample_fraction": fraction,
        }
        for i, seed in enumerate(seeds)
    ]

    os.makedirs(args.out, exist_ok=True)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_simulate_task, payloads))
    else:
        results = [_simulate_task(p) for p in payloads]

    rows = [row for batch, _ in results for row in batch]
    rows.sort(key=lambda r: (r["seed"], r["lambda_pct"], r["method"]))
    columns = ["seed", "lambda_pct", "method",
               *(f.name for f in fields(MetricsReport))]
    with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

    stability = results[0][1]
    if stability is not None:
        with open(os.path.join(args.out, "stability.json"), "w") as fh:
            json.dump(stability, fh)
            fh.write("\n")

    manifest = RunManifest(
        command="simulate",
        config=opts.resolved,
        rng_seeds=[int(s) for s in seeds],
        wall_time_s=time.perf_counter() - t_start,
    )
    manifest.write(args.out)
    log.info("wrote %d metric rows to %s", len(rows), args.out)
    return 0


def _run_benchmark_method(name, m, design, config):
    lam = config.lam
    t0 = time.perf_counter()
    if name == "bcd_as":
        est, _ = solve_active_set(m, design, None, lam, config)
    elif name == "bcd_full":
        est, _ = solve_bcd(m, design, None, lam, config.gap_tol,
                           max_iter=config.max_bcd_iter)
    elif name == "pgd_as":
        est, _ = solve_active_set(m, design, None, lam, config, inner="pgd")
    elif name == "pgd_full":
        est = solve_proximal_gradient(m, design, lam, config.gap_tol)
    else:
        raise ValueError(f"unknown benchmark method {name!r}")
    seconds = time.perf_counter() - t0
    final_gap = duality_gap(m, design, est, lam).gap
    return seconds, final_gap


def cmd_benchmark(args) -> int:
    t_start = time.perf_counter()
    cfg = _load_config_file(args.config)
    opts = _Options(args, cfg)

    seed = opts.get("seed")
    if seed is None:
        seed = _fresh_seed()
        log.info("no seed given; generated %d", seed)
    rng = np.random.default_rng(int(seed))
    m, design, _ = random_instance(
        rng,
        int(opts.get("n_sensors", 50)),
        int(opts.get("n_locations", 2000)),
        int(opts.get("n_orient", 3)),
        int(opts.get("n_times", 20)),
        n_active=5,
        noise=0.05,
    )
    lam_top = lambda_max(m, design)
    lambda_pcts = [float(p) for p in (opts.get_list("lambda_pct", float) or
                                      [40, 50, 60, 70, 80, 90])]
    methods = opts.get_list("methods", str) or list(BENCH_METHODS)
    # the flag gives one comma-separated string
    names = [name.strip() for entry in methods for name in entry.split(",")]
    method_list = [name for name in names if name]
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for pct in lambda_pcts:
        config = _solver_config(opts, pct / 100.0 * lam_top)
        for name in method_list:
            seconds, final_gap = _run_benchmark_method(name, m, design, config)
            log.info("benchmark %s lambda_pct=%g: %.3fs gap=%.2e",
                     name, pct, seconds, final_gap)
            rows.append({
                "method": name,
                "lambda_pct": pct,
                "seconds": seconds,
                "final_gap": final_gap,
            })

    with open(os.path.join(args.out, "timings.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["method", "lambda_pct", "seconds", "final_gap"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({
                **row,
                "seconds": f"{row['seconds']:.6f}",
                "final_gap": f"{row['final_gap']:.6e}",
            })

    manifest = RunManifest(
        command="benchmark",
        config=opts.resolved,
        rng_seeds=[int(seed)],
        wall_time_s=time.perf_counter() - t_start,
    )
    manifest.write(args.out)
    return 0


def cmd_check(args) -> int:
    _, data, design, depth_weights, lam = _load_problem(args)

    est = io.read_estimate(args.estimate)
    if est.n_locations != design.n_locations:
        raise ValueError(
            f"{args.estimate}: covers {est.n_locations} locations, design "
            f"has {design.n_locations}"
        )
    if depth_weights is not None:
        # stored estimates refer to the original design; map back to the
        # coordinates the solver actually optimized in
        inverse = DepthWeights(depth_weights.gamma,
                               1.0 / depth_weights.per_location_scale)
        est = undo_depth_weights(est, inverse)

    report = duality_gap(data, design, est, lam)
    result = {
        "lambda": lam,
        "n_active": est.n_active,
        "primal": report.primal,
        "dual": report.dual,
        "gap": report.gap,
        "sqrt_penalty_objective": nonconvex_objective(data, design, est, lam),
    }
    print(json.dumps(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsmx",
        description="Block-sparse mixed-norm solvers for MMV regression",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags win)")
        p.add_argument("--gap-tol", dest="gap_tol", type=float)
        p.add_argument("--reweight-tol", dest="reweight_tol", type=float)
        p.add_argument("--max-reweight", dest="max_reweight", type=int)
        p.add_argument("--active-batch", dest="active_batch", type=int)
        p.add_argument("--max-bcd-iter", dest="max_bcd_iter", type=int)

    def add_problem(p):
        p.add_argument("--gain", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--n-orient", dest="n_orient", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--lambda-pct", dest="lambda_pct", type=float)
        p.add_argument("--loose", type=float,
                       help="tangential orientation weight in (0, 1]")
        p.add_argument("--depth", type=float,
                       help="depth compensation exponent in [0, 1]")

    p_solve = sub.add_parser("solve", help="solve a problem from matrix files")
    add_problem(p_solve)
    p_solve.add_argument("--method", choices=["mxne", "irmxne"])
    p_solve.add_argument("--debias", action="store_const", const=True)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--out", required=True)
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the synthetic study")
    p_sim.add_argument("--seed", type=int, action="append")
    p_sim.add_argument("--n-sensors", dest="n_sensors", type=int)
    p_sim.add_argument("--n-locations", dest="n_locations", type=int)
    p_sim.add_argument("--n-orient", dest="n_orient", type=int)
    p_sim.add_argument("--n-times", dest="n_times", type=int)
    p_sim.add_argument("--n-trials", dest="n_trials", type=int)
    p_sim.add_argument("--n-noise-dipoles", dest="n_noise_dipoles", type=int)
    p_sim.add_argument("--lambda-pct", dest="lambda_pct", type=float,
                       action="append")
    p_sim.add_argument("--method", choices=["mxne", "irmxne"], action="append")
    p_sim.add_argument("--debias", action="store_const", const=True)
    p_sim.add_argument("--resamples", type=int)
    p_sim.add_argument("--resample-fraction", dest="resample_fraction",
                       type=float)
    p_sim.add_argument("--jobs", type=int,
                       help="worker processes (default: BSMX_JOBS or 1)")
    p_sim.add_argument("--out", required=True)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="time solver variants")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--n-sensors", dest="n_sensors", type=int)
    p_bench.add_argument("--n-locations", dest="n_locations", type=int)
    p_bench.add_argument("--n-orient", dest="n_orient", type=int)
    p_bench.add_argument("--n-times", dest="n_times", type=int)
    p_bench.add_argument("--lambda-pct", dest="lambda_pct", type=float,
                         action="append")
    p_bench.add_argument("--methods",
                         help=f"comma list from {','.join(BENCH_METHODS)}")
    p_bench.add_argument("--out", required=True)
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_check = sub.add_parser(
        "check", help="recompute objectives and gap for a stored estimate"
    )
    add_problem(p_check)
    p_check.add_argument("--estimate", required=True)
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IterationLimitError as exc:
        log.error("solver failed: %s", exc)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
