"""Command-line entry point.

Thin shell over the library: ``solve`` runs the solvers on matrices from
disk, ``simulate`` runs the synthetic study, ``benchmark`` compares solver
variants on one instance, and ``check`` recomputes objectives and the gap
for a stored estimate. Every run but ``check`` writes a manifest
recording the resolved configuration, input digests, seeds, and wall time.

Each option is defined once, in :func:`build_parser`. A JSON config file
(``--config``) sets options by their dest names (``lam`` for ``--lambda``,
``lambda_pct``, ``n_orient``, ...), converted as the flags are: a
repeatable option takes one value or a list, a switch ``true`` or
``false``, and a key that is no option of the command is an error. A
repeatable option, from flags or a file, may not give one value twice.
Option precedence: command-line flags > config file > built-in defaults.
Exit codes: 0 success, 2 parse or dimension errors, 3 solver failure
(iteration cap exceeded).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import logging
import os
import stat
import sys
import time
from dataclasses import astuple, fields
from typing import List, Optional, Tuple

import numpy as np

from . import __version__, io
from .constraints import (
    apply_depth_weights,
    apply_loose_orientation,
    undo_depth_weights,
)
from .debias import apply_scaling, estimate_scaling
from .irmxne import nonconvex_objective, solve_irmxne
from .model import BlockDesign, Measurements, SolverConfig, _scale_blocks
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
    _resample_size,
    evaluate,
    generate_scenario,
    random_instance,
    resample_stability,
    solve_with_method,
)

log = logging.getLogger("bsmx")

BENCH_METHODS = ("bcd_as", "bcd_full", "pgd_as", "pgd_full")
# ScenarioSpec fields that simulate takes as options
SCENARIO_OPTIONS = ("n_sensors", "n_locations", "n_orient", "n_times",
                    "n_trials", "n_noise_dipoles")


def _sha256(path) -> Optional[str]:
    """Hex digest of a regular file; None for any other (a pipe or FIFO),
    which the read consumed and which is not opened again."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, t_start, rng_seeds, inputs=(), **extra):
    """Write ``manifest.json``, the reproducibility record of a run, into
    ``args.out``: its resolved options (and ``extra``), the digests of its
    ``inputs`` files (null for one that is not a regular file), its seeds
    and its wall time since ``t_start``."""
    manifest = {
        "command": args.command,
        "config": {**args.resolved, **extra},
        "inputs": {path: _sha256(path) for path in inputs},
        "library_version": __version__,
        "rng_seeds": rng_seeds,
        "wall_time_s": time.perf_counter() - t_start,
    }
    io._write_json(os.path.join(args.out, "manifest.json"), manifest, indent=2)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return cfg


def _options(parser) -> dict:
    """The options of a command that a config file may set, by dest: every
    flag but ``--help``, ``--config`` and the required paths."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "config")}


def _config_value(action, key, value):
    """``value`` of option ``key`` from the config file, converted as the
    option's flag would convert it. A switch takes only a JSON boolean
    (``false`` leaves it unset); a repeatable option takes one value or a
    non-empty list and gives a list."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return action.const if value else None
    else:
        repeats = isinstance(action, argparse._AppendAction)
        items = value if repeats and isinstance(value, list) else [value]
        try:
            if items and all(type(item) in (str, int, float)
                             for item in items):
                items = [(action.type or str)(str(item)) for item in items]
                if all(action.choices is None or item in action.choices
                       for item in items):
                    return items if repeats else items[0]
        except ValueError:
            pass
    raise ValueError(f"option {key!r}: invalid value {value!r}")


def _check_distinct(flag, values):
    """Reject a value that a repeatable option gives twice, which would
    run the same work twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} gives {value!r} twice")


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """The options a command runs with: each takes its flag's value, else
    the ``--config`` file's, else its default. ``args.resolved`` maps every
    option to that value, for the manifest.

    The flags are parsed into a namespace that presets every option to
    None, so argparse applies no default (nor appends a repeated flag to a
    default list), and an option still None was not given.
    """
    parser = build_parser()
    command = parser.parse_args(argv).command
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    options = _options(sub)
    # argv[0] is the command: the only top-level options exit
    args = sub.parse_args(argv[1:], argparse.Namespace(
        command=command, **dict.fromkeys(options)))
    cfg = _load_config_file(args.config)
    for key, value in cfg.items():
        if key not in options:
            raise ValueError(f"{args.config}: {key!r} is not an option of "
                             f"{command}")
        cfg[key] = _config_value(options[key], key, value)
    for dest, action in options.items():
        if getattr(args, dest) is None:
            value = cfg.get(dest)
            setattr(args, dest, action.default if value is None else value)
        if isinstance(action, argparse._AppendAction):
            _check_distinct(action.option_strings[0],
                            getattr(args, dest) or ())
    args.resolved = {dest: getattr(args, dest) for dest in options}
    return args


def _fresh_seed() -> int:
    seed = int(np.random.SeedSequence().entropy % (2 ** 32))
    log.info("no seed given; generated %d", seed)
    return seed


def _named(path, make, *args):
    """``make(*args)``, with the ``ValueError`` it raises prefixed by
    ``path``, the file its matrix came from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    # the design adopts the array just read: one copy of the gain
    design = _named(gain_path, BlockDesign._adopt, gain,
                    gain.shape[1] // n_orient, n_orient)
    return design, _named(data_path, Measurements, data)


def _load_problem(args):
    """Data, transformed design, depth weights and lambda of a ``solve`` or
    ``check`` run.

    The design is weighted by orientation (``--loose``) and then by depth
    (``--depth``), each in place on the gain as read; a fractional lambda
    resolves against the weighted design. Every option is checked before
    any file is read; ``--depth 0`` is the identity.
    """
    if (args.lam is None) == (args.lambda_pct is None):
        raise ValueError("give exactly one of --lambda or --lambda-pct")
    flag, value = (("--lambda", args.lam) if args.lambda_pct is None
                   else ("--lambda-pct", args.lambda_pct))
    if not 0 < value < np.inf:
        raise ValueError(f"{flag} must be positive and finite, got {value}")
    if args.n_orient < 1:
        raise ValueError(f"--n-orient must be at least 1, got {args.n_orient}")
    if args.depth is not None and not 0 <= args.depth <= 1:
        raise ValueError(f"--depth must lie in [0, 1], got {args.depth}")
    if args.loose is not None and not 0 < args.loose <= 1:
        raise ValueError(f"--loose must lie in (0, 1], got {args.loose}")
    if args.loose is not None and args.n_orient != 3:
        raise ValueError(f"--loose requires --n-orient 3, got {args.n_orient}")
    design, data = _read_gain_and_data(args.gain, args.data, args.n_orient)
    if args.loose is not None:
        design = apply_loose_orientation(design, args.loose, copy=False)
    depth_weights = None
    if args.depth:
        design, depth_weights = apply_depth_weights(design, args.depth,
                                                    copy=False)

    lam = args.lam
    if lam is None:
        top = lambda_max(data, design)
        lam = args.lambda_pct / 100.0 * top
        if not lam > 0:
            raise ValueError(
                f"--lambda-pct {args.lambda_pct} gives lambda {lam}: the "
                f"data's lambda_max is {top}; give --lambda instead")
    return data, design, depth_weights, lam


def _solver_config(args) -> SolverConfig:
    """``SolverConfig`` from the resolved options."""
    return SolverConfig(**{f.name: getattr(args, f.name)
                           for f in fields(SolverConfig)})


def _add_solver_options(parser):
    """One flag per ``SolverConfig`` field, typed as its default and
    defaulting to it."""
    for f in fields(SolverConfig):
        parser.add_argument("--" + f.name.replace("_", "-"),
                            type=type(f.default), default=f.default)


def _check_study_options(pcts, seeds):
    """Reject a ``--lambda-pct`` list of ``simulate`` or ``benchmark``
    with a value that is not positive and finite, and a negative seed."""
    if not all(0 < pct < np.inf for pct in pcts):
        raise ValueError(f"lambda_pct must be positive and finite: {pcts}")
    if min(seeds) < 0:
        raise ValueError(f"--seed must be non-negative, got {min(seeds)}")


def cmd_solve(args) -> int:
    t_start = time.perf_counter()
    config = _solver_config(args)
    data, design, depth_weights, lam = _load_problem(args)

    os.makedirs(args.out, exist_ok=True)
    state = None
    if args.method == "mxne":
        est, trace = solve_active_set(data, design, None, lam, config)
    else:
        est, state, trace = solve_irmxne(data, design, lam, config)

    est_out = undo_depth_weights(est, depth_weights) if depth_weights else est
    io.write_estimate(os.path.join(args.out, "estimate.json"), est_out)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    if state is not None:
        state.to_json(os.path.join(args.out, "reweight_state.json"))

    if args.debias:
        if est.n_active == 0:
            log.info("estimate is empty; skipping debiasing")
        else:
            d = estimate_scaling(data, design, est)
            debiased = apply_scaling(est, d)
            if depth_weights:
                debiased = undo_depth_weights(debiased, depth_weights)
            io.write_estimate(
                os.path.join(args.out, "estimate_debiased.json"), debiased
            )

    log.info(
        "solved method=%s lam=%.6g active=%d gap=%.3e",
        args.method, lam, est.n_active, trace.final.gap,
    )
    _write_manifest(args, t_start, [] if args.seed is None else [args.seed],
                    inputs=(args.gain, args.data), resolved_lambda=lam)
    return 0


def _simulate_task(payload: dict) -> Tuple[List[list], Optional[dict]]:
    """One seed of the study: its scenario is drawn once and shared by
    every lambda and method, and by the stability pass when the payload
    asks for one. Returns the metric rows, in ``metrics.csv`` column
    order, and the stability entries (None when no pass ran)."""
    seed, config = payload["seed"], payload["config"]
    scenario = generate_scenario(payload["spec"])
    rows = []
    for pct in payload["lambda_pcts"]:
        for method in payload["methods"]:
            est = solve_with_method(scenario.m_avg, scenario.design,
                                    pct / 100.0, config, method)
            est_deb = None
            if payload["debias"] and est.n_active > 0:
                d = estimate_scaling(scenario.m_avg, scenario.design, est)
                est_deb = apply_scaling(est, d)
            report = evaluate(scenario, est, est_deb)
            rows.append([seed, pct, method, *astuple(report)])

    if not payload["resamples"]:
        return rows, None
    stability = {}
    for method in payload["methods"]:
        stability[method] = {}
        for pct in payload["lambda_pcts"]:
            report = resample_stability(
                scenario,
                payload["resample_fraction"],
                payload["resamples"],
                pct / 100.0,
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
    seeds = args.seed or [_fresh_seed()]
    scenario_params = {name: getattr(args, name) for name in SCENARIO_OPTIONS}
    config = _solver_config(args)
    _check_study_options(args.lambda_pct, seeds)
    if args.resamples < 0:
        raise ValueError(
            f"--resamples must be non-negative, got {args.resamples}")
    if args.resamples:
        _resample_size(args.resample_fraction, args.resamples, args.n_trials)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # stability is assessed on the first seed's scenario, inside its task
    payloads = [
        {
            "seed": seed,
            "spec": ScenarioSpec(**scenario_params, rng_seed=seed),
            "lambda_pcts": args.lambda_pct,
            "config": config,
            "methods": args.method,
            "debias": args.debias,
            "resamples": args.resamples if i == 0 else 0,
            "resample_fraction": args.resample_fraction,
        }
        for i, seed in enumerate(seeds)
    ]

    os.makedirs(args.out, exist_ok=True)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as pool:
            results = list(pool.map(_simulate_task, payloads))
    else:
        results = [_simulate_task(p) for p in payloads]

    rows = [row for batch, _ in results for row in batch]
    rows.sort(key=lambda r: r[:3])
    columns = ["seed", "lambda_pct", "method",
               *(f.name for f in fields(MetricsReport))]
    io._write_csv(os.path.join(args.out, "metrics.csv"), columns, rows)

    stability = results[0][1]
    if stability is not None:
        io._write_json(os.path.join(args.out, "stability.json"), stability)

    _write_manifest(args, t_start, seeds)
    log.info("wrote %d metric rows to %s", len(rows), args.out)
    return 0


def _run_benchmark_method(name, m, design, lam, config):
    t0 = time.perf_counter()
    if name == "bcd_as":
        est, _ = solve_active_set(m, design, None, lam, config)
    elif name == "bcd_full":
        est, _ = solve_bcd(m, design, None, lam, config.gap_tol,
                           max_iter=config.max_bcd_iter)
    elif name == "pgd_as":
        est, _ = solve_active_set(m, design, None, lam, config, inner="pgd")
    else:
        est = solve_proximal_gradient(m, design, lam, config.gap_tol,
                                      max_iter=config.max_bcd_iter)
    seconds = time.perf_counter() - t0
    final_gap = duality_gap(m, design, est, lam).gap
    return seconds, final_gap


def cmd_benchmark(args) -> int:
    t_start = time.perf_counter()
    # each entry may be a comma-separated list; every name is checked
    # before anything runs or is written
    names = [name.strip() for entry in args.methods for name in entry.split(",")]
    method_list = [name for name in names if name]
    _check_distinct("--methods", method_list)
    if not method_list:
        raise ValueError(f"--methods names no benchmark method; expected "
                         f"some of {', '.join(BENCH_METHODS)}")
    for name in method_list:
        if name not in BENCH_METHODS:
            raise ValueError(f"unknown benchmark method {name!r}; expected "
                             f"one of {', '.join(BENCH_METHODS)}")
    config = _solver_config(args)
    seed = _fresh_seed() if args.seed is None else args.seed
    _check_study_options(args.lambda_pct, [seed])
    rng = np.random.default_rng(seed)
    m, design, _ = random_instance(
        rng, args.n_sensors, args.n_locations, args.n_orient, args.n_times,
        n_active=5, noise=0.05,
    )
    lam_top = lambda_max(m, design)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    # the method, lambda_pct and gap of an IterationLimitError, if one ends
    # the run
    stopped = None
    try:
        for pct in args.lambda_pct:
            lam = pct / 100.0 * lam_top
            for name in method_list:
                try:
                    seconds, final_gap = _run_benchmark_method(
                        name, m, design, lam, config)
                except IterationLimitError as exc:
                    stopped = {"method": name, "lambda_pct": pct,
                               "gap": exc.gap}
                    raise
                log.info("benchmark %s lambda_pct=%g: %.3fs gap=%.2e",
                         name, pct, seconds, final_gap)
                rows.append([name, pct, f"{seconds:.6f}",
                             f"{final_gap:.6e}"])
    finally:
        # a method that fails (exit 3) still leaves the rows of the
        # methods that finished before it, and the manifest
        io._write_csv(os.path.join(args.out, "timings.csv"),
                      ["method", "lambda_pct", "seconds", "final_gap"], rows)
        _write_manifest(args, t_start, [seed], methods=method_list,
                        stopped=stopped)
    return 0


def cmd_check(args) -> int:
    data, design, depth_weights, lam = _load_problem(args)

    est = io.read_estimate(args.estimate)
    if est.n_locations != design.n_locations:
        raise ValueError(
            f"{args.estimate}: covers {est.n_locations} locations, design "
            f"has {design.n_locations}"
        )
    if depth_weights is not None:
        # stored estimates refer to the original design; map back to the
        # coordinates the solver actually optimized in
        scale = depth_weights.per_location_scale
        est = _scale_blocks(est, 1.0 / scale[list(est.active_set)])

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

    def add_problem(p):
        p.add_argument("--gain", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--n-orient", type=int, default=1)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--lambda-pct", type=float)
        p.add_argument("--loose", type=float,
                       help="tangential orientation weight in (0, 1]")
        p.add_argument("--depth", type=float,
                       help="depth compensation exponent in [0, 1]")

    p_solve = sub.add_parser("solve", help="solve a problem from matrix files")
    add_problem(p_solve)
    p_solve.add_argument("--method", choices=["mxne", "irmxne"], default="mxne")
    p_solve.add_argument("--debias", action="store_const", const=True,
                         default=False)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--out", required=True)
    _add_solver_options(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the synthetic study")
    p_sim.add_argument("--seed", type=int, action="append")
    spec = {f.name: f.default for f in fields(ScenarioSpec)}
    for name in SCENARIO_OPTIONS:
        p_sim.add_argument("--" + name.replace("_", "-"), type=int,
                           default=spec[name])
    p_sim.add_argument("--lambda-pct", type=float, action="append",
                       default=[50.0])
    p_sim.add_argument("--method", choices=["mxne", "irmxne"], action="append",
                       default=["mxne"])
    p_sim.add_argument("--debias", action="store_const", const=True,
                       default=False)
    p_sim.add_argument("--resamples", type=int, default=0)
    p_sim.add_argument("--resample-fraction", type=float, default=0.8)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes over the seeds (default: 1)")
    p_sim.add_argument("--out", required=True)
    _add_solver_options(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="time solver variants")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--n-sensors", type=int, default=50)
    p_bench.add_argument("--n-locations", type=int, default=2000)
    p_bench.add_argument("--n-orient", type=int, default=3)
    p_bench.add_argument("--n-times", type=int, default=20)
    p_bench.add_argument("--lambda-pct", type=float, action="append",
                         default=[40.0, 50.0, 60.0, 70.0, 80.0, 90.0])
    p_bench.add_argument("--methods", action="append",
                         default=list(BENCH_METHODS),
                         help=f"comma list from {','.join(BENCH_METHODS)}; "
                              "repeatable")
    p_bench.add_argument("--out", required=True)
    _add_solver_options(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_check = sub.add_parser(
        "check", help="recompute objectives and gap for a stored estimate"
    )
    add_problem(p_check)
    p_check.add_argument("--estimate", required=True)
    p_check.set_defaults(func=cmd_check)
    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file (flags win)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr
    )
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except IterationLimitError as exc:
        log.error("solver failed: %s", exc)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
