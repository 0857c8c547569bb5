"""Outside-in layer trace of one ``bsmx`` run.

The tracer rebinds public ``bsmx`` functions at the names their callers
look them up under (``bsmx.cli.solve_irmxne``, ``bsmx.mxne.solve_bcd``,
``bsmx.io.read_matrix``, ``ConvergenceTrace.to_csv`` ...), so nothing
under ``src/bsmx`` changes. Each wrapped call records a span
``(name, layer, start, end, parent, info)`` in memory; the spans are
written out once the run ends and :func:`layer_metrics` turns them into
the per-layer metrics.

A layer is a module of ``src/bsmx``. ``oracle`` is on no user path and is
not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter

LAYERS = ("cli", "io", "constraints", "prox", "mxne", "irmxne", "debias",
          "model", "sim")

# (module, attribute, span name, layer). The attribute is rebound in the
# module named, which is where the caller resolves it at call time.
SPAN_HOOKS = (
    ("cli", "apply_loose_orientation", "constraints.transform", "constraints"),
    ("cli", "apply_depth_weights", "constraints.transform", "constraints"),
    ("cli", "undo_depth_weights", "constraints.undo", "constraints"),
    ("cli", "lambda_max", "mxne.lambda_max", "mxne"),
    ("cli", "solve_active_set", "mxne.solve_active_set", "mxne"),
    ("cli", "solve_irmxne", "irmxne.solve_irmxne", "irmxne"),
    ("cli", "estimate_scaling", "debias.scaling", "debias"),
    ("cli", "apply_scaling", "debias.scaling", "debias"),
    ("cli", "generate_scenario", "sim.generate_scenario", "sim"),
    ("cli", "evaluate", "sim.evaluate", "sim"),
    ("cli", "resample_stability", "sim.resample_stability", "sim"),
    ("cli", "solve_with_method", "sim.solve_with_method", "sim"),
    ("io", "read_matrix", "io.read_matrix", "io"),
    ("io", "write_estimate", "io.write", "io"),
    ("mxne", "ConvergenceTrace.to_csv", "io.write", "io"),
    ("irmxne", "ReweightState.to_json", "io.write", "io"),
    ("mxne", "solve_bcd", "mxne.solve_bcd", "mxne"),
    ("mxne", "lambda_max", "mxne.lambda_max", "mxne"),
    ("mxne", "block_lipschitz_all", "prox.block_lipschitz_all", "prox"),
    ("mxne", "residual", "model.residual", "model"),
    ("constraints", "block_lipschitz_all", "prox.block_lipschitz_all", "prox"),
    ("irmxne", "solve_active_set", "mxne.solve_active_set", "mxne"),
    ("irmxne", "residual", "model.residual", "model"),
    ("sim", "solve_active_set", "mxne.solve_active_set", "mxne"),
    ("sim", "solve_irmxne", "irmxne.solve_irmxne", "irmxne"),
    ("sim", "solve_with_method", "sim.solve_with_method", "sim"),
)

# Counted, not timed: their time stays with the caller (the irmxne
# convergence check, scenario generation and evaluation).
COUNT_HOOKS = (
    ("irmxne", "densify"),
    ("sim", "densify"),
)

SOLVER_SPANS = ("mxne.solve_active_set", "irmxne.solve_irmxne")


def _resolve(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _trace_len(trace):
    return 0 if trace is None else len(trace)


def _info(name, args, kwargs, result, rows_before):
    """Counts recorded with a span; read off arguments and results only.

    A call whose arguments no longer fit (the program was refactored) gets
    no counts rather than failing the traced run.
    """
    try:
        return _counts(name, args, kwargs, result, rows_before)
    except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
        return {"info_error": f"{type(exc).__name__}: {exc}"}


def _counts(name, args, kwargs, result, rows_before):
    if name == "io.read_matrix":
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if name == "mxne.solve_bcd":
        m, g = args[0], args[1]
        cand = kwargs.get("candidates")
        n_cand = g.n_locations if cand is None else len(set(cand))
        return {"rows": len(result[1]) - rows_before, "cand": n_cand,
                "n": g.n_sensors, "o": g.n_orient, "t": m.n_times}
    if name == "mxne.solve_active_set":
        m, g = args[0], args[1]
        return {"rows": len(result[1]) - rows_before, "n": g.n_sensors,
                "s": g.n_locations, "o": g.n_orient, "t": m.n_times,
                "active": result[0].n_active}
    if name == "irmxne.solve_irmxne":
        return {"reweights": result[1].iteration, "active": result[0].n_active}
    if name == "sim.generate_scenario":
        return {"spec": repr(args[0] if args else kwargs["spec"])}
    return None


class Tracer:
    """In-memory span recorder installed by rebinding module attributes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.missing = []

    def install(self):
        """Wrap every hook of ``SPAN_HOOKS`` and ``COUNT_HOOKS``.

        Hooks whose target no longer exists are listed in ``missing`` and
        skipped, so the trace keeps working when the program is refactored.
        """
        for mod_name, dotted, span, layer in SPAN_HOOKS:
            self._rebind(mod_name, dotted,
                         lambda fn, s=span, l=layer: self._span_wrapper(s, l, fn))
        for mod_name, dotted in COUNT_HOOKS:
            self._rebind(mod_name, dotted, self._densify_wrapper)

    def _rebind(self, mod_name, dotted, make):
        try:
            owner, attr = _resolve(importlib.import_module(f"bsmx.{mod_name}"), dotted)
            original = getattr(owner, attr)
        except AttributeError:
            self.missing.append(f"{mod_name}.{dotted}")
            return
        setattr(owner, attr, make(original))

    def span(self, name, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the root ``cli.main`` call."""
        return self._span_wrapper(name, layer, fn)(*args, **kwargs)

    def _span_wrapper(self, name, layer, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows_before = _trace_len(kwargs.get("trace"))
            record = [name, layer, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[3] = time.perf_counter()
                record[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            record[3] = time.perf_counter()
            record[5] = _info(name, args, kwargs, result, rows_before)
            return result

        return wrapper

    def _densify_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(est):
            counts["densify_calls"] += 1
            counts["densify_bytes"] += est.n_locations * est.n_orient * est.n_times * 8
            return fn(est)

        return wrapper

    def to_dict(self):
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p,
                 "info": i}
                for n, l, s, e, p, i in self.spans
            ],
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(trace, wall_s):
    """Per-layer metrics from one traced run.

    ``wall_s`` is the traced wall time measured around ``cli.main``. Layer
    self times (span duration minus the part covered by child spans) plus
    ``trace.unattributed_s`` add up to it exactly.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    n = len(spans)
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, sp in enumerate(spans):
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
            children[sp["parent"]].append(i)
    dur = [sp["end"] - sp["start"] for sp in spans]
    self_s = [d - c for d, c in zip(dur, child_time)]

    def by_name(name):
        return [i for i, sp in enumerate(spans) if sp["name"] == name]

    def total(name, values):
        return sum(values[i] for i in by_name(name))

    def info_sum(name, key):
        return sum((spans[i]["info"] or {}).get(key, 0) for i in by_name(name))

    def is_solver(i):
        return spans[i]["name"] in SOLVER_SPANS

    out = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for sp, s in zip(spans, self_s):
        layer_self[sp["layer"]] += s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    out["io.read_s"] = total("io.read_matrix", dur)
    out["io.read_mb"] = info_sum("io.read_matrix", "bytes") / 1e6
    out["io.write_s"] = total("io.write", dur)
    out["constraints.transform_s"] = total("constraints.transform", dur)
    out["mxne.lambda_max_s"] = total("mxne.lambda_max", dur)
    out["prox.lipschitz_s"] = total("prox.block_lipschitz_all", dur)
    out["prox.lipschitz_calls"] = len(by_name("prox.block_lipschitz_all"))

    outer = by_name("mxne.solve_active_set")
    bcds = by_name("mxne.solve_bcd")
    full_checks = 0
    scoring_flop = 0.0
    expansions = 0
    for i in outer:
        info = spans[i]["info"] or {}
        if "rows" not in info:
            continue
        nested = [c for c in children[i] if spans[c]["name"] == "mxne.solve_bcd"]
        expansions += len(nested)
        checks = info["rows"] - sum((spans[c]["info"] or {}).get("rows", 0)
                                    for c in nested)
        full_checks += checks
        scoring_flop += checks * 2.0 * info["n"] * info["s"] * info["o"] * info["t"]
    sweeps = 0
    sweep_flop = 0.0
    peak_cand = 0
    for i in bcds:
        info = spans[i]["info"] or {}
        if "rows" not in info:
            continue
        k = info["rows"] - 1
        sweeps += k
        sweep_flop += k * 2.0 * info["n"] * info["cand"] * info["o"] * info["t"]
        peak_cand = max(peak_cand, info["cand"])
    out["mxne.driver_self_s"] = total("mxne.solve_active_set", self_s)
    out["mxne.driver_calls"] = len(outer)
    out["mxne.full_checks"] = full_checks
    out["mxne.scoring_gflop"] = scoring_flop / 1e9
    bcd_s = total("mxne.solve_bcd", dur)
    out["mxne.bcd_s"] = bcd_s
    out["mxne.expansions"] = expansions
    out["mxne.sweeps"] = sweeps
    out["mxne.sweep_ms"] = 1e3 * bcd_s / sweeps if sweeps else 0.0
    out["mxne.sweep_gflop"] = sweep_flop / 1e9
    out["mxne.peak_candidates"] = peak_cand

    top_solvers = [i for i, sp in enumerate(spans)
                   if is_solver(i) and not (sp["parent"] >= 0 and is_solver(sp["parent"]))]
    out["mxne.final_active"] = sum((spans[i]["info"] or {}).get("active", 0)
                                   for i in top_solvers)
    out["mxne.limit_errors"] = sum(
        1 for i in top_solvers
        if (spans[i]["info"] or {}).get("error") == "IterationLimitError"
    )

    irm = by_name("irmxne.solve_irmxne")
    out["irmxne.reweights"] = info_sum("irmxne.solve_irmxne", "reweights")
    surrogate = 0.0
    for i in irm:
        nested = [c for c in children[i]
                  if spans[c]["name"] == "mxne.solve_active_set"]
        surrogate += sum(dur[c] for c in nested[1:])
    out["irmxne.surrogate_s"] = surrogate
    out["irmxne.self_s"] = total("irmxne.solve_irmxne", self_s)

    out["model.densify_calls"] = counts.get("densify_calls", 0)
    out["model.densify_mb"] = counts.get("densify_bytes", 0) / 1e6
    out["model.residual_s"] = total("model.residual", dur)
    out["debias.scaling_s"] = total("debias.scaling", dur)

    gens = by_name("sim.generate_scenario")
    distinct = len({(spans[i]["info"] or {}).get("spec") for i in gens})
    out["sim.generate_s"] = total("sim.generate_scenario", dur)
    out["sim.generate_calls"] = len(gens)
    out["sim.distinct_scenarios"] = distinct
    out["sim.scenario_yield"] = distinct / len(gens) if gens else 0.0
    solves = [dur[i] for i in by_name("sim.solve_with_method")]
    out["sim.solves"] = len(solves)
    out["sim.solve_s"] = sum(solves)
    out["sim.solve_p50_ms"] = 1e3 * _percentile(solves, 50) if solves else 0.0
    out["sim.solve_p95_ms"] = 1e3 * _percentile(solves, 95) if solves else 0.0
    out["sim.evaluate_s"] = total("sim.evaluate", dur)
    out["sim.stability_s"] = total("sim.resample_stability", dur)

    out["trace.wall_s"] = wall_s
    out["trace.spans"] = n
    out["trace.unattributed_s"] = wall_s - sum(layer_self.values())
    return out
