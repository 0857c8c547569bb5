"""Output checks of one benchmark run. Each returns a list of failures.

The checks recompute certificates from the inputs rather than trusting the
program's own report: the duality gap of an ``mxne`` estimate on the full
problem; for ``irmxne``, the gap of the final convex surrogate on the
design rescaled by the last weights, and a non-increasing objective trace;
for debiased outputs, factors of at least 1 and a residual no larger than
the raw one. ``simulate`` outputs must hold every row and stability entry,
with finite values.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# roundoff allowances: relative to the primal objective (gap) and to the
# previous value (objective trace, residual norms)
GAP_ROUNDOFF = 1e-12
DESCENT_ROUNDOFF = 1e-10


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _estimate(path):
    from bsmx.model import BlockSparseEstimate

    payload = _load_json(path)
    items = [(int(s), np.asarray(payload["blocks"][str(s)], dtype=float))
             for s in payload["active_set"]]
    return BlockSparseEstimate.from_blocks(
        items, int(payload["n_locations"]), int(payload["n_orient"]),
        int(payload["n_times"]),
    )


def _scaled(est, factors):
    """Estimate with block ``s`` multiplied by ``factors[s]``."""
    from bsmx.model import BlockSparseEstimate

    return BlockSparseEstimate.from_blocks(
        [(s, b * factors[s]) for s, b in zip(est.active_set, est.blocks)],
        est.n_locations, est.n_orient, est.n_times,
    )


def _residual_norm(gain, data, est):
    o = est.n_orient
    r = data.copy()
    for s, blk in zip(est.active_set, est.blocks):
        r -= gain[:, s * o:(s + 1) * o] @ blk
    return float(np.linalg.norm(r))


def _gap_failure(label, report, gap_tol):
    allowed = gap_tol + GAP_ROUNDOFF * abs(report.primal)
    if not math.isfinite(report.gap) or report.gap > allowed:
        return [f"{label}: recomputed duality gap {report.gap:.3e} exceeds {allowed:.3e}"]
    return []


def _irmxne_failures(m, design, est, lam, state, gap_tol):
    from bsmx import BlockDesign, duality_gap
    from bsmx.model import BlockSparseEstimate

    failures = []
    weights = [np.asarray(w, dtype=float) for w in state["weights"]]
    objective = [float(v) for v in state["objective_trace"]]
    if not weights or state["iteration"] != len(weights) or len(objective) != len(weights):
        return [f"reweight_state: {len(weights)} weights and {len(objective)} "
                f"objectives for {state['iteration']} iterations"]
    if not np.all(weights[0] == 1.0):
        failures.append("reweight_state: first weights are not all ones")
    for k in range(1, len(objective)):
        if objective[k] > objective[k - 1] + DESCENT_ROUNDOFF * abs(objective[k - 1]):
            failures.append(
                f"reweight_state: objective rises at iteration {k + 1} "
                f"({objective[k - 1]!r} -> {objective[k]!r})"
            )
    w = weights[-1]
    cand = np.flatnonzero(w > 0)
    pos = {int(s): j for j, s in enumerate(cand)}
    if any(s not in pos for s in est.active_set):
        return failures + ["estimate: support outside the last positively weighted set"]
    o = design.n_orient
    cols = (cand[:, None] * o + np.arange(o)[None, :]).ravel()
    sub = BlockDesign(design.entries[:, cols] * np.repeat(w[cand], o)[None, :],
                      len(cand), o)
    sub_est = BlockSparseEstimate.from_blocks(
        [(pos[s], b / w[s]) for s, b in zip(est.active_set, est.blocks)],
        len(cand), o, est.n_times,
    )
    report = duality_gap(m, sub, sub_est, lam)
    return failures + _gap_failure("final surrogate", report, gap_tol)


def _debias_failures(gain, data, raw, debiased):
    if debiased.active_set != raw.active_set:
        return ["estimate_debiased: support differs from the raw estimate"]
    failures = []
    for s, b_raw, b_deb in zip(raw.active_set, raw.blocks, debiased.blocks):
        d = float((b_deb * b_raw).sum() / (b_raw * b_raw).sum())
        if d < 1.0 - DESCENT_ROUNDOFF:
            failures.append(f"estimate_debiased: factor {d!r} < 1 at location {s}")
        err = float(np.abs(b_deb - d * b_raw).max())
        if err > 1e-9 * float(np.abs(b_deb).max()):
            failures.append(f"estimate_debiased: block {s} is not a scaled raw block")
    r_raw = _residual_norm(gain, data, raw)
    r_deb = _residual_norm(gain, data, debiased)
    if r_deb > r_raw * (1.0 + DESCENT_ROUNDOFF):
        failures.append(f"estimate_debiased: residual {r_deb!r} > raw {r_raw!r}")
    return failures


class SolveInputs:
    """The problem a ``bsmx solve`` run was given, rebuilt once per run.

    ``design`` is in the solver's coordinates (after the loose and depth
    transforms); ``fit_design`` is the one estimates refer to (depth
    weighting is undone on output, orientation weighting is not).
    """

    def __init__(self, gain, data, *, n_orient, lam=None, lambda_pct=None,
                 loose=None, depth=None):
        from bsmx import (BlockDesign, Measurements, apply_depth_weights,
                          apply_loose_orientation, lambda_max)

        self.data = data
        self.m = Measurements(data)
        design = BlockDesign(gain, gain.shape[1] // n_orient, n_orient)
        if loose is not None:
            design = apply_loose_orientation(design, loose)
        self.fit_design = design
        self.depth_scale = None
        if depth:
            design, weights = apply_depth_weights(design, depth)
            self.depth_scale = weights.per_location_scale
        self.design = design
        self.lam = lam if lam is not None else lambda_pct / 100.0 * lambda_max(self.m, design)


def check_solve(outdir, inputs, *, method, debias=False, gap_tol=1e-6):
    """Check the outputs of one ``bsmx solve`` run in ``outdir``."""
    from bsmx import duality_gap

    try:
        est = _estimate(os.path.join(outdir, "estimate.json"))
        manifest = _load_json(os.path.join(outdir, "manifest.json"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc}"]
    m, design = inputs.m, inputs.design
    solved_lam = float(manifest["config"]["resolved_lambda"])
    if not math.isclose(solved_lam, inputs.lam, rel_tol=1e-9):
        return [f"manifest: lambda {solved_lam!r}, expected {inputs.lam!r}"]
    if (est.n_locations, est.n_orient, est.n_times) != (
            design.n_locations, design.n_orient, m.n_times):
        return ["estimate: dimensions do not match the inputs"]

    solved = est if inputs.depth_scale is None else _scaled(est, 1.0 / inputs.depth_scale)
    if method == "mxne":
        failures = _gap_failure("estimate", duality_gap(m, design, solved, solved_lam),
                                gap_tol)
    else:
        state = _load_json(os.path.join(outdir, "reweight_state.json"))
        failures = _irmxne_failures(m, design, solved, solved_lam, state, gap_tol)

    deb_path = os.path.join(outdir, "estimate_debiased.json")
    if debias and est.n_active > 0:
        if not os.path.exists(deb_path):
            return failures + ["estimate_debiased.json missing"]
        failures += _debias_failures(inputs.fit_design.entries, inputs.data, est,
                                     _estimate(deb_path))
    return failures


def first_support(outdir):
    """Support size of the first (convex) iteration of an irmxne run."""
    state = _load_json(os.path.join(outdir, "reweight_state.json"))
    if state["iteration"] < 2:
        return len(_load_json(os.path.join(outdir, "estimate.json"))["active_set"])
    return int(np.count_nonzero(np.asarray(state["weights"][1])))


SIM_FIELDS = ("true_positives", "false_positives", "active_set_size", "rmse",
              "rmse_debiased", "gof")


def check_simulate(outdir, *, seeds, lambda_pcts, methods, resamples, n_locations):
    """Check ``bsmx simulate`` outputs; returns (operations, failures).

    An operation is one ``metrics.csv`` row or one stability entry.
    """
    expected = {(int(s), float(p), meth) for s in seeds for p in lambda_pcts
                for meth in methods}
    entries = [(meth, str(float(p))) for meth in methods for p in lambda_pcts]
    ops = len(expected) + len(entries)
    failures = []
    seen = set()
    try:
        with open(os.path.join(outdir, "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return ops, [f"metrics.csv unreadable: {exc}"] * len(expected) + \
            [f"stability entry {e} not checked" for e in entries]
    for row in rows:
        try:
            key = (int(row["seed"]), float(row["lambda_pct"]), row["method"])
            values = [float(row[f]) for f in SIM_FIELDS]
        except (KeyError, TypeError, ValueError):
            failures.append(f"metrics.csv: malformed row {row}")
            continue
        if key not in expected or key in seen:
            failures.append(f"metrics.csv: unexpected row {key}")
        elif not all(math.isfinite(v) for v in values):
            failures.append(f"metrics.csv: non-finite value in row {key}")
        seen.add(key)
    failures += [f"metrics.csv: missing row {k}" for k in sorted(expected - seen)]

    try:
        stability = _load_json(os.path.join(outdir, "stability.json"))
    except (OSError, ValueError) as exc:
        return ops, failures + [f"stability.json unreadable: {exc}"] * len(entries)
    for meth, pct in entries:
        entry = stability.get(meth, {}).get(pct)
        if entry is None:
            failures.append(f"stability.json: missing entry {meth} {pct}")
            continue
        prob = np.asarray(entry.get("selection_probability", []), dtype=float)
        sel = np.asarray(entry.get("selection_matrix", []), dtype=float)
        alpha = entry.get("krippendorff_alpha")
        if (not isinstance(alpha, (int, float)) or not math.isfinite(alpha)
                or prob.shape != (n_locations,) or not np.all(np.isfinite(prob))
                or sel.shape != (resamples, n_locations)):
            failures.append(f"stability.json: malformed entry {meth} {pct}")
    return ops, failures
