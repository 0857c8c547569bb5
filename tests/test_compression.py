"""Exact temporal compression of long epochs (``n_times > n_sensors``).

The solvers run on ``U S`` of the thin SVD ``M = U S V^T`` and map their
estimates back as ``Z V^T``. Every check here is made on the uncompressed
problem, against solvers or formulas that never compress.
"""

import dataclasses

import numpy as np
import pytest

from bsmx import irmxne, mxne
from bsmx.irmxne import _max_abs_change, solve_irmxne
from bsmx.model import (
    Measurements,
    SolverConfig,
    _change_time_basis,
    _compress_time,
    densify,
)
from bsmx.mxne import (
    IterationLimitError,
    duality_gap,
    lambda_max,
    primal_objective,
    solve_active_set,
)
from bsmx.oracle import solve_proximal_gradient
from bsmx.prox import _location_norms

from helpers import make_instance

N_SENSORS, N_TIMES = 12, 30

CASES = [(1, "scalar"), (1, "vector"), (3, "scalar"), (3, "vector")]


def _long_problem(seed, n_orient, lam_kind):
    rng = np.random.default_rng(seed)
    m, g, _ = make_instance(rng, n_sensors=N_SENSORS, n_locations=25,
                            n_orient=n_orient, n_times=N_TIMES, noise=0.2)
    lam = 0.3 * lambda_max(m, g)
    if lam_kind == "vector":
        lam = lam * rng.uniform(0.8, 1.2, g.n_locations)
    return m, g, lam


def _uncompressed(monkeypatch):
    """Make both solver modules skip the compression."""
    def identity(m):
        return m, None

    monkeypatch.setattr(mxne, "_compress_time", identity)
    monkeypatch.setattr(irmxne, "_compress_time", identity)


@pytest.mark.parametrize("n_times", [5, N_SENSORS])
def test_short_data_is_returned_unchanged(n_times):
    m = Measurements(np.random.default_rng(0).standard_normal((N_SENSORS, n_times)))
    short, vt = _compress_time(m)
    assert short is m and vt is None


def test_compression_is_exact():
    m = Measurements(np.random.default_rng(1).standard_normal((N_SENSORS, N_TIMES)))
    short, vt = _compress_time(m)
    assert short.entries.shape == (N_SENSORS, N_SENSORS)
    assert vt.shape == (N_SENSORS, N_TIMES)
    assert np.allclose(short.entries @ vt, m.entries, rtol=0, atol=1e-12)
    assert np.allclose(vt @ vt.T, np.eye(N_SENSORS), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_orient", [1, 3])
def test_lambda_max_matches_uncompressed_scores(n_orient):
    m, g, _ = _long_problem(2, n_orient, "scalar")
    direct = _location_norms(g.entries.T @ m.entries, n_orient).max()
    assert lambda_max(m, g) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n_orient,lam_kind", CASES)
def test_active_set_certified_on_full_problem(n_orient, lam_kind):
    m, g, lam = _long_problem(3, n_orient, lam_kind)
    config = SolverConfig()
    est, trace = solve_active_set(m, g, None, lam, config)
    assert est.n_times == N_TIMES and est.n_active > 0
    report = duality_gap(m, g, est, lam)
    assert report.gap < config.gap_tol + 1e-12 * report.primal
    # the trace reports the full problem's primal
    assert trace.final.primal == pytest.approx(report.primal, rel=1e-12)


@pytest.mark.parametrize("n_orient,lam_kind", CASES)
def test_active_set_matches_proximal_gradient(n_orient, lam_kind):
    m, g, lam = _long_problem(4, n_orient, lam_kind)
    est, _ = solve_active_set(m, g, None, lam, SolverConfig(gap_tol=1e-10))
    ref = solve_proximal_gradient(m, g, lam, 1e-10)
    assert est.active_set == ref.active_set
    scale = np.abs(ref.coef).max()
    assert np.abs(densify(est) - densify(ref)).max() <= 1e-4 * scale
    assert primal_objective(m, g, est, lam) == pytest.approx(
        primal_objective(m, g, ref, lam), rel=1e-9)


@pytest.mark.parametrize("n_orient,lam_kind", CASES)
def test_full_time_warm_start_is_accepted(n_orient, lam_kind):
    m, g, lam = _long_problem(5, n_orient, lam_kind)
    config = SolverConfig()
    cold, _ = solve_active_set(m, g, None, lam, config)
    warm, trace = solve_active_set(m, g, cold, lam, config)
    assert warm.n_times == N_TIMES
    # the mapped warm start is certified at once, with no expansion
    assert len(trace) == 1
    assert abs(primal_objective(m, g, warm, lam)
               - primal_objective(m, g, cold, lam)) <= 2e-6


@pytest.mark.parametrize("n_orient", [1, 3])
def test_irmxne_matches_uncompressed_run(n_orient, monkeypatch):
    m, g, lam = _long_problem(6, n_orient, "scalar")
    config = SolverConfig(gap_tol=1e-10, reweight_tol=1e-8)
    est, state, _ = solve_irmxne(m, g, lam, config)
    _uncompressed(monkeypatch)
    ref, ref_state, _ = solve_irmxne(m, g, lam, config)
    assert est.n_times == N_TIMES
    assert est.active_set == ref.active_set
    assert state.iteration == ref_state.iteration
    assert state.converged == ref_state.converged
    scale = np.abs(ref.coef).max()
    assert np.abs(est.coef - ref.coef).max() <= 1e-6 * scale
    assert np.allclose(state.objective_trace, ref_state.objective_trace,
                       rtol=1e-9, atol=0)


def test_max_abs_change_is_taken_in_full_time():
    m, g, lam = _long_problem(7, 3, "scalar")
    short, vt = _compress_time(m)
    a, _ = solve_active_set(short, g, None, lam, SolverConfig())
    b, _ = solve_active_set(short, g, None, 1.3 * lam, SolverConfig())
    full = np.abs(densify(_change_time_basis(a, vt))
                  - densify(_change_time_basis(b, vt))).max()
    assert _max_abs_change(a, b, vt) == pytest.approx(full, rel=1e-12)


def test_active_set_iteration_limit_carries_full_time_estimate():
    m, g, lam = _long_problem(8, 3, "scalar")
    config = SolverConfig(gap_tol=1e-14, max_bcd_iter=1)
    with pytest.raises(IterationLimitError) as info:
        solve_active_set(m, g, None, lam, config)
    est = info.value.estimate
    assert est.n_times == N_TIMES and est.n_active > 0


def test_irmxne_iteration_limit_carries_full_time_estimate(monkeypatch):
    # iteration 1 runs uncapped; every reweight step is capped at one sweep
    m, g, lam = _long_problem(9, 3, "scalar")
    config = SolverConfig()
    inner = irmxne.solve_active_set

    def capped(m, g, warm, lam, config, **kwargs):
        if warm is not None:
            config = dataclasses.replace(config, max_bcd_iter=1)
        return inner(m, g, warm, lam, config, **kwargs)

    monkeypatch.setattr(irmxne, "solve_active_set", capped)
    with pytest.raises(IterationLimitError) as info:
        solve_irmxne(m, g, lam, config)
    assert info.value.estimate.n_times == N_TIMES
    state = info.value.state
    assert state.iteration == 1 and len(state.weights) == 2
    assert all(w.shape == (g.n_locations,) for w in state.weights)
