import numpy as np
import pytest

from bsmx.model import BlockDesign, Measurements, SolverConfig, densify
from bsmx.mxne import (
    IterationLimitError,
    duality_gap,
    lambda_max,
    primal_objective,
    solve_active_set,
    solve_bcd,
)
from bsmx.oracle import global_lipschitz, solve_proximal_gradient
from bsmx.prox import block_lipschitz, group_soft_threshold

from helpers import make_instance, orthonormal_design


def test_global_lipschitz_orthonormal():
    rng = np.random.default_rng(0)
    g = orthonormal_design(rng, 4, 3, n_sensors=20)
    assert global_lipschitz(g) == pytest.approx(1.0, rel=1e-8)


def test_global_lipschitz_known_singular_values():
    raw = np.array([[3.0, 0.0], [0.0, 1.0]])
    g = BlockDesign(raw, 2, 1)
    assert global_lipschitz(g) == pytest.approx(9.0, rel=1e-10)


def test_global_lipschitz_matches_dense_eigensolve():
    rng = np.random.default_rng(1)
    # wide and tall designs: both Gram orientations
    for n_sensors in (8, 20):
        for _ in range(10):
            raw = rng.standard_normal((n_sensors, 12))
            g = BlockDesign(raw, 4, 3)
            dense = np.linalg.eigvalsh(raw.T @ raw)[-1]
            assert global_lipschitz(g) == pytest.approx(dense, rel=1e-8)


def test_global_dominates_block_constants():
    rng = np.random.default_rng(2)
    _, g, _ = make_instance(rng, n_locations=12)
    lip = global_lipschitz(g)
    for s in range(g.n_locations):
        assert lip >= block_lipschitz(g.block(s)) - 1e-10


def test_pgd_zero_at_lambda_max():
    rng = np.random.default_rng(3)
    m, g, _ = make_instance(rng)
    est = solve_proximal_gradient(m, g, 1.01 * lambda_max(m, g), 1e-8)
    assert est.n_active == 0


def test_pgd_orthogonal_closed_form():
    rng = np.random.default_rng(4)
    g = orthonormal_design(rng, 5, 2, n_sensors=14)
    m = Measurements(rng.standard_normal((14, 6)))
    corr = g.entries.T @ m.entries
    lam = 0.5 * lambda_max(m, g)
    est = solve_proximal_gradient(m, g, lam, 1e-12)
    dense = densify(est)
    for s in range(5):
        expected = group_soft_threshold(corr[s * 2:(s + 1) * 2], lam)
        assert np.allclose(dense[s * 2:(s + 1) * 2], expected, atol=1e-7)


def test_pgd_agrees_with_active_set_solver():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, g, _ = make_instance(rng, noise=0.2)
        lam = float(rng.uniform(0.2, 0.8)) * lambda_max(m, g)
        est_as, _ = solve_active_set(m, g, None, lam, SolverConfig(lam=lam))
        est_pg = solve_proximal_gradient(m, g, lam, 1e-6)
        p1 = primal_objective(m, g, est_as, lam)
        p2 = primal_objective(m, g, est_pg, lam)
        assert abs(p1 - p2) <= 1e-6


def test_pgd_objective_monotone_with_restart():
    rng = np.random.default_rng(6)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    history = []
    solve_proximal_gradient(
        m, g, lam, 1e-8,
        callback=lambda it, x, primal: history.append(primal),
    )
    assert len(history) > 2
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev + 1e-10 * abs(prev)


def test_pgd_gap_certificate():
    rng = np.random.default_rng(7)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    est = solve_proximal_gradient(m, g, lam, 1e-8)
    assert duality_gap(m, g, est, lam).gap < 1e-8


def test_pgd_candidate_restriction():
    rng = np.random.default_rng(8)
    m, g, _ = make_instance(rng)
    lam = 0.2 * lambda_max(m, g)
    cand = [1, 4, 6]
    est = solve_proximal_gradient(m, g, lam, 1e-8, candidates=cand)
    assert set(est.active_set) <= set(cand)


def test_pgd_iteration_cap():
    rng = np.random.default_rng(9)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.2 * lambda_max(m, g)
    with pytest.raises(IterationLimitError) as excinfo:
        solve_proximal_gradient(m, g, lam, 1e-12, max_iter=3)
    assert excinfo.value.estimate is not None
    assert excinfo.value.gap > 1e-12


def test_gaps_of_both_solvers_and_the_trace_agree():
    # solve_bcd's restricted gap, the full-problem duality_gap and the
    # oracle share one dual scaling; at a tight tolerance they agree
    rng = np.random.default_rng(11)
    for o in (1, 3):
        for per_location in (False, True):
            m, g, _ = make_instance(rng, n_sensors=15, n_locations=12,
                                    n_orient=o, n_times=4)
            lam = 0.3 * lambda_max(m, g)
            if per_location:
                lam = lam * rng.uniform(0.5, 1.5, g.n_locations)
            tol = 1e-13 * 0.5 * float((m.entries ** 2).sum())
            est, trace = solve_bcd(m, g, None, lam, tol)
            report = duality_gap(m, g, est, lam)
            pgd = solve_proximal_gradient(m, g, lam, tol)
            gaps = [report.gap, trace.final.gap, duality_gap(m, g, pgd, lam).gap]
            assert max(gaps) - min(gaps) <= 1e-12 * report.primal, gaps
            assert trace.final.primal == pytest.approx(report.primal,
                                                       rel=1e-12)
