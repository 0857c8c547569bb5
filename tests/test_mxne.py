import math

import numpy as np
import pytest

import bsmx.mxne
import bsmx.oracle
from bsmx.model import (
    BlockSparseEstimate,
    BlockDesign,
    Measurements,
    SolverConfig,
    residual,
)
from bsmx.mxne import (
    ConvergenceTrace,
    IterationLimitError,
    dual_map,
    dual_objective,
    duality_gap,
    lambda_max,
    primal_objective,
    solve_active_set,
    solve_bcd,
    _location_norms,
    _top_violators,
)
from bsmx.oracle import solve_proximal_gradient
from bsmx.prox import block_lipschitz_all, group_soft_threshold

from helpers import dense_primal, make_instance, orthonormal_design


def test_primal_zero_estimate():
    rng = np.random.default_rng(0)
    m, g, _ = make_instance(rng)
    est = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    expected = 0.5 * (m.entries ** 2).sum()
    assert primal_objective(m, g, est, 1.0) == pytest.approx(expected, rel=1e-14)


def test_primal_single_block_zero_data():
    rng = np.random.default_rng(1)
    _, g, _ = make_instance(rng, n_times=6)
    m0 = Measurements(np.zeros((g.n_sensors, 6)))
    block = rng.standard_normal((g.n_orient, 6))
    est = BlockSparseEstimate.from_blocks([(2, block)], g.n_locations,
                                          g.n_orient, 6)
    lam = 0.7
    expected = 0.5 * ((g.block(2) @ block) ** 2).sum() + lam * np.linalg.norm(block)
    assert primal_objective(m0, g, est, lam) == pytest.approx(expected, rel=1e-12)


def test_primal_matches_dense_oracle():
    # scalar and per-location lam, O=3 and O=1, planted and empty estimates
    rng = np.random.default_rng(2)
    for i in range(10):
        m, g, truth = make_instance(rng, n_orient=3 if i % 2 else 1,
                                    noise=0.3)
        empty = BlockSparseEstimate.empty(g.n_locations, g.n_orient,
                                          m.n_times)
        lam = float(rng.uniform(0.1, 2.0))
        lam_vec = rng.uniform(0.1, 2.0, g.n_locations)
        for est in (truth, empty):
            for weight in (lam, lam_vec):
                got = primal_objective(m, g, est, weight)
                assert got == pytest.approx(dense_primal(m, g, est, weight),
                                            rel=1e-12)


def test_dual_map_zero_residual():
    rng = np.random.default_rng(3)
    _, g, _ = make_instance(rng)
    y = dual_map(np.zeros((g.n_sensors, 4)), g, 1.0)
    assert np.array_equal(y, np.zeros((g.n_sensors, 4)))


def test_dual_map_scales_by_violation_ratio():
    rng = np.random.default_rng(4)
    m, g, _ = make_instance(rng)
    y_tilde = m.entries.copy()
    corr = g.entries.T @ y_tilde
    o = g.n_orient
    norms = np.linalg.norm(corr.reshape(g.n_locations, -1), axis=1)
    lam = norms.max() / 2.0
    y = dual_map(y_tilde, g, lam)
    assert np.allclose(y, y_tilde / 2.0, atol=1e-14)


def test_dual_map_feasibility_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, g, _ = make_instance(rng)
        y_tilde = rng.standard_normal((g.n_sensors, m.n_times))
        lam = float(rng.uniform(0.05, 1.0))
        y = dual_map(y_tilde, g, lam)
        o = g.n_orient
        for s in range(g.n_locations):
            norm = np.linalg.norm(g.block(s).T @ y)
            assert norm <= lam * (1 + 1e-12)


def test_dual_objective_values():
    rng = np.random.default_rng(6)
    m, _, _ = make_instance(rng)
    assert dual_objective(m, np.zeros_like(m.entries)) == 0.0
    expected = 0.5 * (m.entries ** 2).sum()
    assert dual_objective(m, m.entries) == pytest.approx(expected, rel=1e-14)


def test_gap_small_at_converged_estimate():
    rng = np.random.default_rng(7)
    m, g, _ = make_instance(rng)
    lam = 0.4 * lambda_max(m, g)
    est, _ = solve_active_set(m, g, None, lam, SolverConfig())
    rep = duality_gap(m, g, est, lam)
    assert rep.primal - rep.dual < 1e-6
    assert rep.gap >= -1e-10


def test_gap_zero_at_one_block_closed_form():
    # orthonormal single-location design: the optimum is the prox of G^T M
    rng = np.random.default_rng(8)
    g = orthonormal_design(rng, 1, 3, n_sensors=10)
    m = Measurements(rng.standard_normal((10, 5)))
    corr = g.block(0).T @ m.entries
    lam = 0.4 * np.linalg.norm(corr)
    x_star = group_soft_threshold(corr, lam)
    est = BlockSparseEstimate.from_blocks([(0, x_star)], 1, 3, 5)
    rep = duality_gap(m, g, est, lam)
    assert abs(rep.gap) < 1e-10


def test_gap_zero_at_zero_estimate_when_lambda_large():
    rng = np.random.default_rng(9)
    m, g, _ = make_instance(rng)
    lam = 1.05 * lambda_max(m, g)
    est = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    rep = duality_gap(m, g, est, lam)
    assert abs(rep.gap) < 1e-10


def test_gap_positive_off_optimum():
    rng = np.random.default_rng(10)
    m, g, _ = make_instance(rng)
    lam = 0.4 * lambda_max(m, g)
    est, _ = solve_active_set(m, g, None, lam, SolverConfig(gap_tol=1e-10))
    perturbed = BlockSparseEstimate.from_blocks(
        [(s, b * 1.5) for s, b in zip(est.active_set, est.blocks)],
        g.n_locations, g.n_orient, m.n_times,
    )
    assert duality_gap(m, g, perturbed, lam).gap > 1e-4


def test_lambda_max_trivial_cases():
    rng = np.random.default_rng(11)
    _, g, _ = make_instance(rng)
    m0 = Measurements(np.zeros((g.n_sensors, 3)))
    assert lambda_max(m0, g) == 0.0

    # a design with a single nonzero block
    n, o, t = 6, 2, 3
    raw = np.zeros((n, 4 * o))
    block = rng.standard_normal((n, o))
    raw[:, 2 * o:3 * o] = block
    g1 = BlockDesign(raw, 4, o)
    m = Measurements(rng.standard_normal((n, t)))
    assert lambda_max(m, g1) == pytest.approx(
        np.linalg.norm(block.T @ m.entries), rel=1e-14
    )


def test_lambda_max_brackets_empty_support():
    rng = np.random.default_rng(12)
    for _ in range(5):
        m, g, _ = make_instance(rng)
        lam_top = lambda_max(m, g)
        est_hi, _ = solve_active_set(m, g, None, 1.01 * lam_top,
                                     SolverConfig())
        assert est_hi.n_active == 0
        est_lo, _ = solve_active_set(m, g, None, 0.99 * lam_top,
                                     SolverConfig())
        assert est_lo.n_active > 0


def test_solve_bcd_zero_when_lambda_large():
    rng = np.random.default_rng(13)
    m, g, _ = make_instance(rng)
    lam = 1.1 * lambda_max(m, g)
    est, trace = solve_bcd(m, g, None, lam, 1e-8)
    assert est.n_active == 0
    assert trace.final.gap < 1e-8


def test_solve_bcd_orthogonal_design_single_sweep():
    rng = np.random.default_rng(14)
    g = orthonormal_design(rng, 6, 2, n_sensors=15)
    m = Measurements(rng.standard_normal((15, 4)))
    corr = g.entries.T @ m.entries
    lam = 0.5 * lambda_max(m, g)
    est, trace = solve_bcd(m, g, None, lam, 1e-12)
    # closed form: blockwise prox of G^T M
    for s in range(6):
        expected = group_soft_threshold(corr[s * 2:(s + 1) * 2], lam)
        got = est.block_for(s)
        if got is None:
            assert not expected.any()
        else:
            assert np.allclose(got, expected, atol=1e-12)
    assert trace.final.gap < 1e-12
    # one sweep suffices: entry row plus one post-sweep row
    assert len(trace) == 2


def test_solve_bcd_matches_proximal_gradient():
    rng = np.random.default_rng(15)
    m, g, _ = make_instance(rng, n_sensors=20, n_locations=30, n_orient=3,
                            n_times=10, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    est, _ = solve_bcd(m, g, None, lam, 1e-6)
    oracle = solve_proximal_gradient(m, g, lam, 1e-6)
    p_bcd = primal_objective(m, g, est, lam)
    p_pgd = primal_objective(m, g, oracle, lam)
    assert abs(p_bcd - p_pgd) <= 1e-6


def test_solve_bcd_monotone_descent():
    rng = np.random.default_rng(16)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    _, trace = solve_bcd(m, g, None, lam, 1e-10)
    primals = [row.primal for row in trace.rows]
    for prev, cur in zip(primals, primals[1:]):
        assert cur <= prev + 1e-12 * abs(prev)


def test_solve_bcd_gap_upper_bounds_suboptimality():
    rng = np.random.default_rng(17)
    m, g, _ = make_instance(rng, n_locations=15, noise=0.2)
    lam = 0.5 * lambda_max(m, g)
    # near-exact optimum from the reference solver
    star = solve_proximal_gradient(m, g, lam, 1e-12)
    p_star = primal_objective(m, g, star, lam)
    _, trace = solve_bcd(m, g, None, lam, 1e-8)
    for row in trace.rows:
        assert row.gap >= -1e-10
        assert row.primal - p_star <= row.gap + 1e-10


def test_solve_bcd_respects_candidates():
    rng = np.random.default_rng(18)
    m, g, _ = make_instance(rng)
    lam = 0.2 * lambda_max(m, g)
    cand = [0, 5, 7]
    est, _ = solve_bcd(m, g, None, lam, 1e-8, candidates=cand)
    assert set(est.active_set) <= set(cand)


def test_solve_bcd_warm_start_outside_candidates_rejected():
    rng = np.random.default_rng(19)
    m, g, _ = make_instance(rng)
    lam = 0.2 * lambda_max(m, g)
    init = BlockSparseEstimate.from_blocks(
        [(1, np.ones((g.n_orient, m.n_times)))],
        g.n_locations, g.n_orient, m.n_times,
    )
    with pytest.raises(ValueError, match="candidate"):
        solve_bcd(m, g, init, lam, 1e-8, candidates=[0, 2])


def test_solve_bcd_rejects_degenerate_candidate_block():
    rng = np.random.default_rng(29)
    n, s, o, t = 12, 8, 2, 5
    raw = rng.standard_normal((n, s * o))
    raw[:, 3 * o:4 * o] = 0.0
    g = BlockDesign(raw, s, o)
    m = Measurements(rng.standard_normal((n, t)))
    lam = 0.2 * lambda_max(m, g)
    # the step length 1 / L_3 of an all-zero block is undefined
    for cand in (None, [1, 3, 5]):
        with pytest.raises(ValueError,
                           match="degenerate design block at location 3"):
            solve_bcd(m, g, None, lam, 1e-8, candidates=cand)
    others = [k for k in range(s) if k != 3]
    est, trace = solve_bcd(m, g, None, lam, 1e-10, candidates=others)
    assert trace.final.gap < 1e-10
    assert est.n_active > 0 and 3 not in est.active_set


def _first_sweep(m, g, s, lam, lip):
    """Block ``s`` after one BCD sweep from zero with step ``1 / lip``."""
    step = 1.0 / lip
    x_bar = 0.0 + step * (np.ascontiguousarray(g.entries.T[[s]]) @ m.entries)
    x_bar *= 1.0 - step * lam / np.sqrt((x_bar * x_bar).sum())
    return x_bar


def test_solve_bcd_steps_with_the_design_constant():
    # a one-location design's constant can differ in its last bit from the
    # full design's (einsum sums a lone column in another order); a
    # one-candidate call must still take the design's step
    rng = np.random.default_rng(3)
    m, g, _ = make_instance(rng, n_orient=1)
    lam = 0.1 * lambda_max(m, g)
    lips = block_lipschitz_all(g)
    picked = None
    for s in range(g.n_locations):
        alone = block_lipschitz_all(BlockDesign(g.entries[:, [s]], 1, 1))[0]
        own = _first_sweep(m, g, s, lam, lips[s])
        if not np.array_equal(own, _first_sweep(m, g, s, lam, alone)):
            picked = s
            break
    assert picked is not None
    # one block is solved exactly by its first sweep: the gap may pass
    trace = ConvergenceTrace()
    try:
        est, _ = solve_bcd(m, g, None, lam, 1e-300, candidates=[picked],
                           max_iter=1, trace=trace)
    except IterationLimitError as exc:
        est = exc.estimate
    assert len(trace) == 2  # the entry gap, then the one sweep's
    assert est.active_set == (picked,)
    assert est.coef.tobytes() == own.tobytes()


def test_solve_bcd_iteration_cap_carries_state():
    rng = np.random.default_rng(20)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.1 * lambda_max(m, g)
    with pytest.raises(IterationLimitError) as excinfo:
        solve_bcd(m, g, None, lam, 1e-14, max_iter=1)
    err = excinfo.value
    assert err.estimate is not None
    assert err.gap is not None and err.gap > 1e-14


def _correlated_instance(rng, n_sensors=30, n_locations=20, n_orient=3,
                         n_times=8, rho=0.97):
    """Planted instance whose adjacent design columns are AR(1)-correlated.

    Strongly correlated blocks, as in MEG gain matrices, make plain
    coordinate descent slow, which is where extrapolation pays.
    """
    n_cols = n_locations * n_orient
    raw = np.empty((n_sensors, n_cols))
    raw[:, 0] = rng.standard_normal(n_sensors)
    for j in range(1, n_cols):
        raw[:, j] = (rho * raw[:, j - 1]
                     + np.sqrt(1.0 - rho ** 2) * rng.standard_normal(n_sensors))
    raw /= np.linalg.norm(raw, axis=0)
    g = BlockDesign(raw, n_locations, n_orient)
    assert np.diag(np.corrcoef(raw.T), 1).min() >= 0.9
    x = np.zeros((n_cols, n_times))
    for s in rng.choice(n_locations, size=3, replace=False):
        x[s * n_orient:(s + 1) * n_orient] = rng.standard_normal(
            (n_orient, n_times))
    noise = 0.1 * rng.standard_normal((n_sensors, n_times))
    m = Measurements(raw @ x + noise)
    return m, g, 0.1 * lambda_max(m, g)


def test_solve_bcd_extrapolation_saves_sweeps(monkeypatch):
    max_iter = 2000
    for seed in range(3):
        rng = np.random.default_rng(400 + seed)
        m, g, lam = _correlated_instance(rng)
        _, accelerated = solve_bcd(m, g, None, lam, 1e-10,
                                   max_iter=max_iter)
        with monkeypatch.context() as patch:
            # a window longer than the cap never fills: plain sweeps only
            patch.setattr(bsmx.mxne, "_ANDERSON_K", max_iter + 1)
            _, plain = solve_bcd(m, g, None, lam, 1e-10,
                                 max_iter=max_iter)
        assert len(accelerated) < len(plain)


def test_solve_bcd_extrapolated_solution_meets_kkt():
    # the conditions and thresholds of acceptance criterion 04, on the
    # problem over all locations, from a cold and from a warm start
    for seed in range(3):
        rng = np.random.default_rng(410 + seed)
        m, g, lam = _correlated_instance(rng)
        coarse, _ = solve_bcd(m, g, None, lam, 1e-2)
        for init in (None, coarse):
            est, trace = solve_bcd(m, g, init, lam, 1e-10)
            assert trace.final.gap < 1e-10
            corr = g.entries.T @ residual(m, g, est)
            o = g.n_orient
            for s in range(g.n_locations):
                c = corr[s * o:(s + 1) * o]
                blk = est.block_for(s)
                if blk is None:
                    assert np.linalg.norm(c) <= lam * (1 + 1e-8)
                else:
                    target = lam * blk / np.linalg.norm(blk)
                    assert np.linalg.norm(c - target) <= 1e-6


def _two_scalar_instance(rng):
    """Two correlated scalar locations and one time point.

    With both signs settled, a sweep is an affine map, so the second
    extrapolation lands within roundoff of the optimum: 11 sweeps against
    654 without extrapolation at seed 0.
    """
    a = rng.standard_normal(10)
    b = 0.99 * a + np.sqrt(1.0 - 0.99 ** 2) * rng.standard_normal(10)
    raw = np.column_stack([a / np.linalg.norm(a), b / np.linalg.norm(b)])
    g = BlockDesign(raw, 2, 1)
    m = Measurements(raw @ np.array([[1.0], [2.0]])
                     + 0.01 * rng.standard_normal((10, 1)))
    return m, g, 0.05 * lambda_max(m, g)


def test_solve_bcd_trace_has_one_row_per_sweep_plus_one():
    k = bsmx.mxne._ANDERSON_K
    instances = [_two_scalar_instance(np.random.default_rng(0))]
    instances += [_correlated_instance(np.random.default_rng(420 + seed))
                  for seed in range(5)]
    for m, g, lam in instances:
        trace = ConvergenceTrace()
        trace.add(1.0, 0, 1.0)
        _, trace = solve_bcd(m, g, None, lam, 1e-10, trace=trace)
        sweeps = len(trace) - 2
        assert sweeps > 2 * k
        # an extrapolated point is kept only if it lowers the primal
        primals = [row.primal for row in trace.rows[1:]]
        for prev, cur in zip(primals, primals[1:]):
            assert cur <= prev + 1e-12 * abs(prev)
        # the sweep cap counts the same sweeps: one fewer does not
        # converge, and a capped call also appends sweeps + 1 rows
        for cap in (1, k - 1, k, k + 1, 2 * k, sweeps - 1):
            capped = ConvergenceTrace()
            with pytest.raises(IterationLimitError):
                solve_bcd(m, g, None, lam, 1e-10, max_iter=cap,
                          trace=capped)
            assert len(capped) == cap + 1


def test_trace_seconds_never_decrease_across_calls():
    # seconds count from the trace's creation, not from each call's start
    m, g, lam = _correlated_instance(np.random.default_rng(421))
    trace = ConvergenceTrace()
    for _ in range(2):
        _, trace = solve_bcd(m, g, None, lam, 1e-10, trace=trace)
    seconds = [row.seconds for row in trace.rows]
    assert seconds[0] >= 0
    assert all(b >= a for a, b in zip(seconds, seconds[1:]))


def test_location_norms_match_per_block_norm():
    rng = np.random.default_rng(430)
    for o in (1, 3):
        n_loc, n_times = 50, 7
        # entries spread over many magnitudes, one block exactly zero
        flat = rng.standard_normal((n_loc * o, n_times)) * np.repeat(
            10.0 ** rng.uniform(-150, 150, n_loc), o)[:, None]
        flat[:o] = 0.0
        got = _location_norms(flat, o)
        for s in range(n_loc):
            want = np.linalg.norm(flat[s * o:(s + 1) * o])
            assert got[s] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_solve_active_set_empty_at_lambda_max():
    rng = np.random.default_rng(21)
    m, g, _ = make_instance(rng)
    lam = lambda_max(m, g)
    est, trace = solve_active_set(m, g, None, lam * 1.0001,
                                  SolverConfig())
    assert est.n_active == 0
    # converged on the first certificate, before any inner solve
    assert len(trace) == 1




def test_top_violators_selection_rules():
    norms = np.array([5.0, 3.0, 5.0, 0.5, 4.0])
    lam_vec = np.full(5, 1.0)
    valid = np.ones(5, dtype=bool)
    # ties break toward the lower index; batch caps the count
    picked = _top_violators(norms, lam_vec, set(), 3, valid)
    assert picked == [0, 2, 4]
    # members already active are skipped
    picked = _top_violators(norms, lam_vec, {0}, 3, valid)
    assert picked == [2, 4, 1]
    # only actual violators are eligible
    picked = _top_violators(norms, lam_vec, set(), 10, valid)
    assert picked == [0, 2, 4, 1]
    # invalid locations are never selected
    valid[2] = False
    picked = _top_violators(norms, lam_vec, set(), 10, valid)
    assert picked == [0, 4, 1]


def _record_inner_solves(monkeypatch):
    """Wrap ``solve_bcd`` where ``solve_active_set`` calls it; log each call.

    Each entry is ``(sorted candidates, gap_tol, returned estimate)``.
    """
    calls = []
    inner = bsmx.mxne.solve_bcd

    def recording(m, g, init, lam, gap_tol, **kwargs):
        est, trace = inner(m, g, init, lam, gap_tol, **kwargs)
        calls.append((sorted(kwargs["candidates"]), gap_tol, est))
        return est, trace

    monkeypatch.setattr(bsmx.mxne, "solve_bcd", recording)
    return calls


def _violators(m, g, est, lam, exclude):
    """Locations outside ``exclude`` with ``||G_s^T R||_Fro > lam``."""
    corr = g.entries.T @ residual(m, g, est)
    norms = np.linalg.norm(corr.reshape(g.n_locations, -1), axis=1)
    return [s for s in np.flatnonzero(norms > lam) if s not in exclude]


def test_solve_active_set_initial_batch_is_top_correlations(monkeypatch):
    rng = np.random.default_rng(23)
    m, g, _ = make_instance(rng, n_locations=30, noise=0.2)
    corr = g.entries.T @ m.entries
    norms = np.linalg.norm(corr.reshape(g.n_locations, -1), axis=1)
    lam = 0.2 * lambda_max(m, g)
    batch = 4
    expected = sorted(np.argsort(-norms, kind="stable")[:batch].tolist())
    config = SolverConfig(active_batch=batch)
    calls = _record_inner_solves(monkeypatch)
    solve_active_set(m, g, None, lam, config)
    assert calls[0][0] == expected


def test_solve_active_set_candidates_double_while_violators_remain(
        monkeypatch):
    batch = 3
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        m, g, _ = make_instance(rng, n_sensors=60, n_locations=200,
                                n_active=15, noise=0.3)
        lam = 0.2 * lambda_max(m, g)
        config = SolverConfig(active_batch=batch)
        calls = _record_inner_solves(monkeypatch)
        est, _ = solve_active_set(m, g, None, lam, config)
        assert est.n_active >= 40
        prev_cand = []
        prev_est = BlockSparseEstimate.empty(g.n_locations, g.n_orient,
                                             m.n_times)
        for cand, _, sol in calls:
            viol = _violators(m, g, prev_est, lam, set(prev_cand))
            added = len(cand) - len(prev_cand)
            # every expansion takes max(batch, |set|) violators, or all of
            # them when fewer remain: the set doubles while it can
            assert set(prev_cand) <= set(cand)
            assert added == min(max(batch, len(prev_cand)), len(viol))
            prev_cand, prev_est = cand, sol
        # log2 term: the doubling expansions. The remainder is the tail in
        # which each full check finds a few new violators, plus the final
        # re-solve at gap_tol (up to 6 on 20 such instances). A fixed batch
        # per expansion would need at least |A| / batch >= 13.
        assert len(calls) <= math.ceil(math.log2(est.n_active / batch)) + 6


def test_solve_active_set_matches_full_bcd(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(5):
        m, g, _ = make_instance(rng, n_locations=25, noise=0.2)
        lam = 0.35 * lambda_max(m, g)
        config = SolverConfig(active_batch=3)
        calls = _record_inner_solves(monkeypatch)
        est_as, trace_as = solve_active_set(m, g, None, lam, config)
        est_full, _ = solve_bcd(m, g, None, lam, config.gap_tol)
        p_as = primal_objective(m, g, est_as, lam)
        p_full = primal_objective(m, g, est_full, lam)
        assert abs(p_as - p_full) <= 1e-6
        assert trace_as.final.gap < config.gap_tol
        # inexact inner solves ran, yet only the full gap certified
        tols = [tol for _, tol, _ in calls]
        assert max(tols) > config.gap_tol
        assert duality_gap(m, g, est_as, lam).gap < config.gap_tol
        # the certificate follows an expansion that found no violator, whose
        # restricted solve runs at the target tolerance itself
        assert tols[-1] == config.gap_tol


def test_solve_active_set_pgd_inner_uses_same_tolerances(monkeypatch):
    rng = np.random.default_rng(27)
    m, g, _ = make_instance(rng, n_locations=30, noise=0.2)
    lam = 0.3 * lambda_max(m, g)
    config = SolverConfig(active_batch=2)
    bcd_calls = _record_inner_solves(monkeypatch)
    solve_active_set(m, g, None, lam, config)
    monkeypatch.undo()

    pgd_tols = []
    pgd = bsmx.oracle.solve_proximal_gradient

    def recording(m, g, lam, gap_tol, **kwargs):
        pgd_tols.append(gap_tol)
        return pgd(m, g, lam, gap_tol, **kwargs)

    monkeypatch.setattr(bsmx.oracle, "solve_proximal_gradient", recording)
    est, _ = solve_active_set(m, g, None, lam, config, inner="pgd")
    # same rule: the first, loose solve sees 0.3x the same full gap
    assert pgd_tols[0] == bcd_calls[0][1] > config.gap_tol
    assert pgd_tols[-1] == config.gap_tol
    assert duality_gap(m, g, est, lam).gap < config.gap_tol


def test_solve_active_set_warm_start_agrees():
    rng = np.random.default_rng(24)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.3 * lambda_max(m, g)
    config = SolverConfig()
    cold, _ = solve_active_set(m, g, None, lam, config)
    warm, _ = solve_active_set(m, g, cold, lam, config)
    p_cold = primal_objective(m, g, cold, lam)
    p_warm = primal_objective(m, g, warm, lam)
    assert abs(p_cold - p_warm) <= 2e-6


def test_solve_active_set_deterministic():
    rng = np.random.default_rng(25)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.3 * lambda_max(m, g)
    config = SolverConfig()
    est1, _ = solve_active_set(m, g, None, lam, config)
    est2, _ = solve_active_set(m, g, None, lam, config)
    assert est1.active_set == est2.active_set
    for b1, b2 in zip(est1.blocks, est2.blocks):
        assert np.array_equal(b1, b2)


def test_solve_active_set_excludes_zero_blocks():
    rng = np.random.default_rng(26)
    n, s, o, t = 12, 8, 2, 5
    raw = rng.standard_normal((n, s * o))
    raw[:, 3 * o:4 * o] = 0.0
    g = BlockDesign(raw, s, o)
    m = Measurements(rng.standard_normal((n, t)))
    lam = 0.2 * lambda_max(m, g)
    # a warm-start block at the zero location is dropped, not passed on
    warm = BlockSparseEstimate.from_blocks(
        [(3, np.ones((o, t))), (5, np.ones((o, t)))], s, o, t,
    )
    for init in (None, warm):
        with pytest.warns(RuntimeWarning, match="all-zero design blocks"):
            est, _ = solve_active_set(m, g, init, lam, SolverConfig())
        assert 3 not in est.active_set


def test_support_optimality_certificates():
    rng = np.random.default_rng(27)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    est, _ = solve_active_set(m, g, None, lam,
                              SolverConfig(gap_tol=1e-10))
    r = residual(m, g, est)
    corr = g.entries.T @ r
    o = g.n_orient
    for s in range(g.n_locations):
        c = corr[s * o:(s + 1) * o]
        blk = est.block_for(s)
        if blk is None:
            assert np.linalg.norm(c) <= lam * (1 + 1e-8)
        else:
            target = lam * blk / np.linalg.norm(blk)
            assert np.linalg.norm(c - target) <= 1e-6


def test_lambda_vector_validation():
    rng = np.random.default_rng(28)
    m, g, _ = make_instance(rng)
    est = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    with pytest.raises(ValueError, match="length"):
        primal_objective(m, g, est, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        primal_objective(m, g, est, -1.0)


def test_trace_to_csv(tmp_path):
    trace = ConvergenceTrace()
    trace.add(0.5, 2, 10.0)
    trace.add(1e-7, 3, 9.5)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,gap,active_size,primal,seconds"
    assert len(lines) == 3
    parts = lines[2].split(",")
    assert int(parts[0]) == 1
    assert float(parts[1]) == 1e-7
    assert int(parts[2]) == 3
    assert float(parts[3]) == 9.5
