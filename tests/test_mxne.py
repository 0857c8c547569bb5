import math

import numpy as np
import pytest

import bsmx.irmxne
import bsmx.mxne
import bsmx.oracle
from bsmx.model import (
    BlockSparseEstimate,
    BlockDesign,
    Measurements,
    SolverConfig,
    _scale_blocks,
    densify,
    residual,
)
from bsmx.constraints import (
    apply_depth_weights,
    apply_loose_orientation,
    undo_depth_weights,
)
from bsmx.mxne import (
    ConvergenceTrace,
    IterationLimitError,
    dual_objective,
    duality_gap,
    lambda_max,
    primal_objective,
    solve_active_set,
    solve_bcd,
    _location_norms,
    _scaled_dual,
    _top_violators,
)
from bsmx.oracle import solve_proximal_gradient
from bsmx.prox import block_lipschitz_all
from bsmx.sim import ScenarioSpec, generate_scenario, random_instance

from helpers import (
    closed_form_prox,
    dense_primal,
    make_instance,
    orthonormal_design,
)


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
    lam_vec = np.full(g.n_locations, 1.0)
    y = _scaled_dual(np.zeros((g.n_sensors, 4)), g.entries.T, lam_vec,
                     g.n_orient)[0]
    assert np.array_equal(y, np.zeros((g.n_sensors, 4)))


def test_dual_map_scales_by_violation_ratio():
    rng = np.random.default_rng(4)
    m, g, _ = make_instance(rng)
    y_tilde = m.entries.copy()
    corr = g.entries.T @ y_tilde
    o = g.n_orient
    norms = np.linalg.norm(corr.reshape(g.n_locations, -1), axis=1)
    lam = norms.max() / 2.0
    lam_vec = np.full(g.n_locations, lam)
    y = _scaled_dual(y_tilde, g.entries.T, lam_vec, o)[0]
    assert np.allclose(y, y_tilde / 2.0, atol=1e-14)


def test_dual_map_feasibility_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, g, _ = make_instance(rng)
        y_tilde = rng.standard_normal((g.n_sensors, m.n_times))
        lam = float(rng.uniform(0.05, 1.0))
        o = g.n_orient
        y = _scaled_dual(y_tilde, g.entries.T, np.full(g.n_locations, lam),
                         o)[0]
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
    x_star = closed_form_prox(corr, lam)
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
    x = densify(est)
    for s in range(6):
        expected = closed_form_prox(corr[s * 2:(s + 1) * 2], lam)
        got = x[s * 2:(s + 1) * 2]
        if not got.any():
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
            x = densify(est)
            o = g.n_orient
            for s in range(g.n_locations):
                c = corr[s * o:(s + 1) * o]
                blk = x[s * o:(s + 1) * o]
                if not blk.any():
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
    blocked = np.zeros(5, dtype=bool)
    # ties break toward the lower index; batch caps the count
    assert _top_violators(norms, lam_vec, blocked, 3).tolist() == [0, 2, 4]
    # members already in the set are skipped
    blocked[0] = True
    assert _top_violators(norms, lam_vec, blocked, 3).tolist() == [2, 4, 1]
    # only actual violators are eligible
    blocked[0] = False
    assert _top_violators(norms, lam_vec, blocked, 10).tolist() == [0, 2, 4, 1]
    # invalid locations are never selected
    blocked[2] = True
    assert _top_violators(norms, lam_vec, blocked, 10).tolist() == [0, 4, 1]
    # blocked 1 ties with 3, blocked 2 with 0 and 4: the rest keep index order
    norms = np.array([4.0, 5.0, 4.0, 5.0, 4.0, 2.0])
    blocked = np.array([False, True, True, False, False, False])
    assert _top_violators(norms, np.ones(6), blocked, 3).tolist() == [3, 0, 4]


def test_top_violators_matches_the_selection_loop():
    # the loop it replaced: walk the stable descending order, stop at the
    # first non-positive score, skip the blocked, stop at ``batch`` picks
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        norms = rng.integers(0, 6, n).astype(float)
        lam_vec = rng.choice([1.0, 2.0, 2.5], n)
        blocked = rng.random(n) < 0.3
        batch = int(rng.integers(1, n + 2))
        excess = norms - lam_vec
        expected = []
        for s in np.argsort(-excess, kind="stable"):
            if excess[s] <= 0 or len(expected) == batch:
                break
            if not blocked[s]:
                expected.append(int(s))
        got = _top_violators(norms, lam_vec, blocked, batch)
        assert got.tolist() == expected


def _screened_instance(c):
    """Data, design and estimate, with M and G scaled by ``c``. Location 9
    repeats location 4 (an exact tie), location 12 is location 7 times
    ``1 + 2^-30`` (apart in float64, within float32's error) and location
    20 lies far below float32's normal range."""
    rng = np.random.default_rng(43)
    n, n_loc, o, t = 20, 40, 3, 10
    gm = rng.standard_normal((n, n_loc * o))
    gm[:, 27:30] = gm[:, 12:15]
    gm[:, 36:39] = gm[:, 21:24] * (1 + 2.0 ** -30)
    gm[:, 60:63] *= 1e-40
    est = BlockSparseEstimate.from_blocks(
        [(2, rng.standard_normal((o, t)))], n_loc, o, t)
    # the residual leans on locations 4 and 9, 7 and 12, 1 and 13
    r = (gm[:, [12, 22, 5, 40]] @ rng.standard_normal((4, t))
         + 0.3 * rng.standard_normal((n, t)))
    data = r + gm @ densify(est)
    return (Measurements(c * data), BlockDesign(c * gm, n_loc, o), est)


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_float32_screen_matches_float64(monkeypatch, c):
    m, g, est = _screened_instance(c)
    r, gt, o = residual(m, g, est), g.entries.T, g.n_orient
    # every float64 score lies in its float32 interval
    for chunk in (8, 1):
        monkeypatch.setattr(bsmx.mxne, "_SCORE_CHUNK", chunk)
        bound = bsmx.mxne._screen_norms(g, block_lipschitz_all(g))
        assert bound is not None
        exact = bsmx.mxne._scores(gt, r, o)
        screen = bsmx.mxne._Screen(gt, r, o, bound)
        assert np.all(np.abs(screen.approx - exact) <= screen.err)
    assert exact[9] == exact[4] and exact[12] > exact[7]

    # with one location per chunk, the float64 path forms each location's
    # product as the screen rescores it, so the screen's dual scale, gap
    # and picks must be the float64 ones bit for bit
    order = np.argsort(-exact, kind="stable")
    # location 20 sets the dual scale, with location 3 just below it
    lam_20 = np.full(g.n_locations, 0.25 * exact.max())
    lam_20[20] = exact[20] / 8
    lam_20[3] = exact[3] / (8 * (1 - 1e-6))
    lams = [
        np.full(g.n_locations, exact[order[0]]),  # the top one at lam
        np.full(g.n_locations, exact[order[6]]),  # six violators
        lam_20,
    ]
    for lam_vec in lams:
        args = (m, r, est.coef, lam_vec[list(est.active_set)], gt, lam_vec, o)
        report, plain = bsmx.mxne._gap(*args)
        assert bsmx.mxne._gap(*args, bound)[0] == report
        assert np.array_equal(
            bsmx.mxne._scaled_dual(r, gt, lam_vec, o, bound)[0],
            bsmx.mxne._scaled_dual(r, gt, lam_vec, o)[0])
        left_out = 0
        for batch in range(1, g.n_locations + 2):
            for blocked in (np.zeros(g.n_locations, dtype=bool),
                            np.arange(g.n_locations) % 3 == 1):
                _, screened = bsmx.mxne._gap(*args, bound)
                picks = _top_violators(screened, lam_vec, blocked, batch)
                assert picks.tolist() == _top_violators(
                    plain, lam_vec, blocked, batch).tolist()
                left_out += int((screened.err > 0).sum())
        # the screen kept some locations to their float32 intervals
        assert left_out > 0

    # the driver's every row and its estimate are the float64 ones; from
    # c = 1e4 on, coordinate descent stalls on the near tie far above the
    # roundoff floor, screened or not, so both runs stop at the sweep cap
    def driver():
        trace = ConvergenceTrace()
        try:
            est_out, _ = solve_active_set(m, g, None, 0.3 * lambda_max(m, g),
                                          SolverConfig(max_bcd_iter=200),
                                          trace=trace)
        except IterationLimitError as exc:
            est_out = exc.estimate
        return [(row.gap, row.primal) for row in trace.rows], est_out

    rows_s, est_s = driver()
    monkeypatch.setattr(bsmx.mxne, "_screen_norms", lambda g, lips: None)
    rows_p, est_p = driver()
    assert rows_s == rows_p
    assert est_s.active_set == est_p.active_set
    assert np.array_equal(est_s.coef, est_p.coef)


def _block_frobenius(g):
    """``||G_s||_Fro`` of every location, from the raw entries."""
    blocks = g.entries.reshape(g.n_sensors, g.n_locations, g.n_orient)
    return np.sqrt((blocks * blocks).sum(axis=(0, 2)))


def test_screen_bound_covers_the_block_frobenius_norms(monkeypatch):
    # sqrt(O * L_s) >= ||G_s||_Fro, with equality for one orientation
    monkeypatch.setattr(bsmx.mxne, "_SCORE_CHUNK", 1)
    rng = np.random.default_rng(47)
    _, g, _ = make_instance(rng, n_locations=30)
    _, g1, _ = make_instance(rng, n_locations=30, n_orient=1)
    designs = {
        "random": g,
        "loose": apply_loose_orientation(g, 0.3),
        "depth": apply_depth_weights(apply_loose_orientation(g, 0.6), 0.8)[0],
        "one orientation": g1,
    }
    for name, design in designs.items():
        bound = bsmx.mxne._screen_norms(design, block_lipschitz_all(design))
        frob = _block_frobenius(design)
        if design.n_orient == 1:
            np.testing.assert_allclose(bound, frob, rtol=4e-16, atol=0,
                                       err_msg=name)
        else:
            assert np.all(bound >= frob), name
            assert np.all(bound <= np.sqrt(design.n_orient) * frob), name


def test_screened_solve_sets_no_design_attribute(monkeypatch):
    # the full checks screen in float32, and the design gains only the
    # block constants every solve reads
    monkeypatch.setattr(bsmx.mxne, "_SCORE_CHUNK", 8)
    screens = []
    init = bsmx.mxne._Screen.__init__

    def counted(self, *args):
        screens.append(1)
        init(self, *args)

    monkeypatch.setattr(bsmx.mxne._Screen, "__init__", counted)
    rng = np.random.default_rng(53)
    m, g, _ = make_instance(rng, n_locations=40)
    before = set(vars(g))
    solve_active_set(m, g, None, 0.3 * lambda_max(m, g), SolverConfig())
    assert screens
    assert set(vars(g)) - before == {"_lipschitz"}


@pytest.mark.parametrize("n_times", [10, 30])
def test_empty_warm_start_is_no_warm_start(n_times):
    # an empty, non-None warm start marks no location; n_times = 30 runs
    # the compressed solve of a long epoch over 20 sensors
    rng = np.random.default_rng(59)
    m, g, _ = make_instance(rng, n_times=n_times)
    lam = 0.3 * lambda_max(m, g)
    runs = []
    for warm in (None, BlockSparseEstimate.empty(g.n_locations, g.n_orient,
                                                 n_times)):
        est, trace = solve_active_set(m, g, warm, lam, SolverConfig())
        runs.append((est, [(r.gap, r.active_size, r.primal)
                           for r in trace.rows]))
    (est_n, rows_n), (est_e, rows_e) = runs
    assert est_n.n_active and rows_e == rows_n
    assert est_e.active_set == est_n.active_set
    assert est_e.coef.tobytes() == est_n.coef.tobytes()


def test_solve_bcd_empty_init_is_no_init():
    rng = np.random.default_rng(61)
    m, g, _ = make_instance(rng)
    lam = 0.3 * lambda_max(m, g)
    cand = [1, 4, 9, 16, 25]
    empty = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    ref, trace_ref = solve_bcd(m, g, None, lam, 1e-8, candidates=cand)
    est, trace = solve_bcd(m, g, empty, lam, 1e-8, candidates=cand)
    assert [(r.gap, r.primal) for r in trace.rows] == [
        (r.gap, r.primal) for r in trace_ref.rows]
    assert est.active_set == ref.active_set
    assert est.coef.tobytes() == ref.coef.tobytes()


def test_empty_estimate_gathers_as_zero():
    # every gather over est.active_set sees no location, not all of them
    rng = np.random.default_rng(67)
    m, g, _ = make_instance(rng)
    empty = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    lam = np.linspace(0.2, 0.4, g.n_locations) * lambda_max(m, g)
    half_norm = 0.5 * float((m.entries ** 2).sum())
    assert primal_objective(m, g, empty, lam) == half_norm
    report = duality_gap(m, g, empty, lam)
    assert report.primal == half_norm
    y = _scaled_dual(m.entries, g.entries.T, lam, g.n_orient)[0]
    assert report.dual == dual_objective(m, y)
    assert np.array_equal(bsmx.irmxne.compute_weights(empty),
                          np.zeros(g.n_locations))
    _, weights = apply_depth_weights(g, 0.8)
    for mapped in (undo_depth_weights(empty, weights),
                   _scale_blocks(empty, np.empty(0))):
        assert mapped.active_set == ()
        assert mapped.coef.shape == (0, m.n_times)
        assert (mapped.n_locations, mapped.n_orient) == (g.n_locations,
                                                         g.n_orient)


@pytest.mark.parametrize("inner", ["bcd", "pgd"])
def test_candidates_any_iterable_duplicates_and_order_ignored(inner):
    rng = np.random.default_rng(31)
    m, g, _ = make_instance(rng, n_locations=12)
    lam = 0.3 * lambda_max(m, g)
    cand = [7, 2, 9, 2, 0, 7]

    def run(candidates):
        if inner == "bcd":
            return solve_bcd(m, g, None, lam, 1e-8, candidates=candidates)[0]
        return solve_proximal_gradient(m, g, lam, 1e-8, candidates=candidates)

    ref = run(cand)
    assert ref.n_active and set(ref.active_set) <= set(cand)
    for form in (tuple(cand), set(cand), (s for s in cand), np.array(cand)):
        est = run(form)
        assert est.active_set == ref.active_set
        assert est.coef.tobytes() == ref.coef.tobytes()
    for bad in (-1, g.n_locations):
        with pytest.raises(ValueError, match="candidate index out of range"):
            run([*cand, bad])


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
    monkeypatch.setattr(bsmx.mxne, "_FIRST_BATCH", batch)
    calls = _record_inner_solves(monkeypatch)
    solve_active_set(m, g, None, lam, SolverConfig())
    assert calls[0][0] == expected


def test_solve_active_set_candidates_double_while_violators_remain(
        monkeypatch):
    batch = 3
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        m, g, _ = make_instance(rng, n_sensors=60, n_locations=200,
                                n_active=15, noise=0.3)
        lam = 0.2 * lambda_max(m, g)
        monkeypatch.setattr(bsmx.mxne, "_FIRST_BATCH", batch)
        calls = _record_inner_solves(monkeypatch)
        est, _ = solve_active_set(m, g, None, lam, SolverConfig())
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
        config = SolverConfig()
        monkeypatch.setattr(bsmx.mxne, "_FIRST_BATCH", 3)
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
    config = SolverConfig()
    monkeypatch.setattr(bsmx.mxne, "_FIRST_BATCH", 2)
    bcd_calls = _record_inner_solves(monkeypatch)
    solve_active_set(m, g, None, lam, config)
    monkeypatch.setattr(bsmx.mxne, "solve_bcd", solve_bcd)

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


def test_solve_active_set_is_scale_equivariant():
    # scaling M and lam by c scales the optimum by c: the support is the
    # same and X_c / c matches X. Above c = 1e4 the gap can stick near one
    # ulp of the primal, far above gap_tol, so some of these cases certify
    # only through the stop test's roundoff floor. Below, the range stops
    # where the absolute gap_tol bites, as it does not scale with the
    # data: at c = 1e-2 the error reaches 8e-4, and from c = 1e-3 the
    # support changes.
    instances = [random_instance(np.random.default_rng(seed), 30, 120, 3, 12,
                                 n_active=4, noise=0.1)[:2]
                 for seed in range(6)]
    scenario = generate_scenario(ScenarioSpec(rng_seed=0))
    instances.append((scenario.m_avg, scenario.design))
    config = SolverConfig()
    for m, g in instances:
        lam = 0.3 * lambda_max(m, g)
        est, _ = solve_active_set(m, g, None, lam, config)
        x = densify(est)
        for c in (1e-1, 1e1, 1e2, 1e4, 1e5, 1e6, 1e7, 1e8):
            est_c, _ = solve_active_set(Measurements(c * m.entries), g, None,
                                        c * lam, config)
            assert est_c.active_set == est.active_set
            err = np.abs(densify(est_c) / c - x).max()
            assert err <= 1e-4 * np.abs(x).max(), (c, err)


def test_large_scale_gap_stall_certifies():
    # the CI packaging instance at 1e5 times its data: the gap sticks at
    # about one ulp of the 5.2e11 primal, 1.2e-4, far above gap_tol, so an
    # absolute stop test alone spins to the sweep cap; the roundoff floor
    # certifies it
    rng = np.random.default_rng(0)
    gain = rng.standard_normal((12, 30))
    m = Measurements(gain[:, [3, 17]] @ rng.standard_normal((2, 6)))
    g = BlockDesign(gain, 30, 1)
    lam = 0.3 * lambda_max(m, g)
    config = SolverConfig(max_bcd_iter=3000)
    est, _ = solve_active_set(m, g, None, lam, config)
    c = 1e5
    m_c = Measurements(c * m.entries)
    est_c, trace = solve_active_set(m_c, g, None, c * lam, config)
    assert est_c.active_set == est.active_set
    assert np.abs(densify(est_c) / c - densify(est)).max() <= 1e-12
    assert trace.final.gap < 4 * np.finfo(float).eps * trace.final.primal
    # irMxNE is not scale-equivariant, but its convex solves stall alike
    est_ir, _, _ = bsmx.irmxne.solve_irmxne(m_c, g, c * lam, config)
    assert est_ir.n_active >= 1


def test_support_optimality_certificates():
    rng = np.random.default_rng(27)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    est, _ = solve_active_set(m, g, None, lam,
                              SolverConfig(gap_tol=1e-10))
    r = residual(m, g, est)
    corr = g.entries.T @ r
    x = densify(est)
    o = g.n_orient
    for s in range(g.n_locations):
        c = corr[s * o:(s + 1) * o]
        blk = x[s * o:(s + 1) * o]
        if not blk.any():
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


def _entry_points():
    """The five public entry points, each called with the inputs of one
    case: ``(m, g, est, lam, gap_tol, candidates)``."""
    return {
        "solve_bcd": lambda m, g, est, lam, tol, cand: solve_bcd(
            m, g, est, lam, tol, candidates=cand),
        "solve_active_set": lambda m, g, est, lam, tol, cand:
            solve_active_set(m, g, est, lam, SolverConfig(gap_tol=tol)),
        "solve_proximal_gradient": lambda m, g, est, lam, tol, cand:
            solve_proximal_gradient(m, g, lam, tol, candidates=cand,
                                    init=est),
        "duality_gap": lambda m, g, est, lam, tol, cand:
            duality_gap(m, g, est, lam),
        "primal_objective": lambda m, g, est, lam, tol, cand:
            primal_objective(m, g, est, lam),
    }


# entry points that take an estimate, a gap tolerance or candidates
_TAKES = {
    "est": ("solve_bcd", "solve_active_set", "solve_proximal_gradient",
            "duality_gap", "primal_objective"),
    "tol": ("solve_bcd", "solve_active_set", "solve_proximal_gradient"),
    "cand": ("solve_bcd", "solve_proximal_gradient"),
}
_BAD_INPUTS = {
    "lam_zero": None, "lam_nan": None, "lam_inf": None, "lam_length": None,
    "lam_negative_entry": None, "data_rows": None,
    "est_locations": "est", "est_times": "est", "gap_tol_zero": "tol",
    "gap_tol_inf": "tol", "gap_tol_nan": "tol",
    "candidate_negative": "cand", "candidate_past_end": "cand",
}


def _case_inputs(case):
    rng = np.random.default_rng(40)
    m, g, _ = make_instance(rng, n_sensors=8, n_locations=6, n_orient=2,
                            n_times=3)
    s, o, t = g.n_locations, g.n_orient, m.n_times
    lam_vec = np.full(s, 0.5 * lambda_max(m, g))
    negative = lam_vec.copy()
    negative[2] = -1.0
    inputs = dict(m=m, g=g, est=BlockSparseEstimate.empty(s, o, t),
                  lam=lam_vec, tol=1e-8, cand=None)
    inputs.update({
        "valid": {},
        "lam_zero": {"lam": 0.0},
        "lam_nan": {"lam": math.nan},
        "lam_inf": {"lam": math.inf},
        "lam_length": {"lam": lam_vec[:-1]},
        "lam_negative_entry": {"lam": negative},
        "data_rows": {"m": Measurements(m.entries[:-1])},
        "est_locations": {"est": BlockSparseEstimate.empty(s + 1, o, t)},
        "est_times": {"est": BlockSparseEstimate.empty(s, o, t + 1)},
        "gap_tol_zero": {"tol": 0.0},
        "gap_tol_inf": {"tol": np.inf},
        "gap_tol_nan": {"tol": np.nan},
        "candidate_negative": {"cand": [-1, 0]},
        "candidate_past_end": {"cand": [s]},
    }[case])
    return [inputs[k] for k in ("m", "g", "est", "lam", "tol", "cand")]


@pytest.mark.parametrize("entry, case", [
    (entry, case) for case, needs in _BAD_INPUTS.items()
    for entry in _entry_points() if needs is None or entry in _TAKES[needs]
])
def test_entry_points_reject_bad_inputs(entry, case):
    call = _entry_points()[entry]
    with pytest.raises(ValueError):
        call(*_case_inputs(case))


@pytest.mark.parametrize("entry", list(_entry_points()))
def test_entry_points_accept_the_valid_case(entry):
    _entry_points()[entry](*_case_inputs("valid"))


def test_every_certificate_is_the_one_gap(monkeypatch):
    # every trace row of the drivers, and every check of the reference
    # solver, is a report of bsmx.mxne._gap
    reports = []
    one_gap = bsmx.mxne._gap

    def recording(*args):
        report, scores = one_gap(*args)
        reports.append((report.gap, report.primal))
        return report, scores

    monkeypatch.setattr(bsmx.mxne, "_gap", recording)
    monkeypatch.setattr(bsmx.oracle, "_gap", recording)
    rng = np.random.default_rng(41)
    m, g, _ = make_instance(rng, noise=0.2)
    top = lambda_max(m, g)
    config = SolverConfig(gap_tol=1e-9)
    # lam_max: iteration 1 is empty, and reweight 2 has no candidates
    for lam in (0.3 * top, top):
        for solve in (
            lambda: solve_active_set(m, g, None, lam, config)[1],
            lambda: bsmx.irmxne.solve_irmxne(m, g, lam, config)[2],
        ):
            reports.clear()
            trace = solve()
            assert [(row.gap, row.primal) for row in trace.rows] == reports

    reports.clear()
    iterations = []
    solve_proximal_gradient(m, g, 0.3 * top, 1e-9,
                            callback=lambda it, x, f: iterations.append(it))
    assert iterations
    assert len(reports) == 1 + len(iterations) // bsmx.oracle._GAP_CHECK_EVERY
