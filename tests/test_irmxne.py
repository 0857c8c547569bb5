import warnings

import numpy as np
import pytest

from bsmx import irmxne, mxne
from bsmx.irmxne import (
    _max_abs_change,
    _solve_surrogate,
    compute_weights,
    nonconvex_objective,
    solve_irmxne,
)
from bsmx.model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    SolverConfig,
    densify,
)
from bsmx.mxne import (
    ConvergenceTrace,
    IterationLimitError,
    duality_gap,
    lambda_max,
    primal_objective,
    solve_active_set,
    solve_bcd,
)
from bsmx.sim import ScenarioSpec, generate_scenario

from helpers import ReweightProbe, dense_sqrt_objective, make_instance


def test_max_abs_change_matches_dense_difference():
    rng = np.random.default_rng(40)
    n_loc, n_orient, n_times = 12, 3, 5

    def est(locs):
        return BlockSparseEstimate.from_blocks(
            [(s, rng.standard_normal((n_orient, n_times))) for s in locs],
            n_loc, n_orient, n_times,
        )

    pairs = {
        "disjoint": (est([1, 4]), est([0, 7, 11])),
        "overlapping": (est([2, 3, 9]), est([3, 5, 9])),
        "one empty": (est([6]), est([])),
        "both empty": (est([]), est([])),
    }
    for name, (a, b) in pairs.items():
        for x, y in ((a, b), (b, a)):
            dense = float(np.abs(densify(x) - densify(y)).max())
            assert _max_abs_change(x, y) == dense, name


def test_nonconvex_objective_zero_estimate():
    rng = np.random.default_rng(0)
    m, g, _ = make_instance(rng)
    est = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    expected = 0.5 * (m.entries ** 2).sum()
    assert nonconvex_objective(m, g, est, 1.0) == pytest.approx(expected, rel=1e-14)


def test_nonconvex_objective_norm_four_block():
    rng = np.random.default_rng(1)
    _, g, _ = make_instance(rng, n_times=5)
    block = rng.standard_normal((g.n_orient, 5))
    block *= 4.0 / np.linalg.norm(block)
    est = BlockSparseEstimate.from_blocks([(1, block)], g.n_locations,
                                          g.n_orient, 5)
    # data equal to the fit: zero residual, sqrt(4) = 2 penalty units
    m = Measurements(g.block(1) @ block)
    lam = 0.9
    assert nonconvex_objective(m, g, est, lam) == pytest.approx(2 * lam, rel=1e-12)


def test_nonconvex_objective_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m, g, truth = make_instance(rng, noise=0.3)
        lam = float(rng.uniform(0.1, 2.0))
        got = nonconvex_objective(m, g, truth, lam)
        assert got == pytest.approx(dense_sqrt_objective(m, g, truth, lam),
                                    rel=1e-12)


def test_compute_weights_values():
    blk_unit = np.zeros((1, 4))
    blk_unit[0, 0] = 1.0  # Frobenius norm exactly 1
    blk_quarter = np.zeros((1, 4))
    blk_quarter[0, 1] = 0.25  # Frobenius norm exactly 0.25
    est = BlockSparseEstimate.from_blocks(
        [(1, blk_unit), (3, blk_quarter)], 5, 1, 4
    )
    w = compute_weights(est)
    assert w[0] == 0.0 and w[2] == 0.0 and w[4] == 0.0
    assert w[1] == pytest.approx(2.0, rel=1e-14)
    assert w[3] == pytest.approx(1.0, rel=1e-14)


def test_surrogate_drops_block_with_underflowing_weight():
    # the 1e-200 block is nonzero, but its norm underflows to a zero weight
    rng = np.random.default_rng(12)
    g = BlockDesign(rng.standard_normal((10, 6)), 6, 1)
    prev = BlockSparseEstimate.from_blocks(
        [(1, np.full((1, 4), 1e-200)), (3, np.ones((1, 4)))], 6, 1, 4
    )
    m = Measurements(g.entries @ densify(prev)
                     + 0.01 * rng.standard_normal((10, 4)))
    weights = compute_weights(prev)
    assert weights[1] == 0.0 and weights[3] > 0.0
    lam = 0.1 * lambda_max(m, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _solve_surrogate(m, g, weights, prev, lam, SolverConfig(),
                               ConvergenceTrace())
    assert est.active_set == (3,)


def _surrogate_gaps(m, g, est, w, lam):
    """Gaps of ``est`` on the weighted surrogate of weights ``w``, from a
    fresh residual over the locations with ``w > 0``, in two forms."""
    cand = np.flatnonzero(w > 0)
    pos = {int(s): j for j, s in enumerate(cand)}
    o = g.n_orient
    g_c = g.entries[:, g.column_indices(cand)]

    # penalty lam / w on the unscaled design
    est_c = BlockSparseEstimate.from_blocks(
        [(pos[s], b) for s, b in zip(est.active_set, est.blocks)],
        len(cand), o, m.n_times,
    )
    direct = duality_gap(m, BlockDesign(g_c, len(cand), o), est_c,
                         lam / w[cand])
    # scalar lam on the design scaled by w, blocks divided by w
    scaled_design = BlockDesign(g_c * np.repeat(w[cand], o)[None, :],
                                len(cand), o)
    est_s = BlockSparseEstimate.from_blocks(
        [(pos[s], b / w[s]) for s, b in zip(est.active_set, est.blocks)],
        len(cand), o, m.n_times,
    )
    return direct, duality_gap(m, scaled_design, est_s, lam)


def test_final_estimate_solves_weighted_surrogate_in_both_forms(monkeypatch):
    # and so does every reweight k >= 2; with n_times=30 > n_sensors every
    # reweight runs on compressed data
    config = SolverConfig()
    for n_times in (10, 30):
        rng = np.random.default_rng(13)
        m, g, _ = make_instance(rng, n_times=n_times, noise=0.3)
        lam = 0.3 * lambda_max(m, g)
        with monkeypatch.context() as patch:
            probe = ReweightProbe(patch)
            est, state, _ = solve_irmxne(m, g, lam, config)
        w = state.weights[-1]
        assert state.iteration >= 2 and 0 < (w > 0).sum() < g.n_locations
        assert len(probe.reweights) == state.iteration - 1

        # each reweight on the data it ran on, the result in full time
        solves = [(m_k, est_k, w_k) for (m_k, _, _, est_k), w_k
                  in zip(probe.reweights, state.weights[1:])]
        for m_k, est_k, w_k in solves + [(m, est, w)]:
            direct, scaled = _surrogate_gaps(m_k, g, est_k, w_k, lam)
            for report in (direct, scaled):
                assert report.gap <= config.gap_tol + 1e-12 * report.primal
            assert abs(direct.primal - scaled.primal) <= 1e-12 * direct.primal
            assert abs(direct.gap - scaled.gap) <= 1e-12 * direct.primal


def test_reweights_are_single_bcd_solves_on_their_candidates(monkeypatch):
    rng = np.random.default_rng(15)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    probe = ReweightProbe(monkeypatch)
    _, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert state.iteration >= 3
    # only iteration 1 needs the active-set driver
    assert probe.driver_calls == 1
    assert len(probe.reweights) == state.iteration - 1
    for (_, lam_vec, cand, _), w in zip(probe.reweights, state.weights[1:]):
        assert np.array_equal(cand, np.flatnonzero(w > 0))
        assert np.array_equal(lam_vec[cand], lam / w[cand])


def test_first_reweight_solves_on_the_design_itself(monkeypatch):
    rng = np.random.default_rng(14)
    m, g, _ = make_instance(rng, noise=0.2)
    designs = []
    inner = irmxne.solve_active_set

    def recording(m, g, warm, lam, config, **kwargs):
        designs.append(g)
        return inner(m, g, warm, lam, config, **kwargs)

    monkeypatch.setattr(irmxne, "solve_active_set", recording)
    solve_irmxne(m, g, 0.4 * lambda_max(m, g), SolverConfig())
    assert designs[0] is g


def test_irmxne_empty_at_lambda_max():
    rng = np.random.default_rng(3)
    m, g, _ = make_instance(rng)
    lam = 1.05 * lambda_max(m, g)
    est, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert est.n_active == 0
    assert state.iteration == 2  # the zero-difference check fires at k = 2
    assert state.converged


def test_irmxne_single_iteration_equals_mxne():
    rng = np.random.default_rng(4)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    config = SolverConfig(max_reweight=1)
    est_ir, state, _ = solve_irmxne(m, g, lam, config)
    est_mx, _ = solve_active_set(m, g, None, lam, config)
    assert state.iteration == 1
    assert est_ir.active_set == est_mx.active_set
    for b1, b2 in zip(est_ir.blocks, est_mx.blocks):
        assert np.array_equal(b1, b2)


def test_irmxne_first_weights_are_ones():
    rng = np.random.default_rng(5)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    _, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert np.array_equal(state.weights[0], np.ones(g.n_locations))


def test_irmxne_weights_track_previous_support():
    rng = np.random.default_rng(6)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.3 * lambda_max(m, g)
    est, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    # weight vectors beyond the first are zero exactly off the previous support
    for w in state.weights[1:]:
        assert np.all((w > 0) | (w == 0))
    assert set(est.active_set) <= set(np.flatnonzero(state.weights[-1] > 0))


def test_irmxne_descent_and_support_shrinkage():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m, g, _ = make_instance(rng, noise=0.3)
        lam = 0.35 * lambda_max(m, g)
        est, state, _ = solve_irmxne(m, g, lam, SolverConfig())
        obj = state.objective_trace
        for prev, cur in zip(obj, obj[1:]):
            assert cur <= prev + 1e-10 * abs(prev)
        # support never grows past the first (convex) iteration
        first, _ = solve_active_set(m, g, None, lam, SolverConfig())
        assert set(est.active_set) <= set(first.active_set)


def test_irmxne_sparser_than_mxne_on_correlated_scenario():
    spec = ScenarioSpec(n_sensors=30, n_locations=80, n_times=25,
                        n_trials=30, column_smoothing=2, rng_seed=3)
    scenario = generate_scenario(spec)
    m, g = scenario.m_avg, scenario.design
    lam = 0.4 * lambda_max(m, g)
    est_mx, _ = solve_active_set(m, g, None, lam, SolverConfig())
    est_ir, _, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert set(est_ir.active_set) <= set(est_mx.active_set)
    assert est_ir.n_active <= est_mx.n_active


def test_weighted_reformulation_equivalence():
    # scaling the design blocks by w and rescaling the solution back must
    # match solving with per-block penalties lam/w directly
    rng = np.random.default_rng(8)
    for _ in range(5):
        m, g, _ = make_instance(rng, n_locations=20, noise=0.2)
        lam = 0.4 * lambda_max(m, g)
        w = rng.uniform(0.5, 2.0, size=g.n_locations)

        scale = np.repeat(w, g.n_orient)
        g_scaled = BlockDesign(g.entries * scale[None, :], g.n_locations,
                               g.n_orient)
        config = SolverConfig(gap_tol=1e-10)
        sol_scaled, _ = solve_active_set(m, g_scaled, None, lam, config)
        est_a = BlockSparseEstimate.from_blocks(
            [(s, b * w[s]) for s, b in zip(sol_scaled.active_set,
                                           sol_scaled.blocks)],
            g.n_locations, g.n_orient, m.n_times,
        )

        lam_vec = lam / w
        est_b, _ = solve_bcd(m, g, None, lam_vec, 1e-10)

        p_a = primal_objective(m, g, est_a, lam_vec)
        p_b = primal_objective(m, g, est_b, lam_vec)
        assert abs(p_a - p_b) <= 1e-8


def test_orientation_rotation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(5):
        m, g, _ = make_instance(rng, n_locations=15, n_orient=3, noise=0.2)
        lam = 0.4 * lambda_max(m, g)
        config = SolverConfig(gap_tol=1e-10)

        rotations = []
        cols = []
        for s in range(g.n_locations):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotations.append(q)
            cols.append(g.block(s) @ q)
        g_rot = BlockDesign(np.hstack(cols), g.n_locations, 3)

        est, state, _ = solve_irmxne(m, g, lam, config)
        est_rot, state_rot, _ = solve_irmxne(m, g_rot, lam, config)

        obj = nonconvex_objective(m, g, est, lam)
        obj_rot = nonconvex_objective(m, g_rot, est_rot, lam)
        assert abs(obj - obj_rot) <= 1e-8 * max(1.0, abs(obj))
        assert est.active_set == est_rot.active_set
        for s, b, b_rot in zip(est.active_set, est.blocks, est_rot.blocks):
            assert np.allclose(rotations[s].T @ b, b_rot, atol=1e-6)


def test_irmxne_iteration_cap_not_an_error():
    rng = np.random.default_rng(10)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    _, full, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert full.iteration > 2
    est, state, _ = solve_irmxne(m, g, lam, SolverConfig(max_reweight=2))
    assert state.iteration == 2
    assert state.converged is False
    # the capped run is the uncapped one stopped after its second iteration
    assert [w.tobytes() for w in state.weights] == \
        [w.tobytes() for w in full.weights[:2]]
    assert state.objective_trace == full.objective_trace[:2]
    assert nonconvex_objective(m, g, est, lam) == state.objective_trace[-1]


def test_irmxne_computes_block_constants_once(monkeypatch):
    # each reweight is a solve_bcd call on the same design; all of them and
    # the active-set driver read the design's one set of constants
    rng = np.random.default_rng(10)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    bcd_calls = []
    bcd = mxne.solve_bcd
    monkeypatch.setattr(mxne, "solve_bcd",
                        lambda *a, **k: bcd_calls.append(1) or bcd(*a, **k))
    _, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    assert state.iteration > 2 and len(bcd_calls) > state.iteration
    assert calls == [(g.n_locations, g.n_orient, g.n_orient)]


def test_iteration_limit_carries_reweight_state(monkeypatch):
    # iteration 1 runs uncapped; every reweight step is capped at one sweep
    rng = np.random.default_rng(10)
    m, g, _ = make_instance(rng, noise=0.3)
    lam = 0.3 * lambda_max(m, g)
    config = SolverConfig()
    ReweightProbe(monkeypatch, max_iter=1)
    with pytest.raises(IterationLimitError) as info:
        solve_irmxne(m, g, lam, config)
    state = info.value.state
    assert state.iteration == 1
    assert len(state.objective_trace) == 1
    assert len(state.weights) == 2
    assert np.array_equal(state.weights[0], np.ones(g.n_locations))
    assert not state.converged
    assert info.value.estimate.n_locations == g.n_locations


def test_reweight_state_json(tmp_path):
    rng = np.random.default_rng(11)
    m, g, _ = make_instance(rng, noise=0.2)
    lam = 0.4 * lambda_max(m, g)
    _, state, _ = solve_irmxne(m, g, lam, SolverConfig())
    path = tmp_path / "state.json"
    state.to_json(path)
    import json

    payload = json.loads(path.read_text())
    assert payload["iteration"] == state.iteration
    assert payload["converged"] == state.converged
    assert len(payload["weights"]) == len(state.weights)
    assert payload["objective_trace"] == pytest.approx(state.objective_trace)


@pytest.mark.parametrize("shape", [(1,), (30,)], ids=["length-1", "vector"])
def test_irmxne_rejects_vector_lambda_before_solving(shape, monkeypatch):
    # the square-root penalty has one weight; the check runs before
    # iteration 1, not after it inside nonconvex_objective
    m, g, truth = make_instance(np.random.default_rng(15), n_locations=30)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_active_set called")

    monkeypatch.setattr(irmxne, "solve_active_set", no_solve)
    with pytest.raises(ValueError, match="lam must be a scalar"):
        solve_irmxne(m, g, np.full(shape, 0.5), SolverConfig())
    with pytest.raises(ValueError, match="lam must be a scalar"):
        nonconvex_objective(m, g, truth, np.full(shape, 0.5))


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_solvers_reject_invalid_lambda(lam):
    # lam is a solver argument, checked by each solver, not by SolverConfig
    m, g, _ = make_instance(np.random.default_rng(14))
    with pytest.raises(ValueError, match="lam must be positive"):
        solve_active_set(m, g, None, lam, SolverConfig())
    with pytest.raises(ValueError, match="lam must be positive"):
        solve_irmxne(m, g, lam, SolverConfig())
