import tracemalloc

import numpy as np
import pytest

from bsmx.debias import apply_scaling, estimate_scaling
from bsmx.model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    densify,
    residual,
)

from helpers import footprint_scaling, make_instance, projected_gradient_debias


def test_single_source_exact_factor():
    rng = np.random.default_rng(0)
    _, g, _ = make_instance(rng, n_active=1)
    block = rng.standard_normal((g.n_orient, 8))
    est = BlockSparseEstimate.from_blocks([(3, block)], g.n_locations,
                                          g.n_orient, 8)
    m = Measurements(3.0 * (g.block(3) @ block))
    scaling = estimate_scaling(m, g, est)
    assert scaling[0] == pytest.approx(3.0, rel=1e-12)


def test_clamped_when_unconstrained_below_one():
    rng = np.random.default_rng(1)
    _, g, _ = make_instance(rng, n_active=1)
    block = rng.standard_normal((g.n_orient, 6))
    est = BlockSparseEstimate.from_blocks([(0, block)], g.n_locations,
                                          g.n_orient, 6)
    m = Measurements(0.5 * (g.block(0) @ block))
    scaling = estimate_scaling(m, g, est)
    assert scaling[0] == 1.0
    debiased = apply_scaling(est, scaling)
    assert np.array_equal(densify(debiased), densify(est))


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    for _ in range(8):
        m, g, truth = make_instance(rng, n_active=3, noise=0.3)
        # shrink amplitudes so debiasing has something to recover
        est = BlockSparseEstimate.from_blocks(
            [(s, 0.6 * b) for s, b in zip(truth.active_set, truth.blocks)],
            g.n_locations, g.n_orient, truth.n_times,
        )
        scaling = estimate_scaling(m, g, est)
        debiased = apply_scaling(est, scaling)
        obj = float((residual(m, g, debiased) ** 2).sum())
        d_star, obj_star = projected_gradient_debias(m, g, est)
        assert obj <= obj_star + 1e-8 * max(1.0, obj_star)
        assert np.allclose(scaling, d_star, atol=1e-6)


def test_null_space_footprint_keeps_unit_factor():
    rng = np.random.default_rng(3)
    n, s, o, t = 8, 4, 3, 5
    raw = rng.standard_normal((n, s * o))
    raw[:, 0 * o + 2] = 0.0  # third orientation of block 0 has no footprint
    g = BlockDesign(raw, s, o)
    block = np.zeros((o, t))
    block[2] = rng.standard_normal(t)  # estimate lives in that null direction
    est = BlockSparseEstimate.from_blocks([(0, block)], s, o, t)
    m = Measurements(rng.standard_normal((n, t)))
    scaling = estimate_scaling(m, g, est)
    assert scaling[0] == 1.0


def test_apply_scaling_values():
    rng = np.random.default_rng(4)
    _, g, truth = make_instance(rng, n_active=2)
    ones = np.ones(2)
    assert np.array_equal(densify(apply_scaling(truth, ones)), densify(truth))
    out = apply_scaling(truth, np.array([2.0, 1.0]))
    assert np.array_equal(out.blocks[0], 2.0 * truth.blocks[0])
    assert np.array_equal(out.blocks[1], truth.blocks[1])
    assert out.active_set == truth.active_set


def test_residual_never_increases():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, g, truth = make_instance(rng, n_active=3, noise=0.4)
        est = BlockSparseEstimate.from_blocks(
            [(s, float(rng.uniform(0.3, 1.0)) * b)
             for s, b in zip(truth.active_set, truth.blocks)],
            g.n_locations, g.n_orient, truth.n_times,
        )
        scaling = estimate_scaling(m, g, est)
        assert np.all(scaling >= 1.0)
        debiased = apply_scaling(est, scaling)
        r_raw = np.linalg.norm(residual(m, g, est))
        r_deb = np.linalg.norm(residual(m, g, debiased))
        assert r_deb <= r_raw + 1e-12 * max(1.0, r_raw)
        # waveform shapes and directions preserved exactly
        assert debiased.active_set == est.active_set
        for i, (b_deb, b) in enumerate(zip(debiased.blocks, est.blocks)):
            assert np.array_equal(b_deb, scaling[i] * b)


def test_empty_estimate_rejected():
    rng = np.random.default_rng(6)
    m, g, _ = make_instance(rng)
    empty = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    with pytest.raises(ValueError, match="empty"):
        estimate_scaling(m, g, empty)


def test_scaling_factors_validation():
    rng = np.random.default_rng(7)
    _, _, truth = make_instance(rng, n_active=2)
    with pytest.raises(ValueError, match="at least 1"):
        apply_scaling(truth, np.array([1.0, 0.5]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_scaling(truth, np.array([1.0, bad]))
    with pytest.raises(ValueError, match="expected 2 scaling factors"):
        apply_scaling(truth, np.ones(3))


def test_estimate_scaling_returns_read_only_factors():
    rng = np.random.default_rng(8)
    m, g, truth = make_instance(rng, n_active=3, noise=0.3)
    scaling = estimate_scaling(m, g, truth)
    assert scaling.shape == (truth.n_active,)
    assert scaling.dtype == np.float64
    assert not scaling.flags.writeable
    with pytest.raises(ValueError):
        scaling[0] = 2.0


@pytest.mark.parametrize("n_orient", [1, 3])
def test_gram_form_matches_the_footprint_form(n_orient):
    rng = np.random.default_rng(9)
    for _ in range(6):
        m, g, truth = make_instance(rng, n_sensors=15, n_orient=n_orient,
                                    n_times=40, n_active=4, noise=0.5)
        est = BlockSparseEstimate.from_blocks(
            [(s, float(rng.uniform(0.3, 1.0)) * b)
             for s, b in zip(truth.active_set, truth.blocks)],
            g.n_locations, g.n_orient, truth.n_times,
        )
        scaling = estimate_scaling(m, g, est)
        assert np.any(scaling > 1.0)
        np.testing.assert_allclose(scaling, footprint_scaling(m, g, est),
                                   rtol=1e-12, atol=0)


def test_scaling_builds_no_footprint():
    # 306 sensors x 1000 samples with 6 active locations: the fit peaks
    # below the size of one n_sensors x n_times footprint
    rng = np.random.default_rng(10)
    n, o, t = 306, 3, 1000
    g = BlockDesign(rng.standard_normal((n, 20 * o)), 20, o)
    est = BlockSparseEstimate.from_blocks(
        [(s, rng.standard_normal((o, t))) for s in (1, 4, 8, 11, 15, 19)],
        20, o, t)
    m = Measurements(rng.standard_normal((n, t)))
    tracemalloc.start()
    try:
        estimate_scaling(m, g, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * t
