import numpy as np
import pytest

from bsmx.constraints import (
    apply_depth_weights,
    apply_loose_orientation,
    undo_depth_weights,
)
from bsmx.model import BlockDesign, BlockSparseEstimate, Measurements, densify
from bsmx.mxne import lambda_max
from bsmx.prox import block_lipschitz_all

from helpers import make_instance, spectral_norm_sq


def _free_orientation_design(rng, n_locations=6, n_sensors=12):
    raw = rng.standard_normal((n_sensors, n_locations * 3))
    return BlockDesign(raw, n_locations, 3)


def test_loose_identity_at_rho_one():
    rng = np.random.default_rng(0)
    g = _free_orientation_design(rng)
    out = apply_loose_orientation(g, 1.0)
    assert np.array_equal(out.entries, g.entries)


def test_loose_scales_tangential_columns():
    rng = np.random.default_rng(1)
    g = _free_orientation_design(rng)
    out = apply_loose_orientation(g, 0.5)
    for s in range(g.n_locations):
        blk_in, blk_out = g.block(s), out.block(s)
        assert np.array_equal(blk_out[:, 0], blk_in[:, 0])
        assert np.array_equal(blk_out[:, 1], 0.5 * blk_in[:, 1])
        assert np.array_equal(blk_out[:, 2], 0.5 * blk_in[:, 2])


def test_transforms_copy_unless_told_not_to():
    rng = np.random.default_rng(11)
    g = _free_orientation_design(rng)
    before = g.entries.copy()
    loose = apply_loose_orientation(g, 0.6)
    weighted, _ = apply_depth_weights(loose, 0.8)
    assert np.array_equal(g.entries, before)
    assert not np.shares_memory(weighted.entries, loose.entries)
    # in place: the same bits, in g's own array, still read-only
    fresh = BlockDesign(before, g.n_locations, 3)
    arr = fresh.entries
    # a consumed design's stored constants never reach the design made
    # over its array: each returned design has those of its own entries
    block_lipschitz_all(fresh)
    loose_in_place = apply_loose_orientation(fresh, 0.6, copy=False)
    assert (block_lipschitz_all(loose_in_place).tobytes()
            == block_lipschitz_all(loose).tobytes())
    weighted_in_place, _ = apply_depth_weights(loose_in_place, 0.8,
                                               copy=False)
    assert weighted_in_place.entries is arr
    assert weighted_in_place.entries.tobytes() == weighted.entries.tobytes()
    assert not arr.flags.writeable
    assert (block_lipschitz_all(weighted_in_place).tobytes()
            == block_lipschitz_all(weighted).tobytes())


def test_loose_composition():
    rng = np.random.default_rng(2)
    g = _free_orientation_design(rng)
    a, b = 0.7, 0.4
    twice = apply_loose_orientation(apply_loose_orientation(g, a), b)
    once = apply_loose_orientation(g, a * b)
    assert np.allclose(twice.entries, once.entries, atol=1e-15)


def test_loose_requires_three_orientations():
    rng = np.random.default_rng(3)
    _, g, _ = make_instance(rng, n_orient=1)
    with pytest.raises(ValueError, match="n_orient=3"):
        apply_loose_orientation(g, 0.5)


def test_loose_rejects_bad_rho():
    rng = np.random.default_rng(4)
    g = _free_orientation_design(rng)
    for rho in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="rho"):
            apply_loose_orientation(g, rho)


def test_loose_lambda_max_approaches_normal_only_design():
    rng = np.random.default_rng(5)
    g = _free_orientation_design(rng, n_locations=10, n_sensors=15)
    m = Measurements(rng.standard_normal((15, 6)))
    squeezed = apply_loose_orientation(g, 1e-6)
    normal_cols = g.entries[:, 0::3]
    g_normal = BlockDesign(normal_cols, g.n_locations, 1)
    lm_squeezed = lambda_max(m, squeezed)
    lm_normal = lambda_max(m, g_normal)
    assert abs(lm_squeezed - lm_normal) <= 1e-6 * lm_normal


def test_depth_identity_at_gamma_zero():
    rng = np.random.default_rng(6)
    _, g, _ = make_instance(rng)
    out, weights = apply_depth_weights(g, 0.0)
    assert np.array_equal(out.entries, g.entries)
    assert np.all(weights.per_location_scale == 1.0)


def test_depth_unit_spectral_norm_at_gamma_one():
    rng = np.random.default_rng(7)
    _, g, _ = make_instance(rng, n_orient=3)
    out, _ = apply_depth_weights(g, 1.0)
    for s in range(g.n_locations):
        assert spectral_norm_sq(out.block(s)) == pytest.approx(1.0, rel=1e-9)


def test_depth_scale_ratio():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((10, 2))
    base /= np.linalg.norm(base, axis=0, keepdims=True)
    raw = np.hstack([10.0 * base[:, :1], base[:, 1:]])
    g = BlockDesign(raw, 2, 1)
    _, weights = apply_depth_weights(g, 1.0)
    ratio = weights.per_location_scale[0] / weights.per_location_scale[1]
    assert ratio == pytest.approx(0.1, rel=1e-12)


def test_depth_rejects_zero_block_and_bad_gamma():
    raw = np.ones((4, 4))
    raw[:, 1] = 0.0
    g = BlockDesign(raw, 4, 1)
    with pytest.raises(ValueError, match="degenerate"):
        apply_depth_weights(g, 0.5)
    rng = np.random.default_rng(9)
    _, ok, _ = make_instance(rng)
    with pytest.raises(ValueError, match="gamma"):
        apply_depth_weights(ok, 1.5)


def test_depth_back_mapping_preserves_data_fit():
    rng = np.random.default_rng(10)
    m, g, _ = make_instance(rng, noise=0.2)
    weighted, weights = apply_depth_weights(g, 0.8)
    # any estimate in the weighted coordinates
    blocks = [(2, rng.standard_normal((g.n_orient, m.n_times))),
              (5, rng.standard_normal((g.n_orient, m.n_times)))]
    est_w = BlockSparseEstimate.from_blocks(blocks, g.n_locations,
                                            g.n_orient, m.n_times)
    est_back = undo_depth_weights(est_w, weights)
    fit_w = np.linalg.norm(m.entries - weighted.entries @ densify(est_w))
    fit_back = np.linalg.norm(m.entries - g.entries @ densify(est_back))
    assert abs(fit_w - fit_back) <= 1e-10 * max(1.0, fit_w)


def test_undo_depth_weights_validates_length():
    rng = np.random.default_rng(11)
    _, g, truth = make_instance(rng)
    _, weights = apply_depth_weights(g, 0.5)
    wrong = BlockSparseEstimate.empty(g.n_locations + 1, g.n_orient, truth.n_times)
    with pytest.raises(ValueError, match="locations"):
        undo_depth_weights(wrong, weights)
