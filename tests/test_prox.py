import numpy as np
import pytest

from bsmx.model import BlockDesign
from bsmx.prox import _check_blocks, block_lipschitz_all, prox_blocks

from helpers import (
    golden_section_prox_scale,
    orthonormal_design,
    prox_one,
    spectral_norm_sq,
)


def test_block_lipschitz_orthonormal_block():
    rng = np.random.default_rng(0)
    g = orthonormal_design(rng, 1, 3, n_sensors=8)
    assert block_lipschitz_all(g)[0] == pytest.approx(1.0, rel=1e-12)


def test_block_lipschitz_single_column():
    rng = np.random.default_rng(1)
    col = rng.standard_normal((9, 1))
    c = 2.5
    expected = c * c * float((col ** 2).sum())
    lips = block_lipschitz_all(BlockDesign(c * col, 1, 1))
    assert lips[0] == pytest.approx(expected, rel=1e-12)


def test_block_lipschitz_matches_svd_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        block = rng.standard_normal((8, 3))
        lips = block_lipschitz_all(BlockDesign(block, 1, 3))
        assert lips[0] == pytest.approx(spectral_norm_sq(block), rel=1e-9)


def test_block_lipschitz_zero_block_raises():
    design = BlockDesign(np.zeros((5, 3)), 1, 3)
    with pytest.raises(ValueError, match="degenerate design block"):
        _check_blocks(block_lipschitz_all(design))


def test_block_lipschitz_all_matches_per_block():
    rng = np.random.default_rng(3)
    for o in (1, 3):
        raw = rng.standard_normal((10, 6 * o))
        design = BlockDesign(raw, 6, o)
        lips = block_lipschitz_all(design)
        for s in range(6):
            assert lips[s] == pytest.approx(spectral_norm_sq(design.block(s)),
                                            rel=1e-12)


def test_block_lipschitz_all_flags_zero_blocks():
    raw = np.ones((4, 6))
    raw[:, 2:4] = 0.0
    design = BlockDesign(raw, 3, 2)
    lips = block_lipschitz_all(design)
    assert lips[1] == 0.0
    assert lips[0] > 0 and lips[2] > 0


def test_group_soft_threshold_inside_ball_is_bitwise_zero():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((3, 4))
    block *= 0.5 / np.linalg.norm(block)
    out = prox_one(block, 1.0)
    assert out.shape == block.shape
    # exact zeros, not merely small
    assert np.all(out == 0.0)
    assert not np.signbit(out).any()


def test_group_soft_threshold_identity_limit():
    rng = np.random.default_rng(6)
    block = rng.standard_normal((3, 5))
    out = prox_one(block, 1e-15)
    assert np.abs(out - block).max() <= 1e-12 * np.abs(block).max()


def test_group_soft_threshold_scaling_and_golden_section():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((3, 5))
    norm = np.linalg.norm(block)
    threshold = 0.7 * norm
    out = prox_one(block, threshold)
    assert np.linalg.norm(out) == pytest.approx(0.3 * norm, rel=1e-12)
    # colinear with the input
    assert np.allclose(out, 0.3 * block, atol=1e-12 * norm)
    # independent check: minimize over the scaling factor numerically
    c_star = golden_section_prox_scale(block, threshold)
    assert c_star == pytest.approx(0.3, abs=1e-7)


def test_group_soft_threshold_nonexpansive():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal((3, 6))
        b = rng.standard_normal((3, 6))
        thr = float(rng.uniform(0.1, 3.0))
        pa = prox_one(a, thr)
        pb = prox_one(b, thr)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_group_soft_threshold_preserves_direction():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.standard_normal((2, 4))
        thr = float(rng.uniform(0.05, 2.0) * np.linalg.norm(a))
        out = prox_one(a, thr)
        norm_out = np.linalg.norm(out)
        if norm_out == 0:
            continue
        # nonnegative scaling of the input
        scale = norm_out / np.linalg.norm(a)
        assert np.allclose(out, scale * a, atol=1e-12)


def test_group_soft_threshold_matches_prox_blocks_bitwise():
    rng = np.random.default_rng(10)
    for o in (1, 3):
        n_loc, n_times = 20, 6
        x = rng.standard_normal((n_loc * o, n_times))
        norms = np.linalg.norm(x.reshape(n_loc, -1), axis=1)
        # about half the blocks fall inside their ball and must become +0.0
        thresholds = norms * rng.uniform(0.5, 1.5, n_loc)
        out = prox_blocks(x, thresholds, o)
        assert not np.signbit(out[out == 0.0]).any()
        for s in range(n_loc):
            rows = slice(s * o, (s + 1) * o)
            single = prox_one(x[rows], thresholds[s])
            assert single.tobytes() == out[rows].tobytes()
        assert (out.reshape(n_loc, -1) == 0.0).all(axis=1).sum() > 0
