import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from bsmx.constraints import DepthWeights
from bsmx.irmxne import ReweightState
from bsmx.model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    SolverConfig,
    _pack,
    _unpack,
    densify,
    residual,
)
from bsmx.sim import ScenarioSpec, StabilityReport, generate_scenario

from helpers import make_instance, traced_peak


def test_densify_empty_is_zero():
    est = BlockSparseEstimate.empty(5, 3, 4)
    assert np.array_equal(densify(est), np.zeros((15, 4)))


def test_densify_places_single_block():
    block = np.eye(3, 4)
    est = BlockSparseEstimate.from_blocks([(0, block)], 4, 3, 4)
    dense = densify(est)
    assert np.array_equal(dense[0:3], block)
    assert not dense[3:].any()


def test_densify_sparsify_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s, o, t = 12, int(rng.integers(1, 4)), int(rng.integers(1, 8))
        x = rng.standard_normal((s * o, t))
        # zero out a random subset of blocks exactly
        for loc in rng.choice(s, size=5, replace=False):
            x[loc * o:(loc + 1) * o] = 0.0
        est = _unpack(x, np.arange(s), s, o)
        assert np.array_equal(densify(est), x)
        assert all(x[s_ * o:(s_ + 1) * o].any() for s_ in est.active_set)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(7)
    for o in (1, 3):
        for n_active in (0, 1, 2, 5):
            s, t = 30, int(rng.integers(1, 6))
            cand = np.sort(rng.choice(s, size=int(rng.integers(5, 15)),
                                      replace=False))
            support = rng.choice(cand, size=n_active, replace=False)
            est = BlockSparseEstimate.from_blocks(
                [(loc, rng.standard_normal((o, t))) for loc in support],
                s, o, t)
            x = _pack(est, cand, o, t)
            assert x.shape == (cand.size * o, t)
            stored = dict(zip(est.active_set, est.blocks))
            for i, loc in enumerate(cand):
                expected = stored.get(int(loc), np.zeros((o, t)))
                assert np.array_equal(x[i * o:(i + 1) * o], expected)
            back = _unpack(x, cand, s, o)
            assert back.active_set == est.active_set
            assert back.coef.tobytes() == est.coef.tobytes()


def test_pack_rejects_support_outside_candidates():
    est = BlockSparseEstimate.from_blocks([(3, np.ones((1, 2)))], 5, 1, 2)
    with pytest.raises(ValueError, match="outside the candidate set"):
        _pack(est, [0, 1, 4], 1, 2)


def test_underflowing_block_stays_active():
    # the Frobenius norm of this block underflows to 0; its entries do not
    tiny = np.full((3, 2), 1e-200)
    assert np.linalg.norm(tiny) == 0.0
    est = BlockSparseEstimate.from_blocks([(1, tiny)], 4, 3, 2)
    assert est.active_set == (1,)
    cand = [0, 1, 3]
    assert _unpack(_pack(est, cand, 3, 2), cand, 4, 3).active_set == (1,)
    assert _unpack(densify(est), np.arange(4), 4, 3).active_set == (1,)


def test_residual_empty_estimate_returns_data():
    rng = np.random.default_rng(1)
    m, g, _ = make_instance(rng, n_active=1)
    est = BlockSparseEstimate.empty(g.n_locations, g.n_orient, m.n_times)
    assert np.array_equal(residual(m, g, est), m.entries)


def test_residual_perfect_fit_is_zero():
    rng = np.random.default_rng(2)
    m0, g, truth = make_instance(rng, noise=0.0)
    r = residual(m0, g, truth)
    assert np.abs(r).max() < 1e-12


def test_residual_matches_dense_product():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(5, 31))
        s = int(rng.integers(4, 51))
        t = int(rng.integers(1, 21))
        m, g, truth = make_instance(rng, n_sensors=n, n_locations=s,
                                    n_orient=3, n_times=t,
                                    n_active=min(3, s), noise=0.5)
        dense = m.entries - g.entries @ densify(truth)
        r = residual(m, g, truth)
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(r - dense).max() <= 1e-12 * scale


def test_residual_dimension_mismatch():
    rng = np.random.default_rng(4)
    m, g, truth = make_instance(rng)
    bad_m = Measurements(np.zeros((g.n_sensors + 1, m.n_times)))
    with pytest.raises(ValueError, match="rows"):
        residual(bad_m, g, truth)
    bad_est = BlockSparseEstimate.empty(g.n_locations + 1, g.n_orient, m.n_times)
    with pytest.raises(ValueError, match="locations"):
        residual(m, g, bad_est)


def test_design_validation():
    with pytest.raises(ValueError, match="columns"):
        BlockDesign(np.zeros((4, 7)), 2, 3)
    with pytest.raises(ValueError, match="finite"):
        BlockDesign(np.full((2, 4), np.nan), 2, 2)
    with pytest.raises(ValueError):
        BlockDesign(np.zeros((2, 4)), 0, 4)
    with pytest.raises(ValueError, match=r"design matrix has shape \(0, 30\)"):
        BlockDesign(np.zeros((0, 30)), 30, 1)
    with pytest.raises(ValueError, match=r"design matrix has shape \(12, 0\)"):
        BlockDesign._adopt(np.zeros((12, 0)), 0, 1)


def test_design_constructor_copies():
    arr = np.random.default_rng(8).standard_normal((4, 6))
    g = BlockDesign(arr, 3, 2)
    assert not np.shares_memory(arr, g.entries)
    assert arr.flags.writeable
    arr[0, 0] = 7.0
    assert g.entries[0, 0] != 7.0
    assert not g.entries.flags.writeable


def test_design_adopt_keeps_the_array_and_checks_it():
    arr = np.random.default_rng(9).standard_normal((4, 6))
    g = BlockDesign._adopt(arr, 3, 2)
    assert g.entries is arr
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        BlockDesign._adopt(np.full((2, 4), np.nan), 2, 2)
    with pytest.raises(ValueError, match="columns"):
        BlockDesign._adopt(np.zeros((4, 7)), 2, 3)


def test_measurements_validation():
    with pytest.raises(ValueError, match="finite"):
        Measurements([[1.0, np.inf]])
    with pytest.raises(ValueError, match="2-D"):
        Measurements(np.zeros(3))
    with pytest.raises(ValueError, match=r"data matrix has shape \(12, 0\)"):
        Measurements(np.zeros((12, 0)))
    with pytest.raises(ValueError, match=r"data matrix has shape \(0, 5\)"):
        Measurements(np.zeros((0, 5)))


def test_estimate_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        BlockSparseEstimate((1, 1), np.ones((4, 3)), 4, 2, 3)
    with pytest.raises(ValueError, match="strictly increasing"):
        BlockSparseEstimate((2, 1), np.ones((4, 3)), 4, 2, 3)
    with pytest.raises(ValueError, match="out of range"):
        BlockSparseEstimate((5,), np.ones((2, 3)), 4, 2, 3)
    with pytest.raises(ValueError, match="shape"):
        BlockSparseEstimate((0,), np.ones((3, 3)), 4, 2, 3)
    with pytest.raises(ValueError, match="zero"):
        BlockSparseEstimate((0,), np.zeros((2, 3)), 4, 2, 3)


def test_from_blocks_drops_zero_blocks_and_sorts():
    blk = np.ones((1, 2))
    est = BlockSparseEstimate.from_blocks(
        [(3, blk), (1, np.zeros((1, 2))), (0, 2 * blk)], 5, 1, 2
    )
    assert est.active_set == (0, 3)
    assert np.array_equal(est.blocks[1], blk)


def test_types_are_immutable():
    rng = np.random.default_rng(5)
    m, g, truth = make_instance(rng)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0
    with pytest.raises(ValueError):
        truth.blocks[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        truth.coef[0, 0] = 1.0


def test_estimate_survives_pickling():
    rng = np.random.default_rng(6)
    _, _, truth = make_instance(rng)
    for est in (truth, BlockSparseEstimate.empty(7, 3, 4)):
        copy = pickle.loads(pickle.dumps(est))
        assert copy.active_set == est.active_set
        assert (copy.n_locations, copy.n_orient, copy.n_times) == \
            (est.n_locations, est.n_orient, est.n_times)
        assert np.array_equal(copy.coef, est.coef)
        assert not copy.coef.flags.writeable
        assert len(copy.blocks) == est.n_active
        assert all(np.shares_memory(b, copy.coef) and not b.flags.writeable
                   for b in copy.blocks)
        for b_copy, b in zip(copy.blocks, est.blocks):
            assert np.array_equal(b_copy, b)


def test_single_time_sample_supported():
    # degenerate case with one measurement vector
    rng = np.random.default_rng(6)
    m, g, truth = make_instance(rng, n_times=1, noise=0.0)
    assert m.n_times == 1
    x = densify(truth)
    assert x.shape[1] == 1
    back = _unpack(x, np.arange(g.n_locations), g.n_locations, g.n_orient)
    assert np.array_equal(densify(back), x)
    assert np.abs(residual(m, g, truth)).max() < 1e-12


def test_solver_config_validation():
    assert [f.name for f in dataclasses.fields(SolverConfig())] == [
        "gap_tol", "reweight_tol", "max_reweight", "max_bcd_iter"]
    with pytest.raises(ValueError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(reweight_tol=-1.0)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gap_tol must be positive and "
                                             "finite"):
            SolverConfig(gap_tol=tol)
        with pytest.raises(ValueError, match="reweight_tol must be positive "
                                             "and finite"):
            SolverConfig(reweight_tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_reweight=0)


def test_estimate_stores_only_its_validated_fields():
    rng = np.random.default_rng(8)
    _, _, truth = make_instance(rng)
    for est in (truth, BlockSparseEstimate.empty(7, 3, 4)):
        assert set(vars(est)) == {"active_set", "coef", "n_locations",
                                  "n_orient", "n_times"}


def test_value_types_compare_by_identity():
    # two distinct instances with the same content, for every type that
    # holds arrays: equality is identity, so comparing never reaches an
    # array, and every one of them hashes
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 6))
    blocks = [(1, rng.standard_normal((2, 3)))]
    spec = ScenarioSpec(n_sensors=8, n_locations=20, n_times=6, n_trials=3,
                        n_noise_dipoles=2)
    sel = np.array([[True, False], [True, True]])
    makers = [
        lambda: BlockDesign(g, 3, 2),
        lambda: Measurements(g),
        lambda: BlockSparseEstimate.from_blocks(blocks, 3, 2, 3),
        lambda: DepthWeights(0.8, np.ones(3)),
        lambda: generate_scenario(spec),
        lambda: StabilityReport(sel, sel.mean(axis=0), 0.5),
        lambda: ReweightState([np.ones(3)], 1, [2.0], True),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a
        assert not a == b
        assert a != b
        assert len({a, b, a}) == 2


def test_finite_check_allocates_no_matrix_sized_array():
    # 16 MB of float64: a boolean mask of it would take 2 MB
    a = np.ones((1024, 2048))
    assert traced_peak(BlockDesign._adopt, a, 2048, 1) < a.nbytes // 16
    # the constructor's own copy, and nothing of its size besides
    assert traced_peak(Measurements, a) < a.nbytes + a.nbytes // 16


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 5), (-1, -1)])
def test_non_finite_entries_are_rejected_without_warning(value, where):
    for make in (lambda a: BlockDesign._adopt(a, 4, 2),
                 lambda a: BlockDesign(a, 4, 2), Measurements):
        a = np.ones((6, 8))
        a[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="contains non-finite entries"):
                make(a)
