import math

import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d
from scipy.signal import lfilter

from bsmx.irmxne import solve_irmxne
from bsmx.model import BlockDesign, BlockSparseEstimate, SolverConfig, densify
from bsmx.mxne import lambda_max, solve_active_set
from bsmx.sim import (
    ScenarioSpec,
    evaluate,
    generate_scenario,
    goodness_of_fit,
    krippendorff_alpha,
    random_instance,
    resample_stability,
    solve_with_method,
)
from bsmx.sim import (
    AR_DEFAULT,
    _AR_BURN_IN,
    _ar_filter,
    _pick_separated,
    _smooth_locations,
    _unit_sphere_points,
)

SMALL = dict(n_sensors=25, n_locations=60, n_times=20, n_trials=12)


def test_scenario_deterministic_bitwise():
    spec = ScenarioSpec(**SMALL, rng_seed=11)
    a = generate_scenario(spec)
    b = generate_scenario(spec)
    assert np.array_equal(a.design.entries, b.design.entries)
    assert np.array_equal(a.trials, b.trials)
    assert np.array_equal(a.m_avg.entries, b.m_avg.entries)
    assert a.true_support == b.true_support
    assert a.snr == b.snr


def _reference_scenario(spec):
    """Trials, average and SNR of a scenario, drawn with one AR series per
    trial and background dipole: the per-dipole loop that the batched
    generator must reproduce bitwise."""
    rng = np.random.default_rng(spec.rng_seed)
    n, s, o, t = spec.n_sensors, spec.n_locations, spec.n_orient, spec.n_times
    raw = rng.standard_normal((n, s * o))
    if spec.column_smoothing > 0:
        raw = uniform_filter1d(raw.reshape(n, s, o),
                               size=2 * spec.column_smoothing + 1, axis=1,
                               mode="reflect").reshape(n, s * o)
    raw = raw / np.linalg.norm(raw, axis=0, keepdims=True)
    design = BlockDesign(raw, s, o)
    positions = _unit_sphere_points(rng, s)
    support = _pick_separated(rng, positions, spec.n_true_sources,
                              spec.min_source_separation)
    grid = np.arange(t, dtype=float)
    sigma = spec.pulse_width_fraction * t
    items = []
    for loc, amp, frac in zip(support, spec.peak_amplitudes,
                              spec.peak_fractions):
        pulse = amp * np.exp(-0.5 * ((grid - frac * (t - 1)) / sigma) ** 2)
        if o == 1:
            block = pulse[None, :]
        else:
            orient = rng.standard_normal(o)
            orient /= np.linalg.norm(orient)
            block = orient[:, None] * pulse[None, :]
        items.append((int(loc), block))
    signal = raw @ densify(BlockSparseEstimate.from_blocks(items, s, o, t))

    pool = np.setdiff1d(np.arange(s), support)
    noise_locs = rng.choice(pool, size=spec.n_noise_dipoles, replace=False) \
        if spec.n_noise_dipoles else np.empty(0, dtype=int)
    signatures = []
    for loc in noise_locs:
        if o == 1:
            signatures.append(design.block(int(loc))[:, 0])
        else:
            orient = rng.standard_normal(o)
            orient /= np.linalg.norm(orient)
            signatures.append(design.block(int(loc)) @ orient)

    denom = np.r_[1.0, -np.asarray(spec.ar_coeffs, dtype=float)]
    noise_parts = np.zeros((spec.n_trials, n, t))
    for k in range(spec.n_trials):
        for sig in signatures:
            e = rng.standard_normal(t + _AR_BURN_IN)
            series = lfilter([1.0], denom, e)[_AR_BURN_IN:]
            peak = np.abs(series).max()
            if peak > 0:
                series = series * (spec.noise_dipole_amplitude / peak)
            noise_parts[k] += sig[:, None] * series[None, :]
        if spec.sensor_noise_std > 0:
            noise_parts[k] += spec.sensor_noise_std * rng.standard_normal((n, t))
    noise_avg = noise_parts.mean(axis=0)
    noise_energy = float((noise_avg ** 2).sum())
    snr = math.inf if noise_energy == 0.0 else \
        float((signal ** 2).sum()) / noise_energy
    return signal[None, :, :] + noise_parts, signal + noise_avg, snr


# a scenario that fits on one or two locations: with a smoothing
# half-width longer than the line, "reflect" extends it by more than one
# mirror image
ONE_SOURCE = dict(n_true_sources=1, peak_amplitudes=(5.5,),
                  peak_fractions=(0.5,), n_noise_dipoles=0)


@pytest.mark.parametrize("params", [
    dict(n_orient=1),
    dict(n_orient=3),
    dict(n_noise_dipoles=0),
    dict(sensor_noise_std=0.0),
    dict(noise_dipole_amplitude=0.0, sensor_noise_std=0.0),
    dict(ONE_SOURCE, n_locations=1, column_smoothing=2),
    dict(ONE_SOURCE, n_locations=2, n_orient=3, column_smoothing=3),
], ids=["fixed", "free", "no-dipoles", "no-sensor-noise", "noise-free",
        "1-location", "2-locations-free"])
def test_scenario_matches_per_dipole_reference(params):
    for seed in (0, 5):
        spec = ScenarioSpec(**{**SMALL, **params}, rng_seed=seed)
        scenario = generate_scenario(spec)
        trials, m_avg, snr = _reference_scenario(spec)
        assert scenario.trials.tobytes() == trials.tobytes()
        assert scenario.m_avg.entries.tobytes() == m_avg.tobytes()
        assert scenario.snr == snr


@pytest.mark.parametrize("n_locations, half", [
    (1, 2), (2, 3), (1, 1), (3, 7), (5, 2), (60, 2), (500, 5),
])
@pytest.mark.parametrize("n_orient", [1, 3])
def test_smoothing_matches_scipy_reflect(n_locations, half, n_orient):
    raw = np.random.default_rng(n_locations).standard_normal(
        (7, n_locations, n_orient))
    expected = uniform_filter1d(raw, size=2 * half + 1, axis=1,
                                mode="reflect")
    got = _smooth_locations(raw, half)
    assert got.tobytes() == expected.tobytes()
    # C order, as scipy's: the column norms taken next sum in memory order
    assert got.flags.c_contiguous


# lfilter cannot take zero rows with a constant denominator ("white")
@pytest.mark.parametrize("coeffs, rows", [
    (AR_DEFAULT, 0), (AR_DEFAULT, 1), (AR_DEFAULT, 30), ((0.5,), 30),
    ((-0.5,), 30), ((0.9, -0.2), 30), ((), 30),
], ids=["ar5-0", "ar5-1", "ar5-30", "ar1", "ar1-negative", "ar2", "white"])
def test_ar_filter_matches_scipy_lfilter(coeffs, rows):
    drive = np.random.default_rng(rows).standard_normal((rows, 150))
    if rows:
        # with a negative coefficient, -0.0 input leaves -0.0 outputs only
        # through the x * 0.0 terms of the zero numerator taps
        drive[0, :20] = -0.0
        drive[0, 20:30] = 0.0
    expected = lfilter([1.0], np.r_[1.0, -np.asarray(coeffs, dtype=float)],
                       drive, axis=-1)
    assert _ar_filter(drive, coeffs).tobytes() == expected.tobytes()


def test_scenario_noise_free_flag():
    spec = ScenarioSpec(**SMALL, noise_dipole_amplitude=0.0,
                        sensor_noise_std=0.0, rng_seed=1)
    scenario = generate_scenario(spec)
    signal = scenario.design.entries @ densify(scenario.x_true)
    assert np.array_equal(scenario.m_avg.entries, signal)
    assert math.isinf(scenario.snr)
    assert scenario.noise_free


def test_scenario_average_is_trial_mean():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=2))
    assert np.allclose(scenario.m_avg.entries, scenario.trials.mean(axis=0),
                       atol=0)
    signal = scenario.design.entries @ densify(scenario.x_true)
    noise = scenario.m_avg.entries - signal
    expected = (signal ** 2).sum() / (noise ** 2).sum()
    assert scenario.snr == pytest.approx(expected, rel=1e-12)


def test_default_scenario_snr_band():
    # reference band around the target signal-to-noise ratio
    for seed in range(5):
        scenario = generate_scenario(ScenarioSpec(rng_seed=seed))
        assert 1.6 < scenario.snr < 3.6


def test_scenario_rejects_unstable_ar():
    with pytest.raises(ValueError, match="unstable AR"):
        ScenarioSpec(**SMALL, ar_coeffs=(1.2, 0.0, 0.0, 0.0, 0.0))


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(n_true_sources=3)  # amplitude tuple mismatch
    with pytest.raises(ValueError):
        ScenarioSpec(n_locations=5, n_noise_dipoles=10)


def test_evaluate_truth_is_perfect():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=3))
    report = evaluate(scenario, scenario.x_true)
    assert report.true_positives == len(scenario.true_support)
    assert report.false_positives == 0
    assert report.active_set_size == len(scenario.true_support)
    assert report.rmse == 0.0
    assert math.isnan(report.rmse_debiased)
    assert 0.0 < report.gof < 1.0


def test_evaluate_empty_estimate():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=4))
    empty = BlockSparseEstimate.empty(
        scenario.design.n_locations, scenario.design.n_orient,
        scenario.m_avg.n_times,
    )
    report = evaluate(scenario, empty)
    assert report.true_positives == 0
    assert report.false_positives == 0
    signal_norm = np.linalg.norm(
        scenario.design.entries @ densify(scenario.x_true)
    )
    assert report.rmse == pytest.approx(signal_norm, rel=1e-12)
    assert report.gof == 0.0


def test_gof_monotone_in_residual():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=5))
    truth = scenario.x_true
    shrunk = BlockSparseEstimate.from_blocks(
        [(s, 0.2 * b) for s, b in zip(truth.active_set, truth.blocks)],
        truth.n_locations, truth.n_orient, truth.n_times,
    )
    g = scenario.design
    assert goodness_of_fit(scenario.m_avg, g, truth) > goodness_of_fit(
        scenario.m_avg, g, shrunk
    )


def test_krippendorff_perfect_agreement():
    sel = np.zeros((6, 9), dtype=bool)
    sel[:, [1, 4]] = True
    assert krippendorff_alpha(sel) == 1.0


def test_krippendorff_chance_level():
    rng = np.random.default_rng(6)
    sel = rng.random((100, 50)) < 0.5
    assert abs(krippendorff_alpha(sel)) < 0.1


def test_krippendorff_validation():
    with pytest.raises(ValueError, match="coders"):
        krippendorff_alpha(np.zeros((1, 5), dtype=bool))
    with pytest.raises(ValueError, match="2-D"):
        krippendorff_alpha(np.zeros(5, dtype=bool))
    # empty unit set counts as agreement
    assert krippendorff_alpha(np.zeros((4, 0), dtype=bool)) == 1.0
    # constant codings have zero expected disagreement
    assert krippendorff_alpha(np.ones((4, 3), dtype=bool)) == 1.0


def test_krippendorff_coder_duplication():
    # duplicating identical coders preserves perfect agreement exactly;
    # in general the small-sample correction shifts alpha by at most
    # (1 - alpha) / (2m - 1) for m coders
    perfect = np.zeros((5, 8), dtype=bool)
    perfect[:, 2] = True
    assert krippendorff_alpha(np.vstack([perfect, perfect])) == 1.0

    rng = np.random.default_rng(7)
    for _ in range(10):
        m = 40
        sel = rng.random((m, 25)) < 0.4
        alpha = krippendorff_alpha(sel)
        alpha_dup = krippendorff_alpha(np.vstack([sel, sel]))
        assert abs(alpha_dup - alpha) <= (1 - alpha) / (2 * m - 1) + 1e-12


def test_resample_stability_report():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=8))
    report = resample_stability(scenario, 0.8, 5, 0.6, SolverConfig(),
                                method="mxne", rng_seed=0)
    assert report.selection_matrix.shape == (5, scenario.design.n_locations)
    assert np.allclose(report.selection_probability,
                       report.selection_matrix.mean(axis=0))
    assert report.krippendorff_alpha <= 1.0


def test_resample_stability_perfect_on_noise_free():
    spec = ScenarioSpec(**SMALL, noise_dipole_amplitude=0.0,
                        sensor_noise_std=0.0, rng_seed=9)
    scenario = generate_scenario(spec)
    report = resample_stability(scenario, 0.8, 4, 0.5, SolverConfig(),
                                method="mxne", rng_seed=1)
    assert report.krippendorff_alpha == 1.0


def test_resample_stability_validation():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=10))
    config = SolverConfig()
    with pytest.raises(ValueError, match="fraction"):
        resample_stability(scenario, 1.2, 4, 0.5, config)
    with pytest.raises(ValueError, match="resamples"):
        resample_stability(scenario, 0.8, 1, 0.5, config)
    with pytest.raises(ValueError, match="usable subset"):
        resample_stability(scenario, 0.01, 4, 0.5, config)


def test_solve_with_method_dispatch():
    scenario = generate_scenario(ScenarioSpec(**SMALL, rng_seed=11))
    m, g, config = scenario.m_avg, scenario.design, SolverConfig()
    est_mx = solve_with_method(m, g, 0.5, config, "mxne")
    est_ir = solve_with_method(m, g, 0.5, config, "irmxne")
    assert isinstance(est_mx, BlockSparseEstimate)
    assert set(est_ir.active_set) <= set(est_mx.active_set)
    # lam_fraction is taken of the data's own lambda_max
    lam = 0.5 * lambda_max(m, g)
    for est, ref in ((est_mx, solve_active_set(m, g, None, lam, config)[0]),
                     (est_ir, solve_irmxne(m, g, lam, config)[0])):
        assert est.active_set == ref.active_set
        assert np.array_equal(est.coef, ref.coef)
    with pytest.raises(ValueError, match="unknown method"):
        solve_with_method(m, g, 0.5, config, "nope")


def test_random_instance_shapes():
    rng = np.random.default_rng(12)
    m, g, truth = random_instance(rng, 10, 20, 3, 7, n_active=4, noise=0.0)
    assert m.entries.shape == (10, 7)
    assert g.entries.shape == (10, 60)
    assert truth.n_active == 4
    assert np.allclose(m.entries, g.entries @ densify(truth))


def test_free_orientation_scenario():
    spec = ScenarioSpec(**SMALL, n_orient=3, rng_seed=13)
    scenario = generate_scenario(spec)
    assert scenario.design.n_orient == 3
    assert scenario.x_true.n_orient == 3
    # each true block is a rank-one orientation times pulse
    for blk in scenario.x_true.blocks:
        assert np.linalg.matrix_rank(blk) == 1
