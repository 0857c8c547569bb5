"""Synthetic scenarios and evaluation metrics.

A scenario plants a small number of pulse-shaped sources on a unit-sphere
source space, adds background activity from randomly placed dipoles driven
by autoregressive noise plus white sensor noise, and averages many single
trials, mimicking evoked-response acquisition at desk scale. Metrics cover
support recovery (true/false positives against a distance radius),
sensor-space reconstruction error, goodness of fit, and support-selection
stability across trial resamples measured by Krippendorff's alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    SolverConfig,
    _check_paired,
    _forward,
    densify,
    residual,
)
from . import mxne
from .irmxne import solve_irmxne
from .mxne import solve_active_set

__all__ = [
    "AR_DEFAULT",
    "ScenarioSpec",
    "Scenario",
    "MetricsReport",
    "StabilityReport",
    "generate_scenario",
    "random_instance",
    "goodness_of_fit",
    "evaluate",
    "krippendorff_alpha",
    "resample_stability",
    "solve_with_method",
]

# Fixed stable AR(5) coefficients for the background time courses, in the
# recursion x_t = a1 x_{t-1} + ... + a5 x_{t-5} + e_t. All poles of the
# characteristic polynomial lie inside the unit circle (max modulus 0.90).
AR_DEFAULT = (1.86916, -1.680743, 1.210158, -0.811663, 0.227812)

_AR_BURN_IN = 100
# doubles per block of trials that collects the dipole footprints
_FOOTPRINT_BLOCK = 1 << 15


def _check_ar_stable(coeffs: Sequence[float]):
    coeffs = np.asarray(coeffs, dtype=float)
    roots = np.roots(np.r_[1.0, -coeffs])
    if roots.size and np.abs(roots).max() >= 1.0:
        raise ValueError(
            "unstable AR coefficients: characteristic roots must lie "
            "strictly inside the unit circle"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of a synthetic scenario.

    The defaults give the standard desk-scale setup: 60 sensors, 500
    fixed-orientation locations, 50 time samples, two pulse sources with a
    55:45 amplitude ratio whose peaks are offset by 10% of the window, ten
    background dipoles at roughly twice the strongest source amplitude,
    unit sensor noise, and 100 averaged trials. ``column_smoothing``
    averages neighboring raw design columns before normalization, giving
    the local column correlation typical of physical forward fields
    (0 disables it for an i.i.d. design).
    """

    n_sensors: int = 60
    n_locations: int = 500
    n_orient: int = 1
    n_times: int = 50
    n_trials: int = 100
    n_true_sources: int = 2
    n_noise_dipoles: int = 10
    peak_amplitudes: Tuple[float, ...] = (5.5, 4.5)
    peak_fractions: Tuple[float, ...] = (0.45, 0.55)
    pulse_width_fraction: float = 0.1
    # calibrated so that averaging the default 100 trials lands the
    # scenario in the reference signal-to-noise band (about 2.6 +- 1.0)
    noise_dipole_amplitude: float = 12.3
    sensor_noise_std: float = 1.0
    ar_coeffs: Tuple[float, ...] = AR_DEFAULT
    column_smoothing: int = 2
    min_source_separation: float = 0.6
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_sensors", "n_locations", "n_orient", "n_times",
                     "n_trials", "n_true_sources"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_noise_dipoles < 0:
            raise ValueError("n_noise_dipoles must be nonnegative")
        if len(self.peak_amplitudes) != self.n_true_sources:
            raise ValueError("peak_amplitudes must match n_true_sources")
        if len(self.peak_fractions) != self.n_true_sources:
            raise ValueError("peak_fractions must match n_true_sources")
        if self.n_true_sources + self.n_noise_dipoles > self.n_locations:
            raise ValueError("more sources than locations")
        _check_ar_stable(self.ar_coeffs)


@dataclass(frozen=True, repr=False, eq=False)
class Scenario:
    """Ground truth, trials, and averaged data of one synthetic run."""

    design: BlockDesign
    positions: np.ndarray
    true_support: Tuple[int, ...]
    x_true: BlockSparseEstimate
    trials: np.ndarray
    m_avg: Measurements
    snr: float
    rng_seed: int

    @property
    def noise_free(self) -> bool:
        return math.isinf(self.snr)

    def __repr__(self):
        return (
            f"Scenario(n_sensors={self.design.n_sensors}, "
            f"n_locations={self.design.n_locations}, "
            f"n_trials={self.trials.shape[0]}, snr={self.snr:.3g})"
        )


def _ar_filter(drive: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """AR filtering of every row of ``drive``, ``(rows, T)``, over time.

    The recursion ``x_t = a1 x_{t-1} + ... + e_t`` from zero state, run as
    the direct-form-II-transposed filter of ``lfilter([1], [1, -a1, ...])``
    with its operations in the same order, so the result is bitwise that
    of ``scipy.signal.lfilter``. The state vector of every row advances
    together, one time step per pass; the ``x * 0.0`` terms of the zero
    numerator taps are kept so that signed zeros match too.
    """
    denom_tail = -np.asarray(coeffs, dtype=float)[:, None]
    if not denom_tail.size:
        # without state lfilter convolves with [1.0], turning -0.0 into +0.0
        return drive + 0.0
    xt = np.ascontiguousarray(drive.T)
    out = np.empty_like(xt)
    state = np.zeros((denom_tail.shape[0], xt.shape[1]))
    nxt = np.empty_like(state)
    for x, y in zip(xt, out):
        np.add(state[0], x, out=y)
        xz = x * 0.0
        np.add(state[1:], xz, out=nxt[:-1])
        nxt[-1] = xz
        nxt -= y * denom_tail
        state, nxt = nxt, state
    return out.T


def _smooth_locations(raw: np.ndarray, half: int) -> np.ndarray:
    """Moving average over ``2 * half + 1`` locations (axis 1) of ``raw``.

    Bitwise ``scipy.ndimage.uniform_filter1d(raw, 2 * half + 1, axis=1,
    mode="reflect")``: the line is extended by mirror images (``d c b a |
    a b c d | d c b a``, repeated when the window is wider than the line),
    the first window is summed in order, each later window adds the
    entering sample minus the leaving one, and every running sum is
    divided by the window size.
    """
    s = raw.shape[1]
    size = 2 * half + 1
    idx = np.arange(-half, s + half) % (2 * s)
    ext = raw[:, np.where(idx < s, idx, 2 * s - 1 - idx)]
    first = np.zeros(raw.shape[:1] + raw.shape[2:])
    for j in range(size):
        first += ext[:, j]
    steps = np.concatenate(
        [first[:, None], ext[:, size:] - ext[:, :s - 1]], axis=1
    )
    # a C-ordered result, as scipy's: the column norms taken next sum in
    # memory order
    sums = np.cumsum(steps, axis=1, out=np.empty(steps.shape))
    sums /= size
    return sums


def _unit_sphere_points(rng, n: int) -> np.ndarray:
    pts = rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _pick_separated(rng, positions: np.ndarray, count: int,
                    min_sep: float) -> np.ndarray:
    n = positions.shape[0]
    for _ in range(1000):
        chosen = np.sort(rng.choice(n, size=count, replace=False))
        pts = positions[chosen]
        dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        if count == 1 or dists[np.triu_indices(count, 1)].min() >= min_sep:
            return chosen
    raise ValueError(
        f"could not place {count} sources at least {min_sep} apart; "
        "reduce min_source_separation or the source count"
    )


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Draw a scenario; bit-identical for identical specs.

    The design has standard-normal entries (optionally smoothed across
    neighboring locations) with unit-normalized columns. True sources get
    Gaussian pulse time courses; background dipoles, drawn from locations
    outside the true support, are driven per trial by peak-normalized
    AR-filtered white noise. The reported SNR is the energy ratio of the
    noiseless signal to the residual noise in the trial average
    (``inf`` flags a noise-free scenario).

    Each trial takes one ``(n_noise_dipoles, n_times + burn-in)`` normal
    draw for its dipole drives, then its sensor noise; one filter pass
    then runs every trial's drives at once. The random stream, and so
    every output bit, is the same as drawing and filtering one dipole
    series at a time with ``scipy.signal.lfilter``.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n, s, o, t = spec.n_sensors, spec.n_locations, spec.n_orient, spec.n_times

    raw = rng.standard_normal((n, s * o))
    if spec.column_smoothing > 0:
        raw = _smooth_locations(raw.reshape(n, s, o), spec.column_smoothing)
        raw = raw.reshape(n, s * o)
    raw = raw / np.linalg.norm(raw, axis=0, keepdims=True)
    design = BlockDesign._adopt(raw, s, o)

    positions = _unit_sphere_points(rng, s)
    true_support = _pick_separated(
        rng, positions, spec.n_true_sources, spec.min_source_separation
    )

    grid = np.arange(t, dtype=float)
    sigma = spec.pulse_width_fraction * t
    items = []
    for loc, amp, frac in zip(true_support, spec.peak_amplitudes,
                              spec.peak_fractions):
        pulse = amp * np.exp(-0.5 * ((grid - frac * (t - 1)) / sigma) ** 2)
        if o == 1:
            block = pulse[None, :]
        else:
            orient = rng.standard_normal(o)
            orient /= np.linalg.norm(orient)
            block = orient[:, None] * pulse[None, :]
        items.append((int(loc), block))
    x_true = BlockSparseEstimate.from_blocks(items, s, o, t)

    m_signal = design.entries @ densify(x_true)

    pool = np.setdiff1d(np.arange(s), true_support)
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

    # every trial's dipole drives and then its sensor noise are drawn in
    # stream order before any filtering; noise is accumulated apart from
    # the signal so that a noise-free scenario reproduces the clean signal
    # bitwise after averaging; the dipole footprints go in dipole order
    # and the sensor noise last
    n_dip, n_trials = len(signatures), spec.n_trials
    length = t + _AR_BURN_IN
    drives = np.empty((n_trials, n_dip, length))
    # holds the sensor noise until the trials are summed into it
    trials = np.empty((n_trials, n, t))
    for k in range(n_trials):
        rng.standard_normal(out=drives[k])
        if spec.sensor_noise_std > 0:
            rng.standard_normal(out=trials[k])
    series = _ar_filter(drives.reshape(n_trials * n_dip, length),
                        spec.ar_coeffs)
    series = series[:, _AR_BURN_IN:].reshape(n_trials, n_dip, t)
    peak = np.abs(series).max(axis=2)
    scale = np.divide(spec.noise_dipole_amplitude, peak,
                      out=np.ones_like(peak), where=peak > 0)
    series *= scale[:, :, None]
    noise_parts = np.zeros((n_trials, n, t))
    # blocks of trials small enough to stay in cache while every dipole's
    # footprint is added to them
    per_block = max(1, _FOOTPRINT_BLOCK // (n * t))
    footprint = np.empty((per_block, n, t))
    for k in range(0, n_trials, per_block):
        block = noise_parts[k:k + per_block]
        out = footprint[:block.shape[0]]
        for d, sig in enumerate(signatures):
            np.multiply(sig[None, :, None], series[k:k + per_block, d, None, :],
                        out=out)
            block += out
    if spec.sensor_noise_std > 0:
        trials *= spec.sensor_noise_std
        noise_parts += trials
    noise_avg = noise_parts.mean(axis=0)
    np.add(m_signal[None, :, :], noise_parts, out=trials)
    m_avg = m_signal + noise_avg

    noise_energy = float((noise_avg ** 2).sum())
    if noise_energy == 0.0:
        snr = math.inf
    else:
        snr = float((m_signal ** 2).sum()) / noise_energy

    trials.setflags(write=False)
    positions.setflags(write=False)
    return Scenario(
        design=design,
        positions=positions,
        true_support=tuple(int(v) for v in true_support),
        x_true=x_true,
        trials=trials,
        m_avg=Measurements(m_avg),
        snr=snr,
        rng_seed=spec.rng_seed,
    )


def random_instance(rng, n_sensors: int, n_locations: int, n_orient: int,
                    n_times: int, *, n_active: int = 3, noise: float = 0.1):
    """Small planted regression instance for tests and benchmarks.

    Returns ``(Measurements, BlockDesign, BlockSparseEstimate)`` with a
    unit-column i.i.d. design, a random block-sparse truth, and data equal
    to the clean signal plus white noise of the given standard deviation.
    """
    for name, size in (("n_sensors", n_sensors), ("n_locations", n_locations),
                       ("n_orient", n_orient), ("n_times", n_times)):
        if size < 1:
            raise ValueError(f"{name} must be positive")
    if n_locations < n_active:
        raise ValueError(f"n_locations must be at least n_active={n_active}, "
                         f"got {n_locations}")
    raw = rng.standard_normal((n_sensors, n_locations * n_orient))
    raw /= np.linalg.norm(raw, axis=0, keepdims=True)
    design = BlockDesign._adopt(raw, n_locations, n_orient)
    support = np.sort(rng.choice(n_locations, size=n_active, replace=False))
    items = [
        (int(s), rng.standard_normal((n_orient, n_times))) for s in support
    ]
    truth = BlockSparseEstimate.from_blocks(
        items, n_locations, n_orient, n_times
    )
    data = design.entries @ densify(truth)
    if noise > 0:
        data = data + noise * rng.standard_normal(data.shape)
    return Measurements(data), design, truth


@dataclass(frozen=True)
class MetricsReport:
    """Support-recovery and reconstruction metrics of one estimate."""

    true_positives: int
    false_positives: int
    active_set_size: int
    rmse: float
    rmse_debiased: float
    gof: float


def goodness_of_fit(m: Measurements, g: BlockDesign,
                    est: BlockSparseEstimate) -> float:
    """Fraction of data energy explained: ``1 - ||M - G X||^2 / ||M||^2``."""
    denom = float((m.entries ** 2).sum())
    if denom == 0.0:
        return 0.0
    fit = residual(m, g, est)
    return 1.0 - float((fit ** 2).sum()) / denom


def evaluate(scenario: Scenario, est: BlockSparseEstimate,
             est_debiased: Optional[BlockSparseEstimate] = None,
             *, radius: float = 0.1) -> MetricsReport:
    """Score an estimate against the scenario's ground truth.

    An estimated source counts as a true positive when its position lies
    within ``radius`` of any true source (several estimates may match the
    same truth); the remainder are false positives. The reconstruction
    error is the Frobenius distance between the clean and the estimated
    sensor-space signals; ``rmse_debiased`` is NaN when no debiased
    estimate is supplied. Goodness of fit refers to the raw estimate.
    """
    g = scenario.design
    true_pos = scenario.positions[list(scenario.true_support)]

    tp = 0
    for s in est.active_set:
        dists = np.linalg.norm(true_pos - scenario.positions[s], axis=1)
        if dists.min() <= radius:
            tp += 1
    fp = est.n_active - tp

    signal = _forward(g, scenario.x_true)

    def rmse_of(e):
        _check_paired(scenario.m_avg, g, e)
        return float(np.linalg.norm(signal - _forward(g, e)))

    return MetricsReport(
        true_positives=tp,
        false_positives=fp,
        active_set_size=est.n_active,
        rmse=rmse_of(est),
        rmse_debiased=rmse_of(est_debiased) if est_debiased is not None else math.nan,
        gof=goodness_of_fit(scenario.m_avg, g, est),
    )


def krippendorff_alpha(selection: np.ndarray) -> float:
    """Chance-corrected agreement of binary codings (coders x units).

    Nominal-metric form ``alpha = 1 - D_o / D_e`` with the small-sample
    corrections: within-unit value coincidences are weighted by
    ``1 / (m - 1)`` for ``m`` coders, and the expected disagreement uses
    the pooled value counts over ``n = m * n_units`` total values,

        D_o = (2 / n) * sum_u ones_u * zeros_u / (m - 1)
        D_e = 2 * n_1 * n_0 / (n * (n - 1)).

    Returns 1.0 when every value agrees (zero expected disagreement).
    """
    sel = np.asarray(selection, dtype=bool)
    if sel.ndim != 2:
        raise ValueError("selection must be a 2-D coders-by-units matrix")
    m, n_units = sel.shape
    if m < 2:
        raise ValueError("need at least two coders")
    if n_units == 0:
        return 1.0
    ones = sel.sum(axis=0).astype(float)
    zeros = m - ones
    d_obs = 2.0 * float((ones * zeros).sum()) / (m - 1)
    n1 = float(ones.sum())
    n0 = float(zeros.sum())
    n = float(m * n_units)
    d_exp = 2.0 * n1 * n0 / (n - 1)
    if d_exp == 0.0:
        return 1.0
    return 1.0 - d_obs / d_exp


@dataclass(frozen=True, repr=False, eq=False)
class StabilityReport:
    """Support selections across resamples and their agreement score."""

    selection_matrix: np.ndarray
    selection_probability: np.ndarray
    krippendorff_alpha: float

    def to_dict(self) -> dict:
        return {
            "krippendorff_alpha": self.krippendorff_alpha,
            "selection_probability": self.selection_probability.tolist(),
            "selection_matrix": self.selection_matrix.astype(int).tolist(),
        }

    def __repr__(self):
        return (
            f"StabilityReport(n_resamples={self.selection_matrix.shape[0]}, "
            f"alpha={self.krippendorff_alpha:.3f})"
        )


def solve_with_method(m: Measurements, g: BlockDesign, lam_fraction: float,
                      config: SolverConfig, method: str) -> BlockSparseEstimate:
    """Dispatch to the convex or the reweighted solver by name, at
    ``lam_fraction`` of the data's own ``lambda_max``."""
    # looked up at call time, so a rebound mxne.lambda_max sees every call
    lam = lam_fraction * mxne.lambda_max(m, g)
    if method == "mxne":
        return solve_active_set(m, g, None, lam, config)[0]
    if method == "irmxne":
        return solve_irmxne(m, g, lam, config)[0]
    raise ValueError(f"unknown method {method!r}; expected 'mxne' or 'irmxne'")


def _resample_size(fraction: float, n_resamples: int, n_trials: int) -> int:
    """Trials per resample, after the checks of :func:`resample_stability`."""
    if not 0 < fraction < 1 or round(fraction * n_trials) < 1:
        raise ValueError(f"resample fraction {fraction} of {n_trials} trials "
                         "is not in (0, 1) or leaves no usable subset")
    if n_resamples < 2:
        raise ValueError(f"need at least two resamples, got {n_resamples}")
    return int(round(fraction * n_trials))


def resample_stability(scenario: Scenario, fraction: float, n_resamples: int,
                       lam_fraction: float, config: SolverConfig, *,
                       method: str = "mxne",
                       rng_seed: int = 0) -> StabilityReport:
    """Support stability over random trial subsets.

    Each resample averages a without-replacement fraction of the trials,
    solves with the requested method at ``lam_fraction`` of that
    subsample's own zero-solution threshold, and records the selected
    support. Krippendorff's alpha treats resamples as coders and
    restricts the units to locations selected at least once.
    """
    n_trials = scenario.trials.shape[0]
    k = _resample_size(fraction, n_resamples, n_trials)
    rng = np.random.default_rng(rng_seed)
    s = scenario.design.n_locations
    selection = np.zeros((n_resamples, s), dtype=np.uint8)
    for r in range(n_resamples):
        idx = rng.choice(n_trials, size=k, replace=False)
        m_r = Measurements(scenario.trials[idx].mean(axis=0))
        est = solve_with_method(m_r, scenario.design, lam_fraction, config,
                                method)
        selection[r, list(est.active_set)] = 1

    seen = selection.any(axis=0)
    alpha = krippendorff_alpha(selection[:, seen])
    selection.setflags(write=False)
    probability = selection.mean(axis=0)
    probability.setflags(write=False)
    return StabilityReport(
        selection_matrix=selection,
        selection_probability=probability,
        krippendorff_alpha=alpha,
    )
