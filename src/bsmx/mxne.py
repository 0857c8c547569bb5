"""Convex mixed-norm solver.

Minimizes ``0.5 * ||M - G X||_Fro^2 + lam * sum_s ||X_s||_Fro`` over
block-partitioned coefficients. The workhorse is cyclic block coordinate
descent with closed-form per-block updates and Anderson extrapolation
(:func:`solve_bcd`), wrapped in a forward active-set strategy
(:func:`solve_active_set`) that certifies optimality on the full problem
through the duality gap.

``lam`` may be a scalar or a per-location vector; the vector form solves
the weighted-penalty problem ``... + sum_s lam[s] * ||X_s||_Fro``.
Every entry point checks its inputs with :func:`_check_inputs`; every
certificate, full or restricted, is a report of :func:`_gap`. Small
restricted problems are solved in Gram form (:func:`solve_bcd`), and the
certificate of such a solve is a gap on a fresh residual.

The working-set driver's full check on a design of more than
``_SCORE_CHUNK`` locations screens the scores ``||G_s^T R||_Fro`` in
float32 (:class:`_Screen`) and rescores in float64 every location whose
error interval can matter, so its dual scale, gap and picks are bit for
bit those of the float64 scores.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from . import io
from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    SolverConfig,
    _change_time_basis,
    _check_paired,
    _compress_time,
    _forward_rows,
    _pack,
    _scale_blocks,
    _unpack,
    residual,
)
from .prox import _check_blocks, _location_norms, block_lipschitz_all

__all__ = [
    "GapReport",
    "ConvergenceTrace",
    "IterationLimitError",
    "primal_objective",
    "dual_objective",
    "duality_gap",
    "lambda_max",
    "solve_bcd",
    "solve_active_set",
]

# maintained residuals are rebuilt from scratch this often to bound drift
_RESYNC_EVERY = 50
# solve_bcd solves in Gram form when its candidate columns number at most
# this fraction of min(n_sensors, n_times) ...
_REDUCED_FRACTION = 0.5
# ... and this many ulps of ||M||_Fro^2, the roundoff of a Gram-form
# ||R||^2, fit within gap_tol
_REDUCED_ULPS = 64
# after an expansion, inner solves stop at this fraction of the full gap
_INNER_TOL_RATIO = 0.3
# the first expansion adds this many locations, and every later one at least
# this many: the set doubles anyway, so it only shifts the expansion count
_FIRST_BATCH = 10
# solve_bcd extrapolates its iterates after every this many sweeps
_ANDERSON_K = 5
# locations per G^T R product when scoring: bounds the product's temporary
_SCORE_CHUNK = 1024
# a gap within this many ulps of the primal is its roundoff and certifies
_ROUNDOFF_ULPS = 4
# unit roundoff of float32 and float64, and the smallest normal float32
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
_TINY32 = float(np.finfo(np.float32).tiny)


class IterationLimitError(RuntimeError):
    """An iteration cap was exceeded before reaching the gap tolerance.

    Carries the last iterate and its gap so callers can inspect or resume.
    When raised out of ``solve_irmxne``, ``state`` holds the reweighting
    state reached; otherwise it is None.
    """

    def __init__(self, message: str, estimate: Optional[BlockSparseEstimate] = None,
                 gap: Optional[float] = None):
        super().__init__(message)
        self.estimate = estimate
        self.gap = gap
        self.state = None


@dataclass(frozen=True)
class GapReport:
    """Primal and dual objective values and their gap."""

    primal: float
    dual: float
    gap: float


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    gap: float
    active_size: int
    primal: float
    seconds: float


@dataclass
class ConvergenceTrace:
    """Per-iteration solver progress; serializes to CSV.

    ``seconds`` of a row counts from the trace's creation, so it never
    decreases, however many solver calls share the trace.
    """

    rows: List[TraceRow] = field(default_factory=list)
    started: float = field(init=False, default_factory=time.perf_counter,
                           repr=False, compare=False)

    def add(self, gap: float, active_size: int, primal: float):
        self.rows.append(
            TraceRow(len(self.rows), float(gap), int(active_size),
                     float(primal), time.perf_counter() - self.started)
        )

    @property
    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("trace is empty")
        return self.rows[-1]

    def to_csv(self, path):
        io._write_csv(
            path, ["iter", "gap", "active_size", "primal", "seconds"],
            ([row.iteration, f"{row.gap:.17g}", row.active_size,
              f"{row.primal:.17g}", f"{row.seconds:.6f}"]
             for row in self.rows))

    def __len__(self):
        return len(self.rows)


def _check_inputs(m: Measurements, g: BlockDesign, lam, est=None,
                  gap_tol=None, candidates=None) -> Tuple[np.ndarray, np.ndarray]:
    """Check that data, design and estimate are paired, that ``lam`` is a
    positive finite scalar or per-location vector and that ``gap_tol`` (if
    given) is positive and finite. Returns the per-location ``lam`` vector and the
    candidates, any iterable of location indices (all of them by default),
    as one sorted int array: duplicates and order are ignored."""
    _check_paired(m, g, est)
    if gap_tol is not None and not 0 < gap_tol < np.inf:
        raise ValueError("gap_tol must be positive and finite")
    n_loc = g.n_locations
    lam_vec = np.asarray(lam, dtype=float)
    if lam_vec.ndim == 0:
        lam_vec = np.full(n_loc, float(lam_vec))
    elif lam_vec.shape != (n_loc,):
        raise ValueError(f"lam must be a scalar or a vector of length {n_loc}")
    if not np.all(lam_vec > 0) or not np.all(np.isfinite(lam_vec)):
        raise ValueError("lam must be positive and finite")
    if candidates is None:
        return lam_vec, np.arange(n_loc)
    cand = np.unique(np.fromiter(candidates, dtype=int))
    if cand.size and (cand[0] < 0 or cand[-1] >= n_loc):
        raise ValueError("candidate index out of range")
    return lam_vec, cand


def _primal(sq_residual: float, coef: np.ndarray, lam_vec: np.ndarray,
            n_orient: int) -> float:
    """Primal objective from the squared residual norm ``||R||_Fro^2`` and
    packed coefficients."""
    pen = float(lam_vec @ _location_norms(coef, n_orient))
    return 0.5 * sq_residual + pen


def _scores(gt: np.ndarray, r: np.ndarray, n_orient: int,
            chunk: Optional[int] = None) -> np.ndarray:
    """Scores ``||G_s^T R||_Fro`` of the locations whose rows of ``G^T``
    ``gt`` holds, one product per ``chunk`` (``_SCORE_CHUNK``) locations in
    the dtype of ``r``; a float64 ``r`` copies nothing."""
    rows = (chunk or _SCORE_CHUNK) * n_orient
    norms = np.empty(gt.shape[0] // n_orient)
    for start in range(0, gt.shape[0], rows):
        q = gt[start:start + rows].astype(r.dtype, copy=False) @ r
        norms[start // n_orient:(start + rows) // n_orient] = _location_norms(
            q.astype(float, copy=False), n_orient)
    return norms


def _gamma(k: int, u: float) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: the relative error bound of
    a ``k``-term dot product in arithmetic of unit roundoff ``u``."""
    return k * u / (1.0 - k * u)


def _screen_norms(g: BlockDesign, lips: np.ndarray) -> Optional[np.ndarray]:
    """Upper bounds ``sqrt(n_orient * L_s)`` on ``||G_s||_Fro`` from the
    block constants ``lips`` (``||G_s||_Fro^2`` sums at most ``n_orient``
    squared singular values, each at most ``L_s``), or None for a design
    scored in float64 alone: one within one ``_SCORE_CHUNK``, or one
    whose float32 products could overflow."""
    if g.n_locations <= _SCORE_CHUNK:
        return None
    bound = np.sqrt(g.n_orient * lips)
    # every partial sum of G^T R, with R scaled to entries of at most 1,
    # then stays below n * max |G| <= n * max ||G_s||_Fro <= n * max bound
    return bound if bound.max() * g.n_sensors < 2.0 ** 100 else None


class _Screen:
    """Scores ``||G_s^T R||_Fro`` of every location, screened in float32.

    ``approx[s]`` is within ``err[s]`` of the float64 score, and equal to
    it where ``err[s]`` is 0. :func:`_scores` converts the rows of ``G^T``
    to float32 half a ``_SCORE_CHUNK`` at a time, and ``R`` is scaled by a
    power of two, so no float32 copy of the design stays resident.

    By Higham's dot-product bound (Accuracy and Stability of Numerical
    Algorithms, section 3.1), with ``n`` sensors and ``O * T`` entries
    per location, ``err[s] = delta * b_s * ||R||_Fro + alpha_s`` with
    ``b_s >= ||G_s||_Fro`` (:func:`_screen_norms`): ``delta`` covers the
    float32 product with its two conversions and the float64 product and
    norms it is compared with; ``alpha_s`` covers float32 underflow, even
    where subnormals are flushed to zero.
    """

    def __init__(self, gt: np.ndarray, r: np.ndarray, n_orient: int,
                 bound: np.ndarray):
        self.gt, self.r, self.n_orient = gt, r, n_orient
        n, t = r.shape
        self.approx, self.err = np.zeros(bound.size), np.zeros(bound.size)
        r_max = float(np.abs(r).max(initial=0.0))
        if r_max == 0.0:
            return
        # a power of two: the scaled entries lie in [0.5, 1) in magnitude
        scale = 2.0 ** -np.frexp(r_max)[1]
        r32 = (r * scale).astype(np.float32)
        # half a chunk per product: its float32 rows, float32 product and
        # float64 copy then take no more memory than a float64 chunk
        self.approx = _scores(gt, r32, n_orient,
                              max(1, _SCORE_CHUNK // 2)) / scale
        delta = _gamma(n + 2, _U32) + _gamma(n + 2 * n_orient * t + 8, _U64)
        alpha = 8.0 * _TINY32 * n * np.sqrt(n_orient * t) / scale
        self.err = delta * bound * float(np.sqrt((r * r).sum())) \
            + alpha * (1.0 + bound)

    def exact(self, upper: np.ndarray, floor: float) -> np.ndarray:
        """Float64 scores of the locations whose ``upper`` reaches
        ``floor``, and ``-inf`` elsewhere.

        ``upper[s]`` must be a key increasing in the score, taken at the
        upper end ``approx + err`` of its interval, so every location left
        out has a float64 key below ``floor``. Each location is rescored
        at most once, with its own float64 product: a BLAS may round a row
        differently with other rows beside it, and this product is the one
        :func:`_scores` forms with one location per chunk.
        """
        need = upper >= floor
        o = self.n_orient
        for s in np.flatnonzero(need & (self.err > 0)):
            self.approx[s] = _scores(self.gt[s * o:(s + 1) * o], self.r, o)[0]
            self.err[s] = 0.0
        return np.where(need, self.approx, -np.inf)


def _scaled_dual(r: np.ndarray, gt: np.ndarray, lam_vec: np.ndarray,
                 n_orient: int, bound: Optional[np.ndarray] = None,
                 ) -> Tuple[np.ndarray, Union[np.ndarray, _Screen]]:
    """Feasible dual point of a residual and the scores ``||G_s^T R||_Fro``.

    ``gt`` holds the rows of ``G^T`` of the locations ``lam_vec`` covers.
    The point is ``Y = R / max(max_s ||G_s^T R||_Fro / lam_s, 1)``. With
    ``bound`` (:func:`_screen_norms`) the scores are a :class:`_Screen`;
    every location left out of its float64 rescoring has an upper ratio
    below the largest lower ratio or 1, so the point is the float64 one.
    """
    if bound is None:
        norms = _scores(gt, r, n_orient)
        ratios = norms / lam_vec
    else:
        norms = _Screen(gt, r, n_orient, bound)
        lower = (norms.approx - norms.err) / lam_vec
        ratios = norms.exact((norms.approx + norms.err) / lam_vec,
                             lower.max(initial=1.0)) / lam_vec
    return r / float(ratios.max(initial=1.0)), norms


def _gap(m: Measurements, r: Union[np.ndarray, Tuple[float, float, np.ndarray]],
         coef: np.ndarray, coef_lam: np.ndarray, gt: np.ndarray,
         lam_vec: np.ndarray, n_orient: int,
         bound: Optional[np.ndarray] = None,
         ) -> Tuple[GapReport, Union[np.ndarray, _Screen]]:
    """Duality gap of the packed ``X_C`` (penalty ``coef_lam``) with
    residual ``R = M - G_C X_C``, and the scores ``||G_s^T R||_Fro``.

    ``gt`` holds the rows of ``G^T`` of the locations the problem ranges
    over (all of them, or a restricted problem's candidates ``C``) and
    ``lam_vec`` their penalty. The scores are the violation scores. Only
    the driver's full check passes ``bound``: its scores are then screened
    in float32 (:func:`_scaled_dual`), and its report is, bit for bit,
    the one its float64 scores give. Restricted gaps, :func:`duality_gap`
    and :func:`lambda_max` stay in float64 alone.

    A restricted problem in Gram form (:func:`solve_bcd`) passes, in place
    of ``R``, its statistics ``(||R||_Fro^2, <R, M>, scores)``, and
    ``gt`` is not read: the dual point ``R / a`` then has the objective
    ``<R, M> / a - ||R||_Fro^2 / (2 a^2)``.
    """
    if isinstance(r, tuple):
        sq_residual, r_dot_m, norms = r
        scale = float((norms / lam_vec).max(initial=1.0))
        dual = r_dot_m / scale - 0.5 * sq_residual / (scale * scale)
    else:
        y, norms = _scaled_dual(r, gt, lam_vec, n_orient, bound)
        sq_residual, dual = float((r * r).sum()), dual_objective(m, y)
    primal = _primal(sq_residual, coef, coef_lam, n_orient)
    return GapReport(primal=primal, dual=dual, gap=primal - dual), norms


def _full_gap(m: Measurements, g: BlockDesign, est: BlockSparseEstimate,
              lam_vec: np.ndarray, bound: Optional[np.ndarray] = None,
              ) -> Tuple[GapReport, Union[np.ndarray, _Screen]]:
    """:func:`_gap` of ``est`` on the full problem, the check of
    :func:`duality_gap` and of the working-set driver."""
    return _gap(m, residual(m, g, est), est.coef,
                lam_vec[list(est.active_set)], g.entries.T, lam_vec,
                g.n_orient, bound)


def _certified(report: GapReport, gap_tol: float) -> bool:
    """Whether a gap report certifies at ``gap_tol``: its gap is below
    ``gap_tol`` or within ``_ROUNDOFF_ULPS`` ulps of the primal, the
    roundoff below which a gap cannot be resolved. Every stop test of
    every solver is this one."""
    floor = _ROUNDOFF_ULPS * np.finfo(float).eps * abs(report.primal)
    return report.gap < max(gap_tol, floor)


def primal_objective(m: Measurements, g: BlockDesign, est: BlockSparseEstimate,
                     lam: Union[float, np.ndarray]) -> float:
    """Value of ``0.5 * ||M - G X||_Fro^2 + sum_s lam_s ||X_s||_Fro``."""
    lam_vec, _ = _check_inputs(m, g, lam, est)
    r = residual(m, g, est)
    return _primal(float((r * r).sum()), est.coef,
                   lam_vec[list(est.active_set)], g.n_orient)


def dual_objective(m: Measurements, y: np.ndarray) -> float:
    """Dual objective ``-0.5 * ||Y||_Fro^2 + Tr(Y^T M)``.

    Feasibility of ``y`` (``||G_s^T Y||_Fro <= lam_s`` for every location)
    is the caller's contract.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != m.entries.shape:
        raise ValueError(
            f"dual variable has shape {y.shape}, expected {m.entries.shape}"
        )
    return float((y * m.entries).sum() - 0.5 * (y * y).sum())


def duality_gap(m: Measurements, g: BlockDesign, est: BlockSparseEstimate,
                lam: Union[float, np.ndarray]) -> GapReport:
    """Duality gap of an estimate on the full problem.

    Nonnegative up to roundoff, zero exactly at the optimum, and an upper
    bound on the primal suboptimality of ``est``.
    """
    lam_vec, _ = _check_inputs(m, g, lam, est)
    return _full_gap(m, g, est, lam_vec)[0]


def lambda_max(m: Measurements, g: BlockDesign) -> float:
    """Smallest regularization weight for which the zero estimate is optimal.

    From the optimality condition at zero: ``max_s ||G_s^T M||_Fro``. Any
    weight at or above this value yields an empty support. Data with more
    time points than sensors is compressed first (``M = U S V^T``, scored
    as ``G^T U S``), which leaves every score unchanged.
    """
    _check_paired(m, g)
    m, _ = _compress_time(m)
    return float(_scores(g.entries.T, m.entries, g.n_orient).max())


def solve_bcd(
    m: Measurements,
    g: BlockDesign,
    init: Optional[BlockSparseEstimate],
    lam: Union[float, np.ndarray],
    gap_tol: float,
    *,
    candidates: Optional[Iterable[int]] = None,
    max_iter: int = SolverConfig.max_bcd_iter,
    trace: Optional[ConvergenceTrace] = None,
) -> Tuple[BlockSparseEstimate, ConvergenceTrace]:
    """Cyclic block coordinate descent with Anderson extrapolation.

    Solves the problem restricted to a fixed candidate set. The candidate
    coefficients are held as one contiguous
    ``(|candidates| * n_orient, n_times)`` array next to a contiguous copy
    of the candidate design columns. Each sweep visits the candidate
    locations in ascending order and applies the closed-form update: a
    gradient step of length ``1 / L_s`` followed by group
    soft-thresholding. The step is derived, not passed in:
    ``L_s = ||G_s^T G_s||`` is computed once per design, for every call
    (:func:`bsmx.prox.block_lipschitz_all`). The residual is updated
    incrementally after each block change and recomputed with one product
    every ``_RESYNC_EVERY`` (50) sweeps to bound drift.

    Every ``_ANDERSON_K`` (5) sweeps the last iterates are extrapolated
    (Anderson acceleration of coordinate descent; Bertrand and Massias,
    2021). Blocks that are zero in the current iterate stay zero, the
    residual of the extrapolated point is computed afresh, and the point
    replaces the iterate only if it is finite and lowers the restricted
    primal objective.

    Each pass evaluates the duality gap of the restricted problem, then
    extrapolates if due, then sweeps; iteration stops when the gap
    certifies (:func:`_certified`). Every trace row is therefore the gap
    of an iterate a sweep produced, and a call adds one row more than it
    runs sweeps, plus the confirming row below if it ran in Gram form.
    That gap is the full check's :func:`_gap` over the candidates' rows of
    ``G^T``, fresh residuals use :func:`bsmx.model._forward_rows`, and the
    inputs pass :func:`_check_inputs`, as in every entry point. With no
    candidates, the zero estimate is certified with a gap of exactly 0.

    Small candidate sets ``C`` are solved in Gram form, where the problem
    sees the data only through ``Q = G_C^T G_C``, ``B = G_C^T M`` and
    ``||M||_Fro^2``. A call takes it when its entry pass, always on a
    fresh residual, does not certify, and when
    ``|C| * n_orient <= _REDUCED_FRACTION * min(n_sensors, n_times)``
    (0.5) and ``_REDUCED_ULPS * eps * ||M||_Fro^2 <= gap_tol`` (64): the
    ``||R||_Fro^2`` of the Gram form carries roundoff of about
    ``eps * ||M||_Fro^2``. Its state is then ``H = B - Q X = G_C^T R`` in
    place of ``R``: a block step reads ``H_s`` and adds
    ``Q[:, s] (X_s_old - X_s_new)`` to ``H``, and the resync and the
    Anderson check rebuild ``H`` as ``B - Q X``. Its gaps are :func:`_gap`
    of ``||R||^2 = ||M||^2 - <B, X> - <X, H>``, ``<R, M> = ||M||^2 -
    <B, X>`` and the scores ``||H_s||_Fro``. When such a gap certifies, or
    the sweep cap is reached, the pass is evaluated again on a fresh
    residual of the same iterate; that row is the call's certificate (or
    the gap its ``IterationLimitError`` carries), and if it does not
    certify, the call goes on in residual form.

    Parameters
    ----------
    init : BlockSparseEstimate or None
        Warm-start values. Its support must lie within ``candidates``.
    candidates : iterable of int, optional
        Locations the sweep may update, duplicates and order ignored; held
        as one sorted int array. Defaults to all locations.

    Returns
    -------
    estimate, trace
        The estimate is gap-certified on the problem restricted to the
        candidate set; exact-zero blocks are dropped.

    Raises
    ------
    ValueError
        If a candidate location has an all-zero design block, whose step
        length would be undefined.
    IterationLimitError
        If ``max_iter`` sweeps pass without reaching the tolerance. The
        error carries the last iterate and its gap.
    """
    lam_vec, cand = _check_inputs(m, g, lam, init, gap_tol, candidates)
    n_loc, n_orient, n_times = g.n_locations, g.n_orient, m.n_times
    if trace is None:
        trace = ConvergenceTrace()

    n_cand = len(cand)
    steps = 1.0 / _check_blocks(block_lipschitz_all(g)[cand], cand)
    # contiguous copy; g_cand_t[i * O:(i + 1) * O] is G_s^T of candidate i
    g_cand_t = g.entries.T[g.column_indices(cand)]

    x = _pack(init, cand, n_orient, n_times)
    x_blocks = x.reshape(n_cand, n_orient * n_times)
    active = x_blocks.any(axis=1).tolist()
    lam_cand = lam_vec[cand]
    x_flat = x.reshape(-1)
    # row 0: iterate at the start of the window; row k: change of sweep k
    history = np.empty((_ANDERSON_K + 1, x.size))
    rows = [slice(i * n_orient, (i + 1) * n_orient) for i in range(n_cand)]
    # per block: what reads G_s^T R off the state and what writes a block
    # change into it, G_s^T and G_s in residual form
    residual_blocks = [
        (i, g_cand_t[sl], g_cand_t[sl].T, x[sl], steps[i],
         steps[i] * lam_cand[i])
        for i, sl in enumerate(rows)
    ]

    qualifies = (n_cand * n_orient
                 <= _REDUCED_FRACTION * min(g.n_sensors, n_times))
    if qualifies:
        sq_data = float((m.entries * m.entries).sum())
        qualifies = _REDUCED_ULPS * np.finfo(float).eps * sq_data <= gap_tol
    # the state is R, or in Gram form H = B - Q X = G_C^T R with
    # Q = G_C^T G_C and B = G_C^T M, formed when the call enters that form
    reduced, blocks, q, b = False, residual_blocks, None, None

    def fresh_state(coef):
        if reduced:
            return b - q @ coef
        return m.entries - _forward_rows(g_cand_t, coef)

    def statistics(h, coef):
        """``(||R||^2, <R, M>)`` of ``coef`` from its Gram state ``h``:
        ``<R, M> = ||M||^2 - <B, X>`` and ``||R||^2 = <R, M> - <X, H>``."""
        r_dot_m = sq_data - float((b * coef).sum())
        return r_dot_m - float((coef * h).sum()), r_dot_m

    def extrapolate(primal):
        """Anderson point of the last window and its state, or None if it
        is no better."""
        diffs = history[1:]
        gram = diffs @ diffs.T
        gram.flat[::_ANDERSON_K + 1] += 1e-12 * np.trace(gram)
        try:
            z = np.linalg.solve(gram, np.ones(_ANDERSON_K))
        except np.linalg.LinAlgError:
            return None
        with np.errstate(all="ignore"):
            c = z / z.sum()
            # sum_k c_k x_k with x_k = base + diffs[0] + ... + diffs[k-1]
            weights = np.cumsum(c[::-1])[::-1]
            x_e = (weights @ diffs + history[0]).reshape(x.shape)
        x_e.reshape(n_cand, -1)[np.logical_not(active)] = 0.0
        if not np.isfinite(x_e).all():
            return None
        state_e = fresh_state(x_e)
        sq_residual = (statistics(state_e, x_e)[0] if reduced
                       else float((state_e * state_e).sum()))
        if not _primal(sq_residual, x_e, lam_cand, n_orient) < primal:
            return None
        return x_e, state_e

    state = fresh_state(x)
    sweeps = 0
    while True:
        if reduced:
            r = (*statistics(state, x), _location_norms(state, n_orient))
        else:
            r = state
        report, _ = _gap(m, r, x, lam_cand, g_cand_t, lam_cand, n_orient)
        primal, gap = report.primal, report.gap
        trace.add(gap, sum(active), primal)
        certified = _certified(report, gap_tol)
        if reduced and (certified or sweeps >= max_iter):
            # the pass again on a fresh residual of the same iterate: it
            # certifies the call, or the call goes on in residual form
            reduced, blocks = False, residual_blocks
            state = fresh_state(x)
            continue
        if certified:
            break
        if sweeps >= max_iter:
            raise IterationLimitError(
                f"coordinate descent did not reach gap {gap_tol:g} within "
                f"{max_iter} sweeps (gap={gap:.3e})",
                estimate=_unpack(x, cand, n_loc, n_orient),
                gap=gap,
            )
        if qualifies and not sweeps:
            # the entry pass did not certify: sweep in Gram form, reading
            # rows s of H and writing through columns s of Q
            q, b = g_cand_t @ g_cand_t.T, g_cand_t @ m.entries
            reduced = True
            blocks = [(i, sl, q[:, sl], x_s, step, thr)
                      for (i, _, _, x_s, step, thr), sl
                      in zip(residual_blocks, rows)]
            state = fresh_state(x)
        k = sweeps % _ANDERSON_K
        if k == 0:
            if sweeps:
                accepted = extrapolate(primal)
                if accepted is not None:
                    x_e, state = accepted
                    x[...] = x_e
                    active = x_blocks.any(axis=1).tolist()
            history[0] = x_flat
        history[k + 1] = x_flat
        for i, read, write, x_s, step, thr in blocks:
            x_bar = x_s + step * (state[read] if reduced else read @ state)
            norm = np.sqrt((x_bar * x_bar).sum())
            if norm <= thr:
                if active[i]:
                    state += write @ x_s
                    x_s.fill(0.0)
                    active[i] = False
                continue
            x_bar *= 1.0 - thr / norm
            state += write @ (x_s - x_bar)
            x_s[...] = x_bar
            active[i] = True
        np.subtract(x_flat, history[k + 1], out=history[k + 1])
        sweeps += 1
        if sweeps % _RESYNC_EVERY == 0:
            state = fresh_state(x)

    return _unpack(x, cand, n_loc, n_orient), trace


def _top_violators(norms: Union[np.ndarray, _Screen], lam_vec: np.ndarray,
                   blocked: np.ndarray, batch: int) -> np.ndarray:
    """At most ``batch`` unblocked locations with the largest positive
    violation ``||G_s^T R||_Fro - lam_s``, ties toward the lower index.

    Screened scores are rescored in float64 wherever the upper violation
    reaches ``max(0, batch-th largest lower violation)`` among unblocked
    locations; every other location falls strictly below every pick, so
    the picks and their order are the float64 ones."""
    if isinstance(norms, _Screen):
        lower = np.where(blocked, -np.inf, norms.approx - norms.err - lam_vec)
        upper = np.where(blocked, -np.inf, norms.approx + norms.err - lam_vec)
        kth = (np.partition(lower, -batch)[-batch] if batch <= lower.size
               else -np.inf)
        norms = norms.exact(upper, max(kth, 0.0))
    excess = norms - lam_vec
    # the stable sort keeps the order of the others past a blocked -inf
    excess[blocked] = -np.inf
    order = np.argsort(-excess, kind="stable")[:batch]
    return order[excess[order] > 0]


def solve_active_set(
    m: Measurements,
    g: BlockDesign,
    warm: Optional[BlockSparseEstimate],
    lam: Union[float, np.ndarray],
    config: SolverConfig,
    *,
    inner: str = "bcd",
    trace: Optional[ConvergenceTrace] = None,
) -> Tuple[BlockSparseEstimate, ConvergenceTrace]:
    """Solve the full problem with a forward working-set strategy.

    Starting from the warm-start support (or the largest correlation
    scores when there is none), the driver alternates between solving the
    problem restricted to the current candidate set and certifying the
    result on the full problem via the duality gap, expanding the set with
    the top violating locations until the full gap passes ``gap_tol``.

    The policy follows the working-set scheme of Celer (Massias, Gramfort
    and Salmon, 2018):

    - Growth: each expansion adds up to ``max(10, len(candidates))`` top
      violators, so the candidate set at least doubles while violators
      remain.
    - Inner tolerance: after an expansion that added candidates, the
      restricted solve stops at ``max(gap_tol, 0.3 * full_gap)``, where
      ``full_gap`` is the certificate just computed; otherwise it runs to
      ``gap_tol`` itself. Both inner solvers follow the same rule.
    - Certificate: only the full-problem gap certifies. An estimate is
      returned once that gap is below ``gap_tol``, or within
      ``_ROUNDOFF_ULPS`` (4) ulps of the primal, where roundoff hides any
      smaller gap at large data scales; a loose restricted solve never
      ends the loop.
    - Scoring: on a design of more than ``_SCORE_CHUNK`` (1024)
      locations, each full check scores the locations in float32 under
      a rigorous error bound and rescores in float64 those that can set
      the dual scale or enter the batch (:class:`_Screen`). The gap, the
      picks and their order are the float64 ones. Its error bound reads
      ``||G_s||_Fro <= sqrt(n_orient * L_s)`` off the block constants.

    The candidate set only grows within one call; all-zero design blocks
    are excluded from candidacy with a warning. Determinism: sweeps run in
    ascending location order and ties in violator selection break toward
    the lower index.

    Long epochs are compressed once at entry and mapped back once at exit,
    as in :func:`bsmx.irmxne.solve_irmxne`: when ``n_times > n_sensors``,
    the working-set loop runs exactly on ``U S`` of the thin SVD
    ``M = U S V^T``, with the warm start mapped in as ``X V``. The returned
    estimate, and the one an ``IterationLimitError`` carries, are mapped
    back as ``Z V^T`` and so stay in full time; the primal, dual and gap
    in the trace are those of the full problem.

    Parameters
    ----------
    inner : {"bcd", "pgd"}
        Inner solver for the restricted subproblems: block coordinate
        descent (default) or the accelerated proximal-gradient reference
        solver (used for benchmarking).

    Raises
    ------
    IterationLimitError
        If the outer loop exceeds ``n_locations // 10 + 10`` expansions,
        or an inner solve exceeds its own cap.
    """
    lam_vec, _ = _check_inputs(m, g, lam, warm)
    if inner not in ("bcd", "pgd"):
        raise ValueError(f"unknown inner solver {inner!r}")
    m, vt = _compress_time(m)
    if vt is not None:
        warm = _change_time_basis(warm, vt.T)
    n_loc, n_orient, n_times = g.n_locations, g.n_orient, m.n_times

    lips = block_lipschitz_all(g)
    valid = lips > 0
    if not valid.all():
        warnings.warn(
            f"excluding {int((~valid).sum())} all-zero design blocks from "
            "the candidate set",
            RuntimeWarning,
            stacklevel=2,
        )

    if warm is None:
        est = BlockSparseEstimate.empty(n_loc, n_orient, n_times)
    else:
        # blocks of excluded locations are scaled to zero and dropped
        est = _scale_blocks(warm, valid[list(warm.active_set)])

    if trace is None:
        trace = ConvergenceTrace()

    in_set = np.zeros(n_loc, dtype=bool)
    in_set[list(est.active_set)] = True
    outer_cap = n_loc // _FIRST_BATCH + 10
    bound = _screen_norms(g, lips)
    try:
        for outer in range(outer_cap + 1):
            report, norms = _full_gap(m, g, est, lam_vec, bound)
            trace.add(report.gap, est.n_active, report.primal)
            if _certified(report, config.gap_tol):
                return _change_time_basis(est, vt), trace
            if outer == outer_cap:
                raise IterationLimitError(
                    f"active-set strategy did not converge within "
                    f"{outer_cap} expansions (gap={report.gap:.3e})",
                    estimate=est,
                    gap=report.gap,
                )
            batch = max(_FIRST_BATCH, int(in_set.sum()))
            new = _top_violators(norms, lam_vec, in_set | ~valid, batch)
            in_set[new] = True
            cand = np.flatnonzero(in_set)
            # the top violator is now a candidate, so (for a scalar lam) the
            # restricted gap starts at the full gap and a loose solve still
            # shrinks it by at least 0.7x
            inner_tol = (max(config.gap_tol, _INNER_TOL_RATIO * report.gap)
                         if new.size else config.gap_tol)
            if inner == "bcd":
                est, _ = solve_bcd(
                    m, g, est, lam_vec, inner_tol, candidates=cand,
                    max_iter=config.max_bcd_iter, trace=trace,
                )
            else:
                from .oracle import solve_proximal_gradient

                est = solve_proximal_gradient(
                    m, g, lam_vec, inner_tol, candidates=cand, init=est,
                    max_iter=config.max_bcd_iter,
                )
    except IterationLimitError as exc:
        exc.estimate = _change_time_basis(exc.estimate, vt)
        raise
    raise AssertionError("unreachable")
