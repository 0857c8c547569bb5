"""Iteratively reweighted mixed-norm solver.

Minimizes the non-convex objective
``0.5 * ||M - G X||_Fro^2 + lam * sum_s sqrt(||X_s||_Fro)``
by solving a sequence of convex mixed-norm surrogates. Each outer
iteration puts the per-location penalty ``lam / w_s`` on the unscaled
design, with weights ``w`` derived from the previous estimate
(majorize-minimize with a linearized square-root penalty), so the
penalty weights never need epsilon smoothing: locations whose weight hits
zero are simply dropped from the candidate set and never re-enter.

Iteration 1 uses unit weights and the active-set solver: it solves the
plain convex mixed-norm problem. When it is the only iteration
(``max_reweight == 1``) it runs to ``gap_tol`` and returns exactly the
plain convex mixed-norm estimate; otherwise only its support and weights
are used, and it stops at the looser ``max(gap_tol, _FIRST_SOLVE_RTOL *
0.5 * ||M||_Fro^2)``. Every later reweight is one block coordinate
descent solve on the prior support, certified at ``gap_tol`` on its own
surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import io, mxne
from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    SolverConfig,
    _change_time_basis,
    _check_paired,
    _compress_time,
    _pack,
    _scale_blocks,
    residual,
)
from .mxne import (
    ConvergenceTrace,
    IterationLimitError,
    solve_active_set,
)
from .prox import _location_norms

__all__ = [
    "ReweightState",
    "nonconvex_objective",
    "compute_weights",
    "solve_irmxne",
]

# iteration 1 of several stops at this fraction of 0.5 * ||M||_Fro^2: the
# reweights use only its support and weights. Set by measurement: on the
# 306 x 8196 x 3 benchmark problem it gives 3.5e-3 for gap_tol = 1e-6,
# with the same reweight count, first support and final support.
_FIRST_SOLVE_RTOL = 1e-6


@dataclass(eq=False)
class ReweightState:
    """Bookkeeping of the outer reweighting loop.

    ``weights[k-1]`` holds the length-``n_locations`` weight vector used at
    outer iteration ``k``; the first entry is all ones. ``objective_trace``
    records the non-convex objective after each iteration. ``converged``
    is False when the iteration cap was exhausted before the stopping
    criterion fired (not an error; the last iterate is still returned).
    ``first_gap_tol`` is the gap tolerance iteration 1 stops at.
    """

    weights: List[np.ndarray] = field(default_factory=list)
    iteration: int = 0
    objective_trace: List[float] = field(default_factory=list)
    converged: bool = False
    first_gap_tol: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "converged": self.converged,
            "first_gap_tol": self.first_gap_tol,
            "objective_trace": [float(v) for v in self.objective_trace],
            "weights": [w.tolist() for w in self.weights],
        }

    def to_json(self, path):
        io._write_json(path, self.to_dict())


def _check_lam(lam):
    """Reject a ``lam`` that is not one positive finite number."""
    if np.ndim(lam) != 0:
        raise ValueError("lam must be a scalar")
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")


def nonconvex_objective(m: Measurements, g: BlockDesign,
                        est: BlockSparseEstimate, lam: float) -> float:
    """Value of ``0.5 * ||M - G X||_Fro^2 + lam * sum_s sqrt(||X_s||_Fro)``."""
    _check_lam(lam)
    r = residual(m, g, est)
    pen = np.sqrt(_location_norms(est.coef, est.n_orient)).sum()
    return 0.5 * float((r * r).sum()) + lam * float(pen)


def compute_weights(prev: BlockSparseEstimate) -> np.ndarray:
    """Per-location weights from the previous estimate.

    ``w[s] = 2 * sqrt(||X_s||_Fro)`` for active locations and exactly zero
    for inactive ones; no epsilon smoothing is applied.
    """
    w = np.zeros(prev.n_locations)
    w[list(prev.active_set)] = 2.0 * np.sqrt(
        _location_norms(prev.coef, prev.n_orient))
    return w


def _max_abs_change(est: BlockSparseEstimate, prev: BlockSparseEstimate,
                    vt: Optional[np.ndarray] = None) -> float:
    """Entrywise max-abs of ``densify(est) - densify(prev)``, bitwise.

    Only the union of the two supports is packed: every other entry is
    zero in both, and the difference there is zero. For estimates in
    compressed time (:func:`bsmx.model._compress_time`), ``vt`` maps the
    difference back to full time first: the entrywise max-abs is not
    invariant under that rotation.
    """
    union = np.union1d(est.active_set, prev.active_set)
    o, t = est.n_orient, est.n_times
    diff = _pack(est, union, o, t) - _pack(prev, union, o, t)
    if vt is not None:
        diff = diff @ vt
    return float(np.abs(diff).max(initial=0.0))


def _solve_surrogate(
    m: Measurements,
    g: BlockDesign,
    weights: np.ndarray,
    prev: BlockSparseEstimate,
    lam: float,
    config: SolverConfig,
    trace: ConvergenceTrace,
) -> BlockSparseEstimate:
    """One reweight ``k >= 2``: a single BCD solve on the prior support.

    Minimizes ``0.5 * ||M - G X||_Fro^2 + sum_s (lam / w_s) ||X_s||_Fro``
    over the locations ``C`` with ``w_s > 0``, warm-started from ``prev``.
    Every other location has weight zero (an infinite penalty), so the gap
    :func:`bsmx.mxne.solve_bcd` certifies on ``C`` is the surrogate's own.
    An active block of ``prev`` whose norm underflows has weight zero too
    and is left out of the warm start.
    """
    cand = np.flatnonzero(weights > 0)
    warm = _scale_blocks(prev, weights[list(prev.active_set)] > 0)
    # solve_bcd reads the penalty only on the candidates
    lam_vec = np.full(g.n_locations, lam)
    lam_vec[cand] /= weights[cand]
    est, _ = mxne.solve_bcd(m, g, warm, lam_vec, config.gap_tol,
                            candidates=cand, max_iter=config.max_bcd_iter,
                            trace=trace)
    return est


def solve_irmxne(
    m: Measurements, g: BlockDesign, lam: float, config: SolverConfig
) -> Tuple[BlockSparseEstimate, ReweightState, ConvergenceTrace]:
    """Run the reweighted outer loop to a fixed point of the weights.

    ``lam`` is the absolute regularization weight; every reweight keeps it.

    Iteration 1 solves the plain convex problem (unit weights, no warm
    start) with :func:`bsmx.mxne.solve_active_set`. With
    ``config.max_reweight > 1`` it stops at the gap tolerance
    ``max(config.gap_tol, _FIRST_SOLVE_RTOL * 0.5 * ||M||_Fro^2)``
    (``_FIRST_SOLVE_RTOL = 1e-6``), through the same stop test
    (:func:`bsmx.mxne._certified`): later iterations use only its support
    and weights, and each surrogate majorizes the objective at whatever
    estimate it starts from. With ``max_reweight == 1`` it runs to
    ``config.gap_tol`` and returns the plain mixed-norm estimate.
    ``state.first_gap_tol`` records the tolerance used. Iteration ``k >= 2``
    restricts the candidate set to locations with positive weight, all of
    them in the previous support, and solves the surrogate with
    per-location penalty ``lam / w_s`` on the unscaled design as one
    :func:`bsmx.mxne.solve_bcd` call, warm-started from the previous
    solution. The loop stops when the estimates of consecutive iterations
    differ by less than ``config.reweight_tol`` in entrywise max-abs, or
    after ``config.max_reweight`` iterations (returned with
    ``converged=False``).

    The non-convex objective trace is non-increasing up to roundoff: each
    surrogate majorizes the objective at the previous estimate, and the
    inner solver descends monotonically from its warm start.

    Long epochs are compressed automatically: when ``n_times >
    n_sensors``, every reweight is solved exactly on ``U S`` of one thin
    SVD ``M = U S V^T``. Weights, objectives and gaps do not change under
    ``V``; the stopping test and the returned estimate (also the one an
    ``IterationLimitError`` carries) are in full time.

    Raises
    ------
    IterationLimitError
        If an inner convex solve exceeds its cap. The error's ``state`` is
        the ``ReweightState`` reached: ``iteration`` counts the completed
        iterations, and ``weights`` also holds the failed iteration's.
    """
    _check_paired(m, g)
    _check_lam(lam)
    first_tol = config.gap_tol
    if config.max_reweight > 1:
        energy = 0.5 * float((m.entries * m.entries).sum())
        first_tol = max(first_tol, _FIRST_SOLVE_RTOL * energy)
    m, vt = _compress_time(m)
    trace = ConvergenceTrace()
    state = ReweightState(first_gap_tol=first_tol)

    prev = None
    try:
        for k in range(1, config.max_reweight + 1):
            if prev is None:
                state.weights.append(np.ones(g.n_locations))
                est, _ = solve_active_set(m, g, None, lam,
                                          replace(config, gap_tol=first_tol),
                                          trace=trace)
            else:
                weights = compute_weights(prev)
                state.weights.append(weights)
                est = _solve_surrogate(m, g, weights, prev, lam, config,
                                       trace)
            state.iteration = k
            state.objective_trace.append(nonconvex_objective(m, g, est, lam))
            state.converged = (prev is not None and _max_abs_change(
                est, prev, vt) < config.reweight_tol)
            prev = est
            if state.converged:
                break
    except IterationLimitError as exc:
        exc.state = state
        exc.estimate = _change_time_basis(exc.estimate, vt)
        raise

    return _change_time_basis(prev, vt), state, trace
