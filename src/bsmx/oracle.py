"""Reference solver used to validate the production coordinate descent.

Accelerated proximal gradient iterations on the full (or candidate-
restricted) coefficient matrix with a single global step length. Not
performance-tuned: it exists so that solver equivalence can be checked by
downstream users and so that timing comparisons against the active-set
coordinate descent can be reproduced from the benchmark command.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    _check_paired,
)
from .mxne import (
    IterationLimitError,
    _lam_vector,
    _pack,
    _primal,
    _scaled_dual,
    _unpack,
    dual_objective,
)
from .prox import prox_blocks

__all__ = ["global_lipschitz", "solve_proximal_gradient"]


def global_lipschitz(g: BlockDesign, *, tol: float = 1e-12,
                     max_iter: int = 1000, seed: int = 0) -> float:
    """Spectral norm of ``G^T G`` by power iteration.

    Deterministic: the start vector comes from a fixed-seed generator.
    Stops when the Rayleigh quotient changes by less than ``tol`` in
    relative terms, or after ``max_iter`` iterations.
    """
    rng = np.random.default_rng(seed)
    a = g.entries
    for _ in range(3):
        v = rng.standard_normal(a.shape[1])
        w = a.T @ (a @ v)
        if np.linalg.norm(w) > 0:
            break
    else:
        raise ValueError("power iteration start vector lies in the null space")

    lam = 0.0
    for _ in range(max_iter):
        v = w / np.linalg.norm(w)
        w = a.T @ (a @ v)
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


def solve_proximal_gradient(
    m: Measurements,
    g: BlockDesign,
    lam: Union[float, np.ndarray],
    gap_tol: float,
    *,
    max_iter: int = 50_000,
    candidates: Optional[Sequence[int]] = None,
    init: Optional[BlockSparseEstimate] = None,
    gap_check_every: int = 10,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> BlockSparseEstimate:
    """Accelerated proximal gradient descent to gap-certified optimality.

    Full-matrix iterations with global step ``1 / ||G^T G||`` and a
    monotone restart: whenever the momentum step would increase the
    objective, momentum is dropped and the step is retaken from the last
    accepted iterate, which guarantees a non-increasing objective
    sequence. Convergence is declared by the same duality gap as the
    production solver.

    Parameters
    ----------
    candidates : sequence of int, optional
        Restrict the problem to these locations (used when benchmarking
        the proximal-gradient method inside the active-set strategy).
    init : BlockSparseEstimate, optional
        Warm start; must be supported within ``candidates`` if both given.
    callback : callable, optional
        Invoked as ``callback(iteration, x_dense, primal)`` after every
        accepted iterate.

    Raises
    ------
    IterationLimitError
        If ``max_iter`` iterations pass without reaching ``gap_tol``.
    """
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    _check_paired(m, g, init)
    lam_full = _lam_vector(lam, g.n_locations)
    n_orient, n_times = g.n_orient, m.n_times

    if candidates is None:
        cand = np.arange(g.n_locations)
        sub = g
    else:
        cand = np.asarray(sorted(set(int(s) for s in candidates)), dtype=int)
        if cand.size and (cand[0] < 0 or cand[-1] >= g.n_locations):
            raise ValueError("candidate index out of range")
        sub = BlockDesign(
            g.entries[:, g.column_indices(cand)], len(cand), n_orient
        )
    if cand.size == 0:
        return BlockSparseEstimate.empty(g.n_locations, n_orient, n_times)
    lam_vec = lam_full[cand]

    a = sub.entries
    mm = m.entries
    lip = global_lipschitz(sub)
    if lip <= 0:
        raise ValueError("design matrix is all-zero")
    step = 1.0 / lip
    thresholds = step * lam_vec

    def gap_of(x, r):
        y, _ = _scaled_dual(r, a.T, lam_vec, n_orient)
        return _primal(r, x, lam_vec, n_orient) - dual_objective(m, y)

    x = _pack(init, cand, n_orient, n_times)
    r = mm - a @ x
    f_x = _primal(r, x, lam_vec, n_orient)
    if gap_of(x, r) < gap_tol:
        return _unpack(x, cand, g.n_locations, n_orient)

    z = x.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        grad_point = z + step * (a.T @ (mm - a @ z))
        x_new = prox_blocks(grad_point, thresholds, n_orient)
        r_new = mm - a @ x_new
        f_new = _primal(r_new, x_new, lam_vec, n_orient)
        if f_new > f_x:
            # momentum overshot: restart from the last accepted iterate
            t = 1.0
            z = x.copy()
            grad_point = z + step * (a.T @ (mm - a @ z))
            x_new = prox_blocks(grad_point, thresholds, n_orient)
            r_new = mm - a @ x_new
            f_new = _primal(r_new, x_new, lam_vec, n_orient)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, f_x, t = x_new, f_new, t_new
        if callback is not None:
            callback(it, x, f_x)
        if it % gap_check_every == 0 and gap_of(x, r_new) < gap_tol:
            return _unpack(x, cand, g.n_locations, n_orient)

    gap = gap_of(x, mm - a @ x)
    raise IterationLimitError(
        f"proximal gradient did not reach gap {gap_tol:g} within "
        f"{max_iter} iterations (gap={gap:.3e})",
        estimate=_unpack(x, cand, g.n_locations, n_orient),
        gap=gap,
    )

