"""Reference solver used to validate the production coordinate descent.

Accelerated proximal gradient iterations on the full (or candidate-
restricted) coefficient matrix with a single global step length. Not
performance-tuned: it exists so that solver equivalence can be checked by
downstream users and so that timing comparisons against the active-set
coordinate descent can be reproduced from the benchmark command.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    _forward_rows,
    _pack,
    _unpack,
)
from .mxne import IterationLimitError, _certified, _check_inputs, _gap, _primal
from .prox import prox_blocks

__all__ = ["solve_proximal_gradient"]

# the duality gap is evaluated after every this many iterations
_GAP_CHECK_EVERY = 10


def _global_lipschitz(g: BlockDesign) -> float:
    """Spectral norm of ``G^T G``.

    The largest eigenvalue of the smaller of the two Gram matrices
    ``G G^T`` and ``G^T G``, which share their nonzero spectrum.
    """
    a = g.entries
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(gram)[-1])


def solve_proximal_gradient(
    m: Measurements,
    g: BlockDesign,
    lam: Union[float, np.ndarray],
    gap_tol: float,
    *,
    max_iter: int = 50_000,
    candidates: Optional[Iterable[int]] = None,
    init: Optional[BlockSparseEstimate] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> BlockSparseEstimate:
    """Accelerated proximal gradient descent to gap-certified optimality.

    Full-matrix iterations with global step ``1 / ||G^T G||`` and a
    monotone restart: whenever the momentum step would increase the
    objective, momentum is dropped and the step is retaken from the last
    accepted iterate, which guarantees a non-increasing objective
    sequence. Convergence is declared by the same duality gap and stop
    test as the production solver.

    Parameters
    ----------
    candidates : iterable of int, optional
        Restrict the problem to these locations; duplicates and order are
        ignored. Used to benchmark this method as the active-set inner solver.
    init : BlockSparseEstimate, optional
        Warm start; must be supported within ``candidates`` if both given.
    callback : callable, optional
        Invoked as ``callback(iteration, x, primal)`` after every accepted
        iterate. ``x`` is packed: shape ``(|candidates| * n_orient,
        n_times)``, rows ``i*O:(i+1)*O`` holding the block of the ``i``-th
        candidate in ascending order.

    Raises
    ------
    IterationLimitError
        If ``max_iter`` iterations pass without reaching ``gap_tol``.
    """
    lam_full, cand = _check_inputs(m, g, lam, init, gap_tol, candidates)
    n_orient, n_times = g.n_orient, m.n_times
    if not cand.size:
        return BlockSparseEstimate.empty(g.n_locations, n_orient, n_times)
    sub = g if candidates is None else BlockDesign._adopt(
        g.entries[:, g.column_indices(cand)], len(cand), n_orient)
    lam_vec = lam_full[cand]

    # gt[i * O:(i + 1) * O] is G_s^T of candidate i
    gt = sub.entries.T
    mm = m.entries
    lip = _global_lipschitz(sub)
    if lip <= 0:
        raise ValueError("design matrix is all-zero")
    step = 1.0 / lip
    thresholds = step * lam_vec

    def prox_step(z):
        """Proximal gradient step from ``z``: iterate, residual, primal."""
        grad_point = z + step * (gt @ (mm - _forward_rows(gt, z)))
        x_new = prox_blocks(grad_point, thresholds, n_orient)
        r_new = mm - _forward_rows(gt, x_new)
        return x_new, r_new, _primal(r_new, x_new, lam_vec, n_orient)

    x = _pack(init, cand, n_orient, n_times)
    r = mm - _forward_rows(gt, x)
    f_x = _primal(r, x, lam_vec, n_orient)
    if _certified(_gap(m, r, x, lam_vec, gt, lam_vec, n_orient)[0], gap_tol):
        return _unpack(x, cand, g.n_locations, n_orient)

    z = x.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        x_new, r_new, f_new = prox_step(z)
        if f_new > f_x:
            # momentum overshot: restart from the last accepted iterate
            t = 1.0
            x_new, r_new, f_new = prox_step(x)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, r, f_x, t = x_new, r_new, f_new, t_new
        if callback is not None:
            callback(it, x, f_x)
        if it % _GAP_CHECK_EVERY == 0 and _certified(
                _gap(m, r, x, lam_vec, gt, lam_vec, n_orient)[0], gap_tol):
            return _unpack(x, cand, g.n_locations, n_orient)

    gap = _gap(m, r, x, lam_vec, gt, lam_vec, n_orient)[0].gap
    raise IterationLimitError(
        f"proximal gradient did not reach gap {gap_tol:g} within "
        f"{max_iter} iterations (gap={gap:.3e})",
        estimate=_unpack(x, cand, g.n_locations, n_orient),
        gap=gap,
    )

