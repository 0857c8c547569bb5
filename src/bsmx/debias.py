"""Post-solve amplitude debiasing.

Shrinkage-based estimates systematically underestimate source amplitudes.
This module corrects the bias by a single scaling factor per active
location, constant over orientation and time and constrained to be at
least 1, so support, orientations, and waveform shapes are preserved
exactly. The factors solve a tiny box-constrained least-squares problem;
scaling by 1 is always feasible, so the corrected estimate never fits the
data worse than the raw one.
"""

from __future__ import annotations

import numpy as np

from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    _check_paired,
    _scale_blocks,
)

__all__ = ["estimate_scaling", "apply_scaling"]

_TOL = 1e-10


def estimate_scaling(m: Measurements, g: BlockDesign,
                     est: BlockSparseEstimate) -> np.ndarray:
    """Fit per-source scaling factors on the box [1, inf).

    Returns a read-only array with one factor per location of
    ``est.active_set``, in that order.

    Minimizes ``||M - sum_s d_s * G_s X_s||_Fro^2`` over the active set by
    cyclic projected coordinate descent. The problem sees the data only
    through the Gram matrix of the sensor footprints,
    ``A_st = <G_s X_s, G_t X_t>``, and their correlations with the data,
    ``b_s = <M, G_s X_s>``. Both are formed in Gram form, as block sums
    of ``(X X^T) * (G_A^T G_A)`` and of ``(G_A^T M) * X`` over the active
    locations ``A``, so no ``n_sensors x n_times`` footprint is built. The
    unconstrained coordinate update is
    ``(b_s - sum_{t != s} A_st d_t) / A_ss``, clamped to at least 1. Each
    update is an exact coordinate minimization, so the objective is
    non-increasing. Sources whose footprint is exactly zero
    (``A_ss == 0``) keep ``d_s = 1``.

    Iterates until the largest coordinate change drops below ``_TOL``,
    with a cap of ``10 * n_active`` sweeps.
    """
    _check_paired(m, g, est)
    if est.n_active == 0:
        raise ValueError("cannot debias an empty estimate")

    n, o = est.n_active, est.n_orient
    gt = g.entries.T[g.column_indices(est.active_set)]
    x = est.coef
    gram = ((x @ x.T) * (gt @ gt.T)).reshape(n, o, n, o).sum(axis=(1, 3))
    corr = ((gt @ m.entries) * x).reshape(n, -1).sum(axis=1)
    diag = gram.diagonal()
    d = np.ones(n)

    max_sweeps = 10 * n
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(n):
            if diag[i] == 0.0:
                continue
            c = corr[i] - float(gram[i] @ d) + d[i] * diag[i]
            d_new = max(c / diag[i], 1.0)
            max_delta = max(max_delta, abs(d_new - d[i]))
            d[i] = d_new
        if max_delta < _TOL:
            break

    d.setflags(write=False)
    return d


def apply_scaling(est: BlockSparseEstimate,
                  d: np.ndarray) -> BlockSparseEstimate:
    """Multiply each active block by its factor in ``d``, one finite factor
    of at least 1 per location of ``est.active_set``; support unchanged."""
    d = np.asarray(d, dtype=float)
    if d.shape != (est.n_active,):
        raise ValueError(f"expected {est.n_active} scaling factors, "
                         f"one per active location, got shape {d.shape}")
    if not np.all(np.isfinite(d) & (d >= 1.0)):
        raise ValueError("scaling factors must be finite and at least 1")
    return _scale_blocks(est, d)
