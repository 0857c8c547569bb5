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
    cyclic projected coordinate descent: the unconstrained coordinate
    update is the correlation of the source's sensor footprint with the
    residual excluding that source, divided by the footprint's squared
    norm, clamped to at least 1. Each update is an exact coordinate
    minimization, so the objective is non-increasing. Sources whose
    footprint is exactly zero keep ``d_s = 1``.

    Iterates until the largest coordinate change drops below ``_TOL``,
    with a cap of ``10 * n_active`` sweeps.
    """
    _check_paired(m, g, est)
    if est.n_active == 0:
        raise ValueError("cannot debias an empty estimate")

    footprints = [g.block(s) @ blk for s, blk in zip(est.active_set, est.blocks)]
    sq_norms = np.array([(a * a).sum() for a in footprints])
    n = est.n_active
    d = np.ones(n)

    r = m.entries.copy()
    for a in footprints:
        r -= a

    max_sweeps = 10 * n
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(n):
            if sq_norms[i] == 0.0:
                continue
            a = footprints[i]
            r_i = r + d[i] * a
            d_new = max(float((r_i * a).sum()) / sq_norms[i], 1.0)
            r = r_i - d_new * a
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
