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

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import (
    BlockDesign,
    BlockSparseEstimate,
    Measurements,
    _check_paired,
    _unpack,
)

__all__ = ["ScalingFactors", "estimate_scaling", "apply_scaling"]


@dataclass(frozen=True, repr=False)
class ScalingFactors:
    """Per-source amplitude corrections over an estimate's active set."""

    active_set: Tuple[int, ...]
    d: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.d, dtype=float)
        if arr.shape != (len(self.active_set),):
            raise ValueError("d must align with active_set")
        if not np.all(arr >= 1.0):
            raise ValueError("scaling factors must be at least 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "d", arr)
        object.__setattr__(self, "active_set", tuple(int(s) for s in self.active_set))

    def __repr__(self):
        return f"ScalingFactors(n_active={len(self.active_set)})"


def estimate_scaling(m: Measurements, g: BlockDesign,
                     est: BlockSparseEstimate, *, tol: float = 1e-10) -> ScalingFactors:
    """Fit per-source scaling factors on the box [1, inf).

    Minimizes ``||M - sum_s d_s * G_s X_s||_Fro^2`` over the active set by
    cyclic projected coordinate descent: the unconstrained coordinate
    update is the correlation of the source's sensor footprint with the
    residual excluding that source, divided by the footprint's squared
    norm, clamped to at least 1. Each update is an exact coordinate
    minimization, so the objective is non-increasing. Sources whose
    footprint is exactly zero keep ``d_s = 1``.

    Iterates until the largest coordinate change drops below ``tol``, with
    a cap of ``10 * n_active`` sweeps.
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
        if max_delta < tol:
            break

    return ScalingFactors(active_set=est.active_set, d=d)


def apply_scaling(est: BlockSparseEstimate,
                  scaling: ScalingFactors) -> BlockSparseEstimate:
    """Multiply each active block by its scaling factor; support unchanged."""
    if scaling.active_set != est.active_set:
        raise ValueError("scaling factors do not match the estimate's active set")
    factors = np.repeat(scaling.d, est.n_orient)
    return _unpack(est.coef * factors[:, None], est.active_set,
                   est.n_locations, est.n_orient)
