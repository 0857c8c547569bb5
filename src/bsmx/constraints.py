"""Pre-solve design transforms: orientation weighting and depth compensation.

Both transforms rescale columns of the design before solving. Orientation
weighting softly favors the surface-normal direction of free-orientation
blocks; depth compensation equalizes block strengths so weak-leadfield
(deep) locations are not systematically unselected. Depth weighting comes
with an inverse transform mapping solved estimates back to amplitudes
referring to the original design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BlockDesign, BlockSparseEstimate, _unpack
from .prox import block_lipschitz_all

__all__ = [
    "DepthWeights",
    "apply_loose_orientation",
    "apply_depth_weights",
    "undo_depth_weights",
]


@dataclass(frozen=True, repr=False)
class DepthWeights:
    """Per-location scales applied to the design for depth compensation."""

    gamma: float
    per_location_scale: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.per_location_scale, dtype=float)
        if arr.ndim != 1:
            raise ValueError("per_location_scale must be a vector")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ValueError("per_location_scale entries must be positive and finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "per_location_scale", arr)

    def __repr__(self):
        return (
            f"DepthWeights(gamma={self.gamma}, "
            f"n_locations={self.per_location_scale.shape[0]})"
        )


def _scale_columns(g: BlockDesign, factors: np.ndarray,
                   copy: bool) -> BlockDesign:
    """``g`` with column ``j`` multiplied by ``factors[j]``; with
    ``copy=False`` the product overwrites ``g``'s own array."""
    if copy:
        arr = g.entries * factors[None, :]
    else:
        arr = g.entries
        arr.setflags(write=True)
        arr *= factors[None, :]
    return BlockDesign._adopt(arr, g.n_locations, g.n_orient)


def apply_loose_orientation(g: BlockDesign, rho: float, *,
                            copy: bool = True) -> BlockDesign:
    """Scale the tangential columns of every block by ``rho``.

    Data layout contract: the first column of each block is the normal
    direction; columns 2 and 3 are the tangential directions. Requires
    three orientations per block. ``rho = 1`` is the identity.

    ``copy=False`` scales ``g``'s array in place and returns a design over
    it, for a caller that holds the only reference to ``g`` and drops it:
    the weighted design then takes no second copy of the matrix.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if g.n_orient != 3:
        raise ValueError(
            f"loose orientation weighting requires n_orient=3, got {g.n_orient}"
        )
    factors = np.tile([1.0, rho, rho], g.n_locations)
    return _scale_columns(g, factors, copy)


def apply_depth_weights(g: BlockDesign, gamma: float, *, copy: bool = True):
    """Rescale each block to compensate depth-dependent sensitivity.

    Block ``s`` is multiplied by ``sigma_max(G_s) ** (-gamma)``, where
    ``sigma_max`` is the block's largest singular value; ``gamma = 0`` is
    the identity and ``gamma = 1`` normalizes every block to unit spectral
    norm. Note this scale family is one standard instantiation of
    SVD-based depth compensation, exposed through ``gamma`` so the
    strength is tunable. ``copy=False`` scales ``g``'s array in place, as
    in :func:`apply_loose_orientation`.

    Returns
    -------
    (BlockDesign, DepthWeights)
        The weighted design plus the scales needed by
        :func:`undo_depth_weights` to map estimates back.
    """
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    lips = block_lipschitz_all(g)
    bad = np.flatnonzero(lips <= 0)
    if bad.size:
        raise ValueError(f"degenerate design block at location {bad[0]}: "
                         "all entries are zero")
    scale = np.sqrt(lips) ** (-gamma)
    weights = DepthWeights(gamma=gamma, per_location_scale=scale)
    weighted = _scale_columns(g, np.repeat(scale, g.n_orient), copy)
    return weighted, weights


def undo_depth_weights(est: BlockSparseEstimate,
                       weights: DepthWeights) -> BlockSparseEstimate:
    """Map an estimate solved on the depth-weighted design back.

    Multiplies block ``s`` by ``per_location_scale[s]`` so that amplitudes
    refer to the original design; the data fit is unchanged because the
    weighted design times the raw estimate equals the original design
    times the mapped estimate.
    """
    scale = weights.per_location_scale
    if scale.shape[0] != est.n_locations:
        raise ValueError(
            f"depth weights cover {scale.shape[0]} locations, estimate has "
            f"{est.n_locations}"
        )
    factors = np.repeat(scale[list(est.active_set)], est.n_orient)
    return _unpack(est.coef * factors[:, None], est.active_set,
                   est.n_locations, est.n_orient)
