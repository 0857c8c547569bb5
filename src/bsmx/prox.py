"""Group proximal operator, block norms and per-block curvature constants."""

from __future__ import annotations

import numpy as np

from .model import BlockDesign

__all__ = [
    "block_lipschitz_all",
    "prox_blocks",
]


def _location_norms(flat: np.ndarray, n_orient: int) -> np.ndarray:
    """Frobenius norm per location block of a (S*O, T) matrix."""
    rows = flat.reshape(-1, n_orient * flat.shape[1])
    # einsum squares and sums in one pass, without an S*O*T temporary
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def prox_blocks(x: np.ndarray, thresholds: np.ndarray, n_orient: int) -> np.ndarray:
    """Group soft-thresholding of every block of a ``(S*O, T)`` matrix at once.

    Block ``s`` is scaled by ``max(1 - thresholds[s] / ||X_s||_Fro, 0)``;
    blocks inside their threshold ball become exactly ``+0.0``.
    """
    norms = _location_norms(x, n_orient)
    factors = np.maximum(1.0 - thresholds / np.maximum(norms, thresholds), 0.0)
    out = x * np.repeat(factors, n_orient)[:, None]
    out[np.repeat(factors == 0.0, n_orient)] = 0.0
    return out


def _check_blocks(lips: np.ndarray, locations=None) -> np.ndarray:
    """``lips``, once no block is all-zero (its step ``1 / L_s`` would be
    undefined); ``locations[i]`` (default ``i``) names block ``i``."""
    bad = np.flatnonzero(lips <= 0)
    if bad.size:
        s = bad[0] if locations is None else locations[bad[0]]
        raise ValueError(f"degenerate design block at location {s}: "
                         "all entries are zero")
    return lips


def block_lipschitz_all(design: BlockDesign) -> np.ndarray:
    """Per-location curvature constants ``||G_s^T G_s||`` of a design.

    Vectorized; 0.0 marks an all-zero (degenerate) block. Computed once per
    design and kept on it read-only, so all solves read the same bits.
    """
    if "_lipschitz" not in design.__dict__:
        g, o = design.entries, design.n_orient
        if o == 1:
            lips = np.einsum("ns,ns->s", g, g)
        else:
            # (s, o, n) view of G^T: one batched matmul forms every Gram
            st = g.T.reshape(-1, o, design.n_sensors)
            lips = np.linalg.eigvalsh(st @ st.transpose(0, 2, 1))[:, -1]
        lips.setflags(write=False)
        object.__setattr__(design, "_lipschitz", lips)
    return design._lipschitz
