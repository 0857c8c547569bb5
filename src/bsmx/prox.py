"""Group proximal operator, block norms and per-block curvature constants."""

from __future__ import annotations

import numpy as np

from .model import BlockDesign

__all__ = [
    "block_lipschitz",
    "block_lipschitz_all",
    "group_soft_threshold",
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


def block_lipschitz(block: np.ndarray) -> float:
    """Curvature constant of the data fit restricted to one block.

    Returns the spectral norm of ``block.T @ block``, i.e. the squared
    largest singular value of the block, as :func:`block_lipschitz_all`
    computes it for a one-location design.

    Raises
    ------
    ValueError
        If the block is all-zero ("degenerate design block"): the
        coordinate step size would be undefined.
    """
    if np.ndim(block) != 2:
        raise ValueError("design block must be 2-D")
    lips = block_lipschitz_all(BlockDesign(block, 1, np.shape(block)[1]))
    if not lips[0] > 0:
        raise ValueError("degenerate design block: all entries are zero")
    return float(lips[0])


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


def group_soft_threshold(block: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink a block radially, zeroing it inside the threshold ball.

    Proximal operator of ``threshold * ||.||_Fro``: the input is scaled by
    ``max(1 - threshold / ||block||_Fro, 0)``. When the block's Frobenius
    norm is at most ``threshold`` the result is exactly zero (bitwise, not
    merely small); otherwise the output keeps the input's direction and
    satisfies the stationarity identity
    ``block - out = threshold * out / ||out||_Fro``.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    block = np.asarray(block, dtype=float)
    flat = block.reshape(1, -1)
    return prox_blocks(flat, np.array([float(threshold)]), 1).reshape(block.shape)
