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
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("design block must be 2-D")
    if not block.any():
        raise ValueError("degenerate design block: all entries are zero")
    return float(block_lipschitz_all(BlockDesign(block, 1, block.shape[1]))[0])


def block_lipschitz_all(design: BlockDesign) -> np.ndarray:
    """Per-location curvature constants for a whole design.

    Vectorized over locations; all-zero blocks yield 0.0 instead of an
    error so callers can mask them out of the candidate set.
    """
    n, o = design.n_sensors, design.n_orient
    s = design.n_locations
    if o == 1:
        return np.einsum("ns,ns->s", design.entries.reshape(n, s),
                         design.entries.reshape(n, s))
    # (s, o, n): one batched matmul forms every o x o Gram matrix
    st = design.entries.reshape(n, s, o).transpose(1, 2, 0)
    grams = st @ st.transpose(0, 2, 1)
    return np.linalg.eigvalsh(grams)[:, -1]


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
