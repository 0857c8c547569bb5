"""Core data types for block-sparse multiple-measurement-vector regression.

A problem couples a sensor-by-source design matrix with a block-column
structure (one block of ``n_orient`` adjacent columns per source location)
and a sensor-by-time data matrix, assumed spatially whitened. Estimates
store only their nonzero blocks, packed into one array, so memory scales
with the recovered support rather than with the full source space.

All types are immutable, their arrays read-only (copied unless adopted by
``BlockDesign._adopt``); values derived from one are memoized on it.

Every product ``G_C X_C`` of a residual or forward pass is formed by
:func:`_forward_rows`, from the rows of ``G^T`` of the locations ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BlockDesign",
    "Measurements",
    "BlockSparseEstimate",
    "SolverConfig",
    "densify",
    "residual",
]


def _readonly_matrix(values, name: str, copy: bool = True) -> np.ndarray:
    arr = (np.array if copy else np.asarray)(values, dtype=float, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ValueError(f"{name} has shape {arr.shape}: it needs at least "
                         "one row and one column")
    # min and max carry any NaN or infinity out, with no matrix-sized mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, repr=False, eq=False)
class BlockDesign:
    """Design (gain) matrix with block-column structure.

    Parameters
    ----------
    entries : ndarray, shape (n_sensors, n_locations * n_orient)
        Dense design matrix. Block ``s`` occupies the contiguous columns
        ``[s * n_orient, (s + 1) * n_orient)``.
    n_locations : int
        Number of source locations (column blocks).
    n_orient : int
        Columns per block, typically 1 (fixed orientation) or 3 (free).
    """

    entries: np.ndarray
    n_locations: int
    n_orient: int

    def __post_init__(self, copy: bool = True):
        arr = _readonly_matrix(self.entries, "design matrix", copy)
        if self.n_locations < 1 or self.n_orient < 1:
            raise ValueError("n_locations and n_orient must be positive")
        expected = self.n_locations * self.n_orient
        if arr.shape[1] != expected:
            raise ValueError(
                f"design matrix has {arr.shape[1]} columns, expected "
                f"n_locations * n_orient = {expected}"
            )
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _adopt(cls, entries: np.ndarray, n_locations: int,
               n_orient: int) -> "BlockDesign":
        """Design over ``entries`` itself, without the constructor's copy.

        For a fresh array that the caller hands over and no longer writes
        to: a C-contiguous float64 matrix is kept as it is (anything else
        is converted), checked as the constructor checks it and marked
        read-only.
        """
        design = cls.__new__(cls)
        object.__setattr__(design, "entries", entries)
        object.__setattr__(design, "n_locations", n_locations)
        object.__setattr__(design, "n_orient", n_orient)
        design.__post_init__(copy=False)
        return design

    @property
    def n_sensors(self) -> int:
        return self.entries.shape[0]

    def block(self, s: int) -> np.ndarray:
        """Columns of location ``s`` as an ``(n_sensors, n_orient)`` view."""
        o = self.n_orient
        return self.entries[:, s * o:(s + 1) * o]

    def column_indices(self, locations: Iterable[int]) -> np.ndarray:
        """Flat column indices covering the given locations, in order."""
        o = self.n_orient
        locs = np.fromiter(locations, dtype=int)
        return (locs[:, None] * o + np.arange(o)[None, :]).ravel()

    def __repr__(self):
        return (
            f"BlockDesign(n_sensors={self.n_sensors}, "
            f"n_locations={self.n_locations}, n_orient={self.n_orient})"
        )


@dataclass(frozen=True, repr=False, eq=False)
class Measurements:
    """Whitened sensor data matrix of shape (n_sensors, n_times)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "entries", _readonly_matrix(self.entries, "data matrix")
        )

    @property
    def n_sensors(self) -> int:
        return self.entries.shape[0]

    @property
    def n_times(self) -> int:
        return self.entries.shape[1]

    def __repr__(self):
        return f"Measurements(n_sensors={self.n_sensors}, n_times={self.n_times})"


def _compress_time(m: Measurements) -> Tuple[Measurements, Optional[np.ndarray]]:
    """Exact temporal compression of data with more time points than sensors.

    Returns ``(Measurements(U * s), vt)`` for the thin SVD ``M = U S V^T``
    when ``n_times > n_sensors``, and ``(m, None)`` otherwise. No rank is
    cut, so the mixed-norm problems on ``U S`` and on ``M`` are equivalent:
    the optimum lies in the row space of ``V^T``, and residual energy and
    block norms are invariant under right multiplication by ``V``. A
    compressed estimate ``Z`` maps back to full time as ``Z @ vt``. The
    SVD is taken once per instance.
    """
    if m.n_times <= m.n_sensors:
        return m, None
    # memoized on the immutable instance: lambda_max and the solver share it
    if "_compressed" not in m.__dict__:
        u, s, vt = np.linalg.svd(m.entries, full_matrices=False)
        vt.setflags(write=False)
        object.__setattr__(m, "_compressed", (Measurements(u * s), vt))
    return m._compressed


@dataclass(frozen=True, repr=False, eq=False)
class BlockSparseEstimate:
    """Source coefficients of the support, packed into one array.

    ``active_set`` lists the locations with a nonzero block, strictly
    increasing. ``coef`` has shape ``(n_active * n_orient, n_times)``; rows
    ``i * n_orient:(i + 1) * n_orient`` hold the block of ``active_set[i]``.
    Blocks that are exactly zero (``.any()`` is False) are never stored, so
    the support size is well defined. ``blocks`` slices read-only views of
    the blocks from ``coef`` on each read, in ``active_set`` order. Use
    :func:`densify` to expand it to the full coefficient matrix. Like every
    type here that holds arrays, an estimate compares by identity; compare
    ``coef`` with ``np.array_equal``.
    """

    active_set: Tuple[int, ...]
    coef: np.ndarray
    n_locations: int
    n_orient: int
    n_times: int

    def __post_init__(self):
        n_loc, o, t = self.n_locations, self.n_orient, self.n_times
        if n_loc < 1 or o < 1 or t < 1:
            raise ValueError("estimate dimensions must be positive")
        active = np.asarray(self.active_set, dtype=int)
        coef = np.array(self.coef, dtype=float, order="C")
        if coef.shape != (active.size * o, t):
            raise ValueError(
                f"coef has shape {coef.shape}, expected "
                f"({active.size * o}, {t}) for {active.size} active locations"
            )
        if (active[1:] <= active[:-1]).any():
            raise ValueError("active_set must be strictly increasing")
        if active.size and (active[0] < 0 or active[-1] >= n_loc):
            raise ValueError("active_set indices out of range")
        rows = coef.reshape(active.size, o * t)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"block {active[finite.argmin()]} contains non-finite entries"
            )
        nonzero = rows.any(axis=1)
        if not nonzero.all():
            raise ValueError(
                f"block {active[nonzero.argmin()]} is exactly zero; zero "
                "blocks must be dropped (use from_blocks)"
            )
        coef.setflags(write=False)
        object.__setattr__(self, "active_set", tuple(active.tolist()))
        object.__setattr__(self, "coef", coef)

    @classmethod
    def empty(cls, n_locations: int, n_orient: int, n_times: int) -> "BlockSparseEstimate":
        return cls((), np.zeros((0, n_times)), n_locations, n_orient, n_times)

    @classmethod
    def from_blocks(cls, items, n_locations: int, n_orient: int,
                    n_times: int) -> "BlockSparseEstimate":
        """Build an estimate from ``(location, block)`` pairs.

        Pairs may come in any order; exactly-zero blocks are dropped.
        """
        pairs = sorted(((int(s), np.asarray(b, dtype=float)) for s, b in items),
                       key=lambda pair: pair[0])
        for s, b in pairs:
            if b.shape != (n_orient, n_times):
                raise ValueError(
                    f"block {s} has shape {b.shape}, expected "
                    f"({n_orient}, {n_times})"
                )
        coef = (np.concatenate([b for _, b in pairs]) if pairs
                else np.zeros((0, n_times)))
        return _unpack(coef, [s for s, _ in pairs], n_locations, n_orient)

    @property
    def n_active(self) -> int:
        return len(self.active_set)

    @property
    def blocks(self) -> Tuple[np.ndarray, ...]:
        return tuple(self.coef.reshape(-1, self.n_orient, self.n_times))

    def __reduce__(self):
        # rebuild through the constructor: a validated, read-only coef
        return (type(self), (self.active_set, self.coef, self.n_locations,
                             self.n_orient, self.n_times))

    def __repr__(self):
        return (
            f"BlockSparseEstimate(n_active={self.n_active}, "
            f"n_locations={self.n_locations}, n_orient={self.n_orient}, "
            f"n_times={self.n_times})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Solver tuning shared by the convex and reweighted drivers; the
    regularization weight is each solver's own ``lam`` argument.

    Parameters
    ----------
    gap_tol : float
        Duality-gap threshold declaring a convex solve optimal, positive
        and finite as ``reweight_tol`` is. A gap within 4 ulps of the
        primal, its roundoff, also certifies. The first of several irMxNE
        iterations stops at the looser
        ``max(gap_tol, 1e-6 * 0.5 * ||M||_Fro^2)``.
    reweight_tol : float
        Relative weight change below which the irMxNE loop stops: it
        stops once every positive weight ``w_s = 2 sqrt(||X_s||_Fro)``
        moves by less than this fraction of itself between reweights.
    max_reweight : int
        Cap on reweighting iterations. Exhausting it is not an error; the
        last iterate is returned with ``converged=False``.
    max_bcd_iter : int
        Safety cap on inner sweeps or iterations per subproblem.
    """

    gap_tol: float = 1e-6
    reweight_tol: float = 1e-6
    max_reweight: int = 30
    max_bcd_iter: int = 100_000

    def __post_init__(self):
        if not 0 < self.gap_tol < np.inf:
            raise ValueError("gap_tol must be positive and finite")
        if not 0 < self.reweight_tol < np.inf:
            raise ValueError("reweight_tol must be positive and finite")
        if self.max_reweight < 1:
            raise ValueError("max_reweight must be at least 1")
        if self.max_bcd_iter < 1:
            raise ValueError("max_bcd_iter must be at least 1")


def _pack(est: Optional[BlockSparseEstimate], cand: Sequence[int],
          n_orient: int, n_times: int) -> np.ndarray:
    """Coefficients of ``est`` in the candidate layout ``(|cand| * O, T)``.

    ``cand`` is strictly increasing; rows ``i*O:(i+1)*O`` hold the block of
    location ``cand[i]``, zero where ``est`` has none. ``None`` packs to
    zeros. The support of ``est`` must lie within ``cand``.
    """
    x = np.zeros((len(cand) * n_orient, n_times))
    if est is None or not est.n_active:
        return x
    cand = np.asarray(cand, dtype=int)
    active = np.asarray(est.active_set)
    pos = np.searchsorted(cand, active)
    # a location past the last candidate meets the -1 sentinel
    outside = active[np.append(cand, -1)[pos] != active]
    if outside.size:
        raise ValueError(
            f"warm-start location {outside[0]} is outside the candidate set"
        )
    x.reshape(cand.size, n_orient * n_times)[pos] = \
        est.coef.reshape(est.n_active, n_orient * n_times)
    return x


def _unpack(x: np.ndarray, cand: Sequence[int], n_locations: int,
            n_orient: int) -> BlockSparseEstimate:
    """Inverse of :func:`_pack`; exactly-zero blocks are dropped."""
    nonzero = x.reshape(-1, n_orient * x.shape[1]).any(axis=1)
    return BlockSparseEstimate(
        np.asarray(cand, dtype=int)[nonzero], x[np.repeat(nonzero, n_orient)],
        n_locations, n_orient, x.shape[1],
    )


def _change_time_basis(
    est: Optional[BlockSparseEstimate], basis: Optional[np.ndarray],
) -> Optional[BlockSparseEstimate]:
    """``est`` with its coefficients right-multiplied by ``basis``.

    Maps between full time and the compressed time of
    :func:`_compress_time`: ``vt.T`` maps in, ``vt`` maps out. Blocks that
    become exactly zero are dropped. Returns ``est`` itself when either
    argument is None (no estimate, or data that was not compressed).
    """
    if est is None or basis is None:
        return est
    return _unpack(est.coef @ basis, est.active_set, est.n_locations,
                   est.n_orient)


def densify(est: BlockSparseEstimate) -> np.ndarray:
    """Expand an estimate to the full (n_locations * n_orient, n_times) matrix."""
    return _pack(est, np.arange(est.n_locations), est.n_orient, est.n_times)


def _check_paired(m: Measurements, g: BlockDesign, est: Optional[BlockSparseEstimate] = None):
    if m.n_sensors != g.n_sensors:
        raise ValueError(
            f"data has {m.n_sensors} rows but design has {g.n_sensors} rows"
        )
    if est is not None:
        if est.n_locations != g.n_locations or est.n_orient != g.n_orient:
            raise ValueError(
                f"estimate is over {est.n_locations} locations x "
                f"{est.n_orient} orientations, design has {g.n_locations} x "
                f"{g.n_orient}"
            )
        if est.n_times != m.n_times:
            raise ValueError(
                f"estimate has {est.n_times} time points, data has {m.n_times}"
            )


def _scale_blocks(est: BlockSparseEstimate,
                  factors: np.ndarray) -> BlockSparseEstimate:
    """``est`` with block ``i`` multiplied by ``factors[i]``, one factor
    per active location; blocks that become exactly zero are dropped."""
    return _unpack(est.coef * np.repeat(factors, est.n_orient)[:, None],
                   est.active_set, est.n_locations, est.n_orient)


def _forward_rows(gt: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``G_C X_C`` from the rows ``gt`` of ``G^T`` of the locations ``C``
    and their packed coefficients ``coef``."""
    return gt.T @ coef


def _forward(g: BlockDesign, est: BlockSparseEstimate) -> np.ndarray:
    """``G X``, from the design columns of the support only."""
    return _forward_rows(g.entries.T[g.column_indices(est.active_set)],
                         est.coef)


def residual(m: Measurements, g: BlockDesign, est: BlockSparseEstimate) -> np.ndarray:
    """Data-fit residual ``M - G X``, over the support only.

    Equals the dense residual of the densified estimate to machine
    precision, at a cost proportional to the support size rather than to
    the number of locations.
    """
    _check_paired(m, g, est)
    return m.entries - _forward(g, est)
