"""File formats: matrices as CSV or packed binary, estimates as JSON.

Binary matrix layout: magic ``BSMX``, two little-endian u32 (rows, cols),
then row-major little-endian float64 values. CSV matrices are one row per
line, comma-separated, ``.`` decimal, no header.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import BlockSparseEstimate

__all__ = [
    "MAGIC",
    "read_matrix",
    "write_matrix_csv",
    "write_matrix_binary",
    "read_estimate",
    "write_estimate",
]

MAGIC = b"BSMX"
_HEADER = struct.Struct("<4sII")


def write_matrix_csv(path, a: np.ndarray):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def write_matrix_binary(path, a: np.ndarray):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, a.shape[0], a.shape[1]))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing the binary magic; CSV otherwise.

    A binary payload is read straight into the returned array, so a load
    holds one copy of the matrix.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] == MAGIC:
            if len(head) < _HEADER.size:
                raise ValueError(f"{path}: truncated binary matrix header")
            _, rows, cols = _HEADER.unpack(head)
            out = np.empty((rows, cols), dtype="<f8")
            size = fh.readinto(out.reshape(-1).view(np.uint8))
            size += len(fh.read())
            if size != out.nbytes:
                raise ValueError(
                    f"{path}: binary matrix payload is {size} bytes, "
                    f"expected {out.nbytes} for a {rows}x{cols} matrix"
                )
            return out.astype(float, copy=False)
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: cannot parse as CSV matrix ({exc})") from exc


def write_estimate(path, est: BlockSparseEstimate):
    payload = {
        "active_set": list(est.active_set),
        "n_locations": est.n_locations,
        "n_orient": est.n_orient,
        "n_times": est.n_times,
        "blocks": {str(s): b.tolist() for s, b in zip(est.active_set, est.blocks)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_estimate(path) -> BlockSparseEstimate:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid estimate JSON ({exc})") from exc
    try:
        active = [int(s) for s in payload["active_set"]]
        n_orient = int(payload["n_orient"])
        n_times = int(payload["n_times"])
        # n_locations is required for lossless densification; tolerate its
        # absence by assuming the support reaches the last location
        n_locations = int(
            payload.get("n_locations", (max(active) + 1) if active else 1)
        )
        items = [(s, np.asarray(payload["blocks"][str(s)], dtype=float))
                 for s in active]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: estimate JSON missing field {exc}") from exc
    return BlockSparseEstimate.from_blocks(items, n_locations, n_orient, n_times)
