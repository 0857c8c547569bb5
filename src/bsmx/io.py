"""File formats: matrices as CSV or packed binary, and every output file.

Binary matrix layout: magic ``BSMX``, two little-endian u32 (rows, cols),
then row-major little-endian float64 values. CSV matrices are one row per
line, comma-separated, ``.`` decimal, no header. Every matrix is read
once, from one open handle, so a pipe, a FIFO or a process substitution
reads like a regular file; the manifest records ``null`` as the digest of
an input that is not a regular file.

:func:`_write_json` writes ``estimate.json``, ``estimate_debiased.json``,
``reweight_state.json``, ``stability.json`` and ``manifest.json``, and
:func:`_write_csv` writes ``trace.csv``, ``metrics.csv`` and
``timings.csv``; each caller builds its own payload or rows.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import stat
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
# bytes per read of a payload whose size the file system does not report
_CHUNK = 1 << 20


def _write_json(path, payload, indent=None):
    """Write ``payload`` as one JSON document plus a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=indent) + "\n")


def _write_csv(path, header, rows):
    """Write a ``csv.writer`` table: the ``header`` row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


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


def _read_capped(fh, limit: int) -> bytearray:
    """At most ``limit`` bytes of ``fh``, read in bounded chunks until EOF:
    memory follows the bytes actually sent, not a size a header claims."""
    buf = bytearray()
    while len(buf) < limit:
        chunk = fh.read(min(_CHUNK, limit - len(buf)))
        if not chunk:
            break
        buf += chunk
    return buf


def read_matrix(path) -> np.ndarray:
    """Load a matrix, sniffing the binary magic; CSV otherwise.

    The file is read once, from the handle the sniff opened. A regular
    file's binary payload is read straight into the returned array, so a
    load holds one copy of the matrix, allocated once its size matches the
    header. Any other file's (a pipe, a FIFO, a process substitution) is
    read in bounded chunks up to one byte past the size the header claims.
    A CSV matrix is parsed line by line, sniffed bytes included.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        regular = stat.S_ISREG(info.st_mode)
        head = fh.read(_HEADER.size)
        if head[:4] == MAGIC:
            if len(head) < _HEADER.size:
                raise ValueError(f"{path}: truncated binary matrix header")
            _, rows, cols = _HEADER.unpack(head)
            expected = 8 * rows * cols
            if regular:
                size = info.st_size - _HEADER.size
            else:
                payload = _read_capped(fh, expected + 1)
                size = len(payload)
            if size != expected:
                # a pipe is read one byte past the claim and no further
                found = (f"over {expected}" if size > expected and not regular
                         else size)
                raise ValueError(
                    f"{path}: binary matrix payload is {found} bytes, "
                    f"expected {expected} for a {rows}x{cols} matrix"
                )
            if regular:
                out = np.empty((rows, cols), dtype="<f8")
                fh.readinto(out.reshape(-1).view(np.uint8))
            else:
                out = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
            return out.astype(float, copy=False)
        # the sniff consumed ``head``: complete its line, then stream the rest
        lines = itertools.chain((head + fh.readline()).splitlines(True), fh)
        try:
            return np.loadtxt(lines, delimiter=",", ndmin=2, dtype=float)
        except ValueError as exc:
            raise ValueError(
                f"{path}: cannot parse as CSV matrix ({exc})") from exc


def write_estimate(path, est: BlockSparseEstimate):
    _write_json(path, {
        "active_set": list(est.active_set),
        "n_locations": est.n_locations,
        "n_orient": est.n_orient,
        "n_times": est.n_times,
        "blocks": {str(s): b.tolist() for s, b in zip(est.active_set, est.blocks)},
    })


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
