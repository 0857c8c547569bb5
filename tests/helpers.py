"""Shared fixtures-in-spirit: instance generators, independent oracles, a
one-block form of ``prox_blocks``, a probe of the irMxNE solves and a FIFO
fed by a thread.

The oracles here deliberately avoid the library's own code paths: dense
objectives are recomputed with raw numpy expressions, block constants by
SVD, the prox is checked against its closed form and golden-section
search, and debiasing against projected gradient descent.
"""

import contextlib
import os
import threading

import numpy as np

from bsmx import irmxne, mxne
from bsmx.model import BlockDesign, BlockSparseEstimate, Measurements, densify
from bsmx.prox import prox_blocks
from bsmx.sim import random_instance


def make_instance(rng, n_sensors=20, n_locations=40, n_orient=3, n_times=10,
                  n_active=3, noise=0.1):
    m, g, truth = random_instance(
        rng, n_sensors, n_locations, n_orient, n_times,
        n_active=n_active, noise=noise,
    )
    return m, g, truth


class ReweightProbe:
    """Records the convex solves of ``solve_irmxne``.

    Wraps ``irmxne.solve_active_set`` (counted in ``driver_calls``) and
    ``mxne.solve_bcd``. A ``solve_bcd`` call made once a ``solve_active_set``
    call has returned is a reweight ``k >= 2``: it is recorded in
    ``reweights`` as ``(m, lam, candidates, estimate)`` and, when
    ``max_iter`` is given, capped at that many sweeps. Iteration 1 runs
    unchanged.
    """

    def __init__(self, monkeypatch, max_iter=None):
        self.driver_calls = 0
        self.reweights = []
        driver, bcd = irmxne.solve_active_set, mxne.solve_bcd

        def counted(*args, **kwargs):
            result = driver(*args, **kwargs)
            self.driver_calls += 1
            return result

        def recorded(m, g, init, lam, gap_tol, **kwargs):
            if not self.driver_calls:
                return bcd(m, g, init, lam, gap_tol, **kwargs)
            if max_iter is not None:
                kwargs["max_iter"] = max_iter
            est, trace = bcd(m, g, init, lam, gap_tol, **kwargs)
            self.reweights.append((m, lam, kwargs["candidates"], est))
            return est, trace

        monkeypatch.setattr(irmxne, "solve_active_set", counted)
        monkeypatch.setattr(mxne, "solve_bcd", recorded)


def dense_primal(m, g, est, lam):
    """Mixed-norm objective recomputed with dense arithmetic only.

    ``lam`` is a scalar or a per-location vector.
    """
    x = densify(est)
    r = m.entries - g.entries @ x
    o = g.n_orient
    lam_vec = np.broadcast_to(np.asarray(lam, dtype=float), (g.n_locations,))
    pen = 0.0
    for s in range(g.n_locations):
        pen += lam_vec[s] * np.sqrt((x[s * o:(s + 1) * o] ** 2).sum())
    return 0.5 * (r ** 2).sum() + pen


def dense_sqrt_objective(m, g, est, lam):
    x = densify(est)
    r = m.entries - g.entries @ x
    o = g.n_orient
    pen = 0.0
    for s in range(g.n_locations):
        pen += np.sqrt(np.sqrt((x[s * o:(s + 1) * o] ** 2).sum()))
    return 0.5 * (r ** 2).sum() + lam * pen


def spectral_norm_sq(block):
    """``||B^T B||`` of one block by SVD: its squared largest singular value."""
    return float(np.linalg.svd(block, compute_uv=False)[0] ** 2)


def closed_form_prox(block, threshold):
    """Group soft-thresholding of one block, ``max(1 - thr / ||B||_F, 0) * B``."""
    return max(1.0 - threshold / np.linalg.norm(block), 0.0) * block


def prox_one(block, threshold):
    """``prox_blocks`` applied to one block of any shape."""
    flat = np.reshape(block, (1, -1))
    return prox_blocks(flat, np.array([threshold]), 1).reshape(np.shape(block))


def golden_section_prox_scale(block, threshold, tol=1e-14):
    """Minimize 0.5*||c*B - B||_F^2 + threshold*||c*B||_F over c >= 0."""
    norm = np.linalg.norm(block)

    def objective(c):
        return 0.5 * (c - 1.0) ** 2 * norm ** 2 + threshold * c * norm

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1, f2 = objective(c1), objective(c2)
    while hi - lo > tol:
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = objective(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = objective(c2)
    return 0.5 * (lo + hi)


def projected_gradient_debias(m, g, est, n_iter=20000, tol=1e-12):
    """Box-constrained least squares on the scales by projected gradient."""
    footprints = [g.block(s) @ b for s, b in zip(est.active_set, est.blocks)]
    k = len(footprints)
    gram = np.array([[ (a * b).sum() for b in footprints] for a in footprints])
    rhs = np.array([(m.entries * a).sum() for a in footprints])
    lip = np.linalg.eigvalsh(gram)[-1]
    step = 1.0 / (lip if lip > 0 else 1.0)
    d = np.ones(k)
    for _ in range(n_iter):
        grad = gram @ d - rhs
        d_new = np.maximum(d - step * grad, 1.0)
        if np.abs(d_new - d).max() < tol:
            d = d_new
            break
        d = d_new
    resid = m.entries - sum(di * a for di, a in zip(d, footprints))
    return d, float((resid ** 2).sum())


def orthonormal_design(rng, n_locations, n_orient, n_sensors=None):
    """Design whose Gram matrix is the identity (blocks mutually orthogonal)."""
    cols = n_locations * n_orient
    n = n_sensors or cols
    assert n >= cols
    q, _ = np.linalg.qr(rng.standard_normal((n, cols)))
    return BlockDesign(q[:, :cols], n_locations, n_orient)


def estimate_from(blocks_by_loc, n_locations, n_orient, n_times):
    return BlockSparseEstimate.from_blocks(
        blocks_by_loc.items(), n_locations, n_orient, n_times
    )


def measurements_like(arr):
    return Measurements(np.asarray(arr, dtype=float))


@contextlib.contextmanager
def fed_fifo(path, data):
    """Make ``path`` a FIFO that a thread writes ``data`` into, once.

    Until the block ends, the thread also opens and closes the FIFO for
    writing whenever a reader has it open, so a reader that opens it a
    second time gets EOF instead of waiting for ever for a writer.
    """
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass
        while not done.wait(0.05):
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader
                pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        done.set()
        if thread.is_alive():
            # a feeder still waiting for its first reader is given one
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        thread.join(5)
        assert not thread.is_alive()
