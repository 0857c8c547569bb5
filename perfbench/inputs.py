"""Seeded input files of the ``meg-*`` workloads, cached by spec and seed.

Both MEG workloads solve one fixed scenario, drawn by ``bsmx.sim`` at
``SCENARIO_SEED``; the benchmark seed draws a relabeling of its source
locations (a permutation of the gain's column blocks). A relabeled problem
has the same optimum up to the permutation, so the work per seed is steady
while the files, the sweep order and the tie-breaks differ. Drawing a new
scenario per seed does not work here: at ``0.7 x median`` the support of
the first convex solve ranges from 194 to 312 locations over seeds 0-3,
and solve time grows with its square (12.5 s to 28 s).

Each entry of the cache holds the program's input files, ``.npy`` copies
for the output checks, and ``meta.json`` with the sha256 of every file.
``meta.json`` is written last, so an entry without it is incomplete.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

SCENARIO_SEED = 1
LAMBDA_FRACTION_OF_MEDIAN = 0.7
GENERATOR_VERSION = 1
CACHE_ENTRIES_PER_WORKLOAD = 3


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def median_score_lambda(gain, data, n_orient):
    """``LAMBDA_FRACTION_OF_MEDIAN x median_s ||G_s^T M||_Fro``."""
    corr = gain.T @ data
    norms = np.linalg.norm(corr.reshape(gain.shape[1] // n_orient, -1), axis=1)
    return LAMBDA_FRACTION_OF_MEDIAN * float(np.median(norms))


def relabeled_problem(spec_params, seed):
    """Gain and data of the fixed scenario with locations permuted by ``seed``."""
    from bsmx.sim import ScenarioSpec, generate_scenario

    scenario = generate_scenario(ScenarioSpec(**spec_params, rng_seed=SCENARIO_SEED))
    g = scenario.design
    perm = np.random.default_rng(seed).permutation(g.n_locations)
    gain = g.entries.reshape(g.n_sensors, g.n_locations, g.n_orient)[:, perm, :]
    return gain.reshape(g.n_sensors, -1).copy(), np.array(scenario.m_avg.entries)


def _write_matrix(path, a, fmt):
    if fmt == "csv":
        np.savetxt(path, a, fmt="%.17g", delimiter=",")
    else:
        from bsmx.io import write_matrix_binary

        write_matrix_binary(path, a)


def _flush(path):
    """Write a new file back to disk now, so that its write-back does not
    compete with the first timed repetition."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _evict(cache_dir, workload, keep):
    entries = [
        os.path.join(cache_dir, name) for name in os.listdir(cache_dir)
        if name.startswith(workload + "-") and os.path.join(cache_dir, name) != keep
    ]
    entries.sort(key=os.path.getmtime)
    for path in entries[: max(0, len(entries) - (CACHE_ENTRIES_PER_WORKLOAD - 1))]:
        shutil.rmtree(path, ignore_errors=True)


def _verified(entry):
    meta_path = os.path.join(entry, "meta.json")
    if not os.path.exists(meta_path):
        return None
    with open(meta_path) as fh:
        meta = json.load(fh)
    for name, digest in meta["sha256"].items():
        path = os.path.join(entry, name)
        if not os.path.exists(path) or sha256(path) != digest:
            return None
    return meta


def prepare(cache_dir, workload, spec_params, fmt, seed):
    """Input files for one MEG workload and seed; returns the entry's meta.

    ``meta`` holds the entry directory, the file names of gain and data,
    the median-score lambda and the sha256 of each file.
    """
    key_src = json.dumps({"spec": spec_params, "fmt": fmt, "seed": seed,
                          "scenario_seed": SCENARIO_SEED,
                          "version": GENERATOR_VERSION}, sort_keys=True)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    entry = os.path.join(cache_dir, f"{workload}-{seed}-{key}")
    os.makedirs(cache_dir, exist_ok=True)
    _evict(cache_dir, workload, entry)
    meta = _verified(entry)
    if meta is None:
        shutil.rmtree(entry, ignore_errors=True)
        os.makedirs(entry)
        gain, data = relabeled_problem(spec_params, seed)
        ext = "csv" if fmt == "csv" else "bin"
        files = {"gain": f"gain.{ext}", "data": f"data.{ext}",
                 "gain_npy": "gain.npy", "data_npy": "data.npy"}
        _write_matrix(os.path.join(entry, files["gain"]), gain, fmt)
        _write_matrix(os.path.join(entry, files["data"]), data, fmt)
        np.save(os.path.join(entry, files["gain_npy"]), gain)
        np.save(os.path.join(entry, files["data_npy"]), data)
        for name in files.values():
            _flush(os.path.join(entry, name))
        meta = {
            "workload": workload,
            "seed": seed,
            "scenario_seed": SCENARIO_SEED,
            "spec": spec_params,
            "files": files,
            "lambda_rule": f"{LAMBDA_FRACTION_OF_MEDIAN} x median_s ||G_s^T M||_Fro",
            "lambda": median_score_lambda(gain, data, spec_params["n_orient"]),
            "sha256": {name: sha256(os.path.join(entry, name))
                       for name in files.values()},
        }
        tmp = os.path.join(entry, "meta.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(meta, fh, indent=1)
        os.replace(tmp, os.path.join(entry, "meta.json"))
    os.utime(entry)
    meta["dir"] = entry
    return meta
