"""One isolated ``bsmx`` run: ``python3 perfbench/child.py <job.json>``.

The job names the CLI arguments, the mode and a result path. The child
imports ``bsmx`` from the checkout's ``src``, times ``bsmx.cli.main`` and
writes its timings (and, when traced, its spans) to the result path.

Modes:
  plain  -- untraced; only the set-up boundary is timestamped.
  setup  -- untraced; stops at the first solver call, to time set-up alone.
  traced -- every hook of :mod:`tracing` installed.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Calls that end set-up: the first one entered marks the boundary.
SOLVER_ENTRIES = ("solve_active_set", "solve_irmxne")


class SetupDone(BaseException):
    """Raised at the first solver call of a set-up-only run."""


def _timestamp_solver_entry(cli, marks, stop):
    for attr in SOLVER_ENTRIES:
        original = getattr(cli, attr, None)
        if original is None:
            continue

        def entry(*args, _original=original, **kwargs):
            if "first_solver" not in marks:
                marks["first_solver"] = time.perf_counter()
                if stop:
                    raise SetupDone()
            return _original(*args, **kwargs)

        setattr(cli, attr, entry)


def _time_generate(cli, marks):
    original = getattr(cli, "generate_scenario", None)
    if original is None:
        return

    def generate(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            marks["generate_s"] = marks.get("generate_s", 0.0) + time.perf_counter() - t0

    cli.generate_scenario = generate


def _peak_rss_mb():
    """High-water resident memory of this process since its exec.

    rusage's maxrss of an exec'd child also carries the high-water mark of
    the parent's memory from before the exec, so it would report the
    benchmark's own footprint whenever that is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself.

    Falls back to the ``OPENBLAS_NUM_THREADS`` this process saw when numpy
    bundles no OpenBLAS whose thread query is known.
    """
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                return {"value": int(query()), "source": name}
    return {"value": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "source": "OPENBLAS_NUM_THREADS"}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bsmx.cli as cli

    mode = job["mode"]
    marks = {}
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # The boundary hooks wrap outside the tracer's, so they see the
    # solver entry before any span opens.
    _timestamp_solver_entry(cli, marks, stop=(mode == "setup"))
    _time_generate(cli, marks)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            code = tracer.span("cli.main", "cli", cli.main, job["argv"])
        else:
            code = cli.main(job["argv"])
    except SetupDone:
        code = None
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0

    result = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "cpu_s": cpu,
        "setup_s": marks["first_solver"] - t0 if "first_solver" in marks else None,
        "generate_s": marks.get("generate_s", 0.0),
        "peak_rss_mb": _peak_rss_mb(),
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.to_dict()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if mode == "setup" or code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
