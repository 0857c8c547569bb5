"""Every name a module exports must exist, and the package exports a
fixed list.

``from bsmx import *`` and ``from bsmx.<module> import *`` fail on a name
listed in ``__all__`` that the module no longer defines, so a deleted
function or class must leave the export lists with it. The package's list
is pinned, so a name enters or leaves the public API only on purpose.
"""

import importlib
import pkgutil

import bsmx


def test_every_exported_name_resolves():
    modules = [bsmx] + [
        importlib.import_module(f"bsmx.{info.name}")
        for info in pkgutil.iter_modules(bsmx.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert len(modules) > 1


def test_package_exports_the_public_api():
    assert bsmx.__all__ == [
        "__version__",
        "BlockDesign",
        "Measurements",
        "BlockSparseEstimate",
        "SolverConfig",
        "densify",
        "residual",
        "block_lipschitz_all",
        "GapReport",
        "ConvergenceTrace",
        "IterationLimitError",
        "primal_objective",
        "dual_objective",
        "duality_gap",
        "lambda_max",
        "solve_bcd",
        "solve_active_set",
        "ReweightState",
        "nonconvex_objective",
        "compute_weights",
        "solve_irmxne",
        "DepthWeights",
        "apply_loose_orientation",
        "apply_depth_weights",
        "undo_depth_weights",
        "estimate_scaling",
        "apply_scaling",
        "solve_proximal_gradient",
    ]
