"""Block-sparse mixed-norm solvers for multiple-measurement-vector regression.

Solves ``0.5 * ||M - G X||_Fro^2 + penalty(X)`` where the coefficients X
are partitioned into per-location blocks and the penalty induces
block-level sparsity: a Frobenius norm per block summed over blocks
(convex, :func:`solve_active_set`) or its square-root counterpart
(non-convex, :func:`solve_irmxne`, handled by iterative reweighting).
Includes gap-certified convergence control, design transforms for
orientation and depth weighting, amplitude debiasing, a proximal-gradient
reference solver, and a simulation and evaluation harness.
"""

__version__ = "0.1.0"

from .model import (
    BlockDesign,
    Measurements,
    BlockSparseEstimate,
    SolverConfig,
    densify,
    residual,
)
from .prox import block_lipschitz_all
from .mxne import (
    GapReport,
    ConvergenceTrace,
    IterationLimitError,
    primal_objective,
    dual_objective,
    duality_gap,
    lambda_max,
    solve_bcd,
    solve_active_set,
)
from .irmxne import (
    ReweightState,
    nonconvex_objective,
    compute_weights,
    solve_irmxne,
)
from .constraints import (
    DepthWeights,
    apply_loose_orientation,
    apply_depth_weights,
    undo_depth_weights,
)
from .debias import estimate_scaling, apply_scaling
from .oracle import solve_proximal_gradient

__all__ = [
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
