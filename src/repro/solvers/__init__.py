"""Krylov-subspace linear solvers.

The paper's contribution lives here: the short-term-recurrence block COCG
method for complex symmetric systems (Algorithm 3), the dynamic block-size
selection (Algorithm 4) and the Galerkin deflating initial guess (Eq. 13) —
plus restarted GMRES, the long-recurrence baseline they are measured
against. Single-vector COCG is ``block_cocg_solve`` at block size 1.
"""

from repro.solvers.batched import (
    BatchedShiftedOperator,
    BatchedSolveResult,
    batched_cocg_ir_solve,
    batched_cocg_solve,
)
from repro.solvers.block_cocg import block_cocg_solve
from repro.solvers.block_cocg_bf import block_cocg_bf_solve
from repro.solvers.block_size import flop_cost_model, solve_with_dynamic_block_size
from repro.solvers.galerkin_guess import galerkin_initial_guess, residual_after_deflation
from repro.solvers.gmres import gmres_solve
from repro.solvers.linear_operator import CountingOperator, as_operator
from repro.solvers.recycle import RecycleStats, SolveRecycler
from repro.solvers.stats import (
    BlockSizeDecision,
    DynamicSolveResult,
    SolveResult,
    SolveSummary,
)

__all__ = [
    "BatchedShiftedOperator",
    "BatchedSolveResult",
    "batched_cocg_solve",
    "batched_cocg_ir_solve",
    "block_cocg_solve",
    "block_cocg_bf_solve",
    "gmres_solve",
    "solve_with_dynamic_block_size",
    "flop_cost_model",
    "galerkin_initial_guess",
    "residual_after_deflation",
    "SolveRecycler",
    "RecycleStats",
    "CountingOperator",
    "as_operator",
    "SolveResult",
    "SolveSummary",
    "DynamicSolveResult",
    "BlockSizeDecision",
]
