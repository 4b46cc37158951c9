"""Result records returned by the Krylov solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass
class SolveResult:
    """Outcome of a (block) linear solve.

    Attributes
    ----------
    solution:
        ``(n,)`` or ``(n, s)`` solution array.
    converged:
        Whether the stopping criterion (relative residual) was met.
    iterations:
        Krylov iterations performed.
    residual_norm:
        Final relative residual (Frobenius over the block, Eq. 10).
    residual_history:
        Relative residual after each iteration (including iteration 0).
    n_matvec:
        Total operator applications, counted per column.
    block_size:
        Number of right-hand sides solved simultaneously.
    breakdown:
        True when a short-recurrence breakdown (singular small matrix) was
        detected and the solver exited early.
    per_column_iterations:
        Optional per-column first-convergence iteration (``-1`` for columns
        that never crossed the tolerance). Populated by the block solvers
        only at full telemetry level; ``None`` otherwise.
    dtype:
        Working precision of the solve: ``"float64"`` (default),
        ``"float32"`` (a raw single-precision recurrence) or
        ``"float32_ir"`` (a complex64 pass finished by the f64 recurrence).
    """

    solution: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    n_matvec: int = 0
    block_size: int = 1
    breakdown: bool = False
    per_column_iterations: list[int] | None = None
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


@dataclass
class SolveSummary:
    """Totals over a set of (block) solves.

    Replaces the hand-summed ``sum(r.n_matvec for r in ...)`` /
    ``sum(r.iterations for r in ...)`` idiom that used to be repeated in
    ``repro.core.sternheimer`` and ``repro.solvers.block_size``:
    accumulate once here, merge anywhere.
    """

    n_solves: int = 0
    n_systems: int = 0
    iterations: int = 0
    n_matvec: int = 0
    n_breakdowns: int = 0
    n_unconverged: int = 0
    block_size_counts: dict[int, int] = field(default_factory=dict)
    # Escalation-chain totals (zero unless a solve left its first stage or
    # ran under a matvec budget: a converged first stage comes back as the
    # plain solver's result): extra attempts beyond the first, solves
    # whose winning stage was not the first, and returned stage per name.
    n_retries: int = 0
    n_escalations: int = 0
    stage_counts: dict[str, int] = field(default_factory=dict)
    # Working precision histogram: dtype string -> number of solves run at
    # that precision (``"float32_ir"`` marks the mixed-precision path).
    dtype_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, results: Iterable[SolveResult]) -> "SolveSummary":
        """Summary of an iterable of :class:`SolveResult`."""
        summary = cls()
        for r in results:
            summary.n_solves += 1
            summary.n_systems += r.block_size
            summary.iterations += r.iterations
            summary.n_matvec += r.n_matvec
            summary.n_breakdowns += int(r.breakdown)
            summary.n_unconverged += int(not r.converged)
            summary.block_size_counts[r.block_size] = (
                summary.block_size_counts.get(r.block_size, 0) + 1
            )
            dtype = getattr(r, "dtype", "float64")
            summary.dtype_counts[dtype] = summary.dtype_counts.get(dtype, 0) + 1
            attempts = getattr(r, "attempts", None)
            if attempts:
                summary.n_retries += len(attempts) - 1
                summary.n_escalations += int(getattr(r, "escalated", False))
                stage = getattr(r, "stage", "")
                if stage:
                    summary.stage_counts[stage] = summary.stage_counts.get(stage, 0) + 1
        return summary

    def merge(self, other: "SolveSummary") -> "SolveSummary":
        """In-place accumulate ``other``; returns ``self`` for chaining."""
        self.n_solves += other.n_solves
        self.n_systems += other.n_systems
        self.iterations += other.iterations
        self.n_matvec += other.n_matvec
        self.n_breakdowns += other.n_breakdowns
        self.n_unconverged += other.n_unconverged
        for k, v in other.block_size_counts.items():
            self.block_size_counts[k] = self.block_size_counts.get(k, 0) + v
        self.n_retries += other.n_retries
        self.n_escalations += other.n_escalations
        for k, v in other.stage_counts.items():
            self.stage_counts[k] = self.stage_counts.get(k, 0) + v
        for k, v in other.dtype_counts.items():
            self.dtype_counts[k] = self.dtype_counts.get(k, 0) + v
        return self

    @property
    def converged(self) -> bool:
        """True when at least one solve ran and none failed to converge."""
        return self.n_solves > 0 and self.n_unconverged == 0


@dataclass
class BlockSizeDecision:
    """One probe step of the dynamic block-size selection (Algorithm 4)."""

    block_size: int
    columns: int
    cost: float
    accepted: bool


@dataclass
class DynamicSolveResult:
    """Outcome of :func:`repro.solvers.block_size.solve_with_dynamic_block_size`.

    ``block_size_counts`` maps block size -> number of block solves performed
    at that size (the quantity tabulated in the paper's Table IV).
    """

    solution: np.ndarray
    converged: bool
    selected_block_size: int
    block_size_counts: dict[int, int]
    decisions: list[BlockSizeDecision]
    chunk_results: list[SolveResult]
    total_iterations: int
    n_matvec: int

    @property
    def residual_norm(self) -> float:
        if not self.chunk_results:
            return 0.0
        return max(r.residual_norm for r in self.chunk_results)

    def summary(self) -> SolveSummary:
        """Aggregate totals over the per-chunk solves."""
        return SolveSummary.of(self.chunk_results)
