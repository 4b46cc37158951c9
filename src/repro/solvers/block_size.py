"""Dynamic block-size selection — the paper's Algorithm 4.

Each (simulated) processor owns a queue of right-hand-side columns for a
fixed Sternheimer coefficient matrix. It probes geometrically increasing
block sizes (1, 2, 4, ...) on successive chunks of the queue: doubling the
block size doubles the work per chunk, so the probe keeps doubling while

    t_new <= 2 * t_old        (per-chunk; equivalently per-column cost
                               non-increasing)

and settles on the last efficient size for the remaining columns. Costs are
wall-clock by default; a deterministic FLOP model (:func:`flop_cost_model`)
is provided for reproducible tests, the simulated-MPI runtime and the
Sternheimer kernel.

The schedule is written once, as the coroutine :func:`block_size_steps`;
:func:`solve_with_dynamic_block_size` drives it for one system, and
``Chi0Operator`` drives one per orbital in lockstep.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Generator

import numpy as np

from repro.obs.tracer import get_tracer
from repro.solvers.block_cocg import block_cocg_solve, run_steps
from repro.solvers.stats import (
    BlockSizeDecision,
    DynamicSolveResult,
    SolveResult,
    SolveSummary,
)

CostFn = Callable[[SolveResult, float], float]


def flop_cost_model(apply_cost_per_column: float) -> CostFn:
    """Deterministic cost model mirroring Section III-B's per-iteration terms.

    ``cost = n_matvec * apply_cost + iterations * (5 n s^2 + 2 s^3)``

    Parameters
    ----------
    apply_cost_per_column:
        FLOPs charged per operator application to one column (e.g.
        ``(6 r + 1) * n_d`` for the stencil part plus the nonlocal term).
    """

    def cost(result: SolveResult, _wall: float) -> float:
        s = result.block_size
        n = result.solution.shape[0]
        blas3 = result.iterations * (5.0 * n * s * s + 2.0 * s**3)
        return result.n_matvec * apply_cost_per_column + blas3

    return cost


def solve_with_dynamic_block_size(
    a,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
    max_block_size: int = 16,
    solver=block_cocg_solve,
    cost_fn: CostFn | None = None,
    n: int | None = None,
) -> DynamicSolveResult:
    """Solve ``A Y = B`` choosing the COCG block size on the fly (Algorithm 4).

    Parameters
    ----------
    a, b, tol, max_iterations, n:
        As in :func:`repro.solvers.block_cocg.block_cocg_solve`.
    x0:
        Optional initial guess for the *whole* block (columns are sliced to
        match each chunk).
    max_block_size:
        Upper bound on the probe (the parallel runtime caps this at
        ``n_eig / p`` — Section III-D).
    solver:
        Block solver with the ``block_cocg_solve`` signature.
    cost_fn:
        Maps ``(SolveResult, wall_seconds) -> cost``; wall-clock by default.

    Returns
    -------
    DynamicSolveResult
        Including ``block_size_counts`` (Table IV data) and the probe
        ``decisions`` trace.

    This is the single-system driver of :func:`block_size_steps`: each chunk
    is one ``solver`` call on ``a``.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim == 1:
        b = b[:, None]
    if x0 is not None:
        x0 = np.asarray(x0, dtype=complex)
        if x0.ndim == 1:
            x0 = x0[:, None]
        if x0.shape != b.shape:
            raise ValueError(f"x0 shape {x0.shape} != rhs shape {b.shape}")
    Y = np.empty(b.shape, dtype=complex)

    def chunk(sl: slice):
        res = solver(a, b[:, sl], x0=x0[:, sl] if x0 is not None else None,
                     tol=tol, max_iterations=max_iterations, n=n)
        Y[:, sl] = res.solution if res.solution.ndim == 2 else res.solution[:, None]
        return res
        yield  # a coroutine that never yields: the chunk is solved at once

    return run_steps(block_size_steps(Y, chunk, max_block_size, cost_fn), None)


def block_size_steps(
    solution: np.ndarray,
    chunk: Callable[[slice], Generator],
    max_block_size: int = 16,
    cost_fn: CostFn | None = None,
    block_size: int | None = None,
):
    """Algorithm 4 over the columns of ``solution`` as a coroutine.

    ``chunk(sl)`` returns the coroutine that solves columns ``sl``: it
    yields the blocks its operator must be applied to (or none, when it
    solves at once), leaves the chunk's solution in ``solution[:, sl]`` and
    returns its :class:`SolveResult`. This coroutine passes those blocks
    through, so its driver decides how they are applied, and returns the
    :class:`DynamicSolveResult`. Given ``block_size``, the columns are cut
    into fixed chunks of that size instead (no probe, no decisions).
    """
    n_rhs = solution.shape[1]
    if n_rhs == 0:
        raise ValueError("b must contain at least one right-hand side")
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    measure = cost_fn if cost_fn is not None else (lambda _res, wall: wall)
    tracer = get_tracer()

    decisions: list[BlockSizeDecision] = []
    chunk_results: list[SolveResult] = []
    counts: dict[int, int] = {}
    next_col = 0

    def _note_decision(decision: BlockSizeDecision) -> None:
        decisions.append(decision)
        if tracer.enabled:
            tracer.event("block_size_decision", block_size=decision.block_size,
                         columns=decision.columns, cost=decision.cost,
                         accepted=decision.accepted)

    def _solve_chunk(s: int):
        nonlocal next_col
        cols = min(s, n_rhs - next_col)
        sl = slice(next_col, next_col + cols)
        start = perf_counter()
        res = yield from chunk(sl)
        wall = perf_counter() - start
        chunk_results.append(res)
        counts[cols] = counts.get(cols, 0) + 1
        next_col += cols
        return res, measure(res, wall), cols

    def _result(s: int) -> DynamicSolveResult:
        summary = SolveSummary.of(chunk_results)
        return DynamicSolveResult(
            solution=solution,
            converged=summary.converged,
            selected_block_size=s,
            block_size_counts=counts,
            decisions=decisions,
            chunk_results=chunk_results,
            total_iterations=summary.iterations,
            n_matvec=summary.n_matvec,
        )

    if block_size is not None:
        while next_col < n_rhs:
            yield from _solve_chunk(block_size)
        return _result(block_size)

    # -- probe phase (Algorithm 4 lines 1-12) --------------------------------
    res, t_old, cols_old = yield from _solve_chunk(1)
    s = 1
    # The size-1 probe's verdict is real, not a formality: a broken or
    # unconverged probe is recorded as rejected and must not anchor the
    # t_old comparison (its cost measures a failed solve, not size-1 work).
    anchor_ok = res.converged and not res.breakdown
    _note_decision(BlockSizeDecision(1, cols_old, t_old, accepted=anchor_ok))

    def _verdict(result: SolveResult, t_new: float, cols_new: int) -> bool:
        # Per-column cost comparison == the paper's t_new <= 2 t_old for
        # full chunks, but stays fair for ragged trailing chunks. With no
        # valid anchor, a healthy chunk is accepted on its own merits and
        # becomes the new anchor.
        if result.breakdown:
            return False
        if not anchor_ok:
            return result.converged
        return (t_new / cols_new) <= (t_old / cols_old)

    if next_col < n_rhs and max_block_size >= 2:
        res, t_new, cols_new = yield from _solve_chunk(2)
        s = 2
        while next_col < n_rhs:
            efficient = _verdict(res, t_new, cols_new)
            _note_decision(BlockSizeDecision(s, cols_new, t_new, accepted=efficient))
            if not efficient:
                s = max(1, s // 2)
                break
            anchor_ok = True
            if 2 * s > max_block_size:
                break
            t_old, cols_old = t_new, cols_new
            s *= 2
            res, t_new, cols_new = yield from _solve_chunk(s)
        else:
            # Queue exhausted during probing; record the final probe verdict.
            efficient = _verdict(res, t_new, cols_new)
            _note_decision(BlockSizeDecision(s, cols_new, t_new, accepted=efficient))
            if not efficient:
                s = max(1, s // 2)

    # -- steady phase (Algorithm 4 line 13) -----------------------------------
    while next_col < n_rhs:
        yield from _solve_chunk(s)

    if tracer.enabled:
        tracer.gauge("selected_block_size", s, n_rhs=n_rhs)
    return _result(s)
