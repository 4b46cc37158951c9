"""The Sternheimer solve's failure path: escalation chains and budgets.

The paper's Sternheimer systems ``(H - lambda_j + i omega_k)`` span widely
varying difficulty, and the short-recurrence block COCG (Algorithm 3) "may
require deflation if the residual vectors become linearly dependent". This
module turns breakdown *detection* (``SolveResult.breakdown``) into
*recovery*. ``EscalationPolicy(default_stages())`` is the solver of every
:class:`repro.core.sternheimer.Chi0Operator` not given another; it runs the
chain

    block COCG  ->  breakdown-free block COCG  ->  shift-regularized GMRES

only as far as a solve needs. A solve whose first stage converges is that
stage's plain call on the caller's operator and nothing more. The chain's
bookkeeping — a counting operator per attempt, the ``||B||`` norm,
telemetry attempt scopes, structured :class:`SolveAttempt` records and the
tracer's ``escalation`` spans and ``resilience_*`` counters — runs only
once the first stage has failed, or on every solve of a policy with a
``matvec_budget``. A solve the whole chain cannot rescue comes back
unconverged with its best iterate; ``Chi0Operator`` keeps that iterate and
charges the rigorous ``4 ||r|| / omega`` degraded-solve bound.

The chain is *verified*: a stage may only claim convergence when the true
relative residual of the original (unregularized) system meets the
tolerance. The regularized GMRES stage in particular re-checks its solution
against the unshifted operator, so escalation can never convert a hard
system into a silently wrong answer.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.obs.telemetry import get_recorder
from repro.obs.tracer import get_tracer
from repro.solvers.block_cocg import block_cocg_solve
from repro.solvers.block_cocg_bf import block_cocg_bf_solve
from repro.solvers.gmres import gmres_block_solve
from repro.solvers.linear_operator import CountingOperator, as_operator
from repro.solvers.stats import SolveResult

#: The last-resort GMRES stage: its Krylov basis size, and the imaginary
#: shift ``i * eps`` that regularizes (near-)singular Sternheimer shifts.
GMRES_RESTART = 50
GMRES_REGULARIZATION = 1e-8


@dataclass(frozen=True)
class SolveAttempt:
    """One stage attempt inside an escalated solve (feeds the tracer)."""

    stage: str
    iterations: int
    n_matvec: int
    residual_norm: float
    converged: bool
    breakdown: bool
    budget_left: int | None = None  # matvec-equivalents remaining after this attempt


@dataclass
class EscalatedSolveResult(SolveResult):
    """A :class:`SolveResult` carrying its escalation history.

    ``stage`` names the attempt whose iterate was returned (the winning
    stage when converged, the best-residual stage otherwise);
    ``escalated`` is True when more than one stage ran.
    """

    attempts: list[SolveAttempt] = field(default_factory=list)
    stage: str = ""
    escalated: bool = False
    budget_exhausted: bool = False


@dataclass(frozen=True)
class EscalationStage:
    """One solver stage of an escalation chain.

    Parameters
    ----------
    name:
        Stage label used in traces, metrics and ``SolveSummary.stage_counts``.
    solver:
        Block solver with the ``block_cocg_solve`` calling convention.
    regularization:
        Imaginary shift ``i * eps`` added to the operator before solving
        (shift-regularized GMRES). The attempt's convergence is re-verified
        against the *original* operator whenever this is nonzero.
    matvecs_per_iteration:
        Matvec-equivalents one iteration costs per right-hand-side column
        (1 for all Krylov stages here); used to trim iteration caps to the
        remaining budget.
    """

    name: str
    solver: Callable[..., SolveResult]
    regularization: float = 0.0
    matvecs_per_iteration: int = 1


def default_stages() -> tuple[EscalationStage, ...]:
    """The production chain: block COCG -> BF block COCG -> regularized GMRES."""
    return (
        EscalationStage("block_cocg", block_cocg_solve),
        EscalationStage("block_cocg_bf", block_cocg_bf_solve),
        EscalationStage("gmres", partial(gmres_block_solve, restart=GMRES_RESTART),
                        regularization=GMRES_REGULARIZATION),
    )


@dataclass
class EscalationPolicy:
    """Chain of solver stages with an optional per-solve matvec budget.

    ``EscalationPolicy(default_stages())`` is the production solver; tests
    build chains from explicit :class:`EscalationStage` objects (faulty or
    truncated chains). The policy object is itself a valid ``solver`` for
    :class:`repro.core.sternheimer.Chi0Operator` and
    :func:`repro.solvers.block_size.solve_with_dynamic_block_size` — calling
    it solves one block system through the chain.
    """

    stages: tuple[EscalationStage, ...]
    matvec_budget: int | None = None

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if not self.stages:
            raise ValueError("an escalation policy needs at least one stage")
        if self.matvec_budget is not None and self.matvec_budget < 1:
            raise ValueError("matvec_budget must be >= 1 (or None)")

    @property
    def plain_first_stage(self) -> Callable[..., SolveResult] | None:
        """The first stage's solver when it runs as a plain call on the
        caller's operator (no budget, no regularization); ``None`` when the
        chain's bookkeeping wraps every attempt."""
        first = self.stages[0]
        if self.matvec_budget is None and not first.regularization:
            return first.solver
        return None

    def __call__(self, a, b, **kwargs) -> SolveResult:
        return resilient_solve(a, b, policy=self, **kwargs)


def resilient_solve(
    a,
    b: np.ndarray,
    policy: EscalationPolicy,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    n: int | None = None,
    first: SolveResult | None = None,
) -> SolveResult:
    """Solve ``A Y = B`` through ``policy``'s escalation chain.

    Without a matvec budget the first stage is a plain call on ``a``, and
    its converged result is returned exactly as the stage produced it.
    ``first`` hands over that first stage's result when the caller already
    ran it (the Sternheimer driver runs it in lockstep with other systems):
    the chain continues from it exactly as if it had run here.
    Otherwise stages run in order until one converges or the budget is
    exhausted; later stages warm-start from the best iterate seen so far.
    The :class:`EscalatedSolveResult` returned then aggregates iterations
    and matvecs over *all* attempts, so existing accounting
    (``SolveSummary``, FLOP estimates, Table IV histograms) stays truthful
    under escalation.
    """
    if first is None and policy.plain_first_stage is not None:
        first = policy.plain_first_stage(a, b, x0=x0, tol=tol,
                                         max_iterations=max_iterations, n=n)
    if first is not None and first.converged:
        return first

    b_arr = np.asarray(b, dtype=complex)
    squeeze = b_arr.ndim == 1
    B = b_arr[:, None] if squeeze else b_arr
    if B.ndim != 2:
        raise ValueError(f"b must be (n,) or (n, s), got shape {b_arr.shape}")
    n_rows, s = B.shape
    A = as_operator(a, n if n is not None else n_rows)
    b_norm = float(np.linalg.norm(B))
    if b_norm == 0.0:
        out = np.zeros_like(B)
        return EscalatedSolveResult(
            out[:, 0] if squeeze else out, True, 0, 0.0, [0.0], block_size=s,
            stage=policy.stages[0].name,
        )

    tracer = get_tracer()
    budget = policy.matvec_budget
    attempts: list[SolveAttempt] = []
    history: list[float] = []
    best_solution: np.ndarray | None = None
    best_residual = np.inf
    best_stage = policy.stages[0].name
    total_iterations = 0
    total_matvec = 0
    budget_exhausted = False
    guess = None if x0 is None else np.asarray(x0, dtype=complex)
    if guess is not None and guess.ndim == 1:
        guess = guess[:, None]

    for idx, stage in enumerate(policy.stages):
        if idx == 0 and first is not None:
            res = first
        else:
            remaining = None if budget is None else budget - total_matvec
            if remaining is not None and remaining < s * stage.matvecs_per_iteration:
                budget_exhausted = True
                break
            stage_cap = max_iterations
            if remaining is not None:
                stage_cap = min(stage_cap, remaining // (s * stage.matvecs_per_iteration))
            # Fresh counter per attempt: `res.n_matvec` must be the attempt's own
            # applications, not a cumulative total across the chain.
            if stage.regularization:
                eps = stage.regularization
                op = CountingOperator(lambda x, _e=eps: A(x) + 1j * _e * x, A.n)
            else:
                op = CountingOperator(A, A.n)
            # Label the stage's solver records with this chain position so
            # telemetry can distinguish retries from first attempts.
            span = (tracer.span("escalation", stage=stage.name, attempt=idx,
                                block_size=s) if idx else nullcontext())
            with get_recorder().attempt_scope(idx, stage.name), span as sp:
                res = stage.solver(
                    op, B, x0=guess, tol=tol, max_iterations=stage_cap, n=n_rows,
                )
                if sp is not None:
                    sp.set(converged=res.converged, breakdown=res.breakdown,
                           residual=res.residual_norm)

        sol = res.solution if res.solution.ndim == 2 else res.solution[:, None]
        converged = res.converged
        residual = res.residual_norm
        n_matvec = res.n_matvec
        if stage.regularization:
            # Verify against the true operator; the verification matvecs are
            # charged to the attempt (op wraps A, so A counted them too).
            residual = float(np.linalg.norm(B - A(sol))) / b_norm
            n_matvec += s
            converged = residual <= tol
        total_iterations += res.iterations
        total_matvec += n_matvec
        remaining_after = None if budget is None else max(budget - total_matvec, 0)
        attempts.append(SolveAttempt(
            stage=stage.name, iterations=res.iterations, n_matvec=n_matvec,
            residual_norm=residual, converged=converged, breakdown=res.breakdown,
            budget_left=remaining_after,
        ))
        history.extend(res.residual_history if res.residual_history else [residual])
        if np.all(np.isfinite(sol)) and residual < best_residual:
            best_residual = residual
            best_solution = sol
            best_stage = stage.name
        if tracer.enabled:
            tracer.incr(f"resilience_attempts.{stage.name}")
            if converged and idx > 0:
                tracer.incr(f"resilience_stage_success.{stage.name}")
        if converged:
            break
        if tracer.enabled and idx + 1 < len(policy.stages):
            tracer.event("solve_escalated", from_stage=stage.name,
                         residual=residual, breakdown=res.breakdown)
        if best_solution is not None:
            guess = best_solution

    if best_solution is None:
        best_solution = np.zeros_like(B)
        best_residual = history[-1] if history else 1.0
    converged = bool(attempts) and attempts[-1].converged and best_residual <= tol
    escalated = len(attempts) > 1
    if tracer.enabled:
        if escalated:
            tracer.incr("resilience_retries", len(attempts) - 1)
            tracer.incr("resilience_escalations")
        if budget_exhausted:
            tracer.incr("resilience_budget_exhausted")

    out = best_solution[:, 0] if squeeze else best_solution
    return EscalatedSolveResult(
        solution=out,
        converged=converged,
        iterations=total_iterations,
        residual_norm=best_residual,
        residual_history=history,
        n_matvec=total_matvec,
        block_size=s,
        breakdown=(not converged) and any(at.breakdown for at in attempts),
        attempts=attempts,
        stage=best_stage,
        escalated=escalated,
        budget_exhausted=budget_exhausted,
    )
