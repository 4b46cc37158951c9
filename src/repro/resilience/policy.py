"""Escalation policies for fault-tolerant Sternheimer solves.

The paper's Sternheimer systems ``(H - lambda_j + i omega_k)`` span widely
varying difficulty, and the short-recurrence block COCG (Algorithm 3) can
break down on hard ``(j, k)`` pairs. This module turns breakdown *detection*
(``SolveResult.breakdown``) into *recovery*: every solve runs through a
configurable chain of stages

    block COCG  ->  breakdown-free block COCG  ->  shift-regularized GMRES

under a per-solve budget expressed in matvec-equivalents. Each attempt is
recorded as a structured :class:`SolveAttempt` and mirrored into the active
tracer (``escalation`` spans, ``resilience_*`` counters), so retry behaviour
is visible in the same trace/metrics files the observability layer exports.

The chain is *verified*: a stage may only claim convergence when the true
relative residual of the original (unregularized) system meets the
tolerance. The regularized GMRES stage in particular re-checks its solution
against the unshifted operator, so escalation can never convert a hard
system into a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.config import ResilienceConfig
from repro.obs.telemetry import get_recorder
from repro.obs.tracer import get_tracer
from repro.solvers.block_cocg import block_cocg_solve
from repro.solvers.block_cocg_bf import block_cocg_bf_solve
from repro.solvers.gmres import gmres_block_solve
from repro.solvers.linear_operator import CountingOperator, as_operator
from repro.solvers.stats import SolveResult


class SternheimerSolveError(RuntimeError):
    """A Sternheimer solve exhausted its escalation chain in ``"raise"`` mode."""


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


def default_stages(config: ResilienceConfig | None = None) -> tuple[EscalationStage, ...]:
    """The production chain: block COCG -> BF block COCG -> regularized GMRES."""
    cfg = config if config is not None else ResilienceConfig()
    by_name = {
        "block_cocg": EscalationStage("block_cocg", block_cocg_solve),
        "block_cocg_bf": EscalationStage("block_cocg_bf", block_cocg_bf_solve),
        "gmres": EscalationStage(
            "gmres",
            lambda a, b, **kw: gmres_block_solve(a, b, restart=cfg.gmres_restart, **kw),
            regularization=cfg.gmres_regularization,
        ),
    }
    return tuple(by_name[name] for name in cfg.escalation_chain)


@dataclass
class EscalationPolicy:
    """Chain of solver stages with per-solve budgets (the tentpole policy).

    Use :meth:`from_config` for the production chain, or construct with
    explicit :class:`EscalationStage` objects (tests inject faulty stages
    this way). The policy object is itself a valid ``solver`` for
    :class:`repro.core.sternheimer.Chi0Operator` and
    :func:`repro.solvers.block_size.solve_with_dynamic_block_size` — calling
    it solves one block system through the chain.
    """

    stages: tuple[EscalationStage, ...]
    matvec_budget: int | None = None
    max_attempts: int | None = None

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if not self.stages:
            raise ValueError("an escalation policy needs at least one stage")
        if self.matvec_budget is not None and self.matvec_budget < 1:
            raise ValueError("matvec_budget must be >= 1 (or None)")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (or None)")

    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "EscalationPolicy":
        return cls(
            stages=default_stages(config),
            matvec_budget=config.matvec_budget,
            max_attempts=config.max_solve_attempts,
        )

    def __call__(self, a, b, **kwargs) -> EscalatedSolveResult:
        return resilient_solve(a, b, policy=self, **kwargs)


def resilient_solve(
    a,
    b: np.ndarray,
    policy: EscalationPolicy,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    n: int | None = None,
) -> EscalatedSolveResult:
    """Solve ``A Y = B`` through ``policy``'s escalation chain.

    Stages run in order until one converges, the attempt cap is reached, or
    the matvec budget is exhausted. Later stages warm-start from the best
    iterate seen so far. The returned result aggregates iterations and
    matvecs over *all* attempts, so existing accounting (``SolveSummary``,
    FLOP estimates, Table IV histograms) stays truthful under escalation.
    """
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
    max_attempts = policy.max_attempts or len(policy.stages)
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

    for idx, stage in enumerate(policy.stages[:max_attempts]):
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

        def _run() -> SolveResult:
            # Label the stage's solver records with this chain position so
            # telemetry can distinguish retries from first attempts.
            recorder = get_recorder()
            if not recorder.enabled:
                return _run_stage()
            with recorder.attempt_scope(idx, stage.name):
                return _run_stage()

        def _run_stage() -> SolveResult:
            return stage.solver(
                op, B, x0=guess, tol=tol, max_iterations=stage_cap, n=n_rows,
            )

        if idx == 0 or not tracer.enabled:
            res = _run()
        else:
            with tracer.span("escalation", stage=stage.name, attempt=idx,
                             block_size=s) as sp:
                res = _run()
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
        if tracer.enabled and idx + 1 < min(len(policy.stages), max_attempts):
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


def chain_of(names: Sequence[str], config: ResilienceConfig | None = None) -> EscalationPolicy:
    """Convenience: build a policy from stage names (subset of the defaults)."""
    base = config if config is not None else ResilienceConfig()
    cfg = replace(base, escalation_chain=tuple(names))
    return EscalationPolicy.from_config(cfg)
