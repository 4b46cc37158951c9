"""Fault-tolerant solve orchestration (escalation chains, budgets, faults).

``repro.resilience`` wraps every Sternheimer solve in a configurable
escalation policy (block COCG -> breakdown-free block COCG -> shift
regularized GMRES) with per-solve matvec budgets, and provides the fault
injection hooks the recovery tests drive. The worker-recovery pieces live
next to the runtimes they extend (``repro.parallel.manager_worker``,
``repro.parallel.spmd``); this package deliberately does not
import them, so ``core`` can depend on the policy without a cycle.
"""

from repro.resilience.faults import DieOnceFile, breakdown_injector
from repro.resilience.policy import (
    EscalatedSolveResult,
    EscalationPolicy,
    EscalationStage,
    SolveAttempt,
    SternheimerSolveError,
    chain_of,
    default_stages,
    resilient_solve,
)

__all__ = [
    "EscalationPolicy",
    "EscalationStage",
    "EscalatedSolveResult",
    "SolveAttempt",
    "SternheimerSolveError",
    "chain_of",
    "default_stages",
    "resilient_solve",
    "breakdown_injector",
    "DieOnceFile",
]
