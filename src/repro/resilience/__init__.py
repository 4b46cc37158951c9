"""The Sternheimer solve's failure path and fault injection.

``repro.resilience`` holds the escalation policy every ``Chi0Operator``
solves through by default — block COCG -> breakdown-free block COCG ->
shift-regularized GMRES, nothing to configure; a converged first stage is
the plain solver call — and the fault injection hooks the recovery tests
drive. The worker-recovery pieces live next to the runtimes they extend
(``repro.parallel.executor``, ``repro.parallel.spmd``); this package
deliberately does not import them, so ``core`` can depend on the policy
without a cycle.
"""

from repro.resilience.faults import DieOnceFile, breakdown_injector
from repro.resilience.policy import (
    EscalatedSolveResult,
    EscalationPolicy,
    EscalationStage,
    SolveAttempt,
    default_stages,
    resilient_solve,
)

__all__ = [
    "EscalationPolicy",
    "EscalationStage",
    "EscalatedSolveResult",
    "SolveAttempt",
    "default_stages",
    "resilient_solve",
    "breakdown_injector",
    "DieOnceFile",
]
