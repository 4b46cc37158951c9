"""Runtime numerical invariant checking and differential self-verification.

The RPA pipeline is rich in cheap, checkable identities: the Sternheimer
coefficient matrices are complex *symmetric* (``A = A^T``, unconjugated),
every Krylov solve claims a relative residual that can be recomputed
against the true operator, the Rayleigh-Ritz rotation must leave the basis
(M-)orthonormal, the transformed Gauss-Legendre weights are positive, the
recycler's rotated guesses are exact by linearity, and the Eq. 1 integrand
``sum_j [ln(1 - mu_j) + mu_j]`` must equal the dielectric-route trace
``Tr[ln eps + (I - eps)]``. None of these hold *by construction* once the
code is refactored — the last two PRs each shipped a bug that only a
violated invariant would have caught at the point of violation.

Two layers:

* :mod:`repro.verify.invariants` — a :class:`Verifier` installed like the
  tracer (``use_verifier`` / ``get_verifier``), with ``cheap`` and ``full``
  levels toggled by ``RPAConfig.verify_level`` / CLI ``--verify``. Failed
  checks are recorded on the verifier and reported through the active
  tracer as ``verify_*`` counters and ``verify_failure`` events. The
  disabled path is a single attribute check (``NULL_VERIFIER.enabled``),
  so ``--verify off`` runs are bit-identical to an unverified build.
* :mod:`repro.verify.harness` — the differential harness behind
  ``python -m repro.verify``: runs the full Krylov pipeline on a tiny grid
  across the configuration matrix (backends x recycling, plus the
  batched, solve-dtype and SSA axes), cross-checks every
  configuration against the dense Adler-Wiser oracle to a pinned
  tolerance, exercises deliberate fault
  injections (asymmetric operator, fake-converged solve, broken rotation),
  and emits a machine-readable report.
"""

from repro.verify.invariants import (
    NULL_VERIFIER,
    VerificationError,
    Verifier,
    VerifyFailure,
    get_verifier,
    set_verifier,
    use_verifier,
    verifier_for_level,
)

__all__ = [
    "NULL_VERIFIER",
    "VerificationError",
    "Verifier",
    "VerifyFailure",
    "get_verifier",
    "set_verifier",
    "use_verifier",
    "verifier_for_level",
]
