"""Subspace iteration with polynomial filtering — the paper's Algorithms 2/5.

Computes the ``n_eig`` most-negative eigenvalues of the Hermitian operator
``nu^{1/2} chi0(i omega) nu^{1/2}`` (whose spectrum lies in [mu_min, 0] and
decays rapidly to zero — Figure 1). Each iteration applies a low-degree
Chebyshev filter (Table I uses degree 2), then solves the *generalized*
Rayleigh-Ritz problem ``H_s Q = M_s Q D`` exactly as Algorithm 5 states
(the filtered block is not re-orthonormalized, so ``M_s != I``).

Algorithm 5's warm-start structure is preserved: the iteration first
Rayleigh-Ritzes the initial block and checks Eq. 7 *before* any filtering,
so an accurate initial guess (the converged eigenvectors from the previous
quadrature point) can skip polynomial filtering entirely — the paper's key
optimization for the small-omega points.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from repro.core.scheduler import Scheduler, SerialScheduler
from repro.dft.eigensolvers import chebyshev_filter
from repro.obs.tracer import get_tracer
from repro.verify.invariants import get_verifier


@dataclass
class SubspaceResult:
    """Converged (or best-effort) partial eigendecomposition.

    ``eigenvalues`` ascend (most negative first); ``iterations`` counts
    *filtered* iterations, so 0 means the warm start already satisfied
    Eq. 7 and filtering was skipped entirely.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    iterations: int
    error: float
    error_history: list[float] = field(default_factory=list)
    converged: bool = False
    #: How the subspace was obtained: ``"filtered"`` (>= 1 Chebyshev pass),
    #: ``"warm"`` (the initial Rayleigh-Ritz already satisfied Eq. 7 and
    #: filtering was skipped), ``"frozen"`` / ``"refreshed"`` (the SSA path,
    #: repro.core.ssa). Disambiguates ``iterations == 0``.
    subspace_mode: str = "filtered"
    #: Last Chebyshev ``(low, cut, high)`` bounds used, if any filtering ran;
    #: callers seed the next quadrature point's bounds from these (the
    #: spectrum shifts smoothly with omega).
    filter_bounds: tuple[float, float, float] | None = None
    #: First-order bound on the energy-term error of an accepted SSA point
    #: (repro.core.ssa.ssa_error_gauge); 0.0 on the exact filtered path.
    ssa_error_bound: float = 0.0
    #: True when the SSA exterior-eigenvalue guard found a deeper eigenvalue
    #: outside the frozen span (repro.core.ssa) — the point must be redone
    #: with full filtering; the Ritz values here are *not* the lowest set.
    guard_triggered: bool = False
    #: The guard probe's Ritz vector (unit norm, orthogonal to the frozen
    #: span) when the guard triggered — the recovery direction the fallback
    #: injects into its warm-start block so the missed channel starts with
    #: O(1) overlap instead of ~0.
    guard_vector: "np.ndarray | None" = None


def filtered_subspace_iteration(
    apply_op: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float,
    degree: int = 2,
    max_iterations: int = 10,
    on_iteration: Callable[[int, float, np.ndarray], None] | None = None,
    on_rotation: Callable[[np.ndarray], None] | None = None,
    bounds_seed: tuple[float, float, float] | None = None,
    scheduler: Scheduler | None = None,
) -> SubspaceResult:
    """Run Algorithm 5 on operator ``apply_op`` starting from block ``v0``.

    Parameters
    ----------
    apply_op:
        Application ``V -> A V`` of the (negative semi-definite) Hermitian
        operator.
    v0:
        Initial block ``(n_d, n_eig)`` — random for the first quadrature
        point, the previous point's converged eigenvectors afterwards.
    tol:
        Eq. 7 tolerance ``tau_SI``.
    degree:
        Chebyshev filter degree (Table I: 2).
    max_iterations:
        Maximum *filtered* iterations (Table I: 10); exceeding it returns
        ``converged=False`` (the paper treats this as failure).
    on_iteration:
        Diagnostic hook called as ``(iteration, error, eigenvalues)`` after
        every convergence check.
    on_rotation:
        Hook called with the Rayleigh-Ritz eigenvector matrix ``Q`` right
        after each rotation ``V <- V Q``. Consumers that cache quantities
        linear in the operand block (the Sternheimer solve recycler) use it
        to keep their state aligned with the iteration's next operand.
    bounds_seed:
        Optional ``(low, cut, high)`` Chebyshev bounds from the previous
        quadrature point. The spectrum shifts smoothly with omega, so the
        seeded bounds widen the fresh per-iteration estimates conservatively
        (see :func:`_filter_bounds`); ``None`` reproduces the historical
        from-scratch estimates bit-for-bit.
    scheduler:
        Whose ``timers`` book the ``matmult`` / ``eigensolve`` /
        ``eval_error`` buckets of the Rayleigh-Ritz and Eq. 7 phases run
        here (:class:`repro.core.scheduler.Scheduler`). The RPA sweep passes
        its backend, with ``apply_op`` bound to that scheduler's ``apply``;
        the default books on private buckets (the active tracer's, when
        tracing).
    """
    res, _ = _algorithm5(apply_op, v0, tol, degree, max_iterations, on_iteration,
                         on_rotation, bounds_seed, scheduler)
    if not res.converged:
        res.subspace_mode = "filtered"  # "warm" only names a pass 0 that met tol
    return res


def _algorithm5(
    apply_op: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float,
    degree: int,
    max_iterations: int,
    on_iteration: Callable[[int, float, np.ndarray], None] | None,
    on_rotation: Callable[[np.ndarray], None] | None,
    bounds_seed: tuple[float, float, float] | None,
    scheduler: Scheduler | None,
    rayleigh_ritz=None,
    modes: tuple[str, str] = ("warm", "filtered"),
    span: str = "subspace_iteration",
) -> tuple[SubspaceResult, np.ndarray]:
    """The one Algorithm 5 loop: pass 0 Rayleigh-Ritzes ``v0`` and checks
    Eq. 7 before any filtering; every later pass filters first.

    Returns the result and the rotated ``W = A V`` of its last pass. The
    result's ``subspace_mode`` is ``modes[0]`` when no filter pass ran and
    ``modes[1]`` otherwise. A caller that supplies its own ``rayleigh_ritz``
    is re-projecting a *reused* basis (the SSA, :mod:`repro.core.ssa`): the
    verifier checks then carry the mode and add the frozen-basis trace
    identity on the pre-rotation pair, and the Chebyshev bounds chain from
    pass to pass even unseeded.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    # Complex initial blocks are legitimate (the operator is Hermitian, not
    # real symmetric, in general); preserve the dtype instead of silently
    # truncating imaginary parts. Real input keeps the historical float path.
    v0_dtype = complex if np.iscomplexobj(v0) else float
    V = np.array(v0, dtype=v0_dtype, copy=True)
    if V.ndim != 2:
        raise ValueError(f"v0 must be a block (n_d, n_eig), got shape {V.shape}")
    sched = scheduler if scheduler is not None else SerialScheduler()
    tracer = get_tracer()
    verifier = get_verifier()
    frozen = rayleigh_ritz is not None
    if not frozen:
        rayleigh_ritz = _rayleigh_ritz

    # The seed chain advances only when seeding is active or the basis is
    # frozen, so the unseeded filtered path keeps the historical from-scratch
    # estimate at every iteration.
    last_bounds = bounds_seed
    used_bounds: tuple[float, float, float] | None = None
    history: list[float] = []
    for it in range(max_iterations + 1):
        mode = modes[it > 0]
        with (tracer.span(span, iteration=it, degree=degree) if it
              else nullcontext()) as sp:
            if it:
                used_bounds = _filter_bounds(vals, seed=last_bounds)
                if frozen or bounds_seed is not None:
                    last_bounds = used_bounds
                V = chebyshev_filter(apply_op, V, degree, *used_bounds)
            W = apply_op(V)
            # Pre-rotation operands for the independent frozen-basis check.
            raw = (V, W) if frozen else None
            vals, V, W, Q = rayleigh_ritz(V, W, sched)
            if on_rotation is not None:
                on_rotation(Q)
                if verifier.enabled:
                    verifier.note_recycler_rotation(Q)
            err = _eq7_error(V, W, vals, sched)
            if verifier.enabled:
                ctx = {"iteration": it}
                if frozen:
                    ctx["subspace_mode"] = mode
                verifier.check_rotation(Q, **ctx)
                verifier.check_ritz_values(vals, err, **ctx)
                if frozen:
                    verifier.check_frozen_trace_identity(*raw, vals, **ctx)
                if verifier.full:
                    verifier.check_basis_orthonormal(V, **ctx)
            if it:
                sp.set(error=err)
        history.append(err)
        if tracer.enabled:
            tracer.gauge("subspace_error", err, iteration=it)
        if on_iteration is not None:
            on_iteration(it, err, vals)
        if err <= tol:
            break
    return SubspaceResult(vals, V, it, err, history, converged=bool(err <= tol),
                          subspace_mode=mode,
                          filter_bounds=used_bounds or bounds_seed), W


def _filter_bounds(
    vals: np.ndarray,
    seed: tuple[float, float, float] | None = None,
) -> tuple[float, float, float]:
    """Chebyshev bounds for a negative-semidefinite, rapidly-decaying spectrum.

    Wanted: [vals[0], vals[-1]] (the most negative part). Unwanted: the tail
    clustering at zero, i.e. (vals[-1], 0]. The cut sits just above the
    least-negative kept Ritz value; the upper bound is a small positive
    margin covering the exact upper edge at zero.

    ``seed`` carries the bounds used at the previous quadrature point. The
    spectrum shifts smoothly with omega, so blending the seed in
    conservatively (``min`` on the wanted edges, ``max`` on the unwanted
    edge) keeps the damped interval covering both spectra. The blend is
    idempotent: on a repeated spectrum the seeded bounds equal the fresh
    ones exactly.
    """
    v_min, v_max = float(vals[0]), float(vals[-1])
    scale = max(abs(v_min), 1e-12)
    high = 1e-3 * scale
    cut = 0.9 * v_max if v_max < 0 else 0.5 * high
    if cut >= high:
        cut = 0.5 * high
    low = v_min - 0.05 * scale
    if low >= cut:
        low = cut - scale
    if seed is not None:
        s_low, s_cut, s_high = seed
        low = min(low, s_low)
        cut = min(cut, s_cut)
        high = max(high, s_high)
        if cut >= high:
            cut = 0.5 * high
        if low >= cut:
            low = cut - scale
    return low, cut, high


def _rayleigh_ritz(
    V: np.ndarray, W: np.ndarray, sched: Scheduler
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generalized Rayleigh-Ritz ``H_s Q = M_s Q D``; rotates V and W.

    Returns ``(vals, V Q, W Q, Q)`` — ``Q`` is exposed so callers can feed
    rotation-covariant caches (the ``on_rotation`` hook).

    The Gram matrices are the *sesquilinear* projections ``V^H W`` / ``V^H V``,
    symmetrized here. Conjugation is required for complex blocks (``V.T @ V``
    is complex symmetric, not Hermitian); for real blocks ``conj()`` is the
    identity and the float path is bit-for-bit the plain product. The
    measured phases are reported to the scheduler, which books them in its
    own time domain.
    """
    n_d, m = V.shape
    t0 = time.perf_counter()
    vh = V.conj().T
    hs, ms = vh @ W, vh @ V
    hs = 0.5 * (hs + hs.conj().T)
    ms = 0.5 * (ms + ms.conj().T)
    t1 = time.perf_counter()
    vals, Q = _generalized_eigh(hs, ms)
    t2 = time.perf_counter()
    V = V @ Q
    W = W @ Q
    t3 = time.perf_counter()
    sched.charge_rayleigh_ritz(n_d, m, (t1 - t0) + (t3 - t2), t2 - t1)
    return vals, V, W, Q


def _generalized_eigh(hs: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh(hs, ms)`` with the Tikhonov retry loop for ill-conditioned M_s."""
    try:
        return scipy.linalg.eigh(hs, ms)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
        # M_s lost numerical definiteness (the filter aligned columns).
        # Tikhonov-regularize the Gram matrix; equivalent to damping the
        # nearly-dependent directions.
        reg = 1e-12 * max(float(np.trace(ms)) / ms.shape[0], 1.0)
        for _ in range(6):
            try:
                return scipy.linalg.eigh(hs, ms + reg * np.eye(ms.shape[0]))
            except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
                reg *= 100.0
        raise RuntimeError(
            "generalized Rayleigh-Ritz failed: filtered subspace collapsed"
        )


def _eq7_error(V: np.ndarray, W: np.ndarray, vals: np.ndarray,
               sched: Scheduler) -> float:
    """The paper's Eq. 7 convergence functional.

    Uses the already-available ``W = A V`` (post-rotation), so the check
    costs only norms — the expensive recomputation the paper performs is
    modelled separately by the simulated backend's ``eval_error`` charge.
    """
    t0 = time.perf_counter()
    num = float(np.linalg.norm(W - V * vals, axis=0).sum())
    den = len(vals) * np.sqrt(np.sum(vals**2))
    if den == 0.0:
        err = float(np.inf) if num > 0 else 0.0
    else:
        err = float(num / den)
    sched.charge_error_eval(time.perf_counter() - t0)
    return err
