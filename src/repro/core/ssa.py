"""Frequency-shared dielectric eigenbasis — the static subspace approximation.

The dielectric eigenbasis of ``nu^{1/2} chi0(i omega) nu^{1/2}`` barely
rotates across the imaginary-frequency quadrature grid (Weinberg et al.,
arXiv:2405.20258): the screening channels are set by the orbital structure,
while omega mainly rescales the eigenvalues. The SSA exploits this by
computing the Chebyshev-filtered subspace **once**, at the reference
frequency (the largest omega — first in the existing warm-start order), and
then only Rayleigh-Ritzing in that frozen basis at every remaining
quadrature point:

* frozen point: one ``chi0 . V`` apply for the projected Gram matrices
  ``(H_s, M_s)``, one generalized eigensolve — no filtering at all;
* refreshed point: if the Eq. 7 residual *in the frozen basis* exceeds
  ``refresh_tol``, one cheap Chebyshev pass (plus its Rayleigh-Ritz)
  realigns the basis before accepting.

Because the Ritz values are variational, the energy error of a frozen point
is second order in the subspace angle, so modest basis drift is harmless —
but it is *checked*, not assumed: every frozen/refreshed point runs the
Ritz-value sanity checks and an independent frozen-basis trace identity
(``Verifier.check_frozen_trace_identity``) that recomputes the generalized
pencil from the raw block pair, catching stale or un-reorthonormalized
bases that the production Rayleigh-Ritz mishandled.

The frozen basis is still rotated by the Rayleigh-Ritz ``Q`` at every
point, so the rotation-covariant machinery (Sternheimer solve recycler,
verify shadow projections) stays exactly aligned with the operand block.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable

import numpy as np

from repro.core.scheduler import Scheduler
from repro.core.subspace import SubspaceResult, _algorithm5, _rayleigh_ritz
from repro.obs.tracer import get_tracer
from repro.utils.rng import default_rng

#: The per-point subspace modes, in decreasing order of per-point cost.
#: ``filtered``: full Algorithm 5 (>= 1 Chebyshev pass). ``warm``: the
#: warm start satisfied Eq. 7 before any filtering. ``refreshed``: SSA
#: point that needed the one cheap realignment pass. ``frozen``: SSA
#: point accepted directly in the reference basis.
SUBSPACE_MODES = ("filtered", "warm", "refreshed", "frozen")

#: Deterministic start vector seed for the exterior-eigenvalue guard probe
#: (fixed so SSA runs are bit-reproducible across processes and backends).
GUARD_PROBE_SEED = 23117

#: Guard trigger margin, relative to the spectral scale ``|mu_min|``: an
#: exterior Ritz estimate this far below the least-negative *kept* Ritz
#: value means the frozen basis missed an emergent screening channel.
#: The Lanczos estimate is variational from above, so for a basis that
#: truly spans the lowest invariant subspace the deflated exterior can
#: never undershoot the kept edge by more than the accepted Ritz error
#: (O(refresh_tol) relative) — even a degenerate edge lands *at* the kept
#: value, not below it. The margin therefore only needs to absorb that
#: Ritz error plus probe rounding; 1e-3 of scale is orders of magnitude
#: above both while still catching sub-percent-of-scale missed channels.
GUARD_REL_MARGIN = 1e-3


def exterior_eigenvalue_estimate(
    apply_op: Callable[[np.ndarray], np.ndarray],
    V: np.ndarray,
    n_steps: int = 8,
) -> tuple[float, np.ndarray] | None:
    """Most-negative eigenpair *outside* ``span(V)`` via deflated Lanczos.

    Eq. 7 measures the residual of the *current* Ritz pairs, so a frozen
    basis that converged onto the wrong invariant subspace — missing a
    screening channel that only deepens at small omega and has near-zero
    overlap with the reference basis — passes it with flying colors. This
    probe is the independent check: ``n_steps`` Lanczos iterations on the
    deflated operator ``P A P`` (``P = I - V V^H``; ``V`` is orthonormal
    after Rayleigh-Ritz) from a deterministic random start. The estimate is
    variational from above, so a *gross* exterior eigenvalue (the failure
    mode that matters) is detected reliably with single-digit ``n_steps``
    at the cost of ``n_steps`` single-column operator applies — about one
    block-apply equivalent per SSA point.

    Returns ``(eigenvalue, ritz_vector)`` — the vector (unit norm,
    orthogonal to ``span(V)`` by construction) doubles as the recovery
    direction: injected into the block, it turns the near-zero overlap
    that defeated the refresh into an O(1) warm start for the filtered
    fallback. Returns ``None`` when the probe degenerates (zero deflated
    component or immediate breakdown), which callers must treat as "no
    information".
    """
    if n_steps < 1:
        return None
    n = V.shape[0]
    rng = default_rng(GUARD_PROBE_SEED)
    q = rng.standard_normal(n).astype(V.dtype, copy=False)
    norm0 = float(np.linalg.norm(q))
    q = q - V @ (V.conj().T @ q)
    beta = float(np.linalg.norm(q))
    # Anything at rounding level relative to the pre-deflation norm is not
    # a direction, just the orthogonalization residue of a (near-)full span.
    if beta <= 1e-10 * norm0 or not np.isfinite(beta):
        return None
    q = q / beta
    basis = [q]
    alphas: list[float] = []
    betas: list[float] = []
    for _ in range(n_steps):
        w = apply_op(q[:, None])[:, 0]
        w = w - V @ (V.conj().T @ w)  # keep the Krylov space deflated
        alpha = float(np.real(np.vdot(q, w)))
        alphas.append(alpha)
        # Full reorthogonalization: n_steps is single-digit, so the extra
        # O(n_steps^2 n) cost is noise next to the operator applies.
        for b in basis:
            w = w - b * np.vdot(b, w)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-14 * max(abs(alpha), 1.0):
            break
        betas.append(beta)
        q = w / beta
        basis.append(q)
    k = len(alphas)
    if k == 0:
        return None
    T = np.diag(np.asarray(alphas))
    if k > 1:
        off = np.asarray(betas[: k - 1])
        T = T + np.diag(off, 1) + np.diag(off, -1)
    t_vals, t_vecs = np.linalg.eigh(T)
    u = np.stack(basis[:k], axis=1) @ t_vecs[:, 0]
    norm = float(np.linalg.norm(u))
    if norm <= 0.0 or not np.isfinite(norm):
        return None
    return float(t_vals[0]), u / norm


def _frozen_rayleigh_ritz(
    V: np.ndarray, W: np.ndarray, sched: Scheduler
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generalized Rayleigh-Ritz of the frozen block pair ``(V, W = A V)``.

    Module-level indirection so the differential self-verification harness
    can plant a stale-basis fault here (a Rayleigh-Ritz that reuses the
    basis without re-orthonormalization, i.e. skips ``M_s``) without
    touching the production call sites; mirrors the
    ``Chi0Operator._make_batched_operator`` fault hook. Every backend's SSA
    points come through here, so one planted fault covers them all.
    """
    return _rayleigh_ritz(V, W, sched)


def ssa_error_gauge(vals: np.ndarray, residual_norms: np.ndarray) -> float:
    """First-order bound on the energy-term error of an accepted SSA point.

    ``d/dmu [ln(1 - mu) + mu] = -mu / (1 - mu)``, so a Ritz-value
    perturbation ``|delta mu_i| <= ||r_i||`` (Hermitian operator,
    first-order; the true Ritz error is second order, ``||r_i||^2 / gap``)
    moves the Eq. 1 integrand by at most ``sum_i ||r_i|| |mu_i/(1-mu_i)|``.
    Conservative by construction; exposed per point as
    ``FrequencyPointStats.ssa_error_bound``.
    """
    sens = np.abs(vals / (1.0 - vals))
    return float(np.sum(residual_norms * sens))


def frozen_subspace_point(
    apply_op: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    refresh_tol: float,
    degree: int = 2,
    max_refresh_passes: int = 1,
    on_rotation: Callable[[np.ndarray], None] | None = None,
    bounds_seed: tuple[float, float, float] | None = None,
    guard_probes: int = 8,
    recycler=None,
    scheduler: Scheduler | None = None,
) -> SubspaceResult:
    """One SSA quadrature point: Rayleigh-Ritz in the frozen basis ``v0``.

    Parameters
    ----------
    apply_op:
        Application ``V -> A V`` of the Hermitian dielectric operator at
        *this* point's omega (the frozen basis came from the reference
        omega).
    v0:
        The frozen basis — the reference point's converged eigenvectors,
        as rotated through any earlier SSA points.
    refresh_tol:
        Eq. 7 threshold on the frozen-basis residual above which the cheap
        refresh (one Chebyshev pass per ``max_refresh_passes``) triggers.
    degree:
        Chebyshev degree of the refresh pass (same as the filter degree).
    max_refresh_passes:
        How many refresh passes may run before the point is accepted with
        ``converged=False`` (0 disables refreshing entirely).
    on_rotation, bounds_seed, scheduler:
        As in :func:`repro.core.subspace.filtered_subspace_iteration`.
    guard_probes:
        Lanczos steps for the exterior-eigenvalue guard run on the accepted
        basis (:func:`exterior_eigenvalue_estimate`); 0 disables the guard.
    recycler:
        The Sternheimer solve recycler behind ``apply_op``, if any. Paused
        during guard probes: the probe columns are unrelated single vectors
        at the *same* omega as the block applies, so letting them hit the
        cache would serve stale exact-match guesses and overwrite cached
        block columns with probe solutions.

    Returns
    -------
    SubspaceResult with ``subspace_mode`` ``"frozen"`` (accepted directly)
    or ``"refreshed"``; ``iterations`` counts refresh passes, and
    ``converged`` reports whether the final residual met ``refresh_tol``.
    ``guard_triggered=True`` flags a basis the guard rejected — callers
    must redo the point with full filtering (the driver does).
    """
    if refresh_tol <= 0:
        raise ValueError("refresh_tol must be positive")
    if max_refresh_passes < 0:
        raise ValueError("max_refresh_passes must be >= 0")
    sub, W = _algorithm5(apply_op, v0, refresh_tol, degree, max_refresh_passes,
                         None, on_rotation, bounds_seed, scheduler,
                         rayleigh_ritz=_frozen_rayleigh_ritz,
                         modes=("frozen", "refreshed"), span="ssa_refresh")
    V, vals = sub.vectors, sub.eigenvalues
    tracer = get_tracer()

    # Exterior-eigenvalue guard: Eq. 7 cannot see an emergent screening
    # channel with near-zero overlap with the frozen span (it converges
    # happily onto the wrong invariant subspace). Probe the deflated
    # operator; a deeper exterior eigenvalue rejects the acceptance.
    # Guard at acceptance, not before: pre-refresh, ordinary basis drift is
    # indistinguishable from a missed channel (the probe sees every
    # not-yet-recovered component), while post-refresh anything still deeper
    # outside the span is a genuine zero-overlap miss that refreshing cannot
    # recover.
    with recycler.paused() if recycler is not None else nullcontext():
        probe = exterior_eigenvalue_estimate(apply_op, V, n_steps=guard_probes)
    if probe is not None:
        exterior, exterior_vec = probe
        margin = GUARD_REL_MARGIN * max(abs(float(vals[0])), 1e-300)
        if exterior < float(vals[-1]) - margin:
            sub.guard_triggered = True
            sub.guard_vector = exterior_vec
        if tracer.enabled:
            tracer.gauge("ssa_exterior_eigenvalue", exterior)
            if sub.guard_triggered:
                tracer.incr("ssa_guard_rejections")

    sub.ssa_error_bound = ssa_error_gauge(
        vals, np.linalg.norm(W - V * vals, axis=0))
    if tracer.enabled:
        tracer.gauge("ssa_error_bound", sub.ssa_error_bound)
    return sub
