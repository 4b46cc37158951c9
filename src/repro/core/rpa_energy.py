"""The RPA correlation-energy driver — the paper's Algorithm 6.

Sequential sweep over the transformed Gauss-Legendre frequency points
(largest omega first), running warm-started filtered subspace iteration on
``nu^{1/2} chi0(i omega_k) nu^{1/2}`` at each point, with all Sternheimer
systems solved by block COCG + dynamic block sizing. Each point's energy
term is ``sum_j ln(1 - mu_j) + mu_j`` over the Ritz values that point
converged (Section III-A); the stochastic estimators of
:mod:`repro.core.trace` are not part of the sweep. Produces per-point
energy terms, eigenvalue snapshots, kernel timings and solver statistics —
everything the paper's output log reports.

This is the only sweep loop: *where* each chi0 application, Gram product
and Eq. 7 norm runs is the :class:`repro.core.scheduler.Scheduler`'s
business (in process by default; ``repro.parallel`` supplies the
simulated-MPI and shared-memory SPMD schedulers), so every backend returns
the same :class:`RPAEnergyResult`.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.config import RPAConfig
from repro.core.quadrature import FrequencyQuadrature, transformed_gauss_legendre
from repro.core.scheduler import Scheduler, SerialScheduler
from repro.core.ssa import frozen_subspace_point
from repro.core.sternheimer import Chi0Operator, SternheimerStats
from repro.core.subspace import SubspaceResult, filtered_subspace_iteration
from repro.core.trace import trace_from_eigenvalues
from repro.solvers.recycle import RecycleStats, SolveRecycler
from repro.dft.scf import DFTResult
from repro.grid.coulomb import CoulombOperator
from repro.obs.telemetry import get_recorder, recorder_for_level, use_recorder
from repro.obs.tracer import get_tracer
from repro.utils.rng import default_rng
from repro.utils.timing import KernelTimers
from repro.verify.invariants import get_verifier, use_verifier, verifier_for_level

#: Refresh budget per SSA point. A point whose frozen-basis residual still
#: exceeds the refresh threshold after this many Chebyshev passes falls back
#: to full filtering, so a generous budget costs nothing on omega-stable
#: spectra and only bounds how long the cheap path may try.
SSA_REFRESH_PASSES = 12


@dataclass
class FrequencyPointStats:
    """Per-quadrature-point record (one block of the paper's output log)."""

    index: int
    omega: float
    weight: float
    energy_term: float
    eigenvalues: np.ndarray
    filter_iterations: int
    error: float
    converged: bool
    elapsed_seconds: float
    solve_error_bound: float = 0.0  # operator-norm bound from degraded solves
    #: How the subspace at this point was obtained: ``"filtered"`` (>= 1
    #: Chebyshev pass), ``"warm"`` (warm start satisfied Eq. 7 immediately),
    #: ``"frozen"`` / ``"refreshed"`` (SSA, repro.core.ssa). Disambiguates
    #: the ways ``filter_iterations == 0`` can happen.
    subspace_mode: str = "filtered"
    #: First-order bound on the energy-term error of an accepted SSA point
    #: (zero on the exact filtered path).
    ssa_error_bound: float = 0.0
    #: The point's share of the scheduler's timeline: virtual seconds on the
    #: simulated backend, measured kernel busy time on the real ones.
    simulated_seconds: float = 0.0

    @property
    def energy_contribution(self) -> float:
        """Weighted contribution ``w_k E_k / (2 pi)``."""
        return self.weight * self.energy_term / (2.0 * np.pi)


@dataclass
class RPAEnergyResult:
    """Complete outcome of an RPA correlation-energy calculation."""

    energy: float
    energy_per_atom: float
    points: list[FrequencyPointStats]
    quadrature: FrequencyQuadrature
    stats: SternheimerStats
    timers: KernelTimers
    config: RPAConfig
    n_atoms: int
    elapsed_seconds: float = 0.0
    final_vectors: np.ndarray | None = None
    recycle: "RecycleStats | None" = None  # solve-cache accounting (None = cold run)
    verify: dict | None = None  # Verifier.summary() (None = verification off)
    telemetry: dict | None = None  # ConvergenceRecorder.payload() (None = off)
    # Where the sweep ran (Scheduler.report()); one-rank defaults.
    backend: str = "serial"
    n_ranks: int = 1
    block_size_cap: int = 1  # the operator's s_max (Section III-D: <= n_eig / p)
    simulated_walltime: float = 0.0
    comm_seconds: float = 0.0
    imbalance_seconds: float = 0.0
    per_rank_chi0_seconds: np.ndarray = field(default_factory=lambda: np.zeros(1))
    n_rank_failures: int = 0
    machine: object | None = None  # MachineProfile behind a simulated run
    #: Pair-occupation mass the integer-occupation chi0 leaves out:
    #: sum_{j <= n_s} (1 - f_j) + sum_{j > n_s} f_j over the SCF's states.
    #: Exactly 0.0 for an insulator; > 0 means a smeared SCF's fractional
    #: occupations were rounded to the first n_s orbitals.
    ignored_occupation: float = 0.0

    @property
    def converged(self) -> bool:
        return all(p.converged for p in self.points)

    @property
    def breakdown(self):
        """Read-only view of the Fig. 5 kernel buckets in ``timers``
        (modeled seconds on the simulated backend, measured elsewhere)."""
        return MappingProxyType(self.timers.buckets)

    @property
    def degraded_error_bound(self) -> float:
        """Total operator-level error bound from degraded Sternheimer solves
        (``SternheimerStats.degraded_error_bound``); zero for a clean run."""
        return self.stats.degraded_error_bound

    @property
    def skipped_solve_error_bound(self) -> float:
        """Quadrature-weighted diagnostic bound on the energy contribution of
        degraded solves: ``sum_k w_k bound_k / (2 pi)``. Zero for a clean
        run; nonzero means graceful degradation occurred and the reported
        energy carries that explicit uncertainty."""
        return sum(
            p.weight * p.solve_error_bound / (2.0 * np.pi) for p in self.points
        )

    def summary(self) -> str:
        """Paper-style output block (cf. the artifact's Si8.out)."""
        lines = ["omega    weight    E_k (Ha)      iters  err        time(s)  mode"]
        for p in self.points:
            lines.append(
                f"{p.omega:8.3f} {p.weight:8.3f} {p.energy_term: .6e} "
                f"{p.filter_iterations:5d}  {p.error:.3e}  {p.elapsed_seconds:7.2f}"
                f"  {p.subspace_mode}"
            )
        n_frozen = sum(p.subspace_mode == "frozen" for p in self.points)
        n_refreshed = sum(p.subspace_mode == "refreshed" for p in self.points)
        if n_frozen or n_refreshed:
            ssa_bound = sum(
                p.weight * p.ssa_error_bound / (2.0 * np.pi) for p in self.points
            )
            lines.append(
                f"SSA: {n_frozen} frozen, {n_refreshed} refreshed point(s); "
                f"first-order energy bound {ssa_bound:.3e} (Ha)"
            )
        lines.append(
            f"Total RPA correlation energy: {self.energy:.5e} (Ha), "
            f"{self.energy_per_atom:.5e} (Ha/atom)"
        )
        if self.stats.degraded_error_bound > 0.0:
            lines.append(
                f"WARNING: {self.stats.n_degraded_solves} Sternheimer solve(s) "
                f"degraded; energy error bound {self.skipped_solve_error_bound:.3e} (Ha)"
            )
        if self.recycle is not None:
            r = self.recycle
            lines.append(
                f"Solve recycling: {r.hits} hits, {r.omega_seeds} cross-omega "
                f"seeds, {r.misses} misses ({self.stats.n_matvec} matvecs total)"
            )
        if self.verify is not None:
            n_fail = len(self.verify["failures"])
            lines.append(
                f"Invariant checks ({self.verify['level']}): "
                f"{self.verify['checks_run']} run, {n_fail} failed"
            )
            for f in self.verify["failures"]:
                lines.append(f"  VERIFY FAILURE [{f['check']}]: {f['message']}")
        return "\n".join(lines)


def chi0_operator_from_config(
    dft: DFTResult,
    config: RPAConfig,
    coulomb: CoulombOperator,
    max_block_size: int | None = None,
) -> Chi0Operator:
    """The Sternheimer operator ``config`` asks for (tolerances, block
    sizing, kernel, recycler). ``max_block_size`` overrides the config's cap —
    the distributed backends pass Section III-D's ``n_eig / p``."""
    return Chi0Operator(
        dft.hamiltonian,
        dft.occupied_orbitals,
        dft.occupied_energies,
        coulomb,
        tol=config.tol_sternheimer,
        max_iterations=config.max_cocg_iterations,
        use_galerkin_guess=config.use_galerkin_guess,
        dynamic_block_size=config.dynamic_block_size,
        fixed_block_size=config.fixed_block_size,
        max_block_size=(config.max_block_size if max_block_size is None
                        else max_block_size),
        use_batched=config.batched_sternheimer,
        solve_dtype=config.solve_dtype,
        recycler=(SolveRecycler(width=config.n_eig)
                  if config.use_recycling else None),
    )


def compute_rpa_energy(
    dft: DFTResult,
    config: RPAConfig,
    coulomb: CoulombOperator | None = None,
    chi0_operator: Chi0Operator | None = None,
    initial_vectors: np.ndarray | None = None,
    keep_vectors: bool = False,
    scheduler: Scheduler | None = None,
) -> RPAEnergyResult:
    """Compute ``E_RPA`` for a converged DFT ground state (Algorithm 6).

    Parameters
    ----------
    dft:
        Converged Kohn-Sham result supplying ``H``, the occupied orbitals
        and energies.
    config:
        RPA runtime configuration (tolerances, filter degree, solver
        policy); see :class:`repro.config.RPAConfig`.
    coulomb:
        Optional pre-built Coulomb operator (reused across calls).
    chi0_operator:
        Optional pre-built Sternheimer operator; overrides the solver
        policy in ``config`` when given.
    initial_vectors:
        Optional initial subspace for the first quadrature point (defaults
        to pointwise random, Algorithm 6 line 4).
    keep_vectors:
        Retain the final converged eigenvector block in the result (useful
        for warm-starting subsequent calls or Fig. 2-style diagnostics).
    scheduler:
        Execution backend already wrapping its operator (``scheduler.op``
        replaces ``chi0_operator``); the caller owns and closes it. Default:
        an in-process :class:`~repro.core.scheduler.SerialScheduler`.
        ``repro.parallel.compute_rpa_energy_parallel`` builds the others.
    """
    n_d = dft.grid.n_points
    if config.n_eig > n_d:
        raise ValueError(f"n_eig = {config.n_eig} exceeds n_d = {n_d}")
    if dft.n_occupied < 1:
        raise ValueError("DFT result has no occupied orbitals")

    start = time.perf_counter()
    tracer = get_tracer()
    if scheduler is None:
        if chi0_operator is None:
            if coulomb is None:
                coulomb = CoulombOperator(dft.grid, radius=dft.hamiltonian.radius)
            chi0_operator = chi0_operator_from_config(dft, config, coulomb)
        elif config.use_recycling and chi0_operator.recycler is None:
            chi0_operator.recycler = SolveRecycler(width=config.n_eig)
        scheduler = SerialScheduler(chi0_operator)
    sched, chi0_operator = scheduler, scheduler.op
    # Resolved after the scheduler exists: a backend may have replaced the
    # operator's recycler with a shared implementation.
    recycler = chi0_operator.recycler

    quad = transformed_gauss_legendre(config.n_quadrature)
    rng = default_rng(config.seed)
    if initial_vectors is not None:
        V = np.array(initial_vectors, dtype=float, copy=True)
        if V.shape != (n_d, config.n_eig):
            raise ValueError(f"initial_vectors shape {V.shape} != ({n_d}, {config.n_eig})")
    else:
        V = rng.standard_normal((n_d, config.n_eig))

    energy = 0.0
    points: list[FrequencyPointStats] = []
    prev_sub: SubspaceResult | None = None
    with ExitStack() as stack:
        # Install the invariant checker for the duration of the sweep.
        # An already-active verifier (e.g. installed by the differential
        # harness or a test) takes precedence over the config level. The
        # SPMD backend forks its workers at first use, i.e. after this and
        # the recorder below are installed, so workers inherit them.
        verifier = get_verifier()
        if config.verify_level != "off" and not verifier.enabled:
            verifier = stack.enter_context(
                use_verifier(verifier_for_level(config.verify_level))
            )
        if verifier.enabled:
            verifier.check_quadrature(quad)
        # Convergence telemetry follows the same install-unless-active rule
        # as the verifier (an outer harness's recorder wins over config).
        recorder = get_recorder()
        if config.telemetry_level != "off" and not recorder.enabled:
            recorder = stack.enter_context(
                use_recorder(recorder_for_level(config.telemetry_level))
            )
        if recorder.enabled:
            recorder.sweep_started(len(quad))
        stack.enter_context(
            tracer.span("rpa_energy", system=dft.crystal.label,
                        n_eig=config.n_eig, n_quadrature=config.n_quadrature,
                        backend=sched.backend, n_ranks=sched.n_ranks,
                        block_size_cap=chi0_operator.max_block_size)
        )
        for k in range(1, len(quad) + 1):
            sched.start_point(k)
            omega = float(quad.points[k - 1])
            weight = float(quad.weights[k - 1])
            t0 = time.perf_counter()
            t_sched0 = sched.elapsed
            bound_before = chi0_operator.stats.degraded_error_bound

            def apply_op(block: np.ndarray) -> np.ndarray:
                return sched.apply(block, omega)

            if recorder.enabled:
                recorder.point_started(k, omega)
            with tracer.span("omega_point", index=k, omega=omega,
                             weight=weight) as sp:
                sub = _subspace_point(apply_op, V, k, config, sched, recycler,
                                      prev_sub)
                if config.use_ssa:
                    prev_sub = sub
                if config.use_warm_start:
                    V = sub.vectors
                else:
                    V = rng.standard_normal((n_d, config.n_eig))
                    if recycler is not None:
                        # A fresh random block shares nothing with the cache.
                        recycler.clear()

                e_k = trace_from_eigenvalues(sub.eigenvalues)  # Alg. 6 line 21
                if verifier.enabled:
                    # Eq. 1 integrand vs the dielectric-route trace over the
                    # same partial spectrum (mu_i are the Ritz values of
                    # nu^{1/2} chi0 nu^{1/2}, eps_i = 1 - mu_i).
                    verifier.check_trace_identity(
                        sub.eigenvalues, e_k, index=k, omega=omega
                    )
                point_bound = (
                    chi0_operator.stats.degraded_error_bound - bound_before
                )
                sp.set(energy_term=e_k, filter_iterations=sub.iterations,
                       error=sub.error, converged=sub.converged,
                       subspace_mode=sub.subspace_mode)
                if point_bound > 0.0:
                    sp.set(solve_error_bound=point_bound)
            simulated = sched.elapsed - t_sched0
            if recorder.enabled:
                recorder.point_finished(
                    k, omega=omega, seconds=time.perf_counter() - t0,
                    energy_term=e_k, converged=sub.converged,
                    iterations=sub.iterations, error=sub.error,
                    error_history=sub.error_history,
                    simulated_seconds=simulated,
                    subspace_mode=sub.subspace_mode,
                )
            if tracer.enabled:
                if sched.time_domain == "virtual":
                    # The same point on the simulated timeline: one top-row
                    # span above the per-rank kernel spans.
                    tracer.record("omega_point", t_sched0, end=sched.elapsed,
                                  domain="virtual", index=k, omega=omega,
                                  filter_iterations=sub.iterations,
                                  converged=sub.converged,
                                  subspace_mode=sub.subspace_mode)
                tracer.incr("omega_points")
                if sub.subspace_mode != "filtered":
                    tracer.incr(f"omega_points_{sub.subspace_mode}")
            energy += weight * e_k / (2.0 * np.pi)
            points.append(
                FrequencyPointStats(
                    index=k,
                    omega=omega,
                    weight=weight,
                    energy_term=e_k,
                    eigenvalues=sub.eigenvalues.copy(),
                    filter_iterations=sub.iterations,
                    error=sub.error,
                    converged=sub.converged,
                    elapsed_seconds=time.perf_counter() - t0,
                    solve_error_bound=point_bound,
                    subspace_mode=sub.subspace_mode,
                    ssa_error_bound=sub.ssa_error_bound,
                    simulated_seconds=simulated,
                )
            )

    timers = sched.timers
    return RPAEnergyResult(
        energy=energy,
        energy_per_atom=energy / dft.crystal.n_atoms,
        points=points,
        quadrature=quad,
        stats=chi0_operator.stats,
        # Under tracing the buckets live in the tracer; hand out a plain
        # KernelTimers that is a live view over them.
        timers=timers.kernel_timers() if timers is tracer else timers,
        config=config,
        n_atoms=dft.crystal.n_atoms,
        elapsed_seconds=time.perf_counter() - start,
        final_vectors=V.copy() if keep_vectors else None,
        recycle=recycler.stats if recycler is not None else None,
        verify=verifier.summary() if verifier.enabled else None,
        telemetry=recorder.payload() if recorder.enabled else None,
        backend=sched.backend,
        n_ranks=sched.n_ranks,
        block_size_cap=chi0_operator.max_block_size,
        machine=sched.machine,
        ignored_occupation=float((1.0 - dft.occupations[:dft.n_occupied]).sum()
                                 + dft.occupations[dft.n_occupied:].sum()),
        **sched.report(),
    )


def _subspace_point(
    apply_op,
    V: np.ndarray,
    k: int,
    config: RPAConfig,
    sched: Scheduler,
    recycler: SolveRecycler | None,
    prev_sub: SubspaceResult | None,
) -> SubspaceResult:
    """Algorithm 5 at quadrature point ``k`` under the per-point policy.

    With SSA on, every point after one that converged is first tried in
    the frozen basis (``prev_sub`` is the previous point's result, ``None``
    without SSA or at the reference point). A rejected acceptance — the
    refresh budget ran out, or the exterior-eigenvalue guard found a
    screening channel the frozen span missed — is redone with full
    filtering, warm-started from the refined basis, so accepted energies
    never carry an unguarded approximation.
    """
    bounds = prev_sub.filter_bounds if prev_sub is not None else None
    if prev_sub is not None and prev_sub.converged:
        sub = frozen_subspace_point(
            apply_op,
            V,
            refresh_tol=config.ssa_refresh_tol_for(k),
            degree=config.filter_degree,
            max_refresh_passes=SSA_REFRESH_PASSES,
            on_rotation=recycler.rotate_frozen if recycler is not None else None,
            bounds_seed=bounds,
            recycler=recycler,
            scheduler=sched,
        )
        if sub.converged and not sub.guard_triggered:
            return sub
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("ssa_fallback_points")
        V = sub.vectors
        if sub.guard_vector is not None:
            # Inject the guard probe's Ritz vector (already orthogonal to
            # the span) in place of the least important column: the missed
            # channel enters the warm start with O(1) overlap instead of
            # ~0, collapsing the fallback iteration count.
            V = V.copy()
            V[:, -1] = sub.guard_vector
            if recycler is not None:
                # The column swap is not a rotation of the old block, so
                # cached solves no longer correspond to the RHS they claim.
                recycler.clear()
    return filtered_subspace_iteration(
        apply_op,
        V,
        tol=config.tol_subspace_for(k),
        degree=config.filter_degree,
        max_iterations=config.max_filter_iterations,
        on_rotation=recycler.rotate if recycler is not None else None,
        bounds_seed=bounds,
        scheduler=sched,
    )

