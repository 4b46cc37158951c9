"""Library-wide configuration and the paper's experimental parameters.

``PaperParams`` reproduces Table I of the paper verbatim; ``RPAConfig`` is
the runtime configuration object consumed by the RPA drivers, defaulting to
the paper's values but scalable down for laptop-size reproductions (see
EXPERIMENTS.md for the scaling factors used by each benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperParams:
    """Experimental parameters from Table I of the paper."""

    mesh_spacing_bohr: float = 0.69
    n_eig_per_atom: int = 96
    n_quadrature: int = 8
    filter_degree: int = 2
    tol_subspace: tuple[float, ...] = (4e-3, 2e-3, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4)
    tol_sternheimer: float = 1e-2
    max_filter_iterations: int = 10

    def tol_subspace_for(self, k: int) -> float:
        """Subspace-iteration tolerance for quadrature point ``k`` (1-based)."""
        if not 1 <= k <= len(self.tol_subspace):
            raise ValueError(f"quadrature index {k} out of range 1..{len(self.tol_subspace)}")
        return self.tol_subspace[k - 1]


@dataclass
class RPAConfig:
    """Runtime configuration for the RPA correlation-energy calculation.

    Parameters
    ----------
    n_eig:
        Number of eigenvalues of nu^1/2 chi0 nu^1/2 computed per quadrature
        point (the paper uses 96 per atom).
    n_quadrature:
        Number of Gauss-Legendre points on the transformed semi-infinite
        frequency axis (Table II uses 8).
    tol_subspace:
        Per-quadrature-point subspace iteration tolerances (Eq. 7). A single
        float is broadcast to all points.
    tol_sternheimer:
        Relative Frobenius residual tolerance for the block COCG Sternheimer
        solves (Eq. 10).
    filter_degree:
        Chebyshev filter polynomial degree (Table I uses 2).
    max_filter_iterations:
        Maximum subspace iterations per quadrature point before declaring
        non-convergence (paper allows 10).
    max_cocg_iterations:
        Iteration cap for the block COCG solver.
    use_galerkin_guess:
        Construct the Eq. 13 deflating initial guess for Sternheimer solves.
    use_warm_start:
        Reuse converged eigenvectors from omega_k as the initial subspace at
        omega_{k+1} (Section III-F).
    dynamic_block_size:
        Enable Algorithm 4's per-processor dynamic block size selection;
        when disabled ``fixed_block_size`` is used.
    use_recycling:
        Cache converged Sternheimer solutions per (orbital, omega), rotate
        them with the Rayleigh-Ritz basis between subspace iterations and
        serve them as initial guesses — including seeding each new
        quadrature point from the previous one. Off by default (cold
        solves reproduce the historical matvec counts exactly).
    verify_level:
        Runtime invariant checking (``repro.verify``): ``"off"`` (default;
        zero-cost, bit-identical to an unverified build), ``"cheap"``
        (O(1)-per-event probes: operator symmetry, residual spot checks,
        quadrature/trace identities) or ``"full"`` (every solve re-verified,
        basis orthonormality, rotation conditioning). Failures surface as
        ``verify_*`` tracer counters and on the installed verifier.
    telemetry_level:
        Convergence telemetry (``repro.obs.telemetry``): ``"off"`` (default;
        the null recorder, bit-identical to an uninstrumented run),
        ``"summary"`` (compact per-solve records and per-(orbital, omega)
        aggregates) or ``"full"`` (adds residual histories, per-column
        convergence iterations and per-solve tracer events).
    batched_sternheimer:
        Fuse all occupied orbitals' Sternheimer systems at a quadrature
        point into one wide batched COCG solve (one shared Hamiltonian
        apply per iteration, per-orbital shifts as a diagonal correction).
        Off by default: the per-orbital path is bit-identical to the
        historical behaviour.
    solve_dtype:
        Working precision of the batched Sternheimer solves:
        ``"float64"`` (default) or ``"float32_ir"`` (one float32 COCG
        pass, then the float64 recurrence from its iterate until the true
        residual meets ``tol_sternheimer``). ``"float32_ir"`` requires
        ``batched_sternheimer``.
    use_ssa:
        Static subspace approximation (``repro.core.ssa``): filter the
        dielectric subspace once at the reference frequency (the largest
        omega), then only Rayleigh-Ritz in the frozen basis at every
        remaining quadrature point — one chi0 apply per point instead of a
        full filtered iteration. Requires ``use_warm_start`` (the frozen
        basis *is* the warm start). Off by default: the cold path is
        bit-identical to an SSA-free build.
    ssa_refresh_tol:
        Eq. 7 threshold on the frozen-basis residual above which an SSA
        point runs the cheap refresh (up to
        ``repro.core.rpa_energy.SSA_REFRESH_PASSES`` Chebyshev passes)
        before being accepted. ``None`` (the default) tracks each point's
        own subspace tolerance (``tol_subspace_for``), so an SSA point is
        held to the same residual standard full filtering would be — a
        fixed value far below ``tol_subspace`` would make every point
        exhaust its refresh budget and fall back. Larger
        values freeze more aggressively (fewer matvecs, larger controlled
        error); the Ritz values are variational, so the energy error of an
        accepted point is *second order* in this residual, and the verify
        layer bounds it per point.
    """

    n_eig: int
    n_quadrature: int = 8
    tol_subspace: float | tuple[float, ...] = (4e-3, 2e-3, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4)
    tol_sternheimer: float = 1e-2
    filter_degree: int = 2
    max_filter_iterations: int = 10
    max_cocg_iterations: int = 500
    use_galerkin_guess: bool = True
    use_warm_start: bool = True
    dynamic_block_size: bool = True
    fixed_block_size: int = 1
    max_block_size: int = 16
    use_recycling: bool = False
    seed: int | None = None
    verify_level: str = "off"  # "off" | "cheap" | "full" (repro.verify)
    telemetry_level: str = "off"  # "off" | "summary" | "full" (repro.obs.telemetry)
    batched_sternheimer: bool = False  # fuse all orbitals into one wide COCG solve
    solve_dtype: str = "float64"  # "float64" | "float32_ir" (batched path only)
    use_ssa: bool = False  # frequency-shared eigenbasis (repro.core.ssa)
    ssa_refresh_tol: float | None = None  # Eq. 7 refresh threshold; None = per-point tol_subspace

    def __post_init__(self) -> None:
        if self.n_eig <= 0:
            raise ValueError(f"n_eig must be positive, got {self.n_eig}")
        if self.n_quadrature <= 0:
            raise ValueError(f"n_quadrature must be positive, got {self.n_quadrature}")
        if self.tol_sternheimer <= 0:
            raise ValueError("tol_sternheimer must be positive")
        if self.filter_degree < 1:
            raise ValueError("filter_degree must be >= 1")
        if self.max_filter_iterations < 0:
            raise ValueError("max_filter_iterations must be >= 0")
        if self.max_cocg_iterations < 1:
            raise ValueError("max_cocg_iterations must be >= 1")
        if self.fixed_block_size < 1 or self.max_block_size < 1:
            raise ValueError("fixed_block_size and max_block_size must be >= 1")
        if self.verify_level not in ("off", "cheap", "full"):
            raise ValueError(
                f"verify_level must be 'off', 'cheap' or 'full', got {self.verify_level!r}"
            )
        if self.telemetry_level not in ("off", "summary", "full"):
            raise ValueError(
                f"telemetry_level must be 'off', 'summary' or 'full', "
                f"got {self.telemetry_level!r}"
            )
        if self.solve_dtype not in ("float64", "float32_ir"):
            raise ValueError(
                f"solve_dtype must be 'float64' or 'float32_ir', "
                f"got {self.solve_dtype!r}"
            )
        if self.solve_dtype != "float64" and not self.batched_sternheimer:
            raise ValueError(
                "solve_dtype='float32_ir' requires batched_sternheimer: the "
                "float32 iterations run inside the batched kernel only"
            )
        if self.ssa_refresh_tol is not None and self.ssa_refresh_tol <= 0:
            raise ValueError("ssa_refresh_tol must be positive")
        if self.use_ssa and not self.use_warm_start:
            raise ValueError(
                "use_ssa requires use_warm_start: the frozen reference basis "
                "is carried between quadrature points as the warm start"
            )
        if isinstance(self.tol_subspace, (int, float)):
            self.tol_subspace = (float(self.tol_subspace),) * self.n_quadrature
        else:
            self.tol_subspace = tuple(float(t) for t in self.tol_subspace)
            if len(self.tol_subspace) < self.n_quadrature:
                # Broadcast the last tolerance over remaining points, mirroring
                # the paper's tau_SI,3-8 notation.
                pad = (self.tol_subspace[-1],) * (self.n_quadrature - len(self.tol_subspace))
                self.tol_subspace = self.tol_subspace + pad
            self.tol_subspace = self.tol_subspace[: self.n_quadrature]
        if min(self.tol_subspace) <= 0:
            raise ValueError(f"tol_subspace must be positive, got {self.tol_subspace}")

    def tol_subspace_for(self, k: int) -> float:
        """Subspace tolerance for quadrature point ``k`` (1-based)."""
        if not 1 <= k <= self.n_quadrature:
            raise ValueError(f"quadrature index {k} out of range 1..{self.n_quadrature}")
        return self.tol_subspace[k - 1]

    def ssa_refresh_tol_for(self, k: int) -> float:
        """SSA refresh threshold for point ``k``: the configured value, or
        the point's own subspace tolerance when ``ssa_refresh_tol`` is None."""
        if self.ssa_refresh_tol is not None:
            return self.ssa_refresh_tol
        return self.tol_subspace_for(k)


PAPER_PARAMS = PaperParams()
