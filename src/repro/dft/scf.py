"""Self-consistent field driver — the KS-DFT stage standing in for SPARC.

Produces exactly what the paper's RPA stage consumes: the converged
Hamiltonian operator, the lowest eigenpairs (occupied orbitals and their
energies, l2-orthonormal), and the electron density.

The ion-ion (Ewald) energy is omitted: it cancels in the correlation-energy
differences the paper reports (its Delta E_RPA is a difference of RPA
*correlation* energies), and no part of the RPA pipeline depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dft.atoms import Crystal
from repro.dft.density import density_from_orbitals, electron_count
from repro.dft.eigensolvers import ChebyshevFilteredSubspace, dense_lowest_eigenpairs
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.hartree import hartree_energy, hartree_potential
from repro.dft.mixing import AndersonMixer
from repro.dft.occupations import fermi_dirac_occupations, insulator_occupations
from repro.dft.pseudopotential import (
    GTH_LIBRARY,
    GaussianPseudopotential,
    build_nonlocal_projectors,
    gaussian_local_potential,
    gth_real_space_local_potential,
    local_potential_on_grid,
    real_space_local_potential,
)
from repro.dft.xc import lda_xc, xc_energy
from repro.grid.coulomb import CoulombOperator
from repro.grid.kronecker import spectral_laplacian
from repro.grid.mesh import Grid3D
from repro.obs.tracer import get_tracer

# Inexact CheFSI: SCF iteration k solves its eigenproblem only to
# max(tau_final, min(_EIG_TOL_CAP, _EIG_TOL_RATIO * r_{k-1})), r the density
# residual, since a tighter solve than the density it feeds is wasted work.
# tau_final = max(0.1 tol, 1e-8) is the tolerance convergence is accepted at.
_EIG_TOL_RATIO = 0.1  # eigen-tolerance per unit of the previous density residual
_EIG_TOL_CAP = 1e-3  # loosest eigen-tolerance, used by the first iteration


@dataclass
class SCFHistory:
    """Per-iteration record of an SCF run.

    ``eigensolver_passes`` / ``eigensolver_tols`` / ``eigensolver_converged``
    describe each iteration's eigensolve: CheFSI filter passes, the Ritz
    residual tolerance it ran at and whether it reached it;
    ``eigensolver_single_passes`` counts the passes that filtered in float32.
    The dense solver is exact: 0 passes at tolerance 0.
    """

    density_residuals: list[float] = field(default_factory=list)
    band_energies: list[float] = field(default_factory=list)
    eigensolver_passes: list[int] = field(default_factory=list)
    eigensolver_tols: list[float] = field(default_factory=list)
    eigensolver_converged: list[bool] = field(default_factory=list)
    eigensolver_single_passes: list[int] = field(default_factory=list)


@dataclass
class DFTResult:
    """Converged (or best-effort) Kohn-Sham ground state.

    ``orbitals`` are l2-orthonormal columns; ``eigenvalues`` ascend; the
    first ``n_occupied`` orbitals are the doubly-occupied manifold the
    Sternheimer equations perturb.
    """

    crystal: Crystal
    grid: Grid3D
    hamiltonian: Hamiltonian
    eigenvalues: np.ndarray
    orbitals: np.ndarray
    occupations: np.ndarray
    n_occupied: int
    density: np.ndarray
    energies: dict[str, float]
    history: SCFHistory
    converged: bool
    n_iterations: int

    @property
    def occupied_orbitals(self) -> np.ndarray:
        return self.orbitals[:, : self.n_occupied]

    @property
    def occupied_energies(self) -> np.ndarray:
        return self.eigenvalues[: self.n_occupied]

    @property
    def gap(self) -> float:
        """HOMO-LUMO gap (requires at least one unoccupied state)."""
        if self.n_occupied >= len(self.eigenvalues):
            raise ValueError("no unoccupied state available to compute a gap")
        return float(self.eigenvalues[self.n_occupied] - self.eigenvalues[self.n_occupied - 1])


def run_scf(
    crystal: Crystal,
    grid: Grid3D | None = None,
    mesh_spacing: float = 0.69,
    radius: int = 4,
    n_extra_states: int = 4,
    eigensolver: str = "auto",
    tol: float = 1e-6,
    max_iterations: int = 60,
    mixing_alpha: float = 0.3,
    mixing_history: int = 6,
    smearing: float | None = None,
    kerker_q0: float | None = 0.7,
    chefsi_degree: int = 10,
    library: dict | None = None,
    gaussian_pseudos: dict[str, GaussianPseudopotential] | None = None,
    seed: int | None = None,
) -> DFTResult:
    """Run a Kohn-Sham LDA SCF calculation.

    Parameters
    ----------
    crystal:
        Atomic configuration (periodic cell).
    grid:
        Real-space mesh; built from ``mesh_spacing`` when omitted.
    radius:
        FD stencil radius of the kinetic operator.
    n_extra_states:
        Unoccupied states carried beyond ``n_electrons / 2`` (needed for
        gap reporting and smearing).
    eigensolver:
        ``"dense"``, ``"chefsi"`` or ``"auto"`` (dense below 1500 points).
        CheFSI is warm-started from the previous iteration's whole subspace
        and solves only as tightly as the previous density residual warrants
        (see ``_EIG_TOL_RATIO``); the SCF converges only on an iteration it
        solved to ``max(0.1 tol, 1e-8)``. The first solve starts from the
        grid's lowest Laplacian modes and estimates the spectral upper
        bound every later solve of the run reuses. A solve filters in float32
        while its residual is far above float32's rounding level (the loose
        early iterations) and in float64 after; ``SCFHistory`` counts the
        float32 passes. The dense path is float64 throughout.
    tol:
        SCF convergence threshold on the relative density residual
        ``dv * ||rho_out - rho_in||_1 / n_electrons``.
    smearing:
        Fermi-Dirac smearing width in Hartree; ``None`` for insulator
        filling.
    kerker_q0:
        Kerker preconditioning wavevector (Bohr^-1) applied to the density
        residual before mixing — damps the long-wavelength charge sloshing
        that otherwise stalls defect cells. ``None`` disables it.
    chefsi_degree:
        Highest Chebyshev filter degree a CheFSI pass may use; each pass
        after a cold solve's first picks the lowest degree (at least 2)
        that should take its residual to the tolerance, assuming no more
        damping per degree than the solve's previous pass achieved (nor less
        than half the filter's predicted damping).
    gaussian_pseudos:
        When given, use soft local-only pseudopotentials instead of GTH
        (tiny model systems).
    """
    if grid is None:
        grid = crystal.make_grid(mesh_spacing)
    lib = library if library is not None else GTH_LIBRARY

    if gaussian_pseudos is not None:
        if grid.bc == "periodic":
            v_ext = gaussian_local_potential(crystal, grid, gaussian_pseudos)
        else:
            # Isolated system (Dirichlet): direct real-space summation.
            v_ext = real_space_local_potential(crystal, grid, gaussian_pseudos)
        nonlocal_part = None
        z_by_species = {s: gaussian_pseudos[s].z_ion for s in set(crystal.species)}
    else:
        if grid.bc == "periodic":
            v_ext = local_potential_on_grid(crystal, grid, lib)
        else:
            # Isolated system: direct real-space GTH summation.
            v_ext = gth_real_space_local_potential(crystal, grid, lib)
        nonlocal_part = build_nonlocal_projectors(crystal, grid, lib)
        z_by_species = {s: lib[s].z_ion for s in set(crystal.species)}

    n_electrons = int(round(sum(z_by_species[s] for s in crystal.species)))
    if smearing is None and n_electrons % 2 != 0:
        raise ValueError(
            f"odd electron count ({n_electrons}) requires Fermi-Dirac smearing"
        )
    n_occ = (n_electrons + 1) // 2
    n_states = min(n_occ + max(n_extra_states, 1), grid.n_points)

    if eigensolver == "auto":
        eigensolver = "dense" if grid.n_points <= 1500 else "chefsi"
    if eigensolver not in ("dense", "chefsi"):
        raise ValueError(f"unknown eigensolver {eigensolver!r}")

    coulomb = CoulombOperator(grid, radius=radius)
    h = Hamiltonian(grid, v_ext, nonlocal_part, radius=radius)
    # Locals, not Hamiltonian attributes: two n_d x n_d matrices for one SCF loop.
    dense_constants = h.dense_constants() if eigensolver == "dense" else None
    mixer = AndersonMixer(alpha=mixing_alpha, history=mixing_history)
    history = SCFHistory()

    if kerker_q0 is not None and grid.bc == "periodic":
        _lap = spectral_laplacian(grid, radius)
        # Laplacian symbol lam ~ -G^2: multiplier G^2 / (G^2 + q0^2).
        _kerker = -_lap.symbol / (-_lap.symbol + float(kerker_q0) ** 2)

        def precondition_residual(residual: np.ndarray) -> np.ndarray:
            return _lap.apply_multiplier(_kerker, residual)

    else:

        def precondition_residual(residual: np.ndarray) -> np.ndarray:
            return residual

    rho = np.full(grid.n_points, n_electrons / grid.volume)
    subspace: np.ndarray | None = None
    # Estimated at the first CheFSI solve; its 20 % + 1 Ha padding covers
    # the potential's later moves.
    spectral_bound: float | None = None
    eig_tol_final = max(tol * 0.1, 1e-8)
    eigenvalues = np.zeros(n_states)
    orbitals = np.zeros((grid.n_points, n_states))
    occ = np.zeros(n_states)
    resid = np.inf
    converged = False
    it = 0

    tracer = get_tracer()
    t_scf = tracer.now() if tracer.enabled else 0.0
    for it in range(1, max_iterations + 1):
        t_iter = tracer.now() if tracer.enabled else 0.0
        eps_xc, v_xc = lda_xc(rho)
        v_h = hartree_potential(rho, coulomb)
        h.update_potential(v_ext + v_h + v_xc)

        if eigensolver == "dense":
            eigenvalues, orbitals = dense_lowest_eigenpairs(h, n_states, dense_constants)
            passes, singles, eig_tol, eig_converged = 0, 0, 0.0, True
        else:
            # Warm start from the previous iteration's whole filtered subspace.
            eig_tol = max(eig_tol_final, min(_EIG_TOL_CAP, _EIG_TOL_RATIO * resid))
            res = ChebyshevFilteredSubspace(
                h, n_states, degree=chefsi_degree, tol=eig_tol, seed=seed,
                spectral_bound=spectral_bound,
            ).solve(v0=subspace)
            eigenvalues, orbitals, subspace = res.eigenvalues, res.orbitals, res.subspace
            spectral_bound = res.spectral_bound
            passes, singles, eig_converged = res.iterations, res.single_passes, res.converged

        if smearing is None:
            occ = insulator_occupations(eigenvalues, n_electrons)
        else:
            occ, _ = fermi_dirac_occupations(eigenvalues, n_electrons, smearing)

        rho_out = density_from_orbitals(orbitals, grid, occ)
        resid = float(grid.dv * np.abs(rho_out - rho).sum()) / max(n_electrons, 1)
        band = float(2.0 * np.sum(occ * eigenvalues))
        history.density_residuals.append(resid)
        history.band_energies.append(band)
        history.eigensolver_passes.append(passes)
        history.eigensolver_tols.append(eig_tol)
        history.eigensolver_converged.append(eig_converged)
        history.eigensolver_single_passes.append(singles)
        if tracer.enabled:
            tracer.record("scf_iteration", t_iter, iteration=it,
                          residual=resid, band_energy=band, eigensolver_passes=passes,
                          eigensolver_tol=eig_tol, eigensolver_converged=eig_converged,
                          eigensolver_single_passes=singles)
            tracer.gauge("scf_density_residual", resid, iteration=it)
        # Orbitals handed on must meet the final eigen-tolerance, not a loose one.
        if resid < tol and eig_converged and eig_tol <= eig_tol_final:
            rho = rho_out
            converged = True
            break
        rho = mixer.mix(rho, rho + precondition_residual(rho_out - rho))
        # Keep the density physical after extrapolation.
        rho = np.maximum(rho, 0.0)
        total = electron_count(rho, grid)
        if total > 0:
            rho *= n_electrons / total

    if tracer.enabled:
        tracer.record("scf", t_scf, iterations=it, converged=converged,
                      eigensolver=eigensolver,
                      eigensolver_passes=sum(history.eigensolver_passes),
                      eigensolver_single_passes=sum(history.eigensolver_single_passes))

    # Final energies at the converged density.
    eps_xc, v_xc = lda_xc(rho)
    v_h = hartree_potential(rho, coulomb)
    e_band = float(2.0 * np.sum(occ * eigenvalues))
    e_h = hartree_energy(rho, v_h, grid.dv)
    e_xc = xc_energy(rho, grid.dv)
    int_vxc_rho = float(grid.dv * np.sum(v_xc * rho))
    energies = {
        "band": e_band,
        "hartree": e_h,
        "xc": e_xc,
        # Harris-Foulkes-style double-counting corrected total (no ion-ion).
        "total_electronic": e_band - e_h + e_xc - int_vxc_rho,
    }

    # The Hamiltonian retains the self-consistent potential for the RPA stage.
    h.update_potential(v_ext + v_h + v_xc)
    n_occupied = int(np.round(occ.sum()))

    return DFTResult(
        crystal=crystal,
        grid=grid,
        hamiltonian=h,
        eigenvalues=eigenvalues,
        orbitals=orbitals,
        occupations=occ,
        n_occupied=n_occupied,
        density=rho,
        energies=energies,
        history=history,
        converged=converged,
        n_iterations=it,
    )
