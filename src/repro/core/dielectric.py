"""Dielectric-matrix diagnostics built on the RPA machinery.

Figure 1 of the paper plots what reference [27] (Wilson, Lu, Gygi & Galli)
calls *dielectric eigenvalue spectra*: the eigenvalues of ``nu chi0`` are
``1 - epsilon_i`` for the eigenvalues ``epsilon_i`` of the symmetrized RPA
dielectric matrix

    epsilon = I - nu^{1/2} chi0(i omega) nu^{1/2}.

This module exposes that object and the derived quantities electronic-
structure practitioners read off it:

* the dielectric eigenvalue spectrum (and its rapid decay to 1),
* the symmetrized screened Coulomb interaction
  ``W = nu^{1/2} epsilon^{-1} nu^{1/2}``,
* a macroscopic screening estimate from the extremal eigenvalue, and
* the RPA energy integrand expressed as ``Tr[ln eps + (I - eps)]`` —
  an identity with Eq. 1 that the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chi0_direct import build_chi0_dense, symmetrized_chi0_dense
from repro.core.sternheimer import Chi0Operator
from repro.core.subspace import filtered_subspace_iteration
from repro.grid.coulomb import CoulombOperator
from repro.utils.rng import default_rng


@dataclass
class DielectricSpectrum:
    """Partial spectrum of the symmetrized dielectric matrix at ``i omega``."""

    omega: float
    eigenvalues: np.ndarray  # eigenvalues of epsilon, descending (largest first)
    converged: bool
    iterations: int
    #: How the subspace was obtained ("filtered" / "warm" / "frozen" /
    #: "refreshed" — see repro.core.ssa.SUBSPACE_MODES).
    subspace_mode: str = "filtered"

    @property
    def mu(self) -> np.ndarray:
        """The corresponding eigenvalues of ``nu chi0`` (``1 - epsilon``)."""
        return 1.0 - self.eigenvalues

    @property
    def macroscopic_screening(self) -> float:
        """Largest dielectric eigenvalue — the dominant screening channel.

        For a bulk semiconductor this tracks (but does not equal) the
        macroscopic dielectric constant; it is the quantity whose growth as
        omega -> 0 makes the paper's small-omega Sternheimer systems hard.
        """
        return float(self.eigenvalues[0])

    def energy_term(self) -> float:
        """``sum_i [ln eps_i + (1 - eps_i)]`` — identical to the Eq. 1
        integrand ``sum_i [ln(1 - mu_i) + mu_i]``."""
        eps = self.eigenvalues
        if np.any(eps <= 0):
            raise ValueError("dielectric eigenvalues must be positive")
        return float(np.sum(np.log(eps) + (1.0 - eps)))


def dielectric_spectrum(
    chi0_operator: Chi0Operator,
    omega: float,
    n_eig: int,
    tol: float = 1e-4,
    max_iterations: int = 30,
    seed: int | None = None,
    initial_vectors: np.ndarray | None = None,
) -> DielectricSpectrum:
    """Largest dielectric eigenvalues via the RPA subspace machinery.

    The extreme eigenvalues of ``epsilon`` correspond to the most negative
    eigenvalues of ``nu^{1/2} chi0 nu^{1/2}``, so the paper's filtered
    subspace iteration applies verbatim.
    """
    n = chi0_operator.n_points
    if not 1 <= n_eig <= n:
        raise ValueError(f"n_eig must be in 1..{n}")
    rng = default_rng(seed)
    v0 = initial_vectors if initial_vectors is not None else rng.standard_normal((n, n_eig))
    res = filtered_subspace_iteration(
        lambda V: chi0_operator.apply_symmetrized(V, omega),
        v0,
        tol=tol,
        max_iterations=max_iterations,
    )
    eps = 1.0 - res.eigenvalues  # descending in eps because mu ascends
    return DielectricSpectrum(
        omega=float(omega),
        eigenvalues=eps,
        converged=res.converged,
        iterations=res.iterations,
        subspace_mode=res.subspace_mode,
    )


def dielectric_spectra_ssa(
    chi0_operator: Chi0Operator,
    omegas,
    n_eig: int,
    tol: float = 1e-4,
    refresh_tol: float = 1e-2,
    max_iterations: int = 30,
    max_refresh_passes: int = 1,
    seed: int | None = None,
) -> list[DielectricSpectrum]:
    """Dielectric spectra across a frequency grid sharing one eigenbasis.

    The static subspace approximation (repro.core.ssa) applied to the
    Fig. 1 diagnostic: the filtered subspace is computed once at the
    reference frequency — the largest omega, where the spectrum is most
    compressed — and every other frequency only Rayleigh-Ritzes in that
    frozen basis (one ``chi0 . V`` apply each), refreshing with a single
    Chebyshev pass when the frozen-basis Eq. 7 residual exceeds
    ``refresh_tol``. Results are returned in the input ``omegas`` order.
    """
    from repro.core.ssa import frozen_subspace_point

    omegas = [float(w) for w in omegas]
    if not omegas:
        return []
    n = chi0_operator.n_points
    if not 1 <= n_eig <= n:
        raise ValueError(f"n_eig must be in 1..{n}")
    order = sorted(range(len(omegas)), key=lambda i: -omegas[i])
    rng = default_rng(seed)
    V = rng.standard_normal((n, n_eig))
    out: list[DielectricSpectrum | None] = [None] * len(omegas)
    ref = filtered_subspace_iteration(
        lambda B: chi0_operator.apply_symmetrized(B, omegas[order[0]]),
        V,
        tol=tol,
        max_iterations=max_iterations,
    )
    results = [ref]
    for i in order[1:]:
        prev = results[-1]
        if not prev.converged:
            res = filtered_subspace_iteration(
                lambda B: chi0_operator.apply_symmetrized(B, omegas[i]),
                prev.vectors,
                tol=tol,
                max_iterations=max_iterations,
            )
        else:
            res = frozen_subspace_point(
                lambda B: chi0_operator.apply_symmetrized(B, omegas[i]),
                prev.vectors,
                refresh_tol=refresh_tol,
                max_refresh_passes=max_refresh_passes,
                bounds_seed=prev.filter_bounds,
                recycler=getattr(chi0_operator, "recycler", None),
            )
            if res.guard_triggered or not res.converged:
                # Rejected SSA acceptance: redo with full filtering (same
                # policy as the energy drivers), injecting the guard's
                # recovery direction when one was found.
                V_fb = res.vectors
                if res.guard_vector is not None:
                    V_fb = res.vectors.copy()
                    V_fb[:, -1] = res.guard_vector
                res = filtered_subspace_iteration(
                    lambda B: chi0_operator.apply_symmetrized(B, omegas[i]),
                    V_fb,
                    tol=tol,
                    max_iterations=max_iterations,
                )
        results.append(res)
    for idx, res in zip(order, results):
        out[idx] = DielectricSpectrum(
            omega=omegas[idx],
            eigenvalues=1.0 - res.eigenvalues,
            converged=res.converged,
            iterations=res.iterations,
            subspace_mode=res.subspace_mode,
        )
    return out  # type: ignore[return-value]


def dielectric_matrix_dense(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    n_occupied: int,
    omega: float,
    coulomb: CoulombOperator,
) -> np.ndarray:
    """Dense symmetrized dielectric matrix (small grids; validation path)."""
    chi0 = build_chi0_dense(eigenvalues, eigenvectors, n_occupied, omega)
    sym = symmetrized_chi0_dense(chi0, coulomb)
    return np.eye(sym.shape[0]) - sym


def screened_interaction_dense(
    eps_sym: np.ndarray, coulomb: CoulombOperator
) -> np.ndarray:
    """Symmetrized screened Coulomb ``W = nu^{1/2} eps^{-1} nu^{1/2}``.

    ``eps_sym`` must be the symmetrized dielectric matrix; the result is
    symmetric and satisfies ``W >= 0`` in the Loewner order and
    ``W <= nu`` (screening can only weaken the bare interaction at
    imaginary frequency).
    """
    eps_inv = np.linalg.inv(eps_sym)
    half = coulomb.apply_nu_sqrt(eps_inv)
    w = coulomb.apply_nu_sqrt(half.T).T
    return 0.5 * (w + w.T)
