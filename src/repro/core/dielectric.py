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
    #: How the subspace was obtained ("filtered", or "warm" when the initial
    #: vectors already met the tolerance).
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
