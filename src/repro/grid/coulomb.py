"""The Coulomb operator ``nu = -4 pi (nabla^2)^{-1}`` and its square root.

Section II of the paper: ``nu`` is proportional to the inverse of the
discrete Laplacian and is never constructed explicitly — every application
is a fast Poisson-type solve. We diagonalize the FD Laplacian exactly
(FFT for periodic grids, Kronecker eigenbasis otherwise; both are the
paper's reference-[35] technique) so ``nu``, ``nu^{1/2}`` and ``nu^{-1}``
are all O(n_d log n_d) / O(n_d^{4/3}) per vector.

Zero-mode handling
------------------
On a periodic grid the Laplacian annihilates constants, so ``nu`` is
defined on the zero-mean subspace and we project the constant mode out.
This is exact for the RPA pipeline because ``chi0`` annihilates constant
potentials (a uniform shift does not perturb the density), which the test
suite verifies.
"""

from __future__ import annotations

import numpy as np

from repro.grid.kronecker import KroneckerLaplacian, spectral_laplacian
from repro.grid.mesh import Grid3D

_ZERO_MODE_RTOL = 1e-12


class CoulombOperator:
    """Spectral applications of ``nu``, ``nu^{1/2}``, ``nu^{-1}`` and Poisson solves.

    Parameters
    ----------
    grid:
        The real-space mesh.
    radius:
        FD stencil radius used for the underlying Laplacian (must match the
        Hamiltonian's radius for consistent discretizations).
    backend:
        ``"auto"`` (FFT when periodic, else Kronecker), ``"fft"`` or
        ``"kronecker"``.
    """

    def __init__(self, grid: Grid3D, radius: int = 4, backend: str = "auto") -> None:
        self._lap = spectral_laplacian(grid, radius, backend)
        self.grid = grid
        self.radius = int(radius)
        self.backend = "kronecker" if isinstance(self._lap, KroneckerLaplacian) else "fft"
        sym = self._lap.symbol
        cutoff = _ZERO_MODE_RTOL * float(np.abs(sym).max())
        self._zero_mask = np.abs(sym) <= cutoff
        self.n_zero_modes = int(self._zero_mask.sum())
        # Guard against unexpected near-singular modes beyond the constant.
        if grid.bc == "periodic" and self.n_zero_modes != 1:
            raise RuntimeError(
                f"expected exactly one Laplacian zero mode on a periodic grid, "
                f"found {self.n_zero_modes}"
            )
        # The four functions of the Laplacian this operator applies, each a
        # stored multiplier over the mode grid (0 on projected modes).
        self._nu = self._safe(lambda x: -4.0 * np.pi / x)
        self._nu_sqrt = self._safe(lambda x: np.sqrt(-4.0 * np.pi / x))
        self._nu_inv = self._safe(lambda x: -x / (4.0 * np.pi))
        self._inv_sqrt_neg_laplacian = self._safe(lambda x: 1.0 / np.sqrt(-x))

    def _safe(self, f) -> np.ndarray:
        """``f`` over the Laplacian symbol with the zero modes projected out."""
        lam = self._lap.symbol
        out = np.zeros_like(lam)
        mask = ~self._zero_mask
        out[mask] = f(lam[mask])
        return out

    # -- public applications ----------------------------------------------------

    def apply_laplacian(self, v: np.ndarray) -> np.ndarray:
        """``nabla^2 v`` (exact spectral application of the FD stencil)."""
        return self._lap.apply(v)

    def apply_nu(self, v: np.ndarray) -> np.ndarray:
        """``nu v = -4 pi (nabla^2)^{-1} v`` (zero mode projected out)."""
        return self._lap.apply_multiplier(self._nu, v)

    def apply_nu_sqrt(self, v: np.ndarray) -> np.ndarray:
        """``nu^{1/2} v``; well-posed since ``nu`` is SPD on the zero-mean subspace."""
        return self._lap.apply_multiplier(self._nu_sqrt, v)

    def apply_nu_inv(self, v: np.ndarray) -> np.ndarray:
        """``nu^{-1} v = -(1/(4 pi)) nabla^2 v`` (zero mode projected out)."""
        return self._lap.apply_multiplier(self._nu_inv, v)

    def apply_inv_sqrt_neg_laplacian(self, v: np.ndarray) -> np.ndarray:
        """``(-nabla^2)^{-1/2} v`` — the solve form quoted in Section III-A."""
        return self._lap.apply_multiplier(self._inv_sqrt_neg_laplacian, v)

    def solve_poisson(self, rho: np.ndarray) -> np.ndarray:
        """Electrostatic potential of density ``rho``: solves ``-nabla^2 phi = 4 pi rho``.

        For periodic grids the mean of ``rho`` (net charge) is implicitly
        neutralized by the zero-mode projection — the standard jellium
        convention.
        """
        return self.apply_nu(rho)

    def project_zero_mean(self, v: np.ndarray) -> np.ndarray:
        """Remove the constant-mode component (periodic grids)."""
        if self.n_zero_modes == 0:
            return np.array(v, copy=True)
        return v - v.mean(axis=0, keepdims=v.ndim > 1)

    @property
    def nu_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``nu`` (0 on projected modes)."""
        return self._nu.flatten()
