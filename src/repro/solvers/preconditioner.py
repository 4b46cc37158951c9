"""Shifted inverse-Laplacian preconditioning (the paper's future-work item).

The Sternheimer coefficient matrix is dominated by the kinetic term
``-1/2 nabla^2``; the paper observes (Section V) that fast Poisson solves
make ``(-1/2 nabla^2 + sigma I)^{-1}`` a natural preconditioner for the
*difficult* systems, applied selectively. We realize it spectrally through
the same FFT/Kronecker diagonalization used for ``nu``, so one application
costs a pair of fast transforms.

The preconditioner is real SPD (for ``sigma > 0``), which is exactly the
class that preserves complex symmetry in preconditioned COCG.
"""

from __future__ import annotations

import numpy as np

from repro.grid.kronecker import spectral_laplacian
from repro.grid.mesh import Grid3D


class ShiftedLaplacianPreconditioner:
    """Application of ``M^{-1} = (-1/2 nabla^2 + sigma I)^{-1}``.

    Parameters
    ----------
    grid:
        Mesh the Sternheimer systems live on.
    radius:
        FD stencil radius (match the Hamiltonian's).
    shift:
        Positive regularization ``sigma``; a good generic choice is the
        magnitude of the Sternheimer shift ``|-lambda_j + i omega_k|``
        (use :meth:`for_shift`).
    """

    def __init__(self, grid: Grid3D, radius: int = 4, shift: float = 1.0) -> None:
        if shift <= 0.0:
            raise ValueError(f"shift must be positive, got {shift}")
        self.grid = grid
        self.shift = float(shift)
        self._lap = spectral_laplacian(grid, radius)
        self._multiplier = 1.0 / (-0.5 * self._lap.symbol + self.shift)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self._lap.apply_multiplier(self._multiplier, v)

    @classmethod
    def for_shift(
        cls, grid: Grid3D, lambda_j: float, omega: float, radius: int = 4
    ) -> "ShiftedLaplacianPreconditioner":
        """Preconditioner tuned to the ``(j, k)`` Sternheimer shift.

        Uses ``sigma = |lambda_j| + omega`` so the preconditioned spectrum
        clusters near unity for the high-kinetic-energy modes that dominate
        the iteration count.
        """
        sigma = abs(lambda_j) + abs(omega)
        return cls(grid, radius=radius, shift=max(sigma, 1e-3))


def should_precondition(lambda_j: float, lambda_min: float, omega: float) -> bool:
    """Heuristic from Section V: precondition only the difficult systems.

    A system is "difficult" when its spectrum is indefinite (``lambda_j``
    above the bottom of the occupied manifold) and the imaginary shift is
    small. Easy systems converge in a handful of iterations and the extra
    transforms cannot pay for themselves.
    """
    indefinite = lambda_j > lambda_min + 1e-12
    near_singular = omega < 0.5
    return indefinite and near_singular
