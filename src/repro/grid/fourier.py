"""FFT diagonalization of the periodic finite-difference Laplacian.

On a periodic grid every 1-D stencil matrix is circulant, so the 3-D FD
Laplacian is diagonalized exactly by the discrete Fourier basis with symbol

    lambda(k) = sum_axis (1/h_a^2) * (c_0 + 2 * sum_m c_m cos(2 pi k_a m / n_a)).

This is the periodic analogue of the paper's Kronecker-product trick
(reference [35]) and powers the O(n_d log n_d) applications of
``f(nabla^2)`` needed for the Coulomb operator ``nu``, its square root, and
fast Poisson solves.

The two transforms call pocketfft's ``c2c`` directly, with the arguments
``scipy.fft.fftn`` / ``scipy.fft.ifftn`` would pass it: the same transform
to the last bit, without the Python dispatch those wrappers add to every
apply, about half of an s = 1 apply on a 7^3 grid (DESIGN.md section 5,
"bit-pinned kernels").
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.fft._pocketfft import pypocketfft

from repro.grid.fd_coefficients import second_derivative_coefficients
from repro.grid.mesh import Grid3D


_AXES = (0, 1, 2)


class FourierLaplacian:
    """Exact spectral application of functions of the periodic FD Laplacian."""

    def __init__(self, grid: Grid3D, radius: int = 4) -> None:
        if grid.bc != "periodic":
            raise ValueError("FourierLaplacian requires a periodic grid")
        self.grid = grid
        self.radius = int(radius)
        self.symbol = _laplacian_symbol(grid, radius)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Flat array of all Laplacian eigenvalues (the symbol over modes)."""
        return self.symbol.ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``nabla^2`` (exact for the FD stencil, not the continuum)."""
        return self.apply_multiplier(self.symbol, v)

    def apply_function(self, f: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
        """Apply ``f(nabla^2)``: ``f`` maps the 3-D eigenvalue array to multipliers."""
        return self.apply_multiplier(f(self.symbol), v)

    def apply_multiplier(self, mult: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Transform flat vector(s) ``v``, scale mode-wise by ``mult``, transform back.

        ``mult`` is a stored array over the mode grid (``f(self.symbol)`` for
        ``f(nabla^2)``; it must be real and even for real inputs to produce
        real outputs). The transforms keep the operand's precision, so a
        float32 ``mult`` applied to a complex64 block stays complex64.
        """
        v = np.asarray(v)
        field = self.grid.to_field(v)
        single = field.ndim == 3
        if single:
            field = field[..., None]
        # c2c(a, axes, forward, inorm, out, nthreads): inorm 0 / 2 is
        # scipy's "backward" norm (unscaled forward, 1/N inverse).
        vhat = pypocketfft.c2c(field, _AXES, True, 0, None, 1)
        vhat *= mult[..., None]
        out = pypocketfft.c2c(vhat, _AXES, False, 2, vhat, 1)
        if not np.iscomplexobj(v):
            out = out.real
        if single:
            out = out[..., 0]
        return self.grid.to_vector(np.ascontiguousarray(out))


def _laplacian_symbol(grid: Grid3D, radius: int) -> np.ndarray:
    """Eigenvalues of the periodic FD Laplacian over the 3-D FFT mode grid."""
    c = second_derivative_coefficients(radius)
    per_axis = []
    for axis in range(3):
        n = grid.shape[axis]
        if 2 * radius >= n:
            raise ValueError(f"stencil radius {radius} too large for {n} periodic points")
        h = grid.spacing[axis]
        theta = 2.0 * np.pi * np.arange(n) / n
        sym = np.full(n, c[0])
        for m in range(1, radius + 1):
            sym = sym + 2.0 * c[m] * np.cos(m * theta)
        per_axis.append(sym / h**2)
    sx, sy, sz = per_axis
    return sx[:, None, None] + sy[None, :, None] + sz[None, None, :]
