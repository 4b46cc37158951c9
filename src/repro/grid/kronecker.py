"""Kronecker-product eigendecomposition of the FD Laplacian.

The paper (reference [35]) applies ``(-nabla^2)^{-1/2}`` by exploiting the
Kronecker structure of the discrete Laplacian: with 1-D eigendecompositions
``L_a = Q_a diag(d_a) Q_a^T`` the 3-D operator is diagonal in the tensor
basis ``Q_x (x) Q_y (x) Q_z`` with eigenvalues ``d_x[i] + d_y[j] + d_z[k]``.
Applying ``f(L)`` then costs three dense tensor contractions per direction —
O(n_d^{4/3}) per vector — with no need to ever form the n_d x n_d matrix.

This path works for *any* boundary condition (the FFT path in
``repro.grid.fourier`` is the circulant specialization for periodic grids;
tests verify the two agree there).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.grid.fourier import FourierLaplacian
from repro.grid.laplacian import laplacian_1d
from repro.grid.mesh import Grid3D


class KroneckerLaplacian:
    """Tensor-basis application of functions of the FD Laplacian."""

    def __init__(self, grid: Grid3D, radius: int = 4) -> None:
        self.grid = grid
        self.radius = int(radius)
        self._eigvals: list[np.ndarray] = []
        self._eigvecs: list[np.ndarray] = []
        for axis in range(3):
            n = grid.shape[axis]
            h = grid.spacing[axis]
            L1 = laplacian_1d(n, h, radius, grid.bc).toarray()
            d, Q = np.linalg.eigh(L1)
            self._eigvals.append(d)
            self._eigvecs.append(Q)
        dx, dy, dz = self._eigvals
        self.symbol = dx[:, None, None] + dy[None, :, None] + dz[None, None, :]

    @property
    def eigenvalues(self) -> np.ndarray:
        """All 3-D Laplacian eigenvalues (flat)."""
        return self.symbol.ravel()

    def lowest_modes(self, m: int) -> np.ndarray:
        """The ``m`` eigenvectors of ``-nabla^2`` with the smallest
        eigenvalues, as l2-orthonormal flat columns ``(n_points, m)``:
        tensor products of the 1-D eigenvectors, ordered by eigenvalue sum."""
        flat = np.argsort(-self.symbol, axis=None, kind="stable")[:m]
        Qx, Qy, Qz = self._eigvecs
        i, j, k = np.unravel_index(flat, self.symbol.shape)
        modes = Qx[:, None, None, i] * Qy[None, :, None, j] * Qz[None, None, :, k]
        return self.grid.to_vector(modes)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.apply_multiplier(self.symbol, v)

    def apply_function(self, f: Callable[[np.ndarray], np.ndarray], v: np.ndarray) -> np.ndarray:
        """Apply ``f(nabla^2)``: ``f`` maps the 3-D eigenvalue array to multipliers."""
        return self.apply_multiplier(f(self.symbol), v)

    def apply_multiplier(self, mult: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Contract flat vector(s) ``v`` into the tensor eigenbasis, scale
        mode-wise by the stored array ``mult``, contract back (in the float64
        of the eigenvector matrices)."""
        v = np.asarray(v)
        field = self.grid.to_field(v)
        single = field.ndim == 3
        if single:
            field = field[..., None]
        Qx, Qy, Qz = self._eigvecs
        # Forward transform into the tensor eigenbasis: Q^T along each axis.
        t = np.einsum("ia,abcs->ibcs", Qx.T, field, optimize=True)
        t = np.einsum("jb,ibcs->ijcs", Qy.T, t, optimize=True)
        t = np.einsum("kc,ijcs->ijks", Qz.T, t, optimize=True)
        t *= mult[..., None]
        # Back transform.
        t = np.einsum("ai,ijks->ajks", Qx, t, optimize=True)
        t = np.einsum("bj,ajks->abks", Qy, t, optimize=True)
        t = np.einsum("ck,abks->abcs", Qz, t, optimize=True)
        if single:
            t = t[..., 0]
        return self.grid.to_vector(np.ascontiguousarray(t))


def spectral_laplacian(grid: Grid3D, radius: int = 4, backend: str = "auto"):
    """The exact diagonalization of the FD Laplacian to use on ``grid``:
    ``"auto"`` picks the FFT form on periodic grids and the Kronecker
    eigenbasis otherwise; ``"fft"`` / ``"kronecker"`` force one (the FFT form
    rejects non-periodic grids). Both have the same ``apply*`` / ``symbol``."""
    if backend not in ("auto", "fft", "kronecker"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "fft" or (backend == "auto" and grid.bc == "periodic"):
        return FourierLaplacian(grid, radius)
    return KroneckerLaplacian(grid, radius)
