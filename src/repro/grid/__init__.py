"""Real-space finite-difference grid substrate.

Provides the mesh geometry, high-order FD Laplacians (matrix-free stencil,
sparse assembly, FFT and Kronecker-eigenbasis spectral forms) and the
Coulomb operator stack the RPA formulation is built on.
"""

from repro.grid.coulomb import CoulombOperator
from repro.grid.fd_coefficients import fornberg_weights, second_derivative_coefficients
from repro.grid.fourier import FourierLaplacian
from repro.grid.kronecker import KroneckerLaplacian, spectral_laplacian
from repro.grid.laplacian import assemble_laplacian, laplacian_1d
from repro.grid.mesh import Grid3D
from repro.grid.stencil import (
    StencilLaplacian,
    max_block_edge,
    stencil_arithmetic_intensity,
)

__all__ = [
    "Grid3D",
    "second_derivative_coefficients",
    "fornberg_weights",
    "StencilLaplacian",
    "stencil_arithmetic_intensity",
    "max_block_edge",
    "laplacian_1d",
    "assemble_laplacian",
    "FourierLaplacian",
    "KroneckerLaplacian",
    "spectral_laplacian",
    "CoulombOperator",
]
