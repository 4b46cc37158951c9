"""Cross-validation of the four Laplacian application paths.

The stencil (matrix-free), sparse assembly, FFT symbol and Kronecker
eigenbasis must all represent the *same* discrete operator; these tests pin
that down for both boundary conditions, random fields, blocks and complex
inputs, plus accuracy against analytic eigenfunctions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    FourierLaplacian,
    Grid3D,
    KroneckerLaplacian,
    StencilLaplacian,
    assemble_laplacian,
)


def _grids():
    return [
        Grid3D((6, 5, 7), (3.0, 2.5, 3.5), bc="periodic"),
        Grid3D((6, 5, 7), (3.0, 2.5, 3.5), bc="dirichlet"),
    ]


@pytest.mark.parametrize("grid", _grids(), ids=["periodic", "dirichlet"])
@pytest.mark.parametrize("radius", [1, 2])
class TestAgreement:
    def test_stencil_matches_sparse(self, grid, radius):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(grid.n_points)
        sten = StencilLaplacian(grid, radius)
        mat = assemble_laplacian(grid, radius)
        assert np.allclose(sten.apply(v), mat @ v, atol=1e-11)

    def test_kronecker_matches_sparse(self, grid, radius):
        rng = np.random.default_rng(43)
        v = rng.standard_normal(grid.n_points)
        kron = KroneckerLaplacian(grid, radius)
        mat = assemble_laplacian(grid, radius)
        assert np.allclose(kron.apply(v), mat @ v, atol=1e-10)

    def test_block_apply_matches_columnwise(self, grid, radius):
        rng = np.random.default_rng(44)
        V = rng.standard_normal((grid.n_points, 4))
        sten = StencilLaplacian(grid, radius)
        block = sten.apply(V)
        cols = np.column_stack([sten.apply(V[:, j]) for j in range(4)])
        assert np.allclose(block, cols, atol=1e-12)
        assert np.allclose(sten.apply_columnwise(V), block, atol=1e-12)

    def test_complex_input(self, grid, radius):
        rng = np.random.default_rng(45)
        v = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        sten = StencilLaplacian(grid, radius)
        mat = assemble_laplacian(grid, radius)
        assert np.allclose(sten.apply(v), mat @ v, atol=1e-11)
        kron = KroneckerLaplacian(grid, radius)
        assert np.allclose(kron.apply(v), mat @ v, atol=1e-10)

    def test_stencil_keeps_single_precision(self, grid, radius):
        # One shifted-add loop per boundary condition serves both precisions:
        # the weights are Python floats, so a complex64 block stays complex64.
        rng = np.random.default_rng(47)
        V = rng.standard_normal((grid.n_points, 3)) + 1j * rng.standard_normal((grid.n_points, 3))
        sten = StencilLaplacian(grid, radius)
        ref = sten.apply(V)
        out = sten.apply(V.astype(np.complex64))
        assert out.dtype == np.complex64
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6


class TestFourierPath:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_fft_matches_sparse_periodic(self, radius):
        grid = Grid3D((8, 7, 9), (4.0, 3.5, 4.5), bc="periodic")
        rng = np.random.default_rng(46)
        v = rng.standard_normal(grid.n_points)
        four = FourierLaplacian(grid, radius)
        mat = assemble_laplacian(grid, radius)
        assert np.allclose(four.apply(v), mat @ v, atol=1e-10)

    def test_fft_matches_kronecker_eigenvalues(self):
        grid = Grid3D((6, 6, 6), (3.0, 3.0, 3.0), bc="periodic")
        four = FourierLaplacian(grid, 2)
        kron = KroneckerLaplacian(grid, 2)
        assert np.allclose(np.sort(four.eigenvalues), np.sort(kron.eigenvalues), atol=1e-9)

    def test_fft_rejects_dirichlet(self):
        grid = Grid3D((6, 6, 6), (3.0, 3.0, 3.0), bc="dirichlet")
        with pytest.raises(ValueError):
            FourierLaplacian(grid, 1)

    def test_real_input_real_output(self):
        grid = Grid3D((6, 6, 6), (3.0, 3.0, 3.0), bc="periodic")
        four = FourierLaplacian(grid, 2)
        out = four.apply(np.random.default_rng(0).standard_normal(grid.n_points))
        assert out.dtype == np.float64


class TestSpectralProperties:
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_negative_semidefinite(self, bc):
        grid = Grid3D((5, 5, 5), (2.5, 2.5, 2.5), bc=bc)
        kron = KroneckerLaplacian(grid, 2)
        lam = kron.eigenvalues
        if bc == "periodic":
            assert lam.max() == pytest.approx(0.0, abs=1e-10)
            assert np.sum(np.abs(lam) < 1e-10) == 1
        else:
            assert lam.max() < 0.0

    def test_symmetry_of_assembled_matrix(self):
        for grid in _grids():
            mat = assemble_laplacian(grid, 2).toarray()
            assert np.allclose(mat, mat.T, atol=1e-12)

    def test_periodic_annihilates_constants(self):
        grid = Grid3D((8, 7, 9), (4.0, 3.5, 4.5), bc="periodic")
        sten = StencilLaplacian(grid, 3)
        out = sten.apply(np.ones(grid.n_points))
        assert np.abs(out).max() < 1e-11


class TestAccuracy:
    def test_plane_wave_eigenfunction_periodic(self):
        # cos(2 pi x / L) is an exact eigenfunction of the FD operator with
        # eigenvalue given by the stencil symbol, converging to -(2 pi/L)^2.
        L = 5.0
        exact = -((2 * np.pi / L) ** 2)
        errs = []
        for radius in (1, 2, 4):
            grid = Grid3D((12, 3 + 2 * radius, 3 + 2 * radius), (L, 2.0, 2.0), bc="periodic")
            sten = StencilLaplacian(grid, radius)
            x = grid.points[:, 0]
            v = np.cos(2 * np.pi * x / L)
            out = sten.apply(v)
            # v is an eigenvector; Rayleigh quotient approximates the continuum.
            lam = (v @ out) / (v @ v)
            errs.append(abs(lam - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_sine_eigenfunction_dirichlet(self):
        # sin(pi x/Lx) sin(pi y/Ly) sin(pi z/Lz) vanishes on the box boundary.
        Ls = (4.0, 3.0, 5.0)
        grid = Grid3D((36, 30, 40), Ls, bc="dirichlet")
        sten = StencilLaplacian(grid, 4)
        pts = grid.points
        v = np.prod([np.sin(np.pi * pts[:, a] / Ls[a]) for a in range(3)], axis=0)
        out = sten.apply(v)
        lam = (v @ out) / (v @ v)
        exact = -sum((np.pi / L) ** 2 for L in Ls)
        # Zero-extension beyond the boundary (the standard real-space DFT
        # truncation) limits high-order stencils to ~h^2 accuracy near walls.
        assert lam == pytest.approx(exact, rel=2e-2)


@settings(deadline=None, max_examples=15)
@given(
    nx=st.integers(min_value=5, max_value=8),
    ny=st.integers(min_value=5, max_value=8),
    nz=st.integers(min_value=5, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_stencil_fft_agree(nx, ny, nz, seed):
    grid = Grid3D((nx, ny, nz), (nx * 0.5, ny * 0.5, nz * 0.5), bc="periodic")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.n_points)
    sten = StencilLaplacian(grid, 2)
    four = FourierLaplacian(grid, 2)
    assert np.allclose(sten.apply(v), four.apply(v), atol=1e-9)
