"""Bit pins: ``Hamiltonian.apply`` treats every column alike.

The block Sternheimer kernel pushes every orbital's COCG block through one
wide ``Hamiltonian.apply`` per lockstep step and adds each orbital's shift
on its own columns. Its energies are pinned to the last bit, so a column of
a wide apply must equal the same column applied alone, or in any other
partition of the block, byte for byte — on both kinetic paths, with and
without projectors, for real and complex operands.
"""

import numpy as np
import pytest

from repro.dft import Hamiltonian, build_nonlocal_projectors, local_potential_on_grid
from repro.dft.atoms import Crystal, silicon_crystal
from repro.dft.hamiltonian import ShiftedHamiltonian
from repro.grid import Grid3D


def _periodic_with_projectors():
    crystal = silicon_crystal(1)
    grid = crystal.make_grid(10.26 / 7)
    return Hamiltonian(grid, local_potential_on_grid(crystal, grid),
                       build_nonlocal_projectors(crystal, grid), radius=2)


def _dirichlet_stencil(radius):
    atom = Crystal(["Si"], np.array([[5.0, 5.0, 5.0]]), (10.0, 10.0, 10.0))
    grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0), bc="dirichlet")
    v_local = np.random.default_rng(2).uniform(-1.0, 0.0, grid.n_points)
    return Hamiltonian(grid, v_local, build_nonlocal_projectors(atom, grid),
                       radius=radius)


HAMILTONIANS = {
    "fft+projectors": _periodic_with_projectors,
    "stencil+projectors": lambda: _dirichlet_stencil(2),
    "stencil-r4+projectors": lambda: _dirichlet_stencil(4),
}


@pytest.fixture(scope="module", params=list(HAMILTONIANS))
def hamiltonian(request):
    h = HAMILTONIANS[request.param]()
    assert h.nonlocal_part is not None and h.nonlocal_part.n_projectors
    assert h.kinetic_backend == ("fft" if request.param.startswith("fft") else "stencil")
    return h


def _block(n, width, dtype, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, width))
    if np.dtype(dtype).kind == "c":
        v = v + 1j * rng.standard_normal((n, width))
    return v


def _partition(width, rng):
    """Random ragged widths (1 to 5 columns) summing to ``width``."""
    cuts, col = [], 0
    while col < width:
        step = min(int(rng.integers(1, 6)), width - col)
        cuts.append(slice(col, col + step))
        col += step
    return cuts


@pytest.mark.parametrize("dtype", [np.complex128, np.float64], ids=["complex128", "float64"])
def test_wide_apply_equals_every_ragged_partition(hamiltonian, dtype):
    wide = _block(hamiltonian.n_points, 23, dtype, seed=0)
    h_wide = hamiltonian.apply(wide)
    rng = np.random.default_rng(1)
    for _ in range(5):
        for sl in _partition(wide.shape[1], rng):
            alone = hamiltonian.apply(np.ascontiguousarray(wide[:, sl]))
            assert alone.tobytes() == np.ascontiguousarray(h_wide[:, sl]).tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.float64], ids=["complex128", "float64"])
def test_vector_and_one_column_block_agree_with_the_wide_apply(hamiltonian, dtype):
    wide = _block(hamiltonian.n_points, 4, dtype, seed=3)
    h_wide = hamiltonian.apply(wide)
    for c in range(wide.shape[1]):
        column = np.ascontiguousarray(h_wide[:, c])
        vector = hamiltonian.apply(np.ascontiguousarray(wide[:, c]))
        block = hamiltonian.apply(np.ascontiguousarray(wide[:, c:c + 1]))
        assert vector.shape == (hamiltonian.n_points,)
        assert vector.tobytes() == column.tobytes() == block.tobytes()


def test_fused_shift_matches_the_shifted_operator(hamiltonian):
    """The lockstep's own arithmetic: one wide apply, then each block's shift
    as a NumPy scalar, added onto the wide image's columns."""
    wide = _block(hamiltonian.n_points, 9, np.complex128, seed=4)
    cuts = [slice(0, 1), slice(1, 3), slice(3, 7), slice(7, 9)]
    shifts = [(-0.3, 0.7), (0.1, 0.02), (-1.2, 2.5), (0.0, 1e-3)]
    h_wide = hamiltonian.apply(wide)
    for sl, (lam, omega) in zip(cuts, shifts):
        op = hamiltonian.shifted(lam, omega)
        assert isinstance(op, ShiftedHamiltonian) and op.hamiltonian is hamiltonian
        block = wide[:, sl]  # a strided view, as a chunk's in-place guess is
        fused = np.complex128(op.shift) * block
        fused += h_wide[:, sl]
        assert fused.tobytes() == op(np.ascontiguousarray(block)).tobytes()
