"""Bit pins for the periodic spectral apply.

``FourierLaplacian.apply_multiplier`` calls pocketfft's ``c2c`` itself,
without the ``scipy.fft`` wrappers. The float64 benchmark energies are pinned
to the last bit, so the result must equal the public ``scipy.fft`` form
written here byte for byte, for every operand dtype, width and layout the
Hamiltonian, the Coulomb operator and the SCF's Kerker filter pass it.
"""

import numpy as np
import pytest
import scipy.fft

from repro.grid import Grid3D
from repro.grid.fourier import FourierLaplacian
from tests.conftest import bit_pin_operand

# Non-cubic, unequal spacings: a transposed axis or a mis-ordered transform
# cannot hide behind symmetry.
GRID = Grid3D((5, 6, 7), (2.0, 2.9, 3.3), bc="periodic")
LAP = FourierLaplacian(GRID, 2)
DTYPES = [np.float64, np.complex128, np.complex64]
WIDTHS = [None, 1, 16]


def _multiplier(dtype):
    """A real, even ``f(nabla^2)``; float32 for a complex64 operand."""
    mult = np.exp(0.05 * LAP.symbol)
    return mult.astype(np.float32) if dtype == np.complex64 else mult


def _reference(mult, v):
    field = v.reshape(GRID.shape + (1 if v.ndim == 1 else v.shape[1],))
    out = scipy.fft.ifftn(scipy.fft.fftn(field, axes=(0, 1, 2)) * mult[..., None],
                          axes=(0, 1, 2))
    if not np.iscomplexobj(v):
        out = out.real
    return np.ascontiguousarray(out).reshape(v.shape)


@pytest.mark.parametrize("layout", ["contiguous", "sliced"])
@pytest.mark.parametrize("width", WIDTHS, ids=["vector", "one-column", "block16"])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_apply_multiplier_matches_scipy_fft_bitwise(dtype, width, layout):
    mult = _multiplier(dtype)
    v = bit_pin_operand(GRID.n_points, dtype, width, layout)
    kept = v.copy()
    out = LAP.apply_multiplier(mult, v)
    ref = _reference(mult, v)
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape) == (v.dtype, v.shape)
    assert out.tobytes() == ref.tobytes()
    assert v.tobytes() == kept.tobytes()  # the operand is never transformed in place


def test_laplacian_apply_matches_scipy_fft_bitwise():
    v = bit_pin_operand(GRID.n_points, np.complex128, 16, "sliced", seed=3)
    assert LAP.apply(v).tobytes() == _reference(LAP.symbol, v).tobytes()
