"""Bit pins for the Dirichlet stencil apply and its reusable halo workspace.

The float64 benchmark energies are pinned to the last bit, so the stencil must
add the same products in the same order as the straight-line form written
here: one zero-filled shifted copy per stencil point, scaled and added axis by
axis, ``m = 1..r``, ``+m`` then ``-m``.
"""

import numpy as np
import pytest

from repro.grid import Grid3D, StencilLaplacian

# Non-cubic, unequal spacings, and one axis shorter than the largest radius
# (a shift by m >= n moves the whole field out of the box).
GRID = Grid3D((3, 5, 7), (2.0, 2.9, 3.3), bc="dirichlet")
DTYPES = [np.float64, np.complex128, np.complex64]


def _shift_zero(field, shift, axis):
    """``field`` moved ``shift`` points along ``axis``, zeros entering."""
    out = np.zeros_like(field)
    n = field.shape[axis]
    if abs(shift) < n:
        dst, src = [slice(None)] * field.ndim, [slice(None)] * field.ndim
        dst[axis] = slice(shift, None) if shift > 0 else slice(None, n + shift)
        src[axis] = slice(None, n - shift) if shift > 0 else slice(-shift, None)
        out[tuple(dst)] = field[tuple(src)]
    return out


def _reference_apply(lap, v):
    grid, c = lap.grid, lap.coefficients
    inv_h2 = np.asarray([1.0 / h**2 for h in grid.spacing])
    field = grid.to_field(v)
    out = float(c[0] * inv_h2.sum()) * field
    for axis in range(3):
        for m in range(1, lap.radius + 1):
            w = float(c[m] * inv_h2[axis])
            out += w * _shift_zero(field, m, axis)
            out += w * _shift_zero(field, -m, axis)
    return grid.to_vector(out)


def _block(dtype, width, seed=0):
    rng = np.random.default_rng(seed)
    shape = (GRID.n_points,) if width is None else (GRID.n_points, width)
    v = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        v = v + 1j * rng.standard_normal(shape)
    return v.astype(dtype)


@pytest.mark.parametrize("radius", [1, 2, 4])
@pytest.mark.parametrize("width", [None, 1, 5], ids=["vector", "one-column", "block"])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_dirichlet_apply_matches_the_straight_line_form_bitwise(radius, width, dtype):
    lap = StencilLaplacian(GRID, radius)
    v = _block(dtype, width)
    out = lap.apply(v)
    ref = _reference_apply(lap, v)
    assert (out.dtype, out.shape) == (ref.dtype, ref.shape) == (v.dtype, v.shape)
    assert out.tobytes() == ref.tobytes()


def test_workspace_follows_the_block_width_and_dtype():
    lap = StencilLaplacian(GRID, 2)
    calls = [(np.complex128, 4), (np.complex128, 2), (np.complex64, 2),
             (np.float64, None), (np.complex128, 4)]
    for seed, (dtype, width) in enumerate(calls):
        v = _block(dtype, width, seed)
        assert lap.apply(v).tobytes() == _reference_apply(lap, v).tobytes()


def test_apply_neither_writes_its_input_nor_returns_its_workspace():
    lap = StencilLaplacian(GRID, 2)
    v = _block(np.complex128, 3)
    v.setflags(write=False)
    first = lap.apply(v)
    kept = first.copy()
    for fn, arg in ((lap.apply, v), (lap.apply_columnwise, v), (lap.apply, v[:, 0])):
        result = fn(arg)
        interior, product, _ = lap._halo
        assert not any(np.shares_memory(result, buf) for buf in (interior.base, product, v))
    assert np.array_equal(lap.apply_columnwise(v), first)
    # Later applies reuse the halo and the product buffer; earlier results stay.
    lap.apply(_block(np.complex128, 3, seed=1))
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_zero_column_block(bc):
    lap = StencilLaplacian(Grid3D((5, 5, 7), (2.0, 2.9, 3.3), bc=bc), 2)
    out = lap.apply(np.empty((lap.n_points, 0), dtype=complex))
    assert out.shape == (lap.n_points, 0) and out.dtype == complex
    assert lap.apply_columnwise(np.empty((lap.n_points, 0))).shape == (lap.n_points, 0)
    assert lap._halo is None  # nothing to shift: no workspace built
