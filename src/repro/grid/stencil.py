"""Matrix-free application of the high-order finite-difference Laplacian.

This is the "matrix-free part" of the Hamiltonian apply described in
Section III-C of the paper: a six-axis ``(6r + 1)``-point stencil. The
paper's C implementation blocks the stencil for cache and applies it to one
input vector at a time (their arithmetic-intensity argument, Eqs. 11-12, is
reproduced in :func:`stencil_arithmetic_intensity`). In numpy the analogous
strategy is whole-array shifted adds, which vectorize across the block
dimension; both orderings are exposed so the ablation benchmark can compare
them.
"""

from __future__ import annotations

import numpy as np

from repro.grid.fd_coefficients import second_derivative_coefficients
from repro.grid.mesh import Grid3D


class StencilLaplacian:
    """Matrix-free ``nabla^2`` on a :class:`Grid3D` via shifted adds.

    Parameters
    ----------
    grid:
        The mesh; boundary condition taken from ``grid.bc``.
    radius:
        Stencil radius ``r`` (order ``2r`` accuracy). The paper's production
        runs use high-order stencils; tests default to small radii.

    The weights are Python floats on purpose: they take the operand's
    precision (a complex64 block stays complex64), and NumPy elides the
    ``w * shifted`` temporary, which it does not for an ``np.float64`` weight.
    """

    def __init__(self, grid: Grid3D, radius: int = 4) -> None:
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        for axis in range(3):
            if grid.bc == "periodic" and 2 * radius >= grid.shape[axis]:
                raise ValueError(
                    f"stencil radius {radius} too large for {grid.shape[axis]} periodic points"
                )
        self.grid = grid
        self.radius = int(radius)
        self.coefficients = second_derivative_coefficients(radius)
        c, inv_h2 = self.coefficients, np.asarray([1.0 / h**2 for h in grid.spacing])
        self._center = float(c[0] * inv_h2.sum())
        # _weights[axis][m - 1] multiplies the two points m steps away along axis.
        self._weights = [[float(c[m] * w) for m in range(1, self.radius + 1)]
                         for w in inv_h2]

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``nabla^2`` to flat vector(s) ``v`` of shape ``(n_d,)`` or ``(n_d, s)``."""
        field = self.grid.to_field(np.asarray(v))
        out = self._center * field
        periodic = self.grid.bc == "periodic"
        for axis, weights in enumerate(self._weights):
            for m, w in enumerate(weights, start=1):
                if periodic:
                    out += w * (np.roll(field, m, axis=axis) + np.roll(field, -m, axis=axis))
                else:
                    out += w * _shift_zero(field, m, axis)
                    out += w * _shift_zero(field, -m, axis)
        return self.grid.to_vector(out)

    def apply_columnwise(self, v: np.ndarray) -> np.ndarray:
        """Apply the stencil one column at a time.

        Mirrors the paper's cache-blocking choice (Section III-C): the C code
        achieves its best arithmetic intensity applying the stencil to a
        single vector at a time. In numpy this is usually *slower* than the
        fused apply because loop overhead dominates; the ablation bench
        quantifies the difference.
        """
        v = np.asarray(v)
        if v.ndim == 1:
            return self.apply(v)
        out = np.empty_like(v)
        for col in range(v.shape[1]):
            out[:, col] = self.apply(v[:, col])
        return out


def _shift_zero(field: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """Shift ``field`` along ``axis`` filling vacated entries with zeros."""
    out = np.zeros_like(field)
    n = field.shape[axis]
    if abs(shift) >= n:
        return out
    src = [slice(None)] * field.ndim
    dst = [slice(None)] * field.ndim
    if shift > 0:
        dst[axis] = slice(shift, None)
        src[axis] = slice(None, n - shift)
    else:
        dst[axis] = slice(None, n + shift)
        src[axis] = slice(-shift, None)
    out[tuple(dst)] = field[tuple(src)]
    return out


def stencil_arithmetic_intensity(
    m: int, n: int, k: int, radius: int, n_vectors: int = 1
) -> float:
    """Arithmetic intensity of the blocked stencil (Eqs. 11-12 of the paper).

    For an ``m x n x k`` output block of a radius-``r`` six-axis stencil
    applied to ``s`` vectors simultaneously:

        I_s = 2 (6r + 1) m n k s / ((2 m n k + 2 r (m n + m k + n k)) s)

    which is independent of ``s`` for a *fixed* block shape — the paper's
    point is that fitting ``s`` vectors in fast memory shrinks the largest
    feasible block, so one-vector-at-a-time wins.
    """
    if min(m, n, k) < 1 or radius < 1 or n_vectors < 1:
        raise ValueError("block dims, radius and n_vectors must be positive")
    flops = 2.0 * (6 * radius + 1) * m * n * k * n_vectors
    words = (2.0 * m * n * k + 2.0 * radius * (m * n + m * k + n * k)) * n_vectors
    return flops / words


def max_block_edge(cache_words: int, radius: int, n_vectors: int = 1) -> int:
    """Largest cubic block edge ``m`` with ``s`` vectors resident in fast memory.

    Solves ``s * (2 m^3 + 6 r m^2) <= C`` for integer ``m`` (Section III-C's
    fast-slow memory model with capacity ``C`` words).
    """
    if cache_words < 1:
        raise ValueError("cache_words must be positive")
    m = 1
    while n_vectors * (2 * (m + 1) ** 3 + 6 * radius * (m + 1) ** 2) <= cache_words:
        m += 1
    return m
