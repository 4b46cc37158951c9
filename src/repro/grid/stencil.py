"""Matrix-free application of the high-order finite-difference Laplacian.

This is the "matrix-free part" of the Hamiltonian apply described in
Section III-C of the paper: a six-axis ``(6r + 1)``-point stencil. The
paper's C implementation blocks the stencil for cache and applies it to one
input vector at a time (their arithmetic-intensity argument, Eqs. 11-12, is
reproduced in :func:`stencil_arithmetic_intensity`). In numpy the analogous
strategy is whole-array shifted adds over the block (on Dirichlet grids, views
of one zero-rimmed halo copy of the field, added in one pinned order); both
orderings are exposed so the ablation benchmark can compare them.
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
    precision (a complex64 block stays complex64). Dirichlet applies copy the
    field into the interior of an ``(n_x + 2r, n_y + 2r, n_z + 2r[, s])`` halo
    whose rim stays zero (the boundary condition), so each shift is a view; the
    halo, a product buffer and the ``6r`` ``(weight, view)`` pairs are kept for
    the last ``(shape, dtype)`` applied. The adds keep one order (axis by axis,
    ``m = 1..r``, ``+m`` then ``-m``): float64 results are pinned to the last bit.
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
        # (axis, m, w): w multiplies the two points m steps away along axis.
        self._weights = [(axis, m, float(c[m] * w)) for axis, w in enumerate(inv_h2)
                         for m in range(1, self.radius + 1)]
        self._halo: tuple | None = None  # (interior, product, pairs) of the last apply

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``nabla^2`` to flat vector(s) ``v`` of shape ``(n_d,)`` or ``(n_d, s)``."""
        field = self.grid.to_field(np.asarray(v))
        out = self._center * field
        if self.grid.bc == "periodic":
            for axis, m, w in self._weights:
                out += w * (np.roll(field, m, axis=axis) + np.roll(field, -m, axis=axis))
        elif out.size:
            interior, product, pairs = self._halo_for(out.shape, out.dtype)
            interior[...] = field
            for w, shifted in pairs:
                np.multiply(w, shifted, out=product)
                out += product
        return self.grid.to_vector(out)

    def _halo_for(self, shape: tuple, dtype: np.dtype) -> tuple:
        """``(interior, product, pairs)`` for fields of ``shape`` and ``dtype``."""
        if self._halo is None or (self._halo[1].shape, self._halo[1].dtype) != (shape, dtype):
            r = self.radius
            halo = np.zeros(tuple(n + 2 * r for n in shape[:3]) + shape[3:], dtype)
            box = tuple(slice(r, r + n) for n in shape[:3])
            def shifted(axis: int, m: int) -> np.ndarray:  # [i] is field[i - m] along axis
                return halo[box[:axis] + (slice(r - m, r - m + shape[axis]),) + box[axis + 1:]]
            pairs = [(w, shifted(axis, k)) for axis, m, w in self._weights for k in (m, -m)]
            self._halo = (halo[box], np.empty(shape, dtype), pairs)
        return self._halo

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
