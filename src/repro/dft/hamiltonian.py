"""The Kohn-Sham Hamiltonian operator.

``H = -1/2 nabla^2 + diag(v_eff) + V_nl`` with the three structural pieces
the paper's kernels exploit (Section III-B/C):

* a high-order finite-difference Laplacian applied matrix-free,
* a diagonal effective potential (local pseudopotential + Hartree + xc),
* a sparse low-rank nonlocal projector term ``X X^H``.

``Hamiltonian.shifted`` produces the Sternheimer coefficient operator
``A_{j,k} = H - lambda_j I + i omega_k I`` as a callable suitable for the
block COCG solvers.
"""

from __future__ import annotations

import numpy as np

from repro.dft.pseudopotential import NonlocalProjectors
from repro.grid.fourier import FourierLaplacian
from repro.grid.mesh import Grid3D
from repro.grid.stencil import StencilLaplacian


class Hamiltonian:
    """Matrix-free Kohn-Sham Hamiltonian on a real-space grid.

    Parameters
    ----------
    grid:
        The mesh.
    v_local:
        Flat diagonal effective potential (may be updated in place between
        SCF iterations via :meth:`update_potential`).
    nonlocal_part:
        Optional sparse Kleinman-Bylander projector set.
    radius:
        FD stencil radius for the kinetic term.

    The kinetic path follows the grid (read-only ``kinetic_backend``):
    ``"fft"`` on periodic grids — the same FD stencil applied exactly, as two
    FFTs around the stored multiplier ``-1/2 lambda(k)`` instead of ``6 r``
    shifted adds — and the matrix-free ``"stencil"`` otherwise. Precision
    belongs to the operator: :meth:`apply` is one code path over coefficient
    arrays (kinetic multiplier, ``v_local``, projectors) held in one real
    dtype — float64 as constructed, any other through :meth:`astype`.
    """

    def __init__(
        self,
        grid: Grid3D,
        v_local: np.ndarray,
        nonlocal_part: NonlocalProjectors | None = None,
        radius: int = 4,
    ) -> None:
        v_local = np.asarray(v_local, dtype=float)
        if v_local.shape != (grid.n_points,):
            raise ValueError(f"v_local shape {v_local.shape} != ({grid.n_points},)")
        self.grid = grid
        self.radius = int(radius)
        if grid.bc == "periodic":
            self._laplacian = FourierLaplacian(grid, radius)
            self._kinetic = -0.5 * self._laplacian.symbol
        else:
            self._laplacian = StencilLaplacian(grid, radius)
            self._kinetic = None
        self.v_local = v_local.copy()
        self.nonlocal_part = nonlocal_part

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def kinetic_backend(self) -> str:
        return "stencil" if self._kinetic is None else "fft"

    @property
    def apply_cost(self) -> float:
        """FLOPs charged per column by the Section III-B cost model.

        The ``(6 r + 1)``-point stencil over ``n_d`` points, plus
        ``4 nnz(X)`` for the forward and backward nonlocal products.
        """
        cost = (6.0 * self.radius + 1.0) * self.n_points
        if self.nonlocal_part is not None:
            cost += 4.0 * self.nonlocal_part.projectors.nnz
        return cost

    def update_potential(self, v_local: np.ndarray) -> None:
        v_local = np.asarray(v_local, dtype=self.v_local.dtype)
        if v_local.shape != (self.n_points,):
            raise ValueError("potential shape mismatch")
        self.v_local = v_local.copy()

    def astype(self, dtype) -> "Hamiltonian":
        """A sibling (same grid, radius, kinetic path) whose coefficient
        arrays are cast once to the real ``dtype``: ``astype(np.float32)``
        maps complex64 blocks to complex64 with no float64 intermediate.
        Later potential updates on either leave the other untouched, so
        build the sibling where it is used rather than keeping it around."""
        sibling = Hamiltonian(self.grid, self.v_local, self.nonlocal_part, self.radius)
        sibling.v_local = self.v_local.astype(dtype)
        if sibling._kinetic is not None:
            sibling._kinetic = sibling._kinetic.astype(dtype)
        if self.nonlocal_part is not None:
            sibling.nonlocal_part = self.nonlocal_part.astype(dtype)
        return sibling

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``H v`` for a vector ``(n_d,)`` or block ``(n_d, s)``."""
        if self._kinetic is not None:
            out = self._laplacian.apply_multiplier(self._kinetic, v)
        else:
            out = -0.5 * self._laplacian.apply(v)
        if v.ndim == 1:
            out += self.v_local * v
        else:
            out += self.v_local[:, None] * v
        if self.nonlocal_part is not None and self.nonlocal_part.n_projectors:
            out += self.nonlocal_part.apply(v)
        return out

    def shifted(self, lambda_j: float, omega: float) -> "ShiftedHamiltonian":
        """Sternheimer coefficient operator ``H - lambda_j I + i omega I``.

        The result is complex symmetric (H is real symmetric, the shift is a
        complex multiple of the identity) — the structure block COCG needs.
        """
        return ShiftedHamiltonian(self, -lambda_j + 1j * omega)

    def dense_constants(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The parts of :meth:`to_dense` no potential update changes: dense
        ``-1/2 nabla^2`` and ``V_nl`` (``None`` without projectors). Small grids
        only: ``O(n_d^2)`` memory each."""
        from repro.grid.laplacian import assemble_laplacian

        n = self.n_points
        if n > 20_000:
            raise MemoryError(f"refusing to densify a {n} x {n} Hamiltonian")
        kinetic = (-0.5 * assemble_laplacian(self.grid, self.radius)).toarray()
        if self.nonlocal_part is not None and self.nonlocal_part.n_projectors:
            return kinetic, self.nonlocal_part.to_dense()
        return kinetic, None

    def to_dense(self, constants: tuple | None = None) -> np.ndarray:
        """Explicit matrix; ``constants`` is a kept :meth:`dense_constants`."""
        if constants is None:
            mat, nonlocal_dense = self.dense_constants()
        else:
            mat, nonlocal_dense = constants[0].copy(), constants[1]
        mat[np.arange(self.n_points), np.arange(self.n_points)] += self.v_local
        if nonlocal_dense is not None:
            mat += nonlocal_dense
        return mat


class ShiftedHamiltonian:
    """``v -> H v + shift * v``: the callable :meth:`Hamiltonian.shifted`
    returns. It exposes ``hamiltonian`` and ``shift`` so a driver holding
    several of them can push all their blocks through one wide
    ``hamiltonian.apply`` and add each shift on its own columns — the same
    bits, since :meth:`Hamiltonian.apply` treats every column alike."""

    __slots__ = ("hamiltonian", "shift")

    def __init__(self, hamiltonian: Hamiltonian, shift: complex) -> None:
        self.hamiltonian = hamiltonian
        self.shift = shift

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.hamiltonian.apply(v) + self.shift * v
