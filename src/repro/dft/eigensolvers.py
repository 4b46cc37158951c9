"""Eigensolvers for the Kohn-Sham problem.

Two paths:

* :func:`dense_lowest_eigenpairs` — LAPACK on the densified Hamiltonian;
  exact, used for small grids and as the reference in tests.
* :class:`ChebyshevFilteredSubspace` — CheFSI (Zhou, Saad, Tiago &
  Chelikowsky 2006), the matrix-free production path real-space DFT codes
  (including SPARC) use for the *nonlinear* KS eigenproblem. The same
  filtering idea reappears in the paper's RPA stage for the *linear*
  eigenproblem of ``nu^{1/2} chi0 nu^{1/2}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.dft.hamiltonian import Hamiltonian
from repro.grid.kronecker import KroneckerLaplacian
from repro.utils.rng import default_rng

#: A filter pass runs in float32 while the mean residual is above
#: ``_SINGLE_FLOOR * eps32 * upper``. Repeated float32 passes level off at
#: 0.74-0.78 eps32 * upper (20^3 Dirichlet dimer, 15^3 Si8), so at the floor
#: that rounding level is under a fifth of the residual.
_SINGLE_FLOOR = 4.0
#: A float32 pass that leaves more than this share of its starting residual
#: has reached float32's rounding level: the rest of the solve runs float64.
_SINGLE_STALL = 0.5


def dense_lowest_eigenpairs(
    h: Hamiltonian, n_states: int, constants: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact lowest eigenpairs via dense diagonalization.

    Returns ``(eigenvalues, orbitals)`` with l2-orthonormal real orbitals.
    A caller that diagonalizes ``h`` under many potentials passes its
    ``h.dense_constants()`` so they are assembled once.
    """
    if n_states < 1 or n_states > h.n_points:
        raise ValueError(f"n_states must be in 1..{h.n_points}, got {n_states}")
    mat = h.to_dense(constants)
    vals, vecs = scipy.linalg.eigh(mat, subset_by_index=(0, n_states - 1))
    return vals, vecs


def chebyshev_filter(
    apply_h, v: np.ndarray, degree: int, bound_low: float, bound_cut: float, bound_high: float
) -> np.ndarray:
    """Scaled Chebyshev filter amplifying the spectrum below ``bound_cut``.

    Standard CheFSI three-term recurrence: maps the unwanted interval
    ``[bound_cut, bound_high]`` onto [-1, 1] where Chebyshev polynomials
    stay bounded, while the wanted interval (down to ``bound_low``) is
    amplified exponentially in the degree. The scaling by the value at
    ``bound_low`` prevents overflow.
    """
    if degree < 1:
        raise ValueError("filter degree must be >= 1")
    if not bound_low < bound_cut < bound_high:
        raise ValueError(
            f"need bound_low < bound_cut < bound_high, got {bound_low}, {bound_cut}, {bound_high}"
        )
    e = 0.5 * (bound_high - bound_cut)
    c = 0.5 * (bound_high + bound_cut)
    sigma = e / (bound_low - c)
    sigma1 = sigma
    y = (apply_h(v) - c * v) * (sigma1 / e)
    for _ in range(2, degree + 1):
        sigma2 = 1.0 / (2.0 / sigma1 - sigma)
        y_new = 2.0 * (apply_h(y) - c * y) * (sigma2 / e) - (sigma * sigma2) * v
        v, y = y, y_new
        sigma = sigma2
    return y


@dataclass
class EigenResult:
    """Lowest eigenpairs from CheFSI.

    ``subspace`` is the whole filtered block, the ``n_states + n_buffer``
    Ritz vectors in ascending order; its leading columns are ``orbitals``.
    Passing it back as ``v0`` warm-starts the next solve without drawing
    fresh random buffer columns. ``spectral_bound`` is the upper bound the
    filter ran with; a caller that solves under a slowly moving potential
    passes it back as ``spectral_bound`` instead of paying for a new one.
    ``single_passes`` of the ``iterations`` filter passes ran in float32;
    everything returned is float64.
    """

    eigenvalues: np.ndarray
    orbitals: np.ndarray
    iterations: int
    residual: float
    converged: bool
    subspace: np.ndarray
    spectral_bound: float
    single_passes: int


class ChebyshevFilteredSubspace:
    """CheFSI driver for the lowest eigenpairs of a Hamiltonian.

    A solve filters only as hard as its tolerance needs:

    * a cold solve (``v0`` omitted) starts from the lowest
      ``n_states + n_buffer`` modes of the grid's own FD Laplacian, not from
      noise; a warm one from ``v0`` (plus random buffer columns if short);
    * the residual of every Rayleigh-Ritz step comes from the ``H V`` that
      step already holds, so checking costs no H-apply, and a start that
      already meets ``tol`` returns after 0 passes;
    * every pass but a cold solve's first (which runs at ``degree``) picks
      the lowest degree whose Chebyshev damping takes the mean residual
      ``r`` to its target: ``ceil(ln(r / target) / decay) + 1``, clamped
      to ``[2, degree]``. ``decay`` is ``arccosh(|x|)``, ``x`` the highest
      wanted Ritz value mapped onto the filter's ``[cut, upper]`` interval;
      after the solve's first pass it drops to the damping per degree that
      pass achieved, but to no less than half of ``arccosh(|x|)``;
    * while ``r`` is above the floor ``f = 4 eps32 upper`` a pass filters
      a float32 copy of the block through a float32 sibling of ``h`` (built
      once per solve) and aims at ``max(tol, f)``; QR, Rayleigh-Ritz and the
      residual stay float64, so every residual tested is exact. Below the
      floor, or once a float32 pass has not halved ``r``, the solve filters
      in float64.

    Parameters
    ----------
    h:
        The (fixed-potential) Hamiltonian operator.
    n_states:
        Number of lowest eigenpairs.
    degree:
        Highest Chebyshev filter degree a pass may use.
    tol:
        Mean relative Ritz-residual stopping tolerance.
    max_iterations:
        Filtered-iteration cap.
    spectral_bound:
        Upper spectral bound to filter with; estimated by padded power
        iteration (12 single-vector applies) when omitted.
    """

    def __init__(
        self,
        h: Hamiltonian,
        n_states: int,
        degree: int = 10,
        tol: float = 1e-6,
        max_iterations: int = 60,
        seed: int | None = None,
        n_buffer: int | None = None,
        spectral_bound: float | None = None,
    ) -> None:
        if n_states < 1 or n_states > h.n_points:
            raise ValueError(f"n_states must be in 1..{h.n_points}")
        self.h = h
        self.n_states = int(n_states)
        self.degree = int(degree)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.seed = seed
        self.spectral_bound = spectral_bound
        # Buffer states decouple the wanted spectrum from the filter cut;
        # without them subspace iteration stalls on clustered levels at the
        # subspace boundary.
        if n_buffer is None:
            n_buffer = max(4, n_states // 5)
        self.n_buffer = min(int(n_buffer), h.n_points - self.n_states)

    def _upper_bound(self) -> float:
        """Safe upper spectral bound: power iteration plus margin."""
        rng = default_rng(self.seed)
        v = rng.standard_normal(self.h.n_points)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(12):
            w = self.h.apply(v)
            lam = float(v @ w)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
        return lam + 0.2 * abs(lam) + 1.0

    def solve(self, v0: np.ndarray | None = None) -> EigenResult:
        n, m, k = self.h.n_points, self.n_states + self.n_buffer, self.n_states
        if v0 is None:
            V = KroneckerLaplacian(self.h.grid, self.h.radius).lowest_modes(m)
        else:
            v0 = np.asarray(v0, dtype=float)
            if v0.ndim != 2 or v0.shape[0] != n or v0.shape[1] > m:
                raise ValueError(f"v0 shape {v0.shape} incompatible with ({n}, <= {m})")
            fill = default_rng(self.seed).standard_normal((n, m - v0.shape[1]))
            V = np.column_stack([v0, fill])
        V, _ = np.linalg.qr(V)
        upper = self.spectral_bound
        if upper is None:
            upper = self._upper_bound()
        # Bounds go to the filter as Python floats: NumPy 2 promotes a float32
        # block times an np.float64 scalar to float64.
        upper = float(upper)
        floor = _SINGLE_FLOOR * float(np.finfo(np.float32).eps) * upper
        single, h32, singles, last = True, None, 0, None
        vals, V, HV = self._rayleigh_ritz(V)
        residual = _mean_residual(HV[:, :k], V[:, :k], vals[:k])
        it = 0
        while residual > self.tol and it < self.max_iterations:
            spread = max(vals[-1] - vals[0], 1e-3)
            cut = float(vals[-1] + 0.05 * spread)
            low = float(vals[0] - 0.05 * spread)
            single = single and residual > floor
            if it == 0 and v0 is None:
                degree = self.degree
            else:
                target = max(self.tol, floor) if single else self.tol
                degree = self._pass_degree(vals[k - 1], cut, upper, residual, target, last)
            it += 1
            if single:
                if h32 is None:
                    h32 = self.h.astype(np.float32)
                V = chebyshev_filter(h32.apply, V.astype(np.float32), degree, low, cut, upper)
                V = V.astype(np.float64)
                singles += 1
            else:
                V = chebyshev_filter(self.h.apply, V, degree, low, cut, upper)
            V, _ = np.linalg.qr(V)
            vals, V, HV = self._rayleigh_ritz(V)
            r0, residual = residual, _mean_residual(HV[:, :k], V[:, :k], vals[:k])
            last = (degree, r0, residual)
            # A float32 pass that did not halve the residual met float32's
            # rounding level.
            single = single and residual <= _SINGLE_STALL * r0
        return EigenResult(vals[:k], V[:, :k], it, residual, residual <= self.tol, V, upper,
                           singles)

    def _pass_degree(self, lam_k: float, cut: float, upper: float, residual: float,
                     target: float, last: tuple | None = None) -> int:
        """Lowest degree in ``[2, degree]`` whose filter should damp the mean
        residual from ``residual`` to ``target``, for wanted Ritz values up to
        ``lam_k``. ``last = (d, r0, r1)`` is the solve's previous pass: degree
        ``d`` took the residual from ``r0`` to ``r1``. A pass that removed
        less than the filter's damping predicts lowers the damping assumed
        per degree, to no less than half of it."""
        # |x| > 1: lam_k lies below the cut, outside the damped interval.
        x = abs(lam_k - 0.5 * (upper + cut)) / (0.5 * (upper - cut))
        decay = np.arccosh(x)  # -ln rho, rho = 1 / (|x| + sqrt(x^2 - 1))
        if last is not None:
            d, r0, r1 = last
            decay = min(decay, max(np.log(r0 / r1) / d, 0.5 * decay))
        needed = int(np.ceil(np.log(residual / target) / decay)) + 1
        return min(max(needed, 2), self.degree)

    def _rayleigh_ritz(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ritz values, Ritz vectors ``V Q`` and their images ``H V Q``."""
        HV = self.h.apply(V)
        hs = V.T @ HV
        hs = 0.5 * (hs + hs.T)
        vals, Q = scipy.linalg.eigh(hs)
        return vals, V @ Q, HV @ Q


def _mean_residual(HV: np.ndarray, V: np.ndarray, vals: np.ndarray) -> float:
    """Mean of ``||H v - lambda v|| / max(|lambda|, 1)`` over the columns."""
    norms = np.linalg.norm(HV - V * vals, axis=0)
    scale = np.maximum(np.abs(vals), 1.0)
    return float(np.mean(norms / scale))
