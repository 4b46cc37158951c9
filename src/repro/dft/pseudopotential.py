"""Norm-conserving pseudopotentials (GTH form) for the KS-DFT substrate.

The paper obtains its Hamiltonian from SPARC, whose pseudopotential term is
a local potential plus a Kleinman-Bylander nonlocal part — the sparse
``X X^H`` outer product Section III-C exploits. We implement the analytic
Goedecker-Teter-Hutter (GTH) form:

* the **local** part is assembled in reciprocal space from the closed-form
  GTH form factor and the atomic structure factor (periodic grids), and
* the **nonlocal** part is a set of compactly-supported Gaussian-type
  separable projectors held as a sparse matrix with diagonal channel
  strengths, applied as ``V_nl psi = dv * P (h * (P^T psi))``.

A soft purely local Gaussian pseudopotential is also provided for tiny
model systems on coarse grids (tests, quick examples).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gamma as gamma_fn

import numpy as np
import scipy.sparse as sp

from repro.dft.atoms import Crystal
from repro.grid.mesh import Grid3D


@dataclass(frozen=True)
class GTHParameters:
    """Analytic GTH pseudopotential parameters for one species.

    ``c_local`` are the local Gaussian-polynomial coefficients C1..C4;
    ``r_nl`` / ``h_nl`` give per-angular-momentum projector radii and the
    diagonal channel strengths (one sequence per l = 0, 1, ...).
    """

    symbol: str
    z_ion: float
    r_loc: float
    c_local: tuple[float, ...]
    r_nl: tuple[float, ...] = ()
    h_nl: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.z_ion <= 0 or self.r_loc <= 0:
            raise ValueError("z_ion and r_loc must be positive")
        if len(self.r_nl) != len(self.h_nl):
            raise ValueError("r_nl and h_nl must have one entry per angular momentum")


#: GTH-LDA parameters (Goedecker, Teter & Hutter 1996 / Hartwigsen et al.).
GTH_LIBRARY: dict[str, GTHParameters] = {
    "Si": GTHParameters(
        symbol="Si",
        z_ion=4.0,
        r_loc=0.44,
        c_local=(-7.336103, 0.0),
        r_nl=(0.422738, 0.484278),
        h_nl=((5.906928, 3.258196), (2.727013,)),
    ),
    "H": GTHParameters(
        symbol="H",
        z_ion=1.0,
        r_loc=0.2,
        c_local=(-4.180237, 0.725075),
    ),
    "C": GTHParameters(
        symbol="C",
        z_ion=4.0,
        r_loc=0.348830,
        c_local=(-8.513771, 1.228432),
        r_nl=(0.304553,),
        h_nl=((9.522842,),),
    ),
}


def gth_local_form_factor(g_norm: np.ndarray, params: GTHParameters) -> np.ndarray:
    """Closed-form Fourier transform of the GTH local potential.

    ``V(G) = exp(-x^2/2) * [-4 pi Z/G^2 + sqrt(8 pi^3) r_loc^3 * poly(x)]``
    with ``x = G * r_loc``; the ``G = 0`` entry is set to zero (jellium
    compensation, consistent with the Hartree zero-mode convention).
    """
    g = np.asarray(g_norm, dtype=float)
    x2 = (g * params.r_loc) ** 2
    gauss = np.exp(-0.5 * x2)
    out = np.zeros_like(g)
    nonzero = g > 1e-12
    out[nonzero] = -4.0 * np.pi * params.z_ion / g[nonzero] ** 2 * gauss[nonzero]
    c = list(params.c_local) + [0.0] * (4 - len(params.c_local))
    poly = (
        c[0]
        + c[1] * (3.0 - x2)
        + c[2] * (15.0 - 10.0 * x2 + x2**2)
        + c[3] * (105.0 - 105.0 * x2 + 21.0 * x2**2 - x2**3)
    )
    out += np.where(nonzero, np.sqrt(8.0 * np.pi**3) * params.r_loc**3 * gauss * poly, 0.0)
    out[~nonzero] = 0.0
    return out


def local_potential_on_grid(
    crystal: Crystal,
    grid: Grid3D,
    library: dict[str, GTHParameters] | None = None,
) -> np.ndarray:
    """Total local pseudopotential summed over atoms (reciprocal assembly).

    Returns the flat real potential ``V_loc(r_i)``.
    """
    if grid.bc != "periodic":
        raise ValueError("reciprocal-space assembly requires a periodic grid")
    lib = library if library is not None else GTH_LIBRARY
    kx = grid.wavevectors(0)[:, None, None]
    ky = grid.wavevectors(1)[None, :, None]
    kz = grid.wavevectors(2)[None, None, :]
    g_norm = np.sqrt(kx**2 + ky**2 + kz**2)
    vhat = np.zeros(grid.shape, dtype=complex)
    by_species: dict[str, list[np.ndarray]] = {}
    for sym, pos in zip(crystal.species, crystal.positions):
        by_species.setdefault(sym, []).append(pos)
    for sym, positions in by_species.items():
        if sym not in lib:
            raise KeyError(f"no pseudopotential for species {sym!r}")
        form = gth_local_form_factor(g_norm, lib[sym])
        structure = np.zeros(grid.shape, dtype=complex)
        for tau in positions:
            phase = kx * tau[0] + ky * tau[1] + kz * tau[2]
            structure += np.exp(-1j * phase)
        vhat += form * structure
    vhat /= grid.volume
    # V(r) = sum_G vhat(G) e^{iG r}: inverse FFT with numpy's 1/N convention
    # absorbed by multiplying back the point count.
    v = np.fft.ifftn(vhat).real * grid.n_points
    return v.reshape(grid.n_points)


@dataclass(frozen=True)
class GaussianPseudopotential:
    """Soft local-only pseudopotential: erf-screened Coulomb attraction.

    ``V(G) = -4 pi Z / G^2 * exp(-(G r_c)^2 / 2)`` — the smooth long-range
    part of a Gaussian charge of width ``r_c``. Handy for tiny model systems
    on grids too coarse for GTH silicon.
    """

    symbol: str
    z_ion: float
    r_core: float

    def form_factor(self, g_norm: np.ndarray) -> np.ndarray:
        g = np.asarray(g_norm, dtype=float)
        out = np.zeros_like(g)
        nonzero = g > 1e-12
        out[nonzero] = (
            -4.0 * np.pi * self.z_ion / g[nonzero] ** 2 * np.exp(-0.5 * (g[nonzero] * self.r_core) ** 2)
        )
        return out


def real_space_local_potential(
    crystal: Crystal, grid: Grid3D, pseudos: dict[str, GaussianPseudopotential]
) -> np.ndarray:
    """Isolated-system local potential by direct real-space summation.

    The Gaussian pseudopotential has the exact closed real-space form
    ``V(r) = -Z erf(r / (sqrt(2) r_core)) / r`` (the potential of a
    Gaussian charge), so no reciprocal-space machinery — and no
    periodicity — is needed. This is the Dirichlet-boundary path the
    paper's introduction credits real-space methods with (molecules,
    wires, surfaces).
    """
    from scipy.special import erf

    points = grid.points
    v = np.zeros(grid.n_points)
    for sym, tau in zip(crystal.species, crystal.positions):
        pp = pseudos[sym]
        r = np.linalg.norm(points - tau, axis=1)
        small = r < 1e-10
        safe_r = np.where(small, 1.0, r)
        term = -pp.z_ion * erf(safe_r / (np.sqrt(2.0) * pp.r_core)) / safe_r
        # r -> 0 limit of the erf-screened Coulomb.
        term[small] = -pp.z_ion * np.sqrt(2.0 / np.pi) / pp.r_core
        v += term
    return v


def gth_real_space_local_potential(
    crystal: Crystal,
    grid: Grid3D,
    library: dict[str, GTHParameters] | None = None,
) -> np.ndarray:
    """GTH local potential by direct real-space summation (isolated systems).

    The analytic GTH local form is

        V(r) = -Z/r erf(r / (sqrt(2) r_loc))
               + exp(-x^2/2) (C1 + C2 x^2 + C3 x^4 + C4 x^6),  x = r / r_loc,

    evaluated without periodic images — the Dirichlet-boundary companion of
    :func:`local_potential_on_grid` (whose reciprocal assembly requires a
    periodic cell). Tests cross-check the two on a large periodic cell.
    """
    from scipy.special import erf

    lib = library if library is not None else GTH_LIBRARY
    points = grid.points
    v = np.zeros(grid.n_points)
    for sym, tau in zip(crystal.species, crystal.positions):
        if sym not in lib:
            raise KeyError(f"no pseudopotential for species {sym!r}")
        p = lib[sym]
        r = np.linalg.norm(points - tau, axis=1)
        small = r < 1e-10
        safe_r = np.where(small, 1.0, r)
        coul = -p.z_ion * erf(safe_r / (np.sqrt(2.0) * p.r_loc)) / safe_r
        coul[small] = -p.z_ion * np.sqrt(2.0 / np.pi) / p.r_loc
        x2 = (r / p.r_loc) ** 2
        c = list(p.c_local) + [0.0] * (4 - len(p.c_local))
        poly = c[0] + c[1] * x2 + c[2] * x2**2 + c[3] * x2**3
        v += coul + np.exp(-0.5 * x2) * poly
    return v


def gaussian_local_potential(
    crystal: Crystal, grid: Grid3D, pseudos: dict[str, GaussianPseudopotential]
) -> np.ndarray:
    """Local potential from :class:`GaussianPseudopotential` entries."""
    if grid.bc != "periodic":
        raise ValueError("reciprocal-space assembly requires a periodic grid")
    kx = grid.wavevectors(0)[:, None, None]
    ky = grid.wavevectors(1)[None, :, None]
    kz = grid.wavevectors(2)[None, None, :]
    g_norm = np.sqrt(kx**2 + ky**2 + kz**2)
    vhat = np.zeros(grid.shape, dtype=complex)
    for sym, tau in zip(crystal.species, crystal.positions):
        pp = pseudos[sym]
        phase = kx * tau[0] + ky * tau[1] + kz * tau[2]
        vhat += pp.form_factor(g_norm) * np.exp(-1j * phase)
    vhat /= grid.volume
    v = np.fft.ifftn(vhat).real * grid.n_points
    return v.reshape(grid.n_points)


# -- Kleinman-Bylander nonlocal projectors -----------------------------------

#: Real solid harmonics for l = 0, 1 as functions of displacement components.
_HARMONICS = {
    0: [lambda d, r: np.full_like(r, 0.5 / np.sqrt(np.pi))],
    1: [
        lambda d, r: np.sqrt(3.0 / (4.0 * np.pi)) * _safe_div(d[..., 0], r),
        lambda d, r: np.sqrt(3.0 / (4.0 * np.pi)) * _safe_div(d[..., 1], r),
        lambda d, r: np.sqrt(3.0 / (4.0 * np.pi)) * _safe_div(d[..., 2], r),
    ],
}


def _safe_div(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    mask = r > 1e-12
    out[mask] = a[mask] / r[mask]
    return out


def _gth_radial(r: np.ndarray, l: int, i: int, r_l: float) -> np.ndarray:
    """GTH radial projector ``p_i^l(r)`` (i is 1-based)."""
    power = l + 2 * (i - 1)
    norm = np.sqrt(2.0) / (
        r_l ** (l + (4 * i - 1) / 2.0) * np.sqrt(gamma_fn(l + (4 * i - 1) / 2.0))
    )
    return norm * r**power * np.exp(-0.5 * (r / r_l) ** 2)


@dataclass
class NonlocalProjectors:
    """Sparse Kleinman-Bylander projector set ``V_nl = dv * P diag(h) P^T``.

    Attributes
    ----------
    projectors:
        ``(n_points, n_proj)`` sparse CSR matrix of projector values.
    strengths:
        ``(n_proj,)`` channel strengths ``h``.
    dv:
        Grid volume element folded into every application.
    """

    projectors: sp.csr_matrix
    strengths: np.ndarray
    dv: float
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Pre-materialize the transpose: scipy reconstructs `.T` on every
        # access, which dominates small-grid Hamiltonian applies otherwise.
        self._projectors_t = self.projectors.T.tocsr()

    @property
    def n_projectors(self) -> int:
        return self.projectors.shape[1]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``V_nl v`` for a vector or block ``v``."""
        coeff = self._projectors_t @ v
        if coeff.ndim == 1:
            coeff = coeff * self.strengths
        else:
            coeff = coeff * self.strengths[:, None]
        return self.dv * (self.projectors @ coeff)

    def astype(self, dtype) -> "NonlocalProjectors":
        """The same projector set held in real ``dtype`` (cast once, here):
        its ``apply`` keeps a complex64 block complex64 when ``dtype`` is
        float32, because no float64 array or NumPy scalar meets the block."""
        return replace(self, projectors=self.projectors.astype(dtype),
                       strengths=self.strengths.astype(dtype), dv=float(self.dv))

    def to_dense(self) -> np.ndarray:
        P = self.projectors.toarray()
        return self.dv * (P * self.strengths) @ P.T


def build_nonlocal_projectors(
    crystal: Crystal,
    grid: Grid3D,
    library: dict[str, GTHParameters] | None = None,
    cutoff_sigmas: float = 5.0,
) -> NonlocalProjectors:
    """Assemble the sparse GTH nonlocal projector matrix for a crystal.

    Each projector is evaluated with the minimum-image convention and
    truncated beyond ``cutoff_sigmas * r_l`` (the Gaussian tail), producing
    the sparse column structure the paper's ``X X^H`` term relies on.
    """
    lib = library if library is not None else GTH_LIBRARY
    lengths = np.asarray(grid.lengths)
    points = grid.points
    cols: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    strengths: list[float] = []
    labels: list[str] = []
    col = 0
    for atom_idx, (sym, tau) in enumerate(zip(crystal.species, crystal.positions)):
        params = lib[sym]
        for l, (r_l, h_channels) in enumerate(zip(params.r_nl, params.h_nl)):
            cutoff = cutoff_sigmas * r_l
            d = points - tau
            if grid.bc == "periodic":
                # Minimum-image displacement from the atom.
                d -= lengths * np.round(d / lengths)
            r = np.linalg.norm(d, axis=1)
            support = np.flatnonzero(r <= cutoff)
            if support.size == 0:
                continue
            d_s, r_s = d[support], r[support]
            for i, h in enumerate(h_channels, start=1):
                radial = _gth_radial(r_s, l, i, r_l)
                for m, harm in enumerate(_HARMONICS[l]):
                    values = radial * harm(d_s, r_s)
                    rows.append(support)
                    cols.append(np.full(support.size, col))
                    vals.append(values)
                    strengths.append(h)
                    labels.append(f"atom{atom_idx}:{sym}:l{l}m{m}i{i}")
                    col += 1
    if col == 0:
        projectors = sp.csr_matrix((grid.n_points, 0))
        return NonlocalProjectors(projectors, np.zeros(0), grid.dv, labels)
    projectors = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_points, col),
    )
    return NonlocalProjectors(projectors, np.asarray(strengths), grid.dv, labels)
