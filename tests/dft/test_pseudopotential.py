"""Tests for GTH pseudopotentials and nonlocal projectors."""

import numpy as np
import pytest

from repro.dft import (
    GTH_LIBRARY,
    GaussianPseudopotential,
    GTHParameters,
    build_nonlocal_projectors,
    gaussian_local_potential,
    gth_local_form_factor,
    local_potential_on_grid,
    silicon_crystal,
)
from repro.dft.atoms import Crystal
from repro.grid import Grid3D
from tests.conftest import bit_pin_operand


class TestFormFactor:
    def test_long_range_is_screened_coulomb(self):
        # As G -> 0 (but nonzero) the -4 pi Z / G^2 term dominates.
        p = GTH_LIBRARY["Si"]
        g = np.array([1e-3])
        v = gth_local_form_factor(g, p)
        assert v[0] == pytest.approx(-4.0 * np.pi * p.z_ion / g[0] ** 2, rel=1e-3)

    def test_g0_is_zero(self):
        p = GTH_LIBRARY["Si"]
        assert gth_local_form_factor(np.array([0.0]), p)[0] == 0.0

    def test_decays_at_large_g(self):
        p = GTH_LIBRARY["Si"]
        v = gth_local_form_factor(np.array([5.0, 10.0, 20.0]), p)
        assert abs(v[2]) < abs(v[1]) < abs(v[0])
        assert abs(v[2]) < 1e-8

    def test_matches_real_space_radial_transform(self):
        # Numerically Fourier-transform the real-space GTH local potential
        # and compare with the closed form.
        p = GTH_LIBRARY["Si"]
        from scipy.special import erf

        r = np.linspace(1e-6, 12.0, 40000)
        dr = r[1] - r[0]
        x = r / p.r_loc
        c1, c2 = p.c_local[0], p.c_local[1]
        v_r = -p.z_ion / r * erf(r / (np.sqrt(2.0) * p.r_loc)) + np.exp(-0.5 * x**2) * (
            c1 + c2 * x**2
        )
        # Split off the long-range -Z/r tail (whose transform is the
        # analytic -4 pi Z / G^2) so the radial quadrature sees only the
        # short-ranged remainder.
        v_short = v_r + p.z_ion / r
        for g in (0.5, 1.0, 2.5):
            num = 4.0 * np.pi / g * np.sum(r * np.sin(g * r) * v_short) * dr
            num -= 4.0 * np.pi * p.z_ion / g**2
            ref = gth_local_form_factor(np.array([g]), p)[0]
            assert num == pytest.approx(ref, rel=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GTHParameters("X", z_ion=0.0, r_loc=0.4, c_local=(1.0,))
        with pytest.raises(ValueError):
            GTHParameters("X", z_ion=1.0, r_loc=0.4, c_local=(1.0,), r_nl=(0.4,), h_nl=())


class TestLocalPotential:
    def test_mean_is_zero(self):
        # The dropped G = 0 component makes the grid potential zero-mean.
        c = silicon_crystal(1)
        g = c.make_grid(10.26 / 7)
        v = local_potential_on_grid(c, g)
        assert abs(v.mean()) < 1e-10

    def test_attractive_at_nuclei(self):
        c = Crystal(["Si"], np.array([[0.0, 0.0, 0.0]]), (12.0, 12.0, 12.0))
        g = c.make_grid(12.0 / 13)
        v = local_potential_on_grid(c, g).reshape(g.shape)
        # The deepest potential sits at the atom (grid origin).
        assert v[0, 0, 0] == pytest.approx(v.min())
        assert v[0, 0, 0] < -0.5

    def test_translation_equivariance(self):
        g_shape = 8
        L = 11.0
        c1 = Crystal(["Si"], np.array([[0.0, 0.0, 0.0]]), (L, L, L))
        h = L / g_shape
        c2 = Crystal(["Si"], np.array([[2 * h, 0.0, 0.0]]), (L, L, L))
        g = c1.make_grid(h)
        v1 = local_potential_on_grid(c1, g).reshape(g.shape)
        v2 = local_potential_on_grid(c2, g).reshape(g.shape)
        assert np.allclose(np.roll(v1, 2, axis=0), v2, atol=1e-10)

    def test_unknown_species_rejected(self):
        c = Crystal(["Xx"], np.zeros((1, 3)), (5.0, 5.0, 5.0))
        with pytest.raises(KeyError):
            local_potential_on_grid(c, c.make_grid(1.0))

    def test_dirichlet_rejected(self):
        c = silicon_crystal(1)
        g = Grid3D((8, 8, 8), c.lengths, bc="dirichlet")
        with pytest.raises(ValueError):
            local_potential_on_grid(c, g)

    def test_gaussian_potential_matches_limit(self):
        # The Gaussian pseudopotential is the pure -4 pi Z exp(...)/G^2 term.
        c = Crystal(["X"], np.array([[0.0, 0.0, 0.0]]), (10.0, 10.0, 10.0))
        g = c.make_grid(1.0)
        pp = GaussianPseudopotential("X", z_ion=2.0, r_core=0.8)
        v = gaussian_local_potential(c, g, {"X": pp})
        assert abs(v.mean()) < 1e-10
        assert v.reshape(g.shape)[0, 0, 0] == pytest.approx(v.min())


class TestNonlocalProjectors:
    def test_si_projector_count(self):
        # Si GTH: l=0 has 2 radial channels (1 m each), l=1 has 1 radial
        # channel (3 m): 5 projectors per atom.
        c = silicon_crystal(1)
        g = c.make_grid(10.26 / 9)
        nl = build_nonlocal_projectors(c, g)
        assert nl.n_projectors == 5 * 8

    def test_apply_matches_dense(self):
        c = Crystal(["Si"], np.array([[1.0, 1.0, 1.0]]), (8.0, 8.0, 8.0))
        g = c.make_grid(1.0)
        nl = build_nonlocal_projectors(c, g)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.n_points)
        dense = nl.to_dense()
        assert np.allclose(nl.apply(v), dense @ v, atol=1e-12)
        V = rng.standard_normal((g.n_points, 3))
        assert np.allclose(nl.apply(V), dense @ V, atol=1e-12)

    def test_symmetric_positive_semidefinite_blockwise(self):
        c = Crystal(["Si"], np.array([[1.0, 1.0, 1.0]]), (8.0, 8.0, 8.0))
        g = c.make_grid(1.0)
        nl = build_nonlocal_projectors(c, g)
        dense = nl.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-12)
        # Si GTH strengths are positive => V_nl is PSD.
        w = np.linalg.eigvalsh(dense)
        assert w.min() > -1e-10

    def test_sparsity(self):
        c = silicon_crystal(1)
        g = c.make_grid(10.26 / 15)
        nl = build_nonlocal_projectors(c, g)
        density = nl.projectors.nnz / (g.n_points * nl.n_projectors)
        assert density < 0.25  # compact support

    def test_projector_normalization(self):
        # GTH radial projectors are L2-normalized:
        # int p_i^l(r)^2 r^2 dr = 1 (with the Y_lm integrating to 1).
        from repro.dft.pseudopotential import _gth_radial

        r = np.linspace(1e-8, 10.0, 200000)
        dr = r[1] - r[0]
        for l, i, rl in [(0, 1, 0.42), (0, 2, 0.42), (1, 1, 0.48)]:
            p = _gth_radial(r, l, i, rl)
            assert np.sum(p**2 * r**2) * dr == pytest.approx(1.0, rel=1e-4)

    def test_no_nonlocal_for_local_only_species(self):
        c = Crystal(["H"], np.array([[1.0, 1.0, 1.0]]), (6.0, 6.0, 6.0))
        g = c.make_grid(1.0)
        nl = build_nonlocal_projectors(c, g)
        assert nl.n_projectors == 0
        v = np.ones(g.n_points)
        assert np.all(nl.apply(v) == 0) if nl.n_projectors else True


# Two atoms in a non-cubic box: overlapping supports, 10 projectors.
_BITS_CRYSTAL = Crystal(["Si", "Si"], np.array([[1.0, 1.5, 2.0], [3.5, 4.0, 5.5]]),
                        (6.0, 7.0, 8.0))
_BITS_GRID = _BITS_CRYSTAL.make_grid(1.0)
_BITS_NL = build_nonlocal_projectors(_BITS_CRYSTAL, _BITS_GRID)


def _public_apply(nl, v):
    """``dv * (P @ (h * (P^T @ v)))`` through scipy's public ``@``."""
    coeff = nl.projectors.T.tocsr() @ v
    coeff = coeff * (nl.strengths if coeff.ndim == 1 else nl.strengths[:, None])
    return nl.dv * (nl.projectors @ coeff)


class TestNonlocalApplyBits:
    """``NonlocalProjectors.apply`` calls scipy's CSR kernels itself; the
    result must equal the public-operator form to the last bit."""

    @pytest.mark.parametrize("layout", ["contiguous", "sliced"])
    @pytest.mark.parametrize("width", [None, 1, 16], ids=["vector", "one-column", "block16"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.complex64],
                             ids=lambda d: np.dtype(d).name)
    def test_apply_matches_public_matmul_bitwise(self, dtype, width, layout):
        nl = _BITS_NL.astype(np.float32) if dtype == np.complex64 else _BITS_NL
        assert nl.n_projectors == 10
        v = bit_pin_operand(_BITS_GRID.n_points, dtype, width, layout, seed=5)
        out = nl.apply(v)
        ref = _public_apply(nl, v)
        assert (out.dtype, out.shape) == (ref.dtype, ref.shape) == (v.dtype, v.shape)
        assert out.tobytes() == ref.tobytes()

    def test_each_operand_dtype_keeps_its_own_cast(self):
        nl = build_nonlocal_projectors(_BITS_CRYSTAL, _BITS_GRID)
        rng = np.random.default_rng(6)
        v = rng.standard_normal((_BITS_GRID.n_points, 3))
        z = v + 1j * rng.standard_normal(v.shape)
        # Interleaved dtypes: a cast kept for one operand dtype never serves another.
        for x in (z, v, z[:, 0], v[:, :1]):
            assert nl.apply(x).tobytes() == _public_apply(nl, x).tobytes()
        single = nl.astype(np.float32)
        z64 = z.astype(np.complex64)
        assert single.apply(z64).tobytes() == _public_apply(single, z64).tobytes()
        assert nl.apply(z).tobytes() == _public_apply(nl, z).tobytes()

    def test_operand_rows_must_match(self):
        with pytest.raises(ValueError):
            _BITS_NL.apply(np.ones(_BITS_GRID.n_points + 1))
