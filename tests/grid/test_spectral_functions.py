"""Property tests for spectral applications of functions of the Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import (
    CoulombOperator,
    FourierLaplacian,
    Grid3D,
    KroneckerLaplacian,
    spectral_laplacian,
)


def _grid(bc="periodic"):
    return Grid3D((6, 5, 7), (3.0, 2.5, 3.5), bc=bc)


@pytest.mark.parametrize("cls,bc", [
    (FourierLaplacian, "periodic"),
    (KroneckerLaplacian, "periodic"),
    (KroneckerLaplacian, "dirichlet"),
])
class TestFunctionCalculus:
    """f(L) applications must satisfy the operator-function calculus."""

    def test_identity_function(self, cls, bc):
        op = cls(_grid(bc), radius=2)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.grid.n_points)
        assert np.allclose(op.apply_function(lambda lam: np.ones_like(lam), v), v,
                           atol=1e-10)

    def test_composition(self, cls, bc):
        # f(L) g(L) v == (f*g)(L) v
        op = cls(_grid(bc), radius=2)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(op.grid.n_points)
        f = lambda lam: np.exp(0.01 * lam)
        g = lambda lam: 1.0 / (1.0 - lam)
        a = op.apply_function(f, op.apply_function(g, v))
        b = op.apply_function(lambda lam: f(lam) * g(lam), v)
        assert np.allclose(a, b, atol=1e-9)

    def test_linearity(self, cls, bc):
        op = cls(_grid(bc), radius=2)
        rng = np.random.default_rng(2)
        v, w = rng.standard_normal((2, op.grid.n_points))
        f = lambda lam: lam**2
        a = op.apply_function(f, 2.0 * v - 3.0 * w)
        b = 2.0 * op.apply_function(f, v) - 3.0 * op.apply_function(f, w)
        assert np.allclose(a, b, atol=1e-8)

    def test_symmetry_of_application(self, cls, bc):
        # w^T f(L) v == v^T f(L) w for any real f (L symmetric).
        op = cls(_grid(bc), radius=2)
        rng = np.random.default_rng(3)
        v, w = rng.standard_normal((2, op.grid.n_points))
        f = lambda lam: np.exp(0.005 * lam)
        assert w @ op.apply_function(f, v) == pytest.approx(
            v @ op.apply_function(f, w), rel=1e-10
        )

    @pytest.mark.parametrize("complex_operand", [False, True], ids=["real", "complex"])
    def test_stored_multiplier_is_the_function_application(self, cls, bc,
                                                           complex_operand):
        # apply_function(f, v) is apply_multiplier(f(symbol), v), bit for bit,
        # for vectors and blocks — what lets callers build f(symbol) once.
        op = cls(_grid(bc), radius=2)
        rng = np.random.default_rng(4)
        V = rng.standard_normal((op.grid.n_points, 3))
        if complex_operand:
            V = V + 1j * rng.standard_normal(V.shape)
        f = lambda lam: 1.0 / (0.37 - 0.5 * lam)
        mult = f(op.symbol)
        for v in (V, V[:, 0]):
            out = op.apply_multiplier(mult, v)
            assert np.array_equal(out, op.apply_function(f, v))
            assert np.iscomplexobj(out) == complex_operand
        assert np.array_equal(op.apply_multiplier(op.symbol, V), op.apply(V))


def test_spectral_laplacian_selects_by_boundary_condition():
    assert isinstance(spectral_laplacian(_grid("periodic"), 2), FourierLaplacian)
    assert isinstance(spectral_laplacian(_grid("dirichlet"), 2), KroneckerLaplacian)
    assert isinstance(spectral_laplacian(_grid("periodic"), 2, backend="kronecker"),
                      KroneckerLaplacian)
    with pytest.raises(ValueError, match="periodic"):
        spectral_laplacian(_grid("dirichlet"), 2, backend="fft")
    with pytest.raises(ValueError, match="unknown backend"):
        spectral_laplacian(_grid(), 2, backend="dense")


@settings(deadline=None, max_examples=20)
@given(
    scale=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_nu_scaling(scale, seed):
    """nu on a grid scaled by c picks up a factor c^2 (Coulomb ~ 1/G^2)."""
    base = Grid3D((6, 6, 6), (3.0, 3.0, 3.0))
    scaled = Grid3D((6, 6, 6), (3.0 * scale, 3.0 * scale, 3.0 * scale))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(base.n_points)
    v -= v.mean()
    a = CoulombOperator(base, radius=2).apply_nu(v)
    b = CoulombOperator(scaled, radius=2).apply_nu(v)
    assert np.allclose(b, scale**2 * a, rtol=1e-9, atol=1e-10)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_poisson_maximum_principle_dirichlet(seed):
    """-lap phi = 4 pi rho with rho >= 0 and zero boundary => phi >= 0
    (discrete maximum principle holds for the 2nd-order stencil)."""
    grid = Grid3D((7, 7, 7), (3.5, 3.5, 3.5), bc="dirichlet")
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 1.0, grid.n_points)
    phi = CoulombOperator(grid, radius=1).solve_poisson(rho)
    assert phi.min() > -1e-10
