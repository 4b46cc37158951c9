"""Tests for the Hamiltonian operator, eigensolvers and density machinery."""

import inspect

import numpy as np
import pytest

from repro.dft import (
    ChebyshevFilteredSubspace,
    GaussianPseudopotential,
    Hamiltonian,
    build_nonlocal_projectors,
    chebyshev_filter,
    check_orthonormal,
    density_from_orbitals,
    dense_lowest_eigenpairs,
    electron_count,
    fermi_dirac_occupations,
    gth_real_space_local_potential,
    insulator_occupations,
    local_potential_on_grid,
    real_space_local_potential,
    silicon_crystal,
)
from repro.dft.atoms import Crystal
from repro.grid import Grid3D


@pytest.fixture(scope="module")
def si_setup():
    crystal = silicon_crystal(1)
    grid = crystal.make_grid(10.26 / 7)  # 7^3 = 343 points: fast
    v_loc = local_potential_on_grid(crystal, grid)
    nl = build_nonlocal_projectors(crystal, grid)
    h = Hamiltonian(grid, v_loc, nl, radius=2)
    return crystal, grid, h


class TestHamiltonian:
    def test_dense_matches_apply(self, si_setup):
        _, grid, h = si_setup
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid.n_points)
        dense = h.to_dense()
        assert np.allclose(h.apply(v), dense @ v, atol=1e-10)

    def test_dense_is_symmetric(self, si_setup):
        _, _, h = si_setup
        dense = h.to_dense()
        assert np.allclose(dense, dense.T, atol=1e-10)

    def test_block_apply_consistent(self, si_setup):
        _, grid, h = si_setup
        rng = np.random.default_rng(1)
        V = rng.standard_normal((grid.n_points, 3))
        block = h.apply(V)
        cols = np.column_stack([h.apply(V[:, j]) for j in range(3)])
        assert np.allclose(block, cols, atol=1e-12)

    def test_shifted_operator_is_complex_symmetric(self, si_setup):
        _, grid, h = si_setup
        apply_a = h.shifted(lambda_j=0.3, omega=0.7)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        y = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        # Unconjugated symmetry: y^T (A x) == x^T (A y).
        assert y @ apply_a(x) == pytest.approx(x @ apply_a(y), rel=1e-10)

    def test_shifted_operator_spectrum(self, si_setup):
        # Eq. 9: lambda(A_{j,k}) = lambda(H) - lambda_j + i omega_k.
        _, _, h = si_setup
        dense = h.to_dense()
        lam_h = np.linalg.eigvalsh(dense)
        lam_j, omega = lam_h[3], 0.4
        n = dense.shape[0]
        a = dense - lam_j * np.eye(n) + 1j * omega * np.eye(n)
        lam_a = np.linalg.eigvals(a)
        assert np.allclose(np.sort(lam_a.imag), np.full(n, omega), atol=1e-8)
        assert np.allclose(np.sort(lam_a.real), lam_h - lam_j, atol=1e-6)

    def test_potential_update(self, si_setup):
        _, grid, h = si_setup
        old = h.v_local.copy()
        try:
            h.update_potential(old + 1.0)
            v = np.ones(grid.n_points)
            shifted = h.apply(v)
            h.update_potential(old)
            base = h.apply(v)
            assert np.allclose(shifted - base, 1.0, atol=1e-12)
        finally:
            h.update_potential(old)

    def test_kept_dense_constants_rebuild_the_same_matrix(self, si_setup):
        # run_scf holds them across its iterations: the potential moves, they do not.
        _, _, h = si_setup
        constants = h.dense_constants()
        snapshot = [c.copy() for c in constants]
        old = h.v_local.copy()
        try:
            h.update_potential(old + np.linspace(0.0, 1.0, h.n_points))
            assert h.to_dense(constants).tobytes() == h.to_dense().tobytes()
            vals, vecs = dense_lowest_eigenpairs(h, 6, constants)
            ref_vals, ref_vecs = dense_lowest_eigenpairs(h, 6)
            assert vals.tobytes() == ref_vals.tobytes() and vecs.tobytes() == ref_vecs.tobytes()
        finally:
            h.update_potential(old)
        assert all(np.array_equal(c, s) for c, s in zip(constants, snapshot))

    def test_validation(self, si_setup):
        _, grid, h = si_setup
        with pytest.raises(ValueError):
            Hamiltonian(grid, np.zeros(grid.n_points + 1))
        with pytest.raises(ValueError):
            h.update_potential(np.zeros(3))


@pytest.fixture(params=["fft+projectors", "fft", "stencil+projectors", "stencil"])
def any_hamiltonian(request, si_setup, toy_dft):
    """A fresh float64 Hamiltonian on each kinetic path, with and without
    nonlocal projectors (no SCF: the operator, not the ground state)."""
    if request.param == "fft+projectors":
        h = si_setup[2]
    elif request.param == "fft":
        h = toy_dft.hamiltonian
    else:
        grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0), bc="dirichlet")
        if request.param == "stencil+projectors":
            atom = Crystal(["Si"], np.array([[5.0, 5.0, 5.0]]), (10.0, 10.0, 10.0))
            return Hamiltonian(grid, gth_real_space_local_potential(atom, grid),
                               build_nonlocal_projectors(atom, grid), radius=2)
        dimer = Crystal(["X", "X"], np.array([[4.2, 5.0, 5.0], [5.8, 5.0, 5.0]]),
                        (10.0, 10.0, 10.0))
        pseudos = {"X": GaussianPseudopotential("X", z_ion=1.0, r_core=0.7)}
        return Hamiltonian(grid, real_space_local_potential(dimer, grid, pseudos),
                           radius=2)
    return Hamiltonian(h.grid, h.v_local, h.nonlocal_part, radius=h.radius)


def test_timing_wrappers_set_on_the_instance_see_every_apply(any_hamiltonian):
    """The benchmark ladder counts and times H-apply by setting a wrapper as the
    *instance's* ``apply`` (``dft.h_apply_calls``), after the shifted operators
    may already exist: ``shifted`` looks ``self.apply`` up per call, and on the
    stencil path ``apply`` reaches the Laplacian through ``self._laplacian.apply``."""
    h = any_hamiltonian
    v = TestWorkingPrecision._block(h, columns=2)
    a = h.shifted(lambda_j=0.3, omega=0.7)
    expected = a(v)

    def counted(obj):
        inner, seen = obj.apply, []

        def wrapper(x):
            seen.append(x.shape)
            return inner(x)

        obj.apply = wrapper
        return seen

    laplacian_calls = counted(h._laplacian)
    h_calls = counted(h)
    assert np.array_equal(a(v), expected)
    assert h_calls == [v.shape]
    assert laplacian_calls == ([v.shape] if h.kinetic_backend == "stencil" else [])


class TestWorkingPrecision:
    """Precision is the operator's: one ``apply``, coefficient arrays in the
    sibling's dtype (every float32 kernel of the stack runs here)."""

    @staticmethod
    def _block(h, columns=5):
        rng = np.random.default_rng(7)
        return (rng.standard_normal((h.n_points, columns))
                + 1j * rng.standard_normal((h.n_points, columns)))

    def test_kinetic_path_is_derived_from_the_grid(self, any_hamiltonian, request):
        h = any_hamiltonian
        assert "kinetic_backend" not in inspect.signature(Hamiltonian.__init__).parameters
        assert h.kinetic_backend == request.node.callspec.id.split("+")[0]
        n_projectors = h.nonlocal_part.n_projectors if h.nonlocal_part is not None else 0
        assert (n_projectors > 0) == ("projectors" in request.node.callspec.id)

    def test_float32_sibling_stays_in_single_precision(self, any_hamiltonian):
        h = any_hamiltonian
        x = self._block(h)
        ref = h.apply(x)
        h32 = h.astype(np.float32)
        assert h32.kinetic_backend == h.kinetic_backend
        out = h32.apply(x.astype(np.complex64))
        assert out.dtype == np.complex64
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6
        col = h32.apply(x[:, 0].astype(np.complex64))
        assert col.dtype == np.complex64
        assert np.linalg.norm(col - ref[:, 0]) / np.linalg.norm(ref[:, 0]) < 1e-6
        assert h32.apply(x.real.astype(np.float32)).dtype == np.float32

    def test_float64_sibling_is_the_same_operator_bitwise(self, any_hamiltonian):
        h = any_hamiltonian
        x = self._block(h)
        assert np.array_equal(h.astype(np.float64).apply(x), h.apply(x))
        assert np.array_equal(h.astype(np.float64).apply(x.real), h.apply(x.real))

    def test_sibling_is_independent_of_later_potential_updates(self, any_hamiltonian):
        h = any_hamiltonian
        x32 = self._block(h).astype(np.complex64)
        h32 = h.astype(np.float32)
        before = h32.apply(x32)
        h.update_potential(h.v_local + 1.0)
        assert np.array_equal(h32.apply(x32), before)
        # ... and the sibling's own updates keep its precision.
        h32.update_potential(h.v_local)
        assert h32.apply(x32).dtype == np.complex64
        assert not np.array_equal(h32.apply(x32), before)


class TestEigensolvers:
    def test_dense_eigenpairs_are_orthonormal(self, si_setup):
        _, _, h = si_setup
        vals, vecs = dense_lowest_eigenpairs(h, 10)
        check_orthonormal(vecs)
        assert np.all(np.diff(vals) >= -1e-10)

    def test_chefsi_matches_dense(self, si_setup):
        _, _, h = si_setup
        n_states = 18
        vals_ref, _ = dense_lowest_eigenpairs(h, n_states)
        solver = ChebyshevFilteredSubspace(h, n_states, degree=12, tol=1e-8,
                                           max_iterations=80, seed=0)
        res = solver.solve()
        assert res.converged
        assert np.allclose(res.eigenvalues, vals_ref, atol=1e-5)

    def test_chefsi_warm_start_converges_faster(self, si_setup):
        _, _, h = si_setup
        n_states = 12
        solver = ChebyshevFilteredSubspace(h, n_states, degree=10, tol=1e-7, seed=0)
        cold = solver.solve()
        warm = solver.solve(v0=cold.orbitals)
        assert warm.converged
        assert warm.iterations <= cold.iterations

    def test_chebyshev_filter_amplifies_wanted_interval(self):
        # Filter a diagonal operator: components below the cut grow relative
        # to components inside [cut, high].
        n = 50
        lam = np.linspace(-1.0, 9.0, n)
        apply_h = lambda v: lam[:, None] * v if v.ndim == 2 else lam * v
        v = np.ones(n)
        y = chebyshev_filter(apply_h, v, degree=8, bound_low=-1.0, bound_cut=1.0, bound_high=9.0)
        wanted = np.abs(y[lam < 1.0])
        unwanted = np.abs(y[lam > 1.5])
        assert wanted.min() > unwanted.max()

    def test_chebyshev_filter_validation(self):
        with pytest.raises(ValueError):
            chebyshev_filter(lambda v: v, np.ones(3), 0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            chebyshev_filter(lambda v: v, np.ones(3), 2, 1.0, 0.0, 2.0)

    def test_dense_validation(self, si_setup):
        _, _, h = si_setup
        with pytest.raises(ValueError):
            dense_lowest_eigenpairs(h, 0)


class TestDensityAndOccupations:
    def test_density_integrates_to_electron_count(self, si_setup):
        _, grid, h = si_setup
        vals, vecs = dense_lowest_eigenpairs(h, 16)
        rho = density_from_orbitals(vecs, grid)
        assert electron_count(rho, grid) == pytest.approx(32.0, rel=1e-10)

    def test_insulator_occupations(self):
        eps = np.array([0.3, -1.0, 0.1, 2.0])
        g = insulator_occupations(eps, n_electrons=4)
        assert np.array_equal(g, [0.0, 1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            insulator_occupations(eps, n_electrons=3)
        with pytest.raises(ValueError):
            insulator_occupations(eps, n_electrons=10)

    def test_fermi_dirac_conserves_charge(self):
        eps = np.linspace(-1.0, 1.0, 20)
        occ, mu = fermi_dirac_occupations(eps, n_electrons=14, smearing=0.05)
        assert 2.0 * occ.sum() == pytest.approx(14.0, abs=1e-8)
        assert eps[0] < mu < eps[-1]

    def test_fermi_dirac_zero_temperature_limit(self):
        eps = np.linspace(-1.0, 1.0, 10)
        occ, _ = fermi_dirac_occupations(eps, n_electrons=6, smearing=1e-4)
        assert np.allclose(occ[:3], 1.0, atol=1e-6)
        assert np.allclose(occ[3:], 0.0, atol=1e-6)

    def test_check_orthonormal_raises(self):
        bad = np.ones((5, 2))
        with pytest.raises(ValueError):
            check_orthonormal(bad)

    def test_density_validation(self, si_setup):
        _, grid, _ = si_setup
        with pytest.raises(ValueError):
            density_from_orbitals(np.zeros(grid.n_points), grid)
        with pytest.raises(ValueError):
            density_from_orbitals(np.zeros((grid.n_points, 2)), grid, occupations=np.array([2.0, 0.0]))
