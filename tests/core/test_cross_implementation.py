"""Cross-implementation regression harness: Sternheimer vs quartic baseline.

The repository carries two independent routes to ``chi0(i omega) V``: the
iterative Sternheimer two-step product (Eqs. 4-5, what production runs use)
and the dense Adler-Wiser assembly from full eigenpairs (Eq. 2, the quartic
validation anchor). This module pins them against each other at *every*
frequency of the production quadrature — exactly the systems an RPA energy
run solves — through the default solver (the escalation chain) and through
plain block COCG, so a failure-path regression that bends the numerics
anywhere on the frequency grid cannot land silently.
"""

import numpy as np
import pytest

from repro.core import Chi0Operator, build_chi0_dense
from repro.core.quadrature import transformed_gauss_legendre
from repro.solvers import block_cocg_solve

pytestmark = pytest.mark.resilience

N_QUAD = 8
# Tolerance pinned to the observed route-vs-route error (1.2e-7 at the
# hardest, smallest-omega point with solver tol 1e-10); regressions show up
# orders above this.
PINNED_RTOL = 5e-7


def _operator(toy_dft, toy_coulomb, **kwargs):
    defaults = dict(tol=1e-10, max_iterations=3000, dynamic_block_size=False)
    defaults.update(kwargs)
    return Chi0Operator(
        toy_dft.hamiltonian,
        toy_dft.occupied_orbitals,
        toy_dft.occupied_energies,
        toy_coulomb,
        **defaults,
    )


@pytest.fixture(scope="module")
def quad_frequencies():
    quad = transformed_gauss_legendre(N_QUAD)
    return [float(w) for w in quad.points]


@pytest.fixture(scope="module")
def dense_chi0_per_frequency(toy_dft, toy_dense_eigen, quad_frequencies):
    vals, vecs = toy_dense_eigen
    return {
        omega: build_chi0_dense(vals, vecs, toy_dft.n_occupied, omega)
        for omega in quad_frequencies
    }


class TestSternheimerVsDenseOnProductionQuadrature:
    def test_all_quadrature_frequencies_match(
        self, toy_dft, toy_coulomb, quad_frequencies, dense_chi0_per_frequency
    ):
        op = _operator(toy_dft, toy_coulomb)
        rng = np.random.default_rng(42)
        v = rng.standard_normal(toy_dft.grid.n_points)
        for omega in quad_frequencies:
            ours = op.apply_chi0(v, omega)
            ref = dense_chi0_per_frequency[omega] @ v
            scale = max(np.abs(ref).max(), 1e-10)
            assert np.abs(ours - ref).max() < PINNED_RTOL * scale, (
                f"Sternheimer route diverged from Adler-Wiser at omega={omega:.4f}"
            )
        assert op.stats.n_unconverged == 0

    def test_escalation_policy_preserves_the_numbers(
        self, toy_dft, toy_coulomb, quad_frequencies, dense_chi0_per_frequency
    ):
        # The default solver is the escalation chain, a pure superset of
        # plain block COCG: on healthy systems it returns the same solves.
        op = _operator(toy_dft, toy_coulomb)
        plain = _operator(toy_dft, toy_coulomb, solver=block_cocg_solve)
        rng = np.random.default_rng(43)
        v = rng.standard_normal(toy_dft.grid.n_points)
        for omega in quad_frequencies:
            resilient = op.apply_chi0(v, omega)
            baseline = plain.apply_chi0(v, omega)
            ref = dense_chi0_per_frequency[omega] @ v
            scale = max(np.abs(ref).max(), 1e-10)
            assert np.abs(resilient - ref).max() < PINNED_RTOL * scale
            # Healthy systems converge at stage 1: identical solves.
            np.testing.assert_array_equal(resilient, baseline)
        assert op.stats.n_escalations == 0
        assert op.stats.n_degraded_solves == 0
        assert op.stats.n_matvec == plain.stats.n_matvec

    def test_block_apply_matches_dense_on_extreme_frequencies(
        self, toy_dft, toy_coulomb, quad_frequencies, dense_chi0_per_frequency
    ):
        # The smallest omega (hardest solves) and the largest (fastest decay)
        # bracket the quadrature; block application must match columnwise
        # dense products at both ends.
        op = _operator(toy_dft, toy_coulomb)
        rng = np.random.default_rng(44)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        for omega in (min(quad_frequencies), max(quad_frequencies)):
            ours = op.apply_chi0(V, omega)
            ref = dense_chi0_per_frequency[omega] @ V
            scale = max(np.abs(ref).max(), 1e-10)
            assert np.abs(ours - ref).max() < PINNED_RTOL * scale
