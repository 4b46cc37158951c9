"""Mixed-precision tolerance contracts for the batched Sternheimer kernel.

A planted ill-conditioned system — near-degenerate shifts ``lambda_j``
straddling an eigenvalue of ``S`` at small ``omega`` — exposes the failure
mode pure float32 cannot escape: the f32 recurrence residual drifts from
the truth and *claims* 1e-9 while the true float64 residual stalls at
~1e-3. The two-pass solve must reach the float64 true-residual gate
anyway — its float64 pass starts by recomputing ``b - A x`` with the exact
operator — and say so in the fallback counter when the complex64 pass left
a column above it.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.core.sternheimer import Chi0Operator
from repro.solvers import (
    BatchedShiftedOperator,
    batched_cocg_ir_solve,
    batched_cocg_solve,
)
from repro.verify import Verifier, use_verifier

pytestmark = [
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning"),
]

TOL = 1e-9


def planted_ill_conditioned(n: int = 64, gap: float = 1e-4,
                            omega: float = 1e-3, seed: int = 11):
    """Near-degenerate shifts straddling an eigenvalue: kappa ~ 1/omega."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = np.concatenate([[1.0, 1.0 + 5e-4], rng.uniform(2.0, 50.0, n - 2)])
    S = (q * spec) @ q.T
    lam = np.array([1.0 - gap, 1.0 + gap / 2])
    shifts = np.repeat(-lam, 2) + 1j * omega
    B = rng.standard_normal((n, 4))
    return S, shifts, B


def true_relative_residuals(op, b, x):
    r = b - op.apply(np.asarray(x, dtype=np.complex128))
    return np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)


class TestPlantedIllConditionedSystem:
    def test_pure_float32_stalls_above_tolerance(self):
        S, shifts, B = planted_ill_conditioned()
        op = BatchedShiftedOperator(S, shifts)
        res32 = batched_cocg_solve(op.single_precision(), B, tol=TOL,
                                   max_iterations=2000)
        # The f32 recurrence believes it converged ...
        assert res32.all_converged
        # ... but the float64 truth is orders of magnitude above tol: the
        # classic silent-stall the IR gate exists to catch.
        assert true_relative_residuals(op, B, res32.solution).max() > 1e3 * TOL

    def test_float32_ir_reaches_the_f64_true_residual_gate(self):
        S, shifts, B = planted_ill_conditioned()
        op = BatchedShiftedOperator(S, shifts)
        res = batched_cocg_ir_solve(op, B, tol=TOL, max_iterations=2000)
        assert res.all_converged
        assert res.dtype == "float32_ir"
        assert res.n_fallback_columns >= 1
        assert true_relative_residuals(op, B, res.solution).max() <= TOL

    def test_exhausted_refinement_budget_fires_the_fallback_counter(self):
        S, shifts, B = planted_ill_conditioned()
        op = BatchedShiftedOperator(S, shifts)
        res = batched_cocg_ir_solve(op, B, tol=TOL, max_iterations=2000)
        # The complex64 pass claims convergence on the planted stall; the
        # float64 gate rejects every column and the float64 recurrence
        # finishes them — counted, and still meeting the same gate.
        assert res.n_fallback_columns == B.shape[1]
        assert res.all_converged
        assert true_relative_residuals(op, B, res.solution).max() <= TOL


class TestSinglePrecisionDemotion:
    """One demotion rule: the base casts itself, complex bases to complex64."""

    @pytest.mark.parametrize("wrap", [np.asarray, scipy.sparse.csr_matrix,
                                      scipy.sparse.csc_matrix],
                             ids=["dense", "csr", "csc"])
    def test_complex_symmetric_base_keeps_its_imaginary_part(self, wrap):
        rng = np.random.default_rng(5)
        A, K = rng.standard_normal((2, 40, 40))
        S = (A + A.T) + 0.3j * (K + K.T)
        shifts = rng.standard_normal(4) + 0.5j
        x = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        op = BatchedShiftedOperator(wrap(S), shifts)
        ref = op.apply(x)
        out = op.single_precision().apply(x.astype(np.complex64))
        assert out.dtype == np.complex64
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6

    def test_bare_callable_base_gets_an_output_cast(self):
        S, shifts, B = planted_ill_conditioned()
        op = BatchedShiftedOperator(lambda v: S @ v, shifts, n=S.shape[0])
        x = B.astype(np.complex64)
        out = op.single_precision().apply(x)
        assert out.dtype == np.complex64
        ref = op.apply(B.astype(complex))
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6


class TestChi0MixedPrecision:
    def test_float32_ir_without_the_batched_kernel_is_rejected(self, toy_dft,
                                                               toy_coulomb):
        with pytest.raises(ValueError, match="requires use_batched"):
            Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                         toy_dft.occupied_energies, toy_coulomb,
                         solve_dtype="float32_ir")

    def test_cheap_verifier_passes_on_the_ir_path(self, toy_dft, toy_coulomb):
        verifier = Verifier(level="cheap", strict=True)
        with use_verifier(verifier):
            op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                              toy_dft.occupied_energies, toy_coulomb,
                              tol=1e-9, use_batched=True,
                              solve_dtype="float32_ir")
            rng = np.random.default_rng(2)
            op.apply_chi0(rng.standard_normal((toy_dft.grid.n_points, 3)),
                          omega=0.7)
        assert verifier.ok
        assert verifier.checks_run > 0
        assert op.stats.n_ir_fallbacks > 0

    def test_solve_summary_records_the_working_dtype(self):
        from repro.solvers.stats import SolveResult, SolveSummary

        results = [
            SolveResult(solution=np.zeros(4), converged=True, iterations=3,
                        residual_norm=1e-10, dtype="float32_ir"),
            SolveResult(solution=np.zeros(4), converged=True, iterations=2,
                        residual_norm=1e-10),
        ]
        summary = SolveSummary.of(results)
        assert summary.dtype_counts == {"float32_ir": 1, "float64": 1}
        merged = SolveSummary.of(results[:1]).merge(SolveSummary.of(results[1:]))
        assert merged.dtype_counts == summary.dtype_counts

    def test_ir_fallback_counter_reaches_the_stats(self, toy_dft, toy_coulomb):
        # At tol=1e-9 the complex64 pass stops at its 1e-5 floor, so the
        # float64 pass must engage; the operator-level stats record it.
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb,
                          tol=1e-9, use_batched=True, solve_dtype="float32_ir")
        rng = np.random.default_rng(3)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        ref = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                           toy_dft.occupied_energies, toy_coulomb,
                           tol=1e-9).apply_chi0(V, omega=0.9)
        out = op.apply_chi0(V, omega=0.9)
        assert op.stats.n_ir_fallbacks >= 1
        # Finished in f64, so the answer is still right.
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-8
