"""CheFSI's precision rule and its learning degree rule.

A filter pass runs in float32 while the mean Ritz residual is above the floor
``_SINGLE_FLOOR * eps32 * upper`` and no float32 pass of the same solve has
stalled; QR, Rayleigh-Ritz and the residual stay float64. After each pass the
degree rule takes the residual that pass actually removed into account.
"""

import numpy as np
import pytest

from repro.dft import ChebyshevFilteredSubspace, eigensolvers, run_scf, silicon_crystal
from repro.dft.hamiltonian import Hamiltonian
from tests.conftest import bit_pin_operand
from tests.dft.test_inexact_chefsi_scf import _scf

EPS32 = float(np.finfo(np.float32).eps)


def _floor(upper):
    return eigensolvers._SINGLE_FLOOR * EPS32 * upper


@pytest.fixture(scope="module")
def dimer_h():
    """The 12^3 Dirichlet dimer's self-consistent Hamiltonian (stencil path)."""
    return _scf().hamiltonian


@pytest.fixture
def apply_dtypes(monkeypatch):
    """The dtype of every ``Hamiltonian.apply`` operand from here on."""
    seen = []
    apply = Hamiltonian.apply

    def recording(self, v):
        seen.append(v.dtype)
        return apply(self, v)

    monkeypatch.setattr(Hamiltonian, "apply", recording)
    return seen


def _recomputed_residual(h, res):
    """The mean relative Ritz residual from a fresh float64 ``H X``."""
    X, vals = res.orbitals, res.eigenvalues
    norms = np.linalg.norm(h.apply(X) - X * vals, axis=0)
    return float(np.mean(norms / np.maximum(np.abs(vals), 1.0)))


@pytest.fixture(scope="module")
def scf_passes():
    """Every filter pass of the 12^3 dimer's CheFSI SCF, grouped by solve:
    the residual before and after it, its degree and bound, and the dtype of
    every ``Hamiltonian.apply`` made inside it."""
    solves, inside = [], []
    apply, filt = Hamiltonian.apply, eigensolvers.chebyshev_filter
    residual, solve = eigensolvers._mean_residual, ChebyshevFilteredSubspace.solve

    def recording_apply(self, v):
        inside.append(v.dtype)
        return apply(self, v)

    def recording_filter(apply_h, v, degree, low, cut, upper):
        del inside[:]
        out = filt(apply_h, v, degree, low, cut, upper)
        solves[-1]["passes"].append(dict(r0=solves[-1]["residuals"][-1], degree=degree,
                                         upper=upper, dtypes=list(inside)))
        return out

    def recording_residual(*args):
        r = residual(*args)
        solves[-1]["residuals"].append(r)
        return r

    def recording_solve(self, v0=None):
        solves.append(dict(passes=[], residuals=[]))
        return solve(self, v0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Hamiltonian, "apply", recording_apply)
        mp.setattr(eigensolvers, "chebyshev_filter", recording_filter)
        mp.setattr(eigensolvers, "_mean_residual", recording_residual)
        mp.setattr(ChebyshevFilteredSubspace, "solve", recording_solve)
        dft = _scf()
    assert dft.converged
    for s in solves:  # each pass's Rayleigh-Ritz gives the residual after it
        for p, r1 in zip(s["passes"], s["residuals"][1:]):
            p["r1"] = r1
    return solves


class TestPrecisionRule:
    def test_float32_applies_exactly_above_the_floor(self, scf_passes):
        kinds = {"single": 0, "below": 0}
        for s in scf_passes:
            stalled = False
            for p in s["passes"]:
                dtypes = set(p["dtypes"])
                if p["r0"] > _floor(p["upper"]) and not stalled:
                    # Every step of the recurrence, not only the first: an
                    # np.float64 bound would promote the block to float64.
                    assert dtypes == {np.dtype(np.float32)}
                    assert len(p["dtypes"]) == p["degree"]
                    kinds["single"] += 1
                    stalled = p["r1"] > eigensolvers._SINGLE_STALL * p["r0"]
                else:
                    assert dtypes == {np.dtype(np.float64)}
                    kinds["below"] += p["r0"] <= _floor(p["upper"])
                    stalled = True
        assert kinds["single"] > 0 and kinds["below"] > 0

    def test_result_is_float64_and_meets_tol_from_scratch(self, dimer_h):
        tol = 1e-8
        res = ChebyshevFilteredSubspace(dimer_h, 5, tol=tol, seed=0).solve()
        assert res.converged and res.single_passes > 0
        assert res.single_passes < res.iterations
        for arr in (res.eigenvalues, res.orbitals, res.subspace):
            assert arr.dtype == np.float64
        assert _recomputed_residual(dimer_h, res) <= tol
        gram = res.subspace.T @ res.subspace
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_warm_start_below_the_floor_runs_no_float32_pass(self, dimer_h, apply_dtypes):
        cold = ChebyshevFilteredSubspace(dimer_h, 5, tol=1e-8, seed=0).solve()
        assert cold.residual < _floor(cold.spectral_bound)
        del apply_dtypes[:]
        warm = ChebyshevFilteredSubspace(dimer_h, 5, tol=1e-10, seed=0,
                                         spectral_bound=cold.spectral_bound
                                         ).solve(v0=cold.subspace)
        assert warm.converged and warm.iterations > 0
        assert warm.single_passes == 0
        assert set(apply_dtypes) == {np.dtype(np.float64)}

    def test_a_stalled_float32_pass_ends_float32(self, dimer_h, monkeypatch):
        loose = ChebyshevFilteredSubspace(dimer_h, 5, tol=1e-3, seed=0).solve()
        assert loose.residual > _floor(loose.spectral_bound)
        astype = Hamiltonian.astype
        rng = np.random.default_rng(0)

        class Noisy:
            """A float32 sibling whose apply is off by 1e-3 relative noise."""

            def __init__(self, h):
                self.h = h

            def apply(self, v):
                out = self.h.apply(v)
                return out * (1.0 + 1e-3 * rng.standard_normal(out.shape, dtype=np.float32))

        monkeypatch.setattr(Hamiltonian, "astype", lambda self, dtype: Noisy(astype(self, dtype)))
        tol = 1e-8
        res = ChebyshevFilteredSubspace(dimer_h, 5, tol=tol, seed=0,
                                        spectral_bound=loose.spectral_bound
                                        ).solve(v0=loose.subspace)
        assert res.converged and res.single_passes == 1
        assert _recomputed_residual(dimer_h, res) <= tol


class TestPassDegree:
    # (lam_k, cut, upper): a wanted edge close to the cut, and one far below it.
    GEOMETRIES = [(1.0, 2.0, 40.0), (-3.0, 0.5, 25.0)]

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("share", [0.0, 0.1, 0.6, -0.5])
    def test_underperforming_pass_raises_the_degree_at_most_twofold(self, dimer_h,
                                                                    geometry, share):
        """``share`` of the predicted per-degree damping was achieved (below
        zero: the residual grew)."""
        solver = ChebyshevFilteredSubspace(dimer_h, 5, degree=1000)
        lam_k, cut, upper = geometry
        x = abs(lam_k - 0.5 * (upper + cut)) / (0.5 * (upper - cut))
        d, r0 = 6, 1e-2
        r1 = r0 * np.exp(-share * np.arccosh(x) * d)
        base = solver._pass_degree(lam_k, cut, upper, 1e-3, 1e-7)
        learned = solver._pass_degree(lam_k, cut, upper, 1e-3, 1e-7, (d, r0, r1))
        assert base < learned <= 2 * base

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_a_pass_that_met_its_prediction_changes_nothing(self, dimer_h, geometry):
        solver = ChebyshevFilteredSubspace(dimer_h, 5, degree=1000)
        lam_k, cut, upper = geometry
        base = solver._pass_degree(lam_k, cut, upper, 1e-3, 1e-7)
        last = (6, 1e-2, 1e-9)  # removed far more than predicted
        assert solver._pass_degree(lam_k, cut, upper, 1e-3, 1e-7, last) == base

    def test_the_cap_still_holds(self, dimer_h):
        solver = ChebyshevFilteredSubspace(dimer_h, 5, degree=10)
        assert solver._pass_degree(1.0, 2.0, 40.0, 1e-3, 1e-7, (6, 1e-2, 1e-2)) == 10


def test_float64_filter_is_the_reference_recurrence_bitwise(dimer_h):
    """Algorithm 5 filters through the same function: a float64 block with
    np.float64 bounds gets the three-term recurrence's bytes, unchanged."""
    v = bit_pin_operand(dimer_h.n_points, np.float64, 9, "contiguous", seed=2)
    low, cut, upper = np.float64(-0.7), np.float64(1.3), np.float64(21.5)
    degree = 7
    out = eigensolvers.chebyshev_filter(dimer_h.apply, v, degree, low, cut, upper)

    e = 0.5 * (upper - cut)
    c = 0.5 * (upper + cut)
    sigma = e / (low - c)
    sigma1 = sigma
    x, y = v, (dimer_h.apply(v) - c * v) * (sigma1 / e)
    for _ in range(2, degree + 1):
        sigma2 = 1.0 / (2.0 / sigma1 - sigma)
        x, y = y, 2.0 * (dimer_h.apply(y) - c * y) * (sigma2 / e) - (sigma * sigma2) * x
        sigma = sigma2
    assert out.dtype == np.float64
    assert out.tobytes() == y.tobytes()


#: The CLI's ``si8`` SCF before the learning degree rule: 79 filter passes and
#: 11 652 H-apply columns (a single-vector apply counts as one column).
SI8_CLI_PASSES, SI8_CLI_COLUMNS = 79, 11_652
#: That SCF's total energy from the dense eigensolver, and from CheFSI before.
SI8_CLI_DENSE, SI8_CLI_BEFORE = 3.611813888, 3.6118156581


@pytest.mark.slow
def test_cli_si8_scf_takes_fewer_passes_and_columns(monkeypatch):
    columns = []
    apply = Hamiltonian.apply

    def counted(self, v):
        columns.append(1 if v.ndim == 1 else v.shape[1])
        return apply(self, v)

    monkeypatch.setattr(Hamiltonian, "apply", counted)
    crystal = silicon_crystal(1, perturbation=0.02, seed=7)
    dft = run_scf(crystal, crystal.make_grid(10.26 / 15), radius=4, tol=1e-6,
                  max_iterations=100)
    assert dft.converged
    assert sum(dft.history.eigensolver_passes) <= 55 < SI8_CLI_PASSES
    assert sum(columns) < SI8_CLI_COLUMNS
    assert sum(dft.history.eigensolver_single_passes) > 0
    energy = dft.energies["total_electronic"]
    assert abs(energy - SI8_CLI_DENSE) <= abs(SI8_CLI_BEFORE - SI8_CLI_DENSE)
