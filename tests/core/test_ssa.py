"""The frequency-shared eigenbasis (SSA): equivalence, refresh, guard.

Covers the ``repro.core.ssa`` contracts on small dense-verifiable
operators:

* frozen-basis Rayleigh-Ritz reproduces full filtering (and the dense
  eigensolve) when the spectrum barely rotates across omega — the SSA's
  validity regime — via a hypothesis sweep over random operator families;
* the cheap-refresh trigger fires on a planted strongly omega-dependent
  spectrum and realigns the basis;
* the exterior-eigenvalue guard rejects a frozen basis that converged onto
  the wrong invariant subspace (an emergent channel with zero overlap),
  and its probe vector points at the missed channel;
* the seeded ``_filter_bounds`` chain is idempotent on a repeated
  spectrum (regression for the warm bounds seeding);
* the SSA composes with recycling, the batched kernel and float32+IR on
  the real pipeline, and stays off-path bit-exactly when disabled.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ssa import (
    GUARD_REL_MARGIN,
    SUBSPACE_MODES,
    exterior_eigenvalue_estimate,
    frozen_subspace_point,
    ssa_error_gauge,
)
from repro.core.subspace import _filter_bounds, filtered_subspace_iteration


def _nsd_operator(n: int, seed: int, lam: np.ndarray, angle: float = 0.0,
                  plane: tuple[int, int] = (0, 1)):
    """Dense NSD operator with eigenvalues ``lam`` and a seeded eigenbasis,
    optionally rotated by ``angle`` in the eigenvector 2-plane ``plane``
    (models the slow omega-drift of the dielectric eigenvectors; a plane
    straddling the tracked window's edge makes the drift visible to the
    frozen basis)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if angle:
        i, j = plane
        g = np.eye(n)
        c, s = np.cos(angle), np.sin(angle)
        g[i, i] = g[j, j] = c
        g[i, j], g[j, i] = -s, s
        q = q @ g
    return (q * lam) @ q.T, q


class TestFilterBoundsSeeding:
    def test_seeded_idempotent_on_repeated_spectrum(self):
        # Regression: feeding a point's own bounds back as the seed must
        # reproduce them exactly when the spectrum has not moved — the
        # blend is min/max against the fresh bounds, then re-clamped.
        for vals in (
            np.array([-5.0, -1.0, -0.1]),
            np.array([-3.0, -3.0, -3.0]),
            np.array([-1e-6, -1e-8, -1e-12]),
            np.array([-2.0, -1.0, 1e-15]),
        ):
            first = _filter_bounds(np.sort(vals))
            again = _filter_bounds(np.sort(vals), seed=first)
            assert again == first

    def test_seed_widens_monotonically(self):
        vals = np.array([-4.0, -2.0, -0.5])
        seed = _filter_bounds(np.array([-6.0, -2.0, -0.4]))
        low, cut, high = _filter_bounds(vals, seed=seed)
        fresh_low, fresh_cut, fresh_high = _filter_bounds(vals)
        assert low <= fresh_low and low <= seed[0]
        assert high >= fresh_high and high >= seed[2]
        assert low < cut < high

    def test_unseeded_unchanged(self):
        vals = np.array([-4.0, -2.0, -0.5])
        assert _filter_bounds(vals) == _filter_bounds(vals, seed=None)


class TestExteriorEigenvalueEstimate:
    def test_finds_planted_exterior_channel(self):
        n, k = 60, 5
        lam = -np.geomspace(3.0, 0.3, n)
        lam[-1] = -8.0  # the deep channel, outside the tracked window
        a, q = _nsd_operator(n, seed=3, lam=lam)
        V = q[:, :k]  # exactly invariant, misses the channel at column -1
        probe = exterior_eigenvalue_estimate(lambda B: a @ B, V, n_steps=12)
        assert probe is not None
        est, vec = probe
        assert est == pytest.approx(-8.0, rel=1e-3)
        # The probe vector is normalized, orthogonal to span(V), and points
        # at the missed eigenvector — that is what the fallback injects.
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
        assert np.abs(V.T @ vec).max() < 1e-8
        assert abs(q[:, -1] @ vec) > 0.99

    def test_estimate_is_above_true_minimum(self):
        # Lanczos Ritz values are variational: the estimate never
        # undershoots the true exterior eigenvalue.
        n, k = 40, 4
        lam = -np.geomspace(5.0, 0.1, n)
        a, q = _nsd_operator(n, seed=11, lam=lam)
        V = q[:, :k]
        probe = exterior_eigenvalue_estimate(lambda B: a @ B, V, n_steps=6)
        assert probe is not None
        assert probe[0] >= lam.min() - 1e-10

    def test_degenerate_probe_returns_none(self):
        # A full basis leaves nothing outside the span to probe.
        n = 12
        a, q = _nsd_operator(n, seed=5, lam=-np.linspace(2.0, 0.1, n))
        assert exterior_eigenvalue_estimate(lambda B: a @ B, q) is None
        assert exterior_eigenvalue_estimate(lambda B: a @ B, q[:, :4],
                                            n_steps=0) is None


class TestFrozenSubspacePoint:
    def test_invariant_basis_accepted_frozen(self):
        n, k = 50, 6
        lam = -np.geomspace(4.0, 0.5, n)
        a, q = _nsd_operator(n, seed=7, lam=lam)
        res = frozen_subspace_point(lambda B: a @ B, q[:, :k],
                                    refresh_tol=1e-8)
        assert res.subspace_mode == "frozen"
        assert res.subspace_mode in SUBSPACE_MODES
        assert res.converged and not res.guard_triggered
        assert res.iterations == 0  # no refresh passes
        assert np.allclose(np.sort(res.eigenvalues), np.sort(lam[:k]),
                           rtol=1e-9, atol=1e-11)
        assert res.ssa_error_bound < 1e-8

    def test_refresh_fires_on_rotated_spectrum_and_realigns(self):
        # Plant a strong omega-rotation of the eigenbasis: the frozen basis
        # violates Eq. 7, the refresh pass must fire and recover the true
        # lowest set.
        n, k = 50, 5
        lam = -np.geomspace(4.0, 0.5, n)
        a_ref, q_ref = _nsd_operator(n, seed=9, lam=lam)
        a_rot, _ = _nsd_operator(n, seed=9, lam=lam, angle=0.5,
                                 plane=(k - 1, k))
        res = frozen_subspace_point(lambda B: a_rot @ B, q_ref[:, :k],
                                    refresh_tol=1e-6, degree=3,
                                    max_refresh_passes=25)
        assert res.subspace_mode == "refreshed"
        assert res.iterations >= 1
        assert res.converged
        assert np.allclose(np.sort(res.eigenvalues), np.sort(lam[:k]),
                           rtol=1e-6, atol=1e-8)

    def test_budget_exhaustion_reports_not_converged(self):
        n, k = 50, 5
        lam = -np.geomspace(4.0, 0.5, n)
        a_ref, q_ref = _nsd_operator(n, seed=9, lam=lam)
        a_rot, _ = _nsd_operator(n, seed=9, lam=lam, angle=0.9,
                                 plane=(k - 1, k))
        res = frozen_subspace_point(lambda B: a_rot @ B, q_ref[:, :k],
                                    refresh_tol=1e-12, degree=2,
                                    max_refresh_passes=1, guard_probes=0)
        assert not res.converged  # drivers must fall back to full filtering

    def test_guard_rejects_missed_channel(self):
        # The wrong-invariant-subspace failure Eq. 7 cannot see: the frozen
        # basis is *exactly* invariant (residual 0) but a much deeper
        # channel lives outside its span. Only the exterior-eigenvalue
        # probe catches it, and its vector recovers the channel.
        n, k = 60, 5
        lam = -np.geomspace(3.0, 0.3, n)
        lam[-1] = -8.0
        a, q = _nsd_operator(n, seed=13, lam=lam)
        res = frozen_subspace_point(lambda B: a @ B, q[:, :k],
                                    refresh_tol=1e-8)
        assert res.guard_triggered
        assert res.guard_vector is not None
        assert abs(q[:, -1] @ res.guard_vector) > 0.99

    def test_sweep_policy_redoes_a_rejected_point_with_the_guard_vector(self):
        # The same planted miss through the sweep's per-point policy: the
        # guard rejection counts one fallback, the probe vector is injected
        # (a column swap, not a rotation, so the solve cache is dropped),
        # and the filtered redo recovers the true lowest set.
        from repro.config import RPAConfig
        from repro.core.rpa_energy import _subspace_point
        from repro.core.scheduler import SerialScheduler
        from repro.core.subspace import SubspaceResult
        from repro.obs.tracer import Tracer, use_tracer
        from repro.solvers.recycle import SolveRecycler

        n, k = 60, 5
        lam = -np.geomspace(3.0, 0.3, n)
        lam[-1] = -8.0
        a, q = _nsd_operator(n, seed=13, lam=lam)
        config = RPAConfig(n_eig=k, use_ssa=True, tol_subspace=1e-9,
                           max_filter_iterations=30)
        recycler = SolveRecycler(width=k)
        assert recycler.store(0, 1.0, np.ones((n, k)))
        prev = SubspaceResult(lam[:k], q[:, :k], 1, 0.0, converged=True)
        tracer = Tracer()
        with use_tracer(tracer):
            sub = _subspace_point(lambda B: a @ B, q[:, :k], 2, config,
                                  SerialScheduler(), recycler, prev)
        assert tracer.counters["ssa_guard_rejections"] == 1
        assert tracer.counters["ssa_fallback_points"] == 1
        assert sub.subspace_mode == "filtered" and sub.converged
        assert np.allclose(sub.eigenvalues, np.sort(lam)[:k],
                           rtol=1e-7, atol=1e-9)
        assert recycler.n_cached_orbitals == 0

    def test_guard_quiet_within_margin(self):
        # A benign near-degenerate edge swap (exterior eigenvalue within
        # the relative margin of the kept edge) must not trigger.
        n, k = 60, 5
        lam = -np.geomspace(3.0, 0.3, n)
        edge = lam[k - 1]
        lam[-1] = edge - 0.2 * GUARD_REL_MARGIN * abs(lam[0])
        a, q = _nsd_operator(n, seed=17, lam=lam)
        res = frozen_subspace_point(lambda B: a @ B, q[:, :k],
                                    refresh_tol=1e-8)
        assert not res.guard_triggered


class TestSSAErrorGauge:
    def test_zero_residual_zero_bound(self):
        vals = np.array([-2.0, -0.5])
        assert ssa_error_gauge(vals, np.zeros(2)) == 0.0

    def test_matches_sensitivity_formula(self):
        vals = np.array([-2.0, -0.5])
        r = np.array([1e-3, 2e-3])
        expected = 1e-3 * (2.0 / 3.0) + 2e-3 * (0.5 / 1.5)
        assert ssa_error_gauge(vals, r) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       k=st.integers(3, 6),
       drift=st.floats(0.0, 0.02))
def test_frozen_point_matches_full_filtering(seed, k, drift):
    """SSA validity regime: with a slowly-rotating eigenbasis, the frozen
    point and full filtering agree on the Eq. 1 energy term to within the
    second-order refresh tolerance."""
    n = 40
    rng = np.random.default_rng(seed)
    lam = -np.sort(-np.concatenate([
        -rng.uniform(1.0, 4.0, size=k),          # tracked window
        -rng.uniform(0.01, 0.5, size=n - k),     # the tail, gapped away
    ]))[::-1]
    lam = np.sort(lam)
    a_ref, q_ref = _nsd_operator(n, seed=seed, lam=lam)
    a_pt, _ = _nsd_operator(n, seed=seed, lam=1.1 * lam, angle=drift,
                            plane=(k - 1, k))

    frozen = frozen_subspace_point(lambda B: a_pt @ B, q_ref[:, :k],
                                   refresh_tol=1e-7, degree=3,
                                   max_refresh_passes=20)
    full = filtered_subspace_iteration(lambda B: a_pt @ B, q_ref[:, :k],
                                       tol=1e-9, max_iterations=60)
    assert frozen.converged and full.converged
    assert not frozen.guard_triggered

    def energy(mu):
        return float(np.sum(np.log(1.0 - mu) + mu))

    assert energy(np.asarray(frozen.eigenvalues)) == pytest.approx(
        energy(np.asarray(full.eigenvalues)), rel=1e-6, abs=1e-9)


# -- pipeline composition (real Sternheimer operator) --------------------------


def _pipeline_config(**extra):
    from repro.config import RPAConfig

    # n_eig = 12 keeps the tracked window's edge at a wide spectral gap on
    # the toy spectrum at every quadrature point (same calibration as the
    # verify harness): baseline and SSA then converge to the *same*
    # invariant subspace, so the energies are directly comparable. Smaller
    # windows end inside a near-degenerate cluster, where baseline and SSA
    # may legitimately keep different edge sets.
    # Refresh tolerance 1e-5 (looser than tol_subspace): on a 3-point sweep
    # the reference filtering dominates, and refreshing all the way down to
    # tol_subspace would cost as many applies as the baseline's warm-started
    # filter — the matvec win only materializes with a cheaper refresh.
    return RPAConfig(n_eig=12, n_quadrature=3, tol_sternheimer=1e-8,
                     tol_subspace=1e-6, ssa_refresh_tol=1e-5,
                     filter_degree=3, max_filter_iterations=60,
                     max_cocg_iterations=1500, seed=3, **extra)


@pytest.fixture(scope="module")
def toy_baseline(toy_dft, toy_coulomb):
    from repro.core import compute_rpa_energy

    return compute_rpa_energy(toy_dft, _pipeline_config(),
                              coulomb=toy_coulomb)


def _agrees(ssa_result, base_result):
    return (abs(ssa_result.energy - base_result.energy)
            < 5e-7 * abs(base_result.energy) + 1e-8)


class TestSSAPipeline:
    def _energy(self, dft, coulomb, **extra):
        from repro.core import compute_rpa_energy

        return compute_rpa_energy(dft, _pipeline_config(**extra),
                                  coulomb=coulomb)

    def test_ssa_matches_baseline_energy(self, toy_dft, toy_coulomb,
                                         toy_baseline):
        ssa = self._energy(toy_dft, toy_coulomb, use_ssa=True)
        assert _agrees(ssa, toy_baseline)
        modes = [p.subspace_mode for p in ssa.points]
        assert modes[0] == "filtered"
        assert all(m in ("frozen", "refreshed", "filtered") for m in modes[1:])
        assert any(m in ("frozen", "refreshed") for m in modes[1:])
        assert ssa.stats.n_matvec < toy_baseline.stats.n_matvec

    def test_ssa_off_never_reports_ssa_modes(self, toy_baseline):
        assert all(p.subspace_mode in ("filtered", "warm")
                   for p in toy_baseline.points)
        assert all(p.ssa_error_bound == 0.0 for p in toy_baseline.points)

    @pytest.mark.parametrize("extra", [
        {"use_recycling": True, "batched_sternheimer": True},
        {"use_recycling": True, "batched_sternheimer": True,
         "solve_dtype": "float32_ir"},
        {"use_recycling": False, "batched_sternheimer": True},
    ])
    def test_ssa_composes_with_kernel_features(self, toy_dft, toy_coulomb,
                                               toy_baseline, extra):
        ssa = self._energy(toy_dft, toy_coulomb, use_ssa=True, **extra)
        assert _agrees(ssa, toy_baseline)

    def test_ssa_requires_warm_start(self):
        from repro.config import RPAConfig

        with pytest.raises(ValueError, match="warm"):
            RPAConfig(n_eig=4, use_ssa=True, use_warm_start=False)
