"""Acceptance tests: the full RPA pipeline under injected solver faults.

* a forced mid-sweep breakdown must complete the full pipeline through
  escalation — the default solver's own chain — with ``E_RPA`` matching
  the unperturbed run to quadrature tolerance and at least one
  ``escalation`` span in the trace;
* with a one-stage chain, the same run must degrade gracefully — an
  explicit nonzero skipped-solve error bound instead of a crash.
"""

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import Chi0Operator, compute_rpa_energy
from repro.obs import Tracer, use_tracer
from repro.resilience import (
    EscalationPolicy,
    EscalationStage,
    breakdown_injector,
    default_stages,
)
from repro.solvers import block_cocg_solve

pytestmark = pytest.mark.resilience

# Energies from escalated solves agree to solver tolerance, far inside the
# quadrature discretization error.
ENERGY_RTOL = 1e-6


@pytest.fixture(scope="module")
def config():
    return RPAConfig(n_eig=8, n_quadrature=4, seed=7, dynamic_block_size=False)


@pytest.fixture(scope="module")
def reference_energy(toy_dft, toy_coulomb, config):
    return compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb).energy


def _operator(toy_dft, toy_coulomb, config, **kwargs):
    return Chi0Operator(
        toy_dft.hamiltonian,
        toy_dft.occupied_orbitals,
        toy_dft.occupied_energies,
        toy_coulomb,
        tol=config.tol_sternheimer,
        max_iterations=config.max_cocg_iterations,
        dynamic_block_size=False,
        **kwargs,
    )


def _mid_sweep_breakdowns(every=5):
    """Sabotaged stage 1: every ``every``-th solve breaks down mid-sweep."""
    return breakdown_injector(block_cocg_solve,
                              when=lambda idx: idx % every == 2)


class TestEscalationAcceptance:
    def test_breakdowns_recovered_to_reference_energy(
        self, toy_dft, toy_coulomb, config, reference_energy
    ):
        injected = _mid_sweep_breakdowns()
        policy = EscalationPolicy(
            (EscalationStage("block_cocg", injected),) + default_stages()[1:]
        )
        op = _operator(toy_dft, toy_coulomb, config, solver=policy)
        tracer = Tracer()
        with use_tracer(tracer):
            result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb,
                                        chi0_operator=op)
        assert injected.state["injected"] > 0, "fault never fired"
        # Pipeline completed, energy matches the unperturbed run.
        assert result.energy == pytest.approx(reference_energy, rel=ENERGY_RTOL)
        assert result.converged
        # No degradation: every breakdown was recovered by a later stage.
        assert result.degraded_error_bound == 0.0
        assert result.skipped_solve_error_bound == 0.0
        assert op.stats.n_escalations >= injected.state["injected"]
        assert op.stats.n_unconverged == 0
        # The trace shows the recovery.
        spans = [e for e in tracer.events
                 if e.get("type") == "span" and e["name"] == "escalation"]
        assert len(spans) >= 1
        assert tracer.counters.get("resilience_escalations", 0) >= 1
        assert op.stats.stage_counts.get("block_cocg_bf", 0) >= 1

    def test_clean_run_with_resilience_config_matches_reference(
        self, toy_dft, toy_coulomb, config
    ):
        # The default config solves through the escalation chain; on a clean
        # sweep that is the plain block COCG run, bit for bit.
        plain = compute_rpa_energy(
            toy_dft, config, coulomb=toy_coulomb,
            chi0_operator=_operator(toy_dft, toy_coulomb, config,
                                    solver=block_cocg_solve))
        result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb)
        assert result.energy == plain.energy
        assert result.stats.n_matvec == plain.stats.n_matvec
        assert result.stats.n_escalations == 0

    def test_default_solver_recovers_injected_breakdowns(
        self, toy_dft, toy_coulomb, config, reference_energy, monkeypatch,
        default_chain
    ):
        # Stage 1 of the default chain sabotaged: a default sweep still ends
        # converged on the unperturbed energy, with nothing degraded.
        injected = _mid_sweep_breakdowns()
        monkeypatch.setattr(default_chain, "stages",
                            (EscalationStage("block_cocg", injected),)
                            + default_chain.stages[1:])
        result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb)
        assert injected.state["injected"] > 0, "fault never fired"
        assert result.converged
        assert result.energy == pytest.approx(reference_energy, rel=ENERGY_RTOL)
        assert result.stats.n_escalations >= injected.state["injected"]
        assert result.degraded_error_bound == 0.0


class TestGracefulDegradation:
    def test_single_stage_chain_degrades_with_error_bound(
        self, toy_dft, toy_coulomb, config, reference_energy
    ):
        # Nothing to escalate to: the chain is just the (sabotaged) stage 1.
        injected = _mid_sweep_breakdowns()
        policy = EscalationPolicy((EscalationStage("block_cocg", injected),))
        op = _operator(toy_dft, toy_coulomb, config, solver=policy)
        tracer = Tracer()
        with use_tracer(tracer):
            result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb,
                                        chi0_operator=op)
        assert injected.state["injected"] > 0
        # No crash; the result carries an explicit nonzero uncertainty.
        assert result.degraded_error_bound > 0.0
        assert result.skipped_solve_error_bound > 0.0
        assert np.isfinite(result.energy)
        assert op.stats.n_degraded_solves > 0
        assert any(p.solve_error_bound > 0.0 for p in result.points)
        assert any(e["name"] == "solve_degraded" for e in tracer.events)
        assert "WARNING" in result.summary()
        # The fault only perturbs a minority of solves; the energy stays in
        # the reference's neighbourhood even though some solves were skipped.
        assert result.energy == pytest.approx(reference_energy, rel=0.5)

    def test_clean_summary_has_no_warning(self, toy_dft, toy_coulomb, config):
        result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb)
        assert "WARNING" not in result.summary()
        assert result.skipped_solve_error_bound == 0.0


class TestBudgetedPipeline:
    def test_starved_budget_degrades_instead_of_crashing(
        self, toy_dft, toy_coulomb, config
    ):
        # A budget too small for any stage to run: every solve degrades, the
        # pipeline still completes with a (large) explicit bound.
        policy = EscalationPolicy(default_stages(), matvec_budget=1)
        op = _operator(toy_dft, toy_coulomb, config, solver=policy)
        result = compute_rpa_energy(toy_dft, config, coulomb=toy_coulomb,
                                    chi0_operator=op)
        assert np.isfinite(result.energy)
        assert result.degraded_error_bound > 0.0
        assert op.stats.n_degraded_solves == op.stats.n_block_solves
