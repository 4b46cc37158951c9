"""Unit tests for the escalation policy (stages, budgets, accounting)."""

import numpy as np
import pytest

from repro.obs import Tracer, use_tracer
from repro.resilience import (
    EscalatedSolveResult,
    EscalationPolicy,
    EscalationStage,
    breakdown_injector,
    default_stages,
    resilient_solve,
)
from repro.solvers import SolveSummary, block_cocg_solve
from tests.solvers.conftest import make_definite_sternheimer

pytestmark = pytest.mark.resilience


def _system(n=40, seed=0, omega=0.5, s=3):
    a = make_definite_sternheimer(n, seed=seed, omega=omega)
    B = np.random.default_rng(seed + 1).standard_normal((n, s)) + 0j
    return a, B


def _sabotaged_chain(when=lambda idx: True):
    """Default chain with stage 1 replaced by an injected-breakdown COCG."""
    bad = EscalationStage("block_cocg",
                          breakdown_injector(block_cocg_solve, when=when))
    return (bad,) + default_stages()[1:]


class TestCleanPath:
    def test_stage_one_suffices_on_healthy_systems(self):
        # A converged stage 1 comes back as the plain solver's own result.
        a, B = _system()
        res = EscalationPolicy(default_stages())(a, B, tol=1e-10,
                                                 max_iterations=500)
        plain = block_cocg_solve(a, B, tol=1e-10, max_iterations=500)
        assert res.converged
        assert not isinstance(res, EscalatedSolveResult)
        np.testing.assert_array_equal(res.solution, plain.solution)
        assert (res.iterations, res.n_matvec) == (plain.iterations, plain.n_matvec)
        true_res = np.linalg.norm(B - a @ res.solution) / np.linalg.norm(B)
        assert true_res <= 1e-8

    def test_converged_stage_one_is_one_call_on_the_raw_operator(self):
        a, B = _system()
        seen = []

        def spy(op, b, **kwargs):
            seen.append(op)
            return block_cocg_solve(op, b, **kwargs)

        policy = EscalationPolicy((EscalationStage("block_cocg", spy),)
                                  + default_stages()[1:])
        assert policy(a, B, tol=1e-10, max_iterations=500).converged
        assert len(seen) == 1 and seen[0] is a

    def test_zero_rhs_short_circuits(self):
        a, _ = _system()
        res = EscalationPolicy(default_stages()[:1])(
            a, np.zeros((40, 2), dtype=complex))
        assert res.converged and res.iterations == 0
        assert np.all(res.solution == 0)

    def test_single_vector_rhs_round_trips(self):
        a, B = _system(s=1)
        res = EscalationPolicy(default_stages()[::2])(a, B[:, 0], tol=1e-10,
                                                      max_iterations=500)
        assert res.converged
        assert res.solution.shape == (40,)


class TestEscalation:
    def test_breakdown_escalates_and_recovers(self):
        a, B = _system()
        policy = EscalationPolicy(_sabotaged_chain())
        res = policy(a, B, tol=1e-10, max_iterations=500)
        assert res.converged and res.escalated
        assert res.stage == "block_cocg_bf"
        assert [at.stage for at in res.attempts] == ["block_cocg", "block_cocg_bf"]
        assert res.attempts[0].breakdown and not res.attempts[0].converged
        true_res = np.linalg.norm(B - a @ res.solution) / np.linalg.norm(B)
        assert true_res <= 1e-8

    def test_gmres_last_resort_verifies_against_true_operator(self):
        a, B = _system()
        bad_bf = EscalationStage(
            "block_cocg_bf", breakdown_injector(block_cocg_solve, when=lambda i: True))
        policy = EscalationPolicy(_sabotaged_chain()[:1] + (bad_bf,)
                                  + default_stages()[2:])
        res = policy(a, B, tol=1e-8, max_iterations=2000)
        assert res.converged and res.stage == "gmres"
        # Convergence is claimed against the *unregularized* system.
        true_res = np.linalg.norm(B - a @ res.solution) / np.linalg.norm(B)
        assert true_res <= 1e-8

    def test_max_attempts_truncates_the_chain(self):
        a, B = _system()
        policy = EscalationPolicy(_sabotaged_chain()[:1])
        res = policy(a, B, tol=1e-10, max_iterations=500)
        assert not res.converged
        assert len(res.attempts) == 1

    def test_all_stages_fail_returns_best_effort(self):
        broken = breakdown_injector(block_cocg_solve, when=lambda i: True)
        stages = tuple(EscalationStage(f"s{k}", broken) for k in range(3))
        a, B = _system()
        res = EscalationPolicy(stages)(a, B, tol=1e-10, max_iterations=50)
        assert not res.converged
        assert res.breakdown
        assert len(res.attempts) == 3
        assert np.all(np.isfinite(res.solution))

    def test_escalation_span_and_counters_reach_tracer(self):
        a, B = _system()
        tracer = Tracer()
        with use_tracer(tracer):
            EscalationPolicy(_sabotaged_chain())(a, B, tol=1e-10,
                                                 max_iterations=500)
        spans = [e for e in tracer.events
                 if e.get("type") == "span" and e["name"] == "escalation"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["stage"] == "block_cocg_bf"
        assert tracer.counters.get("resilience_escalations") == 1
        assert tracer.counters.get("resilience_retries") == 1
        assert tracer.counters.get("resilience_attempts.block_cocg") == 1
        assert tracer.counters.get("resilience_attempts.block_cocg_bf") == 1


class TestBudgets:
    def test_budget_exhaustion_stops_the_chain(self):
        a, B = _system(s=3)
        policy = EscalationPolicy(_sabotaged_chain(), matvec_budget=2)
        res = policy(a, B, tol=1e-10, max_iterations=500)
        assert res.budget_exhausted
        assert not res.converged

    def test_budget_trims_stage_iteration_caps(self):
        a, B = _system(s=2, omega=0.05)
        # 40 matvec-equivalents with s = 2 allows at most 20 iterations.
        policy = EscalationPolicy(default_stages()[:1], matvec_budget=40)
        res = policy(a, B, tol=1e-14, max_iterations=10_000)
        assert res.n_matvec <= 40 + 2  # chain accounting, one block per iter
        assert res.attempts[0].budget_left is not None

    def test_generous_budget_changes_nothing(self):
        a, B = _system()
        loose = EscalationPolicy(default_stages(), matvec_budget=10**9)
        tight_free = EscalationPolicy(default_stages())
        r1 = loose(a, B, tol=1e-10, max_iterations=500)
        r2 = tight_free(a, B, tol=1e-10, max_iterations=500)
        np.testing.assert_array_equal(r1.solution, r2.solution)


class TestConfigPlumbing:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            EscalationPolicy(stages=())

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            EscalationPolicy(default_stages(), matvec_budget=0)


class TestSummaryAccounting:
    def test_solve_summary_counts_stages_and_retries(self):
        a, B = _system()
        res_clean = EscalationPolicy(default_stages())(
            a, B, tol=1e-10, max_iterations=500)
        res_esc = EscalationPolicy(_sabotaged_chain())(a, B, tol=1e-10,
                                                       max_iterations=500)
        summary = SolveSummary.of([res_clean, res_esc])
        assert summary.n_retries == 1
        assert summary.n_escalations == 1
        # The clean solve is stage 1's plain result: only the escalated one
        # reports the stage it was won by.
        assert summary.stage_counts == {"block_cocg_bf": 1}

    def test_plain_results_unaffected(self):
        a, B = _system()
        res = block_cocg_solve(a, B, tol=1e-10, max_iterations=500)
        summary = SolveSummary.of([res])
        assert summary.n_retries == 0
        assert summary.n_escalations == 0
        assert summary.stage_counts == {}

    def test_matvec_totals_aggregate_across_attempts(self):
        a, B = _system()
        res = EscalationPolicy(_sabotaged_chain())(a, B, tol=1e-10,
                                                   max_iterations=500)
        assert res.n_matvec == sum(at.n_matvec for at in res.attempts)
        assert res.iterations == sum(at.iterations for at in res.attempts)


class TestResilientSolveFunction:
    def test_direct_call_equivalent_to_policy_call(self):
        a, B = _system()
        policy = EscalationPolicy(default_stages()[:2])
        r1 = policy(a, B, tol=1e-10, max_iterations=500)
        r2 = resilient_solve(a, B, policy=policy, tol=1e-10, max_iterations=500)
        np.testing.assert_array_equal(r1.solution, r2.solution)

    def test_bad_rhs_shape_rejected(self):
        a, _ = _system()
        with pytest.raises(ValueError):
            resilient_solve(a, np.zeros((4, 4, 4)),
                            policy=EscalationPolicy(default_stages()))
