"""ConvergenceRecorder: scoping, counters, aggregates, merge, decorator."""

import json
import threading

import numpy as np
import pytest

from repro.obs.telemetry import (
    NULL_RECORDER,
    ConvergenceRecorder,
    NullRecorder,
    get_recorder,
    record_solves,
    recorder_for_level,
    set_recorder,
    use_recorder,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.solvers.stats import SolveResult


def _result(iterations=5, n_matvec=10, converged=True, breakdown=False,
            residual=1e-8, history=(1.0, 0.1, 0.01), block_size=1,
            per_column=None):
    return SolveResult(
        solution=np.zeros(2), converged=converged, iterations=iterations,
        residual_norm=residual, residual_history=list(history),
        n_matvec=n_matvec, block_size=block_size, breakdown=breakdown,
        per_column_iterations=per_column,
    )


class TestConstruction:
    def test_level_validation(self):
        with pytest.raises(ValueError, match="NULL_RECORDER"):
            ConvergenceRecorder(level="off")
        with pytest.raises(ValueError):
            ConvergenceRecorder(level="verbose")

    def test_recorder_for_level(self):
        assert recorder_for_level("off") is NULL_RECORDER
        assert recorder_for_level("summary").level == "summary"
        assert recorder_for_level("full").full
        with pytest.raises(ValueError):
            recorder_for_level("loud")

    def test_singleton_default_is_null(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_use_recorder_restores(self):
        rec = ConvergenceRecorder()
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_disables(self):
        set_recorder(ConvergenceRecorder())
        try:
            assert get_recorder().enabled
        finally:
            set_recorder(None)
        assert get_recorder() is NULL_RECORDER


class TestRecording:
    def test_record_outside_scope(self):
        rec = ConvergenceRecorder()
        rec.record_solve("cg", _result())
        (r,) = rec.solves
        assert r["solver"] == "cg"
        assert r["orbital"] is None and r["omega"] is None
        assert r["attempt"] == 0 and r["seq"] == 0
        assert r["initial_residual"] == 1.0
        assert r["decay_rate"] == pytest.approx(0.1)

    def test_solve_scope_labels_and_seq(self):
        rec = ConvergenceRecorder()
        with rec.solve_scope(orbital=3, omega=0.25, guess="recycled"):
            rec.record_solve("cocg", _result())
            rec.record_solve("cocg", _result())
        a, b = rec.solves
        assert a["orbital"] == 3 and a["omega"] == 0.25
        assert a["guess"] == "recycled"
        assert (a["seq"], b["seq"]) == (0, 1)
        assert rec.counters["recycled_seed_solves"] == 2

    def test_attempt_scope(self):
        rec = ConvergenceRecorder()
        with rec.solve_scope(orbital=0, omega=1.0):
            rec.record_solve("block_cocg", _result(converged=False))
            with rec.attempt_scope(1, "gmres_reg"):
                rec.record_solve("gmres", _result())
        first, second = rec.solves
        assert first["attempt"] == 0 and first["stage"] is None
        assert second["attempt"] == 1 and second["stage"] == "gmres_reg"
        assert rec.counters["escalated_records"] == 1

    def test_attempt_scope_noop_outside_solve_scope(self):
        rec = ConvergenceRecorder()
        with rec.attempt_scope(2, "x"):
            rec.record_solve("cg", _result())
        (r,) = rec.solves
        assert r["attempt"] == 0

    def test_rank_scope(self):
        rec = ConvergenceRecorder()
        with rec.rank_scope(2):
            rec.record_solve("cg", _result())
        rec.record_solve("cg", _result())
        a, b = rec.solves
        assert a["rank"] == 2 and b["rank"] is None

    def test_counters_and_aggregates(self):
        rec = ConvergenceRecorder()
        with rec.solve_scope(orbital=1, omega=0.5):
            rec.record_solve("cg", _result(iterations=4, n_matvec=8))
            rec.record_solve("cg", _result(iterations=6, n_matvec=12,
                                           converged=False, breakdown=True))
        c = rec.counters
        assert c["solves"] == 2 and c["solves.cg"] == 2
        assert c["iterations"] == 10 and c["matvecs"] == 20
        assert c["unconverged"] == 1 and c["breakdowns"] == 1
        agg = rec.aggregates[(1, 0.5)]
        assert agg["n_solves"] == 2 and agg["n_matvec"] == 20
        assert agg["n_unconverged"] == 1 and agg["n_breakdowns"] == 1
        assert agg["initial_residual_min"] == 1.0

    def test_summary_level_drops_history(self):
        rec = ConvergenceRecorder(level="summary")
        rec.record_solve("cg", _result(per_column=[1, 2]))
        (r,) = rec.solves
        assert "residual_history" not in r
        assert "per_column_iterations" not in r

    def test_full_level_keeps_history_and_columns(self):
        rec = ConvergenceRecorder(level="full")
        rec.record_solve("block_cocg", _result(per_column=[2, -1],
                                               block_size=2))
        (r,) = rec.solves
        assert r["residual_history"] == [1.0, 0.1, 0.01]
        assert r["per_column_iterations"] == [2, -1]

    def test_full_level_mirrors_into_tracer(self):
        tracer = Tracer()
        rec = ConvergenceRecorder(level="full")
        with use_tracer(tracer), rec.solve_scope(orbital=7, omega=2.0):
            rec.record_solve("cg", _result())
        ev = next(e for e in tracer.events if e["name"] == "solve_telemetry")
        assert ev["attrs"]["orbital"] == 7 and ev["attrs"]["solver"] == "cg"

    def test_ring_overflow_preserves_counters(self):
        rec = ConvergenceRecorder(ring_size=4)
        for _ in range(10):
            rec.record_solve("cg", _result())
        assert len(rec.solves) == 4
        assert rec.n_recorded == 10 and rec.n_dropped == 6
        assert rec.counters["solves"] == 10


class TestSweepProgress:
    def test_point_lifecycle(self):
        t = [0.0]
        rec = ConvergenceRecorder(clock=lambda: t[0])
        rec.sweep_started(4)
        rec.point_started(0, 0.5)
        t[0] = 2.0
        assert rec.open_points[0]["elapsed"] == pytest.approx(2.0)
        rec.point_finished(0, energy_term=-0.1, converged=True,
                          error_history=[1.0, 0.01])
        assert rec.open_points == []
        (p,) = rec.points
        assert p["omega"] == 0.5 and p["seconds"] == pytest.approx(2.0)
        assert p["error_history"] == [1.0, 0.01]
        assert rec.n_points_total == 4

    def test_point_finished_without_start(self):
        rec = ConvergenceRecorder()
        rec.point_finished(3, omega=1.5, seconds=0.7)
        (p,) = rec.points
        assert p["index"] == 3 and p["seconds"] == 0.7


class TestPayloadAndMerge:
    def _populated(self):
        rec = ConvergenceRecorder()
        with rec.solve_scope(orbital=0, omega=0.5, guess="recycled"):
            rec.record_solve("cg", _result())
        rec.point_finished(0, omega=0.5, seconds=1.0)
        return rec

    def test_payload_json_safe(self):
        payload = self._populated().payload()
        text = json.dumps(payload)
        assert "aggregates" in text
        assert payload["n_recorded"] == 1
        assert payload["counters"]["solves"] == 1

    def test_merge_folds_exactly(self):
        parent = self._populated()
        child = ConvergenceRecorder()
        with child.solve_scope(orbital=0, omega=0.5):
            child.record_solve("cg", _result(iterations=9, n_matvec=18,
                                             converged=False))
        with child.solve_scope(orbital=1, omega=0.5):
            child.record_solve("cocg", _result())
        parent.merge(child.payload())
        assert parent.n_recorded == 3
        assert parent.counters["solves"] == 3
        assert parent.counters["matvecs"] == 10 + 18 + 10
        agg = parent.aggregates[(0, 0.5)]
        assert agg["n_solves"] == 2 and agg["n_unconverged"] == 1
        assert (1, 0.5) in parent.aggregates
        assert len(parent.solves) == 3

    def test_merge_empty_payload_noop(self):
        rec = self._populated()
        before = rec.payload()
        rec.merge({})
        assert rec.payload() == before

    def test_thread_local_scopes_shared_ring(self):
        rec = ConvergenceRecorder()

        def work(orbital):
            with rec.solve_scope(orbital=orbital, omega=1.0):
                for _ in range(20):
                    rec.record_solve("cg", _result())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert rec.counters["solves"] == 80
        orbitals = {r["orbital"] for r in rec.solves}
        assert orbitals == {0, 1, 2, 3}


class TestDecoratorAndNull:
    def test_record_solves_decorator(self):
        @record_solves("cg")
        def fake_solve():
            return _result()

        rec = ConvergenceRecorder()
        fake_solve()  # NULL active: nothing recorded anywhere
        with use_recorder(rec):
            fake_solve()
        assert rec.counters["solves"] == 1
        (r,) = rec.solves
        assert r["solver"] == "cg"

    def test_null_recorder_is_inert(self):
        nr = NullRecorder()
        assert not nr.enabled and not nr.full
        with nr.solve_scope(orbital=1), nr.attempt_scope(1), nr.rank_scope(0):
            nr.record_solve("cg", _result())
        nr.sweep_started(3)
        nr.point_started(0, 0.1)
        nr.point_finished(0)
        nr.merge({"counters": {"solves": 5}})
        assert nr.payload() == {}
        assert NullRecorder.counters == {} and NullRecorder.points == []


class TestSolverIntegration:
    def test_real_solvers_record(self):
        from repro.solvers import block_cocg_solve

        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 12))
        A = A @ A.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        rec = ConvergenceRecorder(level="full")
        with use_recorder(rec):
            res = block_cocg_solve(lambda x: A @ x, b, tol=1e-10, n=12)
        assert res.converged
        (r,) = rec.solves
        assert r["solver"] == "block_cocg" and r["converged"]
        assert r["residual_history"][0] == pytest.approx(1.0)
        assert rec.counters["matvecs"] == r["n_matvec"] > 0
