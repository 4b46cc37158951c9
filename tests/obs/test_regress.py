"""Performance-regression tracker: gates, trajectory, end-to-end CLI."""

import json

import pytest

from repro.obs import regress


def _record(matvecs=1000, wall=10.0, energy=-0.5, converged=True, mode="quick"):
    return {
        "schema": regress.SCHEMA, "mode": mode, "matvecs": matvecs,
        "wall_seconds": wall, "energy_per_atom_ha": energy,
        "converged": converged,
    }


class TestCompare:
    def test_identical_passes(self):
        assert regress.compare(_record(), _record()) == []

    def test_within_gates_passes(self):
        rec = _record(matvecs=1090, wall=12.0, energy=-0.5 + 5e-7)
        assert regress.compare(rec, _record()) == []

    def test_matvec_regression_caught(self):
        failures = regress.compare(_record(matvecs=1200), _record())
        assert len(failures) == 1 and "matvec regression" in failures[0]

    def test_wall_regression_caught(self):
        failures = regress.compare(_record(wall=13.0), _record())
        assert len(failures) == 1 and "wall-clock regression" in failures[0]

    def test_energy_disagreement_caught(self):
        failures = regress.compare(_record(energy=-0.5 + 1e-5), _record())
        assert len(failures) == 1 and "energy disagreement" in failures[0]

    def test_unconverged_caught(self):
        failures = regress.compare(_record(converged=False), _record())
        assert any("did not converge" in f for f in failures)

    def test_improvements_pass(self):
        rec = _record(matvecs=500, wall=2.0)
        assert regress.compare(rec, _record()) == []


class TestTrajectoryAndBaseline:
    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "traj.json"
        regress.append_trajectory(path, _record(matvecs=1))
        regress.append_trajectory(path, _record(matvecs=2))
        loaded = json.loads(path.read_text())
        assert [r["matvecs"] for r in loaded["records"]] == [1, 2]

    def test_append_survives_corruption(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text("{not json")
        regress.append_trajectory(path, _record())
        assert len(json.loads(path.read_text())["records"]) == 1

    def test_baseline_keyed_by_mode(self, tmp_path):
        path = tmp_path / "base.json"
        regress.write_baseline(path, _record(mode="quick", matvecs=10))
        regress.write_baseline(path, _record(mode="full", matvecs=20))
        assert regress.load_baseline(path, "quick")["matvecs"] == 10
        assert regress.load_baseline(path, "full")["matvecs"] == 20
        assert regress.load_baseline(path, "nope") is None
        assert regress.load_baseline(tmp_path / "missing.json", "quick") is None

    def test_benchmark_config_pinned(self):
        cfg = regress.benchmark_config("quick")
        assert cfg.use_recycling and cfg.telemetry_level == "summary"
        assert not regress.benchmark_config(
            "quick", disable_recycling=True).use_recycling
        with pytest.raises(ValueError):
            regress.benchmark_config("huge")


@pytest.mark.slow
class TestEndToEnd:
    def test_seed_pass_and_planted_regression(self, tmp_path):
        base = str(tmp_path / "baseline.json")
        out = str(tmp_path / "telemetry.json")
        argv = ["--quick", "--baseline", base, "--output", out]

        # No baseline yet: configuration error, distinct from regression.
        assert regress.main(argv) == 2
        # Seed, then an identical run must pass (matvecs are deterministic).
        assert regress.main(argv + ["--update-baseline"]) == 0
        assert regress.main(argv) == 0
        # Disabling the recycle cache plants a matvec regression past the gate.
        assert regress.main(argv + ["--disable-recycling"]) == 1

        trajectory = json.loads(open(out).read())
        assert len(trajectory["records"]) == 4
        with_cache, without = trajectory["records"][2], trajectory["records"][3]
        assert without["matvecs"] > (1 + regress.MATVEC_TOLERANCE) * with_cache["matvecs"]
        assert abs(without["energy_per_atom_ha"]
                   - with_cache["energy_per_atom_ha"]) <= 1e-6
        assert with_cache["kernel_seconds"].get("chi0_apply", 0) > 0
        assert with_cache["telemetry_counters"]["solves"] > 0
