"""Tests for the command-line driver."""

import sys

import pytest

from repro.cli import build_system, main


class TestBuildSystem:
    def test_toy(self):
        crystal, grid, kwargs, n_eig = build_system("toy")
        assert crystal.n_atoms == 2
        assert grid.n_points == 216
        assert "gaussian_pseudos" in kwargs

    def test_paper_silicon(self):
        crystal, grid, _, n_eig = build_system("si16")
        assert crystal.n_atoms == 16
        assert grid.n_points == 6750  # Table III
        assert n_eig == 96 * 16  # Table I

    def test_scaled_silicon(self):
        crystal, grid, _, n_eig = build_system("si8-scaled")
        assert crystal.n_atoms == 8
        assert grid.n_points == 729

    @pytest.mark.parametrize("bad", ["si7", "si48", "si9-scaled", "water"])
    def test_unknown_systems(self, bad):
        with pytest.raises(ValueError):
            build_system(bad)


class TestMain:
    def test_toy_run_writes_artifact_log(self, tmp_path, capsys):
        out = tmp_path / "toy.out"
        rc = main(["--system", "toy", "--n-eig", "24", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "RPA Parallelization" in text
        assert "Total RPA correlation energy" in text
        assert "Total walltime" in text

    def test_input_file_drives_config(self, tmp_path, capsys):
        rpa = tmp_path / "toy.rpa"
        rpa.write_text("N_NUCHI_EIGS: 16\nN_OMEGA: 2\nTOL_STERN_RES: 1e-2\n")
        out = tmp_path / "toy.out"
        rc = main(["--system", "toy", "--input", str(rpa), "--output", str(out)])
        assert rc == 0
        # Two omega blocks only.
        assert out.read_text().count("0~1 value") == 2

    def test_bad_input_value_exits_2_before_the_scf(self, tmp_path, capsys):
        rpa = tmp_path / "bad.rpa"
        rpa.write_text("N_NUCHI_EIGS: 16\nMAXIT_FILTERING: -1\n")
        rc = main(["--system", "toy", "--input", str(rpa)])
        assert rc == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "max_filter_iterations" in errors[0]
        assert "SCF done" not in err

    @pytest.mark.parametrize("source", ["--n-eig", "--input"])
    def test_oversized_n_eig_exits_2_before_the_scf(self, source, tmp_path, capsys):
        # The toy grid has n_d = 216: a requested n_eig = 768 can never be
        # met, whether it comes from the command line or from the file.
        if source == "--n-eig":
            argv = ["--system", "toy", "--n-eig", "768"]
        else:
            rpa = tmp_path / "big.rpa"
            rpa.write_text("N_NUCHI_EIGS: 768\n")
            argv = ["--system", "toy", "--input", str(rpa)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "n_eig = 768 exceeds n_d = 216" in errors[0]
        assert "SCF done" not in err

    @pytest.mark.parametrize("flags", [
        ["--ssa", "--ssa-refresh-tol", "-1"],
        ["--ranks", "0"],
        ["--ranks", "-1", "--backend", "spmd"],
    ], ids=["ssa-refresh-tol", "ranks-0", "spmd-ranks-negative"])
    def test_bad_flag_value_exits_2_before_the_scf(self, flags, capsys):
        # A value the config (or the backend) refuses is a usage error:
        # one error line and status 2, never a traceback or a wasted SCF.
        assert main(["--system", "toy", *flags]) == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1
        assert "SCF done" not in err

    def test_simulated_ranks_path(self, capsys):
        rc = main(["--system", "toy", "--n-eig", "16", "--ranks", "4"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Total RPA correlation energy" in captured.out
        assert "simulated walltime" in captured.err

    def test_ranks_run_prints_point_table(self, capsys):
        # One branch after the solve: a --ranks run prints the same
        # per-point log a serial run does, then its walltime/comm line.
        rc = main(["--system", "toy", "--n-eig", "24", "--ranks", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "NP_NUCHI_EIGS_PARAL_RPA: 3" in captured.out
        n_points = captured.out.count("0~1 value")
        assert n_points > 0
        assert captured.out.count("| eig Error | Timing (s) | mode") == n_points
        assert (captured.out.count("  filtered\n")
                + captured.out.count("  warm\n")) == n_points
        assert "simulated walltime on 3 ranks" in captured.err

    def test_unconverged_sweep_exits_3_with_a_warning(self, capsys):
        # Eight eigenpairs leave the last quadrature point above its Eq. 7
        # tolerance: the energy is still printed, but the run must say so.
        rc = main(["--system", "toy", "--n-eig", "8"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "Total RPA correlation energy" in captured.out
        warnings = [ln for ln in captured.err.splitlines()
                    if ln.startswith("WARNING:")]
        assert len(warnings) == 1
        assert "did not converge" in warnings[0]
        assert "#8 " in warnings[0] and "> 5.0e-04" in warnings[0]

    def test_degraded_sweep_exits_3_with_a_warning(self, capsys, monkeypatch,
                                                   default_chain):
        # A one-stage chain whose first three solves break down: nothing can
        # rescue them, so they degrade while every quadrature point still
        # converges. The energy is printed, and so is its bound.
        from repro.resilience import EscalationStage, breakdown_injector
        from repro.solvers import block_cocg_solve

        broken = breakdown_injector(block_cocg_solve, when=lambda idx: idx < 3)
        monkeypatch.setattr(default_chain, "stages",
                            (EscalationStage("block_cocg", broken),))
        rc = main(["--system", "toy", "--n-eig", "24"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "Total RPA correlation energy" in captured.out
        warnings = [ln for ln in captured.err.splitlines()
                    if ln.startswith("WARNING:")]
        assert len(warnings) == 1
        assert "3 Sternheimer solve(s) degraded" in warnings[0]
        assert "energy error bound" in warnings[0]

    def test_fractional_occupations_warn_without_changing_the_exit(
            self, capsys, monkeypatch):
        # A smeared SCF hands the integer-occupation RPA stage fractional
        # states: the run says how much occupation it ignored, once, and
        # still exits 0.
        import repro.cli as cli

        def smeared(name):
            crystal, grid, kwargs, n_eig = build_system(name)
            return crystal, grid, {**kwargs, "tol": 1e-6, "smearing": 0.02}, n_eig

        monkeypatch.setattr(cli, "build_system", smeared)
        rc = main(["--system", "toy", "--n-eig", "24"])
        assert rc == 0
        captured = capsys.readouterr()
        warnings = [ln for ln in captured.err.splitlines()
                    if ln.startswith("WARNING:")]
        assert len(warnings) == 1
        assert "fractional" in warnings[0] and "pair(s)" in warnings[0]
        line = next(ln for ln in captured.out.splitlines()
                    if ln.startswith("Ignored occupation"))
        assert float(line.rsplit(":", 1)[1]) > 1e-3

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="spmd backend requires the fork start method")
    def test_process_backend_verify_exit_status_sees_worker_checks(
            self, capsys, monkeypatch):
        # A solver that lies about convergence inside the worker processes
        # (SPMD's, since the orbital pool is gone) must fail the run: their
        # verifier outcome comes home with the results.
        import repro.parallel.rpa_parallel as rpa_parallel
        from repro.verify.harness import _lying_solver

        build = rpa_parallel.chi0_operator_from_config

        def lying_operator(*args, **kwargs):
            op = build(*args, **kwargs)
            op.solver = _lying_solver
            return op

        monkeypatch.setattr(rpa_parallel, "chi0_operator_from_config",
                            lying_operator)
        rc = main(["--system", "toy", "--n-eig", "8", "--backend", "spmd",
                   "--ranks", "2", "--verify", "cheap"])
        assert rc != 0
        captured = capsys.readouterr()
        assert "verify FAILURE [solve_residual]" in captured.err
        assert "spmd backend on 2 worker process(es)" in captured.err

    def test_workers_flag_is_gone(self, capsys):
        # One real backend left: its workers are --ranks.
        with pytest.raises(SystemExit) as exit_info:
            main(["--system", "toy", "--backend", "spmd", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_serial_backend_refuses_ranks(self, capsys):
        rc = main(["--system", "toy", "--backend", "serial", "--ranks", "2"])
        assert rc == 2
        assert "--backend serial runs on one rank" in capsys.readouterr().err

    def test_float32_ir_refuses_the_per_orbital_kernel(self, capsys):
        rc = main(["--system", "toy", "--solve-dtype", "float32_ir"])
        assert rc == 2
        assert "--solve-dtype float32_ir requires --batched" in capsys.readouterr().err
