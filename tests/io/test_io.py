"""Tests for the artifact-compatible .rpa input and .out output formats."""

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.io import (
    dump_rpa_config,
    estimate_memory_mb,
    format_output_log,
    load_rpa_config,
    parse_rpa_input,
)

ARTIFACT_SI8_RPA = """\
N_NUCHI_EIGS: 768
N_OMEGA: 8
TOL_EIG: 4e-3 2e-3 5e-4 5e-4 5e-4 5e-4 5e-4 5e-4
TOL_STERN_RES: 1e-2
MAXIT_FILTERING: 10
CHEB_DEGREE_RPA: 2
FLAG_PQ_OPERATOR: 0
FLAG_COCGINITIAL: 1
"""


class TestInputParsing:
    def test_artifact_si8_file(self):
        cfg = load_rpa_config(text=ARTIFACT_SI8_RPA)
        assert cfg.n_eig == 768
        assert cfg.n_quadrature == 8
        assert cfg.tol_subspace == (4e-3, 2e-3, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4, 5e-4)
        assert cfg.tol_sternheimer == 1e-2
        assert cfg.max_filter_iterations == 10
        assert cfg.filter_degree == 2
        assert cfg.use_galerkin_guess is True

    def test_round_trip(self):
        cfg = load_rpa_config(text=ARTIFACT_SI8_RPA, seed=3)
        text = dump_rpa_config(cfg)
        cfg2 = load_rpa_config(text=text, seed=3)
        assert cfg2.n_eig == cfg.n_eig
        assert cfg2.tol_subspace == cfg.tol_subspace
        assert cfg2.tol_sternheimer == cfg.tol_sternheimer
        assert cfg2.use_galerkin_guess == cfg.use_galerkin_guess

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nN_NUCHI_EIGS: 10  # trailing\n"
        cfg = load_rpa_config(text=text)
        assert cfg.n_eig == 10

    def test_cocg_initial_flag_off(self):
        cfg = load_rpa_config(text="N_NUCHI_EIGS: 4\nFLAG_COCGINITIAL: 0\n")
        assert cfg.use_galerkin_guess is False

    def test_overrides(self):
        cfg = load_rpa_config(text="N_NUCHI_EIGS: 4\n", seed=9, max_cocg_iterations=7)
        assert cfg.seed == 9
        assert cfg.max_cocg_iterations == 7

    def test_file_path(self, tmp_path):
        p = tmp_path / "Si8.rpa"
        p.write_text(ARTIFACT_SI8_RPA)
        cfg = load_rpa_config(path=p)
        assert cfg.n_eig == 768

    @pytest.mark.parametrize("bad,msg", [
        ("NOT_A_KEY: 1\n", "unknown keyword"),
        ("N_NUCHI_EIGS 10\n", "expected"),
        ("N_NUCHI_EIGS:\n", "no value"),
        ("N_NUCHI_EIGS: 4\nN_NUCHI_EIGS: 5\n", "duplicate"),
    ])
    def test_malformed_inputs(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            parse_rpa_input(bad)

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            load_rpa_config(text="N_OMEGA: 8\n")

    def test_pq_operator_unsupported(self):
        with pytest.raises(NotImplementedError):
            load_rpa_config(text="N_NUCHI_EIGS: 4\nFLAG_PQ_OPERATOR: 1\n")

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            load_rpa_config()
        with pytest.raises(ValueError):
            load_rpa_config(path="x", text="y")


class TestOutputLog:
    @pytest.fixture(scope="class")
    def result(self, toy_dft, toy_coulomb):
        cfg = RPAConfig(n_eig=24, n_quadrature=4, seed=1)
        return compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)

    def test_contains_artifact_sections(self, result):
        log = format_output_log(result, n_ranks=4, memory_mb=36.97)
        assert "RPA Parallelization" in log
        assert "NP_NUCHI_EIGS_PARAL_RPA: 4" in log
        assert "Estimated memory usage in RPA calculation is 36.97 MB" in log
        assert "Energy terms in every (qpt, omega) pair (Ha)" in log
        assert "Total RPA correlation energy" in log
        assert "Total walltime" in log

    def test_one_block_per_omega(self, result):
        log = format_output_log(result)
        assert log.count("0~1 value") == 4
        for p in result.points:
            assert f"omega {p.index} (value {p.omega:.3f}" in log

    def test_reports_total_energy(self, result):
        log = format_output_log(result)
        assert f"{result.energy: .5E}" in log
        assert f"{result.energy_per_atom: .5E}" in log

    def test_reports_ignored_occupation(self, result):
        # An insulating SCF: the integer-occupation chi0 ignores nothing.
        assert result.ignored_occupation == 0.0
        line = next(ln for ln in format_output_log(result).splitlines()
                    if ln.startswith("Ignored occupation"))
        assert float(line.rsplit(":", 1)[1]) == 0.0

    def test_memory_estimate(self):
        mb = estimate_memory_mb(n_d=3375, n_eig=768, n_s=16)
        # Artifact banner for Si8 on 24 ranks reports ~37 MB per rank; the
        # aggregate working set is of order 100 MB.
        assert 10.0 < mb < 1000.0
        with pytest.raises(ValueError):
            estimate_memory_mb(0, 1, 1)
