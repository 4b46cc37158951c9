"""Command-line driver mirroring the artifact's ``rpacalc`` binary.

The SC 2024 artifact runs ``mpirun -np <p> rpacalc -name Si8``, reading
``Si8.rpa`` and writing ``Si8.out``. This module provides the equivalent:

    python -m repro --system si8 --input Si8.rpa --output Si8.out
    python -m repro --system si8-scaled --ranks 4          # simulated MPI
    python -m repro --system toy                           # smoke run
    python -m repro --system toy --trace toy.trace.jsonl   # + observability

Systems are built in (the paper's Table III silicon crystals, their scaled
analogues, and the tiny model system); the input file is optional — paper
defaults apply without it.

Observability: every run collects spans/counters through ``repro.obs``
(``--no-obs`` disables collection entirely). ``--trace FILE`` writes the
JSONL event stream plus a Chrome ``trace_event`` file alongside it;
``--metrics FILE`` writes the aggregated counters; with ``--output`` a
machine-readable run manifest lands next to the ``.out`` log. Render the
Fig. 5-style kernel table from a trace with ``python -m repro.obs.report``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from repro.config import RPAConfig
from repro.dft import GaussianPseudopotential, run_scf, scaled_silicon_crystal, silicon_crystal
from repro.dft.atoms import Crystal
from repro.grid import CoulombOperator
from repro.io import estimate_memory_mb, format_output_log, load_rpa_config
from repro.obs import (
    NULL_TRACER,
    RunMonitor,
    Tracer,
    recorder_for_level,
    use_recorder,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
    write_manifest,
    write_metrics,
)
from repro.parallel import compute_rpa_energy_parallel


#: Ignored pair-occupation mass (``RPAEnergyResult.ignored_occupation``)
#: above which a run warns that its SCF's occupations were fractional.
IGNORED_OCCUPATION_WARN = 1e-3


def build_system(name: str):
    """Construct (crystal, grid, scf_kwargs, default_n_eig) for a system name."""
    name = name.lower()
    if name == "toy":
        crystal = Crystal(
            ["X", "X"],
            np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]),
            (6.0, 6.0, 6.0),
            label="toy",
        )
        grid = crystal.make_grid(1.0)
        kwargs = dict(
            radius=2,
            gaussian_pseudos={"X": GaussianPseudopotential("X", 2.0, 0.9)},
            tol=1e-8,
            max_iterations=80,
        )
        return crystal, grid, kwargs, 60
    if name.startswith("si") and name.endswith("-scaled"):
        n_atoms = int(name[2:-7])
        if n_atoms % 8 != 0 or not 8 <= n_atoms <= 40:
            raise ValueError(f"scaled silicon systems are si8..si40 in steps of 8, got {name}")
        crystal, grid = scaled_silicon_crystal(n_atoms // 8, points_per_edge=9,
                                               perturbation=0.01, seed=11)
        return crystal, grid, dict(radius=3, tol=1e-6, max_iterations=100), 6 * n_atoms
    if name.startswith("si"):
        n_atoms = int(name[2:])
        if n_atoms % 8 != 0 or not 8 <= n_atoms <= 40:
            raise ValueError(f"silicon systems are si8..si40 in steps of 8, got {name}")
        crystal = silicon_crystal(n_atoms // 8, perturbation=0.02, seed=7)
        grid = crystal.make_grid(10.26 / 15)
        return crystal, grid, dict(radius=4, tol=1e-6, max_iterations=100), 96 * n_atoms
    raise ValueError(f"unknown system {name!r} (try: toy, si8, si8-scaled, ... si40)")


def chrome_trace_path(trace_path: str) -> str:
    """Companion Chrome-trace filename for a ``--trace`` JSONL path."""
    base = trace_path[: -len(".jsonl")] if trace_path.endswith(".jsonl") else trace_path
    return base + ".chrome.json"


def _export_observability(args, tracer, config, system: str,
                          telemetry: dict | None = None, **fields) -> None:
    """Write the requested trace/metrics/manifest files after a run."""
    if not tracer.enabled:
        if args.trace or args.metrics:
            print("note: --no-obs given; skipping trace/metrics export",
                  file=sys.stderr)
        return
    if args.trace:
        write_jsonl(tracer, args.trace,
                    meta={"system": system, "ranks": args.ranks},
                    telemetry=telemetry)
        chrome = write_chrome_trace(tracer, chrome_trace_path(args.trace))
        print(f"wrote trace {args.trace} (+ {chrome})", file=sys.stderr)
    if args.metrics:
        write_metrics(tracer, args.metrics,
                      extra={"system": system, "ranks": args.ranks, **fields})
        print(f"wrote metrics {args.metrics}", file=sys.stderr)
    if args.output:
        extra = {}
        if telemetry:
            # The manifest stays compact: counters only, not the solve ring.
            extra["telemetry"] = {
                "level": telemetry.get("level"),
                "n_recorded": telemetry.get("n_recorded"),
                "counters": telemetry.get("counters", {}),
            }
        manifest = write_manifest(args.output + ".manifest.json", config=config,
                                  tracer=tracer, system=system,
                                  ranks=args.ranks, output=args.output,
                                  **extra, **fields)
        print(f"wrote manifest {manifest}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--system", default="toy",
                        help="toy | si8..si40 (paper grids) | si8-scaled..si40-scaled")
    parser.add_argument("--input", default=None,
                        help="artifact-format .rpa input file (paper defaults if omitted)")
    parser.add_argument("--output", default=None,
                        help="write the artifact-format .out log here (stdout otherwise)")
    parser.add_argument("--ranks", type=int, default=1,
                        help="MPI ranks: simulated, or worker processes under "
                             "--backend spmd (1 = serial driver)")
    parser.add_argument("--backend",
                        choices=("serial", "simulated", "spmd"),
                        default=None,
                        help="execution backend: 'serial' (in-process driver), "
                             "'simulated' (virtual-clock MPI over --ranks), "
                             "'spmd' (--ranks real column-distributed worker "
                             "processes on shared memory). Default: "
                             "'simulated' when --ranks > 1, else 'serial'")
    parser.add_argument("--n-eig", type=int, default=None,
                        help="override the number of nu chi0 eigenpairs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write the JSONL span/event stream here, plus a Chrome "
                             "trace_event file alongside (FILE with .chrome.json)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write the aggregated counters/kernel-timings JSON here")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable observability collection entirely")
    parser.add_argument("--telemetry", choices=("off", "summary", "full"),
                        default="off",
                        help="per-solve convergence telemetry: 'summary' keeps "
                             "compact records + per-(orbital, omega) aggregates, "
                             "'full' additionally keeps residual histories and "
                             "per-column convergence iterations. The payload is "
                             "embedded in the --trace JSONL stream")
    parser.add_argument("--watch", action="store_true",
                        help="render a live run-health dashboard (sweep progress, "
                             "ETA, per-frequency decay sparklines, solver "
                             "counters) on stderr; implies --telemetry summary")
    parser.add_argument("--recycle", action="store_true",
                        help="cache converged Sternheimer solutions per (orbital, "
                             "omega), rotate them through Rayleigh-Ritz and reuse "
                             "them as initial guesses across iterations and "
                             "quadrature points")
    parser.add_argument("--batched", action="store_true",
                        help="fuse all occupied orbitals' Sternheimer systems at "
                             "each quadrature point into one wide batched COCG "
                             "solve (one shared Hamiltonian apply per iteration)")
    parser.add_argument("--solve-dtype", choices=("float64", "float32_ir"),
                        default="float64",
                        help="working precision of the batched solves: 'float32_ir' "
                             "runs float32 COCG iterations polished by float64 "
                             "iterative refinement (requires --batched)")
    parser.add_argument("--ssa", action="store_true",
                        help="static subspace approximation: filter the dielectric "
                             "subspace once at the reference (largest-omega) "
                             "quadrature point and only Rayleigh-Ritz in the "
                             "frozen basis at the remaining points")
    parser.add_argument("--ssa-refresh-tol", type=float, default=None,
                        metavar="TOL",
                        help="Eq. 7 residual threshold above which an SSA point "
                             "runs one cheap Chebyshev refresh pass before being "
                             "accepted (requires --ssa; default: each point's "
                             "own subspace tolerance)")
    parser.add_argument("--verify", choices=("off", "cheap", "full"), default="off",
                        help="runtime invariant checking (repro.verify): 'cheap' "
                             "probes operator symmetry, spot-checks solve residuals "
                             "and the quadrature/trace identities; 'full' re-verifies "
                             "every solve and the Rayleigh-Ritz basis. Failures are "
                             "reported on stderr and as verify_* counters")
    args = parser.parse_args(argv)

    if args.watch and args.telemetry == "off":
        args.telemetry = "summary"
        print("note: --watch implies --telemetry summary", file=sys.stderr)
    tracer = NULL_TRACER if args.no_obs else Tracer()
    recorder = recorder_for_level(args.telemetry)
    with use_tracer(tracer), use_recorder(recorder):
        monitor = None
        if args.watch:
            monitor = RunMonitor(recorder).start()
        try:
            return _run(args, tracer, recorder)
        finally:
            if monitor is not None:
                monitor.stop()


def _config_from_args(args, grid, default_n_eig: int) -> tuple[RPAConfig, str]:
    """The run's config and backend; ``ValueError`` for a refused command line."""
    if args.input is not None:
        overrides = {} if args.n_eig is None else {"n_eig": args.n_eig}
        try:
            config = load_rpa_config(path=args.input, seed=args.seed, **overrides)
        except ValueError as exc:  # bad value or unknown keyword in the file
            raise ValueError(f"{args.input}: {exc}") from None
    else:
        # Only the per-system default is clamped to the grid; a requested
        # n_eig that cannot fit is refused below.
        config = RPAConfig(n_eig=args.n_eig or min(default_n_eig, grid.n_points),
                           seed=args.seed)
    if config.n_eig > grid.n_points:
        raise ValueError(f"n_eig = {config.n_eig} exceeds n_d = {grid.n_points} "
                         f"grid points of system {args.system}")
    if args.solve_dtype != "float64" and not args.batched:
        raise ValueError("--solve-dtype float32_ir requires --batched")
    if args.ssa_refresh_tol is not None and not args.ssa:
        raise ValueError("--ssa-refresh-tol requires --ssa")
    if args.ranks < 1:
        raise ValueError(f"--ranks must be >= 1, got {args.ranks}")
    backend = args.backend or ("simulated" if args.ranks > 1 else "serial")
    if backend == "serial" and args.ranks != 1:
        raise ValueError("--backend serial runs on one rank; drop --ranks or "
                         "pick --backend simulated/spmd")
    flags: dict = {}
    if args.recycle:
        flags["use_recycling"] = True
    if args.batched:
        flags.update(batched_sternheimer=True, solve_dtype=args.solve_dtype)
    if args.ssa:
        flags["use_ssa"] = True
        if args.ssa_refresh_tol is not None:
            flags["ssa_refresh_tol"] = args.ssa_refresh_tol
    if args.verify != "off":
        flags["verify_level"] = args.verify
    if args.telemetry != "off":
        # The CLI-installed recorder stays authoritative (install-unless-
        # active); the config field keeps the manifest/provenance truthful.
        flags["telemetry_level"] = args.telemetry
    return replace(config, **flags), backend


def _run(args, tracer, recorder) -> int:
    crystal, grid, scf_kwargs, default_n_eig = build_system(args.system)
    try:
        config, backend = _config_from_args(args, grid, default_n_eig)
    except ValueError as exc:  # refuse before the SCF, with the usage status
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.recycle:
        print("sternheimer: recycling enabled", file=sys.stderr)
    if args.batched:
        print(f"sternheimer: batched multi-orbital solves enabled "
              f"(solve_dtype={config.solve_dtype})", file=sys.stderr)
    if args.ssa:
        refresh_desc = ("per-point subspace tol" if config.ssa_refresh_tol is None
                        else f"{config.ssa_refresh_tol:g}")
        print(f"ssa: frequency-shared eigenbasis enabled "
              f"(refresh tol {refresh_desc})", file=sys.stderr)
    if args.verify != "off":
        print(f"verify: runtime invariant checks at level '{args.verify}'",
              file=sys.stderr)

    print(f"system {crystal.label}: {crystal.n_atoms} atoms, grid {grid.shape} "
          f"(n_d = {grid.n_points}), n_eig = {config.n_eig}", file=sys.stderr)
    dft = run_scf(crystal, grid, **scf_kwargs)
    if not dft.converged:
        print("warning: SCF did not reach tolerance; continuing with best density",
              file=sys.stderr)
    print(f"SCF done in {dft.n_iterations} iterations "
          f"({sum(dft.history.eigensolver_passes)} CheFSI filter passes, "
          f"{sum(dft.history.eigensolver_single_passes)} in single precision); "
          f"n_s = {dft.n_occupied}", file=sys.stderr)

    coulomb = CoulombOperator(grid, radius=dft.hamiltonian.radius)
    result = compute_rpa_energy_parallel(dft, config, n_ranks=args.ranks,
                                         coulomb=coulomb, backend=backend)
    _print_resilience_summary(result.stats)
    if result.recycle is not None:
        r = result.recycle
        print(f"recycling: {r.hits} hits, {r.omega_seeds} cross-omega seeds, "
              f"{r.misses} misses; {result.stats.n_matvec} matvecs",
              file=sys.stderr)
    log = format_output_log(
        result,
        n_ranks=result.n_ranks,
        memory_mb=estimate_memory_mb(grid.n_points, config.n_eig, dft.n_occupied),
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(log)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(log)
    if backend == "simulated":
        print(f"simulated walltime on {result.n_ranks} ranks: "
              f"{result.simulated_walltime:.2f} s "
              f"(comm {result.comm_seconds * 1e3:.1f} ms)", file=sys.stderr)
    elif backend == "spmd":
        print(f"spmd backend on {result.n_ranks} worker process(es): "
              f"wall {result.elapsed_seconds:.2f} s "
              f"(comm {result.comm_seconds * 1e3:.1f} ms)", file=sys.stderr)
    _export_observability(
        args, tracer, config, crystal.label, telemetry=result.telemetry,
        energy=result.energy, energy_per_atom=result.energy_per_atom,
        converged=result.converged, wall_seconds=result.elapsed_seconds,
        scf_iterations=dft.n_iterations, scf_converged=dft.converged,
        degraded_error_bound=result.degraded_error_bound,
        skipped_solve_error_bound=result.skipped_solve_error_bound,
        backend=backend, simulated_walltime=result.simulated_walltime,
        comm_seconds=result.comm_seconds,
        imbalance_seconds=result.imbalance_seconds,
        n_rank_failures=result.n_rank_failures,
    )
    status = _verify_exit_code(result.verify)
    late = [p for p in result.points if not p.converged]
    if late:
        print(f"WARNING: {len(late)} of {len(result.points)} quadrature "
              "point(s) did not converge (Eq. 7 error > tolerance): "
              + ", ".join(f"#{p.index} {p.error:.2e} > "
                          f"{config.tol_subspace_for(p.index):.1e}" for p in late)
              + "; the energy above is not converged", file=sys.stderr)
    degraded = result.stats.n_degraded_solves
    if degraded:
        print(f"WARNING: {degraded} Sternheimer solve(s) degraded (unconverged "
              f"after the escalation chain); energy error bound "
              f"{result.skipped_solve_error_bound:.3e} Ha on the energy above",
              file=sys.stderr)
    if result.ignored_occupation > IGNORED_OCCUPATION_WARN:
        print(f"WARNING: the SCF's occupations are fractional; the RPA stage "
              f"treats the first n_s = {dft.n_occupied} orbitals as fully "
              f"occupied and ignores {result.ignored_occupation:.3e} pair(s) "
              "of occupation", file=sys.stderr)
    return status or (3 if late or degraded else 0)


def _verify_exit_code(verify: dict | None) -> int:
    """Exit status from a run's verifier summary (0 when off or clean)."""
    if verify is None:
        return 0
    failures = verify["failures"]
    print(f"verify: {verify['checks_run']} invariant check(s) at level "
          f"'{verify['level']}', {len(failures)} failure(s)", file=sys.stderr)
    for f in failures:
        print(f"verify FAILURE [{f['check']}]: {f['message']}", file=sys.stderr)
    return 1 if failures else 0


def _print_resilience_summary(stats) -> None:
    """One stderr line on retries/escalations/degradation (silent when clean)."""
    if not (stats.n_retries or stats.n_escalations or stats.n_degraded_solves):
        return
    stages = ", ".join(f"{k}: {v}" for k, v in sorted(stats.stage_counts.items()))
    line = (f"resilience: {stats.n_retries} retried solve attempt(s), "
            f"{stats.n_escalations} escalated solve(s)")
    if stages:
        line += f" [{stages}]"
    if stats.n_degraded_solves:
        line += (f"; {stats.n_degraded_solves} degraded solve(s), "
                 f"error bound {stats.degraded_error_bound:.3e}")
    print(line, file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
