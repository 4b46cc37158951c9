"""Performance-regression tracking over the telemetry stack.

``python -m repro.obs.regress`` runs a pinned toy-system RPA benchmark
(recycling on, Sternheimer tolerance tightened so energies are
solver-converged), collects matvec counts, per-kernel
wall-clock from the tracer's Fig. 5 buckets, peak RSS from
:class:`repro.obs.memory.MemorySampler` and the correlation energy, then:

* appends the record to the ``BENCH_telemetry.json`` trajectory, and
* compares it against the committed baseline
  (``BENCH_telemetry_baseline.json``), exiting nonzero on regression.

Thresholds are noise-aware: matvec counts are deterministic so the gate is
tight (>10 % more matvecs fails); wall-clock varies across machines so
only a gross slowdown (>25 %) fails; energies must agree to 1e-6 Ha/atom.
Peak RSS is recorded but informational. Seed or refresh the baseline with
``--update-baseline``; ``--disable-recycling`` deliberately plants a
matvec regression past the 10 % gate (about +20 % on the quick toy run:
the recycle cache is the hot-path optimisation this gate protects) and is
how the gate itself is tested.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config import RPAConfig
from repro.obs.export import git_revision
from repro.obs.memory import MemorySampler
from repro.obs.tracer import FIG5_KERNELS, Tracer, use_tracer

SCHEMA = 1

DEFAULT_OUTPUT = "BENCH_telemetry.json"
DEFAULT_BASELINE = "BENCH_telemetry_baseline.json"

#: Regression gates (ratios vs baseline; energy in Ha/atom).
MATVEC_TOLERANCE = 0.10
WALL_TOLERANCE = 0.25
ENERGY_TOLERANCE = 1e-6

#: Pinned benchmark configurations. Matvec counts are deterministic for a
#: fixed (mode, recycling) pair, which is what makes the 10 % gate safe.
MODES = {
    "quick": dict(n_eig=16, n_quadrature=4),
    "full": dict(n_eig=24, n_quadrature=8),
}
TOL_STERNHEIMER = 1e-6
SEED = 1


def benchmark_config(mode: str, disable_recycling: bool = False) -> RPAConfig:
    """The pinned benchmark configuration for ``mode``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    cfg = RPAConfig(seed=SEED, tol_sternheimer=TOL_STERNHEIMER,
                    use_recycling=not disable_recycling,
                    telemetry_level="summary", **MODES[mode])
    return cfg


def build_benchmark_system():
    """The CLI's toy system (4 electrons, 6^3 grid) — small but end-to-end."""
    from repro.cli import build_system
    from repro.dft import run_scf
    from repro.grid import CoulombOperator

    crystal, grid, scf_kwargs, _ = build_system("toy")
    dft = run_scf(crystal, grid, **scf_kwargs)
    return dft, CoulombOperator(grid, radius=scf_kwargs["radius"])


def run_benchmark(mode: str = "full", disable_recycling: bool = False) -> dict:
    """Run the pinned benchmark once; returns the regression record."""
    from repro.core import compute_rpa_energy

    config = benchmark_config(mode, disable_recycling=disable_recycling)
    dft, coulomb = build_benchmark_system()

    tracer = Tracer()
    with use_tracer(tracer), MemorySampler() as mem:
        t0 = time.perf_counter()
        result = compute_rpa_energy(dft, config, coulomb=coulomb)
        wall = time.perf_counter() - t0

    buckets = tracer.metrics()["buckets"]
    telemetry = result.telemetry or {}
    return {
        "schema": SCHEMA,
        "benchmark": "telemetry_regress",
        "mode": mode,
        "system": dft.crystal.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": git_revision(Path(__file__).resolve().parent),
        "recycling": not disable_recycling,
        "n_eig": config.n_eig,
        "n_quadrature": config.n_quadrature,
        "tol_sternheimer": config.tol_sternheimer,
        "matvecs": int(result.stats.n_matvec),
        "wall_seconds": wall,
        "kernel_seconds": {k: buckets[k] for k in FIG5_KERNELS if k in buckets},
        "peak_rss_mb": mem.peak_mb,
        "energy_ha": float(result.energy),
        "energy_per_atom_ha": float(result.energy_per_atom),
        "converged": bool(result.converged),
        "telemetry_counters": dict(telemetry.get("counters", {})),
    }


def compare(record: dict, baseline: dict) -> list[str]:
    """Regression messages for ``record`` vs ``baseline`` (empty = pass)."""
    failures: list[str] = []

    base_mv, mv = baseline.get("matvecs"), record.get("matvecs")
    if base_mv and mv is not None:
        ratio = mv / base_mv
        if ratio > 1.0 + MATVEC_TOLERANCE:
            failures.append(
                f"matvec regression: {mv} vs baseline {base_mv} "
                f"(+{100.0 * (ratio - 1.0):.1f}%, gate "
                f"+{100.0 * MATVEC_TOLERANCE:.0f}%)"
            )

    base_w, w = baseline.get("wall_seconds"), record.get("wall_seconds")
    if base_w and w is not None:
        ratio = w / base_w
        if ratio > 1.0 + WALL_TOLERANCE:
            failures.append(
                f"wall-clock regression: {w:.2f}s vs baseline {base_w:.2f}s "
                f"(+{100.0 * (ratio - 1.0):.1f}%, gate "
                f"+{100.0 * WALL_TOLERANCE:.0f}%)"
            )

    base_e = baseline.get("energy_per_atom_ha")
    e = record.get("energy_per_atom_ha")
    if base_e is not None and e is not None:
        drift = abs(e - base_e)
        if drift > ENERGY_TOLERANCE:
            failures.append(
                f"energy disagreement: {drift:.3e} Ha/atom vs baseline "
                f"(gate {ENERGY_TOLERANCE:.0e})"
            )

    if not record.get("converged", True):
        failures.append("benchmark run did not converge")
    return failures


def append_trajectory(path: Path, record: dict) -> None:
    """Append ``record`` to the trajectory file (created on first use)."""
    trajectory = {"schema": SCHEMA, "benchmark": "telemetry_regress",
                  "records": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("records"), list):
                trajectory = loaded
        except json.JSONDecodeError:
            pass  # corrupted trajectory: start fresh rather than crash CI
    trajectory["records"].append(record)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")


def load_baseline(path: Path, mode: str) -> dict | None:
    """The committed baseline record for ``mode`` (None when absent)."""
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return payload.get(mode)


def write_baseline(path: Path, record: dict) -> None:
    """Install ``record`` as the baseline for its mode, keeping other modes."""
    payload: dict = {"schema": SCHEMA}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                payload = loaded
        except json.JSONDecodeError:
            pass
    payload[record["mode"]] = record
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Run the pinned telemetry benchmark and fail on "
                    "performance regression vs the committed baseline.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized configuration (n_eig=16, 4-point "
                             "quadrature) instead of the full benchmark")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, metavar="FILE",
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--output", default=DEFAULT_OUTPUT, metavar="FILE",
                        help=f"trajectory file to append to "
                             f"(default: {DEFAULT_OUTPUT})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="install this run as the new baseline for the "
                             "selected mode (no comparison)")
    parser.add_argument("--disable-recycling", action="store_true",
                        help="run without the recycle cache — plants a "
                             "deliberate matvec regression to exercise the gate")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    print(f"regress: running pinned '{mode}' benchmark "
          f"(recycling {'off' if args.disable_recycling else 'on'})...",
          file=sys.stderr)
    record = run_benchmark(mode, disable_recycling=args.disable_recycling)
    line = (f"regress: {record['matvecs']} matvecs, "
            f"{record['wall_seconds']:.2f}s wall, "
            f"E = {record['energy_per_atom_ha']:+.9e} Ha/atom")
    if record["peak_rss_mb"] is not None:
        line += f", peak RSS {record['peak_rss_mb']:.0f} MB"
    print(line, file=sys.stderr)

    output = Path(args.output)
    append_trajectory(output, record)
    print(f"regress: appended record to {output}", file=sys.stderr)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        write_baseline(baseline_path, record)
        print(f"regress: baseline for mode '{mode}' updated in {baseline_path}",
              file=sys.stderr)
        return 0

    baseline = load_baseline(baseline_path, mode)
    if baseline is None:
        print(f"regress: no baseline for mode '{mode}' in {baseline_path}; "
              "seed one with --update-baseline", file=sys.stderr)
        return 2

    failures = compare(record, baseline)
    if failures:
        for f in failures:
            print(f"regress FAILURE: {f}", file=sys.stderr)
        return 1
    print(f"regress: PASS vs baseline {baseline.get('git_rev', '?')[:12]} "
          f"({baseline['matvecs']} matvecs, {baseline['wall_seconds']:.2f}s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
