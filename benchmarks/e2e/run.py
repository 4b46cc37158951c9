#!/usr/bin/env python3
"""One repeatable end-to-end benchmark for the RPA sweep.

    python3 benchmarks/e2e/run.py --workload si8_perorbital --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload si8_perorbital --trace 1
    python3 -m benchmarks.e2e.run --repeatability
    python3 benchmarks/e2e/run.py --workload si8_perorbital --smoke

One invocation is one workload in one fresh process. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones; the last line of standard
output is the machine-readable result. Exit status is non-zero when an
operation failed or a check did not hold. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Runs per set of --repeatability: the ten the acceptance rule is stated for.
RUNS_PER_SET = 10


def bootstrap() -> dict:
    """Pin BLAS to one thread, then make ``repro`` and this package
    importable from the checkout. Returns the pin as the machine block
    records it, with whether it came before numpy was imported (the only
    time it has any effect)."""
    early = "numpy" not in sys.modules
    for key in BLAS_ENV:
        os.environ[key] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {src}; the benchmark runs "
                 f"from a checkout of the repository")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return {"blas_env": {key: os.environ[key] for key in BLAS_ENV},
            "blas_pinned_before_numpy": early}


def stop_children() -> None:
    """Leave no process behind, on every path out of a run.

    The SPMD backend joins its workers itself, but its first shared-memory
    segment starts ``multiprocessing``'s resource tracker, which by design
    outlives its parent: it only ends once the parent's end of its pipe is
    closed at interpreter exit, and nobody waits for it. ``_stop`` closes
    that pipe and waits. Workers still alive here (a sweep was interrupted)
    are terminated and joined first, since they hold the pipe open too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def run_workload(args, pin: dict) -> int:
    from benchmarks.e2e import ladder, machine, timed
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = args.workload + (".smoke" if args.smoke else "")
    if args.trace:
        record = ladder.run(workload, args.seed, args.smoke, OUT / f"{stem}.trace.jsonl")
        record_path = OUT / f"{stem}.trace.json"
    else:
        record = timed.run(workload, args.seed, args.seconds, args.smoke)
        record_path = OUT / f"{stem}.json"
    record = {"schema": 1, **record, "machine": {**pin, **machine.machine_block()}}
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {record['workload']}  seed {record['seed']}  {record['mode']} run"
          f"{'  [smoke]' if args.smoke else ''}")
    for name, metric in record["metrics"].items():
        extra = ""
        if name in ("sweep_wall_s", "setup_s"):
            d = record[name]
            extra = f"  median of n={d['n']}, min {d['min']:.4f}, max {d['max']:.4f}"
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}{extra}")
    print(f"  ops_attempted {record['ops_attempted']}  ops_failed {record['ops_failed']}  "
          f"energy pin {'applied' if record['pin_applied'] else 'NOT applied'}")
    for why in record["failures"]:
        print(f"  FAILED: {why}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["ops_attempted"],
                      "failed": record["ops_failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the acceptance rule);
    0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def repeatability(args, pin: dict) -> int:
    """Two alternating sets (A, B) of ``RUNS_PER_SET`` runs per workload on
    this checkout, run ``i`` of each set with seed ``i + 1``: per end-to-end
    pair the relative difference of the set medians and the spread of each
    set, next to the bound. Both must stay within it."""
    from benchmarks.e2e import machine

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {s: {m: [] for m in bounds} for s in "AB"} for w in names}
    for i in range(RUNS_PER_SET):
        for side in "AB":
            for name in names:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(i + 1), "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                if done.returncode:
                    sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stdout}{done.stderr}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                for metric, got in result["metrics"].items():
                    values[name][side][metric].append(got["value"])
                print(f"run {i + 1}/{RUNS_PER_SET} set {side} {name}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                    flush=True)
    rows, ok = [], True
    for name in names:
        for metric, meta in bounds.items():
            a, b = values[name]["A"][metric], values[name]["B"][metric]
            worse = (median(b) - median(a)) / median(a)
            if meta["better"] == "higher":
                worse = -worse
            row = {"workload": name, "metric": metric, "unit": meta["unit"],
                   "bound": meta["bound"], "median_a": median(a), "median_b": median(b),
                   "b_worse_than_a": worse, "spread_a": spread(a), "spread_b": spread(b),
                   "values_a": a, "values_b": b}
            row["within_bound"] = max(
                abs(worse), row["spread_a"], row["spread_b"]) <= meta["bound"]
            ok &= row["within_bound"]
            rows.append(row)
            print(f"{name:<18} {metric:<13} A {row['median_a']:.4f} B {row['median_b']:.4f} "
                  f"diff {worse:+.2%}  spread A {row['spread_a']:.2%} "
                  f"B {row['spread_b']:.2%}  bound {meta['bound']:.0%}  "
                  f"{'ok' if row['within_bound'] else 'EXCEEDED'}")
    OUT.mkdir(exist_ok=True)
    path = OUT / "repeatability.json"
    path.write_text(json.dumps({"schema": 1, "runs_per_set": RUNS_PER_SET,
                                "seconds": args.seconds, "rows": rows,
                                "machine": {**pin, **machine.machine_block()}},
                               indent=1) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    pin = bootstrap()
    from benchmarks.e2e.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed window; at least 3 sweeps run however long they take")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="same code paths on the toy cell / an 8^3 dimer, seconds long")
    ap.add_argument("--repeatability", action="store_true")
    args = ap.parse_args(argv)
    if args.repeatability:
        return repeatability(args, pin)
    if args.workload is None:
        ap.error("--workload is required")
    # A SIGTERM becomes SystemExit so that the ``finally`` below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_workload(args, pin)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
