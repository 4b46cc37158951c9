"""Checks on the harness itself (not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e

Smoke runs go through the command line, one fresh process each, exactly as
the real runs do; only the systems are small.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e.ladder import LADDER, UNEXPLAINED_MAX, UNITS
from benchmarks.e2e.spans import SpanRecorder, busy, self_times
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def smoke(workload: str, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", workload,
         "--smoke", "--seconds", "2", "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    wall = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_timed_run_emits_every_end_to_end_metric(workload):
    result, wall = smoke(workload, trace=0)
    assert wall < 20
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["si8_batched", "si8_spmd2", "dimer20_dirichlet"])
def test_smoke_traced_run_emits_every_per_layer_metric(workload):
    result, wall = smoke(workload, trace=1)
    assert wall < 20
    assert set(result) == RESULT_KEYS and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {n: m["value"] for n, m in result["metrics"].items()}
    if workload == "si8_spmd2":
        assert value["parallel.efficiency"] > 0 and value["dft.h_apply_calls"] == 0
    else:
        assert value["dft.h_apply_calls"] > 0
        # driver_self_s is the residual, so the rows add up by construction;
        # the claim that can fail is that the other rows explain the sweep.
        sweep = value["core.traced_sweep_s"]
        assert sum(value[k] for k in LADDER) == pytest.approx(sweep)
        assert abs(value["core.driver_self_s"]) <= UNEXPLAINED_MAX * sweep
        assert min(value[k] for k in LADDER) >= -0.01 * sweep
    record = json.loads(
        (ROOT / f"benchmarks/e2e/out/{workload}.smoke.trace.json").read_text())
    assert {"nproc", "sched_getaffinity", "blas_env", "numpy", "scipy", "blas",
            "git_revision"} <= set(record["machine"])
    assert set(record["machine"]["blas_env"].values()) == {"1"}
    assert record["machine"]["blas_pinned_before_numpy"]
    spans = [json.loads(line) for line in
             (ROOT / record["spans"]["path"]).read_text().splitlines()]
    assert len(spans) == record["spans"]["n"]
    assert {"id", "name", "start", "end", "parent", "workload"} <= set(spans[0])


@pytest.mark.parametrize("trace", [0, 1])
def test_spmd_run_leaves_no_process_behind(trace):
    """The SPMD workers and multiprocessing's resource tracker (which by
    design outlives its parent) must all have ended when the run exits.
    As the subreaper this process inherits whatever outlives the run, alive
    or not, so there is no race with a survivor that ends a moment later."""
    libc = ctypes.CDLL(None)
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        run = subprocess.Popen(
            [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload",
             "si8_spmd2", "--smoke", "--seconds", "2", "--trace", str(trace)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        _, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        with pytest.raises(ChildProcessError):  # nothing was handed down to us
            os.waitpid(-1, os.WNOHANG)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_benchmark_json_lists_exactly_what_the_harness_prints():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert [m["name"] for m in SPEC["per_layer"]] == list(UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == UNITS
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.20 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert set(LADDER) <= set(UNITS)


def test_every_workload_has_a_pinned_energy_and_failing_findings_are_on_record():
    table = json.loads((ROOT / "benchmarks/e2e/references.json").read_text())
    assert set(table) == set(WORKLOADS)
    findings = json.loads((ROOT / "benchmarks/e2e/findings.json").read_text())
    assert {f["status"] for f in findings} <= {"fails", "recorded"}
    assert any(f["status"] == "fails" for f in findings)


def test_self_time_is_duration_minus_child_covered_time():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end,
                "parent": parent, "workload": "synthetic"}
    spans = [
        span(0, "sweep", 0.0, 10.0, None),
        span(1, "chi0", 1.0, 7.0, 0),
        span(2, "h", 1.5, 2.5, 1),
        span(3, "h", 2.0, 4.0, 1),    # overlaps span 2: covered time counts once
        span(4, "h", 6.0, 8.0, 1),    # runs past its parent: clipped at 7.0
        span(5, "ritz", 8.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(6.0 - 2.5 - 1.0)
    assert own[2] == pytest.approx(1.0) and own[5] == pytest.approx(1.0)
    assert busy(spans, "h") == (3, pytest.approx(5.0))
    assert busy(spans, "h", under=0) == (0, 0)


def test_instance_wrapper_records_nested_spans_and_is_removable():
    class Layer:
        def apply(self, x):
            return x + 1

    rec, layer, other = SpanRecorder("synthetic"), Layer(), Layer()
    rec.wrap(layer, "apply", "layer.apply")
    with rec.span("sweep") as sweep:
        assert layer.apply(1) == 2 and other.apply(1) == 2
    rec.unwrap_all()
    assert layer.apply(1) == 2
    assert [(s["name"], s["parent"]) for s in rec.spans] == [
        ("sweep", None), ("layer.apply", sweep["id"])]
    assert all(s["end"] >= s["start"] for s in rec.spans)
