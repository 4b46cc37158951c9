"""Render paper-style performance reports from exported trace files.

Usage (command line)::

    python -m repro.obs.report run.trace.jsonl
    python -m repro.obs.report run.chrome.json --domain virtual
    python -m repro.obs.report run.trace.jsonl --all

Reads a JSONL event stream (the ``--trace`` output) or a Chrome
``trace_event`` file and reproduces the paper's Figure 5-style per-kernel
timing breakdown — from the trace file alone, with no access to the run's
in-memory timers — rendered through
:func:`repro.analysis.reporting.format_table`.

Aggregation semantics: span durations are summed per ``(kernel, domain,
rank)`` and the slowest rank's total is reported per kernel — exactly how
an MPI program's per-kernel walltime is governed by its slowest rank. For
serial (wall-clock) traces there is a single implicit rank, so the value
is the plain bucket total.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.obs.export import read_chrome_trace, read_jsonl, read_telemetry
from repro.obs.tracer import FIG5_KERNELS


def load_events(path: str | Path) -> list[dict]:
    """Load internal event records from a JSONL stream or Chrome trace file."""
    path = Path(path)
    with open(path) as fh:
        head = fh.read(4096).lstrip()
    if not head:
        return []
    first_line = head.splitlines()[0]
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and first.get("type") == "trace_header":
        events, _ = read_jsonl(path)
        return events
    return read_chrome_trace(path)


def load_summary(path: str | Path) -> dict:
    """Load the final ``summary`` record of a JSONL stream (empty if absent)."""
    path = Path(path)
    try:
        _, summary = read_jsonl(path)
    except (json.JSONDecodeError, KeyError, ValueError, AttributeError, OSError):
        # Chrome trace files (one big JSON array) have no summary record.
        return {}
    return summary


#: Counter names the solve-recycling layer emits (in display order).
RECYCLE_COUNTERS = (
    "recycle_hits",
    "recycle_omega_seeds",
    "recycle_misses",
    "recycle_stores",
    "recycle_rotations",
    "galerkin_guess_singular_skips",
)


#: Gauges worth summarizing in the recycle table (min/max/mean/count).
RECYCLE_GAUGES = ("recycle_guess_residual",)


def recycle_table(summary: dict) -> str | None:
    """Solve-recycling counter table from a trace's summary record.

    Returns None when the run had no recycling activity,
    so cold traces render exactly as before. When the summary carries
    ``gauge_stats`` (newer traces), gauges like ``recycle_guess_residual``
    render as min/max/mean/count aggregate rows instead of a misleading
    last-value sample.
    """
    counters = summary.get("counters", {})
    present = [(name, counters[name]) for name in RECYCLE_COUNTERS
               if name in counters]
    if not present:
        return None
    rows = [[name, int(value)] for name, value in present]
    served = counters.get("recycle_hits", 0) + counters.get("recycle_omega_seeds", 0)
    looked_up = served + counters.get("recycle_misses", 0)
    if looked_up:
        rows.append(["guess_serve_rate", f"{100.0 * served / looked_up:.1f}%"])
    gauge_stats = summary.get("gauge_stats", {})
    for gauge in RECYCLE_GAUGES:
        st = gauge_stats.get(gauge)
        if not st or not st.get("count"):
            continue
        mean = st.get("mean", st["sum"] / st["count"])
        rows.append([f"{gauge}.min", f"{st['min']:.3e}"])
        rows.append([f"{gauge}.mean", f"{mean:.3e}"])
        rows.append([f"{gauge}.max", f"{st['max']:.3e}"])
        rows.append([f"{gauge}.count", int(st["count"])])
    return format_table(["counter", "value"], rows,
                        title="Sternheimer solve recycling")


def kernel_breakdown(events: list[dict], kernels: tuple[str, ...] | None = None,
                     domain: str | None = None) -> dict[str, dict]:
    """Per-kernel ``{"seconds", "count", "per_rank"}`` from span events.

    ``seconds`` is the slowest rank's accumulated time for that kernel
    (ranks collapse to one group for serial traces); ``per_rank`` maps
    ``(domain, rank) -> seconds``. ``kernels=None`` keeps every span name.
    """
    grouped: dict[str, dict[tuple[str, int], float]] = {}
    counts: dict[str, int] = {}
    for ev in events:
        if ev.get("type") != "span":
            continue
        name = ev["name"]
        if kernels is not None and name not in kernels:
            continue
        if domain is not None and (ev.get("domain") or "wall") != domain:
            continue
        rank = ev.get("rank")
        key = (ev.get("domain") or "wall", 0 if rank is None else int(rank))
        per = grouped.setdefault(name, {})
        per[key] = per.get(key, 0.0) + float(ev.get("dur", 0.0))
        counts[name] = counts.get(name, 0) + 1
    return {
        name: {
            "seconds": max(per.values()),
            "count": counts[name],
            "per_rank": {f"{d}:{r}": v for (d, r), v in sorted(per.items())},
        }
        for name, per in grouped.items()
    }


def breakdown_table(events: list[dict], kernels: tuple[str, ...] | None = FIG5_KERNELS,
                    domain: str | None = None, title: str | None = None) -> str:
    """Figure 5-style kernel breakdown table rendered with ``format_table``."""
    bd = kernel_breakdown(events, kernels=kernels, domain=domain)
    if kernels is None:
        # Widest kernels first keeps the table stable across runs.
        ordered = sorted(bd, key=lambda k: -bd[k]["seconds"])
    else:
        ordered = [k for k in kernels if k in bd]
    total = sum(bd[k]["seconds"] for k in ordered)
    rows = []
    for k in ordered:
        sec = bd[k]["seconds"]
        share = sec / total if total > 0 else 0.0
        rows.append([k, sec, f"{100.0 * share:.1f}%", bd[k]["count"]])
    rows.append(["total", total, "100.0%" if total > 0 else "0.0%",
                 sum(bd[k]["count"] for k in ordered)])
    if title is None:
        title = ("Figure 5-style kernel breakdown "
                 "(seconds; slowest rank per kernel)")
    return format_table(["kernel", "seconds", "share", "spans"], rows, title=title)


# -- HTML report -----------------------------------------------------------------


def _svg_sparkline(values: list[float], width: int = 160, height: int = 36) -> str:
    """Inline SVG polyline of a residual/error history (log scale)."""
    import math

    pts = [math.log10(v) for v in values
           if isinstance(v, (int, float)) and v > 0.0 and math.isfinite(v)]
    if len(pts) < 2:
        return "<svg width='%d' height='%d'></svg>" % (width, height)
    lo, hi = min(pts), max(pts)
    span = (hi - lo) or 1.0
    n = len(pts)
    coords = " ".join(
        f"{(i / (n - 1)) * (width - 4) + 2:.1f},"
        f"{(1.0 - (p - lo) / span) * (height - 6) + 3:.1f}"
        for i, p in enumerate(pts)
    )
    return (f"<svg width='{width}' height='{height}' class='spark'>"
            f"<polyline points='{coords}' fill='none' stroke='#2563eb' "
            f"stroke-width='1.5'/></svg>")


def _html_escape(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _html_table(headers: list[str], rows: list[list], title: str) -> str:
    head = "".join(f"<th>{_html_escape(h)}</th>" for h in headers)
    body = "\n".join(
        "<tr>" + "".join(
            f"<td>{cell if isinstance(cell, str) and cell.startswith('<svg') else _html_escape(cell)}</td>"
            for cell in row) + "</tr>"
        for row in rows
    )
    return (f"<h2>{_html_escape(title)}</h2>\n"
            f"<table><thead><tr>{head}</tr></thead><tbody>\n{body}\n"
            f"</tbody></table>")


#: Counter prefixes surfaced in the HTML run-health section.
HEALTH_COUNTER_GROUPS = ("escalat", "retry", "retried", "degraded", "recycle",
                         "verify", "worker_pool", "solves",
                         "matvecs", "unconverged", "breakdown")


def render_html(events: list[dict], summary: dict, telemetry: dict,
                source: str = "") -> str:
    """Self-contained HTML report: sweep health, sparklines, Fig. 5 table.

    Renders from one trace artifact (events + summary + embedded telemetry
    payload); sections with no data are omitted, so the report degrades
    gracefully on traces from runs with telemetry off.
    """
    sections: list[str] = []

    points = telemetry.get("points", [])
    if points:
        rows = []
        for p in points:
            hist = p.get("error_history") or []
            err = p.get("error")
            rows.append([
                p.get("index", ""),
                f"{p['omega']:.4f}" if p.get("omega") is not None else "-",
                f"{p['seconds']:.2f}" if p.get("seconds") is not None else "-",
                p.get("iterations", "-"),
                p.get("subspace_mode", "-"),
                "yes" if p.get("converged") else "no",
                f"{err:.2e}" if isinstance(err, (int, float)) else "-",
                _svg_sparkline(hist),
            ])
        sections.append(_html_table(
            ["k", "omega", "seconds", "iters", "mode", "converged", "error",
             "residual decay"],
            rows, "Quadrature sweep (per-frequency convergence)"))

    bd = kernel_breakdown(events, kernels=FIG5_KERNELS)
    if bd:
        ordered = [k for k in FIG5_KERNELS if k in bd]
        total = sum(bd[k]["seconds"] for k in ordered)
        rows = [[k, f"{bd[k]['seconds']:.4f}",
                 f"{100.0 * bd[k]['seconds'] / total:.1f}%" if total else "-",
                 bd[k]["count"]] for k in ordered]
        rows.append(["total", f"{total:.4f}", "100.0%",
                     sum(bd[k]["count"] for k in ordered)])
        sections.append(_html_table(
            ["kernel", "seconds", "share", "spans"], rows,
            "Figure 5-style kernel breakdown (slowest rank per kernel)"))

    counters = dict(summary.get("counters", {}))
    for name, value in telemetry.get("counters", {}).items():
        counters[f"telemetry.{name}"] = value
    health_rows = [[name, int(value)] for name, value in sorted(counters.items())
                   if any(tag in name for tag in HEALTH_COUNTER_GROUPS)]
    if health_rows:
        sections.append(_html_table(
            ["counter", "value"], health_rows,
            "Run health (escalations, recycling, verification)"))

    gauge_stats = summary.get("gauge_stats", {})
    if gauge_stats:
        rows = [[name, st["count"], f"{st['min']:.3e}", f"{st['max']:.3e}",
                 f"{st.get('mean', st['sum'] / st['count']):.3e}"]
                for name, st in sorted(gauge_stats.items()) if st.get("count")]
        sections.append(_html_table(
            ["gauge", "count", "min", "max", "mean"], rows,
            "Gauge aggregates"))

    aggregates = telemetry.get("aggregates", [])
    if aggregates:
        rows = [[("-" if a.get("orbital") is None else a["orbital"]),
                 ("-" if a.get("omega") is None else f"{a['omega']:.4f}"),
                 a.get("n_solves", 0), a.get("iterations", 0),
                 a.get("n_matvec", 0), a.get("n_unconverged", 0),
                 a.get("max_attempt", 0),
                 ("-" if a.get("worst_decay_rate") is None
                  else f"{a['worst_decay_rate']:.3f}")]
                for a in aggregates]
        sections.append(_html_table(
            ["orbital", "omega", "solves", "iters", "matvecs", "unconv",
             "max attempt", "worst decay"],
            rows, "Per-(orbital, omega) solve aggregates"))

    body = "\n".join(sections) if sections else "<p>No data in trace.</p>"
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro run report — {_html_escape(source)}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2em; color: #111; }}
h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.05em; margin-top: 1.6em; }}
table {{ border-collapse: collapse; font-size: 0.85em; }}
th, td {{ border: 1px solid #cbd5e1; padding: 0.25em 0.6em; text-align: right; }}
th {{ background: #f1f5f9; }}
td:first-child, th:first-child {{ text-align: left; }}
svg.spark {{ vertical-align: middle; }}
</style></head><body>
<h1>repro run report — {_html_escape(source)}</h1>
{body}
</body></html>
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render the paper's Fig. 5-style kernel breakdown from a "
                    "trace file (JSONL event stream or Chrome trace_event JSON).",
    )
    parser.add_argument("trace", help="trace file written by --trace (JSONL or Chrome JSON)")
    parser.add_argument("--domain", default=None,
                        help="restrict to one timeline: wall | virtual (default: all)")
    parser.add_argument("--all", action="store_true",
                        help="tabulate every span name, not just the Fig. 5 kernels")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="additionally write a self-contained HTML report "
                             "(per-frequency sparklines + kernel breakdown + "
                             "run-health counters) to FILE")
    args = parser.parse_args(argv)

    try:
        events = load_events(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError):
        print(f"error: {args.trace} is not a trace file (expected a JSONL "
              "event stream or Chrome trace_event JSON)", file=sys.stderr)
        return 1
    if not events:
        print(f"no events found in {args.trace}", file=sys.stderr)
        return 1
    kernels = None if args.all else FIG5_KERNELS
    table = breakdown_table(events, kernels=kernels, domain=args.domain,
                            title=f"Figure 5-style kernel breakdown — {args.trace}")
    if not args.all and not any(k in table for k in FIG5_KERNELS):
        print("note: no Fig. 5 kernel spans in this trace; rerun with --all "
              "to list every span name", file=sys.stderr)
    print(table)
    summary = load_summary(args.trace)
    recycle = recycle_table(summary)
    if recycle is not None:
        print()
        print(recycle)
    if args.html:
        try:
            telemetry = read_telemetry(args.trace)
        except (OSError, json.JSONDecodeError):
            telemetry = {}
        html_path = Path(args.html)
        html_path.write_text(render_html(events, summary, telemetry,
                                         source=str(args.trace)))
        print(f"wrote HTML report {html_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
