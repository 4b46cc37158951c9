"""CLI for the differential self-verification harness.

    python -m repro.verify                 # full matrix + fault injection
    python -m repro.verify --quick         # covering subset (CI smoke)
    python -m repro.verify --level full    # run under full-level invariants
    python -m repro.verify --out report.json

Exit status 0 when every configuration matches the dense oracle within the
pinned tolerance with zero invariant failures AND every planted fault was
caught; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.verify.harness import run_harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential self-verification: run the Krylov RPA "
                    "pipeline across the backend/feature matrix on a tiny "
                    "grid, cross-check against the dense Adler-Wiser oracle, "
                    "and prove the invariant checks catch planted faults.",
    )
    parser.add_argument("--level", choices=("cheap", "full"), default="cheap",
                        help="invariant-check level installed for every run")
    parser.add_argument("--quick", action="store_true",
                        help="run a 10-cell covering subset instead of the "
                             "full 17-cell matrix")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the fault-injection phase")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here (stdout otherwise)")
    args = parser.parse_args(argv)

    report = run_harness(level=args.level, quick=args.quick,
                         include_faults=not args.no_faults,
                         log=lambda msg: print(msg, file=sys.stderr))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)

    n_cfg = len(report["configs"])
    n_cfg_ok = sum(r["ok"] for r in report["configs"])
    n_faults = len(report["fault_injection"])
    n_caught = sum(r["caught"] for r in report["fault_injection"])
    print(f"verify harness: {n_cfg_ok}/{n_cfg} configurations ok, "
          f"{n_caught}/{n_faults} planted faults caught -> "
          f"{'PASS' if report['ok'] else 'FAIL'}", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
