"""End-to-end benchmark harness (see README.md in this directory).

Everything here observes ``repro`` from outside: workloads are built through
its public API, per-layer numbers come from spans the harness records around
those calls. Nothing under ``src/`` imports or knows about this package.
"""
