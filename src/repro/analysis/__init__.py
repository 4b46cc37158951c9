"""Analysis helpers: complexity fits, efficiency metrics, table rendering."""

from repro.analysis.reporting import format_table
from repro.analysis.scaling import fit_power_law, parallel_efficiency, speedup

__all__ = [
    "fit_power_law",
    "parallel_efficiency",
    "speedup",
    "format_table",
]
