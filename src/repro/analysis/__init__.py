"""Result aggregation, comparison sweeps, and report rendering."""

from repro.analysis.critical_path import (
    CriticalPath,
    critical_path,
    longest_path_times,
    render_critical_path,
    walk_bindings,
)
from repro.analysis.autotune import (
    autotune_summary,
    render_autotune,
    render_autotune_comparison,
)
from repro.analysis.export import to_chrome_trace, write_chrome_trace
from repro.analysis.compare import (
    ConfigResult,
    paper_configurations,
    run_configuration,
    speedups,
    sweep_configurations,
)
from repro.analysis.gantt import exposed_waits, render_gantt
from repro.analysis.sweep import (
    SweepJob,
    SweepRecord,
    build_grid,
    record_speedups,
    records_by_model,
    resolve_model,
    run_sweep,
)
from repro.analysis.layer_report import (
    LayerProfile,
    profile_layers,
    render_layer_report,
    top_layers,
)
# The SPM audit lives in the verifier now (repro.verify.spm); keep the
# historical re-export so `from repro.analysis import audit_spm` works.
from repro.verify.spm import (
    SpmUsage,
    SpmViolation,
    audit_spm,
    peak_spm_per_core,
)
from repro.analysis.profiles import (
    PartitioningProfile,
    RegionSummary,
    partitioning_profile,
    region_summary,
    table4_profiles,
)
from repro.analysis.faults import (
    degradation_summary,
    render_degradation_table,
)
from repro.analysis.fleet import (
    fleet_summary,
    render_fleet_table,
    render_router_comparison,
    write_fleet_report,
)
from repro.analysis.serving import (
    render_serving_table,
    serving_summary,
    write_serving_report,
)
from repro.analysis.tables import format_kb, format_speedup, format_table, format_us

__all__ = [
    "ConfigResult",
    "CriticalPath",
    "critical_path",
    "longest_path_times",
    "render_critical_path",
    "walk_bindings",
    "PartitioningProfile",
    "LayerProfile",
    "RegionSummary",
    "SpmUsage",
    "SpmViolation",
    "audit_spm",
    "peak_spm_per_core",
    "degradation_summary",
    "exposed_waits",
    "fleet_summary",
    "format_kb",
    "format_speedup",
    "format_table",
    "format_us",
    "paper_configurations",
    "partitioning_profile",
    "region_summary",
    "render_degradation_table",
    "render_gantt",
    "render_layer_report",
    "profile_layers",
    "top_layers",
    "render_fleet_table",
    "render_router_comparison",
    "render_serving_table",
    "run_configuration",
    "write_fleet_report",
    "run_sweep",
    "serving_summary",
    "write_serving_report",
    "record_speedups",
    "records_by_model",
    "resolve_model",
    "speedups",
    "sweep_configurations",
    "SweepJob",
    "SweepRecord",
    "build_grid",
    "table4_profiles",
    "to_chrome_trace",
    "write_chrome_trace",
    "autotune_summary",
    "render_autotune",
    "render_autotune_comparison",
]
