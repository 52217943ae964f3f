"""Benchmark harness: Dolan-Moré performance profiles, scheme runner
(measured + modeled timing), the per-figure experiment definitions, and
the append-only benchmark history store with its statistical regression
gate (:mod:`repro.bench.history` / :mod:`repro.bench.regress`)."""

from .experiments import (
    DensityGridResult,
    ScalingResult,
    bc_cases,
    fig07_density_grid,
    fig08_tc_profiles,
    fig09_tc_vs_ssgb,
    fig10_tc_rmat_scaling,
    fig11_tc_strong_scaling,
    fig12_ktruss_profiles,
    fig13_ktruss_vs_ssgb,
    fig14_ktruss_rmat_scaling,
    fig15_bc_rmat_scaling,
    fig16_bc_profiles,
    ktruss_cases,
    tc_cases,
)
from .perfprofile import PerformanceProfile, performance_profile
from .reporting import (
    load_json,
    render_grid,
    render_profile,
    render_series,
    render_table,
    save_figure_json,
    save_json,
)
from .runner import (
    ALL_SCHEMES,
    FAST_SCHEMES,
    OUR_SCHEMES,
    OUR_SCHEMES_1P,
    SSGB_SCHEMES,
    Scheme,
    measured_sample_seconds,
    measured_seconds,
    modeled_seconds,
    run_cases,
    scheme_by_name,
)

#: re-exported on first use: ``history`` and ``regress`` are also ``python
#: -m`` commands, and an eager import here would put them in ``sys.modules``
#: before runpy executes them as ``__main__``
_HISTORY = ("append_run", "collect_run", "env_fingerprint", "latest_run",
            "load_history", "pinned_cases", "write_run")
_REGRESS = ("compare_runs", "render_report")


def __getattr__(name):
    if name in _HISTORY:
        from . import history as module
    elif name in _REGRESS:
        from . import regress as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "DensityGridResult",
    "ScalingResult",
    "bc_cases",
    "fig07_density_grid",
    "fig08_tc_profiles",
    "fig09_tc_vs_ssgb",
    "fig10_tc_rmat_scaling",
    "fig11_tc_strong_scaling",
    "fig12_ktruss_profiles",
    "fig13_ktruss_vs_ssgb",
    "fig14_ktruss_rmat_scaling",
    "fig15_bc_rmat_scaling",
    "fig16_bc_profiles",
    "ktruss_cases",
    "tc_cases",
    "PerformanceProfile",
    "performance_profile",
    "load_json",
    "save_json",
    "save_figure_json",
    "render_grid",
    "render_profile",
    "render_series",
    "render_table",
    "ALL_SCHEMES",
    "FAST_SCHEMES",
    "OUR_SCHEMES",
    "OUR_SCHEMES_1P",
    "SSGB_SCHEMES",
    "Scheme",
    "measured_seconds",
    "measured_sample_seconds",
    "modeled_seconds",
    "run_cases",
    "scheme_by_name",
    "collect_run",
    "append_run",
    "write_run",
    "load_history",
    "latest_run",
    "pinned_cases",
    "env_fingerprint",
    "compare_runs",
    "render_report",
]
