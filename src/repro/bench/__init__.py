"""Benchmark harness: Dolan-Moré performance profiles, scheme runner
(measured + modeled timing) and the per-figure experiment definitions.

Wall-clock regressions are judged by the ladder
(``benchmarks/ladder/run.py`` + ``compare.py``), not by this package."""

from .experiments import (
    DensityGridResult,
    ScalingResult,
    bc_cases,
    fig07_density_grid,
    fig08_tc_profiles,
    fig09_tc_vs_ssgb,
    fig10_tc_rmat_scaling,
    fig11_measured_threads,
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
    measured_seconds,
    modeled_seconds,
    run_cases,
    scheme_by_name,
)

__all__ = [
    "DensityGridResult",
    "ScalingResult",
    "bc_cases",
    "fig07_density_grid",
    "fig08_tc_profiles",
    "fig09_tc_vs_ssgb",
    "fig10_tc_rmat_scaling",
    "fig11_measured_threads",
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
    "modeled_seconds",
    "run_cases",
    "scheme_by_name",
]
