"""ASCII rendering of benchmark results.

The benches print the same *content* as the paper's figures — profile
curves, GFLOPS-vs-scale series, best-scheme grids — as plain-text tables
and sparkline-style rows, so every experiment is reproducible from a
terminal with no plotting stack.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from .perfprofile import PerformanceProfile

__all__ = [
    "render_table",
    "render_profile",
    "render_series",
    "render_grid",
    "save_json",
    "save_figure_json",
    "load_json",
]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], *, title: str = ""
) -> str:
    """Fixed-width table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for r in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1e4 or abs(x) < 1e-3:
            return f"{x:.3e}"
        return f"{x:.4g}"
    return str(x)


def render_profile(profile: PerformanceProfile, *, title: str = "", taus=None) -> str:
    """Profile curves as a table: one row per scheme, columns = rho(tau)."""
    taus = list(taus) if taus is not None else [1.0, 1.25, 1.5, 2.0, 4.0, 8.0]
    grid = np.asarray(taus, dtype=float)
    # re-evaluate rho on the requested taus
    rows = []
    for s in profile.ranking():
        i = profile.schemes.index(s)
        r = profile.ratios[i]
        finite = np.isfinite(r)
        rho = [
            float(np.count_nonzero(r[finite] <= t) / max(1, len(profile.cases)))
            for t in grid
        ]
        rows.append([s] + [f"{v:.2f}" for v in rho])
    headers = ["scheme"] + [f"tau={t:g}" for t in grid]
    return render_table(headers, rows, title=title)


def render_series(
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    fmt: str = "{:.3g}",
) -> str:
    """Line-chart content as a table: one row per scheme, columns = x."""
    headers = [x_label] + [str(x) for x in xs]
    rows = []
    for name in series:
        rows.append([name] + [fmt.format(v) if np.isfinite(v) else "-" for v in series[name]])
    return render_table(headers, rows, title=title)


def render_grid(
    row_label: str,
    col_label: str,
    row_vals: Sequence,
    col_vals: Sequence,
    winners: Dict[tuple, str],
    *,
    title: str = "",
) -> str:
    """Figure-7-style best-scheme grid: rows = input degree, cols = mask
    degree, cells = winning scheme name."""
    headers = [f"{row_label}\\{col_label}"] + [str(c) for c in col_vals]
    rows = []
    for rv in row_vals:
        rows.append([str(rv)] + [winners.get((rv, cv), "?") for cv in col_vals])
    return render_table(headers, rows, title=title)


def save_json(path, payload: dict) -> None:
    """Persist an experiment's raw numbers as JSON (``times`` dicts,
    series, grids).  Tuple keys are flattened to "a,b" strings; NumPy
    scalars/arrays are converted."""
    import json

    def conv(obj):
        if isinstance(obj, dict):
            return {
                (",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                    conv(v)
                for k, v in obj.items()
            }
        if isinstance(obj, (list, tuple)):
            return [conv(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, float) and obj != obj:  # NaN
            return None
        return obj

    with open(path, "w") as fh:
        json.dump(conv(payload), fh, indent=1, allow_nan=False, default=str)


def save_figure_json(path, data, *, title: str = "", rendered: str = "") -> None:
    """The one JSON emitter every figure benchmark shares.

    Wraps an experiment's structured numbers in a uniform envelope —
    ``{"title", "rendered", "data"}`` — so downstream tooling (plotting
    scripts, ad-hoc notebooks) can read any
    ``benchmarks/results/*.json`` without knowing which figure produced
    it.  ``rendered`` carries the ASCII table the `.txt` twin shows; the
    machine-readable truth lives under ``data`` (converted exactly as
    :func:`save_json` converts: tuple keys flattened, NumPy unwrapped).
    """
    save_json(path, {"title": title, "rendered": rendered, "data": data})


def load_json(path) -> dict:
    """Load an experiment payload written by :func:`save_json`."""
    import json

    with open(path) as fh:
        return json.load(fh)
