"""Tests for the benchmark harness: performance profiles, reporting,
scheme runner and (smoke-level) the per-figure experiments."""

import math

import numpy as np
import pytest

from repro.bench import (
    ALL_SCHEMES,
    OUR_SCHEMES,
    OUR_SCHEMES_1P,
    SSGB_SCHEMES,
    measured_seconds,
    modeled_seconds,
    performance_profile,
    render_grid,
    render_profile,
    render_series,
    render_table,
    run_cases,
    scheme_by_name,
    tc_cases,
)
from repro.graphs import erdos_renyi_graph
from repro.machine import HASWELL


class TestPerformanceProfile:
    def test_basic_profile(self):
        times = {
            "fast": {"c1": 1.0, "c2": 2.0},
            "slow": {"c1": 2.0, "c2": 8.0},
        }
        p = performance_profile(times)
        assert p.fraction_best("fast") == 1.0
        assert p.fraction_best("slow") == 0.0
        # slow is within 2x on c1 only
        rho = p.rho("slow")
        assert rho[0] == 0.0
        assert rho[-1] == 1.0

    def test_ties_count_for_both(self):
        times = {"a": {"c": 1.0}, "b": {"c": 1.0}}
        p = performance_profile(times)
        assert p.fraction_best("a") == 1.0
        assert p.fraction_best("b") == 1.0

    def test_inf_for_unsupported(self):
        times = {"a": {"c1": 1.0, "c2": 1.0}, "b": {"c1": 2.0, "c2": float("inf")}}
        p = performance_profile(times)
        assert p.fraction_best("b") == 0.0
        assert p.rho("b")[-1] <= 0.5

    def test_ranking_by_area(self):
        times = {
            "best": {"c1": 1.0, "c2": 1.0},
            "mid": {"c1": 1.5, "c2": 1.5},
            "worst": {"c1": 10.0, "c2": 10.0},
        }
        p = performance_profile(times)
        assert p.ranking() == ["best", "mid", "worst"]

    def test_rejects_all_inf_case(self):
        with pytest.raises(ValueError, match="no finite"):
            performance_profile({"a": {"c": float("inf")}})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            performance_profile({"a": {"c": 0.0}})

    def test_monotone_curves(self):
        rng = np.random.default_rng(0)
        times = {
            f"s{i}": {f"c{j}": float(rng.random() + 0.1) for j in range(20)}
            for i in range(5)
        }
        p = performance_profile(times)
        for s in p.schemes:
            rho = p.rho(s)
            assert np.all(np.diff(rho) >= 0)
            assert 0 <= rho[0] <= 1 and rho[-1] <= 1


class TestReporting:
    def test_render_table(self):
        out = render_table(["x", "y"], [[1, 2.5], ["a", 3e-7]], title="T")
        assert "T" in out and "x" in out and "2.5" in out and "3.000e-07" in out

    def test_render_profile(self):
        p = performance_profile({"a": {"c": 1.0}, "b": {"c": 3.0}})
        out = render_profile(p, title="profiles")
        assert "profiles" in out
        assert "tau=1" in out
        assert "a" in out and "b" in out

    def test_render_series_handles_nan(self):
        out = render_series("x", [1, 2], {"s": [1.0, float("nan")]})
        assert "-" in out

    def test_render_grid(self):
        out = render_grid("r", "c", [1, 2], [3, 4], {(1, 3): "A", (2, 4): "B"})
        assert "A" in out and "B" in out and "?" in out


class TestSchemes:
    def test_fourteen_schemes_like_the_paper(self):
        # 12 ours (6 algorithms x 1P/2P) + 2 SS:GB
        assert len(OUR_SCHEMES) == 12
        assert len(SSGB_SCHEMES) == 2
        assert len(ALL_SCHEMES) == 14
        assert len(OUR_SCHEMES_1P) == 6

    def test_scheme_names(self):
        names = {s.name for s in ALL_SCHEMES}
        for expect in ("MSA-1P", "MSA-2P", "Inner-1P", "Hash-2P", "MCA-1P",
                       "Heap-1P", "HeapDot-2P", "SS:DOT", "SS:SAXPY"):
            assert expect in names

    def test_scheme_by_name(self):
        s = scheme_by_name("MSA-1P")
        assert s.algo == "msa" and s.phases == 1

    def test_complement_support_flags(self):
        assert not scheme_by_name("Inner-1P").supports_complement
        assert not scheme_by_name("MCA-2P").supports_complement
        assert scheme_by_name("MSA-1P").supports_complement
        assert scheme_by_name("Heap-1P").supports_complement


class TestRunner:
    @pytest.fixture(scope="class")
    def cases(self):
        g = erdos_renyi_graph(64, 5, seed=1)
        return tc_cases({"g64": g})

    def test_modeled_seconds_positive(self, cases):
        for s in ALL_SCHEMES:
            t = modeled_seconds(s, cases["g64"], machine=HASWELL)
            assert t > 0 and math.isfinite(t)

    def test_measured_seconds_positive(self, cases):
        t = measured_seconds(scheme_by_name("MSA-1P"), cases["g64"])
        assert t > 0

    def test_modeled_threads_speedup(self, cases):
        s = scheme_by_name("MSA-1P")
        t1 = modeled_seconds(s, cases["g64"], threads=1)
        t8 = modeled_seconds(s, cases["g64"], threads=8)
        assert t8 < t1

    def test_run_cases_model(self, cases):
        times = run_cases(cases, OUR_SCHEMES_1P, mode="model")
        assert set(times) == {s.name for s in OUR_SCHEMES_1P}
        for row in times.values():
            assert set(row) == {"g64"}
            assert row["g64"] > 0

    def test_run_cases_measured_subset(self, cases):
        fast = [s for s in OUR_SCHEMES_1P if s.fast]
        times = run_cases(cases, fast, mode="measured")
        for row in times.values():
            assert row["g64"] > 0

    def test_complement_cases_get_inf(self):
        from repro.bench import bc_cases

        g = erdos_renyi_graph(48, 4, seed=2)
        cases = bc_cases({"g": g}, batch_size=8)
        times = run_cases(cases, [scheme_by_name("Inner-1P"),
                                  scheme_by_name("MSA-1P")], mode="model")
        assert times["Inner-1P"]["g"] == float("inf")
        assert math.isfinite(times["MSA-1P"]["g"])

    def test_bad_mode(self, cases):
        with pytest.raises(ValueError, match="mode"):
            run_cases(cases, OUR_SCHEMES_1P, mode="psychic")


class TestExperimentSmoke:
    """Tiny-size smoke runs of each figure experiment (full-size runs live
    in benchmarks/)."""

    def test_fig07(self):
        from repro.bench import fig07_density_grid

        res = fig07_density_grid(n=256, degrees=(1, 8, 32))
        assert len(res.winners) == 9
        assert res.winner_set() <= {s.name for s in OUR_SCHEMES_1P}

    def test_fig08(self):
        from repro.bench import fig08_tc_profiles

        prof = fig08_tc_profiles(suite=["er-sparse-s", "er-mid-s"])
        assert len(prof.cases) == 2

    def test_fig10(self):
        from repro.bench import fig10_tc_rmat_scaling

        res = fig10_tc_rmat_scaling(scales=(5, 6))
        assert all(len(v) == 2 for v in res.series.values())

    def test_fig11(self):
        from repro.bench import fig11_tc_strong_scaling

        res = fig11_tc_strong_scaling(scale=7, thread_counts=[1, 2, 4])
        for curve in res.series.values():
            assert curve[0] == pytest.approx(1.0)

    def test_fig15_nan_for_inner(self):
        from repro.bench import fig15_bc_rmat_scaling
        from repro.bench.runner import scheme_by_name as by_name

        res = fig15_bc_rmat_scaling(
            scales=(5,), batch_size=4,
            schemes=[by_name("Inner-1P"), by_name("MSA-1P")],
        )
        assert math.isnan(res.series["Inner-1P"][0])
        assert math.isfinite(res.series["MSA-1P"][0])


class TestCLI:
    def test_cli_single_figure(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["--figure", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Inner-1P" in out

    def test_cli_requires_figure_or_all(self):
        from repro.bench.__main__ import main

        for argv in ([], ["--baseline", "x.json"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_cli_machine_option(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["--figure", "11", "--machine", "knl"])
        assert rc == 0
        assert "knl" in capsys.readouterr().out


class TestJSONPersistence:
    def test_roundtrip(self, tmp_path):
        import numpy as np

        from repro.bench import load_json, save_json

        payload = {
            "series": {"MSA-1P": [1.0, np.float64(2.5), float("nan")]},
            ("grid", 3): "winner",
            "arr": np.arange(3),
        }
        path = tmp_path / "result.json"
        save_json(path, payload)
        back = load_json(path)
        assert back["series"]["MSA-1P"][:2] == [1.0, 2.5]
        assert back["series"]["MSA-1P"][2] is None  # NaN -> null
        assert back["grid,3"] == "winner"
        assert back["arr"] == [0, 1, 2]

    def test_experiment_payload(self, tmp_path):
        from repro.bench import (
            fig07_density_grid,
            load_json,
            save_json,
        )

        res = fig07_density_grid(n=128, degrees=(1, 8))
        path = tmp_path / "fig7.json"
        save_json(path, {"winners": res.winners, "n": res.n})
        back = load_json(path)
        assert back["n"] == 128
        assert len(back["winners"]) == 4
