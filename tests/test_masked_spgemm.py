"""Integration tests: masked SpGEMM across every algorithm / phase /
implementation / complement combination, validated against the scipy oracle
(arithmetic semiring) and against the reference tier (other semirings)."""

import numpy as np
import pytest

from repro.baselines import scipy_masked_spgemm
from repro.core import (
    ALGOS,
    gustavson_spgemm,
    masked_spgemm,
    masked_spgemm_multiply_then_mask,
    masked_spgemm_reference,
    spgemm_saxpy_fast,
    supports_complement,
)
from repro.machine import OpCounter, total_flops
from repro.semiring import MAX_TIMES, MIN_PLUS, PLUS_PAIR, PLUS_TIMES
from repro.sparse import CSR

from .conftest import assert_csr_equal, random_csr

COMPLEMENT_ALGOS = [a for a in ALGOS if supports_complement(a)]


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("impl", ["reference", "auto"])
@pytest.mark.parametrize("phases", [1, 2])
class TestAgainstOracle:
    def test_random_rectangular(self, algo, impl, phases, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm(a, b, m, algo=algo, impl=impl, phases=phases)
        assert_csr_equal(got, want, msg=f"{algo}/{impl}/{phases}P")

    def test_denser_inputs(self, algo, impl, phases):
        a = random_csr(25, 25, 10, seed=31)
        b = random_csr(25, 25, 10, seed=32)
        m = random_csr(25, 25, 5, seed=33)
        want = scipy_masked_spgemm(a, b, m)
        got = masked_spgemm(a, b, m, algo=algo, impl=impl, phases=phases)
        assert_csr_equal(got, want)

    def test_empty_mask(self, algo, impl, phases):
        a = random_csr(10, 10, 3, seed=34)
        b = random_csr(10, 10, 3, seed=35)
        got = masked_spgemm(a, b, CSR.empty((10, 10)), algo=algo, impl=impl,
                            phases=phases)
        assert got.nnz == 0

    def test_empty_inputs(self, algo, impl, phases):
        m = random_csr(10, 10, 3, seed=36)
        got = masked_spgemm(
            CSR.empty((10, 10)), CSR.empty((10, 10)), m,
            algo=algo, impl=impl, phases=phases,
        )
        assert got.nnz == 0

    def test_full_mask_equals_plain_product(self, algo, impl, phases):
        a = random_csr(12, 12, 3, seed=37)
        b = random_csr(12, 12, 3, seed=38)
        full = CSR.from_dense(np.ones((12, 12)))
        want = scipy_masked_spgemm(a, b, full)
        got = masked_spgemm(a, b, full, algo=algo, impl=impl, phases=phases)
        assert_csr_equal(got, want)

    def test_mask_superset_of_output(self, algo, impl, phases):
        # mask entries with no product (Figure 1: mask may contain entries
        # the multiplication never produces)
        a = CSR.from_coo((3, 3), [0], [0], [2.0])
        b = CSR.from_coo((3, 3), [0], [1], [3.0])
        m = CSR.from_dense(np.ones((3, 3)))
        got = masked_spgemm(a, b, m, algo=algo, impl=impl, phases=phases)
        assert got.nnz == 1
        assert got.to_dense()[0, 1] == 6.0


@pytest.mark.parametrize("algo", COMPLEMENT_ALGOS)
@pytest.mark.parametrize("impl", ["reference", "auto"])
class TestComplement:
    def test_against_oracle(self, algo, impl, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m, complement=True)
        got = masked_spgemm(a, b, m, algo=algo, impl=impl, complement=True)
        assert_csr_equal(got, want)

    def test_complement_partition_identity(self, algo, impl, small_triple):
        """C_in + C_out == A@B for every complement-capable algorithm."""
        a, b, m = small_triple
        inside = masked_spgemm(a, b, m, algo=algo, impl=impl)
        outside = masked_spgemm(a, b, m, algo=algo, impl=impl, complement=True)
        from repro.sparse import ewise_add

        full = scipy_masked_spgemm(a, b, CSR.from_dense(np.ones(m.shape)))
        assert_csr_equal(ewise_add(inside, outside), full)

    def test_empty_b_complement_is_empty(self, algo, impl):
        # the "empty-b" operand set of tests/test_native.py: a zero product
        # bound against non-empty mask rows, whose keys take table slots
        # too (the reference hash tier probed its full table forever)
        from repro.graphs import erdos_renyi

        a, m = erdos_renyi(20, 20, 3, seed=13), erdos_renyi(20, 20, 3, seed=14)
        got = masked_spgemm(a, CSR.empty((20, 20)), m, algo=algo, impl=impl,
                            complement=True)
        assert_csr_equal(got, CSR.empty((20, 20)))

    def test_empty_mask_complement_is_full_product(self, algo, impl):
        a = random_csr(10, 12, 3, seed=41)
        b = random_csr(12, 9, 3, seed=42)
        got = masked_spgemm(a, b, CSR.empty((10, 9)), algo=algo, impl=impl,
                            complement=True)
        want = scipy_masked_spgemm(a, b, CSR.from_dense(np.ones((10, 9))))
        assert_csr_equal(got, want)


class TestUnsupportedCombos:
    @pytest.mark.parametrize("algo", ["inner", "mca"])
    def test_complement_rejected(self, algo, small_triple):
        a, b, m = small_triple
        with pytest.raises(ValueError, match="complement"):
            masked_spgemm(a, b, m, algo=algo, complement=True)

    def test_unknown_algo(self, small_triple):
        a, b, m = small_triple
        with pytest.raises(ValueError, match="unknown algorithm"):
            masked_spgemm(a, b, m, algo="quantum")

    def test_bad_phases(self, small_triple):
        a, b, m = small_triple
        with pytest.raises(ValueError, match="phases"):
            masked_spgemm(a, b, m, phases=3)

    def test_heap_has_no_fast_impl(self, small_triple):
        a, b, m = small_triple
        with pytest.raises(ValueError, match="fast path"):
            masked_spgemm(a, b, m, algo="heap", impl="fast")

    def test_shape_mismatch(self):
        a = random_csr(5, 6, 2, seed=43)
        b = random_csr(7, 5, 2, seed=44)
        m = random_csr(5, 5, 2, seed=45)
        with pytest.raises(ValueError, match="inner dimensions"):
            masked_spgemm(a, b, m)

    def test_mask_shape_mismatch(self):
        a = random_csr(5, 6, 2, seed=46)
        b = random_csr(6, 5, 2, seed=47)
        m = random_csr(4, 5, 2, seed=48)
        with pytest.raises(ValueError, match="mask shape"):
            masked_spgemm(a, b, m)


def _front_doors():
    from repro.core import masked_spgemm_chunked, masked_spgemm_hybrid
    from repro.parallel import parallel_masked_spgemm

    return {"masked_spgemm": masked_spgemm, "hybrid": masked_spgemm_hybrid,
            "chunked": masked_spgemm_chunked, "parallel": parallel_masked_spgemm}


class TestOneFrontDoor:
    """The four front doors are spellings of one call (``docs/engine.md``,
    "Path of a call"): same checks, same texts, each step once."""

    @pytest.mark.parametrize("door", _front_doors())
    def test_every_door_raises_the_same_text(self, door, small_triple):
        call = _front_doors()[door]
        a, b, m = small_triple

        def text(**kw):
            with pytest.raises(ValueError) as err:
                call(kw.pop("a", a), kw.pop("b", b), m, **kw)
            return str(err.value)

        bad_b = random_csr(b.nrows + 1, b.ncols, 2, seed=44)
        assert text(b=bad_b) == (
            f"inner dimensions of A and B do not agree: {a.shape} @ {bad_b.shape}")
        bad_a = random_csr(a.nrows + 1, a.ncols, 2, seed=45)
        assert text(a=bad_a) == (
            f"mask shape {m.shape} must match the output shape "
            f"({bad_a.nrows}, {b.ncols})")
        if door == "hybrid":
            return  # takes no algo=: it is the ratio-banded planner's choice
        assert text(algo="quantum") == (
            "unknown algorithm 'quantum'; expected one of "
            f"{('auto',) + ALGOS + ('esc',)}")
        assert text(algo="inner", complement=True) == (
            "Inner does not support complemented masks")
        # caller-owned options are checked on the forced path as on the
        # planned one, by every door that takes the keyword
        for algo in ("msa", "auto"):
            if door in ("masked_spgemm", "parallel"):
                assert text(algo=algo, backend="bogus") == (
                    "backend must be one of ('serial', 'thread', 'process') "
                    "(or 'threads'), got 'bogus'")
            if door == "masked_spgemm":  # with no session to validate it
                assert text(algo=algo, delta="bogus") == (
                    "delta must be 'auto', 'force', a dirty-fraction threshold "
                    "in (0, 1] or None, got 'bogus'")

    @pytest.mark.parametrize("machine, sessioned", [(None, True), ("haswell", True),
                                                    (None, False)])
    def test_an_auto_call_takes_each_step_once(self, machine, sessioned, small_triple,
                                               monkeypatch):
        """Shape checks, machine resolution, session normalisation and the
        session's call scope: each runs once between the door and the leaf."""
        import repro.core.leaf as leaf
        import repro.core.masked_spgemm as door
        from repro.engine import ExecutionSession, executor, planner, session

        a, b, m = small_triple
        calls = {"check_operands": 0, "resolve_machine": 0, "caching_session": 0,
                 "run_kernel": 0, "call": 0}

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)

            monkeypatch.setattr(owner, name, counted)

        with ExecutionSession() as sess:
            kw = dict(algo="auto", machine=machine, session=sess if sessioned else None)
            want = masked_spgemm(a, b, m, **kw)
            for module in (leaf, door, executor, planner, session):
                for name in set(calls) & set(vars(module)):
                    spy(module, name)
            spy(sess, "call")
            got = masked_spgemm(a, b, m, **kw)
        assert_csr_equal(got, want)
        # a session resolved its own machine when it was built
        assert calls == {"check_operands": 1, "caching_session": 1, "run_kernel": 1,
                         "resolve_machine": int(not sessioned or machine is not None),
                         "call": int(sessioned)}


class TestLayering:
    """``repro.engine`` and ``repro.parallel`` sit below the front door: they
    run :func:`repro.core.leaf.run_kernel` and never call back into
    ``masked_spgemm``; within ``repro.core`` only the door looks up."""

    @staticmethod
    def _imports(path):
        import ast

        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                yield module, [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                yield from ((alias.name, []) for alias in node.names)

    def test_no_import_of_the_door_below_it(self):
        import re
        from pathlib import Path

        import repro

        src = Path(repro.__file__).parent
        door = re.compile(r"(^|\.)masked_spgemm(_hybrid|_chunked)?$")
        found = [
            (f"{pkg}/{path.name}", names)
            for pkg in ("engine", "parallel")
            for path in sorted((src / pkg).glob("*.py"))
            for module, names in self._imports(path)
            if any(door.search(n) for n in [module, *names])
        ]
        # the one mention: ``repro.parallel`` keeps its historical name for
        # the row-parallel spelling, which lives beside the door
        assert found == [("parallel/executor.py", ["parallel_masked_spgemm"])]
        looks_up = [
            (str(path.relative_to(src)), module)
            for path in sorted((src / "core").rglob("*.py"))
            if path.name != "masked_spgemm.py"
            for module, _ in self._imports(path)
            if re.search(r"(^|\.)engine(\.|$)", module)
        ]
        assert looks_up == []

    def test_the_leaf_loads_without_the_engine(self):
        import os
        import subprocess
        import sys

        code = ("import sys, repro.parallel.pool, repro.core.leaf\n"
                "assert 'repro.engine' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("semiring", [PLUS_PAIR, MIN_PLUS, MAX_TIMES],
                         ids=["plus_pair", "min_plus", "max_times"])
@pytest.mark.parametrize("algo", ALGOS)
class TestSemirings:
    def test_fast_matches_reference(self, semiring, algo, small_triple):
        """Reference implementations define semiring semantics; the fast
        kernels must agree exactly."""
        a, b, m = small_triple
        ref = masked_spgemm_reference(a, b, m, algo=algo, semiring=semiring)
        got = masked_spgemm(a, b, m, algo=algo, impl="auto", semiring=semiring)
        assert_csr_equal(got, ref, msg=f"{algo}/{semiring.name}")

    def test_algorithms_agree(self, semiring, algo, small_triple):
        """All algorithms compute the same function on any semiring."""
        a, b, m = small_triple
        base = masked_spgemm(a, b, m, algo="msa", impl="reference",
                             semiring=semiring)
        got = masked_spgemm(a, b, m, algo=algo, impl="auto", semiring=semiring)
        assert_csr_equal(got, base)


class TestPlainSpGEMM:
    def test_gustavson_matches_scipy(self):
        a = random_csr(20, 15, 4, seed=51)
        b = random_csr(15, 18, 4, seed=52)
        want = CSR.from_scipy((a.to_scipy() @ b.to_scipy()).tocsr())
        assert_csr_equal(gustavson_spgemm(a, b), want)

    def test_saxpy_fast_matches_scipy(self):
        a = random_csr(30, 25, 5, seed=53)
        b = random_csr(25, 28, 5, seed=54)
        want = CSR.from_scipy((a.to_scipy() @ b.to_scipy()).tocsr())
        assert_csr_equal(spgemm_saxpy_fast(a, b), want)

    def test_multiply_then_mask_equals_masked(self, small_triple):
        a, b, m = small_triple
        direct = masked_spgemm(a, b, m, algo="msa")
        indirect = masked_spgemm_multiply_then_mask(a, b, m)
        assert_csr_equal(indirect, direct)

    def test_gustavson_counts_flops(self):
        a = random_csr(10, 10, 3, seed=55)
        b = random_csr(10, 10, 3, seed=56)
        c = OpCounter()
        gustavson_spgemm(a, b, counter=c)
        assert c.flops == total_flops(a, b)


class TestTwoPhaseConsistency:
    def test_symbolic_counts_match_numeric(self, small_triple):
        from repro.core import symbolic_masked

        a, b, m = small_triple
        sym = symbolic_masked(a, b, m)
        got = masked_spgemm(a, b, m, algo="msa")
        assert int(sym.sum()) == got.nnz
        assert np.array_equal(sym, got.row_nnz())

    def test_symbolic_complement(self, small_triple):
        from repro.core import symbolic_masked

        a, b, m = small_triple
        sym = symbolic_masked(a, b, m, complement=True)
        got = masked_spgemm(a, b, m, algo="msa", complement=True)
        assert np.array_equal(sym, got.row_nnz())

    def test_symbolic_cost_charged(self, small_triple):
        a, b, m = small_triple
        c1, c2 = OpCounter(), OpCounter()
        masked_spgemm(a, b, m, algo="msa", phases=1, counter=c1)
        masked_spgemm(a, b, m, algo="msa", phases=2, counter=c2)
        assert c1.symbolic_flops == 0
        assert c2.symbolic_flops == total_flops(a, b)

    def test_one_phase_bound_is_a_bound(self, small_triple):
        from repro.core import one_phase_bound

        a, b, m = small_triple
        bound, total = one_phase_bound(a, b, m)
        got = masked_spgemm(a, b, m, algo="msa")
        assert np.all(got.row_nnz() <= bound)
        assert got.nnz <= total


class TestStability:
    def test_output_rows_sorted(self, small_triple):
        """The paper highlights the MSA gather's stability: mask order in,
        mask order out — with sorted masks this means sorted output rows."""
        a, b, m = small_triple
        for algo in ALGOS:
            got = masked_spgemm(a, b, m, algo=algo, impl="auto")
            assert got.sorted_indices
            got.check()

    def test_deterministic(self, small_triple):
        a, b, m = small_triple
        for algo in ALGOS:
            x = masked_spgemm(a, b, m, algo=algo)
            y = masked_spgemm(a, b, m, algo=algo)
            assert x.equals(y)


@pytest.mark.parametrize("semiring", [PLUS_PAIR, MIN_PLUS, MAX_TIMES],
                         ids=["plus_pair", "min_plus", "max_times"])
@pytest.mark.parametrize("algo", COMPLEMENT_ALGOS)
class TestSemiringComplement:
    """Complemented masks on non-arithmetic semirings: the fast tier must
    agree with the reference tier (scipy cannot oracle these)."""

    def test_fast_matches_reference(self, semiring, algo, small_triple):
        a, b, m = small_triple
        ref = masked_spgemm_reference(
            a, b, m, algo=algo, semiring=semiring, complement=True
        )
        got = masked_spgemm(
            a, b, m, algo=algo, impl="auto", semiring=semiring, complement=True
        )
        assert_csr_equal(got, ref, msg=f"{algo}/{semiring.name}/complement")

    def test_identity_never_leaks(self, semiring, algo, small_triple):
        """min/max identities (inf/-inf) must never appear as output
        values (they would mean an empty reduction was emitted)."""
        a, b, m = small_triple
        got = masked_spgemm(
            a, b, m, algo=algo, impl="auto", semiring=semiring, complement=True
        )
        assert np.all(np.isfinite(got.data))


class TestESCExtension:
    """ESC (expand-sort-compress) — the extension algorithm (DESIGN.md §7,
    kernels.esc_kernel).  Not part of the paper's scheme lists."""

    def test_registered_as_extension(self):
        from repro.core import ALGOS, ALL_ALGOS, EXTENSION_ALGOS

        assert "esc" not in ALGOS  # the paper's figures stay 14-scheme
        assert "esc" in EXTENSION_ALGOS
        assert set(ALL_ALGOS) == set(ALGOS) | set(EXTENSION_ALGOS)

    @pytest.mark.parametrize("impl", ["reference", "auto"])
    @pytest.mark.parametrize("complement", [False, True])
    def test_matches_oracle(self, impl, complement, small_triple):
        a, b, m = small_triple
        want = scipy_masked_spgemm(a, b, m, complement=complement)
        got = masked_spgemm(a, b, m, algo="esc", impl=impl,
                            complement=complement)
        assert_csr_equal(got, want)

    @pytest.mark.parametrize("semiring", [PLUS_PAIR, MIN_PLUS, MAX_TIMES],
                             ids=["plus_pair", "min_plus", "max_times"])
    def test_semirings(self, semiring, small_triple):
        a, b, m = small_triple
        ref = masked_spgemm_reference(a, b, m, algo="esc", semiring=semiring)
        got = masked_spgemm(a, b, m, algo="esc", impl="auto", semiring=semiring)
        assert_csr_equal(got, ref)

    def test_two_phase(self, small_triple):
        a, b, m = small_triple
        c1 = masked_spgemm(a, b, m, algo="esc", phases=1)
        c2 = masked_spgemm(a, b, m, algo="esc", phases=2)
        assert c1.equals(c2)

    def test_supports_complement_flag(self):
        from repro.core import supports_complement

        assert supports_complement("esc")

    def test_modeled(self, small_triple):
        from repro.machine import HASWELL, RowCostModel

        a, b, m = small_triple
        est = RowCostModel(a, b, m, HASWELL).estimate("esc")
        assert est.total_cycles > 0
        assert "sort" in est.breakdown
        assert "accumulator" not in est.breakdown  # ESC's selling point


class TestColumnOrientation:
    @pytest.mark.parametrize("algo", ["msa", "hash", "mca", "inner", "heap"])
    def test_column_matches_row(self, algo, small_triple):
        a, b, m = small_triple
        row = masked_spgemm(a, b, m, algo=algo, orientation="row")
        col = masked_spgemm(a, b, m, algo=algo, orientation="column")
        assert_csr_equal(col, row, msg=algo)

    def test_column_complement(self, small_triple):
        a, b, m = small_triple
        row = masked_spgemm(a, b, m, algo="msa", complement=True)
        col = masked_spgemm(a, b, m, algo="msa", complement=True,
                            orientation="column")
        assert_csr_equal(col, row)

    def test_bad_orientation(self, small_triple):
        a, b, m = small_triple
        with pytest.raises(ValueError, match="orientation"):
            masked_spgemm(a, b, m, orientation="diagonal")


class TestChunkedSpGEMM:
    @pytest.mark.parametrize("panel", [1, 7, 16, 1000])
    def test_panel_invariant(self, panel, small_triple):
        from repro.core import masked_spgemm_chunked

        a, b, m = small_triple
        want = masked_spgemm(a, b, m, algo="msa")
        got = masked_spgemm_chunked(a, b, m, panel_width=panel)
        assert_csr_equal(got, want, msg=f"panel={panel}")

    @pytest.mark.parametrize("panel", [9, 64])
    def test_complement(self, panel, small_triple):
        from repro.core import masked_spgemm_chunked

        a, b, m = small_triple
        want = masked_spgemm(a, b, m, algo="msa", complement=True)
        got = masked_spgemm_chunked(a, b, m, panel_width=panel,
                                    complement=True)
        assert_csr_equal(got, want)

    def test_empty_mask_panels_skipped(self):
        """A mask confined to one panel must keep the other panels'
        B slices untouched (no flops counted for them)."""
        from repro.core import masked_spgemm_chunked

        a = random_csr(20, 20, 4, seed=71)
        b = random_csr(20, 100, 4, seed=72)
        # mask lives entirely in columns [0, 10)
        m = random_csr(20, 10, 3, seed=73)
        rows, cols, vals = m.to_coo()
        m_wide = CSR.from_coo((20, 100), rows, cols, vals)
        c_full = OpCounter()
        masked_spgemm(a, b, m_wide, algo="msa", impl="reference",
                      counter=c_full)
        c_chunk = OpCounter()
        masked_spgemm_chunked(a, b, m_wide, panel_width=10, algo="msa",
                              counter=c_chunk)
        got = masked_spgemm_chunked(a, b, m_wide, panel_width=10)
        want = masked_spgemm(a, b, m_wide)
        assert_csr_equal(got, want)
        # chunked inserts bounded by the single live panel's expansion
        assert c_chunk.accum_inserts < total_flops(a, b)

    def test_restrict_columns(self):
        from repro.core import restrict_columns

        a = random_csr(10, 30, 4, seed=74)
        panel = restrict_columns(a, 10, 20)
        assert panel.shape == (10, 10)
        dense = a.to_dense()[:, 10:20]
        assert np.allclose(panel.to_dense(), dense)

    def test_bad_panel_width(self, small_triple):
        from repro.core import masked_spgemm_chunked

        a, b, m = small_triple
        with pytest.raises(ValueError, match="panel_width"):
            masked_spgemm_chunked(a, b, m, panel_width=0)

    def test_semiring(self, small_triple):
        from repro.core import masked_spgemm_chunked

        a, b, m = small_triple
        want = masked_spgemm(a, b, m, semiring=PLUS_PAIR)
        got = masked_spgemm_chunked(a, b, m, panel_width=13,
                                    semiring=PLUS_PAIR)
        assert_csr_equal(got, want)
