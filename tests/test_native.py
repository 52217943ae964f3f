"""The native kernel tier (``repro.core.kernels.native`` + ``native.c``).

One differential suite — native against ``native.disabled()`` (the NumPy
bodies) over random and adversarial operands x semirings x complement x
phases x algorithm x backend / grid, asserting equal CSR bytes, equal
``OpCounter`` dicts and column-ascending rows — plus the hostile
conditions the loader and the seam must survive: no compiler, a corrupt or
foreign cache file, racing first loads, malformed ``check=False`` operands.
"""

import contextlib
import dataclasses
import logging
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.core.leaf import kernel_threads, run_kernel
from repro.core.kernels.arena import clear_arena, get_arena
from repro.core.kernels.inner_kernel import masked_spgemm_inner_fast
from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.core.symbolic import symbolic_masked
from repro import engine
from repro.engine import Planner, ShardGrid, execute
from repro.graphs import erdos_renyi, lower_by_degree, rmat
from repro.machine import HOST, HOST_NATIVE, OpCounter, available_cores, flops_per_row, \
    host_profile
from repro.observe import tracing
from repro.parallel import balanced_partition
from repro.parallel.pool import shutdown_pool
from repro.semiring import MIN_PLUS, PLUS_PAIR, PLUS_TIMES, STANDARD_SEMIRINGS, Semiring
from repro.sparse import CSR

from .conftest import NativeSpy, native_required
from .lattice import ADVERSARIAL as OPERANDS

needs_native = native_required()

#: a same-named clone of PLUS_TIMES: outside the table by identity, so it
#: must take the NumPy body
CLONE = Semiring("plus_times", lambda x, y: x + y, lambda a, b: a * b)
SEMIRINGS = list(STANDARD_SEMIRINGS.values()) + [CLONE]


@pytest.fixture(scope="module", autouse=True)
def _pool_teardown():
    yield
    shutdown_pool()


def _bytes(c: CSR):
    return c.shape, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes()


def _ascending(c: CSR) -> bool:
    return all(
        np.all(np.diff(c.indices[lo:hi]) > 0) for lo, hi in zip(c.indptr[:-1], c.indptr[1:])
    )


def _both_tiers(run):
    """``run()`` on the native tier and on the NumPy tier."""
    got = run()
    with native.disabled():
        want = run()
    return got, want


# ----------------------------------------------------------------------
# the differential suite
# ----------------------------------------------------------------------
@needs_native
class TestDifferential:
    @pytest.mark.parametrize("name", OPERANDS)
    def test_serial_lattice(self, name):
        a, b, m = OPERANDS[name]
        for sr in SEMIRINGS:
            for algo in ("msa", "inner", "auto"):
                for complement in (False, True):
                    if complement and algo == "inner":
                        continue
                    for phases in (1, 2):
                        def run():
                            c = OpCounter()
                            if algo == "auto":
                                # one profile on both sides, so "auto" plans alike
                                pl = Planner(HOST_NATIVE).plan(
                                    a, b, m, complement=complement, phases=phases)
                                out = execute(pl, a, b, m, semiring=sr, counter=c)
                            else:
                                out = masked_spgemm(
                                    a, b, m, algo=algo, semiring=sr,
                                    complement=complement, phases=phases, counter=c,
                                )
                            return out, c.as_dict()

                        (got, gc), (want, wc) = _both_tiers(run)
                        case = (name, sr.name, algo, complement, phases)
                        assert _bytes(got) == _bytes(want), case
                        assert gc == wc, case
                        assert _ascending(got), case

    @pytest.mark.parametrize("name", OPERANDS)
    @pytest.mark.parametrize(
        "how", ["thread", "process", "grid"], ids=["threads=2", "process", "grid-2x2"]
    )
    def test_backends_and_grid(self, name, how):
        a, b, m = OPERANDS[name]
        knobs = (
            dict(threads=1, backend="serial", shards=(2, 2)) if how == "grid"
            else dict(threads=2, backend=how)
        )
        # pool workers are their own processes: native.disabled() here does
        # not reach them, so the process runs are checked against the NumPy
        # run of a serial 2x1 grid on the pool's flop-balanced cut (the same
        # row parts, so the same items are dropped and the counters match)
        top = balanced_partition(flops_per_row(a, b), 2)[0].size
        ref_knobs = (
            dict(threads=1, backend="serial",
                 shards=ShardGrid((0, top, a.nrows), (0, b.ncols)))
            if how == "process" else knobs
        )
        for sr in (PLUS_TIMES, PLUS_PAIR, MIN_PLUS):
            for algo in ("msa", "inner", None):
                for complement in (False, True):
                    if complement and algo == "inner":
                        continue
                    planner = Planner(HOST_NATIVE)
                    pl = planner.plan(a, b, m, algo=algo, complement=complement, **knobs)
                    ref = planner.plan(a, b, m, algo=algo, complement=complement, **ref_knobs)
                    c1, c0 = OpCounter(), OpCounter()
                    got = execute(pl, a, b, m, semiring=sr, counter=c1)
                    with native.disabled():
                        want = execute(ref, a, b, m, semiring=sr, counter=c0)
                    case = (name, how, sr.name, algo, complement)
                    assert _bytes(got) == _bytes(want), case
                    assert c1.as_dict() == c0.as_dict(), case
                    assert _ascending(got), case

    @pytest.mark.parametrize("name", OPERANDS)
    def test_symbolic_pass(self, name):
        a, b, m = OPERANDS[name]
        for complement in (False, True):
            def run():
                c = OpCounter()
                return symbolic_masked(a, b, m, complement=complement, counter=c), c.as_dict()

            (got, gc), (want, wc) = _both_tiers(run)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert gc == wc

    def test_sum_cancelling_to_zero_stays_an_entry(self):
        a = CSR.from_coo((1, 2), [0, 0], [0, 1], [1.0, -1.0])
        b = CSR.from_coo((2, 1), [0, 1], [0, 0], [3.0, 3.0])
        m = CSR.from_coo((1, 1), [0], [0], [1.0])
        for algo in ("msa", "inner"):
            got, want = _both_tiers(lambda: masked_spgemm(a, b, m, algo=algo))
            assert got.nnz == 1 and got.data[0] == 0.0
            assert _bytes(got) == _bytes(want)

    def test_scratch_leases_come_back_clean(self):
        a, b, m = OPERANDS["random"]
        for complement in (False, True):
            masked_spgemm(a, b, m, algo="msa", complement=complement)
        masked_spgemm(a, b, m, algo="inner")
        masked_spgemm(a, b, m, algo="msa", phases=2)
        parked = get_arena()._buffers
        for key in ("native.state", "native.values", "native.where"):
            assert not parked[key].any(), key

    def test_wrong_symbolic_bound_is_a_mismatch_on_both_tiers(self):
        a, b, m = OPERANDS["random"]
        wrong = symbolic_masked(a, b, m) + 1
        for scope in (native.disabled, contextlib.nullcontext):
            with scope(), pytest.raises(AssertionError, match="symbolic/numeric mismatch"):
                masked_spgemm_msa_fast(a, b, m, row_nnz=wrong)


# ----------------------------------------------------------------------
# in-kernel threads (the lattice's ``nthreads`` axis checks that every count
# gives the serial bytes and counters): who picks the count, what stays serial
# ----------------------------------------------------------------------
def _at_thread_counts(a, b, m, **kw):
    """``(bytes, counters)`` of ``run_kernel`` at 1 and 2 threads."""
    out = []
    for k in (1, 2):
        c = OpCounter()
        out.append((_bytes(run_kernel(a, b, m, counter=c, nthreads=k, **kw)), c.as_dict()))
    return out


@needs_native
class TestThreads:
    def test_complemented_msa_stays_serial(self, monkeypatch):
        a, b, m = OPERANDS["hub-row"]
        spy = NativeSpy(native.load())
        monkeypatch.setattr(native, "_lib", spy)
        clear_arena()
        one, two = _at_thread_counts(a, b, m, algo="msa", complement=True)
        assert one == two
        assert spy.kernel_calls == ["repro_msa_complement"] * 2
        # one accumulator: the leases hold one row of scratch, not two
        assert get_arena()._buffers["native.values"].shape == (b.ncols,)

    def test_scratch_slices_come_back_clean(self):
        a, b, m = OPERANDS["hub-row"]
        for algo, phases in (("msa", 2), ("inner", 1)):
            run_kernel(a, b, m, algo=algo, phases=phases, nthreads=2)
        parked = get_arena()._buffers
        for key in ("native.state", "native.values", "native.where"):
            assert not parked[key].any(), key

    def test_triangle_counting_operand(self, monkeypatch):
        from repro.graphs.relabel import degree_sort_permutation
        from repro.sparse.csr import _lower_by_degree

        monkeypatch.setattr(native, "PREPARE_PARALLEL_NNZ", 0)  # small graphs thread too
        for g in (rmat(9, seed=2), erdos_renyi(300, 300, 6, seed=5)):  # + a directed graph
            perm = degree_sort_permutation(g)
            one, *more = (_bytes(_lower_by_degree(g, perm, k)) for k in (1, 2, 4))
            assert all(x == one for x in more)

    def test_the_resolution_rule(self, monkeypatch):
        big, cores = native.PARALLEL_WORK, available_cores() if native._openmp() else 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")  # not read
        assert native.threads_for(0, threads=3) == 3
        assert native.threads_for(big, backend="serial") == 1
        assert native.threads_for(big, backend="thread") == cores
        assert native.threads_for(big) == cores
        assert native.threads_for(big - 1) == 1
        assert native.threads_for(10, crossover=10) == cores
        with native.disabled():
            assert native.threads_for(big) == 1
        # a counting scatter: the caller's count is a ceiling, the crossover holds for it too
        keys = native.PREPARE_PARALLEL_NNZ
        assert native.scatter_threads(keys - 1, threads=3) == 1
        assert native.scatter_threads(keys, threads=3) == 3
        assert native.scatter_threads(keys) == cores
        assert native.scatter_threads(keys, threads=3, backend="serial") == 1
        # a product call never runs more threads than A has rows
        a, b, _ = OPERANDS["fewer-rows-than-threads"]
        assert kernel_threads(a, b, threads=8) == 3
        assert kernel_threads(CSR.empty((0, b.nrows)), b, threads=8) == 1

    def test_who_passes_which_count(self, monkeypatch):
        """Every in-process spelling makes one kernel call per band and cell,
        on the thread count its plan records, capped at ``nrows(A)``; a
        forced door call with nothing to plan, on the count its plan would
        record.  ``backend="serial"`` (whatever ``threads=`` says) and a forced
        ``threads=1`` record 1; ``execute`` runs a plan on the count it was
        planned with."""
        import importlib

        door, executor, pool = map(importlib.import_module, (
            "repro.core.masked_spgemm", "repro.engine.executor", "repro.parallel.pool"))
        seen = []

        def spy(*args, nthreads, **kw):
            seen.append(nthreads)
            return run_kernel(*args, nthreads=nthreads, **kw)

        for module in (door, executor, pool):
            monkeypatch.setattr(module, "run_kernel", spy)
        low = lower_by_degree(rmat(10, seed=3))
        monkeypatch.setattr(native, "PARALLEL_WORK", 0)
        every = available_cores() if native._openmp() else 1
        ops, kw = (low, low, low), dict(semiring=PLUS_PAIR)

        def run_plan(**knobs):
            return lambda: execute(engine.plan(*ops, **knobs), *ops, **kw)

        calls = {
            "forced": lambda: masked_spgemm(*ops, algo="msa", **kw),
            "default": lambda: masked_spgemm(*ops, algo="auto", **kw),
            "serial": lambda: masked_spgemm(*ops, algo="msa", backend="serial", **kw),
            "thread": lambda: masked_spgemm(*ops, algo="msa", backend="thread", **kw),
            "threads=3": run_plan(threads=3),
            "threads=2, thread": run_plan(algo="msa", threads=2, backend="thread"),
            "threads=1, thread": run_plan(algo="msa", threads=1, backend="thread"),
            "threads=2, serial": run_plan(algo="msa", threads=2, backend="serial"),
            "execute(serial plan)": run_plan(algo="msa", backend="serial"),
            "execute(thread plan)": run_plan(algo="msa", backend="thread"),
        }
        got = {}
        for name, call in calls.items():
            seen.clear()
            with tracing() as tr:
                call()
            planned = [s.attrs["plan"]["threads"] for s in tr.spans
                       if s.name == "engine.execute"]
            recorded = planned or [engine.plan(*ops, algo="msa").threads]
            assert seen == [min(recorded[0], low.nrows)], name
            got[name] = seen[0]
        assert got == {
            "forced": every, "default": every, "serial": 1, "thread": every,
            "threads=3": 3, "threads=2, thread": 2, "threads=1, thread": 1,
            "threads=2, serial": 1, "execute(serial plan)": 1,
            "execute(thread plan)": every,
        }
        monkeypatch.setattr(native, "PARALLEL_WORK", 1 << 62)
        seen.clear()
        masked_spgemm(*ops, algo="msa", **kw)
        assert seen == [1]  # below the crossover

    def test_without_openmp_every_loop_is_serial(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "_openmp_flags", lambda cc, workdir: ())
        assert native.status()["openmp"] is False
        assert native.threads_for(native.PARALLEL_WORK) == 1
        a, b, m = OPERANDS["hub-row"]
        one, two = _at_thread_counts(a, b, m, algo="msa", phases=2)
        assert one == two

    def test_status_reports_openmp(self):
        probe = native._openmp_flags(native._target()[0], Path(native.load()._name).parent)
        assert native.status()["openmp"] is (probe == ("-fopenmp",))

    def test_process_backend_after_threads_in_the_parent(self):
        """libgomp's thread pool does not survive ``fork``: a forked child
        that entered a threaded region after the parent had used one would
        hang.  Pool workers run every item on one thread, and a caller's own
        forked child that passes ``backend="serial"`` stays on one thread
        through triangle counting's prepare and product — and through the
        serial plans it executes, ``threads=2`` forced or not — so this
        returns."""
        code = (
            "import os\n"
            "from repro import engine\n"
            "from repro.apps import triangle_count\n"
            "from repro.core import masked_spgemm\n"
            "from repro.core.leaf import run_kernel\n"
            "from repro.graphs import lower_by_degree, rmat\n"
            "from repro.parallel import shutdown_pool\n"
            "from repro.semiring import PLUS_PAIR\n"
            "low = lower_by_degree(rmat(12, seed=3))\n"
            "kw = dict(algo='msa', semiring=PLUS_PAIR)\n"
            "two = run_kernel(low, low, low, nthreads=2, **kw)\n"
            "got = masked_spgemm(low, low, low, backend='process', **kw)\n"
            "shutdown_pool()\n"
            "one = run_kernel(low, low, low, nthreads=1, **kw)\n"
            "fields = ('indptr', 'indices', 'data')\n"
            "for c in (two, got):\n"
            "    assert all(getattr(c, f).tobytes() == getattr(one, f).tobytes() for f in fields)\n"
            "g = rmat(14, seed=3)  # over both crossovers\n"
            "tri = triangle_count(g)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if triangle_count(g, backend='serial') == tri else 3)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
            "low = lower_by_degree(g)\n"
            "want = run_kernel(low, low, low, nthreads=2, **kw)\n"
            "for threads in (None, 2):\n"
            "    pl = engine.plan(low, low, low, algo='msa', threads=threads, backend='serial')\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        c = engine.execute(pl, low, low, low, semiring=PLUS_PAIR)\n"
            "        os._exit(0 if all(getattr(c, f).tobytes() == getattr(want, f).tobytes()\n"
            "                          for f in fields) else 4)\n"
            "    assert os.waitpid(pid, 0)[1] == 0\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            out, err = "", "hung"
        finally:  # the child's pool workers too
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert out == "ok\n", err[-3000:]


# ----------------------------------------------------------------------
# eligibility: what must stay on the NumPy body
# ----------------------------------------------------------------------
@needs_native
class TestEligibility:
    @pytest.fixture
    def spy(self, monkeypatch):
        spy = NativeSpy(native.load())
        monkeypatch.setattr(native, "_lib", spy)
        return spy

    def test_float32_and_non_table_semirings_fall_back(self, spy):
        a, b, m = OPERANDS["random"]
        a32 = a.astype(np.float32)
        ints = CSR(a.shape, a.indptr, a.indices, np.arange(a.nnz), sorted_indices=True)
        assert ints.data.dtype == np.float64  # ints are canonicalised at construction
        for algo in ("msa", "inner"):
            for kw in (dict(semiring=MIN_PLUS), dict(semiring=CLONE)):
                got, want = _both_tiers(lambda: masked_spgemm(a, b, m, algo=algo, **kw))
                assert _bytes(got) == _bytes(want)
            got, want = _both_tiers(lambda: masked_spgemm(a32, b, m, algo=algo))
            assert _bytes(got) == _bytes(want)
        assert not spy.kernel_calls, spy.kernel_calls
        # PLUS_PAIR never reads the values, so their dtype does not matter
        got, want = _both_tiers(lambda: masked_spgemm(a32, b, m, algo="msa", semiring=PLUS_PAIR))
        assert spy.kernel_calls == ["repro_msa"] and _bytes(got) == _bytes(want)

    def test_kernel_spans_carry_the_tier(self):
        a, b, m = OPERANDS["random"]

        def tiers():
            with tracing() as tr:
                masked_spgemm(a, b, m, algo="msa")
                masked_spgemm(a, b, m, algo="inner")
                masked_spgemm(a, b, m, algo="msa", semiring=MIN_PLUS)
            return [s.attrs["tier"] for s in tr.spans if s.name.startswith("kernel.")]

        got, want = _both_tiers(tiers)
        assert got == ["native", "native", "numpy"] and want == ["numpy"] * 3

    def test_host_profile_follows_the_tier(self):
        assert host_profile() is HOST_NATIVE
        assert HOST_NATIVE.name == HOST.name == "host"
        assert HOST_NATIVE.candidates == ("inner", "msa")
        with native.disabled():
            assert host_profile() is HOST
        with pytest.raises(ValueError, match="no measured coefficients"):
            Planner(dataclasses.replace(HOST_NATIVE, candidates=("mca",)))


# ----------------------------------------------------------------------
# malformed operands: an error, never an out-of-bounds access
# ----------------------------------------------------------------------
def _raw(shape, indptr, indices, data=None):
    indices = np.asarray(indices, dtype=np.int64)
    data = np.ones(indices.size) if data is None else data
    return CSR(shape, np.asarray(indptr, dtype=np.int64), indices, data,
               sorted_indices=True, check=False)


class TestMalformedOperands:
    GOOD = _raw((3, 3), [0, 1, 2, 3], [0, 1, 2])

    @pytest.mark.parametrize("algo", ["msa", "inner"])
    @pytest.mark.parametrize("tier", ["native", "numpy"])
    def test_errors_on_both_tiers(self, algo, tier):
        if tier == "native" and native.load() is None:
            pytest.skip("no C compiler")
        scope = native.disabled if tier == "numpy" else contextlib.nullcontext
        good = self.GOOD
        col_out_of_range = _raw((3, 3), [0, 1, 2, 3], [0, 1, 7])
        non_monotone = _raw((3, 3), [0, 2, 1, 3], [0, 1, 2])
        with scope():
            for a, b, m in ((col_out_of_range, good, good), (good, good, col_out_of_range)):
                with pytest.raises(IndexError):
                    masked_spgemm(a, b, m, algo=algo)
            with pytest.raises(ValueError):
                masked_spgemm(non_monotone, good, good, algo=algo)

    @needs_native
    def test_native_wrappers_reject_what_numpy_would_wrap_or_ignore(self):
        good = self.GOOD
        negative = _raw((3, 3), [0, 1, 2, 3], [0, -1, 2])
        past_the_end = _raw((3, 3), [0, 1, 2, 9], [0, 1, 2])
        short_data = _raw((3, 3), [0, 1, 2, 3], [0, 1, 2], np.ones(2))
        wide = _raw((3, 5), [0, 1, 2, 3], [0, 1, 4])
        for kernel in (masked_spgemm_msa_fast, masked_spgemm_inner_fast, symbolic_masked):
            with pytest.raises(IndexError):
                kernel(negative, good, good)
            for bad in (past_the_end, short_data):
                with pytest.raises(ValueError):
                    kernel(bad, good, good)
            with pytest.raises(ValueError, match="do not conform"):
                kernel(good, wide, good)  # mask is 3x3, the product 3x5


# ----------------------------------------------------------------------
# the loader under hostile conditions
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader over an empty cache directory (the real library,
    if any, comes back when the test ends)."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_reason", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro"


class TestLoader:
    def test_nothing_is_built_or_opened_at_import(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import repro, repro.core, repro.apps, repro.engine, repro.machine\n"
                "from repro.core.kernels import native\n"
                "assert native._lib is None and native._reason is None\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert not (tmp_path / "repro").exists()

    def test_no_compiler_falls_back_with_one_warning(self, fresh_loader, monkeypatch, caplog):
        looked = []
        monkeypatch.setattr(native.shutil, "which", lambda name: looked.append(name))
        a, b, m = OPERANDS["random"]
        with native.disabled():
            want = masked_spgemm(a, b, m, algo="msa")
            coo = a.to_coo()
            shuffled = [x[::-1] for x in coo]
            want_t = a.transpose()
        with caplog.at_level(logging.WARNING, logger="repro"):
            # the sparse substrate asks the loader first: same warning, once
            assert _bytes(CSR.from_coo(a.shape, *shuffled)) == _bytes(a)
            assert _bytes(a.transpose()) == _bytes(want_t)
            for _ in range(3):
                assert _bytes(masked_spgemm(a, b, m, algo="msa")) == _bytes(want)
                assert _bytes(masked_spgemm(a, b, m, algo="auto")) == _bytes(want)
        warnings = [r for r in caplog.records if "native kernel tier unavailable" in r.message]
        assert len(warnings) == 1 and "no C compiler" in warnings[0].getMessage()
        assert looked == ["cc", "gcc"]  # asked once, no retry storm
        assert native.status() == {"loaded": False, "path": None, "openmp": False,
                                   "reason": "OSError: no C compiler (cc) on PATH"}
        assert host_profile() is HOST
        assert not fresh_loader.exists() or not list(fresh_loader.iterdir())

    @needs_native
    def test_sanitized_build_over_the_adversarial_sets(self, tmp_path):
        """``native.c`` under AddressSanitizer + UBSan, built with the same
        flags (``-fopenmp`` where the probe passes): an overrun of the stack
        hit buffer or of a leased scratch array is an abort here where
        byte-equality would pass — on the threaded row loops and the
        threaded counting scatter too."""
        libasan = subprocess.run([native._target()[0], "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(libasan):
            pytest.skip("no libasan next to the C compiler")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), LD_PRELOAD=libasan,
                   ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1]), *sys.path]))
        code = (
            "from repro.core import masked_spgemm\n"
            "from repro.core.kernels import native\n"
            "from repro.core.kernels.arena import clear_arena\n"
            "from repro.semiring import STANDARD_SEMIRINGS\n"
            "native.FLAGS = tuple('-O1' if f == '-O2' else f for f in native.FLAGS) + (\n"
            "    '-g', '-fsanitize=address,undefined', '-fno-sanitize-recover=all')\n"
            "from tests.lattice import ADVERSARIAL  # builds its operands: the first load\n"
            "assert hasattr(native.load(), '__asan_init'), native.status()\n"
            f"assert native.status()['openmp'] is {native.status()['openmp']}\n"
            "fields = ('indptr', 'indices', 'data')\n"
            "for name, (a, b, m) in ADVERSARIAL.items():\n"
            "    for sr in map(STANDARD_SEMIRINGS.get, native._OPS):\n"
            "        for algo, complement in (('msa', False), ('msa', True), ('inner', False)):\n"
            "            for phases in (1, 2):\n"
            "                kw = dict(algo=algo, complement=complement, phases=phases, semiring=sr)\n"
            "                clear_arena()  # leases exactly as long as asked: an overrun meets a redzone\n"
            "                got = masked_spgemm(a, b, m, **kw)\n"
            "                with native.disabled():\n"
            "                    want = masked_spgemm(a, b, m, **kw)\n"
            "                assert all(getattr(got, f).tobytes() == getattr(want, f).tobytes()\n"
            "                           for f in fields), (name, kw)\n"
            "from repro.core.leaf import run_kernel\n"
            "for name, (a, b, m) in ADVERSARIAL.items():  # one scratch slice per thread\n"
            "    for algo, phases in (('msa', 1), ('msa', 2), ('inner', 1), ('inner', 2)):\n"
            "        kw = dict(algo=algo, phases=phases)\n"
            "        clear_arena()\n"
            "        got = run_kernel(a, b, m, nthreads=2, **kw)\n"
            "        want = run_kernel(a, b, m, **kw)\n"
            "        assert all(getattr(got, f).tobytes() == getattr(want, f).tobytes()\n"
            "                   for f in fields), (name, kw)\n"
            "from repro.apps.triangle_counting import _prepare\n"
            "from repro.graphs import erdos_renyi\n"
            "from repro.graphs.relabel import degree_sort_permutation\n"
            "from repro.sparse.csr import _lower_by_degree\n"
            "square = {id(g): g for abm in ADVERSARIAL.values() for g in abm if g.nrows == g.ncols}\n"
            "crossover = native.PREPARE_PARALLEL_NNZ\n"
            "for g in [*square.values(), erdos_renyi(300, 300, 6, seed=5)]:  # + a directed graph\n"
            "    got = _prepare(g, True)\n"
            "    with native.disabled():\n"
            "        want = _prepare(g, True)\n"
            "    native.PREPARE_PARALLEL_NNZ = 0  # the scatters on two threads, however small\n"
            "    two = _lower_by_degree(g, degree_sort_permutation(g), 2)  # None: NumPy's\n"
            "    native.PREPARE_PARALLEL_NNZ = crossover\n"
            "    assert all(getattr(x, f).tobytes() == getattr(want, f).tobytes()\n"
            "               for f in fields for x in (got, two) if x is not None), g\n"
            "import numpy as np\n"
            "from repro.sparse.csr import _bucket_order\n"
            "native.PREPARE_PARALLEL_NNZ = 0\n"
            "for name, abm in ADVERSARIAL.items():  # per-thread ranges over adversarial keys\n"
            "    for x in abm:\n"
            "        want = np.argsort(x.indices, kind='stable')\n"
            "        _, order, ints, vals = _bucket_order(x.indices, x.ncols, x.indices, x.data,\n"
            "                                             order=True, nthreads=2)\n"
            "        assert np.array_equal(order, want) and np.array_equal(ints, x.indices[want])\n"
            "        assert vals.tobytes() == x.data[want].tobytes(), name\n"
            "        two, one = x._transpose(2), x._transpose(1)\n"
            "        assert all(getattr(two, f).tobytes() == getattr(one, f).tobytes()\n"
            "                   for f in fields), name\n"
            "native.PREPARE_PARALLEL_NNZ = crossover\n"
            "from repro.sparse import ewise_add, ewise_mult, mask_pattern\n"
            "ops = (ewise_add, ewise_mult, mask_pattern,\n"
            "       lambda x, y: mask_pattern(x, y, complement=True))\n"
            "for name, abm in ADVERSARIAL.items():\n"
            "    for x, y in [(x, y) for x in abm for y in abm if x.shape == y.shape]:\n"
            "        for op in ops:\n"
            "            got = op(x, y)\n"
            "            with native.disabled():\n"
            "                want = op(x, y)\n"
            "            assert all(getattr(got, f).tobytes() == getattr(want, f).tobytes()\n"
            "                       for f in fields), (name, op)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-3000:]

    @needs_native
    def test_corrupt_cache_file_is_rebuilt_once(self, fresh_loader):
        _, target = native._target()
        target.write_bytes(b"\x7fELF truncated")
        target.chmod(0o700)
        lib = native.load()
        assert lib is not None and lib._name == str(target)
        assert target.stat().st_size > 1000
        assert [p.name for p in fresh_loader.iterdir()] == [target.name]  # no temp left

    @needs_native
    def test_cache_file_without_a_new_symbol_is_rebuilt_once(self, fresh_loader):
        # what a library built before repro_bucket_order existed looks like
        # at today's path: opening it fails on the missing symbol, so it is
        # replaced, not loaded
        cc, target = native._target()
        subprocess.run([cc, *native.FLAGS, "-Drepro_bucket_order=repro_not_there_yet",
                        "-o", str(target), str(native.SOURCE)], check=True)
        target.chmod(0o700)
        stale = target.stat().st_ino
        lib = native.load()
        assert lib is not None and lib.repro_bucket_order is not None
        assert target.stat().st_ino != stale
        assert [p.name for p in fresh_loader.iterdir()] == [target.name]

    @needs_native
    def test_foreign_or_writable_cache_file_is_never_loaded(self, fresh_loader, monkeypatch):
        _, target = native._target()
        target.write_bytes(b"planted")
        target.chmod(0o777)  # world-writable: rebuilt over, then loaded
        assert native.load() is not None and target.stat().st_mode & 0o022 == 0
        # not ours (as seen through a different uid): refused even after a rebuild
        monkeypatch.setattr(native, "_lib", None)
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        opened = []
        monkeypatch.setattr(native.ctypes, "CDLL", lambda path: opened.append(path))
        assert native.load() is None and not opened
        assert "not owned by this user alone" in native.status()["reason"]

    @needs_native
    def test_two_threads_racing_the_first_load(self, fresh_loader):
        got = []
        threads = [threading.Thread(target=lambda: got.append(native.load())) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] is not None and got[0] is got[1]
        assert [p.suffix for p in fresh_loader.iterdir()] == [".so"]

    @needs_native
    def test_two_processes_racing_the_first_load(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(sys.path))
        code = ("from repro.core.kernels import native\n"
                "from repro.core import masked_spgemm\n"
                "from repro.graphs import erdos_renyi\n"
                "g = erdos_renyi(50, 50, 4, seed=1)\n"
                "assert native.status()['loaded'], native.status()\n"
                "print(masked_spgemm(g, g, g, algo='msa').data.sum())\n")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True) for _ in range(2)]
        outs = [p.communicate()[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert outs[0] == outs[1] != ""
        files = list((Path(tmp_path) / "repro").iterdir())
        assert [p.suffix for p in files] == [".so"], files  # one library, no partial file
