"""The native kernel tier (``repro.core.kernels.native`` + ``native.c``).

One differential suite — native against ``native.disabled()`` (the NumPy
bodies) over random and adversarial operands x semirings x complement x
phases x algorithm x backend / grid, asserting equal CSR bytes, equal
``OpCounter`` dicts and column-ascending rows — plus the hostile
conditions the loader and the seam must survive: no compiler, a corrupt or
foreign cache file, racing first loads, malformed ``check=False`` operands,
an installed probe registry.
"""

import contextlib
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import masked_spgemm
from repro.core.kernels import native
from repro.core.kernels.arena import get_arena
from repro.core.kernels.inner_kernel import masked_spgemm_inner_fast
from repro.core.kernels.msa_kernel import masked_spgemm_msa_fast
from repro.core.symbolic import symbolic_masked
from repro.engine import Planner, execute
from repro.machine import HOST, HOST_NATIVE, OpCounter, resolve_machine
from repro.observe import probes, tracing
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
                            # one profile on both sides, so "auto" plans alike
                            out = masked_spgemm(
                                a, b, m, algo=algo, semiring=sr, complement=complement,
                                phases=phases, counter=c, machine=HOST_NATIVE,
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
            else dict(threads=2, backend=how, partition="block")
        )
        # pool workers are their own processes: native.disabled() here does
        # not reach them, so the process runs are checked against the thread
        # backend's NumPy run (same parts, same counters)
        ref_knobs = dict(knobs, backend="thread") if how == "process" else knobs
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
                masked_spgemm_msa_fast(a, b, m, row_nnz=wrong, batch="bucket")


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

    def test_probe_registry_keeps_the_numpy_body(self, spy):
        a, b, m = OPERANDS["random"]

        def run():
            with probes.probing() as pr:
                out = masked_spgemm(a, b, m, algo="msa")
            return out, pr.export()

        (got, hist), (want, hist0) = _both_tiers(run)
        assert not spy.kernel_calls
        assert hist == hist0 and hist["msa.reset_cells"]["count"] > 0
        assert _bytes(got) == _bytes(want)

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
        assert resolve_machine(None) is HOST_NATIVE
        assert HOST_NATIVE.name == HOST.name == "host"
        assert HOST_NATIVE.candidates == ("inner", "msa")
        with native.disabled():
            assert resolve_machine(None) is HOST
        with pytest.raises(ValueError, match="no measured coefficients"):
            Planner(HOST_NATIVE, candidates=("mca",))


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
        assert native.status() == {"loaded": False, "path": None,
                                   "reason": "OSError: no C compiler (cc) on PATH"}
        assert resolve_machine(None) is HOST
        assert not fresh_loader.exists() or not list(fresh_loader.iterdir())

    @needs_native
    def test_sanitized_build_over_the_adversarial_sets(self, tmp_path):
        """``native.c`` under AddressSanitizer + UBSan: an overrun of the
        stack hit buffer or of a leased scratch array is an abort here where
        byte-equality would pass."""
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
