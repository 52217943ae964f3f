"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.sparse import CSR
from repro.graphs import erdos_renyi, erdos_renyi_graph
from repro.machine import HOST

#: a profile under which no band or split costs anything: every auto plan
#: reaches the per-row census, and rows of different regimes split
SPLIT_FREE = dataclasses.replace(HOST, band_ns=0.0, split_nnz_ns=0.0)


def random_csr(nrows, ncols, degree, seed=0, values="uniform") -> CSR:
    """Random CSR matrix (ER model)."""
    return erdos_renyi(nrows, ncols, degree, seed=seed, values=values)


def native_required():
    """Skip marker for tests that need the native kernel tier loaded."""
    from repro.core.kernels import native

    return pytest.mark.skipif(
        native.load() is None, reason="no C compiler: native tier unavailable"
    )


class NativeSpy:
    """Stands in for the loaded native library (``native._lib``) and
    records which of its functions were looked up: ``calls`` holds every
    name, ``kernel_calls`` only the masked-SpGEMM row loops — eligibility
    (semiring, dtype) gates those, while ``repro.sparse`` reaches
    ``repro_bucket_order`` whatever the semiring.  ``args`` holds each
    call's ``(name, arguments)``."""

    KERNEL_LOOPS = ("repro_msa", "repro_msa_complement", "repro_inner", "repro_symbolic")

    def __init__(self, lib):
        self.lib, self.calls, self.args = lib, [], []

    def __getattr__(self, name):
        self.calls.append(name)
        fn = getattr(self.lib, name)

        def call(*args):
            self.args.append((name, args))
            return fn(*args)

        return call if callable(fn) else fn

    def threads(self, name):
        """The ``nthreads`` (last) argument of every call of ``name``."""
        return [args[-1] for called, args in self.args if called == name]

    @property
    def kernel_calls(self):
        return [name for name in self.calls if name in self.KERNEL_LOOPS]


@pytest.fixture
def numpy_tier():
    """Run the test on the NumPy kernel bodies (for tests that assert an
    artefact of those bodies: lease names, per-chunk spans)."""
    from repro.core.kernels import native

    with native.disabled():
        yield


@pytest.fixture
def small_triple():
    """A, B, M with compatible shapes for masked SpGEMM tests."""
    a = random_csr(40, 30, 4, seed=1)
    b = random_csr(30, 50, 4, seed=2)
    m = random_csr(40, 50, 6, seed=3)
    return a, b, m


@pytest.fixture
def small_graph():
    """Symmetric, zero-diagonal adjacency for app tests."""
    return erdos_renyi_graph(80, 6, seed=4)


def assert_csr_equal(got: CSR, want: CSR, *, tol=1e-12, msg=""):
    """Structural + numeric equality after dropping numeric zeros."""
    g = got.drop_zeros(1e-14)
    w = want.drop_zeros(1e-14)
    assert g.shape == w.shape, f"shape {g.shape} != {w.shape} {msg}"
    assert g.nnz == w.nnz, f"nnz {g.nnz} != {w.nnz} {msg}"
    assert np.array_equal(g.indptr, w.indptr), f"indptr differ {msg}"
    assert np.array_equal(g.indices, w.indices), f"indices differ {msg}"
    assert np.allclose(g.data, w.data, rtol=1e-10, atol=tol), f"data differ {msg}"


def panels(shape, width):
    """The ``1 x K`` grid of width-``width`` column panels over an output of
    ``shape``: the column-panelled multiply, as ``shards=`` spells it."""
    from repro.engine import ShardGrid

    nrows, ncols = shape
    return ShardGrid((0, nrows), tuple(range(0, ncols, width)) + (ncols,))


def grid_every_product(monkeypatch, app: str, shards) -> None:
    """Cut every masked product the app module ``repro.apps.<app>`` makes
    into the grid ``shards``: an app takes no grid of its own, only a
    ``backend=``."""
    import functools
    import importlib

    from repro.core import masked_spgemm

    module = importlib.import_module(f"repro.apps.{app}")
    monkeypatch.setattr(module, "masked_spgemm", functools.partial(masked_spgemm, shards=shards))


def row_split(partition, a, b, m, algo=None, threads=2, col_bounds=None):
    """A plan cutting the rows the way the deleted partition option named
    it: ``block`` as the grid's equal row blocks, ``balanced`` as the
    process backend's own flop-balanced parts, ``cyclic`` as round-robin
    row bands (scattered rows); ``col_bounds`` adds column panels."""
    from repro.engine import RowBand, ShardGrid, plan

    n = a.nrows
    rows = ShardGrid.regular(a.shape, threads, 1).row_bounds if partition == "block" else (0, n)
    pl = plan(a, b, m, algo=algo, threads=threads,
              backend="process" if partition == "balanced" else None,
              shards=ShardGrid(rows, col_bounds or (0, b.ncols)))
    if partition == "cyclic":
        pl.bands = [RowBand(rows=np.arange(i, n, threads), algo=pl.bands[0].algo)
                    for i in range(threads)]
        pl.validate()
    return pl


def assert_overhead_per_call(plain, instrumented, budget_us, *, calls=20,
                             trials=15, attempts=3):
    """Assert ``instrumented()`` costs at most ``budget_us`` microseconds
    per call more than ``plain()``.

    An absolute budget, so the verdict does not move with how fast the
    wrapped kernel happens to be.  The two sides are timed strictly
    interleaved (plain, instrumented, plain, ...) so allocator state and
    frequency drift hit both alike; min-of-trials discards noisy rounds,
    and a sustained contention burst gets a fresh attempt rather than a
    spurious failure.
    """
    def timed(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain()
    instrumented()  # warm both paths (allocators, caches, registries)
    for _ in range(attempts):
        t_plain = t_instr = float("inf")
        for _ in range(trials):
            t_plain = min(t_plain, timed(plain))
            t_instr = min(t_instr, timed(instrumented))
        extra_us = (t_instr - t_plain) / calls * 1e6
        if extra_us <= budget_us:
            return
    raise AssertionError(
        f"overhead {extra_us:.1f} us per call exceeds the {budget_us} us "
        f"budget ({t_instr / calls * 1e6:.1f} us instrumented vs "
        f"{t_plain / calls * 1e6:.1f} us plain)"
    )
