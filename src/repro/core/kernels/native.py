"""Loader of the native kernel tier (``native.c``; ``docs/kernels.md``).

:func:`load` compiles the C source next to this file on first use — never at import — into
the per-user cache directory, opens it with :mod:`ctypes` (which releases the GIL around
every call) and returns the library, or ``None`` on any failure.  The fast kernels ask
:func:`kernels` at their head and fall through to their NumPy body on ``None``: results
never depend on the tier, only wall time.
"""

from __future__ import annotations

import _ctypes
import contextlib
import contextvars
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Optional

from ...machine.host import available_cores
from ...semiring import STANDARD_SEMIRINGS

__all__ = ["load", "kernels", "validate", "trusted", "trust", "disabled", "status",
           "threads_for", "scatter_threads"]
#: build flags; ``-fopenmp`` joins them where a probe compile succeeds (:func:`_open`)
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("native.c")
#: ``native.c``'s multiply codes: the np.add monoids (NumPy's min/max NaN / -0.0 order stays there)
_OPS = {"plus_times": 0, "plus_pair": 1, "plus_and": 2, "plus_first": 3, "plus_second": 4}
_SIGNATURES = {  # q = int64, p = pointer; every function returns int64
    "repro_check": "qqppq", "repro_msa": "qqqq" + "p" * 14 + "qpppq",
    "repro_msa_bound": "qqq" + "p" * 6, "repro_symbolic": "qqqq" + "p" * 9,
    "repro_inner": "qqqq" + "p" * 13, "repro_openmp": "",
    # called from repro.sparse.csr, not from a kernel
    "repro_bucket_order": "qqpqp" + "p" * 6 + "q", "repro_lower_by_degree": "qppq" + "p" * 6 + "q",
    # from repro.sparse.ops
    "repro_pattern_union": "q" + "p" * 6,
    "repro_locate": "q" + "p" * 5,
}
#: the OpenMP probe: a parallel region that links only with a working ``-fopenmp``
_OPENMP_PROBE = b"""#include <omp.h>
int repro_probe(void)
{
    int n = 0;
#pragma omp parallel num_threads(2) reduction(+ : n)
    n += 1 + omp_get_thread_num();
    return n;
}
"""
#: the call's work estimate (products, ``nnz(A) * nnz(B) / nrows(B)``) from
#: which :func:`threads_for` runs a kernel on every core (``docs/parallel.md``,
#: "In-kernel threads": the measured crossover)
PARALLEL_WORK = 1 << 17
#: the same for the counting scatter (``repro_bucket_order``, also under
#: ``repro_lower_by_degree``), in keys: :func:`scatter_threads`
#: (``benchmarks/test_real_threads.py`` records the measured crossover)
PREPARE_PARALLEL_NNZ = 1 << 17

_lock = threading.Lock()
_lib = _reason = None  # the CDLL / why loading failed; both None: not tried yet
_wait_policy = None  # what libgomp read at this process's first load: _passive_waits()
_disabled = 0
_forked = False  # set in a forked child: libgomp's thread pool did not survive the fork
#: the operands the running call vouches for (:func:`trusted`); ``None`` outside one
_trusted: contextvars.ContextVar = contextvars.ContextVar("repro_trusted", default=None)


def _after_fork_in_child() -> None:
    global _forked
    _forked = True


os.register_at_fork(after_in_child=_after_fork_in_child)


def _check_owner(path: Path) -> None:
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:  # group/world-writable
        raise OSError(f"{path} is not owned by this user alone")


def _target() -> tuple[str, Path]:
    """The compiler and the library's cache path: ``$XDG_CACHE_HOME`` -> ``~/.cache`` -> a 0700
    per-uid temp directory, named by a hash of source + flags + ``cc --version`` + platform."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    version = subprocess.run([cc, "--version"], capture_output=True, check=True).stdout
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(FLAGS).encode() + version
                         + f"{platform.machine()}-{sys.platform}".encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "repro"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        cache = Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"
        cache.mkdir(mode=0o700, exist_ok=True)
        _check_owner(cache)
    return cc, cache / f"native-{key}.so"


def _openmp_flags(cc: str, workdir: Path) -> tuple:
    """``("-fopenmp",)`` when the compiler builds and links an OpenMP region, else ``()``."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        src = Path(tmp) / "probe.c"
        src.write_bytes(_OPENMP_PROBE)
        done = subprocess.run([cc, *FLAGS, "-fopenmp", "-o", str(src.with_suffix(".so")),
                               str(src)], capture_output=True)
    return ("-fopenmp",) if done.returncode == 0 else ()


def _open() -> ctypes.CDLL:
    cc, target = _target()
    for rebuild in (False, True):  # an unusable cache file is rebuilt once
        if rebuild or not target.exists():
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            os.close(fd)
            try:
                subprocess.run([cc, *FLAGS, *_openmp_flags(cc, target.parent), "-o", tmp,
                                str(SOURCE)], capture_output=True, check=True)
                os.chmod(tmp, 0o700)
                os.replace(tmp, target)  # publish whole or not at all
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
        lib = None
        try:
            _check_owner(target)
            lib = ctypes.CDLL(str(target))
            for name, sig in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes = [ctypes.c_int64 if c == "q" else ctypes.c_void_p for c in sig]
                fn.restype = ctypes.c_int64
            return lib
        except (OSError, AttributeError):
            if rebuild:
                raise
            if lib is not None:  # lacks a symbol: unload it, or dlopen hands it back by path
                _ctypes.dlclose(lib._handle)


def _passive_waits() -> str:
    """Default ``OMP_WAIT_POLICY`` to ``passive`` in the process environment (a user's value
    wins), so a thread waiting for a region sleeps instead of spinning on a core that a busy
    neighbour may need (``docs/parallel.md``, "In-kernel threads").  libgomp reads it once,
    when it is mapped: returns the policy it will read, or ``"unknown"`` where something
    else mapped it first."""
    policy = os.environ.setdefault("OMP_WAIT_POLICY", "passive")
    try:
        ctypes.CDLL("libgomp.so.1", mode=os.RTLD_NOLOAD)  # opens only a mapped one
    except OSError:
        return policy
    return "unknown"


def load() -> ctypes.CDLL | None:
    """The native library, built and opened on first call; ``None`` inside :func:`disabled`
    or when it is unavailable (one warning on the ``repro`` logger, no retries)."""
    global _lib, _reason, _wait_policy
    with _lock:
        if _lib is None and _reason is None and not _disabled:
            if _wait_policy is None:  # before the first load maps libgomp
                _wait_policy = _passive_waits()
            try:
                _lib = _open()
            except (OSError, AttributeError, subprocess.SubprocessError) as exc:
                _reason = f"{type(exc).__name__}: {exc}"
                logging.getLogger("repro").warning(
                    "native kernel tier unavailable, using the NumPy kernels (%s)", _reason)
    return None if _disabled else _lib


def kernels(semiring, *values):
    """``(lib, op)`` when a call on ``semiring`` reading the ``values`` arrays is eligible, else
    ``None``: semiring in the table, float64 values (PLUS_PAIR reads none), loaded."""
    op = _OPS.get(semiring.name)
    if op is None or STANDARD_SEMIRINGS[semiring.name] is not semiring:
        return None
    if op != _OPS["plus_pair"] and any(v.dtype.char != "d" for v in values):
        return None
    lib = load()
    return None if lib is None else (lib, op)


def validate(lib: ctypes.CDLL | None, mats, conforming: bool) -> None:
    """Range-check each distinct CSR operand (``check=False`` ones too) before C reads it; with
    ``lib=None`` the same checks run in NumPy and raise the same errors.  Inside a
    :func:`trusted` scope the operands :func:`trust` named are skipped."""
    if not conforming:
        raise ValueError("operand shapes do not conform")
    held = _trusted.get()
    for m in {id(m): m for m in mats}.values():
        if held is not None and m in held:
            continue
        p, j, nnz = m.indptr, m.indices, m.indices.shape[0]
        if p.shape[0] != m.nrows + 1 or m.data.shape[0] != nnz:
            bad = 1
        elif lib is not None:
            bad = lib.repro_check(m.nrows, m.ncols, p.ctypes.data, j.ctypes.data, nnz)
        elif p[0] != 0 or p[-1] != nnz or (p[1:] < p[:-1]).any():
            bad = 1
        else:
            bad = 2 if nnz and (j.min() < 0 or j.max() >= m.ncols) else 0
        if bad == 2:
            raise IndexError("column index out of range")
        if bad:
            raise ValueError("indptr / indices / data do not describe a CSR of this shape")


@contextlib.contextmanager
def trusted():
    """One app call's scope: :func:`validate` skips the operands :func:`trust` names inside it
    -- the ones the call checked at entry or built itself -- and trusts nothing once it closes.
    The scope holds the objects (weakly), not their ids, so an object that died cannot vouch
    for a new one at its address; it is a context variable, so another thread's or context's
    calls never see it."""
    token = _trusted.set(weakref.WeakSet())
    try:
        yield
    finally:
        _trusted.reset(token)


def trust(*mats) -> None:
    """Name operands of the running :func:`trusted` scope (nothing outside one)."""
    held = _trusted.get()
    if held is not None:
        held.update(mats)


@contextlib.contextmanager
def disabled():
    """Run the body on the NumPy tier, process-wide (running pool workers keep their own)."""
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def status() -> dict:
    """``{"loaded", "path", "reason", "openmp", "wait_policy"}`` of a :func:`load` attempt;
    ``openmp``: the row loops can run on several threads; ``wait_policy``: the
    ``OMP_WAIT_POLICY`` their threads wait under (:func:`_passive_waits`), ``None`` without
    OpenMP."""
    path, reason = getattr(load(), "_name", None), "disabled" if _disabled else _reason
    openmp = _openmp()
    return {"loaded": path is not None, "path": path, "reason": reason, "openmp": openmp,
            "wait_policy": _wait_policy if openmp else None}


def _openmp() -> bool:
    lib = load()
    return lib is not None and bool(lib.repro_openmp())


def threads_for(work: float, threads: Optional[int] = None, backend: Optional[str] = None, *,
                crossover: Optional[float] = None) -> int:
    """The thread count of one native row loop: 1 in a forked child and under
    ``backend="serial"``, whatever ``threads`` says (a forked child stays out of libgomp);
    else the caller's ``threads``; else every core this process may use when ``work`` (an O(1)
    estimate of the call's products) reaches ``crossover`` (default :data:`PARALLEL_WORK`)
    and the library has OpenMP; else 1.  ``OMP_NUM_THREADS`` is not read.  A host plan
    records the count in ``threads``; a process-pool work item passes 1 instead."""
    if _forked or str(backend).lower() == "serial":
        return 1
    if threads is not None:
        return max(1, int(threads))
    if work < (PARALLEL_WORK if crossover is None else crossover) or not _openmp():
        return 1
    return available_cores()


def scatter_threads(n: int, threads: Optional[int] = None, backend: Optional[str] = None) -> int:
    """The thread count of one counting scatter over ``n`` keys: 1 below
    :data:`PREPARE_PARALLEL_NNZ`, whatever ``threads`` says, else :func:`threads_for`'s.  The
    scatter itself stays serial where its per-thread cursor tables would outgrow the keys."""
    if n < PREPARE_PARALLEL_NNZ:
        return 1
    return threads_for(n, threads, backend, crossover=PREPARE_PARALLEL_NNZ)
