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
from pathlib import Path

from ...observe import probes as _probes
from ...semiring import STANDARD_SEMIRINGS

__all__ = ["load", "kernels", "validate", "disabled", "status"]
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("native.c")
#: ``native.c``'s multiply codes: the np.add monoids (NumPy's min/max NaN / -0.0 order stays there)
_OPS = {"plus_times": 0, "plus_pair": 1, "plus_and": 2, "plus_first": 3, "plus_second": 4}
_SIGNATURES = {  # q = int64, p = pointer; every function returns int64
    "repro_check": "qqppq", "repro_msa": "qq" + "p" * 14, "repro_symbolic": "qq" + "p" * 9,
    "repro_inner": "qq" + "p" * 13, "repro_msa_complement": "qqqq" + "p" * 14 + "qp",
    # called from repro.sparse.csr, not from a kernel
    "repro_bucket_order": "qq" + "p" * 7, "repro_lower_by_degree": "qppq" + "p" * 6,
    "repro_ewise_add": "q" + "p" * 9, "repro_locate": "q" + "p" * 5,  # from repro.sparse.ops
}

_lock = threading.Lock()
_lib = _reason = None  # the CDLL / why loading failed; both None: not tried yet
_disabled = 0


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


def _open() -> ctypes.CDLL:
    cc, target = _target()
    for rebuild in (False, True):  # an unusable cache file is rebuilt once
        if rebuild or not target.exists():
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            os.close(fd)
            try:
                subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)],
                               capture_output=True, check=True)
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


def load() -> ctypes.CDLL | None:
    """The native library, built and opened on first call; ``None`` inside :func:`disabled`
    or when it is unavailable (one warning on the ``repro`` logger, no retries)."""
    global _lib, _reason
    with _lock:
        if _lib is None and _reason is None and not _disabled:
            try:
                _lib = _open()
            except (OSError, AttributeError, subprocess.SubprocessError) as exc:
                _reason = f"{type(exc).__name__}: {exc}"
                logging.getLogger("repro").warning(
                    "native kernel tier unavailable, using the NumPy kernels (%s)", _reason)
    return None if _disabled else _lib


def kernels(semiring, *values):
    """``(lib, op)`` when a call on ``semiring`` reading the ``values`` arrays is eligible, else
    ``None``: semiring in the table, float64 values (PLUS_PAIR reads none), no probes, loaded."""
    op = _OPS.get(semiring.name)
    if op is None or STANDARD_SEMIRINGS[semiring.name] is not semiring:
        return None
    if op != _OPS["plus_pair"] and any(v.dtype.char != "d" for v in values):
        return None
    lib = None if _probes._INSTALLED is not None else load()
    return None if lib is None else (lib, op)


def validate(lib: ctypes.CDLL | None, mats, conforming: bool) -> None:
    """Range-check each distinct CSR operand (``check=False`` ones too) before C reads it; with
    ``lib=None`` the same checks run in NumPy and raise the same errors."""
    if not conforming:
        raise ValueError("operand shapes do not conform")
    for m in {id(m): m for m in mats}.values():
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
def disabled():
    """Run the body on the NumPy tier, process-wide (running pool workers keep their own)."""
    global _disabled
    _disabled += 1
    try:
        yield
    finally:
        _disabled -= 1


def status() -> dict:
    """``{"loaded", "path", "reason"}`` of a :func:`load` attempt."""
    path, reason = getattr(load(), "_name", None), "disabled" if _disabled else _reason
    return {"loaded": path is not None, "path": path, "reason": reason}
