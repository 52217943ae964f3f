"""The ladder's five workloads: inputs from a seed, the public-API call,
the oracle check and the scipy canary for each.

Everything the program under test sees is built here from ``seed``; the
seed itself is never passed to ``repro``.  Why each workload exists (which
layers it stresses and which it bypasses) is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

import oracle

#: rows of the er-sparse-mask canary: the full scipy product costs ~7x the
#: timed call, so the canary multiplies a fixed leading row block instead
ER_CANARY_ROWS = 512


def to_scipy(m) -> sp.csr_matrix:
    """A scipy view of a ``repro`` CSR, reading its three arrays only."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def csr_equal(got, want: sp.csr_matrix, rtol: float = 1e-9) -> bool:
    """Pattern exactly equal, values within ``rtol`` (``want`` is canonical)."""
    g = to_scipy(got).copy()
    g.sort_indices()
    return (
        g.shape == want.shape
        and np.array_equal(g.indptr, want.indptr)
        and np.array_equal(g.indices, want.indices)
        and np.allclose(g.data, want.data, rtol=rtol, atol=0.0)
    )


@dataclass
class Workload:
    """One workload bound to its generated inputs.

    ``call(**overrides)`` is the timed public-API call at shipped defaults;
    overrides exist only for the traced run's rungs.  ``digest`` reduces a
    result to a value ``==`` can compare against the round's first verified
    result; ``check`` compares it with the oracle; ``canary`` is
    pure scipy on the same inputs.  The scipy views and the oracle's answer
    are built on first use, after set-up time has been read.
    """

    name: str
    call: Callable[..., object]
    check: Callable[[object], bool]
    digest: Callable[[object], object]
    canary: Callable[[], object]
    matrix: object  #: the primary generated operand (graph adjacency / A)
    semiring: str  #: name in ``repro.semiring`` the call multiplies on
    #: keyword overrides the call accepts beyond algo/backend/counter/call_log
    accepts: frozenset = frozenset()
    #: whether the call leaves the algorithm to the planner (algo="auto")
    planned: bool = True


def _csr_digest(c):
    return (c.shape, c.indptr.tobytes(), c.indices.tobytes(), c.data.tobytes())


def _tc(name: str, scale: int, seed: int, **fixed) -> Workload:
    from repro.apps import triangle_count_detail
    from repro.graphs import rmat

    g = rmat(scale, seed=seed)

    want = cache(lambda: oracle.triangle_count(to_scipy(g)))

    @cache
    def low():
        out = sp.tril(to_scipy(g), -1, format="csr")
        out.data[:] = 1.0
        return out

    return Workload(
        name=name,
        call=lambda **kw: triangle_count_detail(g, **{**fixed, **kw}),
        check=lambda r: r.triangles == want(),
        digest=lambda r: r.triangles,
        canary=lambda: (low() @ low()).multiply(low()),
        matrix=g,
        semiring="PLUS_PAIR",
        planned="algo" not in fixed,
    )


def _ktruss(scale: int, seed: int) -> Workload:
    from repro.apps import ktruss
    from repro.graphs import rmat

    g = rmat(scale, seed=seed)
    adj = cache(lambda: to_scipy(g))
    want = cache(lambda: oracle.ktruss_edges(adj(), 5))

    def edges(r):
        t = to_scipy(r.truss).tocoo()
        return np.sort(t.row.astype(np.int64) * g.ncols + t.col)

    return Workload(
        name="ktruss-rmat",
        call=lambda **kw: ktruss(g, 5, **kw),
        check=lambda r: np.array_equal(edges(r), want()),
        digest=lambda r: edges(r).tobytes(),
        canary=lambda: oracle.ktruss_edges(adj(), 5),
        matrix=g,
        semiring="PLUS_PAIR",
        accepts=frozenset({"session", "delta"}),
    )


def _bc(scale: int, seed: int) -> Workload:
    from repro.apps import betweenness_centrality
    from repro.graphs import rmat

    g = rmat(scale, seed=seed)
    adj = cache(lambda: to_scipy(g))
    sources = np.random.default_rng(seed).choice(g.nrows, size=64, replace=False)
    want = cache(lambda: oracle.betweenness(adj(), sources))
    return Workload(
        name="bc-rmat",
        call=lambda **kw: betweenness_centrality(g, sources, **kw),
        check=lambda r: np.allclose(r.centrality, want(), rtol=1e-9, atol=1e-9),
        digest=lambda r: r.centrality.tobytes(),
        canary=lambda: oracle.betweenness(adj(), sources),
        matrix=g,
        semiring="PLUS_TIMES",
        accepts=frozenset({"session"}),
    )


def _er(n: int, seed: int) -> Workload:
    from repro.core import masked_spgemm
    from repro.graphs import erdos_renyi

    a = erdos_renyi(n, n, 64, seed=seed)
    b = erdos_renyi(n, n, 64, seed=seed + 1)
    m = erdos_renyi(n, n, 4, seed=seed + 2)
    rows = min(ER_CANARY_ROWS, n)
    views = cache(lambda: (to_scipy(a), to_scipy(b), to_scipy(m)))
    top = cache(lambda: (views()[0][:rows], views()[1], views()[2][:rows]))
    want = cache(lambda: oracle.masked_product(*views()))

    def call(call_log=None, **kw):
        if call_log is not None:
            call_log.append((a, b, m, False))
        return masked_spgemm(a, b, m, **{"algo": "auto", **kw})

    return Workload(
        name="er-sparse-mask",
        call=call,
        check=lambda c: csr_equal(c, want()),
        digest=_csr_digest,
        canary=lambda: oracle.masked_product(*top()),
        matrix=a,
        semiring="PLUS_TIMES",
    )


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Generate the named workload's inputs from ``seed``.

    ``quick`` shrinks every scale by 2 (R-MAT scale - 2, ER side / 4): a
    smoke configuration whose numbers mean nothing.
    """
    down = 2 if quick else 0
    if name == "tc-rmat-auto":
        return _tc(name, 12 - down, seed)
    if name == "tc-rmat-msa":
        return _tc(name, 14 - down, seed, algo="msa")
    if name == "ktruss-rmat":
        return _ktruss(10 - down, seed)
    if name == "bc-rmat":
        return _bc(12 - down, seed)
    if name == "er-sparse-mask":
        return _er(8192 >> down, seed)
    raise ValueError(f"unknown workload {name!r}")
