"""Figure 12 — k-truss (k=5) performance profiles of our schemes over the
suite (paper drops its largest graph, wb-edu, for runtime; our suite sizes
make that unnecessary).

Paper claims asserted (Section 8.3):

* MSA performs best on Haswell.
* Inner performs fairly well (the mask sparsifies as pruning proceeds).
* 1P beats 2P; heap-based methods are noncompetitive.
"""

from repro.bench import fig12_ktruss_profiles, render_profile

from conftest import SCALE


def test_fig12_ktruss_profiles(benchmark, save_result):
    prof = benchmark.pedantic(
        lambda: fig12_ktruss_profiles(scale_factor=SCALE, k=5, mode="model"),
        rounds=1,
        iterations=1,
    )
    save_result(render_profile(
        prof, title="Figure 12 — k-truss performance profiles (model, haswell)"
    ))

    ranking = prof.ranking()
    assert ranking[0] == "MSA-1P"

    # Inner-1P is competitive: clearly above the heap schemes
    assert prof.area("Inner-1P") > prof.area("Heap-1P")
    assert prof.area("Inner-1P") > prof.area("HeapDot-2P")

    # 1P >= 2P per algorithm
    for algo in ("Inner", "MSA", "Hash", "MCA", "Heap", "HeapDot"):
        assert prof.area(f"{algo}-1P") >= prof.area(f"{algo}-2P"), algo

    # heap-based methods noncompetitive: never in the top third
    for heap_scheme in ("Heap-1P", "Heap-2P", "HeapDot-2P"):
        assert ranking.index(heap_scheme) >= 4


def test_fig12_mask_sparsifies_over_iterations(benchmark, save_result):
    """The mechanism behind Inner's k-truss showing: pruning makes the mask
    (current adjacency) sparser every iteration."""
    from repro.apps import ktruss
    from repro.graphs import load

    def run():
        g = load("rmat-11")
        return ktruss(g, 5, delta=None).edges_per_iter

    edges = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("k-truss edge counts per iteration: " + str(edges))
    assert len(edges) >= 2
    assert all(b <= a for a, b in zip(edges, edges[1:]))
    assert edges[-1] < edges[0]
