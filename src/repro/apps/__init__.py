"""Applications built on masked SpGEMM: the paper's three benchmarks
(Triangle Counting, k-truss, Betweenness Centrality) plus two extensions,
multi-source BFS (the second caller of the visited-bitmap product, and the
source check BC uses) and tree inference (the paper's ref. [21])."""

# The apps' products are planned: load the engine with the package rather
# than inside an app's first call (loaded there, the warm triangle counts
# of R-MAT 12 read ~7% slower on a 2-core host).
from .. import engine as _engine  # noqa: F401
from .betweenness import BetweennessResult, betweenness_centrality
from .bfs import BFSResult, multi_source_bfs
from .ktruss import KTrussResult, ktruss
from .tree_inference import (
    InferenceResult,
    LabelTree,
    beam_search_inference,
    exhaustive_inference,
    random_label_tree,
)
from .triangle_counting import (
    TriangleCountResult,
    triangle_count,
    triangle_count_detail,
)

__all__ = [
    "BetweennessResult",
    "betweenness_centrality",
    "BFSResult",
    "multi_source_bfs",
    "KTrussResult",
    "ktruss",
    "InferenceResult",
    "LabelTree",
    "beam_search_inference",
    "exhaustive_inference",
    "random_label_tree",
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_detail",
]
