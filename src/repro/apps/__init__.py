"""Graph-analytics applications built on masked SpGEMM: the paper's three
benchmarks (Triangle Counting, k-truss, Betweenness Centrality) plus BFS."""

# The apps' products are planned: load the engine with the package rather
# than inside an app's first call (loaded there, the warm triangle counts
# of R-MAT 12 read ~7% slower on a 2-core host).
from .. import engine as _engine  # noqa: F401
from .betweenness import BetweennessResult, betweenness_centrality
from .bfs import BFSResult, multi_source_bfs
from .connected_components import CCResult, connected_components
from .direction_bfs import DirectionBFSResult, direction_optimized_bfs
from .ktruss import KTrussResult, ktruss
from .markov_clustering import MCLResult, markov_clustering
from .sparse_dnn import (
    DNNResult,
    SparseDNN,
    random_sparse_dnn,
    sparse_dnn_forward,
    sparse_dnn_forward_topk,
)
from .sssp import SSSPResult, sssp
from .streaming import (
    StreamingResult,
    edge_stream_from_graph,
    sliding_window_triangles,
)
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
    "CCResult",
    "connected_components",
    "DirectionBFSResult",
    "direction_optimized_bfs",
    "KTrussResult",
    "ktruss",
    "MCLResult",
    "markov_clustering",
    "SSSPResult",
    "sssp",
    "StreamingResult",
    "edge_stream_from_graph",
    "sliding_window_triangles",
    "DNNResult",
    "SparseDNN",
    "random_sparse_dnn",
    "sparse_dnn_forward",
    "sparse_dnn_forward_topk",
    "InferenceResult",
    "LabelTree",
    "beam_search_inference",
    "exhaustive_inference",
    "random_label_tree",
    "TriangleCountResult",
    "triangle_count",
    "triangle_count_detail",
]
