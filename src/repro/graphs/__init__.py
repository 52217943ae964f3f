"""Graph/matrix generators: Erdős–Rényi, R-MAT (Graph500), structural
families, the 26-graph real-world stand-in suite, and relabeling."""

from .erdos_renyi import erdos_renyi, erdos_renyi_graph
from .generators import (
    bipartite_like,
    block_diagonal_dense,
    grid2d,
    grid3d,
    path_like_road,
    power_law,
    small_world,
)
from .relabel import degree_sort_permutation, lower_by_degree, relabel_by_degree
from .rmat import GRAPH500_EDGE_FACTOR, GRAPH500_PARAMS, rmat
from .suite import SUITE, load, load_all, suite_names

__all__ = [
    "erdos_renyi",
    "erdos_renyi_graph",
    "bipartite_like",
    "block_diagonal_dense",
    "grid2d",
    "grid3d",
    "path_like_road",
    "power_law",
    "small_world",
    "degree_sort_permutation",
    "relabel_by_degree",
    "lower_by_degree",
    "GRAPH500_EDGE_FACTOR",
    "GRAPH500_PARAMS",
    "rmat",
    "SUITE",
    "load",
    "load_all",
    "suite_names",
]
