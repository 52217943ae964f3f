"""Tests over the bundled real-world data (Zachary's karate club)."""

from pathlib import Path

import numpy as np
import pytest

from repro.apps import (
    betweenness_centrality,
    ktruss,
    multi_source_bfs,
    triangle_count,
)
from repro.sparse import read_mtx

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="module")
def karate():
    return read_mtx(DATA / "karate.mtx")


class TestKarateClub:
    """Ground truths for Zachary's karate club are textbook facts."""

    def test_shape(self, karate):
        assert karate.shape == (34, 34)
        assert karate.nnz == 2 * 78  # 78 undirected edges

    def test_symmetric(self, karate):
        assert karate.equals(karate.transpose())

    def test_triangles(self, karate):
        assert triangle_count(karate) == 45

    def test_connected(self, karate):
        """BFS from vertex 0 reaches all 34 members."""
        res = multi_source_bfs(karate, [0])
        assert (res.levels[0] >= 0).sum() == 34

    def test_hubs(self, karate):
        """The instructor (0) and the president (33) are the two highest-
        degree vertices."""
        deg = karate.row_nnz()
        top2 = set(np.argsort(deg)[-2:].tolist())
        assert top2 == {0, 33}

    def test_betweenness_hubs(self, karate):
        res = betweenness_centrality(karate, sources=range(34))
        top = int(np.argmax(res.centrality))
        assert top in (0, 33)

    def test_ktruss(self, karate):
        import networkx as nx

        res = ktruss(karate, 4)
        want = nx.k_truss(nx.karate_club_graph(), 4)
        assert res.truss.nnz // 2 == want.number_of_edges()
