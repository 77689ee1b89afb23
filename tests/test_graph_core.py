import math
from itertools import combinations

import pytest
from hypothesis import given

from conftest import graphs, pattern_graph
from domiperf.graph import (
    Graph,
    GraphError,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


def test_empty_graph():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0


def test_h7_degree_sequence():
    g = build_graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 1, 2, 2]


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(0, 0)]),          # loop
        (3, [(0, 3)]),          # out of range
        (65, []),               # too large
        (2, [(-1, 0)]),
    ],
)
def test_build_rejects(n, edges):
    with pytest.raises(GraphError):
        build_graph(n, edges)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph(65, (0,) * 65),                 # order outside 0..64
        lambda: Graph(-1, ()),
        lambda: Graph(3, (0b010, 0b001)),             # two rows for order 3
        lambda: Graph(2, (0b110, 0b001)),             # row bit 2 >= n
        lambda: Graph(2, (0b011, 0b001)),             # loop at vertex 0
        lambda: Graph(3, (0b010, 0b000, 0b000)),      # 0 sees 1, 1 does not see 0
        lambda: path_graph(3).induced([0, 3]),        # vertex out of range
        lambda: path_graph(3).induced([-1]),
        lambda: path_graph(3).is_dominating([1, 3]),  # set outside the host
        lambda: path_graph(3).is_independent([4]),
    ],
)
def test_graph_checks_its_input(make):
    with pytest.raises(GraphError):
        make()


def test_induced_full_set_is_identity():
    g = pattern_graph("H5")
    assert g.induced(range(6)) == g


def test_induced_prefix_of_path():
    p6 = path_graph(6)
    assert p6.induced({0, 1, 2}) == path_graph(3)


def test_induced_c6_minus_vertex_is_p5():
    c6 = cycle_graph(6)
    sub = c6.induced({0, 1, 2, 3, 4})
    # relabeling by ascending index keeps it a 5-path: 4-0-1-2-3 in old labels
    assert sub.n == 5 and sub.m == 4
    assert sorted(sub.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert sub.is_connected()


def test_diameter():
    assert complete_graph(4).diameter() == 1
    assert path_graph(6).diameter() == 5
    spider = build_graph(
        9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]
    )
    assert spider.diameter() == 4
    assert build_graph(2, []).diameter() == math.inf
    assert build_graph(1, []).diameter() == 0
    assert build_graph(0, []).diameter() == 0


def test_is_independent():
    k3 = complete_graph(3)
    assert k3.is_independent([])
    assert not k3.is_independent([0, 1])
    h7 = build_graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert h7.is_independent([0, 4, 1, 5])


def test_is_dominating():
    h1 = pattern_graph("H1")
    assert h1.is_dominating(range(6))
    assert h1.is_dominating([0, 4])  # the two centers, 1-based {1,5}
    assert not path_graph(6).is_dominating([0])


def test_components_and_trees():
    h7 = build_graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    assert not h7.is_connected()
    assert path_graph(6).is_tree()
    assert not cycle_graph(6).is_tree()
    assert star_graph(4).is_tree()


@given(graphs(max_n=7))
def test_induced_subgraphs_stay_valid(g):
    # Graph.__post_init__ enforces symmetry and looplessness
    for k in range(g.n + 1):
        for combo in list(combinations(range(g.n), k))[:5]:
            sub = g.induced(combo)
            assert sub.n == k


@given(graphs(min_n=2, max_n=7))
def test_diameter_matches_pairwise_max(g):
    # independent oracle: networkx's connectivity test and diameter
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    if nx.is_connected(h):
        assert g.diameter() == nx.diameter(h)
    else:
        assert g.diameter() == math.inf


@given(graphs(max_n=8))
def test_is_connected_matches_networkx(g):
    # independent oracle: networkx's connectivity test; it rejects K0, which is connected here
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    assert g.is_connected() == (g.n == 0 or nx.is_connected(h))
