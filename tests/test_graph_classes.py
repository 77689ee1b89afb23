import importlib.util
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs, pattern_graph
from domiperf.enumeration import canonical_form, enumerate_graphs, enumerate_up_to
from domiperf.graph import (
    MAX_ORDER,
    GraphError,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from domiperf.graph_classes import (
    TreeClass,
    block_decomposition,
    block_graph_corollary,
    chordal_corollary,
    classify_tree,
    claw_free_corollary,
    corona_k1,
    is_block_graph,
    is_chordal,
    line_graph,
    line_graph_criterion,
    middle_graph,
    middle_graph_criterion,
    middle_graph_star_phrasing,
    total_graph,
    tree_corollary_conditions,
)
from domiperf.patterns import contains_subgraph, is_claw_free, pattern_by_name
from domiperf.perfection import perfect_by_theorem


def _spider(k):
    """K_{1,k} with every edge subdivided once; center is vertex 0."""
    edges = []
    for i in range(k):
        mid, leaf = 1 + 2 * i, 2 + 2 * i
        edges += [(0, mid), (mid, leaf)]
    return build_graph(1 + 2 * k, edges)


def _broom(k):
    """K_{1,k} with one edge subdivided twice; handle 0-1-2-3."""
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(0, 4 + i) for i in range(k - 1)]
    return build_graph(3 + k, edges)


def test_classify_tree_examples():
    assert classify_tree(build_graph(1, [])) is TreeClass.SINGLETON
    assert classify_tree(star_graph(4)) is TreeClass.STAR
    assert classify_tree(star_graph(1)) is TreeClass.STAR
    assert classify_tree(_spider(4)) is TreeClass.SPIDER
    assert classify_tree(path_graph(4)) is TreeClass.WOUNDED_SPIDER
    assert classify_tree(path_graph(5)) is TreeClass.SPIDER
    assert classify_tree(_broom(4)) is TreeClass.BROOM3
    assert classify_tree(path_graph(6)) is TreeClass.OTHER
    # wounded spider: K_{1,4} with two edges subdivided
    ws = build_graph(7, [(0, 1), (0, 2), (0, 3), (3, 5), (0, 4), (4, 6)])
    assert classify_tree(ws) is TreeClass.WOUNDED_SPIDER


def test_tree_label_counts_match_closed_forms():
    # a labelled tree is a subdivided star, fixed up to isomorphism by its order
    # and its number of subdivided legs; counted over all 987 trees of order <= 12
    counts = Counter((t.n, classify_tree(t)) for t in enumerate_up_to(12, "tree"))
    assert sum(counts.values()) == 987
    expected = {(1, TreeClass.SINGLETON): 1}
    expected.update({(n, TreeClass.STAR): 1 for n in range(2, 13)})
    expected.update({(n, TreeClass.SPIDER): 1 for n in range(5, 12, 2)})
    expected.update({(n, TreeClass.BROOM3): 1 for n in range(6, 13)})
    expected.update({(n, TreeClass.WOUNDED_SPIDER): (n - 2) // 2 for n in range(4, 13)})
    labelled = {key: c for key, c in counts.items() if key[1] is not TreeClass.OTHER}
    assert labelled == expected
    totals = Counter()
    for (_, cls), c in labelled.items():
        totals[cls] += c
    assert [totals[c] for c in (TreeClass.STAR, TreeClass.SPIDER, TreeClass.BROOM3,
                                TreeClass.WOUNDED_SPIDER)] == [11, 4, 7, 25]


def test_classify_tree_rejects_non_trees():
    with pytest.raises(GraphError):
        classify_tree(cycle_graph(4))


def test_tree_corollary_conditions():
    assert tree_corollary_conditions(_broom(4)) == (True,) * 4
    assert tree_corollary_conditions(path_graph(6)) == (False,) * 4
    assert tree_corollary_conditions(build_graph(1, [])) == (True,) * 4


def test_is_chordal():
    assert is_chordal(path_graph(6))
    assert is_chordal(star_graph(5))
    assert not is_chordal(cycle_graph(6))
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(complete_graph(5))
    # C4 plus a chord is chordal
    assert is_chordal(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


def _networkx_chordal(g):
    import networkx as nx

    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return nx.is_chordal(h)


needs_networkx = pytest.mark.skipif(
    importlib.util.find_spec("networkx") is None, reason="networkx oracle not installed"
)


@needs_networkx
def test_is_chordal_matches_networkx_up_to_order_7():
    universe = list(enumerate_up_to(7))
    assert len(universe) == 1252
    for g in universe:
        assert is_chordal(g) == _networkx_chordal(g)


@needs_networkx
@given(graphs(max_n=14))
@settings(max_examples=200, deadline=None)
def test_is_chordal_matches_networkx(g):
    assert is_chordal(g) == _networkx_chordal(g)


def _cut_vertices(blocks):
    # in a block graph the cut vertices are the vertices in two or more blocks
    return {v for v, k in Counter(v for blk in blocks for v in blk).items() if k >= 2}


def test_block_decomposition_p4():
    blocks = block_decomposition(path_graph(4))
    assert blocks == ({0, 1}, {1, 2}, {2, 3})
    assert _cut_vertices(blocks) == {1, 2}


def test_block_decomposition_k4_and_isolated():
    blocks = block_decomposition(complete_graph(4))
    assert blocks == ({0, 1, 2, 3},) and not _cut_vertices(blocks)
    # one edge block plus one isolated vertex
    assert block_decomposition(build_graph(3, [(0, 1)])) == ({0, 1}, {2})


def test_block_decomposition_broom_blocks_are_edges():
    blocks = block_decomposition(_broom(4))
    assert all(len(b) == 2 for b in blocks)


def test_is_block_graph():
    assert is_block_graph(path_graph(5))
    assert not is_block_graph(cycle_graph(6))
    k4_pendant = build_graph(5, complete_graph(4).edges() + [(0, 4)])
    assert is_block_graph(k4_pendant)


def test_block_graph_corollary_examples():
    assert block_graph_corollary(complete_graph(4))
    assert not block_graph_corollary(path_graph(6))
    assert block_graph_corollary(_spider(4))
    with pytest.raises(GraphError):
        block_graph_corollary(cycle_graph(6))
    with pytest.raises(GraphError):
        block_graph_corollary(build_graph(4, [(0, 1), (2, 3)]))


def test_class_corollaries():
    assert chordal_corollary(path_graph(5))
    assert not chordal_corollary(pattern_graph("H1"))
    assert not claw_free_corollary(cycle_graph(6))
    with pytest.raises(GraphError):
        chordal_corollary(cycle_graph(6))
    with pytest.raises(GraphError):
        claw_free_corollary(star_graph(3))


def test_constructions():
    assert line_graph(star_graph(3)) == complete_graph(3)
    corona = corona_k1(complete_graph(2))
    assert sorted(corona.degree(v) for v in range(corona.n)) == [1, 1, 2, 2]
    m = middle_graph(complete_graph(2))
    assert (m.n, m.m) == (3, 2) and m.diameter() == 2  # P3
    assert line_graph(path_graph(7)) == path_graph(6)
    t = total_graph(complete_graph(2))
    assert t == complete_graph(3)


def _pairwise_line_graph(h):
    """L(H) straight from the definition: two edges adjacent iff they share an endpoint."""
    edges = h.edges()
    return build_graph(len(edges), [(a, b) for (a, e), (b, f) in combinations(enumerate(edges), 2)
                                    if set(e) & set(f)])


def test_line_graph_matches_pairwise_definition_through_order_6():
    for h in enumerate_up_to(6):
        assert line_graph(h) == _pairwise_line_graph(h)


@given(graphs(max_n=11))
@settings(max_examples=60, deadline=None)
def test_line_graph_matches_pairwise_definition(h):
    assert line_graph(h) == _pairwise_line_graph(h)


def test_construction_caps():
    # each construction stops exactly where its output would pass MAX_ORDER
    k12 = [(u, v) for u in range(12) for v in range(u + 1, 12)]  # 66 edges
    too_big = f"exceed {MAX_ORDER} vertices"
    assert line_graph(build_graph(12, k12[:MAX_ORDER])).n == MAX_ORDER
    with pytest.raises(GraphError, match=f"line graph would {too_big}"):
        line_graph(build_graph(12, k12[:MAX_ORDER + 1]))
    assert corona_k1(build_graph(MAX_ORDER // 2, [])).n == MAX_ORDER
    with pytest.raises(GraphError, match=f"corona would {too_big}"):
        corona_k1(build_graph(MAX_ORDER // 2 + 1, []))
    assert total_graph(cycle_graph(MAX_ORDER // 2)).n == MAX_ORDER  # n + m = 32 + 32
    with pytest.raises(GraphError, match=f"total graph would {too_big}"):
        total_graph(path_graph(MAX_ORDER // 2 + 1))  # n + m = 33 + 32


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_total_graph_joins_host_and_line_graph(h):
    # V(H) induces H, E(H) induces L(H), and each edge vertex sees its two ends
    t = total_graph(h)
    assert t.induced(range(h.n)) == h
    assert t.induced(range(h.n, t.n)) == line_graph(h)
    for a, (u, v) in enumerate(h.edges()):
        assert t.adj[h.n + a] & h.vertex_mask == 1 << u | 1 << v


def test_line_graph_criterion():
    assert not line_graph_criterion(cycle_graph(6))
    assert line_graph_criterion(star_graph(5))
    assert not line_graph_criterion(path_graph(7))


def test_line_graph_criterion_two_p4_clause():
    # 2P4 has 8 vertices, past the line sweep's hosts of order <= 7
    two_p4 = pattern_graph("TWO_P4")
    assert not line_graph_criterion(two_p4)
    assert canonical_form(line_graph(two_p4)) == canonical_form(pattern_graph("TWO_P3"))
    pat, _ = perfect_by_theorem(line_graph(two_p4)).witness
    assert pat.name == "H7"
    # the hosts of order 8 that only the 2P4 clause decides
    p7, c6 = pattern_by_name("P7"), pattern_by_name("C6")
    hosts = [h for h in enumerate_graphs(8) if contains_subgraph(h, pattern_by_name("TWO_P4"))
             and not contains_subgraph(h, p7) and not contains_subgraph(h, c6)]
    assert len(hosts) == 23
    for h in hosts:
        assert not line_graph_criterion(h)
        assert not perfect_by_theorem(line_graph(h)).perfect, h.adj


def test_middle_graph_criterion():
    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    assert not middle_graph_criterion(two_k2)
    assert middle_graph_criterion(star_graph(4))
    assert middle_graph_criterion(complete_graph(3))
    # the star phrasing disagrees exactly on the triangle
    assert not middle_graph_star_phrasing(complete_graph(3))
    assert middle_graph_star_phrasing(star_graph(4))


@given(graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_line_graphs_are_claw_free(h):
    assert is_claw_free(line_graph(h))


@given(graphs(max_n=6))
@settings(max_examples=20, deadline=None)
def test_line_criterion_matches_theorem(h):
    assert line_graph_criterion(h) == perfect_by_theorem(line_graph(h)).perfect


@given(graphs(max_n=5))
@settings(max_examples=20, deadline=None)
def test_middle_criterion_matches_theorem(h):
    assert middle_graph_criterion(h) == perfect_by_theorem(middle_graph(h)).perfect


def test_block_code_matches_networkx_biconnected_components():
    # independent oracle: networkx's biconnected components and articulation
    # points, on every graph of order <= 7
    nx = pytest.importorskip("networkx")
    for g in enumerate_up_to(7):
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        comps = [frozenset(c) for c in nx.biconnected_components(h)]
        cliques = all(g.adj[u] >> v & 1 for c in comps for u, v in combinations(sorted(c), 2))
        assert is_block_graph(g) == cliques
        if cliques:
            blocks = block_decomposition(g)
            isolated = {frozenset((v,)) for v in nx.isolates(h)}
            assert set(blocks) == set(comps) | isolated
            assert len(blocks) == len(comps) + len(isolated)
            assert _cut_vertices(blocks) == set(nx.articulation_points(h))


def test_block_decomposition_rejects_non_block_graphs():
    diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    for g in (cycle_graph(4), cycle_graph(6), diamond):
        with pytest.raises(GraphError, match="block graph"):
            block_decomposition(g)
