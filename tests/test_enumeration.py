import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import pytest

from conftest import pattern_graph
from domiperf.enumeration import (
    VerificationReport,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    verify_chain,
    verify_theorem,
)
from domiperf.graph import Graph, GraphError, build_graph, complete_graph, cycle_graph, path_graph
from domiperf.graph_classes import is_chordal

SMALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_canonical_identifies_isomorphs():
    assert canonical_form(pattern_graph("H8")) == canonical_form(path_graph(6))
    assert canonical_form(pattern_graph("H9")) == canonical_form(cycle_graph(6))
    tokens = set()
    for perm in permutations(range(3)):
        g = build_graph(3, [(perm[0], perm[1]), (perm[1], perm[2]), (perm[0], perm[2])])
        tokens.add(canonical_form(g).token)
    assert len(tokens) == 1


def test_canonical_cap():
    with pytest.raises(GraphError):
        canonical_form(build_graph(11, []))


def _symmetric_graphs():
    yield complete_graph(10)
    yield build_graph(10, [])
    yield cycle_graph(10)
    yield build_graph(10, [(u, v) for u in range(5) for v in range(5, 10)])  # K5,5
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    yield build_graph(10, petersen)


def test_canonical_invariance_random_relabelings():
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    cases += [(g.n, g.edges()) for g in _symmetric_graphs()]
    for n, edges in cases:
        base = canonical_form(build_graph(n, edges)).token
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
            assert canonical_form(g2).token == base
            assert canonical_form(canonical_graph(g2)).token == base


def test_canonical_separates_symmetric_graphs():
    tokens = {canonical_form(g).token for g in _symmetric_graphs()}
    assert len(tokens) == 5
    # same order, same degree sequence, not isomorphic: C6 and two triangles
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)


def test_canonical_graph_round_trips():
    g = cycle_graph(6)
    cg = canonical_graph(g)
    assert canonical_form(cg) == canonical_form(g)


@pytest.mark.parametrize("order,count", sorted(SMALL_COUNTS.items()))
def test_graph_counts_small(order, count):
    assert sum(1 for _ in enumerate_graphs(order)) == count


def test_graph_counts_against_labeled_dedup_oracle():
    # independent oracle: canonicalize every labeled graph on n vertices
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        tokens = set()
        for bitsel in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if bitsel >> i & 1])
            tokens.add(canonical_form(g).token)
        assert len(tokens) == SMALL_COUNTS[n]


def _assert_one_to_one(nx, oracle, graphs):
    """Match each graph to exactly one oracle graph (WL-hash buckets, then
    networkx isomorphism), and every oracle graph to one graph."""
    buckets = {}
    for h in oracle:
        key = (h.number_of_nodes(), nx.weisfeiler_lehman_graph_hash(h))
        buckets.setdefault(key, []).append(h)
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        bucket = buckets[(g.n, nx.weisfeiler_lehman_graph_hash(h))]
        matches = [i for i, a in enumerate(bucket) if nx.is_isomorphic(a, h)]
        assert len(matches) == 1
        bucket.pop(matches[0])
    assert not any(buckets.values())


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_universe_matches_networkx_atlas():
    # independent oracle: networkx's atlas of every graph on at most 7 vertices
    nx = pytest.importorskip("networkx")
    atlas = (h for h in nx.graph_atlas_g() if h.number_of_nodes())
    _assert_one_to_one(nx, atlas, (g for k in range(1, 8) for g in enumerate_graphs(k)))


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_tree_universe_matches_networkx():
    # independent oracle: networkx's nonisomorphic trees, orders 1..12
    nx = pytest.importorskip("networkx")
    orders = range(1, 13)
    _assert_one_to_one(
        nx,
        (h for n in orders for h in nx.nonisomorphic_trees(n)),
        (g for n in orders for g in enumerate_graphs(n, "tree")),
    )


def test_no_duplicate_canonical_tokens():
    for order in (4, 5, 6):
        tokens = [canonical_form(g).token for g in enumerate_graphs(order)]
        assert len(tokens) == len(set(tokens))


def _prufer_tree(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return build_graph(n, edges)


@pytest.mark.parametrize("order,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(order, count):
    assert sum(1 for _ in enumerate_graphs(order, "tree")) == count


def test_tree_counts_against_prufer_oracle():
    from itertools import product

    for n in range(3, 8):
        tokens = set()
        for seq in product(range(n), repeat=n - 2):
            tokens.add(canonical_form(_prufer_tree(seq, n)).token)
        assert len(tokens) == TREE_COUNTS[n]


def test_filters():
    assert all(g.is_connected() for g in enumerate_graphs(5, Graph.is_connected))
    assert sum(1 for _ in enumerate_graphs(5, Graph.is_connected)) == 21
    assert all(g.is_tree() for g in enumerate_graphs(6, "tree"))
    chordal = list(enumerate_graphs(5, is_chordal))
    assert not any(g.m == 5 and all(g.degree(v) == 2 for v in range(5)) for g in chordal)
    assert [canonical_form(g) for g in chordal] == [
        canonical_form(g) for g in enumerate_graphs(5) if is_chordal(g)
    ]


@pytest.mark.parametrize("name", ["connected", "chordal", "block-graph", "claw-free", "trees"])
def test_unknown_filter_name_raises(name):
    with pytest.raises(GraphError):
        list(enumerate_graphs(4, name))


def test_universe_imports_no_graph_theory():
    # the universes sit below the recognizers, the patterns and the perfection routes
    code = (
        "import sys, domiperf.universe, domiperf.canon; "
        "print(sorted(m for m in ('domiperf.graph_classes', 'domiperf.patterns', "
        "'domiperf.perfection') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


def test_enumeration_caps():
    with pytest.raises(GraphError):
        list(enumerate_graphs(9))
    with pytest.raises(GraphError):
        list(enumerate_graphs(13, "tree"))
    with pytest.raises(GraphError):
        list(enumerate_graphs(0))


def test_enumeration_is_deterministic():
    a = [canonical_form(g).token for g in enumerate_graphs(5)]
    b = [canonical_form(g).token for g in enumerate_graphs(5)]
    assert a == b


def test_verify_theorem_small():
    report = verify_theorem(5)
    assert report.checked == 52
    assert report.clean
    assert "minimal imperfect graphs found: 0" in report.notes[0]


def test_verify_chain_small():
    report = verify_chain(5)
    assert report.clean and report.checked == 52


def test_report_json_round_trips():
    report = VerificationReport(universe="demo")
    report.record(True)
    report.record(False, {"graph6": "@"})
    data = json.loads(report.to_json())
    assert data["checked"] == 2
    assert data["agreements"] == 1
    assert data["counterexample_total"] == 1
    assert not report.clean


def test_counterexample_cap():
    report = VerificationReport(universe="demo")
    for i in range(150):
        report.record(False, {"i": i})
    assert report.counterexample_total == 150
    assert len(report.counterexamples) == 100
