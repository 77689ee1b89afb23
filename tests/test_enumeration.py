import ast
import json
import os
import pickle
import random
import subprocess
import sys
from functools import partial
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import first_reached_rows, pattern_graph, prufer_tree
from domiperf import enumeration, perfection, universe
from domiperf.canon import _search, canonical_augmentation, canonical_labeling, certificate
from domiperf.enumeration import (
    COUNTEREXAMPLE_CAP,
    DISPATCH,
    SUITES,
    VerificationReport,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    enumerate_up_to,
    merge_reports,
    run_sweep,
    verify_suites,
)
from domiperf.graph import (
    Graph, GraphError, bits, build_graph, complete_graph, cycle_graph, path_graph,
)
from domiperf.graph_classes import is_chordal, line_graph, middle_graph
from domiperf.patterns import (
    DECISION_ORDER,
    FORBIDDEN_NAMES,
    forbidden_free,
    is_claw_free,
    is_pattern_free,
    pattern_by_name,
)
from domiperf.universe import MAX_ENUM_ORDER, MAX_TREE_ORDER, _graph_level, _grow

SMALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_canonical_identifies_isomorphs():
    # the catalog identities the class-restricted criteria rely on
    two_p3 = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for h, name, g in (("H7", "TWO_P3", two_p3), ("H8", "P6", path_graph(6)),
                       ("H9", "C6", cycle_graph(6))):
        assert (canonical_form(pattern_graph(h)) == canonical_form(pattern_graph(name))
                == canonical_form(g))
    tokens = set()
    for perm in permutations(range(3)):
        g = build_graph(3, [(perm[0], perm[1]), (perm[1], perm[2]), (perm[0], perm[2])])
        tokens.add(canonical_form(g))
    assert len(tokens) == 1


def _symmetric_graphs():
    yield complete_graph(10)
    yield build_graph(10, [])
    yield cycle_graph(10)
    yield build_graph(10, [(u, v) for u in range(5) for v in range(5, 10)])  # K5,5
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    yield build_graph(10, petersen)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_invariance_random_relabelings():
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        pairs = combinations(range(n), 2)
        cases.append(build_graph(n, [(u, v) for u, v in pairs if rng.random() < p]))
    cases += _symmetric_graphs()
    for g in cases:
        base = canonical_form(g)
        for _ in range(6):
            g2 = _relabeled(g, rng)
            assert canonical_form(g2) == base
            assert canonical_form(canonical_graph(g2)) == base


def test_canonical_labeling_above_order_ten():
    # no cap on the order: 11 and 12 label like any other order
    rng = random.Random(12)
    *_, petersen = _symmetric_graphs()
    for g in (
        build_graph(11, []),
        build_graph(11, petersen.edges() + [(0, 10)]),
        build_graph(12, [(u, v) for u, v in combinations(range(12), 2) if rng.random() < 0.5]),
    ):
        base = canonical_graph(g)
        assert all(canonical_graph(_relabeled(g, rng)) == base for _ in range(6))
    # both 2-regular on 11 vertices, not isomorphic
    c5_c6 = cycle_graph(5).edges() + [(5 + u, 5 + v) for u, v in cycle_graph(6).edges()]
    assert canonical_graph(cycle_graph(11)) != canonical_graph(build_graph(11, c5_c6))


def test_canonical_separates_symmetric_graphs():
    tokens = {canonical_form(g) for g in _symmetric_graphs()}
    assert len(tokens) == 5
    # same order, same degree sequence, not isomorphic: C6 and two triangles
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)


def _image(mask, g):
    """The vertex set ``mask`` mapped by the permutation ``g``."""
    return sum(1 << g[v] for v in range(len(g)) if mask >> v & 1)


def _is_automorphism(adj, g):
    return sorted(g) == list(range(len(adj))) and all(
        adj[g[u]] == _image(adj[u], g) for u in range(len(adj)))


def _orbits(n, generators):
    """The vertex orbits of the group the permutations generate, as sorted tuples."""
    orbits = set()
    for v in range(n):
        orbit = 1 << v
        while True:
            grown = orbit
            for g in generators:
                grown |= _image(orbit, g)
            if grown == orbit:
                break
            orbit = grown
        orbits.add(tuple(u for u in range(n) if orbit >> u & 1))
    return orbits


def test_canon_automorphisms_preserve_adjacency():
    graphs = [g for k in range(1, 8) for g in enumerate_graphs(k)] + list(_symmetric_graphs())
    found = 0
    for g in graphs:
        cert, automorphisms = canonical_labeling(g.adj)
        assert cert == certificate(g.adj)
        assert all(_is_automorphism(g.adj, a) for a in automorphisms), g.adj
        found += len(automorphisms)
    assert found


def test_canon_automorphism_orbits_match_brute_force():
    # through order 6 the found generators have the orbits of the whole group
    checked = 0
    for k in range(1, 7):
        for g in enumerate_graphs(k):
            group = [p for p in permutations(range(k)) if _is_automorphism(g.adj, p)]
            found = canonical_labeling(g.adj)[1]
            assert _orbits(k, found) == _orbits(k, group), g.adj
            checked += 1
    assert checked == 208


def test_canonical_order_relabels_to_the_certificate_and_ends_at_maximum_degree():
    # the premises of canonical_augmentation's orbit test and of its degree test
    graphs = [g for k in range(1, 8) for g in enumerate_graphs(k)] + list(_symmetric_graphs())
    for g in graphs:
        cert, order, _ = _search(g.adj)
        assert sorted(order) == list(range(g.n))
        position = {v: i for i, v in enumerate(order)}
        assert cert == tuple(sum(1 << position[u] for u in bits(g.adj[v])) for v in order)
        assert g.degree(order[-1]) == max(g.degree(v) for v in range(g.n))


def test_orbit_pruned_growth_matches_naive_growth():
    # every mask joined, the first child per certificate kept: the same
    # classes in the same order as canonical augmentation, which joins one
    # mask per orbit and may keep another child of a class
    for k in range(1, 8):
        naive = [certificate(rows) for rows in first_reached_rows(k)]
        assert [certificate(g.adj) for g in enumerate_graphs(k)] == naive


def test_growth_accepts_each_class_once_through_order_8(monkeypatch):
    # the level's dict keeps one child per class, so a duplicate accepted
    # child would not show in the counts: count the accepted children instead
    a000088 = {**SMALL_COUNTS, 7: 1044, 8: 12346}
    for k in range(2, 9):
        parents, expected = _graph_level(k - 1), _graph_level(k)
        accepted = []

        def counted(child):
            decided = canonical_augmentation(child)
            if decided is not None:
                accepted.append(decided[0])
            return decided

        with monkeypatch.context() as m:
            m.setattr(universe, "canonical_augmentation", counted)
            level = _grow(parents)
        assert len(accepted) == len(level) == len(expected) == a000088[k], k
        # one step from the level below rebuilds the level, rows and generators
        assert level == expected, k


def _moved_last(g, v):
    """Rows of g relabeled so that vertex v comes last, the others in order."""
    order = [u for u in range(g.n) if u != v] + [v]
    position = {u: i for i, u in enumerate(order)}
    return tuple(sum(1 << position[u] for u in bits(g.adj[w])) for w in order)


def test_canonical_augmentation_accepts_exactly_one_orbit():
    # McKay's rule decided directly: with each vertex moved last, the accepted
    # vertices are one orbit of the whole automorphism group
    checked = 0
    for k in range(2, 7):
        for g in enumerate_graphs(k):
            group = [p for p in permutations(range(k)) if _is_automorphism(g.adj, p)]
            accepted = []
            for v in range(k):
                rows = _moved_last(g, v)
                decided = canonical_augmentation(rows)
                if decided is not None:
                    assert decided == canonical_labeling(rows)
                    accepted.append(v)
            assert tuple(accepted) in _orbits(k, group), g.adj
            checked += 1
    assert checked == 207


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
            tokens.add(canonical_form(g))
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


def test_trees_are_distinct_trees_through_order_12():
    # the generator lists each class once with no isomorphism test: check it
    # with canon's certificate, which plays no part in the generator
    for order in range(1, MAX_TREE_ORDER + 1):
        trees = list(enumerate_graphs(order, "tree"))
        assert all(t.n == order and t.is_tree() for t in trees), order
        assert len({certificate(t.adj) for t in trees}) == len(trees), order


def test_tree_enumeration_cap_boundary():
    assert len(list(enumerate_graphs(MAX_TREE_ORDER, "tree"))) == 551
    with pytest.raises(GraphError, match=f"tree enumeration capped at order {MAX_TREE_ORDER}"):
        list(enumerate_graphs(MAX_TREE_ORDER + 1, "tree"))


def test_no_duplicate_canonical_tokens():
    # with the counts this catches a class lost or listed twice at every order
    for order in range(1, MAX_ENUM_ORDER + 1):
        certs = [certificate(g.adj) for g in enumerate_graphs(order)]
        assert all(a < b for a, b in zip(certs, certs[1:])), order


@pytest.mark.parametrize("order,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(order, count):
    assert sum(1 for _ in enumerate_graphs(order, "tree")) == count


def test_tree_counts_against_prufer_oracle():
    from itertools import product

    for n in range(3, 8):
        tokens = set()
        for seq in product(range(n), repeat=n - 2):
            tokens.add(canonical_form(prufer_tree(seq, n)))
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


def _modules_loaded_by(statement):
    """The domiperf modules a fresh interpreter holds after running ``statement``."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    return {m for m in json.loads(out) if m.split(".")[0] == "domiperf"}


def test_universe_imports_no_graph_theory():
    # the universes sit below the recognizers, the patterns and the perfection routes
    loaded = _modules_loaded_by("import domiperf.universe, domiperf.canon")
    assert not loaded & {"domiperf.graph_classes", "domiperf.patterns", "domiperf.perfection"}


def test_canon_imports_only_graph():
    loaded = _modules_loaded_by("import domiperf.canon")
    assert loaded == {"domiperf", "domiperf.canon", "domiperf.graph"}


def test_patterns_import_no_tables_or_solvers():
    # the theorem route stays independent of SubgraphTables and the exact solvers
    loaded = _modules_loaded_by("import domiperf.patterns")
    assert loaded == {"domiperf", "domiperf.patterns", "domiperf.canon", "domiperf.graph"}


def test_enumeration_imports_only_perfection_verdicts():
    # perfection owns its tables and the minimality rule; the sweeps only ask it
    tree = ast.parse(Path(enumeration.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    names = {name for module, name in imported if module == "domiperf.perfection"}
    assert names == {"perfect_by_definition", "perfect_by_gamma2", "perfect_by_theorem",
                     "is_minimal_imperfect"}
    assert not any(isinstance(node, ast.Import) and any(
        alias.name == "domiperf.perfection" for alias in node.names) for node in ast.walk(tree))


def test_enumeration_caps():
    with pytest.raises(GraphError):
        list(enumerate_graphs(9))
    with pytest.raises(GraphError):
        list(enumerate_graphs(13, "tree"))
    with pytest.raises(GraphError):
        list(enumerate_graphs(0))


def test_enumeration_is_deterministic():
    a = [canonical_form(g) for g in enumerate_graphs(5)]
    b = [canonical_form(g) for g in enumerate_graphs(5)]
    assert a == b


def test_verify_theorem_small():
    report = verify_suites(["theorem"], 5)[0]
    assert report.checked == 52
    assert report.clean
    assert "minimal imperfect graphs found: 0" in report.notes[0]


def test_theorem_sweep_builds_one_table_per_graph(monkeypatch):
    builds = []
    build = perfection.SubgraphTables.__init__

    def counted(self, G):
        builds.append(G)
        build(self, G)

    monkeypatch.setattr(perfection.SubgraphTables, "__init__", counted)
    perfection._tables.cache_clear()
    verify_suites(["theorem"], 6)
    assert len(builds) == sum(SMALL_COUNTS.values()) == 208


def test_verify_chain_small():
    report = verify_suites(["chain"], 5)[0]
    assert report.clean and report.checked == 52


def test_report_json_round_trips():
    report = VerificationReport(universe="demo")
    report.record(None)
    report.record({"graph6": "@"})
    data = json.loads(report.to_json())
    assert data["checked"] == 2
    assert data["agreements"] == 1
    assert data["counterexample_total"] == 1
    assert not report.clean


def test_counterexample_cap():
    report = VerificationReport(universe="demo")
    for i in range(150):
        report.record({"i": i})
    assert report.counterexample_total == 150
    assert len(report.counterexamples) == 100


def test_dispatch_runs_every_sweep_once_and_pickles():
    in_suites = [sweep for _, sweeps in SUITES.values() for sweep in sweeps]
    assert len(set(in_suites)) == len(in_suites) == len(DISPATCH) == len(set(DISPATCH))
    assert set(DISPATCH) == set(in_suites)
    task = pickle.loads(pickle.dumps(partial(run_sweep, order_max=3)))
    for sweep in DISPATCH:
        assert pickle.loads(pickle.dumps(sweep)) is sweep
    # the cheapest sweep, sent and brought back as a pool worker would
    report = pickle.loads(pickle.dumps(task(pickle.loads(pickle.dumps(DISPATCH[-1])))))
    assert report.clean and report.checked == 52 and report.elapsed_seconds > 0


def test_merge_keeps_the_first_counterexamples_in_sweep_order():
    parts = []
    for k, (checked, failing) in enumerate([(60, 60), (5, 0), (150, 150)]):
        part = VerificationReport(universe=f"sweep {k}", elapsed_seconds=0.5 * k,
                                  notes=[f"note {k}"])
        for i in range(checked):
            part.record(None if i >= failing else {"sweep": k, "i": i})
        parts.append(part)
    report = merge_reports("demo", parts)
    assert report.universe == "demo"
    assert (report.checked, report.agreements, report.counterexample_total) == (215, 5, 210)
    assert len(report.counterexamples) == COUNTEREXAMPLE_CAP
    assert report.counterexamples == (
        [{"sweep": 0, "i": i} for i in range(60)] + [{"sweep": 2, "i": i} for i in range(40)]
    )
    assert report.notes == ["note 0", "note 1", "note 2"]
    assert report.elapsed_seconds == 1.5


def test_decision_order_agrees_with_forbidden_free_on_the_corollary_targets():
    # the corollary sweeps decide H-freeness in DECISION_ORDER with no
    # witness; on every graph they feed it, that is forbidden_free's verdict
    assert sorted(DECISION_ORDER) == sorted(FORBIDDEN_NAMES)
    assert [n for n in FORBIDDEN_NAMES if is_claw_free(pattern_by_name(n).graph)] == [
        "H7", "H8", "H9"]
    targets = {
        "line": [line_graph(h) for h in enumerate_up_to(7)],
        "middle": [middle_graph(h) for h in enumerate_up_to(5)],
        "tree": list(enumerate_up_to(12, "tree")),
        "chordal": list(enumerate_up_to(7, is_chordal)),
        "claw-free": list(enumerate_up_to(7, is_claw_free)),
    }
    assert {k: len(v) for k, v in targets.items()} == {
        "line": 1252, "middle": 52, "tree": 987, "chordal": 531, "claw-free": 430}
    imperfect = {}
    for family, graphs in targets.items():
        verdicts = [forbidden_free(g)[0] for g in graphs]
        assert [is_pattern_free(g, DECISION_ORDER) for g in graphs] == verdicts, family
        imperfect[family] = verdicts.count(False)
    # the imperfect members: the agreement is not all on H-free graphs
    assert imperfect == {"line": 830, "middle": 34, "tree": 939, "chordal": 38, "claw-free": 28}
