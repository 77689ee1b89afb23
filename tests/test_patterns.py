import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings

import domiperf
from conftest import graphs
from domiperf.graph import build_graph, complete_graph, cycle_graph, path_graph, star_graph
from domiperf.graph_classes import corona_k1
from domiperf.patterns import (
    catalog,
    contains_subgraph,
    find_induced,
    forbidden_catalog,
    forbidden_free,
    is_claw_free,
    pattern_by_name,
)


def test_catalog_contents():
    assert len(forbidden_catalog()) == 10
    assert [p.name for p in forbidden_catalog()] == [f"H{k}" for k in range(1, 11)]
    names = {p.name for p in catalog()}
    assert {"CLAW", "P6", "P7", "C6", "TWO_P3", "TWO_P4"} <= names


def test_pattern_lookup_tokens():
    assert pattern_by_name("H9").name == "H9"
    assert pattern_by_name("TWO_P3").name == "TWO_P3"
    assert pattern_by_name("CLAW").order == 4
    for token in ("H11", "h9", "claw", "2P3"):
        with pytest.raises(KeyError):
            pattern_by_name(token)


def test_find_induced_self():
    emb = find_induced(cycle_graph(6), pattern_by_name("C6"))
    assert emb is not None
    assert _is_induced_map(cycle_graph(6), pattern_by_name("C6"), emb.mapping)


def test_p6_has_no_induced_2p3():
    assert find_induced(path_graph(6), pattern_by_name("TWO_P3")) is None


def test_small_hosts_are_trivially_free():
    for pat in forbidden_catalog():
        assert find_induced(complete_graph(5), pat) is None


def test_contains_subgraph():
    assert contains_subgraph(path_graph(7), pattern_by_name("P7"))
    assert contains_subgraph(cycle_graph(6), pattern_by_name("P6"))
    assert not contains_subgraph(corona_k1(complete_graph(3)), pattern_by_name("TWO_P4"))


def test_forbidden_free_self_witness():
    for pat in forbidden_catalog():
        free, witness = forbidden_free(pat.graph())
        assert not free
        wpat, emb = witness
        assert _is_induced_map(pat.graph(), wpat, emb.mapping)
    free, witness = forbidden_free(build_graph(5, [(0, 1)]))
    assert free and witness is None


def test_middle_of_k3_is_forbidden_free():
    from domiperf.graph_classes import middle_graph

    assert forbidden_free(middle_graph(complete_graph(3)))[0]


def test_claw_free():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(cycle_graph(6))


def test_no_forbidden_graph_contains_another():
    # pairwise minimality: no member embeds induced in a different member
    for a in forbidden_catalog():
        for b in forbidden_catalog():
            if a.name == b.name:
                continue
            assert find_induced(a.graph(), b) is None


def _is_induced_map(host, pat, mapping):
    """The naive pairwise test: an injective map that keeps edges and non-edges."""
    pg = pat.graph()
    return len(set(mapping)) == len(mapping) == pg.n and all(
        pg.has_edge(i, j) == host.has_edge(mapping[i], mapping[j])
        for i in range(pg.n)
        for j in range(i + 1, pg.n)
    )


def _brute_induced(host, pat):
    return any(_is_induced_map(host, pat, perm) for perm in permutations(range(host.n), pat.order))


@given(graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_backtracking_agrees_with_brute_force(g):
    for name in ("CLAW", "P4", "TWO_P3", "H1"):
        pat = pattern_by_name(name)
        assert (find_induced(g, pat) is not None) == _brute_induced(g, pat)


@given(graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_subgraph_weaker_than_induced(g):
    for name in ("P4", "C6", "TWO_P3"):
        pat = pattern_by_name(name)
        if not contains_subgraph(g, pat):
            assert find_induced(g, pat) is None


def test_induced_monotone_under_extra_vertices():
    host = build_graph(8, path_graph(6).edges() + [(6, 7)])
    pat = pattern_by_name("P6")
    emb = find_induced(host, pat)
    assert emb is not None
    used = set(emb.mapping)
    sub = host.induced(sorted(used | {6, 7}))
    assert find_induced(sub, pat) is not None


def test_embedding_check_rejects_bad_maps():
    # the oracle the embedding tests rely on refuses non-injective and non-induced maps
    pat = pattern_by_name("P3")
    assert not _is_induced_map(path_graph(3), pat, (0, 0, 1))
    assert not _is_induced_map(path_graph(3), pat, (0, 2, 1))
    assert _is_induced_map(path_graph(3), pat, (0, 1, 2))


def test_catalog_identities_are_checked_under_optimize():
    # python -O strips assert statements; a corrupted H8 (a spider, not P6)
    # must still be refused
    script = (
        "import domiperf.patterns as p\n"
        "p._H_EDGES['H8'] = ((1, 3), (3, 5), (2, 4), (4, 6), (1, 4))\n"
        "p.catalog()\n"
    )
    src = str(Path(domiperf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "GraphError: catalog graph H8 is not isomorphic to P6" in proc.stderr
