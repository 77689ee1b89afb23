import pytest
from hypothesis import given, settings

from conftest import graphs, pattern_graph
from domiperf.graph import GraphError, build_graph, complete_graph, cycle_graph, path_graph
from domiperf.perfection import (
    SubgraphTables,
    SubsetWitness,
    is_minimal_imperfect,
    perfect_by_definition,
    perfect_by_gamma2,
    perfect_by_theorem,
    search_minimal_imperfect,
)


def test_complete_graphs_are_perfect():
    for n in (1, 3, 6):
        assert perfect_by_definition(complete_graph(n)).perfect
        assert perfect_by_gamma2(complete_graph(n)).perfect
        assert perfect_by_theorem(complete_graph(n)).perfect


def test_p6_imperfect_with_full_witness():
    v = perfect_by_definition(path_graph(6))
    assert not v.perfect
    assert isinstance(v.witness, SubsetWitness)
    assert v.witness.vertices == frozenset(range(6))
    assert (v.witness.gamma, v.witness.common_ind) == (2, 3)


def test_p5_perfect():
    assert perfect_by_definition(path_graph(5)).perfect


def test_gamma2_examples():
    v = perfect_by_gamma2(pattern_graph("H1"))
    assert not v.perfect
    assert (v.witness.gamma, v.witness.common_ind) == (2, 3)
    assert perfect_by_gamma2(build_graph(1, [])).perfect


def test_theorem_examples():
    assert not perfect_by_theorem(cycle_graph(6)).perfect
    pat, _ = perfect_by_theorem(cycle_graph(6)).witness
    assert pat.name == "H9"
    assert perfect_by_theorem(build_graph(5, [(0, 1), (2, 3)])).perfect


def test_empty_graph_rejected():
    for fn in (perfect_by_definition, perfect_by_gamma2, is_minimal_imperfect):
        with pytest.raises(GraphError):
            fn(build_graph(0, []))


def test_cap_enforced():
    with pytest.raises(GraphError):
        perfect_by_definition(build_graph(17, []), cap=16)


def test_minimality_of_catalog():
    for k in range(1, 11):
        assert is_minimal_imperfect(pattern_graph(f"H{k}"))
    assert not is_minimal_imperfect(complete_graph(6))
    assert not is_minimal_imperfect(path_graph(5))


def test_minimality_reuses_given_tables():
    for g in (pattern_graph("H3"), complete_graph(6), path_graph(5), cycle_graph(5)):
        assert is_minimal_imperfect(g, tables=SubgraphTables(g)) == is_minimal_imperfect(g)


def test_search_minimal_small_orders():
    for order in (1, 2, 3, 4, 5):
        assert search_minimal_imperfect(order) == []
    with pytest.raises(GraphError):
        search_minimal_imperfect(9)


def test_imperfect_witness_reverifies():
    from domiperf.invariants import common_independence_number, domination_number

    for name in ("H2", "H7", "H10"):
        g = pattern_graph(name)
        v = perfect_by_definition(g)
        sub = g.induced(v.witness.vertices)
        assert domination_number(sub)[0] == v.witness.gamma
        assert common_independence_number(sub) == v.witness.common_ind


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=25, deadline=None)
def test_three_methods_agree(g):
    a = perfect_by_definition(g).perfect
    b = perfect_by_gamma2(g).perfect
    c = perfect_by_theorem(g).perfect
    assert a == b == c


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=20, deadline=None)
def test_perfection_is_hereditary(g):
    if perfect_by_definition(g).perfect:
        for v in range(g.n):
            sub = g.induced(set(range(g.n)) - {v})
            if sub.n:
                assert perfect_by_definition(sub).perfect
