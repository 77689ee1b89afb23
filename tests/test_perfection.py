import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import first_reached_rows, graphs, pattern_graph
from domiperf.graph import (
    Graph,
    GraphError,
    bits,
    build_graph,
    complete_graph,
    cycle_graph,
    mask_of,
    path_graph,
    set_of,
)
from domiperf.graph_classes import line_graph
from domiperf.invariants import (
    brute_common_independence,
    brute_domination,
    common_independence_number,
    domination_number,
    parameter_profile,
)
from domiperf.patterns import FORBIDDEN_NAMES, forbidden_free
from domiperf.enumeration import canonical_form, enumerate_graphs, enumerate_up_to
from domiperf.perfection import (
    MAX_SWEEP_ORDER,
    SubgraphTables,
    SubsetWitness,
    _gap,
    _tables,
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


def test_empty_graph_is_perfect():
    # perfection quantifies over nonempty induced subgraphs; K0 has none
    k0 = build_graph(0, [])
    for fn in (perfect_by_definition, perfect_by_gamma2, perfect_by_theorem):
        assert fn(k0).perfect and fn(k0).witness is None
    assert not is_minimal_imperfect(k0)


def test_cap_enforced():
    with pytest.raises(GraphError, match=f"subset-sweep cap {MAX_SWEEP_ORDER}"):
        perfect_by_definition(build_graph(MAX_SWEEP_ORDER + 1, []))


def test_minimality_of_catalog():
    for k in range(1, 11):
        assert is_minimal_imperfect(pattern_graph(f"H{k}"))
    assert not is_minimal_imperfect(complete_graph(6))
    assert not is_minimal_imperfect(path_graph(5))


def test_search_minimal_small_orders():
    for order in (1, 2, 3, 4, 5):
        assert search_minimal_imperfect(order) == []
    with pytest.raises(GraphError):
        search_minimal_imperfect(9)


def test_imperfect_witness_reverifies():
    for name in ("H2", "H7", "H10"):
        g = pattern_graph(name)
        v = perfect_by_definition(g)
        sub = g.induced(v.witness.vertices)
        assert domination_number(sub)[0] == v.witness.gamma
        assert common_independence_number(sub) == v.witness.common_ind


@given(graphs(min_n=0, max_n=7))
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


def test_hereditary_reduction_through_order_7():
    # perfect iff gamma = alpha_c on G itself and every G - v is perfect; the
    # verdict on G - v is looked up by canonical form among the order below
    below = {canonical_form(build_graph(0, [])): True}
    checked = 0
    for order in range(1, 8):
        verdicts = {}
        for g in enumerate_graphs(order):
            profile = parameter_profile(g)
            reduced = profile.gamma == profile.common_ind and all(
                below[canonical_form(g.induced(set(range(order)) - {v}))] for v in range(order)
            )
            key = canonical_form(g)
            verdicts[key] = perfect_by_definition(g).perfect
            assert verdicts[key] == reduced, key
            checked += 1
        below = verdicts
    assert checked == 1252


def _check_scans_by_brute_force(g):
    # each induced subgraph's gamma and alpha_c by brute force; subsets ordered
    # by size, then lexicographically
    vertex_sets = sorted(
        (tuple(v for v in range(g.n) if m >> v & 1) for m in range(1, 1 << g.n)),
        key=lambda S: (len(S), S),
    )
    values = {}
    for S in vertex_sets:
        sub = g.induced(S)
        values[S] = (brute_domination(sub), brute_common_independence(sub))
    gaps = [S for S in vertex_sets if values[S][0] != values[S][1]]
    gaps2 = [S for S in vertex_sets if values[S] == (2, 3)]

    v = perfect_by_definition(g)
    assert v.perfect == (not gaps)
    if gaps:
        assert v.witness == SubsetWitness(frozenset(gaps[0]), *values[gaps[0]])
    v = perfect_by_gamma2(g)
    assert v.perfect == (not gaps2)
    if gaps2:
        assert v.witness == SubsetWitness(frozenset(gaps2[0]), 2, 3)
    assert is_minimal_imperfect(g) == (gaps == [tuple(range(g.n))])


def test_scans_match_brute_force_in_ascending_order():
    cases = [build_graph(0, [])] + list(enumerate_up_to(6))
    assert len(cases) == 1 + 208
    # At order <= 6 an imperfect graph is one of H1..H10 and has one gap.  The
    # 201 imperfect graphs of order 7 have gaps of sizes 6 and 7 (order by size);
    # random graphs of order 8 tell lexicographic from integer order.
    cases += [g for g in enumerate_graphs(7) if not perfect_by_theorem(g).perfect]
    assert len(cases) == 1 + 208 + 201
    rng = random.Random(8)
    pairs = list(combinations(range(8), 2))
    cases += [build_graph(8, [p for p in pairs if rng.random() < 0.5]) for _ in range(30)]
    for g in cases:
        _check_scans_by_brute_force(g)


def test_early_exit_gap_matches_gamma_against_alpha_c():
    # _gap stops at the first vertex that shows alpha_c(S) <= gamma(S)
    checked = 0
    for g in enumerate_up_to(6):
        t = _tables(g)
        for s in range(1, 1 << g.n):
            assert _gap(t, s) == (t.gamma[s] != t.common_ind(s)), (g.adj, s)
            checked += 1
    assert checked == 11082


# sha256 over (perfect, pattern name, mapping) of perfect_by_theorem on every
# graph of order <= 7, then the line graphs of every host of order <= 6, each
# class labeled by the naive growth's first-reached rows
THEOREM_WITNESS_DIGEST = "c4ce93bb6ba992e56bd6864632bae12e5b5242d6eeec273d3495fc570e0605a3"


def test_theorem_witnesses_are_pinned():
    # a change to the pattern searches must not move a witness
    digest = hashlib.sha256()
    labeled = [Graph(k, rows) for k in range(1, 8) for rows in first_reached_rows(k)]
    hosts = [g for g in labeled if g.n <= 6]
    for g in [*labeled, *map(line_graph, hosts)]:
        v = perfect_by_theorem(g)
        pat, emb = v.witness or (None, None)
        digest.update(json.dumps([v.perfect, pat and pat.name, emb and emb.mapping]).encode() + b"\n")
    assert digest.hexdigest() == THEOREM_WITNESS_DIGEST


def test_forbidden_graphs_have_gamma_2_and_alpha_c_3():
    for name in FORBIDDEN_NAMES:
        g = pattern_graph(name)
        assert (domination_number(g)[0], common_independence_number(g)) == (2, 3), name


def _independent_triple(g, s, v):
    """The first independent 3-set of G[s] through v, in combinations order."""
    far = s & ~g.closed_masks()[v]
    return next(1 << v | 1 << x | 1 << y
                for x, y in combinations(bits(far), 2) if not g.adj[x] >> y & 1)


def test_six_vertex_extraction_through_order_7():
    # The lemma behind the gamma2 route: if G[S] has gamma 2 and alpha_c >= 3,
    # a dominating pair {a, b} of S and independent 3-sets I_a, I_b of G[S]
    # through a and b give T = I_a | I_b, at most 6 vertices with gamma(T) <= 2
    # < 3 <= alpha_c(T).  Checked here with the tables, and each T holds an H.
    extracted = 0
    for g in enumerate_up_to(7):
        t = SubgraphTables(g)
        subsets = (mask_of(c) for k in range(1, g.n + 1) for c in combinations(range(g.n), k))
        s = next((s for s in subsets if t.gamma[s] == 2 and t.common_ind(s) >= 3), None)
        if s is None:
            continue
        closed = g.closed_masks()
        a, b = next((a, b) for a, b in combinations(bits(s), 2) if not s & ~(closed[a] | closed[b]))
        T = _independent_triple(g, s, a) | _independent_triple(g, s, b)
        assert T.bit_count() <= 6 and t.gamma[T] == 2 and t.common_ind(T) == 3
        assert not forbidden_free(g.induced(set_of(T)))[0]
        extracted += 1
    # the imperfect graphs of order <= 7: 10 of order 6 and 201 of order 7
    assert extracted == 211
