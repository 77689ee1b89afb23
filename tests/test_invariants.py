import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forests_and_cycles, graphs, pattern_graph, prufer_tree
from domiperf import invariants
from domiperf.graph import (
    MAX_ORDER,
    GraphError,
    bits,
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    set_of,
    star_graph,
)
from domiperf.invariants import (
    brute_common_independence,
    brute_domination,
    brute_independence,
    brute_independent_domination,
    common_independence_number,
    domination_number,
    independence_number,
    independent_domination_number,
    parameter_profile,
    verify_witness,
)
from domiperf.universe import enumerate_up_to


def test_domination_examples():
    assert domination_number(complete_graph(5))[0] == 1
    assert domination_number(pattern_graph("H1"))[0] == 2
    assert domination_number(cycle_graph(6))[0] == 2


def test_domination_rejects_empty_graph():
    for fn in (domination_number, independent_domination_number,
               common_independence_number, parameter_profile):
        with pytest.raises(GraphError):
            fn(build_graph(0, []))


def test_independent_domination_examples():
    assert independent_domination_number(pattern_graph("H1"))[0] == 3
    assert independent_domination_number(pattern_graph("H8"))[0] == 2
    k13 = star_graph(3)
    num, witness = independent_domination_number(k13)
    assert (num, witness) == (1, frozenset({0}))


def test_independence_examples():
    assert independence_number(complete_graph(6))[0] == 1
    assert independence_number(pattern_graph("H7"))[0] == 4
    assert independence_number(cycle_graph(6))[0] == 3
    assert independence_number(build_graph(0, [])) == (0, frozenset())


def test_max_independent_with():
    # per_vertex_ind[v]: the largest independent set containing v
    assert parameter_profile(complete_graph(5)).per_vertex_ind[2] == 1
    assert parameter_profile(pattern_graph("H1")).per_vertex_ind[0] == 3  # center, 1-based vertex 1
    # second vertex of P4: only non-neighbor is the far endpoint
    assert parameter_profile(path_graph(4)).per_vertex_ind[1] == 2
    assert parameter_profile(path_graph(6)).per_vertex_ind[1] == 3


def test_common_independence_examples():
    for k in range(1, 11):
        assert common_independence_number(pattern_graph(f"H{k}")) == 3
    assert common_independence_number(complete_graph(7)) == 1
    assert common_independence_number(path_graph(4)) == 2


def test_profile_examples():
    p = parameter_profile(pattern_graph("H3"))
    assert (p.gamma, p.ind_dom, p.common_ind) == (2, 3, 3)
    assert p.ind >= 3
    k1 = parameter_profile(build_graph(1, []))
    assert (k1.gamma, k1.ind_dom, k1.common_ind, k1.ind) == (1, 1, 1, 1)
    p10 = parameter_profile(pattern_graph("H10"))
    assert (p10.gamma, p10.ind_dom, p10.common_ind, p10.ind) == (2, 2, 3, 3)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_solvers_match_brute_force(g):
    assert domination_number(g)[0] == brute_domination(g)
    assert independent_domination_number(g)[0] == brute_independent_domination(g)
    assert independence_number(g)[0] == brute_independence(g)
    assert common_independence_number(g) == brute_common_independence(g)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_profile_chain_and_witnesses(g):
    p = parameter_profile(g)
    assert p.gamma <= p.ind_dom <= p.common_ind <= p.ind
    assert verify_witness(g, p)
    assert p.common_ind == min(p.per_vertex_ind)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=40, deadline=None)
def test_alpha_vertex_deletion_monotone(g):
    alpha = independence_number(g)[0]
    for v in range(g.n):
        sub = g.induced(set(range(g.n)) - {v})
        assert independence_number(sub)[0] in (alpha - 1, alpha)


def _first_set(g, size, predicate):
    """The lexicographically smallest vertex set of ``size`` satisfying ``predicate``."""
    return next(list(c) for c in combinations(range(g.n), size) if predicate(c))


def _check_lexicographic_witnesses(g):
    gamma, wg = domination_number(g)
    ind_dom, wi = independent_domination_number(g)
    alpha, wa = independence_number(g)
    assert sorted(wg) == _first_set(g, gamma, g.is_dominating)
    assert sorted(wi) == _first_set(
        g, ind_dom, lambda c: g.is_dominating(c) and g.is_independent(c))
    assert sorted(wa) == _first_set(g, alpha, g.is_independent)
    # the profile shares one memo between alpha, its witness and alpha_c
    p = parameter_profile(g)
    assert (p.witness_gamma, p.witness_ind_dom, p.witness_ind) == (wg, wi, wa)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=40, deadline=None)
def test_witnesses_are_lexicographically_smallest(g):
    _check_lexicographic_witnesses(g)


def test_witnesses_are_lexicographically_smallest_through_order_6():
    for g in enumerate_up_to(6):
        _check_lexicographic_witnesses(g)


def test_cover_never_meets_a_vertex_without_candidates(monkeypatch):
    # _cover has no branch of its own for such a vertex: none of these calls
    # needs one, and its empty branch loop would return infinity anyway
    cover = invariants._cover
    calls = 0

    def checked(closed, need, cands, memo):
        nonlocal calls
        calls += 1
        assert all(closed[v] & cands for v in bits(need)), (need, cands)
        return cover(closed, need, cands, memo)

    monkeypatch.setattr(invariants, "_cover", checked)
    for g in enumerate_up_to(7):
        assert domination_number(g)[0] == brute_domination(g)
    assert calls > 10_000


@given(forests_and_cycles(max_n=14))
@settings(max_examples=40, deadline=None)
def test_sparse_solvers_match_brute_force(g):
    # components, isolated vertices and degree-1 vertices: the reductions of
    # the independence search, and the dominated candidates of the
    # domination search
    p = parameter_profile(g)
    assert p.gamma == brute_domination(g)
    assert p.ind_dom == brute_independent_domination(g)
    assert p.ind == brute_independence(g)
    assert p.common_ind == brute_common_independence(g)
    for v in range(g.n):
        rest = set(range(g.n)) - set_of(g.adj[v]) - {v}
        assert p.per_vertex_ind[v] == 1 + brute_independence(g.induced(rest))
    _check_lexicographic_witnesses(g)


@st.composite
def _unions_of_two(draw):
    """Two random graphs of order 1..7 and their disjoint union, with the
    vertices of the two parts randomly interleaved."""
    a, b = draw(graphs(min_n=1, max_n=7)), draw(graphs(min_n=1, max_n=7))
    perm = draw(st.permutations(range(a.n + b.n)))
    edges = [(perm[u], perm[v]) for u, v in a.edges()]
    edges += [(perm[a.n + u], perm[a.n + v]) for u, v in b.edges()]
    return a, b, build_graph(a.n + b.n, edges)


@given(_unions_of_two())
@settings(max_examples=40, deadline=None)
def test_domination_of_disjoint_unions(parts):
    # the set-cover search splits no components: branching alone covers two
    # dense parts whose vertices interleave
    a, b, g = parts
    assert domination_number(g)[0] == brute_domination(a) + brute_domination(b)
    _check_lexicographic_witnesses(g)


@pytest.mark.parametrize("n", [40, 41, 60, 61, MAX_ORDER])
def test_cycles_and_paths_closed_forms(n):
    # gamma = i = ceil(n/3); alpha_c = floor(n/2); alpha = floor(n/2) on C_n
    # and ceil(n/2) on P_n; on P_n the largest-set search takes one leaf per
    # level down to the empty mask
    for g, alpha in ((cycle_graph(n), n // 2), (path_graph(n), -(-n // 2))):
        p = parameter_profile(g)
        assert (p.gamma, p.ind_dom, p.common_ind, p.ind) == (-(-n // 3), -(-n // 3), n // 2, alpha)
        assert verify_witness(g, p)


def _count_unions(monkeypatch):
    """Patch ``invariants._union`` to count its calls; returns the running count."""
    union = invariants._union
    calls = [0]

    def counted(rows, mask):
        calls[0] += 1
        return union(rows, mask)

    monkeypatch.setattr(invariants, "_union", counted)
    return calls


def test_forests_walk_no_component_for_alpha(monkeypatch):
    # every nonempty induced subgraph of a forest has a vertex of degree <= 1,
    # and the largest-set search takes it before it walks any component
    calls = _count_unions(monkeypatch)
    rng = random.Random(1)
    tree = prufer_tree([rng.randrange(60) for _ in range(58)], 60)
    for g in (path_graph(60), tree):
        assert independence_number(g)[0] == _forest_independence(g)
        assert common_independence_number(g) == min(_forest_alpha_through_each_vertex(g))
    assert calls[0] == 0


def test_isolated_vertices_walk_no_component_for_i(monkeypatch):
    # an isolated vertex lies in every maximal independent set, and the
    # smallest-set search takes it before it walks any component
    calls = _count_unions(monkeypatch)
    edgeless = build_graph(MAX_ORDER, [])
    assert independent_domination_number(edgeless) == (MAX_ORDER, frozenset(range(MAX_ORDER)))
    assert calls[0] == 0


@st.composite
def _with_isolated_vertices(draw):
    """A graph of order 1..7 and 1..3 isolated vertices, interleaved."""
    g = draw(graphs(min_n=1, max_n=7))
    n = g.n + draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(_with_isolated_vertices())
@settings(max_examples=40, deadline=None)
def test_i_with_isolated_vertices_matches_oracle(g):
    ind_dom, witness = independent_domination_number(g)
    assert ind_dom == brute_independent_domination(g)
    assert sorted(witness) == _first_set(
        g, ind_dom, lambda c: g.is_dominating(c) and g.is_independent(c))


@st.composite
def _cycles_and_tree(draw):
    """One or two cycles of order 3..5 and a tree of order 1..4, interleaved."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(3, 5))
        edges.extend((n + i, n + (i + 1) % k) for i in range(k))
        n += k
    k = draw(st.integers(1, 4))
    edges.extend((n + draw(st.integers(0, i - 1)), n + i) for i in range(1, k))
    n += k
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(_cycles_and_tree())
@settings(max_examples=40, deadline=None)
def test_alpha_after_the_leaves_are_gone(g):
    # the tree is taken leaf by leaf; the cycles, with no vertex of degree
    # <= 1, still reach the component walk, and two of them the split
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_unions(mp)
        p = parameter_profile(g)
        assert calls[0] > 0
    assert p.ind == brute_independence(g)
    assert p.common_ind == brute_common_independence(g)
    for v in range(g.n):
        rest = set(range(g.n)) - set_of(g.adj[v]) - {v}
        assert p.per_vertex_ind[v] == 1 + brute_independence(g.induced(rest))
    _check_lexicographic_witnesses(g)


def test_tree_of_order_64_matches_dps():
    # the largest-set search takes one leaf per level down to the empty mask
    n = MAX_ORDER
    rng = random.Random(64)
    t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
    p = parameter_profile(t)
    assert p.ind_dom == _tree_independent_domination(t)
    assert p.ind == _forest_independence(t)
    assert p.per_vertex_ind == _forest_alpha_through_each_vertex(t)
    assert verify_witness(t, p)


def _rooted(t, root=0):
    """Breadth-first order of the component of ``root`` in forest t, and each vertex's parent."""
    order, parent = [root], {root: None}
    for v in order:  # the list grows while it is walked
        for u in set_of(t.adj[v]) - {parent[v]}:
            parent[u] = v
            order.append(u)
    return order, parent


def _tree_independent_domination(t):
    """i(T) by the linear-time tree DP of Beyer, Proskurowski, Hedetniemi & Mitchell (1977).

    Rooted at 0, each vertex v has three states: v in S; v out of S and
    dominated by a child; v out of S and left for its parent to dominate.
    """
    order, parent = _rooted(t)
    inside, below, above = {}, {}, {}
    for v in reversed(order):
        kids = set_of(t.adj[v]) - {parent[v]}
        inside[v] = 1 + sum(min(below[c], above[c]) for c in kids)
        # every child in S or dominated below it, and at least one child in S
        below[v] = sum(min(inside[c], below[c]) for c in kids) + min(
            (max(0, inside[c] - below[c]) for c in kids), default=float("inf"))
        above[v] = sum(below[c] for c in kids)
    return min(inside[0], below[0])


def _forest_independence(g):
    """alpha of a forest by the textbook DP: each vertex with or without, children first."""
    total, seen = 0, set()
    for root in range(g.n):
        if root in seen:
            continue
        order, parent = _rooted(g, root)
        seen.update(order)
        inside, outside = {}, {}
        for v in reversed(order):
            kids = set_of(g.adj[v]) - {parent[v]}
            inside[v] = 1 + sum(outside[c] for c in kids)
            outside[v] = sum(max(inside[c], outside[c]) for c in kids)
        total += max(inside[root], outside[root])
    return total


def _forest_alpha_through_each_vertex(g):
    return tuple(1 + _forest_independence(g.induced(set(range(g.n)) - set_of(g.closed_masks()[v])))
                 for v in range(g.n))


def test_forest_independence_dp_matches_brute_force():
    rng = random.Random(0)
    for n in range(2, 12):
        t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
        assert _forest_independence(t) == brute_independence(t)
        assert min(_forest_alpha_through_each_vertex(t)) == brute_common_independence(t)


def test_independent_domination_on_trees_matches_dp():
    # the DP against the brute-force oracle on small trees, then the solver
    # against the DP on two random trees per order 20..64
    rng = random.Random(0)
    for n in range(2, 11):
        t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
        assert _tree_independent_domination(t) == brute_independent_domination(t)
    for n in range(20, 65):
        for _ in range(2):
            t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
            i, witness = independent_domination_number(t)
            assert i == _tree_independent_domination(t)
            assert t.is_independent(witness) and t.is_dominating(witness) and len(witness) == i


def _tree_domination(t):
    """gamma(T) by the linear-time tree DP of Cockayne, Goodman & Hedetniemi (1975).

    Rooted at 0, each vertex v has three states: v in D; v out of D and
    dominated by a child; v out of D and left for its parent to dominate.
    """
    order, parent = _rooted(t)
    inside, below, above = {}, {}, {}
    for v in reversed(order):
        kids = set_of(t.adj[v]) - {parent[v]}
        inside[v] = 1 + sum(min(inside[c], below[c], above[c]) for c in kids)
        # every child in D or dominated below it, and at least one child in D
        below[v] = sum(min(inside[c], below[c]) for c in kids) + min(
            (max(0, inside[c] - below[c]) for c in kids), default=float("inf"))
        above[v] = sum(below[c] for c in kids)
    return min(inside[0], below[0])


def test_domination_on_trees_matches_dp():
    # the DP against the brute-force oracle on small trees, then the solver
    # against the DP on two random trees per order 20..64
    rng = random.Random(0)
    for n in range(2, 11):
        t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
        assert _tree_domination(t) == brute_domination(t)
    for n in range(20, 65):
        for _ in range(2):
            t = prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)
            gamma, witness = domination_number(t)
            assert gamma == _tree_domination(t)
            assert t.is_dominating(witness) and len(witness) == gamma


def test_domination_matches_milp():
    # independent oracle: gamma as a 0/1 program, min sum x subject to
    # x(N[v]) >= 1 for every v, on G(40, 0.1)
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    n = 40
    for seed in range(20):
        rng = random.Random(seed)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1])
        rows = np.array([[row >> u & 1 for u in range(n)] for row in g.closed_masks()])
        result = optimize.milp(np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                               constraints=optimize.LinearConstraint(rows, lb=1))
        gamma, witness = domination_number(g)
        assert result.success and gamma == round(result.fun)
        assert g.is_dominating(witness) and len(witness) == gamma
