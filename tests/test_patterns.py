from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from domiperf import patterns
from domiperf.graph import GraphError, build_graph, complete_graph, cycle_graph, path_graph, star_graph
from domiperf.graph_classes import corona_k1, line_graph
from domiperf.patterns import (
    FORBIDDEN_NAMES,
    MAX_PATTERN_ORDER,
    Pattern,
    _bands,
    _plan,
    _search,
    catalog,
    contains_subgraph,
    find_induced,
    forbidden_catalog,
    forbidden_free,
    is_claw_free,
    is_pattern_free,
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
    assert pattern_by_name("CLAW").graph.n == 4
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
        free, witness = forbidden_free(pat.graph)
        assert not free
        wpat, emb = witness
        assert _is_induced_map(pat.graph, wpat, emb.mapping)
    free, witness = forbidden_free(build_graph(5, [(0, 1)]))
    assert free and witness is None


@pytest.mark.parametrize("host, tried", [(path_graph(6), 8), (complete_graph(7), 10)],
                         ids=["P6 is H8", "H-free"])
def test_forbidden_free_searches_each_pattern_once(monkeypatch, host, tried):
    # the theorem route's first hit is its verdict and its witness: one
    # search, and one compiled kernel, per catalog graph it tries
    searches = []
    real = patterns._search

    def counted(*args):
        searches.append(args[1])
        return real(*args)

    monkeypatch.setattr(patterns, "_search", counted)
    patterns._kernel.cache_clear()
    free, witness = forbidden_free(host)
    assert free == (witness is None) == (tried == 10)
    assert len(searches) == patterns._kernel.cache_info().currsize == tried
    assert [pat.name for pat in searches] == list(FORBIDDEN_NAMES[:tried])


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
            assert find_induced(a.graph, b) is None


def _is_induced_map(host, pat, mapping):
    """The naive pairwise test: an injective map that keeps edges and non-edges."""
    pg = pat.graph
    return len(set(mapping)) == len(mapping) == pg.n and all(
        pg.adj[i] >> j & 1 == host.adj[mapping[i]] >> mapping[j] & 1
        for i in range(pg.n)
        for j in range(i + 1, pg.n)
    )


def _brute_first_induced(host, pat):
    """The first induced map in the lexicographic order of ``permutations``, or None."""
    maps = permutations(range(host.n), pat.graph.n)
    return next((perm for perm in maps if _is_induced_map(host, pat, perm)), None)


def _assert_brute_force_witness(g):
    for name in ("CLAW", "P4", "TWO_P3", *FORBIDDEN_NAMES):
        pat = pattern_by_name(name)
        emb = find_induced(g, pat)
        assert (emb.mapping if emb else None) == _brute_first_induced(g, pat), name


@given(graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_backtracking_agrees_with_brute_force(g):
    # not only some embedding: the witness is the lexicographically smallest map
    _assert_brute_force_witness(g)


@st.composite
def sparse_hosts(draw, max_n=7):
    """A random tree with pendant paths, or a cycle with one chord, randomly relabeled.

    Both have many vertices of degree at most 2, which the search skips for
    pattern vertices of higher degree.
    """
    if draw(st.booleans()):
        n = draw(st.integers(4, max_n))
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, draw(st.integers(2, n - 2)))]
    else:
        n = draw(st.integers(1, 4))
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        while n < max_n and draw(st.booleans()):
            length = draw(st.integers(1, max_n - n))
            edges.append((draw(st.integers(0, n - 1)), n))
            edges.extend((v, v + 1) for v in range(n, n + length - 1))
            n += length
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(sparse_hosts())
@settings(max_examples=30, deadline=None)
def test_backtracking_agrees_with_brute_force_on_sparse_hosts(g):
    _assert_brute_force_witness(g)


@given(graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_subgraph_weaker_than_induced(g):
    for name in ("P4", "C6", "TWO_P3"):
        pat = pattern_by_name(name)
        if not contains_subgraph(g, pat):
            assert find_induced(g, pat) is None


def _assert_witness_is_first_index_order_embedding(g):
    first = next(((pat, emb) for pat in forbidden_catalog()
                  if (emb := find_induced(g, pat)) is not None), None)
    free, witness = forbidden_free(g)
    assert free == (first is None)
    assert witness == first


@given(graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_decision_order_keeps_the_witness(g):
    # the witness is the index-order search's embedding of the first H that
    # embeds, and the verdict agrees with it
    _assert_witness_is_first_index_order_embedding(g)


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_decision_order_keeps_the_witness_on_line_graphs(h):
    # line graphs are claw-free, so their hits are H7, H8 and H9
    _assert_witness_is_first_index_order_embedding(line_graph(h))


def _brute_contains(host, pat):
    """An injective map that keeps every pattern edge, by trying all of them."""
    pg = pat.graph
    return any(
        all(host.adj[perm[u]] >> perm[v] & 1 for u, v in pg.edges())
        for perm in permutations(range(host.n), pg.n)
    )


@given(st.one_of(graphs(max_n=8), sparse_hosts(max_n=8)))
@settings(max_examples=30, deadline=None)
def test_verdict_only_searches_agree_with_brute_force(g):
    for name in ("TWO_P4", "P7", "C6"):
        pat = pattern_by_name(name)
        assert contains_subgraph(g, pat) == _brute_contains(g, pat), name
    assert is_claw_free(g) == (_brute_first_induced(g, pattern_by_name("CLAW")) is None)
    names = ("H1", "H7", "H8")
    assert is_pattern_free(g, names) == all(
        _brute_first_induced(g, pattern_by_name(n)) is None for n in names)


def _group(pg):
    """The pattern graph's whole automorphism group, by trying every permutation."""
    def image(row, g):
        return sum(1 << g[v] for v in range(pg.n) if row >> v & 1)

    return {g for g in permutations(range(pg.n))
            if all(pg.adj[g[u]] == image(pg.adj[u], g) for u in range(pg.n))}


FORBIDDEN_GROUP_ORDERS = {"H1": 8, "H2": 2, "H3": 4, "H4": 72, "H5": 4, "H6": 8, "H7": 8,
                          "H8": 2, "H9": 12, "H10": 2}


@pytest.mark.parametrize("pat", catalog(), ids=lambda p: p.name)
def test_search_plans(pat):
    pg = pat.graph
    group = _group(pg)
    assert len(group) == FORBIDDEN_GROUP_ORDERS.get(pat.name, len(group))
    for induced, witness in ((True, True), (False, True), (True, False), (False, False)):
        steps = _plan(pat, induced, witness)
        assert sorted(s.vertex for s in steps) == list(range(pg.n))
        # the reference bounds: each vertex r in plan order bounds the rest of
        # its orbit under the stabilizer of the vertices before it, computed
        # from the whole group; a later bound replaces an earlier one
        above, stabilizer = {}, group
        for r in (s.vertex for s in steps):
            above.update((q, r) for q in {g[r] for g in stabilizer} - {r})
            stabilizer = {g for g in stabilizer if g[r] == r}
        assert [s.above for s in steps] == [above.get(s.vertex, -1) for s in steps]
        # symmetry breaking (Grochow & Kellis), in both orders: of the
        # pattern's embeddings in itself, its automorphisms, exactly one meets
        # every condition; in index order it is the least, the identity
        passing = [g for g in group
                   if all(s.above < 0 or g[s.vertex] > g[s.above] for s in steps)]
        assert len(passing) == 1
        if witness:
            assert [s.vertex for s in steps] == list(range(pg.n))
            assert passing == [tuple(range(pg.n))]
        for k, step in enumerate(steps):
            before = {s.vertex for s in steps[:k]}
            assert step.above in before | {-1}
            assert step.degree == pg.degree(step.vertex)
            assert set(step.placed) == {r for r in before if pg.adj[step.vertex] >> r & 1}
            assert set(step.apart) == (before - set(step.placed) if induced else set())
            if witness:
                continue

            def rank(v):  # most placed neighbours, then higher degree, then lower index
                return (len({r for r in before if pg.adj[v] >> r & 1}), pg.degree(v), -v)

            assert rank(step.vertex) == max(rank(v) for v in set(range(pg.n)) - before)
            if pg.is_connected() and k:
                assert step.placed, (pat.name, step.vertex)


# An order-7 graph with a group of order 6 whose generators, as canon finds
# them, all move vertex 0: the plans see no stabilizer of 0, although the
# whole group's has order 2, so they keep fewer bounds than the group allows.
# The test below checks that it still is such a graph, so that the plan tests
# keep covering that case.
PART_GROUP = build_graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 3),
                             (2, 5), (2, 6), (3, 5), (4, 6)])


def test_plans_whose_generators_miss_part_of_a_stabilizer():
    group = _group(PART_GROUP)
    steps = _plan(Pattern("X", PART_GROUP), True, True)
    passing = [g for g in group if all(s.above < 0 or g[s.vertex] > g[s.above] for s in steps)]
    assert len(group) == 6 and len(passing) == 2


@st.composite
def hosts_of(draw, pg, max_n):
    """A host of order at most ``max_n`` that half the time holds ``pg``:
    pg with extra vertices and edges, randomly relabeled."""
    if draw(st.booleans()):
        return draw(st.one_of(graphs(max_n=max_n), sparse_hosts(max_n=max_n)))
    n = draw(st.integers(pg.n, max_n))
    pairs = [(u, v) for v in range(pg.n, n) for u in range(v)]
    edges = pg.edges() + (draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def patterns_and_hosts(draw):
    """A pattern graph of order 2..6 or ``PART_GROUP``, and a host of order at
    most 8 that half the time holds the pattern."""
    pg = draw(st.one_of(graphs(min_n=2, max_n=6), st.just(PART_GROUP)))
    return pg, draw(hosts_of(pg, 8))


@given(patterns_and_hosts())
@settings(max_examples=40, deadline=None)
def test_plans_of_patterns_outside_the_catalog(pattern_and_host):
    # the bounds come from the generators canon finds, which may generate
    # less than a stabilizer of the pattern's group: every plan must still
    # keep the embeddings, and the witness plan the lexicographically least
    pg, host = pattern_and_host
    pat = Pattern("X", pg)
    first = _brute_first_induced(host, pat)
    assert _search(host, pat, True, True) == first
    assert (_search(host, pat, True) is not None) == (first is not None)
    assert (_search(host, pat, False) is not None) == _brute_contains(host, pat)


def _naive_maps(host, pg, induced, order, first_image=None):
    """Every embedding of pg in host, mapping the pattern vertices in ``order``.

    Each vertex tries every unused host vertex in ascending order that keeps
    its pattern edges to the vertices mapped before it, and in induced mode
    its non-edges too: no degree test.  In index order the first map is the
    lexicographically smallest.  ``first_image`` fixes the first vertex's image.
    """
    mapping = [0] * pg.n

    def extend(i, used):
        if i == len(order):
            yield tuple(mapping)
            return
        q = order[i]
        for v in range(host.n) if i or first_image is None else (first_image,):
            if used >> v & 1:
                continue
            kept = [(pg.adj[q] >> r & 1, host.adj[v] >> mapping[r] & 1) for r in order[:i]]
            if all(h == e if induced else h >= e for e, h in kept):
                mapping[q] = v
                yield from extend(i + 1, used | 1 << v)

    return extend(0, 0)


def _band_misses(host, pat, induced, band):
    """The (pattern vertex, host vertex) pairs of some embedding that ``band`` leaves out."""
    pg = pat.graph
    missed = []
    for q in range(pg.n):
        # map q first, then in induced mode its non-neighbours, else its
        # neighbours: a host vertex of too high or too low a degree fails early
        order = [q] + sorted((r for r in range(pg.n) if r != q),
                             key=lambda r: ((pg.adj[q] >> r & 1) == induced, r))
        for v in range(host.n):
            if not band[pg.degree(q)] >> v & 1 and next(
                    _naive_maps(host, pg, induced, order, v), None) is not None:
                missed.append((q, v))
    return missed


@pytest.mark.parametrize("pat", catalog(), ids=lambda p: p.name)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_degree_bands_keep_every_embedding(pat, data):
    # an embedding maps each pattern vertex into its degree band, so the
    # band-limited search still finds the lexicographically smallest witness
    host = data.draw(hosts_of(pat.graph, 9))
    p = pat.graph.n
    for induced in (True, False):
        assert _band_misses(host, pat, induced, _bands(host, p, induced)) == []
    first = next(_naive_maps(host, pat.graph, True, range(p)), None)
    if host.n <= 7:
        assert first == _brute_first_induced(host, pat)
    assert _search(host, pat, True, True) == first
    assert (_search(host, pat, True) is not None) == (first is not None)
    contained = next(_naive_maps(host, pat.graph, False, range(p)), None) is not None
    assert (_search(host, pat, False) is not None) == contained


def test_induced_band_reaches_n_minus_p_above_the_degree():
    # the centre of K(1,3) holds the middle of an induced P3 with one
    # neighbour to spare: a band of slack n - p - 1 would lose that embedding
    host, pat = star_graph(3), pattern_by_name("P3")
    centre = next(v for v in range(host.n) if host.degree(v) == 3)
    band = _bands(host, 3, True)
    assert band[2] >> centre & 1
    narrow = list(band)
    narrow[2] &= ~(1 << centre)
    assert _band_misses(host, pat, True, narrow) == [(1, centre)]


def test_pattern_order_cap():
    # a search kernel nests one loop per pattern vertex, and CPython compiles
    # at most 20 nested blocks: P20 is still found, P21 is refused by name
    assert MAX_PATTERN_ORDER == 20
    host = path_graph(22)
    emb = find_induced(host, Pattern("P20", path_graph(20)))
    assert emb is not None and emb.mapping == tuple(range(20))
    assert contains_subgraph(host, Pattern("P20", path_graph(20)))
    # the cap holds whatever the host's order, also below the pattern's
    for search in (find_induced, contains_subgraph):
        for h in (host, path_graph(5)):
            with pytest.raises(GraphError, match="MAX_PATTERN_ORDER"):
                search(h, Pattern("P21", path_graph(21)))


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

