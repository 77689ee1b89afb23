import heapq
from functools import cache

from hypothesis import strategies as st

from domiperf.canon import certificate
from domiperf.graph import Graph, build_graph
from domiperf.patterns import pattern_by_name


@st.composite
def graphs(draw, min_n=0, max_n=8):
    """Random simple graph on up to max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return build_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return build_graph(n, edges)


def pattern_graph(name: str) -> Graph:
    return pattern_by_name(name).graph


@cache
def first_reached_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """One representative per class of the given order, in ascending certificate order.

    Naive growth: each representative of the order below gets every
    neighbour mask, and a class keeps the first child that reaches it.
    These rows fix a labeling that does not depend on the universe's growth.
    """
    if order == 1:
        return ((0,),)
    k = order - 1
    first: dict = {}
    for rows in first_reached_rows(k):
        for nbmask in range(1 << k):
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            first.setdefault(certificate(child), child)
    return tuple(first[cert] for cert in sorted(first))


def prufer_tree(seq, n):
    """The labeled tree on n >= 2 vertices with Pruefer sequence ``seq``."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


@st.composite
def forests_and_cycles(draw, max_n=14):
    """Disjoint union of random trees, cycles and isolated vertices, randomly relabeled.

    At most ``max_n`` vertices and at least one; the relabeling interleaves the
    components in vertex order.
    """
    edges: list[tuple[int, int]] = []
    n = 0
    while n == 0 or (n < max_n and draw(st.booleans())):
        kind = draw(st.sampled_from(("tree", "cycle", "isolated")))
        room = max_n - n
        if kind == "cycle" and room >= 3:
            k = draw(st.integers(3, room))
            edges.extend((n + i, n + (i + 1) % k) for i in range(k))
        elif kind == "tree":
            k = draw(st.integers(1, room))
            edges.extend((n + draw(st.integers(0, i - 1)), n + i) for i in range(1, k))
        else:
            k = 1
        n += k
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])
