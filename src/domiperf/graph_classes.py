"""Recognizers and constructors for the graph classes behind the corollaries.

Covers the tree taxonomy (star / spider / wounded spider / broom) read off one
leg profile, chordal recognition by simplicial elimination, block graphs
(recognized as diamond-free chordal graphs; the decomposition is the tuple of
blocks, read off edge neighbourhoods, and the block-graph corollary counts the
blocks at each vertex), and the line / corona / middle / total constructions,
together with the reduced forbidden-set criteria each class admits.
"""

from __future__ import annotations

import enum
from itertools import combinations

from domiperf.graph import MAX_ORDER, Graph, GraphError, bits, build_graph, set_of
from domiperf.patterns import (
    DECISION_ORDER,
    contains_subgraph,
    is_claw_free,
    is_pattern_free,
    pattern_by_name,
)

CHORDAL_FORBIDDEN = ("H1", "H7", "H8")
CLAW_FREE_FORBIDDEN = ("H7", "H8", "H9")
TREE_FORBIDDEN = ("H1", "H7", "H8")


class TreeClass(enum.Enum):
    SINGLETON = "singleton"
    STAR = "star"
    SPIDER = "spider"
    WOUNDED_SPIDER = "wounded_spider"
    BROOM3 = "broom3"
    OTHER = "other"


def _leg_lengths(G: Graph, center: int) -> list[int]:
    """Sorted lengths of the paths off ``center``; the other vertices have degree <= 2."""
    legs = []
    for first in bits(G.adj[center]):
        length = 1
        prev, cur = center, first
        while True:
            nxt = G.adj[cur] & ~(1 << prev)
            if not nxt:
                break
            prev, cur = cur, (nxt & -nxt).bit_length() - 1
            length += 1
        legs.append(length)
    return sorted(legs)


def classify_tree(G: Graph) -> TreeClass:
    """Most specific taxonomy label of a tree; non-trees are rejected.

    The labelled families are subdivided stars, so the leg profile at the
    centre decides: the centre is the one vertex of degree >= 3, or on a path
    a middle vertex (the one whose longest leg is shortest).
    """
    if not G.is_tree():
        raise GraphError("classify_tree expects a tree")
    if G.n == 1:
        return TreeClass.SINGLETON
    hubs = [v for v in range(G.n) if G.degree(v) >= 3]
    if len(hubs) >= 2:
        return TreeClass.OTHER
    centre = hubs[0] if hubs else min(range(G.n), key=lambda v: max(_leg_lengths(G, v)))
    legs = _leg_lengths(G, centre)
    # The order of the tests encodes the precedence: a star is also a wounded
    # spider, and the specific label wins.
    if set(legs) == {1}:
        return TreeClass.STAR
    if set(legs) == {2}:
        return TreeClass.SPIDER
    if set(legs) == {1, 2}:
        return TreeClass.WOUNDED_SPIDER
    if legs == [1] * (len(legs) - 1) + [3]:
        return TreeClass.BROOM3
    return TreeClass.OTHER


def tree_corollary_conditions(G: Graph) -> tuple[bool, bool, bool, bool]:
    """The four equivalent statements of the tree characterization."""
    if not G.is_tree():
        raise GraphError("tree corollary expects a tree")
    c1 = is_pattern_free(G, DECISION_ORDER)
    c2 = is_pattern_free(G, TREE_FORBIDDEN)
    c3 = sum(1 for v in range(G.n) if G.degree(v) >= 3) <= 1 and G.diameter() <= 4
    c4 = classify_tree(G) is not TreeClass.OTHER
    return c1, c2, c3, c4


# -- chordal recognition ----------------------------------------------------

def is_chordal(G: Graph) -> bool:
    """G is chordal iff deleting simplicial vertices one at a time empties it
    (Dirac, "On rigid circuit graphs", 1961; Fulkerson & Gross, 1965)."""
    left = G.vertex_mask
    while left:
        for v in bits(left):
            nb = G.adj[v] & left
            if all(nb & ~G.adj[u] == 1 << u for u in bits(nb)):
                left ^= 1 << v
                break
        else:
            return False
    return True


# -- block graphs -----------------------------------------------------------
# A block graph is a chordal graph with no induced diamond K4 - e (Bandelt &
# Mulder, "Distance-hereditary graphs", JCTB 1986).  In a block graph the
# block that holds an edge uv is N[u] & N[v], a cut vertex is a vertex in two
# or more blocks (Harary, Canad. Math. Bull. 1963), and an inner block holds
# two or more cut vertices.

def is_block_graph(G: Graph) -> bool:
    """The common neighbours of every edge are pairwise adjacent, and G is chordal."""
    for u, v in G.edges():
        common = G.adj[u] & G.adj[v]
        if any(common & ~G.adj[w] & ~(1 << w) for w in bits(common)):
            return False
    return is_chordal(G)


def block_decomposition(G: Graph) -> tuple[frozenset[int], ...]:
    """The blocks of a block graph, ascending as masks.

    Isolated vertices count as their own (edgeless) blocks.  Any other graph
    raises GraphError.
    """
    if not is_block_graph(G):
        raise GraphError("block decomposition expects a block graph")
    closed = G.closed_masks()
    masks = {closed[u] & closed[v] for u, v in G.edges()}
    masks.update(1 << v for v in range(G.n) if not G.adj[v])
    return tuple(set_of(mask) for mask in sorted(masks))


def block_graph_corollary(G: Graph) -> bool:
    """Literal diameter-case characterization for connected block graphs."""
    if not G.is_connected() or G.n == 0:
        raise GraphError("block graph corollary expects a connected graph")
    try:
        blocks = block_decomposition(G)
    except GraphError:
        raise GraphError("block graph corollary expects a block graph") from None
    diam = G.diameter()
    if diam <= 2:
        return True
    per_vertex = [sum(v in blk for blk in blocks) for v in range(G.n)]
    branchy = {v for v in range(G.n) if per_vertex[v] >= 3}
    if diam == 3:
        return len(branchy) <= 1
    if diam == 4:
        cut = {v for v in range(G.n) if per_vertex[v] >= 2}
        large_inner = [blk for blk in blocks if len(blk) >= 3 and len(blk & cut) >= 2]
        if not large_inner:
            # (a): every inner block is an edge
            return len(branchy) <= 1
        if len(large_inner) == 1:
            # (b): unique large inner block; a lone high-branching vertex must lie in it
            return len(branchy) <= 1 and branchy <= large_inner[0]
        return False
    return False


def chordal_corollary(G: Graph) -> bool:
    """Reduced forbidden set for chordal graphs."""
    if not is_chordal(G):
        raise GraphError("chordal corollary expects a chordal graph")
    return is_pattern_free(G, CHORDAL_FORBIDDEN)


def claw_free_corollary(G: Graph) -> bool:
    """Reduced forbidden set for claw-free graphs."""
    if not is_claw_free(G):
        raise GraphError("claw-free corollary expects a claw-free graph")
    return is_pattern_free(G, CLAW_FREE_FORBIDDEN)


# -- constructions ----------------------------------------------------------

def line_graph(H: Graph) -> Graph:
    """Vertices are the edges of H in lexicographic endpoint order; edge k = uv
    meets every other edge at u or at v."""
    host_edges = H.edges()
    if len(host_edges) > MAX_ORDER:
        raise GraphError(f"line graph would exceed {MAX_ORDER} vertices")
    at = [0] * H.n  # at[v]: the edges at v
    for k, (u, v) in enumerate(host_edges):
        at[u] |= 1 << k
        at[v] |= 1 << k
    rows = ((at[u] | at[v]) & ~(1 << k) for k, (u, v) in enumerate(host_edges))
    return Graph(len(host_edges), tuple(rows))


def corona_k1(H: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of H."""
    if 2 * H.n > MAX_ORDER:
        raise GraphError(f"corona would exceed {MAX_ORDER} vertices")
    edges = H.edges()
    edges.extend((v, H.n + v) for v in range(H.n))
    return build_graph(2 * H.n, edges)


def middle_graph(H: Graph) -> Graph:
    return line_graph(corona_k1(H))


def total_graph(H: Graph) -> Graph:
    """Vertices V(H) then E(H); adjacency per adjacency/adjacency/incidence."""
    host_edges = H.edges()
    n, m = H.n, len(host_edges)
    if n + m > MAX_ORDER:
        raise GraphError(f"total graph would exceed {MAX_ORDER} vertices")
    edges = host_edges + [(n + a, n + b) for a, b in line_graph(H).edges()]
    for a, (u, v) in enumerate(host_edges):
        edges.append((u, n + a))
        edges.append((v, n + a))
    return build_graph(n + m, edges)


def line_graph_criterion(H: Graph) -> bool:
    """L(H) is perfect iff H has none of 2P4, P7, C6 as a (plain) subgraph."""
    return not any(
        contains_subgraph(H, pattern_by_name(name)) for name in ("TWO_P4", "P7", "C6")
    )


def middle_graph_criterion(H: Graph) -> bool:
    """First-clause reading: H has no two vertex-disjoint edges."""
    return all(set(e) & set(f) for e, f in combinations(H.edges(), 2))


def middle_graph_star_phrasing(H: Graph) -> bool:
    """Second-clause reading: at most one nontrivial component, and it is a star.

    That is, H has no edges or one vertex lies on every edge.  Disagrees with
    the matching-based clause on a triangle component; kept separate so
    verification can document the discrepancy.
    """
    edges = H.edges()
    return not edges or any(all(v in e for e in edges) for v in range(H.n))
