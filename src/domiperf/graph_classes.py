"""Recognizers and constructors for the graph classes behind the corollaries.

Covers the tree taxonomy (star / spider / wounded spider / broom), chordal
recognition by maximum-cardinality search, block decompositions, and the
line / corona / middle / total constructions, together with the reduced
forbidden-set criteria each class admits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from domiperf.graph import Graph, GraphError, bits, build_graph
from domiperf.patterns import (
    contains_subgraph,
    forbidden_free,
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


# precedence: a nontrivial star is also a wounded spider; the specific label wins
_PRECEDENCE = [
    TreeClass.SINGLETON,
    TreeClass.STAR,
    TreeClass.SPIDER,
    TreeClass.WOUNDED_SPIDER,
    TreeClass.BROOM3,
]


def _leg_lengths(G: Graph, center: int) -> list[int] | None:
    """Path lengths of the branches hanging off ``center``, or None if some
    branch is not a bare path."""
    if any(v != center and G.degree(v) > 2 for v in range(G.n)):
        return None
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
    return legs


def _classes_from_legs(legs: list[int]) -> set[TreeClass]:
    k = len(legs)
    out: set[TreeClass] = set()
    if k == 0:
        return out
    ones = legs.count(1)
    twos = legs.count(2)
    threes = legs.count(3)
    if ones == k:
        out.add(TreeClass.STAR)
    if twos == k:
        out.add(TreeClass.SPIDER)
    if ones + twos == k and twos <= k - 1:
        out.add(TreeClass.WOUNDED_SPIDER)
    if k >= 2 and threes == 1 and ones == k - 1:
        out.add(TreeClass.BROOM3)
    return out


def classify_tree(G: Graph) -> TreeClass:
    """Most specific taxonomy label of a tree; non-trees are rejected."""
    if not G.is_tree():
        raise GraphError("classify_tree expects a tree")
    if G.n == 1:
        return TreeClass.SINGLETON
    reachable: set[TreeClass] = set()
    for center in range(G.n):
        legs = _leg_lengths(G, center)
        if legs is not None:
            reachable |= _classes_from_legs(legs)
    for cls in _PRECEDENCE:
        if cls in reachable:
            return cls
    return TreeClass.OTHER


def tree_corollary_conditions(G: Graph) -> tuple[bool, bool, bool, bool]:
    """The four equivalent statements of the tree characterization."""
    if not G.is_tree():
        raise GraphError("tree corollary expects a tree")
    c1 = forbidden_free(G)[0]
    c2 = is_pattern_free(G, TREE_FORBIDDEN)
    c3 = G.diameter() <= 4 and sum(1 for v in range(G.n) if G.degree(v) >= 3) <= 1
    c4 = classify_tree(G) is not TreeClass.OTHER
    return c1, c2, c3, c4


# -- chordal recognition ----------------------------------------------------

def _mcs_order(G: Graph) -> list[int]:
    """Maximum-cardinality search visiting order (a candidate reverse PEO)."""
    weights = [0] * G.n
    visited = 0
    order = []
    for _ in range(G.n):
        v = max(
            (u for u in range(G.n) if not visited >> u & 1),
            key=lambda u: (weights[u], -u),
        )
        order.append(v)
        visited |= 1 << v
        for w in bits(G.adj[v] & ~visited):
            weights[w] += 1
    return order


def is_chordal(G: Graph) -> bool:
    """Chordality via MCS plus explicit simpliciality verification."""
    if G.n == 0:
        return True
    order = _mcs_order(G)
    position = {v: i for i, v in enumerate(order)}
    for i in range(G.n - 1, -1, -1):
        v = order[i]
        earlier = [u for u in bits(G.adj[v]) if position[u] < i]
        for a in range(len(earlier)):
            for b in range(a + 1, len(earlier)):
                if not G.has_edge(earlier[a], earlier[b]):
                    return False
    return True


# -- blocks -----------------------------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    block_kinds: tuple[str, ...]  # "end" | "inner" | "isolated" per block
    blocks_per_vertex: tuple[int, ...]


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Blocks and cut vertices via iterative Hopcroft-Tarjan DFS.

    Isolated vertices count as their own (edgeless) blocks; a block touching
    no cut vertex is flagged "isolated", exactly one "end", two or more
    "inner".
    """
    n = G.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cut = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []

    for root in range(n):
        if disc[root] != -1:
            continue
        if G.degree(root) == 0:
            blocks.append(frozenset((root,)))
            disc[root] = 0
            continue
        timer = 0
        stack = [(root, iter(bits(G.adj[root])))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = v
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(bits(G.adj[w]))))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    members = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (u, v):
                            break
                    blocks.append(frozenset(members))
                    if u != root or root_children > 1:
                        cut.add(u)
        # leftover edges (possible when root is in one block) were all popped above

    per_vertex = [0] * n
    for blk in blocks:
        for v in blk:
            per_vertex[v] += 1
    kinds = []
    for blk in blocks:
        c = sum(1 for v in blk if v in cut)
        kinds.append("isolated" if c == 0 else "end" if c == 1 else "inner")
    return BlockDecomposition(tuple(blocks), frozenset(cut), tuple(kinds), tuple(per_vertex))


def is_block_graph(G: Graph) -> bool:
    """Every block induces a complete graph."""
    dec = block_decomposition(G)
    for blk in dec.blocks:
        members = sorted(blk)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if not G.has_edge(members[i], members[j]):
                    return False
    return True


def block_graph_corollary(G: Graph) -> bool:
    """Literal diameter-case characterization for connected block graphs."""
    if not G.is_connected() or G.n == 0:
        raise GraphError("block graph corollary expects a connected graph")
    if not is_block_graph(G):
        raise GraphError("block graph corollary expects a block graph")
    diam = G.diameter()
    if diam <= 2:
        return True
    dec = block_decomposition(G)
    branchy = sum(1 for c in dec.blocks_per_vertex if c >= 3)
    if diam == 3:
        return branchy <= 1
    if diam == 4:
        inner = [blk for blk, kind in zip(dec.blocks, dec.block_kinds) if kind == "inner"]
        large_inner = [blk for blk in inner if len(blk) >= 3]
        if not large_inner:
            # (a): every inner block is an edge
            return branchy <= 1
        if len(large_inner) == 1:
            # (b): unique large inner block; a lone high-branching vertex must lie in it
            if branchy == 0:
                return True
            if branchy == 1:
                v = next(i for i, c in enumerate(dec.blocks_per_vertex) if c >= 3)
                return v in large_inner[0]
            return False
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
    """Vertices are the edges of H in lexicographic endpoint order."""
    host_edges = H.edges()
    if len(host_edges) > 64:
        raise GraphError("line graph would exceed 64 vertices")
    out = []
    for a in range(len(host_edges)):
        for b in range(a + 1, len(host_edges)):
            if set(host_edges[a]) & set(host_edges[b]):
                out.append((a, b))
    return build_graph(len(host_edges), out)


def corona_k1(H: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of H."""
    if 2 * H.n > 64:
        raise GraphError("corona would exceed 64 vertices")
    edges = H.edges()
    edges.extend((v, H.n + v) for v in range(H.n))
    return build_graph(2 * H.n, edges)


def middle_graph(H: Graph) -> Graph:
    return line_graph(corona_k1(H))


def total_graph(H: Graph) -> Graph:
    """Vertices V(H) then E(H); adjacency per adjacency/adjacency/incidence."""
    host_edges = H.edges()
    n, m = H.n, len(host_edges)
    if n + m > 64:
        raise GraphError("total graph would exceed 64 vertices")
    edges = list(host_edges)
    for a in range(m):
        for b in range(a + 1, m):
            if set(host_edges[a]) & set(host_edges[b]):
                edges.append((n + a, n + b))
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
    host_edges = H.edges()
    for a in range(len(host_edges)):
        for b in range(a + 1, len(host_edges)):
            if not set(host_edges[a]) & set(host_edges[b]):
                return False
    return True


def middle_graph_star_phrasing(H: Graph) -> bool:
    """Second-clause reading: at most one nontrivial component, and it is a star.

    Disagrees with the matching-based clause on a triangle component; kept
    separate so verification can document the discrepancy.
    """
    nontrivial = [comp for comp in H.components() if len(comp) >= 2]
    if len(nontrivial) > 1:
        return False
    if not nontrivial:
        return True
    sub = H.induced(nontrivial[0])
    degs = sorted(sub.degree(v) for v in range(sub.n))
    # K_{1,k}: one center of degree k, k leaves of degree 1
    return sub.m == sub.n - 1 and degs[-1] == sub.n - 1 and all(d == 1 for d in degs[:-1])
