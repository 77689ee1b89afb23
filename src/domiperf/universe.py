"""Universes of non-isomorphic graphs and trees, one representative per class.

Graph universes grow one vertex at a time: every representative of the
previous order gets a new vertex joined to each subset of its vertices, and
the children are deduplicated by their canonical certificate
(:mod:`domiperf.canon`).  Each class keeps the first child that reached it,
and a universe lists its classes in ascending certificate order.  Trees grow
by leaf attachment, deduplicated by a center-rooted subtree code.
"""

from __future__ import annotations

from typing import Callable, Iterator

from domiperf.canon import certificate
from domiperf.graph import Graph, GraphError, bits, build_graph
from domiperf.graph_classes import is_block_graph, is_chordal
from domiperf.patterns import is_claw_free

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12

_UNIVERSE_CACHE: dict[int, list[Graph]] = {}
_TREE_CACHE: dict[int, list[Graph]] = {}

_FILTERS: dict[str, Callable[[Graph], bool]] = {
    "connected": Graph.is_connected,
    "tree": Graph.is_tree,
    "chordal": is_chordal,
    "block-graph": is_block_graph,
    "claw-free": is_claw_free,
}


def _all_graphs(order: int) -> list[Graph]:
    if order in _UNIVERSE_CACHE:
        return _UNIVERSE_CACHE[order]
    if order == 1:
        out = [build_graph(1, [])]
    else:
        k = order - 1
        level: dict[tuple[int, ...], tuple[int, ...]] = {}
        for parent in _all_graphs(k):
            rows = parent.adj
            for nbmask in range(1 << k):
                child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
                level.setdefault(certificate(child), child)
        out = [Graph(order, level[cert]) for cert in sorted(level)]
    _UNIVERSE_CACHE[order] = out
    return out


def _tree_code(G: Graph) -> str:
    """Rooted-subtree code minimized over the tree's one or two centers."""
    if G.n == 1:
        return "()"

    def peel_centers() -> list[int]:
        degrees = [G.degree(v) for v in range(G.n)]
        alive = set(range(G.n))
        leaves = [v for v in alive if degrees[v] <= 1]
        while len(alive) > 2:
            nxt = []
            for v in leaves:
                alive.discard(v)
                for u in bits(G.adj[v]):
                    if u in alive:
                        degrees[u] -= 1
                        if degrees[u] == 1:
                            nxt.append(u)
            leaves = nxt
        return sorted(alive)

    def rooted(v: int, parent: int) -> str:
        subs = sorted(rooted(u, v) for u in bits(G.adj[v]) if u != parent)
        return "(" + "".join(subs) + ")"

    return min(rooted(c, -1) for c in peel_centers())


def _all_trees(order: int) -> list[Graph]:
    if order in _TREE_CACHE:
        return _TREE_CACHE[order]
    if order == 1:
        out = [build_graph(1, [])]
    else:
        out = []
        seen = set()
        for parent in _all_trees(order - 1):
            k = order - 1
            for v in range(k):
                child = build_graph(order, parent.edges() + [(v, k)])
                code = _tree_code(child)
                if code not in seen:
                    seen.add(code)
                    out.append(child)
    _TREE_CACHE[order] = out
    return out


def enumerate_graphs(
    order: int, filter: str | Callable[[Graph], bool] | None = None
) -> Iterator[Graph]:
    """One representative per isomorphism class at the given order."""
    if order < 1:
        raise GraphError("enumeration starts at order 1")
    predicate = _FILTERS[filter] if isinstance(filter, str) else filter
    if filter == "tree":
        if order > MAX_TREE_ORDER:
            raise GraphError(f"tree enumeration capped at order {MAX_TREE_ORDER}")
        yield from _all_trees(order)
        return
    if order > MAX_ENUM_ORDER:
        raise GraphError(f"full enumeration capped at order {MAX_ENUM_ORDER}")
    for G in _all_graphs(order):
        if predicate is None or predicate(G):
            yield G


def enumerate_up_to(order_max: int, filter=None) -> Iterator[Graph]:
    for order in range(1, order_max + 1):
        yield from enumerate_graphs(order, filter)
