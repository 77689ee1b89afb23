"""Canonical labeling by individualization and refinement.

The canonical form of a graph is its adjacency relabeled by one leaf of a
search tree, in the simplest form of McKay & Piperno, "Practical graph
isomorphism, II" (J. Symb. Comput. 2014):

* every node is an ordered partition of the vertices, refined until it is
  equitable: a cell splits by how many neighbours its vertices have in
  another cell, the fragments in ascending order of that count;
* a node that is not discrete branches on each vertex of its first smallest
  non-singleton cell, which is individualized in front of the rest of it;
* a discrete partition is a leaf whose certificate is the tuple of adjacency
  rows relabeled in that vertex order, and the least certificate wins.

Every step commutes with relabeling, so the least certificate is an
isomorphism invariant.  Two leaves with equal certificates give an
automorphism.  At each node a child is skipped when the automorphisms found
so far that fix the node's individualized vertices map an explored child
onto it; its subtree then holds only certificates already seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from domiperf.formats import emit_graph6
from domiperf.graph import Graph, GraphError

MAX_CANONICAL_ORDER = 10


@dataclass(frozen=True)
class CanonicalForm:
    order: int
    token: str


def _refine(adj: Sequence[int], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """Refine an ordered partition until every cell is equitable.

    ``splitters`` holds vertex masks whose neighbour counts may still split a
    cell; every fragment of a split is queued as a splitter in turn.
    """
    n = len(adj)
    k = 0
    while k < len(splitters) and len(cells) < n:
        w = splitters[k]
        k += 1
        out = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(adj[v] & w).bit_count() for v in cell]
                if min(counts) != max(counts):
                    groups: dict[int, list[int]] = {}
                    for v, c in zip(cell, counts):
                        groups.setdefault(c, []).append(v)
                    for c in sorted(groups):
                        fragment = groups[c]
                        out.append(fragment)
                        mask = 0
                        for v in fragment:
                            mask |= 1 << v
                        splitters.append(mask)
                    continue
            out.append(cell)
        cells = out
    return cells


def _relabeled(adj: Sequence[int], order: list[int]) -> tuple[int, ...]:
    """Adjacency rows of the graph whose vertex i is ``order[i]``."""
    bit = [0] * len(adj)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        a = adj[v]
        row = 0
        while a:
            b = a & -a
            row |= bit[b.bit_length() - 1]
            a ^= b
        rows.append(row)
    return tuple(rows)


def _orbit_closure(mask: int, generators: list[list[int]]) -> int:
    """Smallest vertex set containing ``mask`` that the generators map into itself."""
    while True:
        grown = mask
        for g in generators:
            m = mask
            while m:
                b = m & -m
                grown |= 1 << g[b.bit_length() - 1]
                m ^= b
        if grown == mask:
            return mask
        mask = grown


def certificate(adj: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the canonical relabeling of the graph with rows ``adj``.

    Two graphs are isomorphic iff their certificates are equal.  ``adj`` must
    describe a simple graph; it is not validated.
    """
    n = len(adj)
    if n <= 1:
        return tuple(adj)
    best: tuple[int, ...] | None = None
    best_order: list[int] = []
    automorphisms: list[list[int]] = []

    def visit(cells: list[list[int]], fixed: list[int]) -> None:
        nonlocal best, best_order
        if len(cells) == n:
            order = [cell[0] for cell in cells]
            cert = _relabeled(adj, order)
            if best is None or cert < best:
                best, best_order = cert, order
            elif cert == best:
                gamma = [0] * n
                for u, v in zip(best_order, order):
                    gamma[u] = v
                automorphisms.append(gamma)
            return
        size = min(len(cell) for cell in cells if len(cell) > 1)
        t = next(i for i, cell in enumerate(cells) if len(cell) == size)
        target = cells[t]
        explored = 0
        for v in target:
            if explored >> v & 1:
                continue
            rest = [u for u in target if u != v]
            child = _refine(adj, cells[:t] + [[v], rest] + cells[t + 1:], [1 << v])
            visit(child, fixed + [v])
            explored |= 1 << v
            if automorphisms:
                stabilizer = [g for g in automorphisms if all(g[u] == u for u in fixed)]
                explored = _orbit_closure(explored, stabilizer)

    visit(_refine(adj, [list(range(n))], [(1 << n) - 1]), [])
    assert best is not None
    return best


def canonical_graph(G: Graph, max_order: int = MAX_CANONICAL_ORDER) -> Graph:
    if G.n > max_order:
        raise GraphError(f"canonical labeling capped at order {max_order}")
    return Graph(G.n, certificate(G.adj))


def canonical_form(G: Graph, max_order: int = MAX_CANONICAL_ORDER) -> CanonicalForm:
    """Isomorphism-invariant token: graph6 of the canonical relabeling."""
    return CanonicalForm(G.n, emit_graph6(canonical_graph(G, max_order)))
