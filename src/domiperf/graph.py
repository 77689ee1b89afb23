"""Immutable simple graphs on at most 64 vertices, stored as bitset adjacency rows.

Vertex sets are plain ``frozenset[int]`` at the API boundary; solvers work on
integer bitmasks internally.  All operations are pure, so graphs can be shared
freely between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_ORDER = 64


class GraphError(ValueError):
    """Structurally invalid graph construction or argument."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex indices."""
    return frozenset(bits(mask))


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Loop-free undirected graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_ORDER:
            raise GraphError(f"order {self.n} outside 0..{MAX_ORDER}")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count differs from order")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"row {v} references vertices >= {self.n}")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed_masks(self) -> list[int]:
        return [self.adj[v] | (1 << v) for v in range(self.n)]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    # -- structural primitives ---------------------------------------------

    def induced(self, S: Iterable[int]) -> "Graph":
        """Subgraph induced by S, relabeled 0..|S|-1 by ascending original index."""
        keep = sorted(set(S))
        self._check_vertices(keep)
        index = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            for u in bits(self.adj[v]):
                if u in index:
                    row |= 1 << index[u]
            rows.append(row)
        return Graph(len(keep), tuple(rows))

    def eccentricity_masks(self, u: int) -> list[int]:
        """Bitmasks of vertices at BFS distance 0, 1, 2, ... from u."""
        layers = [1 << u]
        seen = 1 << u
        while True:
            nxt = 0
            for w in bits(layers[-1]):
                nxt |= self.adj[w]
            nxt &= ~seen
            if not nxt:
                return layers
            layers.append(nxt)
            seen |= nxt

    def diameter(self) -> int | float:
        """Largest pairwise distance; math.inf when disconnected, 0 for n <= 1."""
        if not self.is_connected():
            return math.inf
        best = 0
        for u in range(self.n):
            best = max(best, len(self.eccentricity_masks(u)) - 1)
        return best

    def is_independent(self, S: Iterable[int]) -> bool:
        mask = mask_of(S)
        self._check_mask(mask)
        return all(self.adj[v] & mask == 0 for v in bits(mask))

    def is_dominating(self, S: Iterable[int]) -> bool:
        mask = mask_of(S)
        self._check_mask(mask)
        cov = mask
        for v in bits(mask):
            cov |= self.adj[v]
        return cov == self.vertex_mask

    def is_connected(self) -> bool:
        # the BFS layers from vertex 0 are disjoint, so their sum is its component
        return self.n <= 1 or sum(self.eccentricity_masks(0)) == self.vertex_mask

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and self.m == self.n - 1

    # -- helpers -----------------------------------------------------------

    def _check_vertices(self, vs: Iterable[int]) -> None:
        for v in vs:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} outside 0..{self.n - 1}")

    def _check_mask(self, mask: int) -> None:
        if mask & ~self.vertex_mask:
            raise GraphError("vertex set not contained in the host graph")

    def __repr__(self) -> str:  # short form, edges only
        return f"Graph(n={self.n}, edges={self.edges()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicates collapse, loops are rejected."""
    if not 0 <= n <= MAX_ORDER:
        raise GraphError(f"order {n} outside 0..{MAX_ORDER}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """K_{1,k} with the center at vertex 0."""
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
