"""Universes of non-isomorphic graphs and trees, one representative per class.

Graphs grow one order at a time by canonical augmentation (McKay 1998) in one
step, ``_grow``: each class of the previous level gets a new vertex joined to
each allowed mask, :func:`~domiperf.canon.canonical_augmentation` accepts or
refuses each child, and each class keeps the first child accepted.  Trees
need no such step: the WROM walk over level sequences (``_free_tree_levels``)
lists each class exactly once, and the trees keep its order.

A parent joins one mask per orbit of its found automorphisms on vertex
subsets, the least one, in ascending order: masks in one orbit give
isomorphic children.  Each class keeps the automorphisms found when it was
accepted, for the next order's masks, and a level lists its classes in
ascending certificate order.  A parent's partial group only prunes fewer
masks, and the level's dict keeps one child per class; the class counts
(OEIS A000088) and the one-to-one match with networkx's atlas check that no
class is lost.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator

from domiperf.canon import canonical_augmentation
from domiperf.graph import Graph, GraphError

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12


def _orbit_representatives(n: int, generators: list[list[int]]) -> Iterable[int]:
    """The least mask of each orbit of the generators on subsets of n vertices, ascending."""
    size = 1 << n
    if not generators:
        return range(size)
    # images[i][m]: the image of mask m under generator i, built from m minus its lowest bit
    images = []
    for g in generators:
        image = [0] * size
        for m in range(1, size):
            low = m & -m
            image[m] = image[m ^ low] | 1 << g[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    least = []
    for m in range(size):
        if seen[m]:
            continue
        least.append(m)
        seen[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return least


def _grow(level: list[tuple[Graph, list[list[int]]]]) -> list[tuple[Graph, list[list[int]]]]:
    """The next level: each class's first accepted child, with its found automorphisms.

    A parent of order k gets vertex k joined to each mask that
    ``_orbit_representatives`` gives for its automorphisms, and
    ``canonical_augmentation`` accepts or refuses each child.
    """
    found: dict = {}
    for G, gens in level:
        rows, k = G.adj, G.n
        for nbmask in _orbit_representatives(k, gens):
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            decided = canonical_augmentation(child)
            if decided is not None:
                found.setdefault(decided[0], (child, decided[1]))
    classes = [found[cert] for cert in sorted(found)]
    del found  # free the certificates, then build the graphs in place: a lower peak
    for i, (rows, gens) in enumerate(classes):
        classes[i] = Graph(len(rows), rows), gens
    return classes


@cache
def _graph_level(order: int) -> list[tuple[Graph, list[list[int]]]]:
    """Each class and its found automorphisms, in ascending certificate order."""
    if order == 1:
        return [(Graph(1, (0,)), [])]
    return _grow(_graph_level(order - 1))


def _next_rooted(levels: list[int], p: int) -> list[int] | None:
    """The next canonical level sequence below every one that starts with ``levels[:p + 1]``.

    Beyer & Hedetniemi's successor ("Constant time generation of rooted
    trees", SIAM J. Comput. 1980): vertex p moves up to its parent q's level
    and the rest repeats ``levels[q:p]``.  None if p is a child of the root.
    """
    if levels[p] <= 1:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _free_tree_levels(order: int) -> Iterator[list[int]]:
    """One level sequence per free tree of the order, rooted at a centre.

    Wright, Richmond, Odlyzko & McKay ("Constant time generation of free
    trees", SIAM J. Comput. 1986).  A canonical level sequence lists a rooted
    tree in preorder, the root at level 0 and each vertex's subtrees in
    descending lexicographic order, so the root's first subtree T1 is a
    tallest one; h1 is its deepest level.  T2 is the root with its other
    subtrees, h2 its deepest level.  The root is a centre iff h2 >= h1 - 1.
    If h2 = h1 - 1, T1's root is the other centre, and rooting there swaps
    the two sides: the root kept is the one whose T1 is not the larger side
    in (order, sequence).

    The walk takes the canonical sequences in descending order from the path
    rooted at its centre (Beyer & Hedetniemi's successor).  While T1 stays,
    T2 descends: h2 never rises, T2's order is fixed and its sequence falls.
    So once a sequence fails, each one fails until T1 changes, and the walk
    jumps there.  A T1 that reaches position order - h1 + 1 leaves T2 too few
    vertices to be h1 - 1 deep; it is cut back at that position first.
    """
    levels = list(range(order // 2 + 1)) + list(range(1, (order + 1) // 2))
    while levels is not None:
        t2 = next((i for i in range(2, order) if levels[i] == 1), order)  # T2's first child
        h1 = max(levels[1:t2], default=0)
        if t2 > order - h1 + 1:
            levels = _next_rooted(levels, order - h1 + 1)
            continue
        h2 = max(levels[t2:], default=0)
        if h2 == h1 or h2 == h1 - 1 and (
            (t2 - 1, [level - 1 for level in levels[1:t2]]) <= (order - t2 + 1, [0, *levels[t2:]])
        ):
            yield levels
            last = max((i for i in range(order) if levels[i] > 1), default=0)
            levels = _next_rooted(levels, last)
        else:
            levels = _next_rooted(levels, t2 - 1)


@cache
def _all_trees(order: int) -> list[Graph]:
    """One tree per class, vertex i the i-th of its level sequence (WROM order)."""
    trees = []
    for levels in _free_tree_levels(order):
        rows = [0] * order
        last = [0] * order  # last[h]: the latest vertex at level h, the parent of the next at h + 1
        for v in range(1, order):
            u = last[levels[v] - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            last[levels[v]] = v
        trees.append(Graph(order, tuple(rows)))
    return trees


def enumerate_graphs(
    order: int, filter: str | Callable[[Graph], bool] | None = None
) -> Iterator[Graph]:
    """One representative per isomorphism class at the given order.

    ``filter`` is ``"tree"`` (trees have their own generator) or a predicate
    that picks the graphs to yield.
    """
    if order < 1:
        raise GraphError("enumeration starts at order 1")
    if filter == "tree":
        if order > MAX_TREE_ORDER:
            raise GraphError(f"tree enumeration capped at order {MAX_TREE_ORDER}")
        yield from _all_trees(order)
        return
    if isinstance(filter, str):
        raise GraphError(f"unknown enumeration filter {filter!r}")
    if order > MAX_ENUM_ORDER:
        raise GraphError(f"full enumeration capped at order {MAX_ENUM_ORDER}")
    for G, _ in _graph_level(order):
        if filter is None or filter(G):
            yield G


def enumerate_up_to(order_max: int, filter=None) -> Iterator[Graph]:
    for order in range(1, order_max + 1):
        yield from enumerate_graphs(order, filter)
