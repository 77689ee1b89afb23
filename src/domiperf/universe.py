"""Universes of non-isomorphic graphs and trees, one representative per class.

Both grow by one step, ``_grow``: each representative of the previous order
gets a new vertex joined to each allowed mask, a key decides each child, and
each class keeps the first child the key accepted.  Trees attach a leaf, are
keyed by their tree certificate and keep first-seen order.

Graphs grow by canonical augmentation, keyed by
:func:`~domiperf.canon.canonical_augmentation`.  A parent joins one mask per
orbit of its found automorphisms on vertex subsets, the least one, in
ascending order: masks in one orbit give isomorphic children.  Each class
keeps the automorphisms found when it was accepted, for the next order's
masks, and a level lists its classes in ascending certificate order.  A
parent's partial group only prunes fewer masks, and the level's dict keeps
one child per class; the class counts (OEIS A000088) and the one-to-one
match with networkx's atlas check that no class is lost.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator

from domiperf.canon import canonical_augmentation, tree_certificate
from domiperf.graph import Graph, GraphError

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12


def _grow(parents: Iterable[tuple[tuple[int, ...], Iterable[int]]], key: Callable) -> dict:
    """Each class's first accepted child, with the entry the key kept for it.

    Each parent is its rows and its masks; a parent of order k gets vertex k
    joined to each mask.  ``key(child)`` returns the child's class and an
    entry to keep, or None to refuse the child.
    """
    level: dict = {}
    for rows, masks in parents:
        k = len(rows)
        for nbmask in masks:
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            decided = key(child)
            if decided is not None:
                level.setdefault(decided[0], (child, decided[1]))
    return level


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


@cache
def _graph_level(order: int) -> list[tuple[Graph, list[list[int]]]]:
    """Each class and its found automorphisms, in ascending certificate order."""
    if order == 1:
        return [(Graph(1, (0,)), [])]
    parents = _graph_level(order - 1)
    level = _grow(((G.adj, _orbit_representatives(order - 1, gens)) for G, gens in parents),
                  canonical_augmentation)
    classes = [level[cert] for cert in sorted(level)]
    del level  # free the certificates, then build the graphs in place: a lower peak
    for i, (rows, gens) in enumerate(classes):
        classes[i] = Graph(order, rows), gens
    return classes


@cache
def _all_trees(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    parents = ((T.adj, [1 << v for v in range(T.n)]) for T in _all_trees(order - 1))
    level = _grow(parents, lambda rows: (tree_certificate(rows), None))
    return [Graph(order, rows) for rows, _ in level.values()]


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
