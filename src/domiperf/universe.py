"""Universes of non-isomorphic graphs and trees, one representative per class.

Both grow by one step, ``_grow``: each representative of the previous order
gets a new vertex joined to each allowed mask, a key decides each child, and
each class keeps the first child (adjacency rows) the key accepted.  Trees
attach a leaf, take the tree certificate from :mod:`domiperf.canon` and keep
first-seen order.

Graphs grow by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  A parent joins one mask per orbit of its
automorphisms on vertex subsets, the least one, in ascending order: masks in
one orbit give isomorphic children.  A child is accepted iff its new vertex k
lies in the orbit of the vertex that its canonical order
(:func:`~domiperf.canon.canonical_labeling`) puts last, so each class is
accepted from one parent class only, that of the child minus its last vertex.
That order puts a vertex of maximum degree last, so a child in which some
vertex has a higher degree than k is refused before any search.  Graphs list
their classes in ascending certificate order and keep the automorphisms the
accepting search found, for the next order's masks.  The accepted child need
not be the first child that reaches its class.

A class is lost if the found automorphisms generate only part of a child's
group, since the last vertex's orbit then looks smaller; ``canon`` does not
promise whole groups, so the class counts (OEIS A000088) and the one-to-one
match with networkx's atlas are the check.  A parent's partial group only
prunes fewer masks, and the level's certificate dict keeps one child per
class.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator

from domiperf.canon import canonical_labeling, orbit_closure, tree_certificate
from domiperf.graph import Graph, GraphError

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12


def _grow(parents: Iterable[tuple[tuple[int, ...], Iterable[int]]], key: Callable) -> dict:
    """The first accepted child per class.

    Each parent is its rows and its masks; a parent of order k gets vertex k
    joined to each mask.  ``key(child)`` returns the child's class and the
    entry to keep for it, or None to refuse the child.
    """
    level: dict = {}
    for rows, masks in parents:
        k = len(rows)
        for nbmask in masks:
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            decided = key(child)
            if decided is not None:
                level.setdefault(*decided)
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


def _augmentation(child: tuple[int, ...]) -> tuple | None:
    """The child's certificate and (rows, automorphisms), or None unless the new vertex is canonical."""
    k = len(child) - 1
    degree = child[k].bit_count()
    # the canonical order ends at a vertex of maximum degree: no search needed
    if any(row.bit_count() > degree for row in child):
        return None
    cert, order, generators = canonical_labeling(child)
    if not orbit_closure(1 << order[-1], generators) >> k & 1:
        return None
    return cert, (child, generators)


@cache
def _graph_level(order: int) -> list[tuple[tuple[int, ...], list[list[int]]]]:
    """Each class's rows and found automorphisms, in ascending certificate order."""
    if order == 1:
        return [((0,), [])]
    parents = _graph_level(order - 1)
    level = _grow(((rows, _orbit_representatives(order - 1, gens)) for rows, gens in parents),
                  _augmentation)
    return [level[cert] for cert in sorted(level)]


@cache
def _all_graphs(order: int) -> list[Graph]:
    return [Graph(order, rows) for rows, _ in _graph_level(order)]


@cache
def _all_trees(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    parents = ((T.adj, [1 << v for v in range(T.n)]) for T in _all_trees(order - 1))
    level = _grow(parents, lambda rows: (tree_certificate(rows), rows))
    return [Graph(order, rows) for rows in level.values()]


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
    for G in _all_graphs(order):
        if filter is None or filter(G):
            yield G


def enumerate_up_to(order_max: int, filter=None) -> Iterator[Graph]:
    for order in range(1, order_max + 1):
        yield from enumerate_graphs(order, filter)
