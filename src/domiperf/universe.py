"""Universes of non-isomorphic graphs and trees, one representative per class.

Both grow by one step, ``_grow``: each representative of the previous order
gets a new vertex joined to each allowed mask, and each class keeps the first
child (adjacency rows) that reached it; the class is decided by a certificate
from :mod:`domiperf.canon`.  Graphs list their classes in ascending
certificate order.  Trees attach a leaf, take the tree certificate and keep
first-seen order.

A graph parent joins one mask per orbit of its automorphisms on vertex
subsets, the least one, in ascending order (orbit pruning: McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Masks in one
orbit give isomorphic children, and a class is first reached by the least mask
of its orbit, so the pruned growth keeps the same rows.  The automorphisms are
the ones :func:`~domiperf.canon.certificate_and_automorphisms` found; if they
generate only part of the group, fewer masks are pruned and nothing is lost.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator

from domiperf.canon import certificate, certificate_and_automorphisms, tree_certificate
from domiperf.graph import Graph, GraphError

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12


def _grow(parents: list[Graph], masks: Callable[[Graph], Iterable[int]], key: Callable) -> dict:
    """The first child per key; a parent of order k gets vertex k joined to each of masks(parent)."""
    level: dict = {}
    for parent in parents:
        rows, k = parent.adj, parent.n
        for nbmask in masks(parent):
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            level.setdefault(key(child), child)
    return level


def _orbit_representatives(G: Graph) -> Iterable[int]:
    """The least vertex mask of each orbit of G's found automorphisms on masks, ascending."""
    generators = certificate_and_automorphisms(G.adj)[1]
    size = 1 << G.n
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
def _all_graphs(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    level = _grow(_all_graphs(order - 1), _orbit_representatives, certificate)
    return [Graph(order, level[cert]) for cert in sorted(level)]


@cache
def _all_trees(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    level = _grow(_all_trees(order - 1), lambda T: [1 << v for v in range(T.n)], tree_certificate)
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
