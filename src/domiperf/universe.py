"""Universes of non-isomorphic graphs and trees, one representative per class.

Both grow by one step, ``_grow``: each representative of the previous order
gets a new vertex joined to each allowed mask, and each class keeps the first
child (adjacency rows) that reached it; the class is decided by a certificate
from :mod:`domiperf.canon`.  Graphs join every subset and list their classes
in ascending certificate order.  Trees attach a leaf, take the tree
certificate and keep first-seen order.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator

from domiperf.canon import certificate, tree_certificate
from domiperf.graph import Graph, GraphError

MAX_ENUM_ORDER = 8
MAX_TREE_ORDER = 12


def _grow(parents: list[Graph], masks: Callable[[int], Iterable[int]], key: Callable) -> dict:
    """The first child per key; a parent of order k gets vertex k joined to each of masks(k)."""
    level: dict = {}
    for parent in parents:
        rows, k = parent.adj, parent.n
        for nbmask in masks(k):
            child = tuple([rows[v] | (nbmask >> v & 1) << k for v in range(k)] + [nbmask])
            level.setdefault(key(child), child)
    return level


@cache
def _all_graphs(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    level = _grow(_all_graphs(order - 1), lambda k: range(1 << k), certificate)
    return [Graph(order, level[cert]) for cert in sorted(level)]


@cache
def _all_trees(order: int) -> list[Graph]:
    if order == 1:
        return [Graph(1, (0,))]
    level = _grow(_all_trees(order - 1), lambda k: [1 << v for v in range(k)], tree_certificate)
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
