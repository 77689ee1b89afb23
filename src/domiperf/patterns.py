"""The forbidden-graph catalog and the induced/non-induced embedding search.

The ten minimal imperfect graphs are stored with the 1-based labels of their
published drawings.  Utility patterns (claw, paths, a 6-cycle, disjoint path
pairs) share the same search engine so the class-restricted criteria reuse it.

The search maps pattern vertices one at a time, following a step plan built
once per pattern, mode and order.  A yes/no answer comes from the
constraint-first order (next the vertex with the most mapped neighbours).  A
witness comes from the index order, whose first embedding is the
lexicographically smallest; ``forbidden_free`` reruns it only for the first
H that embeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from domiperf.canon import certificate
from domiperf.graph import Graph, GraphError, build_graph


@dataclass(frozen=True)
class Pattern:
    """A named catalog graph on vertices 0..n-1 (label k of its drawing is vertex k - 1)."""

    name: str
    graph: Graph


@dataclass(frozen=True)
class Embedding:
    """Injective pattern-to-host vertex map of an induced embedding."""

    mapping: tuple[int, ...]


_H_EDGES: dict[str, tuple[tuple[int, int], ...]] = {
    "H1": ((1, 2), (1, 3), (1, 5), (4, 5), (5, 6)),
    "H2": ((1, 2), (1, 3), (1, 5), (4, 5), (5, 6), (3, 4)),
    "H3": ((1, 2), (1, 3), (1, 5), (4, 5), (5, 6), (3, 4), (3, 6)),
    "H4": ((1, 2), (1, 3), (1, 5), (4, 5), (5, 6), (3, 4), (3, 6), (2, 4), (2, 6)),
    "H5": ((1, 2), (1, 3), (1, 5), (3, 4), (4, 5), (5, 6), (2, 6)),
    "H6": ((1, 2), (1, 3), (1, 5), (3, 4), (3, 6), (4, 5), (5, 6), (2, 6)),
    "H7": ((1, 3), (3, 5), (2, 4), (4, 6)),
    "H8": ((1, 3), (3, 5), (2, 4), (4, 6), (1, 2)),
    "H9": ((1, 3), (3, 5), (2, 4), (4, 6), (1, 2), (5, 6)),
    "H10": ((1, 2), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)),
}

_UTILITY_EDGES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "CLAW": (4, ((1, 2), (1, 3), (1, 4))),
    "P3": (3, ((1, 2), (2, 3))),
    "P4": (4, ((1, 2), (2, 3), (3, 4))),
    "P6": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    "P7": (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))),
    "C6": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1))),
    "TWO_P3": (6, ((1, 2), (2, 3), (4, 5), (5, 6))),
    "TWO_P4": (8, ((1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8))),
}

FORBIDDEN_NAMES = tuple(f"H{k}" for k in range(1, 11))


@cache
def catalog() -> tuple[Pattern, ...]:
    """All named patterns; the forbidden ten come first, in order."""
    tables = {name: (6, edges) for name, edges in _H_EDGES.items()} | _UTILITY_EDGES
    graphs = {
        name: build_graph(order, [(u - 1, v - 1) for u, v in edges])
        for name, (order, edges) in tables.items()
    }
    # the catalog identities the class-restricted criteria rely on
    for a, b in (("H7", "TWO_P3"), ("H8", "P6"), ("H9", "C6")):
        if certificate(graphs[a].adj) != certificate(graphs[b].adj):
            raise GraphError(f"catalog graph {a} is not isomorphic to {b}")
    return tuple(Pattern(name, g) for name, g in graphs.items())


@cache
def forbidden_catalog() -> tuple[Pattern, ...]:
    return tuple(p for p in catalog() if p.name in FORBIDDEN_NAMES)


def pattern_by_name(name: str) -> Pattern:
    """Look up a catalog pattern by its exact name."""
    for p in catalog():
        if p.name == name:
            return p
    raise KeyError(f"unknown pattern {name!r}")


class _Step(NamedTuple):
    """One step of a search: map ``vertex`` to a host vertex of degree at least
    ``degree`` that is adjacent to the images of ``placed`` and, in induced
    mode, not adjacent to the images of ``apart``."""

    vertex: int
    degree: int
    placed: tuple[int, ...]
    apart: tuple[int, ...]


@cache
def _plan(pattern: Pattern, induced: bool, witness: bool) -> tuple[_Step, ...]:
    """The order in which a search maps the pattern's vertices, built once.

    The witness order is 0..p-1, so the first embedding found is the
    lexicographically smallest.  The decision order maps next the vertex with
    the most mapped neighbours, then the higher degree, then the lower index
    (greatest constraint first: Cordella et al., VF2, IEEE TPAMI 2004;
    Bonnici et al., RI, BMC Bioinformatics 2013).
    """
    padj = pattern.graph.adj
    steps: list[_Step] = []
    mapped = 0
    rest = list(range(len(padj)))
    while rest:
        q = rest[0] if witness else min(
            rest, key=lambda v: (-(padj[v] & mapped).bit_count(), -padj[v].bit_count(), v))
        rest.remove(q)
        before = [s.vertex for s in steps]
        steps.append(_Step(q, padj[q].bit_count(),
                           tuple(r for r in before if padj[q] >> r & 1),
                           tuple(r for r in before if induced and not padj[q] >> r & 1)))
        mapped |= 1 << q
    return tuple(steps)


def _search(host: Graph, plan: tuple[_Step, ...]) -> tuple[int, ...] | None:
    p = len(plan)
    if p > host.n:
        return None
    hadj = host.adj
    # every embedding maps q to a host vertex of at least q's degree;
    # atleast[d] holds the host vertices of degree d or more, for the pattern
    # degrees d < p
    atleast = [0] * p
    for v, row in enumerate(hadj):
        atleast[min(row.bit_count(), p - 1)] |= 1 << v
    for d in range(p - 2, -1, -1):
        atleast[d] |= atleast[d + 1]
    mapping = [0] * p

    def extend(i: int, used: int) -> bool:
        if i == p:
            return True
        q, degree, placed, apart = plan[i]
        cand = atleast[degree] & ~used
        for r in placed:
            cand &= hadj[mapping[r]]
        for r in apart:
            cand &= ~hadj[mapping[r]]
        while cand:
            b = cand & -cand
            cand ^= b
            mapping[q] = b.bit_length() - 1
            if extend(i + 1, used | b):
                return True
        return False

    return tuple(mapping) if extend(0, 0) else None


def _embeds(G: Graph, P: Pattern, induced: bool) -> bool:
    return _search(G, _plan(P, induced, False)) is not None


def find_induced(G: Graph, P: Pattern) -> Embedding | None:
    """The lexicographically smallest induced embedding of P in G, or None."""
    found = _search(G, _plan(P, True, True))
    return Embedding(found) if found is not None else None


def contains_subgraph(G: Graph, P: Pattern) -> bool:
    """True iff a not-necessarily-induced embedding of P exists in G."""
    return _embeds(G, P, False)


def forbidden_free(G: Graph) -> tuple[bool, tuple[Pattern, Embedding] | None]:
    """Check the ten-pattern family in order; return the first witness if any.

    Each pattern is decided in constraint-first order; only for the first one
    that embeds is the index-order search rerun, so the witness is still the
    lexicographically smallest embedding of that pattern.
    """
    for pat in forbidden_catalog():
        if _embeds(G, pat, True):
            return False, (pat, find_induced(G, pat))
    return True, None


def is_claw_free(G: Graph) -> bool:
    return not _embeds(G, pattern_by_name("CLAW"), True)


def is_pattern_free(G: Graph, names: tuple[str, ...]) -> bool:
    return not any(_embeds(G, pattern_by_name(n), True) for n in names)
