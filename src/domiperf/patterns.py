"""The forbidden-graph catalog and the induced/non-induced embedding search.

The ten minimal imperfect graphs are stored with the 1-based labels of their
published drawings.  Utility patterns (claw, paths, a 6-cycle, disjoint path
pairs) share the same search engine so the class-restricted criteria reuse it.

The search maps pattern vertices one at a time, following a step plan built
once per pattern, mode and order.  A yes/no answer comes from the
constraint-first order (next the vertex with the most mapped neighbours).  A
witness comes from the index order; ``forbidden_free`` reruns it only for the
first H that embeds.

Every plan breaks the pattern's symmetry (Grochow & Kellis, "Network motif
discovery using subgraph enumeration and symmetry-breaking", RECOMB 2007).
An embedding composed with an automorphism of the pattern is again an
embedding, so the plan asks a vertex's image to exceed the images of some
earlier vertices, chosen so that exactly one embedding of each such family
passes: the first in plan order.  In index order that is the
lexicographically smallest, so the witness search still finds it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from domiperf.canon import certificate, certificate_and_automorphisms
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
    ``degree`` that is adjacent to the images of ``placed``, in induced mode
    not adjacent to the images of ``apart``, and greater than the images of
    ``above``."""

    vertex: int
    degree: int
    placed: tuple[int, ...]
    apart: tuple[int, ...]
    above: tuple[int, ...]


@cache
def _automorphisms(pattern: Pattern) -> tuple[tuple[int, ...], ...]:
    """The group generated by the automorphisms ``canon`` found, ``g[q]`` the image of ``q``.

    A smaller group than the pattern's whole one would only break less
    symmetry; for every catalog pattern it is the whole group.
    """
    generators = certificate_and_automorphisms(pattern.graph.adj)[1]
    group = {tuple(range(pattern.graph.n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for s in generators:
            h = tuple(s[v] for v in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return tuple(sorted(group))


@cache
def _plan(pattern: Pattern, induced: bool, witness: bool = False) -> tuple[_Step, ...]:
    """The order in which a search maps the pattern's vertices, built once.

    The decision order maps next the vertex with the most mapped neighbours,
    then the higher degree, then the lower index (greatest constraint first:
    Cordella et al., VF2, IEEE TPAMI 2004; Bonnici et al., RI, BMC
    Bioinformatics 2013).  The witness order is 0..p-1.

    Both orders break symmetry: each vertex r in turn, with the automorphisms
    that fix every vertex before it, asks the other vertices of its orbit
    under them to take greater images than r (Grochow & Kellis).  Those come
    after r.  A vertex bounded by r and by a later r' has r' in r's orbit, so
    its bound from r' implies the one from r: each step keeps its last bound.
    Of embeddings that differ by an automorphism, the least in plan order
    passes, so in index order the first embedding found is still the
    lexicographically smallest.
    """
    padj = pattern.graph.adj
    order: list[int] = []
    mapped = 0
    rest = list(range(len(padj)))
    while rest:
        q = rest[0] if witness else min(
            rest, key=lambda v: (-(padj[v] & mapped).bit_count(), -padj[v].bit_count(), v))
        rest.remove(q)
        order.append(q)
        mapped |= 1 << q
    above: dict[int, int] = {}
    group = _automorphisms(pattern)
    for r in order:
        for q in {g[r] for g in group} - {r}:
            above[q] = r
        group = tuple(g for g in group if g[r] == r)
    steps = []
    for i, q in enumerate(order):
        steps.append(_Step(q, padj[q].bit_count(),
                           tuple(r for r in order[:i] if padj[q] >> r & 1),
                           tuple(r for r in order[:i] if induced and not padj[q] >> r & 1),
                           (above[q],) if q in above else ()))
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
        q, degree, placed, apart, above = plan[i]
        cand = atleast[degree] & ~used
        for r in placed:
            cand &= hadj[mapping[r]]
        for r in apart:
            cand &= ~hadj[mapping[r]]
        for r in above:
            cand &= -2 << mapping[r]
        while cand:
            b = cand & -cand
            cand ^= b
            mapping[q] = b.bit_length() - 1
            if extend(i + 1, used | b):
                return True
        return False

    return tuple(mapping) if extend(0, 0) else None


def _embeds(G: Graph, P: Pattern, induced: bool) -> bool:
    return _search(G, _plan(P, induced)) is not None


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
    that embeds is the index-order search rerun, whose symmetry conditions
    keep the lexicographically smallest embedding: that is the witness.
    """
    for pat in forbidden_catalog():
        if _embeds(G, pat, True):
            return False, (pat, find_induced(G, pat))
    return True, None


def is_claw_free(G: Graph) -> bool:
    return not _embeds(G, pattern_by_name("CLAW"), True)


def is_pattern_free(G: Graph, names: tuple[str, ...]) -> bool:
    return not any(_embeds(G, pattern_by_name(n), True) for n in names)
