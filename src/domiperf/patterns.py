"""The forbidden-graph catalog and the induced/non-induced embedding search.

The ten minimal imperfect graphs are stored with the 1-based labels of their
published drawings.  Utility patterns (claw, paths, a 6-cycle, disjoint path
pairs) share the same search engine so the class-restricted criteria reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from domiperf.canon import canonical_form
from domiperf.graph import Graph, GraphError, build_graph


@dataclass(frozen=True)
class Pattern:
    """A named catalog graph with its edge list on labels 1..order."""

    name: str
    order: int
    edges: tuple[tuple[int, int], ...]

    @cache
    def graph(self) -> Graph:
        """The pattern on vertices 0..order-1, built once per catalog pattern."""
        return build_graph(self.order, [(u - 1, v - 1) for u, v in self.edges])


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
    pats = [Pattern(name, 6, edges) for name, edges in _H_EDGES.items()]
    pats.extend(Pattern(name, order, edges) for name, (order, edges) in _UTILITY_EDGES.items())
    by_name = {p.name: p for p in pats}
    # the catalog identities the class-restricted criteria rely on
    for a, b in (("H7", "TWO_P3"), ("H8", "P6"), ("H9", "C6")):
        if canonical_form(by_name[a].graph()) != canonical_form(by_name[b].graph()):
            raise GraphError(f"catalog graph {a} is not isomorphic to {b}")
    return tuple(pats)


@cache
def forbidden_catalog() -> tuple[Pattern, ...]:
    return tuple(p for p in catalog() if p.name in FORBIDDEN_NAMES)


def pattern_by_name(name: str) -> Pattern:
    """Look up a catalog pattern by its exact name."""
    for p in catalog():
        if p.name == name:
            return p
    raise KeyError(f"unknown pattern {name!r}")


def _search(host: Graph, pattern: Pattern, induced: bool) -> tuple[int, ...] | None:
    pg = pattern.graph()
    p = pg.n
    if p > host.n:
        return None
    full = host.vertex_mask
    hadj = host.adj
    padj = pg.adj
    pdeg = [pg.degree(v) for v in range(p)]
    mapping = [0] * p

    def extend(q: int, used: int) -> bool:
        if q == p:
            return True
        cand = full & ~used
        for r in range(q):
            if padj[q] >> r & 1:
                cand &= hadj[mapping[r]]
            elif induced:
                cand &= ~hadj[mapping[r]]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            if not induced and host.degree(v) < pdeg[q]:
                continue
            mapping[q] = v
            if extend(q + 1, used | b):
                return True
        return False

    return tuple(mapping) if extend(0, 0) else None


def find_induced(G: Graph, P: Pattern) -> Embedding | None:
    """First induced embedding of P in G (backtracking order), or None."""
    found = _search(G, P, induced=True)
    return Embedding(found) if found is not None else None


def contains_subgraph(G: Graph, P: Pattern) -> bool:
    """True iff a not-necessarily-induced embedding of P exists in G."""
    return _search(G, P, induced=False) is not None


def forbidden_free(G: Graph) -> tuple[bool, tuple[Pattern, Embedding] | None]:
    """Check the ten-pattern family in order; return the first witness if any."""
    if G.n < 6:
        return True, None
    for pat in forbidden_catalog():
        emb = find_induced(G, pat)
        if emb is not None:
            return False, (pat, emb)
    return True, None


def is_claw_free(G: Graph) -> bool:
    return find_induced(G, pattern_by_name("CLAW")) is None


def is_pattern_free(G: Graph, names: tuple[str, ...]) -> bool:
    return all(find_induced(G, pattern_by_name(n)) is None for n in names)
