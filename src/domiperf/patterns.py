"""The forbidden-graph catalog and the induced/non-induced embedding search.

The ten minimal imperfect graphs are stored with the 1-based labels of their
published drawings.  Utility patterns (claw, paths, a 6-cycle, disjoint path
pairs) share the same search engine so the class-restricted criteria reuse it.

The search maps pattern vertices one at a time, following a step plan built
per pattern, mode and order, and compiled into the one cache, ``_kernel``.  A
witness comes from the index order, a yes/no answer from the constraint-first
order (next the vertex with the most mapped neighbours).

Two kinds of caller read the ten.  The theorem route (``perfect_by_theorem``,
so ``classify --method theorem`` and the theorem sweep) reports the first H
of the catalog that embeds and its smallest embedding, so ``forbidden_free``
runs ``find_induced`` on each H in catalog order: one search per H, and the
first hit is both verdict and witness.  The corollary sweeps and the tree
corollary compare only the verdict, which no order changes, so they call
``is_pattern_free(G, DECISION_ORDER)``: constraint-first plans, and it tries
first the three members with no induced claw, the only ones that can embed in
a line or middle graph.

Every plan breaks the pattern's symmetry (Grochow & Kellis, "Network motif
discovery using subgraph enumeration and symmetry-breaking", RECOMB 2007).
An embedding composed with an automorphism of the pattern is again an
embedding, so the plan asks a vertex's image to exceed the images of some
earlier vertices, chosen so that the first embedding of each such family in
plan order passes.  In index order that is the lexicographically smallest,
so the witness search still finds it first.  The orbits are those of the
generators ``canon`` finds (:func:`~domiperf.canon.orbit_closure`).

A pattern vertex of degree d is mapped only into its degree band of the
host: degree at least d, and in induced mode at most d + n - p, since an
induced image has exactly d neighbours in the image and the other n - p host
vertices lie outside it (Ullmann's candidate refinement, J. ACM 1976).  The
band drops only vertices that no embedding uses, so every plan finds what it
found without it, the smallest witness included.  Each (host, p, mode) gets
its bands once, for all the patterns searched in that host.

Each plan runs as a kernel compiled on its first search, never at import
(the nested-loop schedules of AutoMine: Mawhirter & Wu, SOSP 2019): one
``while`` loop per step, the images and the host vertices used so far held
in locals, and each step's candidates one bit-mask expression.  It takes the
lowest candidate first, as a backtracking search would, so it returns the
same first mapping.  CPython nests at most 20 blocks in one function, so a
pattern has at most ``MAX_PATTERN_ORDER`` = 20 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple

from domiperf.canon import canonical_labeling, orbit_closure
from domiperf.graph import Graph, GraphError, bits, build_graph


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
# The ten in the order a verdict-only decision tries them.  H8, H9 and H7
# (P6, C6 and 2P3) have no induced claw, so they alone can embed in a line or
# middle graph; of the 830 imperfect line graphs of hosts of order <= 7, P6
# embeds in 734, C6 in 700 and 2P3 in none.
DECISION_ORDER = ("H8", "H9", "H7", "H1", "H2", "H3", "H4", "H5", "H6", "H10")
# The largest pattern order a search takes.  Its kernel nests one loop per
# pattern vertex, and CPython compiles at most 20 statically nested blocks in
# one function.  The catalog's largest pattern has 8 vertices.
MAX_PATTERN_ORDER = 20


@cache
def catalog() -> tuple[Pattern, ...]:
    """All named patterns; the forbidden ten come first, in order."""
    tables = {name: (6, edges) for name, edges in _H_EDGES.items()} | _UTILITY_EDGES
    return tuple(Pattern(name, build_graph(order, [(u - 1, v - 1) for u, v in edges]))
                 for name, (order, edges) in tables.items())


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
    """One step of a search: map ``vertex``, of degree ``degree``, to a host
    vertex of its degree band that is adjacent to the images of ``placed``, in
    induced mode not adjacent to the images of ``apart``, and greater than the
    image of ``above`` (no bound if it is -1)."""

    vertex: int
    degree: int
    placed: tuple[int, ...]
    apart: tuple[int, ...]
    above: int


def _plan(pattern: Pattern, induced: bool, witness: bool) -> tuple[_Step, ...]:
    """The order in which a search maps the pattern's vertices.

    The decision order maps next the vertex with the most mapped neighbours,
    then the higher degree, then the lower index (greatest constraint first:
    Cordella et al., VF2, IEEE TPAMI 2004; Bonnici et al., RI, BMC
    Bioinformatics 2013).  The witness order is 0..p-1.

    Both orders break symmetry (Grochow & Kellis): each vertex r in turn asks
    the other vertices of its orbit, under the found generators that fix
    every vertex before r, to take greater images than r.  Those come after
    r.  These groups descend and each fixes the vertices before its r, so of
    embeddings that differ by an automorphism the least in plan order passes:
    in index order, the lexicographically smallest.  A vertex bounded by r
    and by a later r' has r' in r's orbit, so its bound from r' implies the
    one from r: each step keeps its last bound.  Generators that miss part
    of a stabilizer only drop bounds.
    """
    padj = pattern.graph.adj
    if len(padj) > MAX_PATTERN_ORDER:
        raise GraphError(
            f"pattern order {len(padj)} exceeds MAX_PATTERN_ORDER = {MAX_PATTERN_ORDER}")
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
    generators = canonical_labeling(padj)[1]
    for r in order:
        for q in bits(orbit_closure(1 << r, generators) & ~(1 << r)):
            above[q] = r
        generators = [g for g in generators if g[r] == r]
    steps = []
    for i, q in enumerate(order):
        steps.append(_Step(q, padj[q].bit_count(),
                           tuple(r for r in order[:i] if padj[q] >> r & 1),
                           tuple(r for r in order[:i] if induced and not padj[q] >> r & 1),
                           above.get(q, -1)))
    return tuple(steps)


@lru_cache(maxsize=8)
def _bands(host: Graph, p: int, induced: bool) -> tuple[int, ...]:
    """band[d]: the host vertices an embedding of a p-vertex pattern can give
    a pattern vertex of degree d, for d < p.

    An image keeps the vertex's d neighbours; in induced mode its other
    neighbours lie outside the image, so there are at most n - p of them.
    The patterns searched in one host share the table.
    """
    degrees = [row.bit_count() for row in host.adj]
    slack = host.n - p if induced else host.n
    return tuple(sum(1 << v for v, e in enumerate(degrees) if d <= e <= d + slack)
                 for d in range(p))


@cache
def _kernel(pattern: Pattern, induced: bool,
            witness: bool) -> Callable[..., tuple[int, ...] | None]:
    """The pattern's plan in this mode compiled into nested loops, built on first use.

    ``kernel(hadj, band)`` runs one ``while`` loop per step.  Step i keeps its
    image in the local ``m{q}`` and the host vertices used so far in
    ``u{i}``; its candidates are one expression, ``band[d] & ~u{i-1}``, then
    ``& hadj[m{r}]`` for each placed r, ``& ~hadj[m{r}]`` for each apart r
    and ``& (-2 << m{above})``.  The lowest candidate goes first, so the
    kernel returns the first mapping in plan order, or None.
    """
    plan = _plan(pattern, induced, witness)
    lines = ["def kernel(hadj, band):"]
    for i, (q, degree, placed, apart, above) in enumerate(plan):
        pad = "    " * (i + 1)
        terms = [f"band[{degree}]"] + ([f"~u{i - 1}"] if i else [])
        terms += [f"hadj[m{r}]" for r in placed] + [f"~hadj[m{r}]" for r in apart]
        terms += [f"(-2 << m{above})"] if above >= 0 else []
        lines += [f"{pad}c{i} = {' & '.join(terms)}",
                  f"{pad}while c{i}:",
                  f"{pad}    b = c{i} & -c{i}",
                  f"{pad}    c{i} ^= b",
                  f"{pad}    m{q} = b.bit_length() - 1"]
        if i + 1 < len(plan):
            lines.append(f"{pad}    u{i} = {f'u{i - 1} | ' if i else ''}b")
    images = "".join(f"m{q}, " for q in range(len(plan)))
    lines += [f"{'    ' * (len(plan) + 1)}return ({images})", "    return None"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _search(host: Graph, pattern: Pattern, induced: bool,
            witness: bool = False) -> tuple[int, ...] | None:
    # the kernel first: a pattern over MAX_PATTERN_ORDER raises whatever the host
    kernel = _kernel(pattern, induced, witness)
    p = pattern.graph.n
    if p > host.n:
        return None
    return kernel(host.adj, _bands(host, p, induced))


def find_induced(G: Graph, P: Pattern) -> Embedding | None:
    """The lexicographically smallest induced embedding of P in G, or None."""
    found = _search(G, P, True, True)
    return Embedding(found) if found is not None else None


def contains_subgraph(G: Graph, P: Pattern) -> bool:
    """True iff a not-necessarily-induced embedding of P exists in G."""
    return _search(G, P, False) is not None


def forbidden_free(G: Graph) -> tuple[bool, tuple[Pattern, Embedding] | None]:
    """Check the ten-pattern family in catalog order; return the first witness if any.

    Each pattern gets one search, in index order, whose symmetry conditions
    keep the lexicographically smallest embedding: the first pattern found
    is both the verdict and the witness.
    """
    for pat in forbidden_catalog():
        if (found := find_induced(G, pat)) is not None:
            return False, (pat, found)
    return True, None


def is_claw_free(G: Graph) -> bool:
    return is_pattern_free(G, ("CLAW",))


def is_pattern_free(G: Graph, names: tuple[str, ...]) -> bool:
    return not any(_search(G, pattern_by_name(n), True) is not None for n in names)
