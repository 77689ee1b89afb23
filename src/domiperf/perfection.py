"""Common-domination perfection decided three independent ways.

The definition-based and gamma=2-based checks sweep every induced subgraph
using per-graph bitmask tables (closed-neighborhood unions, an independence
DP over submasks, and a full domination-number table).  The theorem-based
check only runs the forbidden-pattern search, so the two routes stay
independent and their agreement is itself a verifiable claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

from domiperf.canon import canonical_graph
from domiperf.graph import Graph, GraphError, mask_of, set_of
from domiperf.patterns import Embedding, Pattern, forbidden_free
from domiperf.universe import MAX_ENUM_ORDER, enumerate_graphs

MAX_SWEEP_ORDER = 16


@dataclass(frozen=True)
class SubsetWitness:
    """An induced subgraph with a domination / common-independence gap."""

    vertices: frozenset[int]
    gamma: int
    common_ind: int


@dataclass(frozen=True)
class PerfectionVerdict:
    perfect: bool
    method: str  # "definition" | "gamma2-definition" | "theorem"
    witness: SubsetWitness | tuple[Pattern, Embedding] | None = None


class SubgraphTables:
    """Bitmask tables for gamma and alpha_c over every induced subgraph.

    gamma comes from exhaustive minimization over dominating subsets (the
    3^n subset-of-subset sweep), alpha from the standard include/exclude DP
    on the lowest vertex.  Cost is exponential; capped at ``MAX_SWEEP_ORDER``.
    """

    def __init__(self, G: Graph):
        if G.n > MAX_SWEEP_ORDER:
            raise GraphError(f"order {G.n} exceeds the subset-sweep cap {MAX_SWEEP_ORDER}")
        self.graph = G
        n = G.n
        size = 1 << n
        closed = G.closed_masks()
        self.closed = closed

        ncl = [0] * size
        for m in range(1, size):
            lb = m & -m
            ncl[m] = ncl[m ^ lb] | closed[lb.bit_length() - 1]

        alpha = [0] * size
        for m in range(1, size):
            lb = m & -m
            v = lb.bit_length() - 1
            without = alpha[m ^ lb]
            with_v = 1 + alpha[m & ~closed[v]]
            alpha[m] = with_v if with_v > without else without
        self.alpha = alpha

        gamma = [0] * size
        for s in range(1, size):
            best = s.bit_count()
            d = (s - 1) & s
            while d:
                if not s & ~ncl[d]:
                    c = d.bit_count()
                    if c < best:
                        best = c
                d = (d - 1) & s
            gamma[s] = best
        self.gamma = gamma

    def common_ind(self, s: int) -> int:
        """alpha_c of the induced subgraph on mask ``s`` (nonempty)."""
        alpha = self.alpha
        closed = self.closed
        best = self.graph.n + 1
        m = s
        while m:
            lb = m & -m
            m ^= lb
            v = lb.bit_length() - 1
            cur = 1 + alpha[s & ~closed[v]]
            if cur < best:
                best = cur
        return best


@cache
def _ascending_subsets(n: int) -> tuple[int, ...]:
    """Nonempty subset masks by increasing size, lexicographic within a size."""
    return tuple(mask_of(c) for k in range(1, n + 1) for c in combinations(range(n), k))


def _gap(t: SubgraphTables, s: int) -> bool:
    return t.gamma[s] != t.common_ind(s)


def _gamma2_gap(t: SubgraphTables, s: int) -> bool:
    return t.gamma[s] == 2 and t.common_ind(s) == 3


def _scan(
    t: SubgraphTables, method: str, hit: Callable[[SubgraphTables, int], bool]
) -> PerfectionVerdict:
    """Imperfect iff ``hit`` holds on some subset; the witness is the first in ascending order."""
    s = next((s for s in _ascending_subsets(t.graph.n) if hit(t, s)), None)
    if s is None:
        return PerfectionVerdict(True, method)
    return PerfectionVerdict(False, method, SubsetWitness(set_of(s), t.gamma[s], t.common_ind(s)))


def perfect_by_definition(G: Graph, tables: SubgraphTables | None = None) -> PerfectionVerdict:
    """Check gamma == alpha_c on every nonempty induced subgraph directly."""
    return _scan(tables or SubgraphTables(G), "definition", _gap)


def perfect_by_gamma2(G: Graph, tables: SubgraphTables | None = None) -> PerfectionVerdict:
    """Only induced subgraphs with gamma = 2 are tested; failure is alpha_c = 3."""
    return _scan(tables or SubgraphTables(G), "gamma2-definition", _gamma2_gap)


def perfect_by_theorem(G: Graph) -> PerfectionVerdict:
    """Forbidden-pattern route: perfect iff none of the ten patterns embeds."""
    free, witness = forbidden_free(G)
    return PerfectionVerdict(free, "theorem", witness)


def is_minimal_imperfect(G: Graph) -> bool:
    """gamma < alpha_c on G itself, equality on every proper induced subgraph.

    As gamma <= alpha_c always holds, that is: the definition scan's first gap
    is the whole vertex set.  The gap on G itself is tested first, as it is cheap.
    K0 has no nonempty induced subgraph, so it is perfect, not minimal imperfect.
    """
    t = SubgraphTables(G)
    return G.n > 0 and _gap(t, G.vertex_mask) and (
        len(_scan(t, "definition", _gap).witness.vertices) == G.n
    )


def search_minimal_imperfect(order: int) -> list[Graph]:
    """All non-isomorphic minimal imperfect graphs of the given order, canonically labeled."""
    if order > MAX_ENUM_ORDER:
        raise GraphError(f"minimal-imperfect search capped at order {MAX_ENUM_ORDER}")
    return [canonical_graph(G) for G in enumerate_graphs(order) if is_minimal_imperfect(G)]
