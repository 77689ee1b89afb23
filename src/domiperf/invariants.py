"""Exact domination and independence solvers with optimal witness sets.

An independent set dominates iff it is maximal, so alpha, alpha_c and i come
from one memoized search over the maximal independent sets of vertex bitmasks
(after Tarjan & Trojanowski, 1977), and one walk over the vertices turns its
optimum into the lexicographically smallest optimal set.  ``parameter_profile``
runs alpha, its witness walk and the per-vertex alpha_c values on one memo.

Minimum dominating sets come from an increasing-cardinality search with
coverage pruning that visits candidate sets in lexicographic order, so the
reported witness is the lexicographically smallest optimal set.  The search
starts at the larger of ceil(n / (Delta + 1)) and the size of a greedy
2-packing (vertices pairwise at distance >= 3 need distinct dominators).

The ``brute_*`` functions are deliberately naive 2^n enumerations kept as
independent oracles for the solvers; do not "optimize" them.
"""

from __future__ import annotations

from dataclasses import dataclass

from domiperf.graph import Graph, GraphError, bits


@dataclass(frozen=True)
class ParameterProfile:
    """The invariant quadruple of one graph plus optimal witnesses."""

    gamma: int
    ind_dom: int
    common_ind: int
    ind: int
    witness_gamma: frozenset[int]
    witness_ind_dom: frozenset[int]
    witness_ind: frozenset[int]
    per_vertex_ind: tuple[int, ...]


# -- maximal independent sets: alpha, alpha_c and i --------------------------

def _mis(adj: tuple[int, ...], closed: list[int], mask: int, memo: dict, largest: bool) -> int:
    """Size of a largest (``largest``) or smallest maximal independent set of G[mask].

    A disconnected mask is the sum of its components.  Otherwise every
    maximal independent set meets N[u] for a vertex u of least degree, so the
    search branches on the vertex w of N[u] it takes, leaving G[mask - N[w]].
    For the largest, u alone suffices when its degree is at most 1.
    """
    if mask == 0:
        return 0
    cached = memo.get(mask)
    if cached is not None:
        return cached
    # the component of the lowest vertex in mask
    comp = frontier = mask & -mask
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= adj[b.bit_length() - 1]
        frontier = reach & mask & ~comp
        comp |= frontier
    if comp != mask:
        res = _mis(adj, closed, comp, memo, largest)
        res += _mis(adj, closed, mask & ~comp, memo, largest)
        memo[mask] = res
        return res
    u, least = -1, mask.bit_count()
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d < least:
            u, least = v, d
            if d <= 1:
                break
    branch = 1 << u if largest and least <= 1 else closed[u] & mask
    res = 0 if largest else mask.bit_count()
    while branch:
        b = branch & -branch
        branch ^= b
        r = 1 + _mis(adj, closed, mask & ~closed[b.bit_length() - 1], memo, largest)
        if (r > res) if largest else (r < res):
            res = r
    memo[mask] = res
    return res


def _lex_mis(G: Graph, closed: list[int], memo: dict, largest: bool) -> tuple[int, frozenset[int]]:
    """The optimum of ``_mis`` on G and its lexicographically smallest witness.

    Walks the vertices in order and keeps v iff some optimal maximal
    independent set extends the chosen ones by v.
    """
    total = _mis(G.adj, closed, G.vertex_mask, memo, largest)
    chosen = []
    allowed = G.vertex_mask
    for v in range(G.n):
        if not allowed >> v & 1:
            continue
        rest = allowed & ~closed[v]
        if len(chosen) + 1 + _mis(G.adj, closed, rest, memo, largest) == total:
            chosen.append(v)
            allowed = rest
    return total, frozenset(chosen)


def _alpha_through_each_vertex(G: Graph, closed: list[int], memo: dict) -> tuple[int, ...]:
    """Largest independent set containing v, for every vertex v: 1 + alpha(G - N[v])."""
    full = G.vertex_mask
    return tuple(1 + _mis(G.adj, closed, full & ~closed[v], memo, True) for v in range(G.n))


def independence_number(G: Graph) -> tuple[int, frozenset[int]]:
    """alpha(G) with the lexicographically smallest maximum independent set."""
    return _lex_mis(G, G.closed_masks(), {}, True)


def common_independence_number(G: Graph) -> int:
    """Minimum over vertices of the largest independent set containing each."""
    if G.n == 0:
        raise GraphError("common independence number undefined on the empty graph")
    return min(_alpha_through_each_vertex(G, G.closed_masks(), {}))


def independent_domination_number(G: Graph) -> tuple[int, frozenset[int]]:
    """i(G) with the lexicographically smallest minimum maximal independent set."""
    if G.n == 0:
        raise GraphError("domination undefined on the empty graph")
    return _lex_mis(G, G.closed_masks(), {}, False)


# -- minimum dominating set -------------------------------------------------

def _lex_dominating(G: Graph, k: int) -> list[int] | None:
    """Lexicographically first dominating set of size at most k."""
    n = G.n
    full = G.vertex_mask
    closed = G.closed_masks()
    # suffix coverage: union and max cover size over vertices >= i
    suffix_cov = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_cov[i] = suffix_cov[i + 1] | closed[i]
        suffix_max[i] = max(suffix_max[i + 1], closed[i].bit_count())

    chosen: list[int] = []

    def rec(idx: int, dom: int) -> bool:
        if dom == full:
            return True
        slots = k - len(chosen)
        if slots == 0 or idx == n:
            return False
        need = full & ~dom
        if need & ~suffix_cov[idx]:
            return False
        if slots * suffix_max[idx] < need.bit_count():
            return False
        for v in range(idx, n):
            chosen.append(v)
            if rec(v + 1, dom | closed[v]):
                return True
            chosen.pop()
        return False

    return list(chosen) if rec(0, 0) else None


def _packing_bound(G: Graph) -> int:
    """Size of a greedy 2-packing, taken in ascending degree order.

    Vertices pairwise at distance >= 3 have disjoint closed neighborhoods, so
    each needs a dominator of its own: a lower bound on gamma.
    """
    closed = G.closed_masks()
    blocked = 0
    size = 0
    for v in sorted(range(G.n), key=G.degree):
        if not blocked >> v & 1:
            size += 1
            for u in bits(closed[v]):
                blocked |= closed[u]
    return size


def domination_number(G: Graph) -> tuple[int, frozenset[int]]:
    """gamma(G) with the lexicographically smallest minimum dominating set."""
    if G.n == 0:
        raise GraphError("domination undefined on the empty graph")
    maxdeg = max(G.degree(v) for v in range(G.n))
    lb = max(-(-G.n // (maxdeg + 1)), _packing_bound(G))
    # the whole vertex set dominates, so some k <= n succeeds
    for k in range(lb, G.n + 1):
        found = _lex_dominating(G, k)
        if found is not None:
            return len(found), frozenset(found)


# -- profiles ---------------------------------------------------------------

def parameter_profile(G: Graph) -> ParameterProfile:
    """All four invariants with witnesses; the inequality chain is asserted."""
    if G.n == 0:
        raise GraphError("parameter profile undefined on the empty graph")
    gamma, wg = domination_number(G)
    ind_dom, wi = independent_domination_number(G)
    closed = G.closed_masks()
    memo: dict[int, int] = {}
    alpha, wa = _lex_mis(G, closed, memo, True)
    per_vertex = _alpha_through_each_vertex(G, closed, memo)
    common = min(per_vertex)
    if not gamma <= ind_dom <= common <= alpha:
        raise AssertionError(
            f"invariant chain violated: {gamma} <= {ind_dom} <= {common} <= {alpha}"
        )
    return ParameterProfile(gamma, ind_dom, common, alpha, wg, wi, wa, per_vertex)


# -- brute-force oracles ----------------------------------------------------

def _is_independent_mask(G: Graph, mask: int) -> bool:
    return all(G.adj[v] & mask == 0 for v in bits(mask))

def _is_dominating_mask(G: Graph, mask: int) -> bool:
    cov = mask
    for v in bits(mask):
        cov |= G.adj[v]
    return cov == G.vertex_mask


def brute_domination(G: Graph) -> int:
    if G.n == 0:
        raise GraphError("domination undefined on the empty graph")
    return min(
        m.bit_count() for m in range(1 << G.n) if _is_dominating_mask(G, m)
    )


def brute_independent_domination(G: Graph) -> int:
    if G.n == 0:
        raise GraphError("domination undefined on the empty graph")
    return min(
        m.bit_count()
        for m in range(1 << G.n)
        if _is_dominating_mask(G, m) and _is_independent_mask(G, m)
    )


def brute_independence(G: Graph) -> int:
    return max(
        (m.bit_count() for m in range(1 << G.n) if _is_independent_mask(G, m)),
        default=0,
    )


def brute_common_independence(G: Graph) -> int:
    """Direct "greatest r" reading: every vertex lies in an independent set of size >= r."""
    if G.n == 0:
        raise GraphError("common independence number undefined on the empty graph")
    best_with = [0] * G.n
    for m in range(1, 1 << G.n):
        if _is_independent_mask(G, m):
            size = m.bit_count()
            for v in bits(m):
                if size > best_with[v]:
                    best_with[v] = size
    r = 0
    while r + 1 <= G.n and all(b >= r + 1 for b in best_with):
        r += 1
    return r


def verify_witness(G: Graph, profile: ParameterProfile) -> bool:
    """Re-check every witness against its defining predicate and cardinality."""
    return (
        G.is_dominating(profile.witness_gamma)
        and len(profile.witness_gamma) == profile.gamma
        and G.is_dominating(profile.witness_ind_dom)
        and G.is_independent(profile.witness_ind_dom)
        and len(profile.witness_ind_dom) == profile.ind_dom
        and G.is_independent(profile.witness_ind)
        and len(profile.witness_ind) == profile.ind
        and profile.common_ind == min(profile.per_vertex_ind)
    )
