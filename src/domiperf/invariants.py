"""Exact domination and independence solvers with optimal witness sets.

An independent set dominates iff it is maximal, so alpha, alpha_c and i come
from one memoized search over the maximal independent sets of vertex bitmasks
(after Tarjan & Trojanowski, 1977), and one walk over the vertices turns its
optimum into the lexicographically smallest optimal set.  Both searches take
an isolated vertex, and the search for the largest a vertex of degree 1,
before they look for components.
``parameter_profile`` runs alpha, its witness walk and the per-vertex alpha_c
values on one memo.

gamma is a set cover: the fewest vertices whose closed neighbourhoods cover
V.  One memoized search on (vertices still to cover, candidates allowed)
drops dominated candidates and branches on the vertex with the fewest
candidates (after Fomin, Grandoni & Kratsch, 2009, and van Rooij &
Bodlaender, 2011); a walk like the one for alpha turns its optimum into the
lexicographically smallest minimum dominating set.

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


# -- bitmasks ---------------------------------------------------------------

def _union(rows: tuple[int, ...] | list[int], mask: int) -> int:
    """Union of ``rows[v]`` over the vertices v in ``mask``."""
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= rows[b.bit_length() - 1]
    return out


# -- maximal independent sets: alpha, alpha_c and i --------------------------

def _mis(adj: tuple[int, ...], closed: list[int], mask: int, memo: dict, largest: bool) -> int:
    """Size of a largest (``largest``) or smallest maximal independent set of G[mask].

    Each node scans the degrees first.  An isolated vertex lies in every
    maximal independent set, and for the largest a vertex u of degree 1 lies
    in some maximum one, so such a u is taken at once, with no component
    walk.  Otherwise a disconnected mask is the sum of its components, and a
    connected one takes or deletes a vertex w of maximum degree (largest) or,
    as every maximal independent set meets N[u] for u of least degree,
    branches on the vertex of N[u] it takes (smallest).
    """
    if mask == 0:
        return 0
    cached = memo.get(mask)
    if cached is not None:
        return cached
    u, least, w, most = -1, mask.bit_count(), -1, -1
    m = mask
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d > most:
            w, most = v, d
        if d < least:
            u, least = v, d
            if d <= 1:
                break
    if least == 0 or largest and least <= 1:
        res = 1 + _mis(adj, closed, mask & ~closed[u], memo, largest)
        memo[mask] = res
        return res
    # the component of the lowest vertex in mask
    comp = frontier = mask & -mask
    while frontier:
        frontier = _union(adj, frontier) & mask & ~comp
        comp |= frontier
    if comp != mask:
        res = _mis(adj, closed, comp, memo, largest)
        res += _mis(adj, closed, mask & ~comp, memo, largest)
    elif not largest:
        res = mask.bit_count()
        branch = closed[u] & mask
        while branch:
            b = branch & -branch
            branch ^= b
            res = min(res, 1 + _mis(adj, closed, mask & ~closed[b.bit_length() - 1], memo, False))
    else:
        res = max(1 + _mis(adj, closed, mask & ~closed[w], memo, True),
                  _mis(adj, closed, mask & ~(1 << w), memo, True))
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


# -- minimum dominating set: set cover --------------------------------------

def _cover(closed: list[int], need: int, cands: int, memo: dict) -> int | float:
    """Fewest vertices of ``cands`` whose closed neighbourhoods cover ``need``.

    Infinite when some vertex of ``need`` has no neighbour in ``cands``: the
    search branches on it and tries nothing.  Only candidates meeting ``need``
    are kept, and of two whose closed neighbourhoods meet ``need`` in nested
    sets only the larger (on a tie the lower index) is kept.  The search then
    branches on the candidates of the first vertex u with the fewest, each
    branch excluding those tried before.
    """
    if need == 0:
        return 0
    key = (need, cands)
    cached = memo.get(key)
    if cached is not None:
        return cached
    useful = kept = _union(closed, need) & cands
    m = useful
    while m:
        b = m & -m
        m ^= b
        part = closed[b.bit_length() - 1] & need
        # a candidate covering ``part`` covers its lowest vertex
        rivals = closed[(part & -part).bit_length() - 1] & useful
        while rivals:
            r = rivals & -rivals
            rivals ^= r
            other = closed[r.bit_length() - 1] & need
            if part & other == part and (part != other or r < b):
                kept ^= b
                break
    u, least = -1, kept.bit_count() + 1
    m = need
    while m:
        b = m & -m
        m ^= b
        d = (closed[b.bit_length() - 1] & kept).bit_count()
        if d < least:
            u, least = b.bit_length() - 1, d
    res = float("inf")
    for c in bits(closed[u] & kept):
        kept ^= 1 << c
        res = min(res, 1 + _cover(closed, need & ~closed[c], kept, memo))
    memo[key] = res
    return res


def domination_number(G: Graph) -> tuple[int, frozenset[int]]:
    """gamma(G) with the lexicographically smallest minimum dominating set.

    Walks the vertices in order and keeps v iff the chosen ones plus v can
    still reach gamma with vertices above v.
    """
    if G.n == 0:
        raise GraphError("domination undefined on the empty graph")
    closed = G.closed_masks()
    memo: dict[tuple[int, int], int | float] = {}
    full = G.vertex_mask
    total = _cover(closed, full, full, memo)
    chosen = []
    need = full
    for v in range(G.n):
        rest = need & ~closed[v]
        if len(chosen) + 1 + _cover(closed, rest, full >> v + 1 << v + 1, memo) == total:
            chosen.append(v)
            need = rest
    return total, frozenset(chosen)


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
