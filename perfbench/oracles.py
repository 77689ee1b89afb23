"""Correctness oracles that share no code with ``domiperf``.

Graphs are ``(n, edges)`` pairs with 0-based edges, as in ``gen``.  The
brute-force solvers enumerate subsets in lexicographic order, so the first
optimal set they meet is the lexicographically smallest one, which is the
witness the program promises.  Records from the program use 1-based labels.
"""

from __future__ import annotations

from itertools import combinations

# The ten minimal imperfect graphs, 1-based, as drawn in the paper.
H_EDGES: dict[str, tuple[tuple[int, int], ...]] = {
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

# OEIS A000088 (graphs) and A000055 (trees) by order.
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551}

# Graphs each report of ``verify --order 7 --suite all`` checks.  The theorem
# and chain suites check every graph to order 7.  The corollary suite checks
# the trees to order 12, then the chordal (A048192), claw-free (A022562) and
# connected block graphs (A035053) to order 7, every line-graph host to
# order 7 and every middle-graph host to order 5.
VERIFY_GRAPHS = sum(GRAPH_COUNTS[k] for k in range(1, 8))
COROLLARY_GRAPHS = (
    sum(TREE_COUNTS.values())
    + sum((1, 2, 4, 10, 27, 94, 393))
    + sum((1, 2, 4, 10, 26, 85, 302))
    + sum((1, 1, 2, 4, 9, 22, 59))
    + VERIFY_GRAPHS
    + sum(GRAPH_COUNTS[k] for k in range(1, 6))
)


def h_graph(name: str) -> tuple[int, list[tuple[int, int]]]:
    return 6, [(u - 1, v - 1) for u, v in H_EDGES[name]]


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def is_independent(adj: list[int], vertices) -> bool:
    m = _mask(vertices)
    return all(not adj[v] & m for v in vertices)


def is_dominating(adj: list[int], vertices) -> bool:
    covered = _mask(vertices)
    for v in vertices:
        covered |= adj[v]
    return covered == (1 << len(adj)) - 1


def _independent_sets(adj: list[int]) -> list[int]:
    """Every independent set (including the empty one) as a bitmask."""
    n = len(adj)
    out = []

    def grow(mask: int, allowed: int) -> None:
        out.append(mask)
        while allowed:
            low = allowed & -allowed
            v = low.bit_length() - 1
            allowed ^= low
            grow(mask | low, allowed & ~adj[v])

    grow(0, (1 << n) - 1)
    return out


def _members(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _covers(closed: list[int], vertices, full: int) -> bool:
    cov = 0
    for v in vertices:
        cov |= closed[v]
    return cov == full


def brute_profile(n: int, edges) -> dict:
    """gamma, i, alpha, alpha_c and lexicographically first optimal witnesses.

    Witnesses are sorted 0-based vertex tuples.  Requires n >= 1.
    """
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    closed = [adj[v] | 1 << v for v in range(n)]
    gamma_set = next(combo for k in range(1, n + 1) for combo in combinations(range(n), k)
                     if _covers(closed, combo, full))
    ind_sets = [_members(m) for m in _independent_sets(adj)]
    alpha = max(len(s) for s in ind_sets)
    alpha_set = min(s for s in ind_sets if len(s) == alpha)
    dominating = [s for s in ind_sets if _covers(closed, s, full)]
    ind_dom = min(len(s) for s in dominating)
    ind_dom_set = min(s for s in dominating if len(s) == ind_dom)
    best_with = [0] * n
    for s in ind_sets:
        for v in s:
            best_with[v] = max(best_with[v], len(s))
    return {
        "gamma": len(gamma_set),
        "i": ind_dom,
        "alpha": alpha,
        "alpha_c": min(best_with),
        "witness_gamma": gamma_set,
        "witness_i": ind_dom_set,
        "witness_alpha": alpha_set,
    }


def gamma_and_alpha_c(n: int, edges) -> tuple[int, int]:
    p = brute_profile(n, edges)
    return p["gamma"], p["alpha_c"]


def induced(n: int, edges, vertices) -> tuple[int, list[tuple[int, int]]]:
    """Induced subgraph on ``vertices``, relabeled 0.. in ascending order."""
    index = {v: k for k, v in enumerate(sorted(vertices))}
    return len(index), [(index[u], index[v]) for u, v in edges if u in index and v in index]


def embedding_induces(n: int, edges, pattern: str, mapping_1based) -> bool:
    """True iff ``mapping_1based[p]`` (host vertex of pattern vertex p+1) induces H."""
    mapping = [v - 1 for v in mapping_1based]
    if len(mapping) != 6 or len(set(mapping)) != 6 or not all(0 <= v < n for v in mapping):
        return False
    host = {(min(u, v), max(u, v)) for u, v in edges}
    want = {(min(u, v), max(u, v)) for u, v in H_EDGES[pattern]}
    for p, q in combinations(range(1, 7), 2):
        a, b = mapping[p - 1], mapping[q - 1]
        if ((min(a, b), max(a, b)) in host) != ((p, q) in want):
            return False
    return True


def isomorphic(n: int, edges_a, edges_b) -> bool:
    """Isomorphism of two small graphs on n vertices, by backtracking."""
    adj_a, adj_b = adjacency(n, edges_a), adjacency(n, edges_b)
    if sorted(m.bit_count() for m in adj_a) != sorted(m.bit_count() for m in adj_b):
        return False
    image: list[int] = []

    def extend(p: int, used: int) -> bool:
        if p == n:
            return True
        for q in range(n):
            if used >> q & 1 or adj_a[p].bit_count() != adj_b[q].bit_count():
                continue
            if all((adj_a[p] >> r & 1) == (adj_b[q] >> image[r] & 1) for r in range(p)):
                image.append(q)
                if extend(p + 1, used | 1 << q):
                    return True
                image.pop()
        return False

    return extend(0, 0)


# -- record checks; each returns a list of failure messages -----------------

def check_compute_record(n: int, edges, record: dict) -> list[str]:
    want = brute_profile(n, edges)
    errors = []
    for key in ("gamma", "i", "alpha", "alpha_c"):
        if record.get(key) != want[key]:
            errors.append(f"{key}={record.get(key)} expected {want[key]}")
    for key in ("witness_gamma", "witness_i", "witness_alpha"):
        expected = [v + 1 for v in want[key]]
        if record.get(key) != expected:
            errors.append(f"{key}={record.get(key)} expected {expected}")
    if record.get("n") != n or record.get("m") != len(edges):
        errors.append("order or size differs from the input")
    return errors


def check_verdict_witness(n: int, edges, record: dict) -> list[str]:
    """Check the witness a ``classify`` record gives for an imperfect verdict."""
    witness = record.get("witness")
    if record.get("verdict") == "perfect":
        return [] if witness is None else ["perfect verdict carries a witness"]
    if not isinstance(witness, dict):
        return ["imperfect verdict without a witness"]
    if record.get("method") == "theorem":
        # The CLI prints the embedding's vertex set in ascending order, not
        # the mapping, so the check is that those vertices induce a copy of H.
        name = witness.get("pattern")
        if name not in H_EDGES:
            return [f"unknown pattern {name!r}"]
        vertices = [v - 1 for v in witness.get("embedding", [])]
        if len(set(vertices)) != 6 or not all(0 <= v < n for v in vertices):
            return [f"embedding {witness.get('embedding')} is not six vertices of the graph"]
        if not isomorphic(6, induced(n, edges, vertices)[1], h_graph(name)[1]):
            return [f"embedding does not induce {name}"]
        return []
    vertices = [v - 1 for v in witness.get("vertices", [])]
    if not vertices or not all(0 <= v < n for v in vertices):
        return ["witness vertices outside the graph"]
    gamma, alpha_c = gamma_and_alpha_c(*induced(n, edges, vertices))
    errors = []
    if (witness.get("gamma"), witness.get("alpha_c")) != (gamma, alpha_c):
        errors.append(f"witness reports {witness.get('gamma')}/{witness.get('alpha_c')}, "
                      f"subgraph has {gamma}/{alpha_c}")
    if gamma == alpha_c:
        errors.append("witness subgraph is not a gap")
    if record.get("method") == "gamma2-definition" and (gamma, alpha_c) != (2, 3):
        errors.append("gamma2 witness is not gamma=2, alpha_c=3")
    return errors


def sparse_closed_form(family: str, n: int) -> dict | None:
    """gamma, i, alpha, alpha_c of C_n and P_n; None for other families."""
    third = -(-n // 3)
    if family == "cycle":
        return {"gamma": third, "i": third, "alpha": n // 2, "alpha_c": n // 2}
    if family == "path":
        return {"gamma": third, "i": third, "alpha": -(-n // 2), "alpha_c": n // 2}
    return None


def check_sparse_result(family: str, n: int, edges, values: dict, witnesses: dict,
                        theorem: tuple[bool, str | None, list[int] | None]) -> list[str]:
    """Closed forms, witness validity and the chain for one sparse graph.

    ``values``: gamma, i, alpha, alpha_c.  ``witnesses``: 0-based vertex
    lists for gamma, i, alpha.  ``theorem``: (perfect, pattern, 1-based
    embedding) from the forbidden-pattern route.
    """
    adj = adjacency(n, edges)
    errors = []
    want = sparse_closed_form(family, n)
    if want is not None and values != want:
        errors.append(f"{family} {n}: {values} expected {want}")
    wg, wi, wa = witnesses["gamma"], witnesses["i"], witnesses["alpha"]
    if len(wg) != values["gamma"] or not is_dominating(adj, wg):
        errors.append("gamma witness is not a dominating set of size gamma")
    if len(wi) != values["i"] or not (is_dominating(adj, wi) and is_independent(adj, wi)):
        errors.append("i witness is not an independent dominating set of size i")
    if len(wa) != values["alpha"] or not is_independent(adj, wa):
        errors.append("alpha witness is not an independent set of size alpha")
    if not values["gamma"] <= values["i"] <= values["alpha_c"] <= values["alpha"]:
        errors.append(f"chain gamma <= i <= alpha_c <= alpha fails: {values}")
    perfect, pattern, embedding = theorem
    if family in ("cycle", "path") and perfect:
        # C_n (n >= 7) and P_n (n >= 6) contain an induced P6, which is H8.
        errors.append(f"{family} {n} reported perfect")
    if not perfect and (pattern not in H_EDGES
                        or not embedding_induces(n, edges, pattern, embedding)):
        errors.append("theorem witness does not induce its pattern")
    return errors
