"""Seeded input generators and the benchmark's own graph6 codec.

Graphs here are ``(n, edges)`` pairs with 0-based ``(u, v)`` edges, u < v.
The codec is written independently of ``domiperf.formats`` so that a defect
there cannot change what the benchmark feeds the program.

Every generator takes the seed as an argument and draws from its own
``random.Random``; the same seed always gives byte-identical inputs.  Sizes
are stratified (each order and density band gets the same share of graphs)
so that the seed changes which graphs are drawn, not how much work they are.

Run as a script it is the timed set-up step: it imports the program and
writes one workload's input file.

    python3 perfbench/gen.py batch 7 inputs.g6
"""

from __future__ import annotations

import random
import sys
from itertools import combinations

_OFFSET = 63
MAX_GRAPH6_ORDER = 62

BATCH_GRAPHS = 3000
BATCH_ORDERS = range(6, 11)
BATCH_DENSITY = (0.15, 0.85)

SPARSE_FAMILIES = ("cycle", "path", "tree", "gnp")
# Graphs of each order, and the orders, per family.  Cycles and paths cost
# the same for every seed.  The random families cost about 1.5x more per order
# and are heavy-tailed within an order: at orders 27..30 single graphs take
# seconds, so which few of them a seed drew decided a pass's total.  Many
# graphs of orders 18..23 keep the seed-to-seed spread of a pass small, and
# every order is still over the order-16 subset-sweep cap.
SPARSE_LAYOUT = {
    "cycle": (3, range(20, 31)),
    "path": (3, range(20, 31)),
    "tree": (30, range(18, 24)),
    "gnp": (30, range(18, 24)),
}
SPARSE_GRAPHS = sum(k * len(orders) for k, orders in SPARSE_LAYOUT.values())
SPARSE_MEAN_DEGREE = (2.0, 3.5)


def encode_graph6(n: int, edges) -> str:
    """graph6 token (short form, no header) of a labeled graph."""
    if not 0 <= n <= MAX_GRAPH6_ORDER:
        raise ValueError(f"graph6 short form holds 0..{MAX_GRAPH6_ORDER} vertices, not {n}")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits.extend([0] * (-len(bits) % 6))
    out = [chr(_OFFSET + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = (value << 1) | b
        out.append(chr(_OFFSET + value))
    return "".join(out)


def decode_graph6(token: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of :func:`encode_graph6`; rejects malformed tokens."""
    if not token or any(not 63 <= ord(c) <= 126 for c in token):
        raise ValueError(f"not a graph6 token: {token!r}")
    n = ord(token[0]) - _OFFSET
    if n > MAX_GRAPH6_ORDER:
        raise ValueError(f"graph6 long form is not used here: {token!r}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    body = token[1:]
    if len(body) != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length: {token!r}")
    bits = [(ord(c) - _OFFSET) >> s & 1 for c in body for s in range(5, -1, -1)]
    if any(bits[len(pairs):]):
        raise ValueError(f"graph6 padding bits are set: {token!r}")
    return n, sorted(p for p, b in zip(pairs, bits) if b)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` draws, one from each of ``count`` equal bands of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def _random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def batch_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """3,000 random graphs: orders uniform in 6..10, edge density in 0.15..0.85."""
    rng = random.Random(f"batch:{seed}")
    per_order = BATCH_GRAPHS // len(BATCH_ORDERS)
    graphs = []
    for n in BATCH_ORDERS:
        pairs = n * (n - 1) // 2
        for density in _stratified(rng, per_order, *BATCH_DENSITY):
            graphs.append((n, _random_edges(rng, n, round(density * pairs))))
    rng.shuffle(graphs)
    return graphs


def _prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n >= 2 vertices from a Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return sorted(edges)


def sparse_graphs(seed: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """The sparse graphs of ``SPARSE_LAYOUT`` as ``(family, n, edges)``, shuffled.

    Cycles and paths keep their natural labels (0-1-2-...), as a user would
    build them; trees are uniform labeled trees; ``gnp`` is G(n, c/(n-1)) with
    mean degree c in 2..3.5.
    """
    rng = random.Random(f"sparse:{seed}")
    graphs = []
    for family in SPARSE_FAMILIES:
        per_order, orders = SPARSE_LAYOUT[family]
        degrees = _stratified(rng, per_order * len(orders), *SPARSE_MEAN_DEGREE)
        for n, c in zip((n for n in orders for _ in range(per_order)), degrees):
            if family == "cycle":
                edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
            elif family == "path":
                edges = [(i, i + 1) for i in range(n - 1)]
            elif family == "tree":
                edges = _prufer_tree(rng, n)
            else:
                p = c / (n - 1)
                edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            graphs.append((family, n, sorted(edges)))
    rng.shuffle(graphs)
    return graphs


def write_input(workload: str, seed: int, path: str) -> int:
    """Write one workload's input file; returns the number of graphs written.

    batch: one graph6 token per line.  sparse: ``family token`` per line.
    exhaustive takes no input and writes an empty file.
    """
    if workload == "batch":
        lines = [encode_graph6(n, edges) for n, edges in batch_graphs(seed)]
    elif workload == "sparse":
        lines = [f"{fam} {encode_graph6(n, edges)}" for fam, n, edges in sparse_graphs(seed)]
    elif workload == "exhaustive":
        lines = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: gen.py WORKLOAD SEED OUTPUT", file=sys.stderr)
        return 2
    # Set-up includes loading the whole program, as a user's first command does.
    import domiperf.cli  # noqa: F401
    import domiperf.enumeration  # noqa: F401

    write_input(argv[0], int(argv[1]), argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
