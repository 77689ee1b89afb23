"""One pass of the ``sparse`` workload: every graph through the library in process.

    python3 perfbench/sparse_child.py INPUT > records.jsonl

INPUT holds ``family graph6`` lines.  Each graph goes to
``invariants.parameter_profile`` and then ``perfection.perfect_by_theorem``,
one call after the other (a closed loop with one caller).  One JSON line per
graph is printed: ``t``, the ``perf_counter`` (start, end) of its two calls,
and either what they returned or the exception one of them raised.
"""

from __future__ import annotations

import json
import os
import sys
import time

here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import gen  # noqa: E402


def sparse_pass(graphs, profile, theorem):
    """Each graph through both calls; returns the (start, end) of each and the results.

    A call that raises is a failed operation, recorded as its exception.
    """
    intervals, results = [], []
    for G in graphs:
        t0 = time.perf_counter()
        try:
            result = (profile(G), theorem(G))
        except Exception as exc:  # noqa: BLE001 - counted and reported as a failure
            result = exc
        intervals.append((t0, time.perf_counter()))
        results.append(result)
    return intervals, results


def as_record(result) -> dict:
    """What the two calls returned, as plain values the oracles check."""
    if isinstance(result, Exception):
        return {"error": repr(result)}
    p, v = result
    pattern, embedding = (None, None) if v.witness is None else \
        (v.witness[0].name, [x + 1 for x in v.witness[1].mapping])
    return {
        "values": {"gamma": p.gamma, "i": p.ind_dom, "alpha": p.ind, "alpha_c": p.common_ind},
        "witnesses": {"gamma": sorted(p.witness_gamma), "i": sorted(p.witness_ind_dom),
                      "alpha": sorted(p.witness_ind)},
        "theorem": [v.perfect, pattern, embedding],
    }


def read_sparse(path: str):
    """``(families, [(n, edges)])`` of a sparse input file."""
    with open(path, encoding="ascii") as fh:
        rows = [line.split() for line in fh.read().splitlines()]
    return [fam for fam, _ in rows], [gen.decode_graph6(t) for _, t in rows]


def main(argv: list[str]) -> int:
    from domiperf.graph import build_graph
    from domiperf.invariants import parameter_profile
    from domiperf.perfection import perfect_by_theorem

    _, raw = read_sparse(argv[0])
    graphs = [build_graph(n, edges) for n, edges in raw]
    intervals, results = sparse_pass(graphs, parameter_profile, perfect_by_theorem)
    out = sys.stdout
    for interval, result in zip(intervals, results):
        out.write(json.dumps(dict(as_record(result), t=interval)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
