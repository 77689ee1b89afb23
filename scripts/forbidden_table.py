#!/usr/bin/env python3
"""Print the invariant table for the ten forbidden graphs H1..H10.

Each row lists gamma, i, alpha_c, alpha, the graph6 token, and whether the
graph passes the minimal-imperfection check.
"""

import sys

from domiperf.formats import emit_graph6
from domiperf.invariants import parameter_profile
from domiperf.patterns import forbidden_catalog
from domiperf.perfection import is_minimal_imperfect


def main() -> int:
    header = f"{'name':<5} {'graph6':<8} {'gamma':>5} {'i':>3} {'alpha_c':>7} {'alpha':>5}  minimal"
    print(header)
    print("-" * len(header))
    ok = True
    for pat in forbidden_catalog():
        g = pat.graph
        p = parameter_profile(g)
        minimal = is_minimal_imperfect(g)
        ok = ok and minimal and p.gamma < p.common_ind
        print(
            f"{pat.name:<5} {emit_graph6(g):<8} {p.gamma:>5} {p.ind_dom:>3} "
            f"{p.common_ind:>7} {p.ind:>5}  {'yes' if minimal else 'NO'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
