"""Exhaustive verification drivers over the non-isomorphic graph universes.

Each driver sweeps a universe from :mod:`domiperf.universe` and tallies the
agreements of independent routes in a JSON-serializable report.  Canonical
forms come from :mod:`domiperf.canon` (individualization and refinement);
both modules' public names are re-exported here.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from domiperf.canon import MAX_CANONICAL_ORDER, CanonicalForm, canonical_form, canonical_graph
from domiperf.formats import emit_graph6
from domiperf.graph import GraphError
from domiperf.graph_classes import (
    block_graph_corollary,
    chordal_corollary,
    claw_free_corollary,
    is_block_graph,
    is_chordal,
    line_graph,
    line_graph_criterion,
    middle_graph,
    middle_graph_criterion,
    middle_graph_star_phrasing,
    tree_corollary_conditions,
)
from domiperf.invariants import parameter_profile, verify_witness
from domiperf.patterns import is_claw_free
from domiperf.perfection import (
    SubgraphTables,
    is_minimal_imperfect,
    perfect_by_definition,
    perfect_by_gamma2,
    perfect_by_theorem,
)
from domiperf.universe import MAX_ENUM_ORDER, MAX_TREE_ORDER, enumerate_graphs, enumerate_up_to

__all__ = [
    "COUNTEREXAMPLE_CAP", "MAX_CANONICAL_ORDER", "MAX_ENUM_ORDER", "MAX_TREE_ORDER",
    "CanonicalForm", "VerificationReport", "canonical_form", "canonical_graph",
    "enumerate_graphs", "enumerate_up_to", "verify_chain", "verify_corollaries",
    "verify_theorem",
]

COUNTEREXAMPLE_CAP = 100


@dataclass
class VerificationReport:
    """Per-universe tally of exhaustively checked graphs."""

    universe: str
    checked: int = 0
    agreements: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    counterexample_total: int = 0
    elapsed_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, detail: dict | None = None) -> None:
        self.checked += 1
        if ok:
            self.agreements += 1
        else:
            self.counterexample_total += 1
            if detail is not None and len(self.counterexamples) < COUNTEREXAMPLE_CAP:
                self.counterexamples.append(detail)

    @property
    def clean(self) -> bool:
        return self.counterexample_total == 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# -- verification drivers ---------------------------------------------------

def verify_theorem(order_max: int) -> VerificationReport:
    """Compare the three perfection methods on every graph up to order_max."""
    if order_max > MAX_ENUM_ORDER:
        raise GraphError(f"verification capped at order {MAX_ENUM_ORDER}")
    start = time.perf_counter()
    report = VerificationReport(universe=f"all graphs, orders 1..{order_max}")
    minimal_tokens = []
    for G in enumerate_up_to(order_max):
        tables = SubgraphTables(G)
        vd = perfect_by_definition(G, tables=tables)
        vg = perfect_by_gamma2(G, tables=tables)
        vt = perfect_by_theorem(G)
        ok = vd.perfect == vg.perfect == vt.perfect
        detail = None
        if not ok:
            detail = {
                "graph6": emit_graph6(G),
                "definition": vd.perfect,
                "gamma2": vg.perfect,
                "theorem": vt.perfect,
            }
        report.record(ok, detail)
        if not vd.perfect and is_minimal_imperfect(G, tables=tables):
            minimal_tokens.append(canonical_form(G).token)
    report.notes.append(
        f"minimal imperfect graphs found: {len(minimal_tokens)}"
        + (f" ({', '.join(sorted(minimal_tokens))})" if minimal_tokens else "")
    )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_chain(order_max: int) -> VerificationReport:
    """Assert gamma <= i <= alpha_c <= alpha plus witness soundness everywhere."""
    if order_max > MAX_ENUM_ORDER:
        raise GraphError(f"verification capped at order {MAX_ENUM_ORDER}")
    start = time.perf_counter()
    report = VerificationReport(universe=f"all graphs, orders 1..{order_max}")
    for G in enumerate_up_to(order_max):
        try:
            profile = parameter_profile(G)
            ok = verify_witness(G, profile)
        except AssertionError:
            ok = False
        report.record(ok, None if ok else {"graph6": emit_graph6(G)})
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_corollaries(
    order_max: int,
    tree_order_max: int = MAX_TREE_ORDER,
    line_host_order_max: int = 7,
    middle_host_order_max: int = 5,
) -> VerificationReport:
    """Run every class-restricted equivalence exhaustively and aggregate."""
    if order_max > MAX_ENUM_ORDER:
        raise GraphError(f"verification capped at order {MAX_ENUM_ORDER}")
    if tree_order_max > MAX_TREE_ORDER:
        raise GraphError(f"tree sweep capped at order {MAX_TREE_ORDER}")
    if line_host_order_max > 7 or middle_host_order_max > 5:
        raise GraphError("line hosts capped at order 7, middle hosts at order 5")
    start = time.perf_counter()
    report = VerificationReport(
        universe=(
            f"corollary sweeps: trees<={tree_order_max}, classes<={order_max}, "
            f"line hosts<={line_host_order_max}, middle hosts<={middle_host_order_max}"
        )
    )

    tree_checked = 0
    for G in enumerate_up_to(tree_order_max, "tree"):
        conds = tree_corollary_conditions(G)
        ok = len(set(conds)) == 1
        report.record(ok, None if ok else {"sweep": "tree", "conditions": list(conds)})
        tree_checked += 1
    report.notes.append(f"tree sweep: {tree_checked} trees")

    for name, recognizer, criterion in (
        ("chordal", is_chordal, chordal_corollary),
        ("claw-free", is_claw_free, claw_free_corollary),
    ):
        count = 0
        for G in enumerate_up_to(order_max):
            if not recognizer(G):
                continue
            ok = criterion(G) == perfect_by_theorem(G).perfect
            report.record(ok, None if ok else {"sweep": name, "graph6": emit_graph6(G)})
            count += 1
        report.notes.append(f"{name} sweep: {count} graphs")

    count = 0
    for G in enumerate_up_to(order_max):
        if not (G.is_connected() and is_block_graph(G)):
            continue
        ok = block_graph_corollary(G) == perfect_by_theorem(G).perfect
        report.record(ok, None if ok else {"sweep": "block", "graph6": emit_graph6(G)})
        count += 1
    report.notes.append(f"block graph sweep: {count} graphs")

    count = 0
    for H in enumerate_up_to(line_host_order_max):
        ok = line_graph_criterion(H) == perfect_by_theorem(line_graph(H)).perfect
        report.record(ok, None if ok else {"sweep": "line", "host_graph6": emit_graph6(H)})
        count += 1
    report.notes.append(f"line graph sweep: {count} hosts")

    count = 0
    phrasing_gaps = []
    for H in enumerate_up_to(middle_host_order_max):
        matching_ok = middle_graph_criterion(H)
        ok = matching_ok == perfect_by_theorem(middle_graph(H)).perfect
        report.record(ok, None if ok else {"sweep": "middle", "host_graph6": emit_graph6(H)})
        count += 1
        if matching_ok and not middle_graph_star_phrasing(H):
            phrasing_gaps.append(emit_graph6(H))
    report.notes.append(f"middle graph sweep: {count} hosts")
    if phrasing_gaps:
        report.notes.append(
            "middle-graph star phrasing disagrees with the matching criterion on "
            "hosts whose only nontrivial component is a triangle: "
            + ", ".join(phrasing_gaps)
        )

    report.elapsed_seconds = time.perf_counter() - start
    return report
