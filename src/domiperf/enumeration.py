"""Exhaustive verification drivers over the non-isomorphic graph universes.

Each driver is a list of sweeps run by one loop: a sweep checks every graph
of a universe from :mod:`domiperf.universe` and tallies the agreements of
independent routes in a JSON-serializable report.  The universes' public
names and ``canonical_graph`` from :mod:`domiperf.canon` are re-exported here;
``canonical_form`` names the minimal imperfect graphs a sweep finds.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from domiperf.canon import canonical_graph
from domiperf.formats import emit_graph6
from domiperf.graph import Graph, GraphError
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
    perfect_by_definition,
    perfect_by_gamma2,
    perfect_by_theorem,
)
from domiperf.universe import MAX_ENUM_ORDER, MAX_TREE_ORDER, enumerate_graphs, enumerate_up_to

__all__ = [
    "COUNTEREXAMPLE_CAP", "MAX_ENUM_ORDER", "MAX_TREE_ORDER",
    "VerificationReport", "canonical_form", "canonical_graph",
    "enumerate_graphs", "enumerate_up_to", "verify_chain", "verify_corollaries",
    "verify_theorem",
]

COUNTEREXAMPLE_CAP = 100
# host orders of the line and middle graph sweeps; trees go to MAX_TREE_ORDER
LINE_HOST_ORDER = 7
MIDDLE_HOST_ORDER = 5


def canonical_form(G: Graph) -> str:
    """Isomorphism-invariant token: graph6 of the canonical relabeling."""
    return emit_graph6(canonical_graph(G))


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

# One sweep: the note template its count fills in (or None), the graphs, and a
# check that returns None when a graph passes, else the counterexample detail.
Sweep = tuple[str | None, Iterable[Graph], Callable[[Graph], dict | None]]


def _check_order(order_max: int) -> None:
    if order_max < 1:
        raise GraphError("verification starts at order 1")
    if order_max > MAX_ENUM_ORDER:
        raise GraphError(f"verification capped at order {MAX_ENUM_ORDER}")


def _run(universe: str, sweeps: Iterable[Sweep]) -> VerificationReport:
    start = time.perf_counter()
    report = VerificationReport(universe=universe)
    for note, graphs, check in sweeps:
        before = report.checked
        for G in graphs:
            detail = check(G)
            report.record(detail is None, detail)
        if note is not None:
            report.notes.append(note.format(report.checked - before))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_theorem(order_max: int) -> VerificationReport:
    """Compare the three perfection methods on every graph up to order_max."""
    _check_order(order_max)
    minimal_tokens = []

    def check(G: Graph) -> dict | None:
        tables = SubgraphTables(G)
        vd = perfect_by_definition(G, tables=tables)
        vg = perfect_by_gamma2(G, tables=tables)
        vt = perfect_by_theorem(G)
        # minimal imperfect iff the definition scan's first gap is all of G
        if not vd.perfect and len(vd.witness.vertices) == G.n:
            minimal_tokens.append(canonical_form(G))
        if vd.perfect == vg.perfect == vt.perfect:
            return None
        return {
            "graph6": emit_graph6(G),
            "definition": vd.perfect,
            "gamma2": vg.perfect,
            "theorem": vt.perfect,
        }

    report = _run(
        f"all graphs, orders 1..{order_max}", [(None, enumerate_up_to(order_max), check)]
    )
    report.notes.append(
        f"minimal imperfect graphs found: {len(minimal_tokens)}"
        + (f" ({', '.join(sorted(minimal_tokens))})" if minimal_tokens else "")
    )
    return report


def _chain_check(G: Graph) -> dict | None:
    try:
        ok = verify_witness(G, parameter_profile(G))
    except AssertionError:
        ok = False
    return None if ok else {"graph6": emit_graph6(G)}


def verify_chain(order_max: int) -> VerificationReport:
    """Assert gamma <= i <= alpha_c <= alpha plus witness soundness everywhere."""
    _check_order(order_max)
    return _run(
        f"all graphs, orders 1..{order_max}", [(None, enumerate_up_to(order_max), _chain_check)]
    )


def _tree_check(T: Graph) -> dict | None:
    conds = tree_corollary_conditions(T)
    return None if len(set(conds)) == 1 else {"sweep": "tree", "conditions": list(conds)}


def _matches_theorem(
    sweep: str,
    criterion: Callable[[Graph], bool],
    construct: Callable[[Graph], Graph] | None = None,
) -> Callable[[Graph], dict | None]:
    """Check that ``criterion`` on G predicts the theorem route on G (or on ``construct(G)``)."""
    key = "graph6" if construct is None else "host_graph6"

    def check(G: Graph) -> dict | None:
        target = G if construct is None else construct(G)
        if criterion(G) == perfect_by_theorem(target).perfect:
            return None
        return {"sweep": sweep, key: emit_graph6(G)}

    return check


def _connected_block_graph(G: Graph) -> bool:
    return G.is_connected() and is_block_graph(G)


def verify_corollaries(order_max: int) -> VerificationReport:
    """Run every class-restricted equivalence exhaustively and aggregate."""
    _check_order(order_max)
    phrasing_gaps = []

    def middle_criterion(H: Graph) -> bool:
        ok = middle_graph_criterion(H)
        if ok and not middle_graph_star_phrasing(H):
            phrasing_gaps.append(emit_graph6(H))
        return ok

    report = _run(
        f"corollary sweeps: trees<={MAX_TREE_ORDER}, classes<={order_max}, "
        f"line hosts<={LINE_HOST_ORDER}, middle hosts<={MIDDLE_HOST_ORDER}",
        [
            ("tree sweep: {} trees", enumerate_up_to(MAX_TREE_ORDER, "tree"), _tree_check),
            ("chordal sweep: {} graphs", enumerate_up_to(order_max, is_chordal),
             _matches_theorem("chordal", chordal_corollary)),
            ("claw-free sweep: {} graphs", enumerate_up_to(order_max, is_claw_free),
             _matches_theorem("claw-free", claw_free_corollary)),
            ("block graph sweep: {} graphs", enumerate_up_to(order_max, _connected_block_graph),
             _matches_theorem("block", block_graph_corollary)),
            ("line graph sweep: {} hosts", enumerate_up_to(LINE_HOST_ORDER),
             _matches_theorem("line", line_graph_criterion, line_graph)),
            ("middle graph sweep: {} hosts", enumerate_up_to(MIDDLE_HOST_ORDER),
             _matches_theorem("middle", middle_criterion, middle_graph)),
        ],
    )
    if phrasing_gaps:
        report.notes.append(
            "middle-graph star phrasing disagrees with the matching criterion on "
            "hosts whose only nontrivial component is a triangle: "
            + ", ".join(phrasing_gaps)
        )
    return report
