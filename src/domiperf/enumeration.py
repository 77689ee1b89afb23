"""Exhaustive verification over the non-isomorphic graph universes.

A sweep checks every graph of a universe from :mod:`domiperf.universe` and
tallies the agreements of independent routes in a report of its own.  Each
sweep is a module-level function of the order, so a process pool can run it.
A suite is an entry of ``SUITES``: its report label and its sweeps, and its
JSON-serializable report merges theirs in that order (``merge_reports``).
``verify_suites``, the one driver, runs the sweeps of the suites it is given
through a ``map``, the built-in one or a pool's, heaviest first
(``DISPATCH``).  The universes' public names and ``canonical_graph`` from
:mod:`domiperf.canon` are re-exported here; ``canonical_form`` names the
minimal imperfect graphs a sweep finds.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

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
from domiperf.patterns import DECISION_ORDER, is_claw_free, is_pattern_free
from domiperf.perfection import (
    is_minimal_imperfect,
    perfect_by_definition,
    perfect_by_gamma2,
    perfect_by_theorem,
)
from domiperf.universe import MAX_ENUM_ORDER, MAX_TREE_ORDER, enumerate_graphs, enumerate_up_to

__all__ = [
    "COUNTEREXAMPLE_CAP", "DISPATCH", "MAX_ENUM_ORDER", "MAX_TREE_ORDER", "SUITES",
    "VerificationReport", "canonical_form", "canonical_graph",
    "enumerate_graphs", "enumerate_up_to", "merge_reports", "run_sweep", "verify_suites",
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

    def record(self, detail: dict | None) -> None:
        """Count one graph: an agreement if ``detail`` is None, else a counterexample."""
        self.checked += 1
        if detail is None:
            self.agreements += 1
        else:
            self.counterexample_total += 1
            if len(self.counterexamples) < COUNTEREXAMPLE_CAP:
                self.counterexamples.append(detail)

    @property
    def clean(self) -> bool:
        return self.counterexample_total == 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# -- verification sweeps ----------------------------------------------------

def _check_order(order_max: int) -> None:
    if order_max < 1:
        raise GraphError("verification starts at order 1")
    if order_max > MAX_ENUM_ORDER:
        raise GraphError(f"verification capped at order {MAX_ENUM_ORDER}")


def _tally(
    sweep: str,
    graphs: Iterable[Graph],
    check: Callable[[Graph], dict | None],
    note: str | None = None,
) -> VerificationReport:
    """One sweep's report, its universe the sweep's name.

    ``check`` returns None when a graph passes, else the counterexample; the
    count of graphs checked fills in ``note``.
    """
    report = VerificationReport(universe=sweep)
    for G in graphs:
        report.record(check(G))
    if note is not None:
        report.notes.append(note.format(report.checked))
    return report


def _theorem_check(G: Graph, minimal_tokens: list[str]) -> dict | None:
    vd = perfect_by_definition(G)
    vg = perfect_by_gamma2(G)
    vt = perfect_by_theorem(G)
    if is_minimal_imperfect(G):
        minimal_tokens.append(canonical_form(G))
    if vd.perfect == vg.perfect == vt.perfect:
        return None
    return {
        "graph6": emit_graph6(G),
        "definition": vd.perfect,
        "gamma2": vg.perfect,
        "theorem": vt.perfect,
    }


def _theorem_sweep(order_max: int) -> VerificationReport:
    minimal_tokens: list[str] = []
    report = _tally("theorem", enumerate_up_to(order_max),
                    partial(_theorem_check, minimal_tokens=minimal_tokens))
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


def _chain_sweep(order_max: int) -> VerificationReport:
    return _tally("chain", enumerate_up_to(order_max), _chain_check)


def _tree_check(T: Graph) -> dict | None:
    conds = tree_corollary_conditions(T)
    return None if len(set(conds)) == 1 else {"sweep": "tree", "conditions": list(conds)}


def _tree_sweep(order_max: int) -> VerificationReport:
    return _tally("tree", enumerate_up_to(MAX_TREE_ORDER, "tree"), _tree_check,
                  "tree sweep: {} trees")


def _matches_theorem(
    sweep: str,
    criterion: Callable[[Graph], bool],
    construct: Callable[[Graph], Graph] | None = None,
) -> Callable[[Graph], dict | None]:
    """Check that ``criterion`` on G predicts the theorem route on G (or on ``construct(G)``).

    The theorem route's verdict is all a corollary needs: the target is
    decided H-free or not in ``DECISION_ORDER`` with no witness, on
    constraint-first plans.  Index-order plans, as ``perfect_by_theorem``
    uses, slowed the tree sweep from 0.046 to 0.055 s (medians of 8
    interleaved rounds); the other corollary sweeps moved within noise.  The
    theorem sweep keeps that route, witness and all, as ``classify --method
    theorem`` runs it.
    """
    key = "graph6" if construct is None else "host_graph6"

    def check(G: Graph) -> dict | None:
        target = G if construct is None else construct(G)
        if criterion(G) == is_pattern_free(target, DECISION_ORDER):
            return None
        return {"sweep": sweep, key: emit_graph6(G)}

    return check


def _chordal_sweep(order_max: int) -> VerificationReport:
    return _tally("chordal", enumerate_up_to(order_max, is_chordal),
                  _matches_theorem("chordal", chordal_corollary), "chordal sweep: {} graphs")


def _claw_free_sweep(order_max: int) -> VerificationReport:
    return _tally("claw-free", enumerate_up_to(order_max, is_claw_free),
                  _matches_theorem("claw-free", claw_free_corollary), "claw-free sweep: {} graphs")


def _connected_block_graph(G: Graph) -> bool:
    return G.is_connected() and is_block_graph(G)


def _block_sweep(order_max: int) -> VerificationReport:
    return _tally("block", enumerate_up_to(order_max, _connected_block_graph),
                  _matches_theorem("block", block_graph_corollary), "block graph sweep: {} graphs")


def _line_sweep(order_max: int) -> VerificationReport:
    return _tally("line", enumerate_up_to(LINE_HOST_ORDER),
                  _matches_theorem("line", line_graph_criterion, line_graph),
                  "line graph sweep: {} hosts")


def _middle_criterion(H: Graph, phrasing_gaps: list[str]) -> bool:
    ok = middle_graph_criterion(H)
    if ok and not middle_graph_star_phrasing(H):
        phrasing_gaps.append(emit_graph6(H))
    return ok


def _middle_sweep(order_max: int) -> VerificationReport:
    phrasing_gaps: list[str] = []
    criterion = partial(_middle_criterion, phrasing_gaps=phrasing_gaps)
    report = _tally("middle", enumerate_up_to(MIDDLE_HOST_ORDER),
                    _matches_theorem("middle", criterion, middle_graph),
                    "middle graph sweep: {} hosts")
    if phrasing_gaps:
        report.notes.append(
            "middle-graph star phrasing disagrees with the matching criterion on "
            "hosts whose only nontrivial component is a triangle: "
            + ", ".join(phrasing_gaps)
        )
    return report


# suite -> its report label, a template for the order, and its sweeps in report order
SUITES = {
    "theorem": ("all graphs, orders 1..{}", (_theorem_sweep,)),
    "chain": ("all graphs, orders 1..{}", (_chain_sweep,)),
    "corollaries": (
        f"corollary sweeps: trees<={MAX_TREE_ORDER}, classes<={{}}, "
        f"line hosts<={LINE_HOST_ORDER}, middle hosts<={MIDDLE_HOST_ORDER}",
        (_tree_sweep, _chordal_sweep, _claw_free_sweep, _block_sweep, _line_sweep, _middle_sweep),
    ),
}

# Every sweep once, heaviest first: workers take them in this order, so the
# longest ones start at once and the short ones fill in at the end.  Times at
# order 7 once the universes are built (median of 5, range over three fresh
# processes, CPython 3.11, 2-core Xeon VM): theorem 0.45-0.52 s, line
# 0.14-0.19 s, claw-free 0.04-0.05 s, chordal 0.05-0.06 s, chain 0.11-0.14 s,
# tree 0.046-0.047 s, block 0.025-0.032 s, middle 0.004-0.005 s.  Each worker
# also builds the universe to order 7 once (0.15-0.19 s), and the trees to
# order 12 take 0.017-0.018 s.  Moving chain and tree ahead of claw-free and
# chordal was faster in only 4 of 10 alternating runs of ``verify --order 7``.
DISPATCH = (_theorem_sweep, _line_sweep, _claw_free_sweep, _chordal_sweep, _chain_sweep,
            _tree_sweep, _block_sweep, _middle_sweep)


def run_sweep(sweep: Callable[[int], VerificationReport], order_max: int) -> VerificationReport:
    """One sweep's report, with the sweep's own time as its ``elapsed_seconds``."""
    start = time.perf_counter()
    report = sweep(order_max)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def merge_reports(universe: str, parts: Iterable[VerificationReport]) -> VerificationReport:
    """One report from sweep reports in sweep order: counts, times and notes add up,
    and the first ``COUNTEREXAMPLE_CAP`` counterexamples are kept."""
    report = VerificationReport(universe=universe)
    for part in parts:
        report.checked += part.checked
        report.agreements += part.agreements
        report.counterexamples += part.counterexamples
        report.counterexample_total += part.counterexample_total
        report.elapsed_seconds += part.elapsed_seconds
        report.notes += part.notes
    del report.counterexamples[COUNTEREXAMPLE_CAP:]
    return report


def verify_suites(
    suites: Sequence[str], order_max: int, mapper: Callable[..., Iterable] = map
) -> list[VerificationReport]:
    """The report of each suite in ``suites``, in that order.

    ``mapper`` (``map``, or a process pool's) runs the sweeps the suites
    need in ``DISPATCH`` order; each report merges its suite's sweeps in
    report order.
    """
    _check_order(order_max)
    wanted = {sweep for suite in suites for sweep in SUITES[suite][1]}
    sweeps = [sweep for sweep in DISPATCH if sweep in wanted]
    done = dict(zip(sweeps, mapper(partial(run_sweep, order_max=order_max), sweeps)))
    return [merge_reports(label.format(order_max), [done[s] for s in parts])
            for label, parts in (SUITES[suite] for suite in suites)]

