"""In-memory spans around the program's public functions, for traced runs.

``install`` replaces each listed function wherever callers look it up: module
globals of every ``domiperf`` module and the values of module-level dicts
(such as the CLI's method map).  Each call then records a span
``(name, start, end, parent)``; a generator records one span per resume, so
time spent by its consumer between items is not charged to it.  Spans stay
in memory until ``dump``.  ``layer_metrics`` turns a list of spans into the
benchmark's per-layer metrics; self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# module -> public names wrapped in a traced run.  ``graph`` gets no spans:
# a Graph is built too often for a per-call wrapper.
TRACED = {
    "domiperf.enumeration": (
        "enumerate_graphs", "enumerate_up_to", "canonical_graph", "canonical_form",
        "verify_theorem", "verify_chain", "verify_corollaries",
    ),
    "domiperf.perfection": (
        "SubgraphTables.__init__", "perfect_by_definition", "perfect_by_gamma2",
        "perfect_by_theorem", "is_minimal_imperfect", "search_minimal_imperfect",
    ),
    "domiperf.patterns": (
        "forbidden_free", "find_induced", "contains_subgraph", "is_claw_free",
        "is_pattern_free",
    ),
    "domiperf.invariants": (
        "domination_number", "independent_domination_number", "independence_number",
        "common_independence_number", "max_independent_with", "parameter_profile",
        "verify_witness",
    ),
    "domiperf.graph_classes": (
        "classify_tree", "is_chordal", "block_decomposition", "is_block_graph",
        "tree_corollary_conditions", "chordal_corollary", "claw_free_corollary",
        "block_graph_corollary", "line_graph_criterion", "middle_graph_criterion",
        "middle_graph_star_phrasing", "line_graph", "corona_k1", "middle_graph",
        "total_graph",
    ),
    "domiperf.formats": (
        "parse_graph6", "iter_graph6", "parse_edge_list", "emit_graph6",
        "emit_edge_list", "emit_dot",
    ),
    "domiperf.cli": ("main",),
}

# graph_classes span -> the per-layer metric its self time goes to
GRAPH_CLASS_METRIC = {
    f"graph_classes.{name}": f"graph_classes.{group}_s"
    for group, names in (
        ("recognize", ("classify_tree", "is_chordal", "block_decomposition", "is_block_graph")),
        ("criterion", ("tree_corollary_conditions", "chordal_corollary", "claw_free_corollary",
                       "block_graph_corollary", "line_graph_criterion",
                       "middle_graph_criterion", "middle_graph_star_phrasing")),
        ("construct", ("line_graph", "corona_k1", "middle_graph", "total_graph")),
    )
    for name in names
}

PER_LAYER = (
    "enumeration.universe_s", "enumeration.trees_s", "enumeration.graphs",
    "enumeration.driver_self_s",
    "perfection.tables_s", "perfection.tables_calls", "perfection.subsets",
    "perfection.definition_self_s", "perfection.gamma2_self_s", "perfection.minimal_s",
    "patterns.forbidden_free_s", "patterns.forbidden_free_calls",
    "patterns.find_induced_calls", "patterns.witness_ratio",
    "invariants.gamma_s", "invariants.ind_dom_s", "invariants.alpha_s",
    "invariants.profile_self_s", "invariants.profile_calls",
    "graph_classes.recognize_s", "graph_classes.criterion_s", "graph_classes.construct_s",
    "formats.parse_s", "formats.emit_s", "formats.records",
    "cli.self_s", "cli.workers", "trace.overhead_ratio",
)


class Tracer:
    """Spans and per-call notes of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, note=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = note
        self._open.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _note(name: str, args, kwargs, result):
    """What a call's span keeps besides its times: a table's order, or a search hit."""
    if name == "perfection.SubgraphTables.__init__":
        graph = args[1] if len(args) > 1 else kwargs.get("G")
        return getattr(graph, "n", 0)
    if name == "patterns.find_induced":
        return result is not None
    return None


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            # enumeration's (order, filter); None for other generators
            order = args[0] if args and isinstance(args[0], int) else None
            filt = kwargs.get("filter", args[1] if len(args) > 1 else None)
            key = [order, filt if filt is None or isinstance(filt, str) else "callable"]
            inner = fn(*args, **kwargs)
            count = 0
            call = len(tracer.spans)  # index of the call's first span
            while True:
                idx = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.end(idx, key + [count, True, call])
                    return
                except BaseException:
                    tracer.end(idx, key + [count, False, call])
                    raise
                count += 1
                tracer.end(idx, key + [count, False, call])
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(idx, _note(name, args, kwargs, result))

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every function in ``TRACED``; returns the undo list for ``uninstall``."""
    for module in TRACED:
        __import__(module)
    originals = {}
    undo = []
    for module, names in TRACED.items():
        mod = sys.modules[module]
        short = module.rsplit(".", 1)[1]
        for name in names:
            # A later version of the program may drop a function; its spans are
            # then absent and the metrics built from them read 0.
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and attr in vars(cls):
                    undo.append((cls, attr, vars(cls)[attr]))
                    setattr(cls, attr, _wrap(tracer, f"{short}.{name}", vars(cls)[attr]))
                continue
            fn = getattr(mod, name, None)
            if fn is not None:
                originals[id(fn)] = (fn, _wrap(tracer, f"{short}.{name}", fn))
    for module in [m for m in sys.modules if m == "domiperf" or m.startswith("domiperf.")]:
        mod = sys.modules[module]
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, originals[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in originals and originals[id(item)][0] is item:
                        undo.append((value, key, item))
                        value[key] = originals[id(item)][1]
    return undo


def uninstall(undo: list) -> None:
    for target, attr, value in reversed(undo):
        if isinstance(target, dict):
            target[attr] = value
        else:
            setattr(target, attr, value)


# -- deriving the per-layer metrics -----------------------------------------

def _self_times(spans: list) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans: list, names: set[str]) -> float:
    """Total duration of spans in ``names`` that have no ancestor in ``names``."""
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def layer_metrics(processes: list[list]) -> dict[str, float]:
    """Per-layer metrics summed over the span lists of several processes."""
    m = defaultdict(float)
    for spans in processes:
        selfs = _self_times(spans)
        first_call = {}
        for k, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            if name == "enumeration.enumerate_graphs":
                order, filt, count, done, call = s[4]
                if filt == "tree":
                    m["enumeration.trees_s"] += dur
                elif first_call.setdefault(order, call) == call:
                    m["enumeration.universe_s"] += dur
                if done:
                    m["enumeration.graphs"] += count
            elif name in ("enumeration.verify_theorem", "enumeration.verify_chain",
                          "enumeration.verify_corollaries"):
                m["enumeration.driver_self_s"] += selfs[k]
            elif name == "perfection.SubgraphTables.__init__":
                m["perfection.tables_s"] += dur
                m["perfection.tables_calls"] += 1
                m["perfection.subsets"] += 1 << s[4]
            elif name == "perfection.perfect_by_definition":
                m["perfection.definition_self_s"] += selfs[k]
            elif name == "perfection.perfect_by_gamma2":
                m["perfection.gamma2_self_s"] += selfs[k]
            elif name == "patterns.forbidden_free":
                m["patterns.forbidden_free_calls"] += 1
            elif name == "patterns.find_induced":
                m["patterns.find_induced_calls"] += 1
                m["find_induced_hits"] += s[4]
            elif name == "invariants.parameter_profile":
                m["invariants.profile_self_s"] += selfs[k]
                m["invariants.profile_calls"] += 1
            elif name == "formats.iter_graph6" and s[4][3]:
                m["formats.records"] += s[4][2]
            elif name == "cli.main":
                m["cli.self_s"] += selfs[k]
            elif name in GRAPH_CLASS_METRIC:
                m[GRAPH_CLASS_METRIC[name]] += selfs[k]
        for metric, names in (
            ("perfection.minimal_s", {"perfection.search_minimal_imperfect",
                                      "perfection.is_minimal_imperfect"}),
            ("patterns.forbidden_free_s", {"patterns.forbidden_free"}),
            ("invariants.gamma_s", {"invariants.domination_number"}),
            ("invariants.ind_dom_s", {"invariants.independent_domination_number"}),
            ("invariants.alpha_s", {"invariants.independence_number",
                                    "invariants.common_independence_number",
                                    "invariants.max_independent_with"}),
            ("formats.parse_s", {"formats.parse_graph6", "formats.iter_graph6",
                                 "formats.parse_edge_list"}),
            ("formats.emit_s", {"formats.emit_graph6", "formats.emit_edge_list",
                                "formats.emit_dot"}),
        ):
            m[metric] += _outermost(spans, names)
    hits = m.pop("find_induced_hits", 0.0)
    m["patterns.witness_ratio"] = (hits / m["patterns.find_induced_calls"]
                                   if m["patterns.find_induced_calls"] else 0.0)
    return dict(m)


def enumeration_counts(processes: list[list]) -> list[tuple[int, str | None, int]]:
    """(order, filter, graphs yielded) for every enumerate_graphs call run to the end."""
    return [tuple(s[4][:3]) for spans in processes for s in spans
            if s[0] == "enumeration.enumerate_graphs" and s[4][3]]
