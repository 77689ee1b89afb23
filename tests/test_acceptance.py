"""End-to-end acceptance sweep.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``).  The
exhaustive checks read the reports of the shipped verification driver,
``verify_suites``, on the theorem, chain and corollaries suites, each suite
run once at order 8 over one shared graph universe, so the whole file stays
within a few minutes.  Run it alone with::

    pytest tests/test_acceptance.py -s
"""

import time
from itertools import combinations

import pytest

from conftest import pattern_graph
from domiperf.enumeration import (
    canonical_form,
    enumerate_graphs,
    verify_suites,
)
from domiperf.formats import emit_graph6, parse_graph6
from domiperf.graph import build_graph, complete_graph
from domiperf.graph_classes import middle_graph_criterion, middle_graph_star_phrasing
from domiperf.invariants import (
    brute_common_independence,
    brute_domination,
    brute_independence,
    brute_independent_domination,
    common_independence_number,
    domination_number,
    independence_number,
    independent_domination_number,
)
from domiperf.perfection import is_minimal_imperfect, search_minimal_imperfect

MAX_ORDER = 8
EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _report(name: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{stamp}")
    assert ok, name


@pytest.fixture(scope="session")
def universe():
    return {k: list(enumerate_graphs(k)) for k in range(1, MAX_ORDER + 1)}


@pytest.fixture(scope="session")
def theorem_report():
    return verify_suites(["theorem"], MAX_ORDER)[0]


@pytest.fixture(scope="session")
def chain_report():
    return verify_suites(["chain"], MAX_ORDER)[0]


@pytest.fixture(scope="session")
def corollary_report():
    return verify_suites(["corollaries"], MAX_ORDER)[0]


def test_01_parameter_table_of_minimal_graphs():
    start = time.perf_counter()
    expected = {k: (2, 3, 3) if k <= 4 else (2, 2, 3) for k in range(1, 11)}
    ok = True
    for k in range(1, 11):
        g = pattern_graph(f"H{k}")
        triple = (
            domination_number(g)[0],
            independent_domination_number(g)[0],
            common_independence_number(g),
        )
        ok = ok and triple == expected[k] and triple[2] == 3
    _report("01 invariant table of the ten minimal graphs", ok, time.perf_counter() - start)


def test_02_catalog_members_are_minimal_imperfect():
    start = time.perf_counter()
    ok = all(is_minimal_imperfect(pattern_graph(f"H{k}")) for k in range(1, 11))
    _report("02 each catalog graph is minimal imperfect", ok, time.perf_counter() - start)


def test_03_invariant_chain_exhaustive(chain_report):
    # parameter_profile asserts the chain; the chain suite also re-checks every witness
    ok = chain_report.clean and chain_report.checked == sum(EXPECTED_COUNTS.values())
    _report(f"03 chain gamma<=i<=alpha_c<=alpha on all graphs of order <= {MAX_ORDER}", ok)


def test_04_definition_matches_theorem(theorem_report):
    details = theorem_report.counterexamples
    ok = (
        theorem_report.checked == sum(EXPECTED_COUNTS.values())
        and theorem_report.counterexample_total == len(details)
        and all(d["definition"] == d["theorem"] for d in details)
    )
    _report(f"04 definition and forbidden-pattern checks agree on order <= {MAX_ORDER}", ok)


def test_05_gamma2_route_agrees(theorem_report):
    ok = theorem_report.clean
    _report(f"05 gamma=2 shortcut agrees with both routes on order <= {MAX_ORDER}", ok)


def test_06_minimal_imperfect_census(theorem_report):
    start = time.perf_counter()
    ok = all(search_minimal_imperfect(order) == [] for order in (1, 2, 3, 4, 5, 7))
    found = search_minimal_imperfect(6)
    catalog_tokens = sorted(canonical_form(pattern_graph(f"H{k}")) for k in range(1, 11))
    ok = ok and sorted(emit_graph6(g) for g in found) == catalog_tokens
    # the theorem suite reads minimality off its definition verdicts: the same ten
    ok = ok and theorem_report.notes == [
        f"minimal imperfect graphs found: 10 ({', '.join(catalog_tokens)})"
    ]
    _report("06 census: exactly the ten order-6 minimal imperfect graphs", ok,
            time.perf_counter() - start)


def test_07_tree_characterization(corollary_report):
    ok = corollary_report.clean
    ok = ok and "tree sweep: 987 trees" in corollary_report.notes
    _report("07 trees to order 12: all four conditions match perfection", ok)


def test_08_chordal_characterization(corollary_report):
    # 2650: the OEIS count of chordal graphs of order 1..8 (not only connected ones)
    ok = corollary_report.clean
    ok = ok and "chordal sweep: 2650 graphs" in corollary_report.notes
    _report(f"08 chordal shortcut matches perfection on order <= {MAX_ORDER}", ok)


def test_09_claw_free_characterization(corollary_report):
    # OEIS counts: 1715 claw-free graphs, 263 connected block graphs of order 1..8
    ok = corollary_report.clean
    ok = ok and "claw-free sweep: 1715 graphs" in corollary_report.notes
    ok = ok and "block graph sweep: 263 graphs" in corollary_report.notes
    _report(f"09 claw-free and block shortcuts match perfection on order <= {MAX_ORDER}", ok)


def test_10_line_graph_characterization(corollary_report):
    ok = corollary_report.clean
    ok = ok and "line graph sweep: 1252 hosts" in corollary_report.notes
    ok = ok and corollary_report.checked == 987 + 2650 + 1715 + 263 + 1252 + 52
    _report("10 line-graph criterion matches perfection for hosts of order <= 7", ok)


def test_11_middle_graph_characterization(corollary_report):
    ok = corollary_report.clean
    ok = ok and corollary_report.notes[-2:] == [
        "middle graph sweep: 52 hosts",
        "middle-graph star phrasing disagrees with the matching criterion on "
        "hosts whose only nontrivial component is a triangle: Bw, CT, DCc",
    ]
    # the star-only phrasing provably misses the triangle; keep that fact pinned
    k3 = complete_graph(3)
    ok = ok and middle_graph_criterion(k3) and not middle_graph_star_phrasing(k3)
    _report("11 middle-graph criterion matches perfection for hosts of order <= 5", ok)


def test_12_graph6_round_trip(universe):
    ok = all(
        parse_graph6(emit_graph6(g)) == g for graphs in universe.values() for g in graphs
    )
    _report(f"12 graph6 encode/decode round-trips on all graphs of order <= {MAX_ORDER}", ok)


def test_13_enumeration_counts(universe):
    start = time.perf_counter()
    ok = all(len(universe[k]) == EXPECTED_COUNTS[k] for k in EXPECTED_COUNTS)
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        tokens = {
            canonical_form(
                build_graph(n, [pairs[i] for i in range(len(pairs)) if sel >> i & 1])
            )
            for sel in range(1 << len(pairs))
        }
        ok = ok and len(tokens) == EXPECTED_COUNTS[n]
    _report("13 enumeration counts match the labeled-graph dedup oracle", ok,
            time.perf_counter() - start)


def test_14_solvers_match_oracles(universe):
    start = time.perf_counter()
    ok = True
    for order in range(1, 8):
        for g in universe[order]:
            ok = ok and domination_number(g)[0] == brute_domination(g)
            ok = ok and independent_domination_number(g)[0] == brute_independent_domination(g)
            ok = ok and independence_number(g)[0] == brute_independence(g)
            ok = ok and common_independence_number(g) == brute_common_independence(g)
    _report("14 optimized solvers equal brute-force oracles on order <= 7", ok,
            time.perf_counter() - start)
