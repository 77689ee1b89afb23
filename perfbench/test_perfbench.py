"""Tests of the benchmark's own codec, generators, oracles and spans.

    python3 -m pytest perfbench -q
"""

import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import networkx as nx  # noqa: E402
import pytest  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402


def _random_graph(rng, n, p):
    return n, [e for e in combinations(range(n), 2) if rng.random() < p]


def _nx(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _cycle(n):
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


# -- codec and generators ------------------------------------------------------

def test_encoder_matches_networkx():
    rng = random.Random(0)
    for n in list(range(1, 31)) + [62]:
        for p in (0.0, 0.3, 0.7, 1.0):
            g = _random_graph(rng, n, p)
            want = nx.to_graph6_bytes(_nx(*g), header=False).decode().strip()
            assert gen.encode_graph6(*g) == want


def test_decoder_inverts_encoder_and_rejects_bad_tokens():
    rng = random.Random(1)
    for n in range(1, 25):
        n_, edges = _random_graph(rng, n, 0.4)
        assert gen.decode_graph6(gen.encode_graph6(n_, edges)) == (n_, sorted(edges))
    for bad in ("", "A", "A__", "A`", "~~", "B\x7f"):
        with pytest.raises(ValueError):
            gen.decode_graph6(bad)


def test_batch_inputs_are_seeded_and_stratified():
    first = gen.batch_graphs(3)
    assert first == gen.batch_graphs(3)
    assert first != gen.batch_graphs(4)
    assert len(first) == gen.BATCH_GRAPHS
    for n in gen.BATCH_ORDERS:
        sizes = [len(e) / (n * (n - 1) / 2) for m, e in first if m == n]
        assert len(sizes) == gen.BATCH_GRAPHS // len(gen.BATCH_ORDERS)
        assert 0.1 < min(sizes) and max(sizes) < 0.9


def test_sparse_inputs_are_seeded_and_stratified():
    first = gen.sparse_graphs(3)
    assert first == gen.sparse_graphs(3)
    assert first != gen.sparse_graphs(4)
    assert len(first) == gen.SPARSE_GRAPHS
    for family, (per_order, orders) in gen.SPARSE_LAYOUT.items():
        got = sorted(n for fam, n, _ in first if fam == family)
        assert got == sorted(list(orders) * per_order)
        assert min(orders) > 16
    for family, n, edges in first:
        if family == "tree":
            assert len(edges) == n - 1 and nx.is_tree(_nx(n, edges))
        if family in ("cycle", "path"):
            want_n, want = _cycle(n) if family == "cycle" else _path(n)
            assert (n, edges) == (want_n, sorted(want))


def test_write_input_round_trips(tmp_path):
    path = tmp_path / "in.txt"
    assert gen.write_input("sparse", 5, str(path)) == gen.SPARSE_GRAPHS
    rows = [line.split() for line in path.read_text().splitlines()]
    assert [(fam, *gen.decode_graph6(tok)) for fam, tok in rows] == gen.sparse_graphs(5)


# -- oracles -----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 13))
def test_brute_profile_matches_closed_forms(n):
    for family, graph in (("cycle", _cycle(n)), ("path", _path(n))):
        p = oracles.brute_profile(*graph)
        values = {k: p[k] for k in ("gamma", "i", "alpha", "alpha_c")}
        assert values == oracles.sparse_closed_form(family, n)


def test_brute_profile_lexicographic_witnesses():
    p = oracles.brute_profile(*_path(4))
    assert p["witness_gamma"] == (0, 2)
    assert p["witness_i"] == (0, 2)
    assert p["witness_alpha"] == (0, 2)
    star = oracles.brute_profile(4, [(1, 0), (1, 2), (1, 3)])
    assert (star["gamma"], star["witness_gamma"], star["witness_alpha"]) == (1, (1,), (0, 2, 3))
    assert oracles.brute_profile(4, [])["witness_gamma"] == (0, 1, 2, 3)


def test_brute_profile_agrees_with_networkx_on_random_graphs():
    rng = random.Random(2)
    for _ in range(40):
        n, edges = _random_graph(rng, rng.randint(1, 8), rng.random())
        p = oracles.brute_profile(n, edges)
        g = _nx(n, edges)
        alpha = max(len(c) for c in nx.find_cliques(nx.complement(g)))
        assert p["alpha"] == alpha
        assert nx.is_dominating_set(g, p["witness_gamma"])
        assert p["gamma"] <= p["i"] <= p["alpha_c"] <= p["alpha"]


def test_h_graphs_are_minimal_imperfect_and_distinct():
    for name in oracles.H_EDGES:
        n, edges = oracles.h_graph(name)
        gamma, alpha_c = oracles.gamma_and_alpha_c(n, edges)
        assert gamma < alpha_c, name
        for k in range(1, n):
            for sub in combinations(range(n), k):
                assert len(set(oracles.gamma_and_alpha_c(*oracles.induced(n, edges, sub)))) == 1
    names = list(oracles.H_EDGES)
    for a, b in combinations(names, 2):
        assert not oracles.isomorphic(6, oracles.h_graph(a)[1], oracles.h_graph(b)[1])


def test_isomorphic_agrees_with_networkx():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = _random_graph(rng, n, 0.5)[1]
        perm = list(range(n))
        rng.shuffle(perm)
        b = [(perm[u], perm[v]) for u, v in a] if rng.random() < 0.5 \
            else _random_graph(rng, n, 0.5)[1]
        assert oracles.isomorphic(n, a, b) == nx.is_isomorphic(_nx(n, a), _nx(n, b))


def test_record_checks_catch_wrong_answers():
    n, edges = _path(5)
    p = oracles.brute_profile(n, edges)
    good = {"n": 5, "m": 4, **{k: p[k] for k in ("gamma", "i", "alpha", "alpha_c")},
            **{k: [v + 1 for v in p[k]] for k in ("witness_gamma", "witness_i", "witness_alpha")}}
    assert oracles.check_compute_record(n, edges, good) == []
    assert oracles.check_compute_record(n, edges, {**good, "alpha_c": 3})
    assert oracles.check_compute_record(n, edges, {**good, "witness_gamma": [2, 5]})

    n, edges = _path(6)  # P6 is H8
    theorem = {"verdict": "imperfect", "method": "theorem",
               "witness": {"pattern": "H8", "embedding": [1, 2, 3, 4, 5, 6]}}
    assert oracles.check_verdict_witness(n, edges, theorem) == []
    wrong = {**theorem, "witness": {"pattern": "H9", "embedding": [1, 2, 3, 4, 5, 6]}}
    assert oracles.check_verdict_witness(n, edges, wrong)
    gap = {"verdict": "imperfect", "method": "definition",
           "witness": {"vertices": [1, 2, 3, 4, 5, 6], "gamma": 2, "alpha_c": 3}}
    assert oracles.check_verdict_witness(n, edges, gap) == []
    no_gap = {**gap, "witness": {"vertices": [1, 2, 3], "gamma": 1, "alpha_c": 1}}
    assert oracles.check_verdict_witness(n, edges, no_gap)


def test_sparse_check_catches_wrong_answers():
    n, edges = _cycle(9)
    values = {"gamma": 3, "i": 3, "alpha": 4, "alpha_c": 4}
    witnesses = {"gamma": [0, 3, 6], "i": [0, 3, 6], "alpha": [0, 2, 4, 6]}
    theorem = (False, "H8", [3, 4, 2, 5, 1, 6])  # pattern path 5-3-1-2-4-6 on 0..5
    assert oracles.check_sparse_result("cycle", n, edges, values, witnesses, theorem) == []
    assert oracles.check_sparse_result("cycle", n, edges, {**values, "alpha": 5},
                                       witnesses, theorem)
    assert oracles.check_sparse_result("cycle", n, edges, values,
                                       {**witnesses, "gamma": [0, 1, 2]}, theorem)
    assert oracles.check_sparse_result("cycle", n, edges, values, witnesses,
                                       (True, None, None))
    assert oracles.check_sparse_result("cycle", n, edges, values, witnesses,
                                       (False, "H8", [1, 2, 3, 4, 5, 6]))


# -- spans ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["invariants.parameter_profile", 1.0, 5.0, 0, None],
        ["invariants.domination_number", 1.0, 2.0, 1, None],
        ["formats.emit_graph6", 6.0, 7.0, 0, None],
    ]
    m = spans.layer_metrics([recorded])
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert m["invariants.profile_self_s"] == pytest.approx(3.0)
    assert m["invariants.gamma_s"] == pytest.approx(1.0)
    assert m["formats.emit_s"] == pytest.approx(1.0)


def test_install_wraps_where_callers_look_and_uninstall_restores():
    from domiperf import cli, enumeration, perfection
    from domiperf.graph import cycle_graph

    before = (perfection.perfect_by_theorem, cli._METHODS["theorem"],
              perfection.SubgraphTables.__init__)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert cli._METHODS["theorem"] is not before[1]
        assert cli._METHODS["theorem"](cycle_graph(8)).perfect is False
        assert sum(1 for _ in enumeration.enumerate_up_to(4)) == 1 + 2 + 4 + 11
        perfection.perfect_by_definition(cycle_graph(5))
    finally:
        spans.uninstall(undo)
    assert (perfection.perfect_by_theorem, cli._METHODS["theorem"],
            perfection.SubgraphTables.__init__) == before
    names = {s[0] for s in tracer.spans}
    assert {"perfection.perfect_by_theorem", "patterns.find_induced",
            "enumeration.enumerate_graphs", "perfection.SubgraphTables.__init__"} <= names
    counts = sorted(spans.enumeration_counts([tracer.spans]))
    assert counts == [(k, None, oracles.GRAPH_COUNTS[k]) for k in range(1, 5)]
    m = spans.layer_metrics([tracer.spans])
    assert m["perfection.tables_calls"] == 1 and m["perfection.subsets"] == 32
    assert m["patterns.witness_ratio"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_install_skips_functions_the_program_no_longer_has(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "domiperf.formats",
                        spans.TRACED["domiperf.formats"] + ("no_such_function",))
    monkeypatch.setitem(spans.TRACED, "domiperf.perfection",
                        spans.TRACED["domiperf.perfection"] + ("NoSuchClass.__init__",))
    spans.uninstall(spans.install(spans.Tracer()))


def test_verify_report_totals_come_from_oeis():
    import run

    def report(checked):
        return {"universe": "u", "checked": checked, "agreements": checked,
                "counterexample_total": 0, "counterexamples": []}

    good = [report(1252), report(1252), report(3350)]
    assert run._verify_report_errors(good) == []
    assert run._verify_report_errors([report(1252), report(1251), report(3350)])
    dirty = dict(report(1252), counterexample_total=1)
    assert run._verify_report_errors([dirty, report(1252), report(3350)])


def test_metric_names_match_benchmark_json():
    import json

    import run

    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in contract["per_layer"]] == list(spans.PER_LAYER)
    for m in contract["per_layer"] + contract["end_to_end"]:
        assert run._unit(m["name"]) == m["unit"], m["name"]
    assert contract["paths"] == [HERE.name]


def test_sparse_pass_counts_a_raising_call_as_a_failure():
    import run
    import sparse_child

    def broken(G):
        raise ValueError("boom")

    intervals, results = sparse_child.sparse_pass(["G"], broken, broken)
    assert len(intervals) == 1 and isinstance(results[0], ValueError)
    records = [sparse_child.as_record(r) for r in results]
    errors = run._sparse_errors(["cycle"], [_cycle(20)], records)
    assert len(errors) == 1 and "boom" in errors[0]


# -- sliced timing -------------------------------------------------------------------

def test_run_sliced_times_a_child_in_gauged_slices(tmp_path):
    import meter

    script = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "while time.perf_counter() - t0 < 0.35: pass\n"
              "print(t0, time.perf_counter())\n"
              "sys.exit(3)\n")
    m = meter.run_sliced([sys.executable, "-c", script], None, tmp_path,
                         tmp_path / "out", tmp_path / "err", timeout=60)
    assert m.code == 3 and m.maxrss_kb > 0
    assert len(m.slices) >= 3 and 0.35 <= m.raw_s < 5
    start, end = map(float, (tmp_path / "out").read_text().split())
    assert 0 < m.normalize(start, end) <= m.norm_s
    assert m.normalize(m.slices[0][0] - 1, m.slices[0][0]) == 0


def test_run_sliced_kills_and_reaps_a_child_past_its_timeout(tmp_path):
    import meter

    script = "import os, time\nprint(os.getpid(), flush=True)\ntime.sleep(30)\n"
    with pytest.raises(meter.Timeout):
        meter.run_sliced([sys.executable, "-c", script], None, tmp_path,
                         tmp_path / "out", tmp_path / "err", timeout=1)
    pid = int((tmp_path / "out").read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_sliced_cli_output_is_byte_identical_to_a_plain_run(tmp_path):
    import meter

    path = tmp_path / "in.g6"
    path.write_text("".join(gen.encode_graph6(n, e) + "\n" for n, e in gen.batch_graphs(1)[:200]))
    argv = [sys.executable, "-m", "domiperf.cli", "classify", "--method", "theorem", str(path)]
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    plain = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    m = meter.run_sliced(argv, env, tmp_path, tmp_path / "out", tmp_path / "err", timeout=120)
    assert len(m.slices) >= 2
    assert (m.code, (tmp_path / "out").read_bytes()) == (plain.returncode, plain.stdout)
