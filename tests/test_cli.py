import json

import pytest

from conftest import pattern_graph
from domiperf.canon import canonical_form
from domiperf.cli import main
from domiperf.enumeration import MAX_ENUM_ORDER
from domiperf.formats import emit_graph6, parse_graph6
from domiperf.graph import build_graph, complete_graph, cycle_graph, path_graph
from domiperf.graph_classes import corona_k1
from domiperf.perfection import MAX_SWEEP_ORDER


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    monkeypatch.setenv("DOMIPERF_WORKERS", "1")


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_from_file(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("E?N?\n@\n")
    code, out, _ = _run(capsys, ["compute", str(src)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    first = records[0]
    assert (first["gamma"], first["i"], first["alpha_c"], first["alpha"]) == (2, 2, 3, 4)
    assert first["witness_gamma"] == [5, 6]
    assert records[1]["n"] == 1 and records[1]["line"] == 2


def test_compute_from_stdin(capsys, monkeypatch):
    token = emit_graph6(cycle_graph(6))
    code, out, _ = _run(capsys, ["compute"], stdin=token + "\n", monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out)
    assert (rec["gamma"], rec["alpha"]) == (2, 3)


def test_compute_edge_list_format(tmp_path, capsys):
    src = tmp_path / "h7.edges"
    src.write_text("6\n1 2\n2 3\n4 5\n5 6\n")
    code, out, _ = _run(capsys, ["compute", "--format", "edges", str(src)])
    assert code == 0
    rec = json.loads(out)
    assert (rec["gamma"], rec["i"], rec["alpha_c"], rec["alpha"]) == (2, 2, 3, 4)


def test_classify_imperfect_exits_one(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(path_graph(6)) + "\n")
    code, out, _ = _run(capsys, ["classify", str(src)])
    assert code == 1
    rec = json.loads(out)
    assert rec["verdict"] == "imperfect" and rec["method"] == "theorem"
    assert rec["witness"]["pattern"] == "H8"


def test_classify_perfect_by_each_method(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(complete_graph(4)) + "\n")
    for method in ("definition", "gamma2", "theorem"):
        code, out, _ = _run(capsys, ["classify", "--method", method, str(src)])
        assert code == 0
        assert json.loads(out)["verdict"] == "perfect"


def test_classify_definition_witness(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(path_graph(6)) + "\n")
    code, out, _ = _run(capsys, ["classify", "--method", "definition", str(src)])
    assert code == 1
    w = json.loads(out)["witness"]
    assert (w["gamma"], w["alpha_c"]) == (2, 3)
    assert w["vertices"] == [1, 2, 3, 4, 5, 6]


def test_verify_small_order(capsys):
    code, out, _ = _run(capsys, ["verify", "--order", "4", "--suite", "theorem"])
    assert code == 0
    report = json.loads(out)
    assert report["checked"] == 18 and report["counterexample_total"] == 0


@pytest.mark.parametrize("order", [0, -2])
def test_verify_rejects_orders_below_one(capsys, order):
    code, out, err = _run(capsys, ["verify", "--order", str(order)])
    assert (code, out) == (2, "")
    assert "verification starts at order 1" in err


def test_verify_above_enumeration_cap_exits_two_at_once(capsys):
    # refused by the driver before any sweep, not by the universe after orders 1..8
    code, out, err = _run(capsys, ["verify", "--order", str(MAX_ENUM_ORDER + 1)])
    assert (code, out) == (2, "")
    assert f"verification capped at order {MAX_ENUM_ORDER}" in err


def test_classify_definition_above_sweep_cap_exits_two(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("@\n\n" + emit_graph6(build_graph(MAX_SWEEP_ORDER + 1, [])) + "\n")
    code, out, err = _run(capsys, ["classify", "--method", "definition", str(src)])
    assert (code, out) == (2, "")
    assert f"{src}: line 3: order {MAX_SWEEP_ORDER + 1} exceeds the subset-sweep cap" in err


def test_computation_error_names_line_on_stdin(capsys, monkeypatch):
    code, out, err = _run(capsys, ["compute"], stdin="@\n?\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "domiperf: line 2: parameter profile undefined on the empty graph\n"


def test_pool_error_names_file_and_line(tmp_path, capsys, monkeypatch):
    # two workers over five records: the pool path, not the in-process one
    monkeypatch.setenv("DOMIPERF_WORKERS", "2")
    src = tmp_path / "in.g6"
    tokens = [emit_graph6(path_graph(n)) for n in (2, 3, 4)]
    tokens[2:2] = [emit_graph6(build_graph(MAX_SWEEP_ORDER + 1, []))] * 2
    src.write_text("".join(t + "\n" for t in tokens))
    code, out, err = _run(capsys, ["classify", "--method", "gamma2", str(src)])
    assert (code, out) == (2, "")
    assert f"{src}: line 3: order {MAX_SWEEP_ORDER + 1}" in err


@pytest.mark.parametrize("fmt, text", [("graph6", "?\n"), ("edges", "0\n")])
def test_classify_order_zero_by_each_method(tmp_path, capsys, fmt, text):
    # K0 is vacuously perfect: every method says so
    src = tmp_path / "k0.in"
    src.write_text(text)
    for method in ("definition", "gamma2", "theorem"):
        code, out, err = _run(capsys, ["classify", "--format", fmt, "--method", method, str(src)])
        assert (code, err) == (0, "")
        rec = json.loads(out)
        assert (rec["token"], rec["verdict"], "witness" in rec) == ("?", "perfect", False)


def test_search_minimal(capsys):
    code, out, _ = _run(capsys, ["search-minimal", "--order", "5"])
    assert code == 0 and out == ""
    code, out, _ = _run(capsys, ["search-minimal", "--order", "6"])
    assert code == 0
    tokens = out.split()
    assert len(tokens) == 10
    assert set(tokens) == {canonical_form(pattern_graph(f"H{k}")).token for k in range(1, 11)}


def test_construct_pipeline(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(complete_graph(3)) + "\n")
    code, out, _ = _run(capsys, ["construct", "--construction", "line", str(src)])
    assert code == 0
    assert parse_graph6(out.strip()) == complete_graph(3)
    code, out, _ = _run(capsys, ["construct", "--construction", "corona", str(src)])
    assert code == 0
    assert parse_graph6(out.strip()).n == 6


def test_construct_corona_up_to_order_64(tmp_path, capsys):
    # coronas of P31 and P32 have 62 and 64 vertices; the second needs the
    # graph6 long form
    src = tmp_path / "in.g6"
    src.write_text("".join(emit_graph6(path_graph(n)) + "\n" for n in (31, 32)))
    code, out, err = _run(capsys, ["construct", "--construction", "corona", str(src)])
    assert (code, err) == (0, "")
    tokens = out.split()
    assert [parse_graph6(t) for t in tokens] == [corona_k1(path_graph(n)) for n in (31, 32)]
    assert tokens[1].startswith("~")


def test_construct_error_prints_no_records(tmp_path, capsys):
    # the corona of P33 would have 66 vertices: the good P3 before it is not
    # printed either, and no output file is left behind
    src = tmp_path / "in.g6"
    dst = tmp_path / "out.g6"
    src.write_text("".join(emit_graph6(path_graph(n)) + "\n" for n in (3, 33)))
    code, out, err = _run(capsys, ["construct", "--construction", "corona", str(src)])
    assert (code, out) == (2, "")
    assert f"{src}: line 2: corona would exceed 64 vertices" in err
    code, out, _ = _run(
        capsys, ["construct", "--construction", "corona", "--output", str(dst), str(src)]
    )
    assert (code, out) == (2, "")
    assert not dst.exists()


def test_compute_cycle_40(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(cycle_graph(40)) + "\n")
    code, out, _ = _run(capsys, ["compute", str(src)])
    assert code == 0
    rec = json.loads(out)
    assert (rec["n"], rec["gamma"], rec["i"], rec["alpha_c"], rec["alpha"]) == (40, 14, 14, 20, 20)


def test_output_file(tmp_path, capsys):
    src = tmp_path / "in.g6"
    dst = tmp_path / "out.jsonl"
    src.write_text("@\n")
    code, out, _ = _run(capsys, ["compute", "--output", str(dst), str(src)])
    assert code == 0 and out == ""
    assert json.loads(dst.read_text())["n"] == 1


def test_parse_error_exits_two(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_text("E?\n")
    code, _, err = _run(capsys, ["compute", str(src)])
    assert code == 2
    assert "domiperf:" in err


def test_graph6_files_are_not_glued(tmp_path, capsys):
    # a truncated last token must not fuse with the next file's first token
    first, second = tmp_path / "a.g6", tmp_path / "b.g6"
    first.write_text("A")
    second.write_text("_")
    code, out, err = _run(capsys, ["compute", str(first), str(second)])
    assert code == 2 and out == ""
    assert "a.g6" in err


def test_graph6_parse_error_names_file_and_line(tmp_path, capsys):
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("@\n")
    bad.write_text("@\nE?\n")
    code, _, err = _run(capsys, ["compute", str(good), str(bad)])
    assert code == 2
    assert f"{bad}: line 2:" in err


def test_edge_list_one_graph_per_file(tmp_path, capsys):
    first, second = tmp_path / "p3.edges", tmp_path / "k3.edges"
    first.write_text("3\n1 2\n2 3\n")
    second.write_text("3\n1 2\n2 3\n1 3\n")
    code, out, _ = _run(capsys, ["compute", "--format", "edges", str(first), str(second)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["n"], r["m"], r["gamma"]) for r in records] == [(3, 2, 1), (3, 3, 1)]


def test_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, ["compute", "/nonexistent/in.g6"])
    assert code == 2 and "domiperf:" in err


@pytest.mark.parametrize("value", ["many", "0", "-3"])
def test_bad_workers_env_exits_two(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("DOMIPERF_WORKERS", value)
    src = tmp_path / "in.g6"
    src.write_text("@\n")
    code, _, err = _run(capsys, ["classify", str(src)])
    assert code == 2
    assert "DOMIPERF_WORKERS" in err


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--method", "bogus"])
    assert exc.value.code == 2
