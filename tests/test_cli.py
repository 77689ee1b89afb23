import json

import pytest

from conftest import pattern_graph
from domiperf.canon import canonical_form
from domiperf.cli import main
from domiperf.formats import emit_graph6, parse_graph6
from domiperf.graph import complete_graph, cycle_graph, path_graph


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


def test_bad_workers_env_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOMIPERF_WORKERS", "many")
    src = tmp_path / "in.g6"
    src.write_text("@\n")
    code, _, err = _run(capsys, ["compute", str(src)])
    assert code == 2


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--method", "bogus"])
    assert exc.value.code == 2
