import io
import json
import multiprocessing.pool
import random
import re
import sys
import time
from itertools import combinations

import pytest

from conftest import pattern_graph
from domiperf import cli, enumeration
from domiperf.cli import _worker_count, main
from domiperf.enumeration import MAX_ENUM_ORDER, canonical_form
from domiperf.formats import emit_graph6, parse_graph6
from domiperf.graph import build_graph, complete_graph, cycle_graph, path_graph
from domiperf.graph_classes import corona_k1
from domiperf.perfection import MAX_SWEEP_ORDER, PerfectionVerdict


@pytest.fixture(autouse=True)
def _single_worker(monkeypatch):
    monkeypatch.setenv("DOMIPERF_WORKERS", "1")


def _run(capsys, argv, stdin=None, monkeypatch=None):
    # stdin is text or raw bytes; the CLI reads the bytes through sys.stdin.buffer
    if stdin is not None:
        data = stdin if isinstance(stdin, bytes) else stdin.encode("ascii")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
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


@pytest.mark.parametrize("command", ["verify", "search-minimal"])
@pytest.mark.parametrize("order", ["1_0", "٠", "+7"])
def test_order_is_ascii_digits(capsys, command, order):
    # refused as a usage error; int() would read 10, 0 and 7
    with pytest.raises(SystemExit) as exc:
        main([command, "--order", order])
    assert exc.value.code == 2
    assert "argument --order" in capsys.readouterr().err


def _two_workers(monkeypatch) -> list[tuple[int, int]]:
    """Two workers on two CPUs; the returned list gets (workers, chunksize) of each pool map."""
    maps = []

    class RecordedPool(multiprocessing.pool.Pool):
        def imap(self, func, iterable, chunksize=1):
            maps.append((self._processes, chunksize))
            return super().imap(func, iterable, chunksize)

    monkeypatch.setenv("DOMIPERF_WORKERS", "2")
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    # the CLI imports the pool class when it starts a pool, so patch it at its source
    monkeypatch.setattr("multiprocessing.Pool", RecordedPool)
    return maps


def _slow_gamma2(monkeypatch, order):
    """``classify --method gamma2`` sleeps 0.5 s before each graph of ``order``;
    the pool's forked workers inherit the patch."""
    real = cli._METHODS["gamma2"]

    def gamma2(G):
        if G.n == order:
            time.sleep(0.5)
        return real(G)

    monkeypatch.setitem(cli._METHODS, "gamma2", gamma2)


def _timeless(out: str) -> str:
    return re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": 0', out)


def test_verify_on_two_workers_matches_one(capsys, monkeypatch):
    code, serial, _ = _run(capsys, ["verify", "--order", "6", "--suite", "all"])
    maps = _two_workers(monkeypatch)
    pooled_code, pooled, _ = _run(capsys, ["verify", "--order", "6", "--suite", "all"])
    # one pool; its sweeps go one at a time, so the heaviest starts first
    assert maps == [(2, 1)]
    assert code == pooled_code == 0
    assert [json.loads(line)["universe"] for line in serial.splitlines()] == [
        "all graphs, orders 1..6",
        "all graphs, orders 1..6",
        "corollary sweeps: trees<=12, classes<=6, line hosts<=7, middle hosts<=5",
    ]
    assert _timeless(pooled) == _timeless(serial)


def _flip_theorem(monkeypatch, target):
    real = enumeration.perfect_by_theorem

    def theorem(G):
        verdict = real(G)
        return PerfectionVerdict(not verdict.perfect, verdict.method) if G == target else verdict

    monkeypatch.setattr(enumeration, "perfect_by_theorem", theorem)


def _flip_h_free(monkeypatch, target):
    # the corollary sweeps' verdict of the theorem route
    real = enumeration.is_pattern_free

    def h_free(G, names):
        return real(G, names) != (G == target)

    monkeypatch.setattr(enumeration, "is_pattern_free", h_free)


def _fail_profile(monkeypatch, target):
    real = enumeration.parameter_profile

    def profile(G):
        if G == target:
            raise AssertionError("chain broken")
        return real(G)

    monkeypatch.setattr(enumeration, "parameter_profile", profile)


# graphs each suite checks at order 4
CHECKED_AT_ORDER_4 = {"theorem": 18, "chain": 18, "corollaries": 2333}


@pytest.mark.parametrize(
    "suite, break_sweep, detail",
    [
        ("theorem", _flip_theorem,
         [{"graph6": "C?", "definition": True, "gamma2": True, "theorem": False}]),
        ("chain", _fail_profile, [{"graph6": "C?"}]),
        # the edgeless graph of order 4 is chordal, claw-free and the middle
        # graph of itself; it is no tree, block graph or line graph of a host
        # of order <= 7
        ("corollaries", _flip_h_free,
         [{"sweep": "chordal", "graph6": "C?"}, {"sweep": "claw-free", "graph6": "C?"},
          {"sweep": "middle", "host_graph6": "C?"}]),
    ],
)
def test_verify_counterexample_exits_one(capsys, monkeypatch, suite, break_sweep, detail):
    # the sweep disagrees on one graph, the edgeless graph of order 4; detail
    # lists the counterexamples that graph gives
    break_sweep(monkeypatch, build_graph(4, []))
    code, out, _ = _run(capsys, ["verify", "--order", "4", "--suite", suite])
    report = json.loads(out)
    assert code == 1
    checked = CHECKED_AT_ORDER_4[suite]
    assert (report["checked"], report["agreements"], report["counterexample_total"]) == (
        checked, checked - len(detail), len(detail))
    assert report["counterexamples"] == detail


def test_verify_above_enumeration_cap_exits_two_at_once(capsys):
    # refused by the driver before any sweep, not by the universe after orders 1..8
    code, out, err = _run(capsys, ["verify", "--order", str(MAX_ENUM_ORDER + 1)])
    assert (code, out) == (2, "")
    assert f"verification capped at order {MAX_ENUM_ORDER}" in err


def test_search_minimal_above_enumeration_cap_exits_two(capsys):
    code, out, err = _run(capsys, ["search-minimal", "--order", str(MAX_ENUM_ORDER + 1)])
    assert (code, out) == (2, "")
    assert f"capped at order {MAX_ENUM_ORDER}" in err


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
    # two workers take 40 records in chunks of 5: line 27 is the second record of
    # the chunk of lines 26..30, and the bad record at line 34 comes after it.
    # Under gamma2 the order-7 graph at line 26 sleeps first, so the error at
    # line 34 comes back first and must still not be the one named
    maps = _two_workers(monkeypatch)
    _slow_gamma2(monkeypatch, 7)
    src = tmp_path / "in.g6"
    for argv, bad, message in [
        (
            ["classify", "--method", "gamma2"],
            emit_graph6(build_graph(MAX_SWEEP_ORDER + 1, [])),
            f"order {MAX_SWEEP_ORDER + 1} exceeds the subset-sweep cap {MAX_SWEEP_ORDER}",
        ),
        (["compute"], "?", "parameter profile undefined on the empty graph"),
    ]:
        tokens = [emit_graph6(path_graph(2 + k % 5)) for k in range(40)]
        tokens[25] = emit_graph6(path_graph(7))
        tokens[26] = tokens[33] = bad
        src.write_text("".join(t + "\n" for t in tokens))
        code, out, err = _run(capsys, [*argv, str(src)])
        assert (code, out) == (2, "")
        assert err == f"domiperf: {src}: line 27: {message}\n"
    assert maps == [(2, 5), (2, 5)]


def test_pool_stops_at_first_bad_record(tmp_path, capsys, monkeypatch):
    # 40 records in chunks of 5 on two workers; line 1 fails at once, and every
    # other record sleeps 0.5 s, so finishing the chunks already handed out
    # would take 2 s or more
    maps = _two_workers(monkeypatch)
    _slow_gamma2(monkeypatch, 3)
    tokens = [emit_graph6(path_graph(2 + k % 2)) for k in range(40)]
    tokens[0] = emit_graph6(build_graph(MAX_SWEEP_ORDER + 1, []))
    src = tmp_path / "in.g6"
    src.write_text("".join(t + "\n" for t in tokens))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["classify", "--method", "gamma2", str(src)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"domiperf: {src}: line 1: order {MAX_SWEEP_ORDER + 1} "
                   f"exceeds the subset-sweep cap {MAX_SWEEP_ORDER}\n")
    assert maps == [(2, 5)]
    assert multiprocessing.active_children() == []


def test_pooled_records_match_serial(tmp_path, capsys, monkeypatch):
    # 64 records of orders 4..8, imperfect ones among them, in chunks of 8
    rng = random.Random(7)
    graphs = [
        build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        for n in (4 + k % 5 for k in range(64))
    ]
    src = tmp_path / "in.g6"
    src.write_text("".join(emit_graph6(G) + "\n" for G in graphs))
    commands = [
        ["compute"],
        *(["classify", "--method", method] for method in ("definition", "gamma2", "theorem")),
        ["construct", "--construction", "line"],
    ]
    serial = [_run(capsys, [*argv, str(src)]) for argv in commands]
    maps = _two_workers(monkeypatch)
    pooled = [_run(capsys, [*argv, str(src)]) for argv in commands]
    assert pooled == serial
    assert [code for code, _, _ in serial] == [0, 1, 1, 1, 0]
    assert maps == [(2, 8)] * len(commands)
    assert multiprocessing.active_children() == []


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
    assert set(tokens) == {canonical_form(pattern_graph(f"H{k}")) for k in range(1, 11)}


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


@pytest.mark.parametrize(
    "argv, graphs, expected",
    [
        (["compute"], [cycle_graph(6), path_graph(1)], 0),
        (["classify"], [complete_graph(4), path_graph(6)], 1),
        (["verify", "--order", "4", "--suite", "theorem"], [], 1),
        (["search-minimal", "--order", "6"], [], 0),
        (["construct", "--construction", "line"], [complete_graph(3), path_graph(4)], 0),
    ],
    ids=["compute", "classify", "verify", "search-minimal", "construct"],
)
def test_output_file_matches_stdout(tmp_path, capsys, monkeypatch, argv, graphs, expected):
    # --output holds the bytes stdout would get, with the same exit code; P6
    # is imperfect, and verify's theorem sweep is broken on the edgeless
    # graph of order 4, as in test_verify_counterexample_exits_one
    _flip_theorem(monkeypatch, build_graph(4, []))
    if graphs:
        src = tmp_path / "in.g6"
        src.write_text("".join(emit_graph6(G) + "\n" for G in graphs))
        argv = [*argv, str(src)]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (expected, "") and out
    dst = tmp_path / "out"
    assert _run(capsys, [*argv, "--output", str(dst)]) == (expected, "", "")
    assert _timeless(dst.read_text(encoding="utf-8")) == _timeless(out)


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


def test_graph6_file_header_from_networkx(tmp_path, capsys):
    # networkx writes the optional ">>graph6<<" of the specification by default
    nx = pytest.importorskip("networkx")
    src = tmp_path / "p3.g6"
    nx.write_graph6(nx.path_graph(3), src)
    assert src.read_bytes().startswith(b">>graph6<<")
    code, out, _ = _run(capsys, ["compute", str(src)])
    assert code == 0
    rec = json.loads(out)
    assert (rec["line"], rec["n"], rec["m"], rec["gamma"]) == (1, 3, 2, 1)


def test_graph6_file_header_on_stdin(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["compute"], stdin=">>graph6<<Bg\nC~\n", monkeypatch=monkeypatch)
    assert code == 0
    assert [json.loads(line)["line"] for line in out.splitlines()] == [1, 2]


@pytest.mark.parametrize(
    "data, line",
    [("@\n>>graph6<<Bg\n", 2), (">>graph6<<>>graph6<<Bg\n", 1), (">>sparse6<<:Bf\n", 1)],
)
def test_graph6_header_elsewhere_names_file_and_line(tmp_path, capsys, monkeypatch, data, line):
    # one header per input, at its very start; sparse6 is not read
    message = f"line {line}: byte 62 outside printable graph6 range 63..126 (byte offset 0)"
    src = tmp_path / "bad.g6"
    src.write_text(data)
    code, out, err = _run(capsys, ["compute", str(src)])
    assert (code, out, err) == (2, "", f"domiperf: {src}: {message}\n")
    code, out, err = _run(capsys, ["compute"], stdin=data, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"domiperf: {message}\n")


def test_edge_list_one_graph_per_file(tmp_path, capsys):
    first, second = tmp_path / "p3.edges", tmp_path / "k3.edges"
    first.write_text("3\n1 2\n2 3\n")
    second.write_text("3\n1 2\n2 3\n1 3\n")
    code, out, _ = _run(capsys, ["compute", "--format", "edges", str(first), str(second)])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["n"], r["m"], r["gamma"]) for r in records] == [(3, 2, 1), (3, 3, 1)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n1 2\n2 x\n", "line 3: non-numeric endpoint in '2 x'"),
        ("3\n1 1\n", "line 2: loop at vertex 1"),
        ("3\n\n1 2 3\n", "line 3: expected 'u v', got '1 2 3'"),
        ("\n65\n1 2\n", "line 2: order 65 outside 0..64"),
        ("\nx\n", "line 2: order line is not a number: 'x'"),
        # only spaces and tabs are blanks, and only "\n" and "\r" end a line
        ("3\n1\x0b2\n", "line 2: expected 'u v', got '1\\x0b2'"),
        ("3\n1 2\x1c2 3\n", "line 2: expected 'u v', got '1 2\\x1c2 3'"),
        ("\x0c3\n1 2\n", "line 1: order line is not a number: '\\x0c3'"),
        ("3\r1 2\r\n2\x1f3\n", "line 3: expected 'u v', got '2\\x1f3'"),
    ],
)
def test_edge_list_error_names_line(tmp_path, capsys, monkeypatch, text, message):
    # lines count from 1, blank lines included; vertices keep their 1-based labels
    src = tmp_path / "bad.edges"
    src.write_text(text)
    code, out, err = _run(capsys, ["compute", "--format", "edges", str(src)])
    assert (code, out, err) == (2, "", f"domiperf: {src}: {message}\n")
    code, out, err = _run(
        capsys, ["compute", "--format", "edges"], stdin=text, monkeypatch=monkeypatch
    )
    assert (code, out, err) == (2, "", f"domiperf: {message}\n")


@pytest.mark.parametrize(
    "data, line",
    [(b"D??\n\xff\xfe\n", 2), (b"D??\r\n\n@\r\xff", 4), (b"@\x0c\xff", 1), (b"@\x1c@\n\xff", 2)],
)
def test_non_ascii_file_names_file_line_and_byte(tmp_path, capsys, monkeypatch, data, line):
    # lines count as the parsers count them: LF, CRLF and a lone CR end a line
    src = tmp_path / "bad.g6"
    src.write_bytes(data)
    code, out, err = _run(capsys, ["compute", str(src)])
    assert (code, out, err) == (2, "", f"domiperf: {src}: line {line}: byte 255 is not ASCII\n")
    code, out, err = _run(capsys, ["compute"], stdin=data, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"domiperf: line {line}: byte 255 is not ASCII\n")


@pytest.mark.parametrize(
    "data, line, byte, offset",
    [
        (b"A_\x1cBw\nC~\n", 1, 28, 2),  # str.splitlines would read three records
        (b"@\n\x0bA_\n", 2, 11, 0),  # str.strip would take the byte for a blank
        (b"@\r\n \tA_\x1f\n", 2, 31, 2),
    ],
)
def test_graph6_control_byte_names_line(tmp_path, capsys, monkeypatch, data, line, byte, offset):
    message = (f"line {line}: byte {byte} outside printable graph6 range 63..126 "
               f"(byte offset {offset})")
    src = tmp_path / "bad.g6"
    src.write_bytes(data)
    code, out, err = _run(capsys, ["compute", str(src)])
    assert (code, out, err) == (2, "", f"domiperf: {src}: {message}\n")
    code, out, err = _run(capsys, ["compute"], stdin=data, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"domiperf: {message}\n")


def test_non_ascii_stdin_names_line_and_byte(capsys, monkeypatch):
    code, out, err = _run(capsys, ["classify"], stdin=b"@\n\xff\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "domiperf: line 2: byte 255 is not ASCII\n")


def test_leading_byte_order_mark_is_not_ascii(tmp_path, capsys, monkeypatch):
    # a UTF-8 byte order mark is reported as its first byte, in either format
    bom = "\ufeff".encode("utf-8")
    src = tmp_path / "bom.edges"
    src.write_bytes(bom + b"2\n1 2\n")
    code, out, err = _run(capsys, ["compute", "--format", "edges", str(src)])
    assert (code, out, err) == (2, "", f"domiperf: {src}: line 1: byte 239 is not ASCII\n")
    code, out, err = _run(capsys, ["compute"], stdin=bom + b"@\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "domiperf: line 1: byte 239 is not ASCII\n")


def test_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, ["compute", "/nonexistent/in.g6"])
    assert code == 2 and "domiperf:" in err


@pytest.mark.parametrize("value", ["many", "0", "-3", "1_0", "+2"])
def test_bad_workers_env_exits_two(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("DOMIPERF_WORKERS", value)
    src = tmp_path / "in.g6"
    src.write_text("@\n")
    for argv in (["compute"], ["classify"], ["construct", "--construction", "line"]):
        code, out, err = _run(capsys, [*argv, str(src)])
        assert (code, out) == (2, "")
        assert "DOMIPERF_WORKERS" in err
    # verify resolves the worker count before its first sweep
    monkeypatch.setattr(enumeration, "run_sweep", lambda *a, **k: pytest.fail("a sweep ran"))
    code, out, err = _run(capsys, ["verify", "--order", "3"])
    assert (code, out) == (2, "")
    assert "DOMIPERF_WORKERS" in err


@pytest.mark.parametrize(
    "value, cpus, expected",
    # an empty value reads as unset
    [(None, 8, 8), ("", 8, 8), ("4096", 8, 8), ("3", 8, 3), ("8", 8, 8), ("2", None, 1)],
)
def test_worker_count_is_capped_at_cpu_count(monkeypatch, value, cpus, expected):
    # resolved only, never used: no pool is started here
    if value is None:
        monkeypatch.delenv("DOMIPERF_WORKERS")
    else:
        monkeypatch.setenv("DOMIPERF_WORKERS", value)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert _worker_count() == expected


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--method", "bogus"])
    assert exc.value.code == 2
