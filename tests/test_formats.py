import pytest
from hypothesis import given

from conftest import graphs
from domiperf.formats import (
    FormatError,
    emit_graph6,
    iter_graph6,
    parse_edge_list,
    parse_graph6,
)
from domiperf.graph import GraphError, build_graph, complete_graph


def test_single_vertex_token():
    assert emit_graph6(build_graph(1, [])) == "@"
    assert parse_graph6("@") == build_graph(1, [])


def test_k2_from_single_triangle_bit():
    # n=2, one triangle bit set: body byte 63 + 0b100000
    token = chr(63 + 2) + chr(63 + 0b100000)
    assert parse_graph6(token) == complete_graph(2)


def test_known_round_trip():
    assert emit_graph6(parse_graph6("E?~o")) == "E?~o"


def test_empty_graph_bodies_are_all_63():
    assert emit_graph6(build_graph(5, [])) == "D??"


def _long_header(n):
    return "~" + "".join(chr(63 + (n >> s & 0x3F)) for s in (12, 6, 0))


@pytest.mark.parametrize(
    "token",
    [
        "",                       # no length byte
        "\x1f",                   # non-printable length byte
        chr(63 + 63),             # "~": long-form header cut short
        "E?~",                    # truncated body
        "E?~oo",                  # trailing bytes
        chr(63 + 3) + chr(63 + 1),  # nonzero padding for n=3
        "E?" + chr(40) + "o",     # non-printable body byte
        "~?",                     # long-form header cut short
        pytest.param(_long_header(62) + "?" * 316, id="long-form-n62"),  # has a short form
        pytest.param(_long_header(63) + "?" * 325, id="long-form-truncated"),  # needs 326
        pytest.param(_long_header(64) + "?" * 337, id="long-form-trailing"),  # needs 336
    ],
)
def test_parse_errors(token):
    with pytest.raises(FormatError):
        parse_graph6(token)


def _sparse_graph(n):
    # a spanning path plus every chord (i, i + 7): irregular bits in every byte
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 7) for i in range(n - 7)]
    return build_graph(n, edges)


@pytest.mark.parametrize("n", [62, 63, 64])
def test_graph6_order_boundary(n):
    # short form through 62, "~" and three bytes from 63 on
    header = _long_header(n) if n > 62 else chr(63 + n)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    assert emit_graph6(build_graph(n, [])) == header + "?" * nbytes
    g = _sparse_graph(n)
    token = emit_graph6(g)
    assert token.startswith(header) and len(token) == len(header) + nbytes
    assert parse_graph6(token) == g
    assert emit_graph6(parse_graph6(token)) == token


def test_orders_above_64_are_rejected():
    with pytest.raises(GraphError):
        build_graph(65, [])
    body = "?" * ((65 * 64 // 2 + 5) // 6)
    with pytest.raises(FormatError, match="n=65"):
        parse_graph6(_long_header(65) + body)
    with pytest.raises(FormatError, match="eight-byte"):
        parse_graph6("~~" + "?" * 6)


def test_long_form_matches_networkx():
    # independent oracle: networkx's graph6 codec at orders 63 and 64
    nx = pytest.importorskip("networkx")
    for n in (63, 64):
        g = _sparse_graph(n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert emit_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert sorted(tuple(sorted(e)) for e in back.edges()) == g.edges()


@given(graphs(max_n=8))
def test_parse_emit_identity(g):
    assert parse_graph6(emit_graph6(g)) == g


@given(graphs(max_n=8))
def test_emit_parse_identity_on_clean_tokens(g):
    token = emit_graph6(g)
    assert emit_graph6(parse_graph6(token)) == token


def test_iter_graph6_reports_line_numbers():
    records = list(iter_graph6(["@", "", "A_"]))
    assert [r.line_number for r in records] == [1, 3]
    with pytest.raises(FormatError, match="line 2"):
        list(iter_graph6(["@", "!!"]))


@pytest.mark.parametrize("line", ["\x0bA_", "A_\x0c", "A_\x1f"])
def test_iter_graph6_blanks_are_spaces_and_tabs(line):
    # str.strip would drop the control byte and read A_
    assert [r.graph for r in iter_graph6([" \tA_\t "])] == [complete_graph(2)]
    with pytest.raises(FormatError, match="line 1: byte"):
        list(iter_graph6([line]))


def test_parse_edge_list_h7():
    g = parse_edge_list("6\n1 3\n3 5\n2 4\n4 6\n")
    assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 1, 1, 2, 2]
    assert not g.is_connected()


def test_parse_edge_list_k1():
    assert parse_edge_list("1\n") == build_graph(1, [])


@pytest.mark.parametrize(
    "text",
    ["", "x\n", "3\n1\n", "3\n1 b\n", "3\n0 2\n", "3\n1 4\n", "3\n2 2\n",
     # int() reads these as 10, 0, 2 and 3: only ASCII digits are a count
     "1_0\n", "-0\n", "3\n1 0_2\n", "\u0663\n",
     # str.strip, split and splitlines would accept these: only spaces and
     # tabs are blanks, and no control byte ends a line
     "\x0b3\n1 2\n", "3\n1\x1f2\n", "3\n1 2\x0c\n", "3\n1 2\x1c2 3\n"],
)
def test_edge_list_errors(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)
