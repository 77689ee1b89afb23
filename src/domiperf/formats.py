"""graph6 parsing/emission and edge-list parsing.

graph6 covers every order a ``Graph`` allows (n <= 64): the one-byte
short-form header up to n = 62, the long form ("~" and three bytes) for
n = 63 and 64.  A graph6 input may start with the optional ">>graph6<<"
of nauty's specification, which no line end follows.  The edge list is an
input format only; it is 1-based: first line "n", then one "u v" pair per
line, each number in ASCII digits.  In both input formats a line ends at
"\\n", "\\r\\n" or a lone "\\r", and only spaces and tabs are blanks: any
other control byte is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from domiperf.graph import MAX_ORDER, Graph, build_graph

_OFFSET = 63
_MAX_SHORT_ORDER = 62
_LONG_HEADER = "~"
_FILE_HEADER = ">>graph6<<"
_BLANKS = " \t"


class FormatError(ValueError):
    """Malformed interchange text; the message carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


@dataclass(frozen=True)
class GraphRecord:
    """One parsed input graph together with its provenance."""

    line_number: int
    graph: Graph


def _triangle_pairs(n: int) -> Iterator[tuple[int, int]]:
    # column-by-column upper triangle: (0,1),(0,2),(1,2),(0,3),...
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 token into a graph with the encoded labeling."""
    if not text:
        raise FormatError("empty graph6 token", 0)
    for off, ch in enumerate(text):
        code = ord(ch)
        if not _OFFSET <= code <= 126:
            raise FormatError(f"byte {code!r} outside printable graph6 range 63..126", off)
    if text[0] != _LONG_HEADER:
        n, head = ord(text[0]) - _OFFSET, 1
    else:
        if text[1:2] == _LONG_HEADER:
            raise FormatError(f"eight-byte header: order above {MAX_ORDER}", 0)
        if len(text) < 4:
            raise FormatError("truncated long-form header", len(text))
        n, head = 0, 4
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - _OFFSET)
        if n > MAX_ORDER:
            raise FormatError(f"header encodes n={n} > {MAX_ORDER}", 0)
        if n <= _MAX_SHORT_ORDER:
            raise FormatError(f"long-form header for n={n}, which has a short form", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[head:]
    if len(body) < nbytes:
        raise FormatError(f"truncated body: need {nbytes} bytes, got {len(body)}", len(text))
    if len(body) > nbytes:
        raise FormatError("trailing bytes after adjacency body", head + nbytes)
    bitstream = 0
    for ch in body:
        bitstream = (bitstream << 6) | (ord(ch) - _OFFSET)
    pad = nbytes * 6 - nbits
    if bitstream & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits", len(text) - 1)
    bitstream >>= pad
    edges = []
    for k, (i, j) in enumerate(_triangle_pairs(n)):
        if bitstream >> (nbits - 1 - k) & 1:
            edges.append((i, j))
    return build_graph(n, edges)


def emit_graph6(G: Graph) -> str:
    """Encode a graph as a graph6 token preserving its labeling exactly."""
    n = G.n
    nbits = n * (n - 1) // 2
    bitstream = 0
    for i, j in _triangle_pairs(n):
        bitstream = (bitstream << 1) | (G.adj[i] >> j & 1)
    pad = (6 - nbits % 6) % 6
    bitstream <<= pad
    nbytes = (nbits + 5) // 6
    if n <= _MAX_SHORT_ORDER:
        out = [chr(_OFFSET + n)]
    else:
        out = [_LONG_HEADER] + [chr(_OFFSET + (n >> s & 0x3F)) for s in (12, 6, 0)]
    for k in range(nbytes - 1, -1, -1):
        out.append(chr(_OFFSET + (bitstream >> (6 * k) & 0x3F)))
    return "".join(out)


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``; ``str.splitlines`` would also end one at "\\x0b",
    "\\x0c" and "\\x1c".."\\x1e"."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def iter_graph6(lines: Iterable[str]) -> Iterator[GraphRecord]:
    """Parse graph6 tokens, one per line given without its end; blank lines are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip(_BLANKS)
        if not token:
            continue
        try:
            yield GraphRecord(lineno, parse_graph6(token))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc


def parse_count(text: str) -> int:
    """ASCII digits as an int; ``int`` alone also takes signs, "_" and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


def parse_edge_list(text: str) -> Graph:
    """Parse "n" followed by 1-based "u v" lines into a graph.

    Lines count from 1, blank lines included, as in :func:`iter_graph6`; an
    error names its line, and vertices by their 1-based labels.
    """
    lines = [(k, ln.strip(_BLANKS)) for k, ln in enumerate(_split_lines(text), start=1)
             if ln.strip(_BLANKS)]
    if not lines:
        raise FormatError("empty edge-list input")
    lineno, head = lines[0]
    try:
        n = parse_count(head)
    except ValueError:
        raise FormatError(f"line {lineno}: order line is not a number: {head!r}") from None
    if not 0 <= n <= MAX_ORDER:
        raise FormatError(f"line {lineno}: order {n} outside 0..{MAX_ORDER}")
    edges = []
    for lineno, ln in lines[1:]:
        parts = [part for part in ln.replace("\t", " ").split(" ") if part]
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {ln!r}")
        try:
            u, v = parse_count(parts[0]), parse_count(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric endpoint in {ln!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: endpoint outside 1..{n} in {ln!r}")
        if u == v:
            raise FormatError(f"line {lineno}: loop at vertex {u}")
        edges.append((u - 1, v - 1))
    return build_graph(n, edges)


def read_records(data: bytes, fmt: str) -> list[GraphRecord]:
    """The graphs of ASCII input: graph6 lines after at most one leading
    ">>graph6<<", or one edge list if ``fmt`` is "edges"."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the byte's line as the parsers count lines
        line = len(_split_lines(data[: exc.start].decode("ascii")))
        raise FormatError(f"line {line}: byte {data[exc.start]} is not ASCII") from None
    if fmt == "edges":
        return [GraphRecord(1, parse_edge_list(text))]
    return list(iter_graph6(_split_lines(text.removeprefix(_FILE_HEADER))))
