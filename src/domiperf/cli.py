"""Batch command-line front end.

One JSON record per input graph, on stdout or in the ``--output`` file that
every command takes; witness vertex sets use 1-based labels matching the
edge-list convention.  Each ``cmd_*`` returns its records as (line, passed)
pairs, and ``main`` alone writes them and decides the exit code: 0 when
every record passed, 1 when a property fails or a counterexample exists,
2 on a usage, parse or computation error, in which case nothing is written.
``compute``, ``classify`` and ``construct`` map their records, and ``verify``
its sweeps, over a process pool of one worker per CPU; DOMIPERF_WORKERS, a
positive integer, caps that count.  Records go to the pool in chunks, about
four per worker; sweeps go one at a time, heaviest first.  The first record
in input order that fails stops the pool at once, and no record is printed.
A verify report's ``elapsed_seconds`` is the sum of its suite's own sweep
times, wherever they ran.  ``search-minimal`` is a single search and runs in
this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable, Sequence

from domiperf.enumeration import SUITES, verify_suites
from domiperf.formats import FormatError, GraphRecord, emit_graph6, parse_count, read_records
from domiperf.graph import GraphError
from domiperf.graph_classes import corona_k1, line_graph, middle_graph, total_graph
from domiperf.invariants import parameter_profile
from domiperf.perfection import (
    PerfectionVerdict,
    SubsetWitness,
    perfect_by_definition,
    perfect_by_gamma2,
    perfect_by_theorem,
    search_minimal_imperfect,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

_METHODS = {
    "definition": perfect_by_definition,
    "gamma2": perfect_by_gamma2,
    "theorem": perfect_by_theorem,
}

_CONSTRUCTIONS = {
    "line": line_graph,
    "corona": corona_k1,
    "middle": middle_graph,
    "total": total_graph,
}


def _worker_count() -> int:
    """The CPU count, or DOMIPERF_WORKERS when it is smaller."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("DOMIPERF_WORKERS")
    if not env:
        return cpus
    try:
        workers = parse_count(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise FormatError(f"DOMIPERF_WORKERS is not a positive integer: {env!r}")
    return min(workers, cpus)


def _order(text: str) -> int:
    """An ``--order`` value: ASCII digits, with a leading "-" left for the drivers to refuse."""
    try:
        return -parse_count(text[1:]) if text.startswith("-") else parse_count(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an order: {text!r}") from None


def _pool_map(fn: Callable, items: Sequence, workers: int) -> list:
    """fn over items, results in input order; on a process pool if ``workers`` > 1 and
    there are at least two items.

    The pool takes the items in chunks of ceil(len / (4 * workers)): few enough
    round trips that a cheap item does not pay the pool's cost alone, and
    enough chunks to keep every worker busy.  A handful of items, such as
    ``verify``'s sweeps, goes one at a time, in the order given.  ``imap``
    raises the first error in input order once the chunks before it are back
    (``Pool.map`` would wait for every chunk), and leaving the block
    terminates every worker.
    """
    if not (workers > 1 and len(items) > 1):
        return list(map(fn, items))
    # imported here: the single-process commands never load the pool's modules
    from multiprocessing import Pool

    with Pool(workers) as pool:
        return list(pool.imap(fn, items, chunksize=-(-len(items) // (4 * workers))))


def _located(fn: Callable, located: tuple[str, GraphRecord]):
    """fn(rec) of a (file, record) pair; a GraphError names the record's file and line."""
    path, rec = located
    try:
        return fn(rec)
    except GraphError as exc:
        where = f"{path}: line {rec.line_number}" if path else f"line {rec.line_number}"
        raise GraphError(f"{where}: {exc}") from exc


def _map_records(fn: Callable, args) -> list:
    """fn over each input record in input order; on a process pool only when
    there are at least two records per worker."""
    located = _read_records(args)
    workers = _worker_count()
    return _pool_map(
        partial(_located, fn), located, workers if len(located) >= 2 * workers else 1
    )


def _read_records(args) -> list[tuple[str, GraphRecord]]:
    """(file, record) pairs of stdin (file "") or of each file parsed on its own."""
    located = []
    for path in args.files or [""]:
        with open(path, "rb") if args.files else nullcontext(sys.stdin.buffer) as f:
            data = f.read()
        try:
            located.extend((path, rec) for rec in read_records(data, args.format))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}" if path else str(exc)) from exc
    return located


def _one_based(S: Iterable[int]) -> list[int]:
    return sorted(v + 1 for v in S)


def _compute_record(rec: GraphRecord) -> tuple[str, bool]:
    G = rec.graph
    profile = parameter_profile(G)
    record = {
        "line": rec.line_number,
        "token": emit_graph6(G),
        "n": G.n,
        "m": G.m,
        "gamma": profile.gamma,
        "i": profile.ind_dom,
        "alpha_c": profile.common_ind,
        "alpha": profile.ind,
        "witness_gamma": _one_based(profile.witness_gamma),
        "witness_i": _one_based(profile.witness_ind_dom),
        "witness_alpha": _one_based(profile.witness_ind),
    }
    return json.dumps(record, sort_keys=True), True


def _verdict_json(rec: GraphRecord, verdict: PerfectionVerdict) -> dict:
    out = {
        "line": rec.line_number,
        "token": emit_graph6(rec.graph),
        "verdict": "perfect" if verdict.perfect else "imperfect",
        "method": verdict.method,
    }
    if isinstance(verdict.witness, SubsetWitness):
        out["witness"] = {
            "vertices": _one_based(verdict.witness.vertices),
            "gamma": verdict.witness.gamma,
            "alpha_c": verdict.witness.common_ind,
        }
    elif verdict.witness is not None:
        pattern, emb = verdict.witness
        out["witness"] = {
            "pattern": pattern.name,
            "embedding": _one_based(emb.mapping),
        }
    return out


def _classify_record(rec: GraphRecord, method: str) -> tuple[str, bool]:
    verdict = _METHODS[method](rec.graph)
    return json.dumps(_verdict_json(rec, verdict), sort_keys=True), verdict.perfect


def _construct_record(rec: GraphRecord, construction: str) -> tuple[str, bool]:
    return emit_graph6(_CONSTRUCTIONS[construction](rec.graph)), True


def cmd_compute(args) -> list[tuple[str, bool]]:
    return _map_records(_compute_record, args)


def cmd_classify(args) -> list[tuple[str, bool]]:
    return _map_records(partial(_classify_record, method=args.method), args)


def cmd_verify(args) -> list[tuple[str, bool]]:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    mapper = partial(_pool_map, workers=_worker_count())
    return [(r.to_json(), r.clean) for r in verify_suites(names, args.order, mapper)]


def cmd_search_minimal(args) -> list[tuple[str, bool]]:
    return [(emit_graph6(G), True) for G in search_minimal_imperfect(args.order)]


def cmd_construct(args) -> list[tuple[str, bool]]:
    return _map_records(partial(_construct_record, construction=args.construction), args)


def _add_io_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="input files (default: stdin)")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domiperf",
        description="Exact domination/independence invariants and perfection checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant quadruple per input graph")
    _add_io_arguments(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("classify", help="perfection verdict per input graph")
    _add_io_arguments(p)
    p.add_argument("--method", choices=tuple(_METHODS), default="theorem")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="exhaustive verification over a universe")
    p.add_argument("--order", type=_order, required=True)
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-minimal", help="minimal imperfect graphs of one order")
    p.add_argument("--order", type=_order, required=True)
    p.set_defaults(func=cmd_search_minimal)

    p = sub.add_parser("construct", help="derived graph per input graph")
    _add_io_arguments(p)
    p.add_argument("--construction", choices=tuple(_CONSTRUCTIONS), required=True)
    p.set_defaults(func=cmd_construct)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write records to a file")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, write its records to ``--output`` or stdout, return the exit status."""
    args = build_parser().parse_args(argv)
    try:
        records = args.func(args)
        out = args.output
        with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as stream:
            for line, _ in records:
                stream.write(line + "\n")
    except (FormatError, GraphError, OSError) as exc:
        print(f"domiperf: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(passed for _, passed in records) else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
