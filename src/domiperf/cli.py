"""Batch command-line front end.

One JSON record per input graph on stdout; witness vertex sets use 1-based
labels matching the edge-list convention.  Exit codes: 0 success/verified,
1 a property fails or a counterexample exists, 2 usage or parse errors.
``classify`` maps its records over a process pool; DOMIPERF_WORKERS, a positive
integer, overrides its worker count.  ``compute`` is cheaper per graph than the
pool's overhead and runs in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable, Sequence

from domiperf.formats import (
    FormatError,
    GraphRecord,
    emit_graph6,
    iter_graph6,
    parse_edge_list,
)
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
    env = os.environ.get("DOMIPERF_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise FormatError(f"DOMIPERF_WORKERS is not a positive integer: {env!r}")
    return workers


def _map_records(
    fn: Callable, located: Sequence[tuple[str, GraphRecord]], workers: int = 1
) -> list:
    """fn over each record in input order, on a process pool if ``workers`` > 1.

    Results arrive in input order, so an error belongs to the record after the
    last result; it is re-raised naming that record's file and line.
    """
    records = [rec for _, rec in located]
    results: list = []
    parallel = workers > 1 and len(records) >= 2 * workers
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        try:
            for result in pool.map(fn, records) if pool else map(fn, records):
                results.append(result)
        except GraphError as exc:
            path, rec = located[len(results)]
            where = f"{path}: line {rec.line_number}" if path else f"line {rec.line_number}"
            raise GraphError(f"{where}: {exc}") from exc
    return results


def _parse_records(text: str, fmt: str) -> list[GraphRecord]:
    if fmt == "edges":
        return [GraphRecord(1, parse_edge_list(text))]
    return list(iter_graph6(text.splitlines()))


def _read_records(args) -> list[tuple[str, GraphRecord]]:
    """(file, record) pairs of stdin (file "") or of each file parsed on its own."""
    if not args.files:
        return [("", rec) for rec in _parse_records(sys.stdin.read(), args.format)]
    located = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            located.extend((path, rec) for rec in _parse_records(text, args.format))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return located


def _one_based(S: Iterable[int]) -> list[int]:
    return sorted(v + 1 for v in S)


def _emit(lines: Iterable[str], output: str | None) -> None:
    stream = open(output, "w", encoding="utf-8") if output else sys.stdout
    try:
        for line in lines:
            stream.write(line + "\n")
    finally:
        if output:
            stream.close()


def _compute_record(rec: GraphRecord) -> str:
    G = rec.graph
    profile = parameter_profile(G)
    return json.dumps(
        {
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
        },
        sort_keys=True,
    )


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


def cmd_compute(args) -> int:
    _emit(_map_records(_compute_record, _read_records(args)), args.output)
    return EXIT_OK


def _classify_record(rec: GraphRecord, method: str) -> tuple[str, bool]:
    verdict = _METHODS[method](rec.graph)
    return json.dumps(_verdict_json(rec, verdict), sort_keys=True), verdict.perfect


def cmd_classify(args) -> int:
    results = _map_records(
        partial(_classify_record, method=args.method), _read_records(args), _worker_count()
    )
    _emit((line for line, _ in results), args.output)
    return EXIT_OK if all(ok for _, ok in results) else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    from domiperf import enumeration

    suites = {
        "theorem": lambda: enumeration.verify_theorem(args.order),
        "chain": lambda: enumeration.verify_chain(args.order),
        "corollaries": lambda: enumeration.verify_corollaries(args.order),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    reports = [suites[name]() for name in names]
    _emit((r.to_json() for r in reports), args.output)
    return EXIT_OK if all(r.clean for r in reports) else EXIT_NEGATIVE


def cmd_search_minimal(args) -> int:
    found = search_minimal_imperfect(args.order)
    _emit((emit_graph6(G) for G in found), args.output)
    return EXIT_OK


def cmd_construct(args) -> int:
    build = _CONSTRUCTIONS[args.construction]
    results = _map_records(lambda rec: emit_graph6(build(rec.graph)), _read_records(args))
    _emit(results, args.output)
    return EXIT_OK


def _add_io_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="*", help="input files (default: stdin)")
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.add_argument("--output", default=None, help="write records to a file")


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
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--suite", choices=("theorem", "corollaries", "chain", "all"), default="all"
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-minimal", help="minimal imperfect graphs of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_search_minimal)

    p = sub.add_parser("construct", help="derived graph per input graph")
    _add_io_arguments(p)
    p.add_argument(
        "--construction", choices=tuple(_CONSTRUCTIONS), required=True
    )
    p.set_defaults(func=cmd_construct)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GraphError, OSError) as exc:
        print(f"domiperf: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
