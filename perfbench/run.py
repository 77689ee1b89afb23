"""The domiperf benchmark: three seeded, closed-loop workloads.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is loaded from ``src/``.  The
last line of stdout is one JSON object ``{correct, attempted, failed,
metrics}``; the line before it records the run's context.  With ``--trace 0``
the metrics are the end-to-end ones, measured without any wrapper; with
``--trace 1`` they are the per-layer ones of ``spans.PER_LAYER``.  Every
timed child process runs in gauged slices (``meter.py``), and times are
normalized to the machine's reference speed.  See README.md in this
directory for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gen
import meter
import oracles
import spans
import sparse_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
TRACEDIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
DEADLINE_S = 170.0

EXHAUSTIVE_STEPS = (
    ("verify", ["verify", "--order", "7", "--suite", "all"]),
    ("search_minimal", ["search-minimal", "--order", "6"]),
)
BATCH_STEPS = (
    ("compute", ["compute"]),
    ("theorem", ["classify", "--method", "theorem"]),
    ("gamma2", ["classify", "--method", "gamma2"]),
    ("definition", ["classify", "--method", "definition"]),
)
EXIT_USAGE = 2


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (as opposed to a wrong answer)."""


class Run:
    """One benchmark run: its inputs, deadline, child environment and failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.work = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.pop("DOMIPERF_WORKERS", None)
        if trace:
            # one process per command, so that no span is lost in a pool worker
            self.env["DOMIPERF_WORKERS"] = "1"
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.context: dict = {}
        self.children = 0

    # -- bookkeeping ---------------------------------------------------------

    def tally(self, attempted: int, errors: list[str]) -> None:
        """Count ``attempted`` operations, of which one failed per message in ``errors``."""
        self.attempted += attempted
        self.failed += min(len(errors), attempted)
        self.messages.extend(errors[:5])

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def repeat(self, once) -> list:
        """Call ``once`` until the next call would end after ``seconds`` (at least once)."""
        results = []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(once())
            took = time.perf_counter() - t0
            spent = time.perf_counter() - begin
            if spent + took > self.seconds or self.remaining() < 2 * took:
                return results

    # -- child processes -----------------------------------------------------

    def python(self, args: list[str]) -> tuple[meter.Measured, bytes]:
        """Run ``python3 ARGS`` as a child, timed in gauged slices; returns its stdout too."""
        self.children += 1
        out = self.work / f"child-{self.children}.out"
        err = self.work / f"child-{self.children}.err"
        try:
            m = meter.run_sliced([sys.executable, *args], self.env, ROOT, out, err,
                                 timeout=max(1.0, self.remaining()))
        except meter.Timeout as exc:
            raise BenchError(f"timed out: {exc}") from exc
        stderr = err.read_bytes()
        if stderr:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return m, out.read_bytes()

    def cli(self, argv: list[str]) -> tuple[meter.Measured, bytes]:
        return self.python(["-m", "domiperf.cli", *argv])

    def setup(self) -> tuple[float, Path]:
        """Generate the inputs SETUP_REPEATS times in fresh processes; median time."""
        times, digests = [], set()
        for k in range(SETUP_REPEATS):
            path = self.work / f"input-{k}.txt"
            m, _ = self.python([str(HERE / "gen.py"), self.workload, str(self.seed), str(path)])
            if m.code != 0:
                raise BenchError(f"input generation failed with exit code {m.code}")
            times.append(m.norm_s)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        if len(digests) != 1:
            raise BenchError("input generation is not deterministic")
        self.context.update(setup_times_s=[round(t, 4) for t in times])
        return statistics.median(times), self.work / "input-0.txt"


# -- checks shared by the untraced and traced runs ---------------------------

class Checker:
    """Checks outputs once per distinct output; repeats of one output reuse it."""

    def __init__(self, fn):
        self.fn = fn
        self.seen: dict[str, list[str]] = {}

    def __call__(self, *key_and_args) -> list[str]:
        digest = hashlib.sha256(repr(key_and_args).encode()).hexdigest()
        if digest not in self.seen:
            self.seen[digest] = self.fn(*key_and_args)
        return self.seen[digest]


def _minimal_tokens_errors(tokens: list[str]) -> list[str]:
    import networkx as nx

    def nx_graph(n, edges):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return g

    if len(tokens) != 10:
        return [f"expected 10 minimal imperfect graphs, got {len(tokens)}"]
    try:
        found = [nx_graph(*gen.decode_graph6(t)) for t in tokens]
    except ValueError as exc:
        return [str(exc)]
    named = [nx_graph(*oracles.h_graph(name)) for name in oracles.H_EDGES]
    errors = []
    for a in range(10):
        for b in range(a + 1, 10):
            if nx.is_isomorphic(found[a], found[b]):
                errors.append(f"{tokens[a]} and {tokens[b]} are isomorphic")
        if not any(nx.is_isomorphic(found[a], h) for h in named):
            errors.append(f"{tokens[a]} is none of H1..H10")
    return errors


def check_exhaustive_step(step: str, code: int, stdout: bytes) -> list[str]:
    if code != 0:
        return [f"{step} exited with {code}"]
    lines = stdout.decode().splitlines()
    if step == "search_minimal":
        return _minimal_tokens_errors(lines)
    try:
        reports = [json.loads(line) for line in lines]
        return _verify_report_errors(reports)
    except (ValueError, KeyError, TypeError, AttributeError):
        return ["verify printed malformed reports"]


def _verify_report_errors(reports: list[dict]) -> list[str]:
    """Reports of ``verify --order 7 --suite all``: theorem, chain, corollaries."""
    if len(reports) != 3:
        return [f"verify printed {len(reports)} reports, expected 3"]
    errors = []
    for r in reports:
        if r["counterexample_total"] or r["counterexamples"] or r["checked"] != r["agreements"]:
            errors.append(f"report {r['universe']!r} is not clean")
    want = (oracles.VERIFY_GRAPHS, oracles.VERIFY_GRAPHS, oracles.COROLLARY_GRAPHS)
    for r, expected in zip(reports, want):
        if r["checked"] != expected:
            errors.append(f"report {r['universe']!r} checked {r['checked']}, expected {expected}")
    return errors


def graphs_in_exhaustive(stdout: bytes) -> int:
    """Graphs checked by the verify reports, plus the order-6 universe searched."""
    try:
        checked = sum(json.loads(line)["checked"] for line in stdout.decode().splitlines())
    except (ValueError, KeyError, TypeError):
        return 0
    return checked + oracles.GRAPH_COUNTS[6]


def check_batch_step(step: str, code: int, stdout: bytes,
                     graphs: list, tokens: list[str]) -> list[str]:
    """Per-record failures of one batch command (one message per failed record)."""
    lines = stdout.decode().splitlines()
    if len(lines) != len(graphs):
        return [f"{step}: {len(lines)} records for {len(graphs)} graphs"] * len(graphs)
    errors = []
    imperfect = False
    for k, (line, (n, edges), token) in enumerate(zip(lines, graphs, tokens)):
        try:
            rec = json.loads(line)
            bad = [] if (rec["line"], rec["token"]) == (k + 1, token) else ["provenance"]
            if step == "compute":
                bad += oracles.check_compute_record(n, edges, rec)
            else:
                imperfect |= rec["verdict"] == "imperfect"
                bad += oracles.check_verdict_witness(n, edges, rec)
        except (ValueError, KeyError, TypeError, AttributeError):
            bad = ["malformed record"]
        if bad:
            errors.append(f"{step} line {k + 1}: {'; '.join(bad)}")
    want = 1 if imperfect else 0
    if code != want:
        errors = [f"{step} exited with {code}, expected {want}"] * len(graphs)
    return errors


def _verdict(line: bytes):
    try:
        return json.loads(line).get("verdict")
    except (ValueError, AttributeError):
        return None


def verdict_disagreements(outputs: dict[str, bytes]) -> list[str]:
    verdicts = {step: [_verdict(line) for line in out.splitlines()]
                for step, out in outputs.items() if step != "compute"}
    errors = []
    for k, row in enumerate(zip(*verdicts.values())):
        if len(set(row)) != 1:
            errors.append(f"line {k + 1}: methods disagree {row}")
    return errors


def read_batch(path: Path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines, [gen.decode_graph6(t) for t in lines]


# -- the workloads --------------------------------------------------------------

def _end_to_end(run: Run, reps: list[list[meter.Measured]], graphs: int):
    """End-to-end metrics from the children of each repetition of the sequence.

    A request's time is the median of its normalized times over the
    repetitions; ``wall_s`` is their sum.  Each repetition's raw and
    normalized total is kept in the context.
    """
    medians = [statistics.median(m.norm_s for m in ms) for ms in zip(*reps)]
    wall = sum(medians)
    run.context.update(
        repetitions=len(reps),
        repetition_walls_s=[round(sum(m.norm_s for m in rep), 4) for rep in reps],
        repetition_raw_walls_s=[round(sum(m.raw_s for m in rep), 4) for rep in reps])
    return medians, {
        "wall_s": wall,
        "graphs_per_s": graphs / wall,
        "peak_rss_mb": max(m.maxrss_kb for rep in reps for m in rep) / 1024,
    }


def cli_workload(run: Run, steps, check, attempted_per_step: int):
    """Closed loop over CLI commands: each starts in a fresh process after the last ends.

    Returns the first repetition's outputs and each repetition's children.
    """
    def once():
        return [run.cli(argv) for _, argv in steps]

    reps = run.repeat(once)
    for rep in reps:
        for (name, _), (m, out) in zip(steps, rep):
            run.tally(attempted_per_step, check(name, m.code, out))
    outputs = {name: out for (name, _), (_, out) in zip(steps, reps[0])}
    return outputs, [[m for m, _ in rep] for rep in reps]


def run_exhaustive(run: Run, _input: Path) -> dict:
    outputs, reps = cli_workload(run, EXHAUSTIVE_STEPS, Checker(check_exhaustive_step), 1)
    graphs = graphs_in_exhaustive(outputs["verify"])
    medians, metrics = _end_to_end(run, reps, max(graphs, 1))
    run.context.update(graphs=graphs,
                       steps_s=dict(zip((name for name, _ in EXHAUSTIVE_STEPS), medians)))
    return metrics


def run_batch(run: Run, input_path: Path) -> dict:
    tokens, graphs = read_batch(input_path)
    checker = Checker(lambda step, code, out: check_batch_step(step, code, out, graphs, tokens))
    steps = [(name, argv + [str(input_path)]) for name, argv in BATCH_STEPS]
    outputs, reps = cli_workload(run, steps, checker, len(graphs))
    run.tally(len(graphs), verdict_disagreements(outputs))
    medians, metrics = _end_to_end(run, reps, len(graphs))
    run.context.update(
        graphs=len(graphs),
        orders=sorted({n for n, _ in graphs}),
        imperfect=outputs["theorem"].count(b'"imperfect"'),
        steps_s=dict(zip((name for name, _ in steps), medians)),
        **{f"{name}_graphs_per_s": len(graphs) / t for (name, _), t in zip(steps, medians)},
    )
    return metrics


def _sparse_errors(families, graphs, records) -> list[str]:
    errors = []
    for fam, (n, edges), rec in zip(families, graphs, records):
        if "error" in rec:
            errors.append(f"{fam} n={n}: raised {rec['error']}")
            continue
        try:
            theorem = tuple(rec["theorem"])
            bad = oracles.check_sparse_result(fam, n, edges, rec["values"], rec["witnesses"],
                                              theorem)
        except (KeyError, TypeError, ValueError):
            bad = ["malformed record"]
        if bad:
            errors.append(f"{fam} n={n}: {'; '.join(bad)}")
    return errors


def run_sparse(run: Run, input_path: Path) -> dict:
    """Closed loop: each pass over the graphs is one fresh library process.

    A graph's time is the median over the passes of the normalized time of
    its two calls; ``wall_s`` is their sum.
    """
    families, raw = sparse_child.read_sparse(str(input_path))
    passes = run.repeat(lambda: run.python([str(HERE / "sparse_child.py"), str(input_path)]))
    per_graph = []
    for m, out in passes:
        records = _sparse_records(out)
        if m.code != 0 or len(records) != len(raw):
            run.tally(len(raw), [f"sparse pass exited with {m.code}, "
                                 f"{len(records)} records for {len(raw)} graphs"] * len(raw))
            continue
        run.tally(len(raw), _sparse_errors(families, raw, records))
        per_graph.append([m.normalize(*rec["t"]) for rec in records])
    if not per_graph:
        raise BenchError("no sparse pass completed")
    times = [statistics.median(ts) for ts in zip(*per_graph)]
    wall = sum(times)
    deciles = statistics.quantiles(times, n=10)
    run.context.update(
        graphs=len(raw),
        orders=[min(n for n, _ in raw), max(n for n, _ in raw)],
        repetitions=len(passes),
        repetition_walls_s=[round(sum(ts), 4) for ts in per_graph],
        repetition_raw_walls_s=[round(m.raw_s, 4) for m, _ in passes],
        graph_p50_ms=1000 * statistics.median(times),
        graph_p90_ms=1000 * deciles[8],
        latency_samples=len(times),
        samples_beyond_p90=sum(t > deciles[8] for t in times),
    )
    return {
        "wall_s": wall,
        "graphs_per_s": len(raw) / wall,
        "peak_rss_mb": max(m.maxrss_kb for m, _ in passes) / 1024,
    }


def _sparse_records(stdout: bytes) -> list[dict]:
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return []


# -- the traced run ---------------------------------------------------------------

def _timeless(stdout: bytes) -> bytes:
    """Verify reports with their elapsed_seconds zeroed; other output unchanged."""
    return re.sub(rb'"elapsed_seconds": [0-9.e-]+', b'"elapsed_seconds": 0', stdout)


def trace_cli_steps(run: Run, steps, check, outdir: Path) -> tuple[list, float, float]:
    """Each command once plain and once traced, both in one process with one worker."""
    processes, plain_s, traced_s = [], 0.0, 0.0
    for name, argv in steps:
        plain, out_plain = run.cli(argv)
        spans_path = outdir / f"{name}.json"
        traced, out = run.python([str(HERE / "traced_cli.py"), str(spans_path), *argv])
        plain_s += plain.norm_s
        traced_s += traced.norm_s
        errors = check(name, traced.code, out)
        if (traced.code, _timeless(out)) != (plain.code, _timeless(out_plain)):
            errors.append(f"{name}: traced output differs from the plain command's")
        if spans_path.is_file():
            processes.append(json.loads(spans_path.read_text()))
        else:
            errors.append(f"{name}: the traced command wrote no spans")
        run.tally(1, errors)
    return processes, plain_s, traced_s


def traced_sparse(run: Run, input_path: Path, outdir: Path) -> tuple[list, float, float]:
    """One pass plain and one traced, both in this process (raw wall times)."""
    from domiperf.graph import build_graph
    import domiperf.invariants as invariants
    import domiperf.perfection as perfection

    families, raw = sparse_child.read_sparse(str(input_path))
    graphs = [build_graph(n, edges) for n, edges in raw]
    plain, _ = sparse_child.sparse_pass(graphs, invariants.parameter_profile,
                                        perfection.perfect_by_theorem)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced, results = sparse_child.sparse_pass(graphs, invariants.parameter_profile,
                                                   perfection.perfect_by_theorem)
    finally:
        spans.uninstall(undo)
    tracer.dump(str(outdir / "sparse.json"))
    records = [sparse_child.as_record(r) for r in results]
    run.tally(len(graphs), _sparse_errors(families, raw, records))
    return [tracer.spans], sum(b - a for a, b in plain), sum(b - a for a, b in traced)


def run_traced(run: Run, input_path: Path) -> dict:
    outdir = TRACEDIR / f"trace-{run.workload}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    if run.workload == "sparse":
        processes, plain_s, traced_s = traced_sparse(run, input_path, outdir)
    elif run.workload == "exhaustive":
        processes, plain_s, traced_s = trace_cli_steps(run, EXHAUSTIVE_STEPS,
                                                  check_exhaustive_step, outdir)
        errors = []
        for order, filt, count in spans.enumeration_counts(processes):
            want = (oracles.TREE_COUNTS if filt == "tree" else oracles.GRAPH_COUNTS).get(order)
            if filt in (None, "tree") and count != want:
                errors.append(f"order {order} ({filt or 'all'}): {count} graphs, expected {want}")
        run.tally(1, errors)
    else:
        tokens, graphs = read_batch(input_path)
        steps = [(name, argv + [str(input_path)]) for name, argv in BATCH_STEPS]
        processes, plain_s, traced_s = trace_cli_steps(
            run, steps, lambda s, c, o: check_batch_step(s, c, o, graphs, tokens)[:1], outdir)
    metrics = dict.fromkeys(spans.PER_LAYER, 0.0)
    metrics.update(spans.layer_metrics(processes))
    metrics["cli.workers"] = float(_default_workers())
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    run.context.update(traced_s=traced_s, plain_s=plain_s, spans_dir=str(outdir.relative_to(ROOT)))
    return metrics


def _default_workers() -> int:
    """The worker count the CLI resolves when DOMIPERF_WORKERS is unset (1 without a pool)."""
    from domiperf import cli

    resolve = getattr(cli, "_worker_count", None)
    if resolve is None:
        return 1
    saved = os.environ.pop("DOMIPERF_WORKERS", None)
    try:
        return resolve()
    finally:
        if saved is not None:
            os.environ["DOMIPERF_WORKERS"] = saved


UNITS = {"graphs_per_s": "1/s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exhaustive", "batch", "sparse"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "domiperf" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'domiperf'} is missing",
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so that its stopped children are killed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, input_path = run.setup()
        if run.trace:
            metrics = run_traced(run, input_path)
        else:
            metrics = {"setup_s": setup_s}
            metrics.update({"exhaustive": run_exhaustive, "batch": run_batch,
                            "sparse": run_sparse}[run.workload](run, input_path))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for message in run.messages[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    run.context.update(
        workload=run.workload, seed=run.seed, seconds=run.seconds, trace=int(run.trace),
        nproc=os.cpu_count(), python=platform.python_version(),
        cli_workers=1 if run.trace else _default_workers(),
        setup_s=setup_s, failed_share=run.failed / max(run.attempted, 1),
    )
    print(json.dumps({"context": run.context}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
