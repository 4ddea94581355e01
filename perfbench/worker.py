"""Run one workload in this (fresh) process and print one JSON line.

One client, closed loop: ``transmit.cli.main(argv)`` is called in-process,
the next op only after the previous one returned, with stdout and stderr
captured. Every op of a pass is checked after the pass, outside its timing.
An op fails when it raises out of ``main``, returns a nonzero exit code or
prints a wrong value; its latency is still counted, up to the failure. Only
the last is a wrong answer; the others gave none.

Passes repeat until the next one would end past ``--seconds``, with a
minimum number of passes. With ``--trace 1`` untraced and traced passes
alternate: the traced ones give the per-layer metrics, the untraced ones
the tracing overhead.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, busy_and_self
from workloads import SMALLEST_COMMAND, WORKLOADS, make_ops

MIN_PASSES = 3  # untraced; with --trace 1, 2 of each kind

OUT_DIR = Path(__file__).resolve().parent / "out"

# Warm-up calls, one per command, so that lazy imports and first-call
# set-up inside the package are not timed.
WARM_UP = [
    ["eval", "path(2)"],
    ["verify", "path(2)"],
    ["hist", "path(2)"],
    ["compare", "path(2)", "path(3)"],
    ["series", "--arity", "2", "--terms", "2"],
]


def calibration_s() -> float:
    """A fixed pure-Python loop; a drift diagnostic, never used to scale a metric."""
    start = perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i % 7
    return perf_counter() - start


def run_pass(ops, call) -> dict:
    gc.collect()
    results = []
    start = perf_counter()
    for i, op in enumerate(ops):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code, error = call(i, op.argv), None
            except Exception as exc:  # the known failures raise out of main
                code, error = None, f"raised {type(exc).__name__}: {str(exc)[:80]}"
            results.append((perf_counter() - t0, code, error, out.getvalue()))
    wall = perf_counter() - start
    failures, wrong = {}, 0
    for i, (op, (_, code, error, text)) in enumerate(zip(ops, results)):
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None and (reason := op.check(text)):
            error = f"wrong output: {reason}"
            wrong += 1
        if error:
            failures[i] = error
    return {"wall": wall, "latency": [r[0] for r in results], "failures": failures, "wrong": wrong}


def end_to_end(ops, passes) -> dict:
    walls = [p["wall"] for p in passes]
    per_op = [statistics.median(p["latency"][i] for p in passes) for i in range(len(ops))]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    oracle = [i for i, op in enumerate(ops) if op.vertices]
    pairs = sum(ops[i].vertices ** 2 for i in oracle) * len(passes)
    oracle_s = sum(p["latency"][i] for p in passes for i in oracle)
    return {
        "pass_s": statistics.median(walls),
        "pass_s_quartiles": statistics.quantiles(walls, n=4, method="inclusive"),
        "pass_walls": walls,
        "passes": len(passes),
        "op_ms_geomean": 1e3 * math.exp(statistics.fmean(map(math.log, per_op))),
        "op_ms_median_each": [1e3 * t for t in per_op],
        "attempted": attempted,
        "failed": failed,
        "ok_ratio": 1 - failed / attempted,
        "oracle_pairs_per_s": pairs / oracle_s if oracle else None,
    }


# Span names whose busy time is reported as ``<name>.ms``.
BUSY = (
    "dsl.parse",
    "dsl.validate",
    "dsl.estimated_size",
    "formulas.evaluate_expr",
    "formulas.tree_triple",
    "formulas.power_triple",
    "formulas.gf_series",
    "metrics.summarize",
    "metrics.compare_rank",
    "builders.build_expr",
    "graph.graph_from_edges",
    "graph.graph_transmission",
    "graph.root_transmission",
    "graph.distance_histogram",
)


def per_layer(ops, spans: list[list], first: int, counts) -> dict:
    """Per-layer metrics of the traced pass whose spans start at ``first``."""
    busy, own = busy_and_self(spans, first)
    values = {f"{name}.ms": 1e3 * busy[name] for name in BUSY}
    oracle_s = busy["graph.graph_transmission"] + busy["graph.root_transmission"] + busy["graph.distance_histogram"]
    bfs_calls = counts["graph.bfs_distances.calls"]
    built = counts["builders.vertices_built"]
    edges = counts["graph.edges_scanned"]
    values.update({
        "cli.main.self_ms": 1e3 * own["cli.main"],
        "builders.build_expr.self_ms": 1e3 * own["builders.build_expr"],
        "dsl.validate.calls_per_op": counts["dsl.validate.calls"] / len(ops),
        "formulas.result_bits": counts["formulas.result_bits"],
        "builders.vertices_built": built,
        "builders.final_vertex_ratio": counts["builders.vertices_final"] / built if built else 0.0,
        "graph.oracle_pairs_per_s": sum(op.vertices**2 for op in ops) / oracle_s if oracle_s else 0.0,
        "graph.bfs_distances.calls": bfs_calls,
        "graph.bfs_useful_ratio": sum(op.vertices for op in ops) / bfs_calls if bfs_calls else 0.0,
        "graph.edges_scanned": edges,
        "graph.bfs_ns_per_edge": 1e9 * busy["graph.bfs_distances"] / edges if edges else 0.0,
    })
    return values


# Counters that must read the same on every traced pass of a run.
EXACT = (
    "dsl.validate.calls_per_op",
    "formulas.result_bits",
    "builders.vertices_built",
    "builders.final_vertex_ratio",
    "graph.bfs_distances.calls",
    "graph.bfs_useful_ratio",
    "graph.edges_scanned",
)


def sample_setup(argv: list[str], wall: float, samples: dict) -> None:
    """Time fresh ``python -m transmit`` processes after a pass, about one
    per 1.5 s of pass time, so that set-up is sampled across the whole run
    like the passes are. Each gets a bare interpreter start and a
    calibration loop beside it as drift diagnostics."""
    for _ in range(max(2, round(wall / 1.5))):
        start = perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        samples["setup_s"].append(perf_counter() - start)
        samples["setup_ok"] &= done.returncode == 0 and done.stdout.strip() != ""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], timeout=60)
    samples["spawn_pass_s"].append(perf_counter() - start)
    samples["calibration_s"].append(calibration_s())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from transmit.cli import main

    ops = make_ops(workload, seed)
    for argv in WARM_UP:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    smallest = [sys.executable, "-m", "transmit", *SMALLEST_COMMAND[workload]]
    subprocess.run(smallest, capture_output=True, timeout=60)  # writes the bytecode cache
    samples = {"setup_s": [], "setup_ok": True, "spawn_pass_s": [], "calibration_s": []}

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            first = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            try:
                traced.append(run_pass(ops, lambda i, argv: tracer.call(i, main, argv)))
            finally:
                tracer.uninstall()
            layers.append(per_layer(ops, tracer.spans, first, tracer.counts))
        else:
            untraced.append(run_pass(ops, lambda i, argv: main(argv)))
            sample_setup(smallest, untraced[-1]["wall"], samples)
        walls = [p["wall"] for p in untraced + traced]
        enough = min(len(untraced), len(traced)) >= 2 if trace else len(untraced) >= MIN_PASSES
        if enough and perf_counter() - start + statistics.median(walls) > seconds:
            break

    result = {
        "workload": workload,
        "seed": seed,
        "ops": [op.label for op in ops],
        "untraced": end_to_end(ops, untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **samples,
        "wrong_outputs": sum(p["wrong"] for p in untraced + traced),
        "failures": sorted({ops[i].label + ": " + why for p in untraced + traced for i, why in p["failures"].items()}),
    }
    if trace:
        result["traced"] = end_to_end(ops, traced)
        # Exact counters are taken from the first traced pass, timings are medians.
        result["per_layer"] = {
            name: layers[0][name] if name in EXACT else statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        result["per_layer"]["trace.overhead_ratio"] = (
            result["traced"]["pass_s"] / result["untraced"]["pass_s"]
        )
        result["not_exact"] = [name for name in EXACT if len({layer[name] for layer in layers}) > 1]
        result["absent"] = tracer.absent
        result["broken_counters"] = sorted(tracer.broken_counters)
        result["spans_file"] = write_spans(workload, seed, tracer.spans)
    return result


def write_spans(workload: str, seed: int, spans: list[list]) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as f:
        for name, start, end, parent, op in spans:
            f.write(json.dumps([name, start, end, parent, op]) + "\n")
    return str(path.relative_to(Path.cwd()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
