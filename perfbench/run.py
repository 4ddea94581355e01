"""Benchmark of the transmit CLI: one command for every workload and metric.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A record of the run, and with ``--trace 1`` its spans, are
written under ``perfbench/out/``. See ``perfbench/README.md`` for what each
metric means and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from exprs import DEFAULT_SEED  # noqa: E402
from worker import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "pass_s": "s",
    "op_ms_geomean": "ms",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.main.self_ms": "ms",
    "dsl.parse.ms": "ms",
    "dsl.validate.ms": "ms",
    "dsl.validate.calls_per_op": "1",
    "dsl.estimated_size.ms": "ms",
    "formulas.evaluate_expr.ms": "ms",
    "formulas.tree_triple.ms": "ms",
    "formulas.power_triple.ms": "ms",
    "formulas.gf_series.ms": "ms",
    "formulas.result_bits": "bit",
    "metrics.summarize.ms": "ms",
    "metrics.compare_rank.ms": "ms",
    "builders.build_expr.ms": "ms",
    "builders.build_expr.self_ms": "ms",
    "builders.vertices_built": "count",
    "builders.final_vertex_ratio": "1",
    "graph.graph_from_edges.ms": "ms",
    "graph.graph_transmission.ms": "ms",
    "graph.root_transmission.ms": "ms",
    "graph.distance_histogram.ms": "ms",
    "graph.oracle_pairs_per_s": "1/s",
    "graph.bfs_distances.calls": "count",
    "graph.bfs_useful_ratio": "1",
    "graph.edges_scanned": "count",
    "graph.bfs_ns_per_edge": "ns",
    "trace.overhead_ratio": "1",
}

TIMEOUT_S = 170  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "transmit" / "cli.py").is_file():
        print("error: run from the root of a transmit checkout (no src/transmit/cli.py here)", file=sys.stderr)
        return 2
    # A fixed hash seed makes str-keyed set and dict orders repeat between runs.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            worker, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(done.stderr[-4000:], file=sys.stderr)
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    run = json.loads(done.stdout.splitlines()[-1])

    report(args, run)
    untraced = run["untraced"]
    if args.trace:
        values = run["per_layer"]
        units = PER_LAYER
    else:
        values = {
            "pass_s": untraced["pass_s"],
            "op_ms_geomean": untraced["op_ms_geomean"],
            "ok_ratio": untraced["ok_ratio"],
            "setup_s": statistics.median(run["setup_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END
    # A wrong answer is incorrect; an op that raised or exited nonzero gave
    # no answer and is counted in `failed` only.
    record = {
        "correct": run["wrong_outputs"] == 0 and run["setup_ok"],
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({**run, "result": record}, indent=1))
    print(json.dumps(record))
    return 0


def report(args, run: dict) -> None:
    """Human-readable summary: every timing with its sample count and quartiles."""
    u = run["untraced"]
    q1, q2, q3 = u["pass_s_quartiles"]
    s = run["setup_s"]
    sq = statistics.quantiles(s, n=4, method="inclusive")
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(run['ops'])}  closed loop, 1 client")
    print(f"pass_s         {q2:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, {u['passes']} untraced passes)")
    print(f"op_ms_geomean  {u['op_ms_geomean']:.4f} ms  (over {len(run['ops'])} ops, each the median of {u['passes']})")
    print(f"ok_ratio       {u['ok_ratio']:.6f}  (fail_ratio {u['failed']}/{u['attempted']} = {1 - u['ok_ratio']:.6f})")
    if u["oracle_pairs_per_s"] is not None:
        print(f"oracle_pairs_per_s  {u['oracle_pairs_per_s']:.1f} pairs/s  (sum of V^2 over verify/hist ops / their latency)")
    print(f"setup_s        {statistics.median(s):.4f} s  (q1 {sq[0]:.4f}, q3 {sq[2]:.4f}, {len(s)} fresh processes)")
    print(f"peak_rss_mb    {run['peak_rss_mb']:.1f} MiB  (worker process)")
    print(f"drift diagnostics: calibration loop {statistics.median(run['calibration_s']):.4f} s, "
          f"`python -c pass` {statistics.median(run['spawn_pass_s']):.4f} s (medians of {len(run['calibration_s'])})")
    for failure in run["failures"]:
        print(f"failed op: {failure}")
    if not args.trace:
        return
    t = run["traced"]
    print(f"tracing overhead: traced pass_s {t['pass_s']:.4f} s over {t['passes']} passes "
          f"vs untraced {u['pass_s']:.4f} s (ratio {run['per_layer']['trace.overhead_ratio']:.3f})")
    exact = ", ".join(n for n in EXACT if n not in run["not_exact"])
    print(f"exact counters, same on every traced pass: {exact or 'none'}")
    if run["not_exact"]:
        print(f"counters that did NOT repeat: {', '.join(run['not_exact'])}")
    for name, unit in PER_LAYER.items():
        value = run["per_layer"][name]
        note = "  (computed)" if name == "graph.edges_scanned" else ""
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:32s} {text:>14} {unit}{note}")
    for target in run["absent"]:
        print(f"absent trace target: {target} (its spans read 0)")
    for broken in run["broken_counters"]:
        print(f"counter hook failed: {broken}")
    print(f"spans: {run['spans_file']}")


if __name__ == "__main__":
    sys.exit(main())
