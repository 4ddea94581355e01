"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import exprs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from transmit.cli import main  # noqa: E402


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_default_seed_corpus_equals_the_test_suite_corpus():
    from expr_corpus import oracle_corpus

    assert [exprs.render(e) for e in exprs.oracle_corpus()] == oracle_corpus()


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_decimal_text_needs_no_digit_limit():
    assert workloads.decimal_text(0) == "0"
    assert workloads.decimal_text(12345) == "12345"
    assert workloads.decimal_text(10**9000) == "1" + "0" * 9000
    n = 7**9000 + 1234
    text = workloads.decimal_text(n)
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
    assert value == n


def test_expected_outputs_match_the_package_on_small_inputs():
    ops = [
        workloads.eval_op(("tree", 2, 6)),
        workloads.eval_op(("power", ("cycle", 5), 3)),
        workloads.eval_op(("wedge", (("mesh", (3, 4)), ("star", 5), ("tree", 1, 4)))),
        workloads.verify_op(("rprod", ("complete", 4), ("path", 3))),
        workloads.hist_op(("attach", ("cycle", 6))),
        workloads.series_op(3, 12),
        workloads.compare_op([("tree", 2, 9), ("power", ("complete", 3), 4), ("mesh", (5, 6, 7)), ("complete", 1)]),
    ]
    for op in ops:
        code, out = _call(op.argv)
        assert code == 0 and op.check(out) is None, op.label


def test_wrong_output_is_reported():
    op = workloads.eval_op(("tree", 2, 6))
    code, out = _call(op.argv)
    delta = op.expected["delta"]
    assert code == 0 and op.check(out.replace(f"  {delta}\n", f"  {int(delta) + 2}\n")) == "delta differs"
    assert op.check("") == "expr differs"
    assert workloads.verify_op(("path", 3)).check("PASS\n") == "size differs"


def test_every_generated_op_has_an_expected_output():
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 5)
        assert ops and all(op.expected for op in ops)
        assert [op.argv for op in ops] == [op.argv for op in workloads.make_ops(name, 5)]


def test_tracer_counts_and_restores():
    import transmit.graph

    original = transmit.graph.bfs_distances
    targets = [*TARGETS, ("transmit.graph", "no_such_function", "graph.gone")]
    tracer = Tracer(targets)
    tracer.install()
    try:
        code, out = tracer.call(0, _call, ["verify", "cycle(7)"])
    finally:
        tracer.uninstall()
    assert code == 0 and out.rstrip().endswith("PASS")
    assert transmit.graph.bfs_distances is original
    assert tracer.absent == ["transmit.graph.no_such_function"]
    assert tracer.counts["dsl.validate.calls"] == 3
    assert tracer.counts["graph.bfs_distances.calls"] == 7 + 3
    assert tracer.counts["graph.edges_scanned"] == 10 * 14
    assert tracer.counts["builders.vertices_built"] == 7
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "graph.gone" not in names

