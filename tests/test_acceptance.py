"""Acceptance suite: one test per criterion, zero tolerance (exact integers).

Every expected value here is either asserted against the BFS oracle inside
the test itself or is an exact algebraic identity between two independent
computation routes. Run with ``pytest tests/test_acceptance.py -v -s`` to
see one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import transmit.cli
from transmit.builders import build_expr
from transmit.cli import main
from transmit.dsl import estimated_size, parse
from transmit.formulas import (
    TransmissionTriple,
    complete_triple,
    evaluate_expr,
    gf_series,
    path_triple,
    power_triple,
    tree_triple,
    wedge_triple,
)
from transmit.metrics import summarize

from expr_corpus import PROPERTY_COUNT, PROPERTY_SEED, oracle_corpus, random_expressions
from oracle_util import built, oracle_triple
from recurrences import power_coefficients, power_recurrence, tree_recurrence


def _report(name: str, failures: list[str], extra: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" ({extra})" if extra else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert not failures, f"{name}: {len(failures)} failure(s), e.g. {failures[:3]}"


def _run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_oracle_formula_equivalence_corpus():
    started = time.perf_counter()
    failures = []
    corpus = oracle_corpus()
    for text in corpus:
        expr = parse(text)
        closed = evaluate_expr(expr)
        graph = build_expr(expr)
        measured = oracle_triple(graph)
        if closed != measured:
            failures.append(f"{text}: closed {closed} != oracle {measured}")
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1: oracle equivalence corpus",
        failures,
        f"{len(corpus)} expressions, {elapsed:.1f}s",
    )


def test_criterion_2_binary_tree_identity():
    failures = []
    for k in range(17):
        identity = 2 ** (k + 2) * ((k - 2) * 2 ** (k + 1) + k + 4)
        for route, triple in (("recurrence", tree_recurrence(2, k)), ("closed form", tree_triple(2, k))):
            if triple.delta != identity:
                failures.append(f"depth {k}: {route} {triple.delta} != {identity}")
    _report("criterion 2: binary-tree closed form, depth 0..16", failures)


def test_criterion_3_generating_function_check():
    failures = []
    for n in range(2, 7):
        for k, coefficient in enumerate(gf_series(n, 8)):
            recurrence = tree_recurrence(n, k + 1).delta
            if coefficient != recurrence:
                failures.append(f"n={n} k={k}: {coefficient} != {recurrence}")
    _report("criterion 3: series coefficients vs recurrence, n=2..6", failures)


def test_criterion_4_polynomial_consistency():
    failures = []
    for n in range(1, 11):
        if power_coefficients(n, 1) != (1, 0):
            failures.append(f"n={n}: first coefficients {power_coefficients(n, 1)}")
    for n in range(2, 11):
        # complete(n) and path(n) pin down both coefficients for n >= 3
        for base in (complete_triple(n), path_triple(n)):
            for k in range(1, 13):
                recurrence = power_recurrence(base, k)
                closed = power_triple(base, k)
                if recurrence != closed:
                    failures.append(f"n={n} k={k}: {recurrence} != {closed}")
    _report("criterion 4: power coefficients recurrence vs closed form", failures)


def test_criterion_5_tree_closed_form_vs_recurrence():
    failures = []
    for n in range(2, 7):
        for k in range(0, 9):
            recurrence = tree_recurrence(n, k)
            closed = tree_triple(n, k)
            if closed != recurrence:
                failures.append(f"n={n} k={k}: {closed} != {recurrence}")
    _report("criterion 5: tree closed forms vs recurrence, n=2..6 k=0..8", failures)


def test_criterion_6_spot_values():
    failures = []

    def check(label, graph, expected_delta, expected_delta0):
        measured = oracle_triple(graph)
        if (measured.delta, measured.delta0) != (expected_delta, expected_delta0):
            failures.append(f"{label}: oracle says {measured}")

    check("binary tree depth 2", built("tree(2,2)"), 96, 10)
    if tree_triple(2, 2).delta != 96 or tree_triple(2, 2).delta0 != 10:
        failures.append("tree_triple(2,2) drifted from 96/10")

    check("mesh 2x3", built("mesh(2,3)"), 50, 9)
    if evaluate_expr(parse("mesh(2,3)")).delta != 50:
        failures.append("mesh(2,3) closed form drifted from 50")

    check("edge cubed", built("power(complete(2),3)"), 136, 12)
    if evaluate_expr(parse("power(complete(2),3)")).delta != 136:
        failures.append("power(complete(2),3) closed form drifted from 136")

    for n in range(1, 11):
        text = "wedge(" + ",".join(["complete(2)"] * n) + ")"
        check(f"wedge of {n} edges", built(text), 2 * n**2, n)
        if evaluate_expr(parse(text)).delta != 2 * n**2:
            failures.append(f"{text}: closed form drifted from {2 * n**2}")
    _report("criterion 6: oracle-verified spot values", failures)


def test_criterion_7_property_suite_on_random_expressions():
    failures = []
    exprs = random_expressions(PROPERTY_COUNT, seed=PROPERTY_SEED)
    for index, expr in enumerate(exprs):
        triple = evaluate_expr(expr)
        n = triple.size
        if triple.delta % 2 != 0:
            failures.append(f"#{index}: odd delta {triple.delta}")
        if triple.delta < n * (n - 1):
            failures.append(f"#{index}: delta below pair floor")
        if estimated_size(expr) != n:
            failures.append(f"#{index}: estimated size {estimated_size(expr)} != {n}")
        report = summarize("x", triple)
        if n >= 2 and report["mean_distinct"] * (n * (n - 1)) != triple.delta:
            failures.append(f"#{index}: mean_distinct identity broken")

    # permutation invariance of the wedge, over triples drawn from the corpus
    import random as random_module

    rng = random_module.Random(PROPERTY_SEED + 1)
    triples = [evaluate_expr(e) for e in exprs[:60]]
    for start in range(0, 57, 3):
        group = triples[start : start + 3]
        shuffled = list(group)
        rng.shuffle(shuffled)
        if wedge_triple(shuffled) != wedge_triple(group):
            failures.append(f"wedge permutation at {start}")
    _report(
        "criterion 7: property suite on random expressions",
        failures,
        f"{len(exprs)} expressions",
    )


def test_criterion_8_cli_contract(monkeypatch):
    failures = []
    started = time.perf_counter()

    corpus = oracle_corpus()
    for text in corpus:
        code, out, err = _run_cli("verify", text)
        if code != 0:
            failures.append(f"verify {text}: exit {code}, stderr {err!r}")

    # a deliberately corrupted formula must be caught as a mismatch
    real = transmit.cli.evaluate_expr

    def corrupted(expr):
        triple = real(expr)
        return TransmissionTriple(triple.size, triple.delta + 2, triple.delta0)

    with monkeypatch.context() as patch:
        patch.setattr(transmit.cli, "evaluate_expr", corrupted)
        code, out, _ = _run_cli("verify", "tree(2,2)")
        if code != 2 or "MISMATCH" not in out:
            failures.append(f"corrupted formula: exit {code}")

    code, _, err = _run_cli("verify", "power(complete(2),30)")
    if code != 3 or str(2**30) not in err:
        failures.append(f"oversize: exit {code}, stderr {err!r}")

    code, out, _ = _run_cli("eval", "power(complete(2),40)", "--format", "json")
    payload = json.loads(out)
    reparsed = (int(payload["size"]), int(payload["delta"]), int(payload["delta0"]))
    expected = evaluate_expr(parse("power(complete(2),40)"))
    if reparsed != (expected.size, expected.delta, expected.delta0):
        failures.append("JSON round trip lost precision")

    elapsed = time.perf_counter() - started
    _report(
        "criterion 8: CLI contract",
        failures,
        f"{len(corpus)} verify runs, {elapsed:.1f}s",
    )
