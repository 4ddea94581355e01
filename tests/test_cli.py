"""Command-line contract: formats, exit codes, stream discipline."""

from __future__ import annotations

import csv
import decimal
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transmit.cli
import transmit.dsl
import transmit.errors
import transmit.formulas
from transmit.cli import COMMANDS, main
from transmit.dsl import SPECS, estimated_size, parse, render
from transmit.errors import decimal_text
from transmit.formulas import TransmissionTriple, path_triple

from expr_strategies import expressions, texts_with_faults
from recurrences import power_coefficients, tree_recurrence
from test_cli_bytes import EVAL_JSON, HIST_CSV


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digits_by_divmod(n: int, chunk: int = 1000) -> str:
    """Decimal text of n >= 0 from fixed-width chunks, each short enough for str()."""
    chunks = []
    while n >= 10**chunk:
        n, low = divmod(n, 10**chunk)
        chunks.append(f"{low:0{chunk}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


@pytest.fixture(scope="module")
def binary_tree_10000():
    """The depth-10000 binary tree by the reference recurrence (about 1 s)."""
    return tree_recurrence(2, 10_000)


def test_digits_by_divmod():
    for n in (0, 7, 10**6, 123_456_789_000_001, 10**2500 + 17):
        assert digits_by_divmod(n, chunk=3) == str(n)


def int_from_digits(text: str) -> int:
    """The integer a decimal text of any length reads as: ``int()`` on pieces
    under the digit limit, halves joined by multiplication."""
    if len(text) <= 4000:
        return int(text)
    low = len(text) // 2
    return int_from_digits(text[:-low]) * 10**low + int_from_digits(text[-low:])


def test_decimal_text_matches_the_divmod_digits():
    split = transmit.errors._SPLIT_BITS
    rng = random.Random(3)
    values = [0, 1, -1, 10**4300, 10**4300 - 1, 10**25000, 10**25000 - 1, -(10**25000) + 1]
    for bits in (split - 1, split, split + 1, 2 * split + 1, 5 * split):
        values += [2 ** (bits - 1), 2**bits - 1, rng.getrandbits(bits - 1) | 2 ** (bits - 1)]
        values.append(-values[-1])
    assert {abs(v).bit_length() for v in values} >= {split - 1, split, split + 1}
    expected = ["-" * (v < 0) + digits_by_divmod(abs(v)) for v in values]
    # past 10**6 digits, divmod takes seconds: the integer is built from its digits
    text = "7" + "".join(rng.choices("0123456789", k=10**6))
    n = int_from_digits(text)
    narrow = decimal.Context(prec=3, Emax=99, Emin=-99, rounding=decimal.ROUND_DOWN, capitals=0)
    assert [decimal_text(v) for v in values] == expected
    assert decimal_text(n) == text
    with decimal.localcontext(narrow):
        assert [decimal_text(v) for v in values] == expected
        assert decimal_text(-n) == "-" + text


def test_decimal_text_of_a_short_int_ignores_the_digit_limit():
    """Under ``_SHORT_BITS`` an int is formatted directly: at most 603 digits,
    which even the lowest digit limit, 640, lets through. A bool is a digit."""
    short = transmit.errors._SHORT_BITS
    assert len(str(2**short)) < 640
    values = [0, 1, -1, 10**5, -(10**17)]
    for bits in (short - 1, short, short + 1):
        values += [2 ** (bits - 1), 2**bits - 1, -(2**bits) + 1]
    expected = ["-" * (v < 0) + digits_by_divmod(abs(v)) for v in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert [decimal_text(v) for v in values] == expected
    finally:
        sys.set_int_max_str_digits(limit)
    assert [decimal_text(True), decimal_text(False)] == ["1", "0"]


class TestEval:
    def test_table(self, capsys):
        code, out, err = run(capsys, "eval", "tree(2,2)")
        assert code == 0
        assert err == ""
        assert "size           7" in out
        assert "delta          96" in out
        assert "delta0         10" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "eval", "star(3)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "expr": "star(3)",
            "size": "4",
            "delta": "18",
            "delta0": "3",
            "mean_all": {"num": "9", "den": "8", "display": "1.125"},
            "mean_distinct": {"num": "3", "den": "2", "display": "1.5"},
            "expected_messages": None,
        }

    def test_json_round_trips_huge_integers(self, capsys):
        code, out, _ = run(capsys, "eval", "power(complete(2),40)", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert int(payload["size"]) == 2**40
        a, b = power_coefficients(2, 40)
        assert int(payload["delta"]) == 2 * a + b

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "star(3)", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "expr,size,delta,delta0,mean_all,mean_distinct,expected_messages"
        assert lines[1] == "star(3),4,18,3,9/8,3/2,"

    def test_single_vertex_has_no_distinct_mean(self, capsys):
        code, out, _ = run(capsys, "eval", "complete(1)")
        assert code == 0
        assert "mean_distinct  -" in out

    def test_rate_and_time(self, capsys):
        code, out, _ = run(capsys, "eval", "tree(2,2)", "--rate", "2", "--time", "10")
        assert code == 0
        assert "expected_messages  1920" in out

    def test_display_ignores_the_ambient_decimal_context(self):
        # the caller's exponent range and rounding must not reach the display
        values = [Fraction(2 * 10**150), Fraction(2, 10**150), Fraction(2, 3)]
        expected = ["2.00000E+150", "2E-150", "0.666667"]
        assert [transmit.cli._cell(v, "json")["display"] for v in values] == expected
        narrow = decimal.Context(Emax=99, Emin=-99, rounding=decimal.ROUND_DOWN)
        with decimal.localcontext(narrow):
            assert [transmit.cli._cell(v, "json")["display"] for v in values] == expected

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(7),
            Fraction(10**5000 + 3),
            Fraction(1, 3 * 10**7),
            Fraction(2, 10**150),
            Fraction(123_456_789, 10**20),
            Fraction(1_234_565, 10**6),
            Fraction(1_234_575, 10**6),
            Fraction(1_000_005, 10**7),
            Fraction(9_999_995, 10),
            Fraction(2, 3),
            Fraction(2**200_000 // 3, 3**60_000),
        ],
        ids=lambda v: f"{v.numerator.bit_length()}/{v.denominator.bit_length()}bits",
    )
    def test_rational_cell_bytes(self, value, monkeypatch):
        # the reference converts each integer again, the display from the
        # integers themselves; _cell converts each once and reads the display back
        p, q = value.numerator, value.denominator
        num, den = str(decimal.Decimal(p)), str(decimal.Decimal(q))
        context = decimal.Context(
            prec=6, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
        )
        display = str(context.divide(decimal.Decimal(p), decimal.Decimal(q)))
        expected = {
            "table": num if q == 1 else f"{num}/{den} ({display})",
            "csv": f"{num}/{den}",
            "json": {"num": num, "den": den, "display": display},
        }
        calls = []
        monkeypatch.setattr(transmit.cli, "decimal_text", lambda n: calls.append(n) or decimal_text(n))
        for fmt, cell in expected.items():
            calls.clear()
            assert transmit.cli._cell(value, fmt) == cell
            assert calls == [p, q]

    @pytest.mark.parametrize("option", ["--rate", "--time"])
    @pytest.mark.parametrize("text", ["1e4300", "1E-4300", " +2.5e+04_300 ", "1.e-4300", ".5e4300"])
    def test_exponent_at_the_digit_limit_is_accepted(self, capsys, option, text):
        assert sys.get_int_max_str_digits() == 4300
        other = "--time" if option == "--rate" else "--rate"
        code, out, err = run(capsys, "eval", "path(2)", option, text, other, "1", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.startswith("expr,")

    @pytest.mark.parametrize("option", ["--rate", "--time"])
    @pytest.mark.parametrize(
        "text", ["1e-4301", "1E4301", " -2.5e+0_4301 ", "1.e-999999999", ".5E999999999", "\u0661e" + "\u0669" * 9]
    )
    def test_exponent_past_the_digit_limit_is_refused(self, capsys, option, text):
        # Fraction would compute 10 ** exponent, which at 999999999 runs for minutes
        other = "--time" if option == "--rate" else "--rate"
        code, out, err = run(capsys, "eval", "path(2)", option, text, other, "1")
        assert (code, out) == (1, "")
        assert err == f"error: {option} exponent must be at most 4300 in magnitude, got {text!r}\n"

    @pytest.mark.parametrize("text", ["1/2e9999", "1.de9999", pytest.param("1.d" + "5" * 5000, id="1.d5...5")])
    def test_text_fraction_refuses_keeps_its_message(self, capsys, text):
        code, out, err = run(capsys, "eval", "path(2)", "--rate", text, "--time", "1")
        assert (code, out) == (1, "")
        assert err == f"error: --rate must be a decimal number, got {text!r}\n"

    @pytest.mark.parametrize("option", ["--rate", "--time"])
    @pytest.mark.parametrize(
        "text",
        [
            "1" * 5000,
            "-" + "1" * 4301,
            "0." + "0" * 4300 + "1",
            "1/" + "3" * 4301,
            "1_" * 4300 + "1",
            "1e" + "9" * 4301,
            "\u0661" * 4301,
        ],
        ids=["integer", "negative", "fraction part", "denominator", "underscores", "exponent", "arabic-indic"],
    )
    def test_a_digit_run_past_the_limit_is_named(self, capsys, option, text):
        # well formed, but Fraction cannot convert a run of more than 4300 digits
        assert sys.get_int_max_str_digits() == 4300
        other = "--time" if option == "--rate" else "--rate"
        code, out, err = run(capsys, "eval", "path(2)", option, text, other, "1")
        assert (code, out) == (1, "")
        assert err == f"error: {option} must have at most 4300 digits in a row, got {text!r}\n"

    @pytest.mark.parametrize(
        "text",
        ["1" * 4300, "1_" * 4299 + "1", "1" * 4300 + "." + "1" * 4300],
        ids=["integer", "underscores", "both parts"],
    )
    def test_digit_runs_at_the_limit_are_read(self, capsys, text):
        code, out, err = run(capsys, "eval", "path(2)", "--rate", text, "--time", "1", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.startswith("expr,")

    def test_rate_without_time_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "tree(2,2)", "--rate", "2")
        assert code == 1
        assert out == ""
        assert "--rate and --time" in err

    def test_parse_error_exit_and_position(self, capsys):
        code, out, err = run(capsys, "eval", "power(cycle(6), 3")
        assert code == 1
        assert out == ""
        assert "offset 18" in err

    def test_validation_error(self, capsys):
        code, _, err = run(capsys, "eval", "cycle(2)")
        assert code == 1
        assert "cycle size must be >= 3" in err

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_integers_past_the_str_digit_limit(self, capsys, fmt, binary_tree_10000):
        t = binary_tree_10000
        expected = [digits_by_divmod(n) for n in (t.size, t.delta, t.delta0)]
        assert len(expected[1]) > sys.get_int_max_str_digits()
        code, out, err = run(capsys, "eval", "tree(2,10000)", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "table":
            cells = {line.split()[0]: line.split()[1] for line in out.splitlines()}
            printed = [cells["size"], cells["delta"], cells["delta0"]]
        elif fmt == "json":
            payload = json.loads(out)
            printed = [payload["size"], payload["delta"], payload["delta0"]]
        else:
            printed = list(csv.reader(io.StringIO(out)))[1][1:4]
        assert printed == expected

    def test_formula_fault_on_a_huge_triple_exits_1(self, capsys, monkeypatch):
        real = transmit.formulas.tree_triple

        def odd_delta(arity, depth):
            t = real(arity, depth)
            return TransmissionTriple(t.size, t.delta + 1, t.delta0)

        monkeypatch.setattr(transmit.formulas, "tree_triple", odd_delta)
        delta = digits_by_divmod(real(2, 20_000).delta + 1)
        assert len(delta) > sys.get_int_max_str_digits()
        code, out, err = run(capsys, "eval", "tree(2,20000)")
        assert (code, out) == (1, "")
        assert err == f"error: delta must be even, got {delta}\n"

    def test_deep_tree_matches_the_recurrence(self, capsys):
        code, out, err = run(capsys, "eval", "tree(3,3000)", "--format", "csv")
        assert (code, err) == (0, "")
        expected = tree_recurrence(3, 3000)
        printed = next(csv.reader(io.StringIO(out.splitlines()[1])))[1:4]
        assert printed == [digits_by_divmod(n) for n in (expected.size, expected.delta, expected.delta0)]

    def test_deep_attach_chain(self, capsys):
        depth = 100_000
        text = "attach(" * depth + "path(2)" + ")" * depth
        code, out, err = run(capsys, "eval", text, "--format", "csv")
        assert (code, err) == (0, "")
        expected = path_triple(depth + 2)
        printed = out.splitlines()[1].split(",")[1:4]  # the expression has no comma
        assert printed == [str(expected.size), str(expected.delta), str(expected.delta0)]

    @pytest.mark.parametrize(
        "text",
        ["rprod(" * 3000 + "path(2)" + ",path(1))" * 3000, "wedge(" * 3000 + "path(2)" + ")" * 3000],
        ids=["rprod", "wedge"],
    )
    def test_deep_combinator_chains(self, capsys, text):
        code, out, err = run(capsys, "eval", text)
        assert (code, err) == (0, "")

    def test_output_is_reproducible(self, capsys):
        first = run(capsys, "eval", "rprod(tree(2,2),cycle(5))", "--format", "json")
        second = run(capsys, "eval", "rprod(tree(2,2),cycle(5))", "--format", "json")
        assert first == second


class TestVerify:
    def test_pass(self, capsys):
        code, out, err = run(capsys, "verify", "tree(2,2)")
        assert code == 0
        assert err == ""
        assert out.endswith("PASS\n")
        assert "96" in out and "10" in out

    def test_oversize_exit_three(self, capsys):
        code, out, err = run(capsys, "verify", "power(complete(2),30)")
        assert code == 3
        assert out == ""
        assert str(2**30) in err

    def test_huge_tree_hits_the_cap(self, capsys):
        # the closed form makes evaluating a depth-200000 tree cheap, so the
        # cap check is reached at once
        code, out, err = run(capsys, "verify", "tree(2,200000)")
        assert (code, out) == (3, "")
        size = digits_by_divmod(2**200_001 - 1)
        assert err == f"error: estimated size {size} exceeds the vertex cap of 100000\n"

    def test_cap_is_checked_before_the_closed_form(self, capsys, monkeypatch):
        def refuse(expr):
            pytest.fail("verify evaluated the closed form of an over-cap expression")

        monkeypatch.setattr(transmit.cli, "evaluate_expr", refuse)
        code, out, err = run(capsys, "verify", "power(complete(10),6)", "--max-vertices", "999999")
        assert (code, out) == (3, "")
        assert err == "error: estimated size 1000000 exceeds the vertex cap of 999999\n"

    def test_cap_is_configurable(self, capsys):
        code, _, _ = run(capsys, "verify", "mesh(40,50)", "--max-vertices", "2000")
        assert code == 0

    @pytest.mark.parametrize("command", ["verify", "hist"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_usage_error(self, capsys, command, cap):
        code, out, err = run(capsys, command, "star(3)", "--max-vertices", cap)
        assert code == 1
        assert out == ""
        assert "--max-vertices" in err and "x>=1" in err

    def test_corrupted_formula_yields_mismatch(self, capsys, monkeypatch):
        real = transmit.cli.evaluate_expr

        def corrupted(expr):
            triple = real(expr)
            return TransmissionTriple(triple.size, triple.delta + 2, triple.delta0)

        monkeypatch.setattr(transmit.cli, "evaluate_expr", corrupted)
        code, out, _ = run(capsys, "verify", "star(3)")
        assert code == 2
        assert out.endswith("MISMATCH\n")

    def test_oracle_off_by_one_yields_mismatch(self, capsys, monkeypatch):
        # the oracle's numbers are compared as they come, so an odd delta is
        # a MISMATCH, not a refused triple
        real = transmit.cli.graph_transmission
        monkeypatch.setattr(transmit.cli, "graph_transmission", lambda graph: real(graph) + 1)
        code, out, err = run(capsys, "verify", "path(3)")
        assert (code, err) == (2, "")
        assert "\ndelta   8            9\n" in out
        assert out.endswith("MISMATCH\n")


@pytest.mark.parametrize("text, nodes", [("cycle(7)", 1), ("wedge(cycle(7),power(path(2),3))", 4)])
@pytest.mark.parametrize("command", ["verify", "hist", "eval"])
def test_the_range_check_runs_once_per_node_inside_parse(capsys, monkeypatch, command, text, nodes):
    # each node checks its fields as parse makes it, and no engine checks them again
    inside, checked = [], []
    real_faults, real_parse = transmit.dsl._faults, transmit.cli.parse

    def counting(spec, values):
        checked.append(bool(inside))
        return real_faults(spec, values)

    def parsing(text):
        inside.append(text)
        try:
            return real_parse(text)
        finally:
            inside.pop()

    monkeypatch.setattr(transmit.dsl, "_faults", counting)
    monkeypatch.setattr(transmit.cli, "parse", parsing)
    assert run(capsys, command, text)[0] == 0
    assert checked == [True] * nodes


class TestCompare:
    def test_ranking(self, capsys):
        code, out, _ = run(
            capsys, "compare", "star(6)", "cycle(7)", "tree(2,2)", "--sort", "mean"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "expr", "size", "delta", "delta0", "mean_distinct"]
        assert [line.split()[1] for line in lines[1:]] == ["star(6)", "cycle(7)", "tree(2,2)"]

    def test_sort_by_delta(self, capsys):
        code, out, _ = run(capsys, "compare", "path(5)", "cycle(5)", "--sort", "delta")
        assert code == 0
        rows = [line.split()[1] for line in out.splitlines()[1:]]
        assert rows == ["cycle(5)", "path(5)"]

    def test_duplicates_keep_order(self, capsys):
        code, out, _ = run(capsys, "compare", "star(2)", "star(2)", "--sort", "size")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_csv_and_json(self, capsys):
        code, out, _ = run(capsys, "compare", "star(3)", "complete(4)", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,complete(4),4,12,3,1/1"
        code, out, _ = run(capsys, "compare", "star(3)", "--format", "json")
        payload = json.loads(out)
        assert payload["reports"][0]["rank"] == "1"
        assert payload["reports"][0]["delta"] == "18"

    def test_parse_failure_names_expression(self, capsys):
        code, out, err = run(capsys, "compare", "star(3)", "cycle(", "--sort", "size")
        assert code == 1
        assert out == ""
        assert "'cycle('" in err


class TestSeries:
    def test_rows_match(self, capsys):
        code, out, _ = run(capsys, "series", "--arity", "2", "--terms", "3")
        assert code == 0
        body = [line.split() for line in out.splitlines()[1:]]
        assert [row[1] for row in body] == ["8", "96", "736"]
        assert all(row[3] == "yes" for row in body)

    def test_single_term(self, capsys):
        code, out, _ = run(capsys, "series", "--arity", "3", "--terms", "1")
        assert code == 0
        assert out.splitlines()[1].split()[1] == "18"

    def test_arity_one_rejected(self, capsys):
        code, out, err = run(capsys, "series", "--arity", "1", "--terms", "5")
        assert code == 1
        assert "arity must be >= 2" in err

    def test_arity_is_checked_before_the_size_limit(self, capsys):
        code, out, err = run(capsys, "series", "--arity", "1", "--terms", "1500")
        assert (code, out) == (1, "")
        assert err == "error: series arity must be >= 2, got 1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "--arity", "2", "--terms", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["terms"][1] == {
            "k": "1",
            "coefficient": "96",
            "recurrence_delta": "96",
            "match": True,
        }

    def test_missing_option_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--arity", "2")
        assert code == 1
        assert "terms" in err.lower()

    def test_terms_past_the_limit_are_refused_before_any_work(self, capsys, monkeypatch):
        # the convolution is quadratic in the terms: 10**11 of them never finish.
        # Its loops are the only calls to range in formulas.
        monkeypatch.setattr(transmit.formulas, "range", lambda *args: pytest.fail("series computed terms"), raising=False)
        for terms in (1001, 10**11):
            code, out, err = run(capsys, "series", "--arity", "2", "--terms", str(terms))
            assert (code, out) == (3, "")
            assert err == f"error: terms times arity bits {2 * terms} exceeds the series size limit of 2000\n"

    def test_terms_times_arity_bits_past_the_limit_are_refused_before_any_work(self, capsys, monkeypatch):
        # each coefficient has about 2 * terms * arity.bit_length() bits
        monkeypatch.setattr(transmit.formulas, "range", lambda *args: pytest.fail("series computed terms"), raising=False)
        for arity, terms, size in ((4, 1000, 3000), (10**6, 1000, 20000), (2**2000, 1, 2001)):
            code, out, err = run(capsys, "series", "--arity", str(arity), "--terms", str(terms))
            assert (code, out) == (3, "")
            assert err == f"error: terms times arity bits {size} exceeds the series size limit of 2000\n"

    def test_terms_times_arity_bits_at_the_limit_are_computed(self, capsys):
        code, out, err = run(capsys, "series", "--arity", str(2**1999), "--terms", "1", "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith(",yes")

    def test_terms_at_the_limit_are_computed(self, capsys):
        code, out, err = run(capsys, "series", "--arity", "2", "--terms", "1000", "--format", "csv")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 1001
        assert lines[-1].startswith("999,") and lines[-1].endswith(",yes")


class TestHist:
    def test_star_two(self, capsys):
        code, out, _ = run(capsys, "hist", "star(2)")
        assert code == 0
        rows = [tuple(line.split()) for line in out.splitlines()]
        assert rows == [
            ("distance", "pairs"),
            ("0", "3"),
            ("1", "4"),
            ("2", "2"),
            ("delta", "8"),
        ]

    def test_complete_three(self, capsys):
        code, out, _ = run(capsys, "hist", "complete(3)")
        body = [tuple(line.split()) for line in out.splitlines()[1:]]
        assert body == [("0", "3"), ("1", "6"), ("delta", "6")]

    def test_cycle_four_json(self, capsys):
        code, out, _ = run(capsys, "hist", "cycle(4)", "--format", "json")
        payload = json.loads(out)
        assert payload["counts"] == {"0": "4", "1": "8", "2": "4"}
        assert payload["delta"] == "16"

    def test_cap_exit_three(self, capsys):
        code, _, err = run(capsys, "hist", "power(complete(4),9)")
        assert code == 3
        assert str(4**9) in err

    def test_cap_message_prints_sizes_past_the_str_digit_limit(self, capsys):
        code, out, err = run(capsys, "hist", "power(complete(10),5000)")
        assert (code, out) == (3, "")
        assert f"estimated size {digits_by_divmod(10**5000)} exceeds" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "No such command" in err

    def test_a_command_name_after_double_dash_runs_that_command(self, capsys):
        code, out, err = run(capsys, "--", "eval", "path(2)")
        assert (code, err) == (0, "") and out.startswith("expr           path(2)\n")
        assert run(capsys, "eval", "path(2)") == (code, out, err)

    def test_no_arguments_shows_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 0
        assert "Usage" in out

    def test_unknown_format(self, capsys):
        code, _, err = run(capsys, "eval", "star(2)", "--format", "xml")
        assert code == 1

    def test_version_from_a_checkout(self, capsys):
        assert run(capsys, "--version") == (0, "transmit, version 0.1.0\n", "")

    def test_interrupt_is_reported_as_aborted(self, capsys, monkeypatch):
        def interrupt(expr):
            raise KeyboardInterrupt

        monkeypatch.setattr(transmit.cli, "evaluate_expr", interrupt)
        assert run(capsys, "eval", "path(2)") == (1, "", "\naborted\n")

    def test_options_between_expressions(self, capsys):
        last = run(capsys, "compare", "path(3)", "star(3)", "cycle(5)", "--sort", "size", "--format", "csv")
        between = run(capsys, "compare", "path(3)", "--sort", "size", "star(3)", "--format", "csv", "cycle(5)")
        first = run(capsys, "compare", "--sort", "size", "--format", "csv", "path(3)", "star(3)", "cycle(5)")
        assert last[0] == 0 and last[1].count("\n") == 4
        assert between == last == first


#: Each is refused with exit code 1, one error line and nothing on stdout.
USAGE_ERRORS = [
    (("transmogrify",), "No such command 'transmogrify'."),
    (("--", "bogus"), "No such command 'bogus'."),
    (("eval", "path(2)", "--bogus"), "No such option '--bogus'."),
    # an abbreviation of --format is refused, not read as --format
    (("eval", "path(2)", "--form", "json"), "No such option '--form'. Did you mean '--format'?"),
    (("eval",), "Missing argument 'EXPR'."),
    (("compare", "--sort", "size"), "Missing argument 'EXPR...'."),
    (("series", "--terms", "2"), "Missing option '--arity'."),
    (("eval", "path(2)", "--format"), "Option '--format' requires an argument."),
    (("eval", "path(2)", "--rate", "--time", "1"), "Option '--rate' requires an argument."),
    (("eval", "path(2)", "--format", "xml"), "Invalid value for '--format': 'xml' is not one of 'table', 'json', 'csv'."),
    (("series", "--arity", "x", "--terms", "2"), "Invalid value for '--arity': 'x' is not a valid integer."),
    (("verify", "path(2)", "--max-vertices", "0"), "Invalid value for '--max-vertices': 0 is not in the range x>=1."),
    (("verify", "path(2)", "extra"), "Got unexpected extra argument (extra)"),
    (("hist", "path(2)", "--", "a", "b"), "Got unexpected extra arguments (a b)"),
    # a negative number is a value wherever it stands, an exponent is not a number
    (("eval", "path(2)", "--format", "csv", "-5"), "Got unexpected extra argument (-5)"),
    (("verify", "path(2)", "--max-vertices", "9", "-1"), "Got unexpected extra argument (-1)"),
    (
        ("compare", "path(2)", "--sort", "size", "star(3)", "-5"),
        "in expression '-5': parse error at offset 1: expected a topology keyword, found '-'",
    ),
    (("eval", "path(2)", "--rate", "1", "--time", "-1e3"), "No such option '-1e3'."),
    # the = form, as README spells a negative value
    (("eval", "path(2)", "--rate", "1", "--time=-1e3"), "--time must be nonnegative, got -1e3"),
    (("eval", "path(2)", "--format=csv", "-5"), "Got unexpected extra argument (-5)"),
    (("eval", "path(2)", "--rate", "-1", "--time", "1"), "--rate must be nonnegative, got -1"),
    (("--help=1",), "argument --help: ignored explicit argument '1'"),
    (("eval", "path(2)", "--rat", "1"), "No such option '--rat'. (Did you mean one of: '--rate', '--format'?)"),
]


@pytest.mark.parametrize(("argv", "message"), USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_error_contract(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_importing_the_cli_loads_no_click():
    code = "import sys, transmit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('click', 'argparse')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# Modules that a command should load only when it needs them: dataclasses
# alone brings in inspect, ast and dis, and each format its own module.
LAZY_MODULES = {"dataclasses", "inspect", "ast", "dis", "json", "csv"}

EVAL_PATH_3 = """\
expr           path(3)
size           3
delta          8
delta0         3
mean_all       8/9 (0.888889)
mean_distinct  4/3 (1.33333)
"""


@pytest.mark.parametrize(
    "argv, loaded, stdout",
    [
        (None, set(), ""),
        (["eval", "path(3)"], set(), EVAL_PATH_3),
        (["eval", "tree(2,2)", "--format", "json"], {"json"}, EVAL_JSON),
        (["hist", "mesh(2,3)", "--format", "csv"], {"csv"}, HIST_CSV),
    ],
    ids=["import", "eval", "json", "csv"],
)
def test_a_command_loads_only_the_modules_its_format_needs(argv, loaded, stdout):
    # the modules a bare interpreter has loaded when the -c code starts are left out
    run_main = "" if argv is None else f"transmit.cli.main({argv!r}); "
    code = (
        "import sys; before = set(sys.modules); import transmit.cli; "
        f"{run_main}sys.stderr.write(' '.join(set(sys.modules) - before))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    new = set(result.stderr.split())
    assert (result.returncode, "transmit.cli" in new, new & LAZY_MODULES) == (0, True, loaded)
    assert result.stdout == stdout


def test_redirected_streams_are_not_kept_alive():
    refs = []
    for argv in (["eval", "path(2)"], ["eval", "bogus("], ["--version"], ["--help"], ["eval", "--help"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            main(argv)
        assert (out.getvalue() == "") != (err.getvalue() == "")  # each call wrote to one stream
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_closed_stdout_exits_1_with_one_error_line():
    # 20000 rows are far more than a pipe holds, so the CLI is still writing
    # when the reader closes its end after the first line
    with subprocess.Popen(
        [sys.executable, "-m", "transmit", "hist", "path(20000)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "distance  pairs\n"
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert (status, err) == (1, "error: stdout was closed before all output was written\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_stdout_exits_1_with_one_error_line():
    # every write to /dev/full fails with ENOSPC, here at the flush in main
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "transmit", "verify", "path(3)"], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert (result.returncode, result.stderr) == (1, "error: stdout refused a write: No space left on device\n")


# Inputs that still run far past any budget. Each is marked with the change
# that mends it, in ROADMAP's open items, so it shows the day that lands.
# On TimeoutExpired, subprocess.run has killed the child.
KNOWN_HANGS = [
    pytest.param(
        ["hist", "cycle(100000)"],
        marks=pytest.mark.xfail(
            raises=subprocess.TimeoutExpired, strict=True, reason="ROADMAP item 7: the orbit-reduced oracle"
        ),
        id="hist-cycle-100000",
    ),
    pytest.param(
        ["eval", "power(complete(10),10000000)"],
        marks=pytest.mark.xfail(
            raises=subprocess.TimeoutExpired, strict=True, reason="ROADMAP item 2: a digit budget for eval"
        ),
        id="eval-huge-power",
    ),
]


@pytest.mark.parametrize("argv", KNOWN_HANGS)
def test_a_known_hang_finishes_in_3_seconds(argv):
    result = subprocess.run([sys.executable, "-m", "transmit", *argv], capture_output=True, text=True, timeout=3)
    assert result.returncode in (0, 1, 2, 3)


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "transmit", "eval", "tree(2,2)", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    # the expression cell is quoted because it contains commas
    assert result.stdout.splitlines()[1].startswith('"tree(2,2)",7,96,10')


# Grammar tokens, single ASCII digits, and non-ASCII digits and spaces the
# grammar must reject.
FUZZ_TOKENS = [
    *(spec.keyword for spec in SPECS.values()),
    "(", ")", ",", " ",
    *"0123456789",
    "\u0663", "\xb2", "\u0967",  # ARABIC-INDIC THREE, SUPERSCRIPT TWO, DEVANAGARI ONE
    "\xa0", "\u2003", "\u3000",  # NO-BREAK, EM and IDEOGRAPHIC SPACE
]


@st.composite
def near_valid_texts(draw):
    """A rendered expression with a stretch cut out and up to two tokens spliced in."""
    text = render(draw(expressions()))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    junk = draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=2))
    return text[:start] + "".join(junk) + text[end:]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map("".join),
        near_valid_texts(),
    ).filter(lambda text: len(text) <= 60)
)
def test_eval_fuzz_exits_with_a_documented_code(text):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["eval", text])
    assert code in (0, 1, 3)
    assert "Traceback" not in err.getvalue()


def oracle_is_quick(text: str) -> bool:
    """Whether the oracle refuses or counts ``text`` at once: it does not
    parse, or its graph has at most 300 vertices or more than the default
    vertex cap. In between, a graph that is no tree can take seconds to
    count (ROADMAP item 2)."""
    try:
        size = estimated_size(parse(text))
    except transmit.errors.TransmitError:
        return True
    return size <= 300 or size > transmit.cli.DEFAULT_VERTEX_CAP


OVERLONG = "1" * 5000  # past the digit limit wherever it stands
FLAGS = sorted({option.flag for command in COMMANDS.values() for option in command.options} | {"--help", "--version"})
OPTIONS = {option.flag: option for command in COMMANDS.values() for option in command.options}
# ARABIC-INDIC THREE, SUPERSCRIPT TWO, ROMAN NUMERAL TWELVE, small and
# capital E ACUTE, COMBINING ACUTE, and NO-BREAK, EM and IDEOGRAPHIC SPACE
NON_ASCII = ["\u0663", "\xb2", "\u216b", "\xe9", "\xc9", "\u0301", "\xa0", "\u2003", "\u3000"]
DEPTH = 5000
# Nests DEPTH deep: two trees, which the oracle counts in one pass, two
# with one fault each, one with a fault at every level, and two unbalanced.
# Each fault is named by its literal's offset, so the message of the one
# with DEPTH + 1 faults grows with the depth alone.
DEEP = [
    "attach(" * DEPTH + "path(2)" + ")" * DEPTH,
    "power(" * DEPTH + "complete(1)" + ",2)" * DEPTH,
    "attach(" * DEPTH + "cycle(2)" + ")" * DEPTH,
    "wedge(" * DEPTH + "path(0)" + ",path(2))" * DEPTH,
    "wedge(" * DEPTH + "path(0)" + ",star(0))" * DEPTH,
    "attach(" * DEPTH + "path(2)" + ")" * (DEPTH - 1),
    "attach(" * DEPTH + "path(2)" + ")" * (DEPTH + 1),
]


@st.composite
def spliced_texts(draw):
    """An expression's text with a non-ASCII character put into one of its
    literals or keywords, or in place of part of it."""
    text = draw(texts_with_faults(top=20, depth=2))[0]
    token = draw(st.sampled_from(list(re.finditer(r"[0-9]+|[a-z]+", text))))
    start = draw(st.integers(token.start(), token.end()))
    end = draw(st.integers(start, token.end()))
    return text[:start] + draw(st.sampled_from(NON_ASCII)) + text[end:]


SHALLOW = st.one_of(
    texts_with_faults(top=20, depth=2).map(lambda drawn: drawn[0]),
    spliced_texts(),
    st.sampled_from(["path(" + OVERLONG + ")", "power(complete(2)," + OVERLONG + ")", "-5", "-", "--"]),
).filter(oracle_is_quick)
# The deep nests skip oracle_is_quick: each is refused, a tree or a single
# vertex, so every command ends it within about 0.1 s.
EXPRESSIONS = st.one_of(SHALLOW, st.sampled_from(DEEP))


def values(flag: str) -> st.SearchStrategy:
    """Texts for ``flag``: mostly of its type, and some of any type."""
    option = OPTIONS.get(flag)
    if option is None:
        typed = st.nothing()
    elif option.choices:
        typed = st.sampled_from(option.choices)
    elif option.integer:
        typed = st.integers(-2, 20).map(str)
    else:
        typed = st.sampled_from(["0", "0.5", "2", "1e-3", "-1e3", "-.5", "1/3"])
    return st.one_of(typed, typed, st.sampled_from(["x", "-1", "xml", OVERLONG]))


@st.composite
def argv_lists(draw):
    """A command, or a group option or an unknown command, then expressions
    and options in any order: each option alone, before its value or joined
    to it by ``=``, mostly one of the command's own."""
    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help", "--version"]))
    own = [option.flag for option in COMMANDS[command].options] if command in COMMANDS else []
    count = draw(st.sampled_from([1, 1, 1, 0, 2, 3]))
    groups = [[text] for text in draw(st.lists(EXPRESSIONS, min_size=count, max_size=count))]
    flags = st.sampled_from(own or FLAGS)
    for flag in draw(st.lists(st.one_of(flags, flags, flags, st.sampled_from(FLAGS)), max_size=3)):
        value = draw(values(flag))
        groups.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag]])))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(max_examples=300, deadline=None)
@given(argv_lists())
def test_every_command_exits_with_a_documented_code(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
