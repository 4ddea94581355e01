"""Command-line surface tying the parser, both engines and reporting together.

Exit codes: 0 success (and verify pass), 1 usage/parse/validation error,
2 verification mismatch, 3 vertex cap exceeded. Diagnostics go to stderr,
data to stdout, and output is byte-identical across runs for the same input.
"""

from __future__ import annotations

import csv as csv_module
import decimal
import io
import json
import sys
from fractions import Fraction

import click

from .builders import DEFAULT_VERTEX_CAP, build_expr
from .dsl import parse
from .errors import (
    ResourceLimitError,
    TopologyParseError,
    TransmitError,
    ValidationError,
    decimal_text,
)
from .formulas import TransmissionTriple, evaluate_expr, gf_series, tree_triple
from .graph import distance_histogram, graph_transmission, root_transmission
from .metrics import TopologyReport, compare_rank, summarize

FORMATS = ("table", "json", "csv")

# Every click.echo below names its stream. Without ``file``, click looks
# sys.stdout/sys.stderr up in a weak-keyed cache that holds the stream as
# its own value, so a stream redirected by an in-process caller (an
# io.StringIO under redirect_stdout) would never be freed.

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(FORMATS),
    default="table",
    show_default=True,
    help="Output format.",
)
_cap_option = click.option(
    "--max-vertices",
    type=click.IntRange(min=1),
    default=DEFAULT_VERTEX_CAP,
    show_default=True,
    help="Vertex cap for oracle-backed commands.",
)


#: Six significant digits, ties to even, any exponent, whatever the caller's context.
_DISPLAY_CONTEXT = decimal.Context(
    prec=6, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


def _decimal_display(value: Fraction) -> str:
    """Fixed 6-significant-digit rendering; display only, never computed with."""
    with decimal.localcontext(_DISPLAY_CONTEXT):
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def _rational_text(value: Fraction | None) -> str:
    if value is None:
        return "-"
    if value.denominator == 1:
        return decimal_text(value.numerator)
    return f"{_rational_cell(value)} ({_decimal_display(value)})"


def _rational_cell(value: Fraction | None) -> str:
    """Exact single-cell form for CSV."""
    if value is None:
        return ""
    return f"{decimal_text(value.numerator)}/{decimal_text(value.denominator)}"


def _rational_json(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {
        "num": decimal_text(value.numerator),
        "den": decimal_text(value.denominator),
        "display": _decimal_display(value),
    }


def _parse_fraction(text: str, option: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{option} must be a decimal number, got {text!r}")
    if value < 0:
        raise ValidationError(f"{option} must be nonnegative, got {text}")
    return value


def _echo_table(rows: list[tuple[str, ...]]) -> None:
    """Left-aligned columns sized to content; trailing spaces trimmed."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        click.echo(line.rstrip(), file=sys.stdout)


def _echo_csv(rows: list[tuple[str, ...]]) -> None:
    buffer = io.StringIO()
    writer = csv_module.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    click.echo(buffer.getvalue(), nl=False, file=sys.stdout)


def _report_json(report: TopologyReport) -> dict:
    return {
        "expr": report.expression_text,
        "size": decimal_text(report.triple.size),
        "delta": decimal_text(report.triple.delta),
        "delta0": decimal_text(report.triple.delta0),
        "mean_all": _rational_json(report.mean_all),
        "mean_distinct": _rational_json(report.mean_distinct),
        "expected_messages": _rational_json(report.expected_messages),
    }


def _report_rows(report: TopologyReport) -> list[tuple[str, str]]:
    rows = [
        ("expr", report.expression_text),
        ("size", decimal_text(report.triple.size)),
        ("delta", decimal_text(report.triple.delta)),
        ("delta0", decimal_text(report.triple.delta0)),
        ("mean_all", _rational_text(report.mean_all)),
        ("mean_distinct", _rational_text(report.mean_distinct)),
    ]
    if report.expected_messages is not None:
        rows.append(("expected_messages", _rational_text(report.expected_messages)))
    return rows


@click.group()
@click.version_option(package_name="transmit", prog_name="transmit")
def cli():
    """Exact transmission calculator for composed network topologies."""


@cli.command(name="eval")
@click.argument("expr_text", metavar="EXPR")
@click.option("--rate", default=None, help="Message rate per device pair (exact decimal).")
@click.option("--time", "time_", default=None, help="Time span (exact decimal).")
@_format_option
def eval_cmd(expr_text: str, rate: str | None, time_: str | None, fmt: str) -> int:
    """Evaluate EXPR with the closed-form engine (no size cap)."""
    if (rate is None) != (time_ is None):
        raise ValidationError("--rate and --time must be given together")
    triple = evaluate_expr(parse(expr_text))
    report = summarize(
        expr_text,
        triple,
        _parse_fraction(rate, "--rate") if rate is not None else None,
        _parse_fraction(time_, "--time") if time_ is not None else None,
    )
    if fmt == "json":
        click.echo(json.dumps(_report_json(report), indent=2), file=sys.stdout)
    elif fmt == "csv":
        header = ("expr", "size", "delta", "delta0", "mean_all", "mean_distinct", "expected_messages")
        row = (
            report.expression_text,
            decimal_text(report.triple.size),
            decimal_text(report.triple.delta),
            decimal_text(report.triple.delta0),
            _rational_cell(report.mean_all),
            _rational_cell(report.mean_distinct),
            _rational_cell(report.expected_messages),
        )
        _echo_csv([header, row])
    else:
        _echo_table(_report_rows(report))
    return 0


@cli.command()
@click.argument("expr_text", metavar="EXPR")
@_cap_option
def verify(expr_text: str, max_vertices: int) -> int:
    """Check the closed-form triple of EXPR against the BFS oracle."""
    expr = parse(expr_text)
    # Building first refuses an over-cap expression before its closed form,
    # which can be a huge power, is evaluated.
    graph = build_expr(expr, max_vertices)
    closed = evaluate_expr(expr)
    oracle = TransmissionTriple(
        graph.vertex_count,
        graph_transmission(graph),
        root_transmission(graph),
    )
    rows = [
        ("expr", expr_text, ""),
        ("", "closed-form", "oracle"),
        ("size", decimal_text(closed.size), decimal_text(oracle.size)),
        ("delta", decimal_text(closed.delta), decimal_text(oracle.delta)),
        ("delta0", decimal_text(closed.delta0), decimal_text(oracle.delta0)),
    ]
    _echo_table(rows)
    if closed == oracle:
        click.echo("PASS", file=sys.stdout)
        return 0
    click.echo("MISMATCH", file=sys.stdout)
    return 2


@cli.command()
@click.argument("expr_texts", metavar="EXPR...", nargs=-1, required=True)
@click.option(
    "--sort",
    "sort_key",
    type=click.Choice(["mean", "delta", "size"]),
    default="mean",
    show_default=True,
    help="Ranking key (mean = mean distance between different vertices).",
)
@_format_option
def compare(expr_texts: tuple[str, ...], sort_key: str, fmt: str) -> int:
    """Rank topologies by closed-form indicators, ascending."""
    reports = []
    for text in expr_texts:
        try:
            triple = evaluate_expr(parse(text))
        except (TopologyParseError, ValidationError) as exc:
            raise ValidationError(f"in expression {text!r}: {exc}")
        reports.append(summarize(text, triple))
    key = "mean_distinct" if sort_key == "mean" else sort_key
    ranked = compare_rank(reports, key)

    if fmt == "json":
        payload = {
            "sort": sort_key,
            "reports": [
                dict(rank=decimal_text(i + 1), **_report_json(r)) for i, r in enumerate(ranked)
            ],
        }
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)
        return 0
    header = ("rank", "expr", "size", "delta", "delta0", "mean_distinct")
    rows = [header]
    for i, r in enumerate(ranked):
        cell = _rational_cell if fmt == "csv" else _rational_text
        rows.append(
            (
                decimal_text(i + 1),
                r.expression_text,
                decimal_text(r.triple.size),
                decimal_text(r.triple.delta),
                decimal_text(r.triple.delta0),
                cell(r.mean_distinct),
            )
        )
    if fmt == "csv":
        _echo_csv(rows)
    else:
        _echo_table(rows)
    return 0


@cli.command()
@click.option("--arity", type=int, required=True, help="Tree arity (>= 2).")
@click.option("--terms", type=int, required=True, help="Number of coefficients (>= 1).")
@_format_option
def series(arity: int, terms: int, fmt: str) -> int:
    """Generating-series coefficients vs the tree closed form (self-test)."""
    coefficients = gf_series(arity, terms)
    rows = []
    all_match = True
    for k, coefficient in enumerate(coefficients.terms):
        tree_delta = tree_triple(arity, k + 1).delta
        match = coefficient == tree_delta
        all_match = all_match and match
        rows.append((k, coefficient, tree_delta, match))

    if fmt == "json":
        payload = {
            "arity": decimal_text(arity),
            "terms": [
                {
                    "k": decimal_text(k),
                    "coefficient": decimal_text(c),
                    "recurrence_delta": decimal_text(r),
                    "match": m,
                }
                for k, c, r, m in rows
            ],
        }
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)
    else:
        text_rows = [("k", "coefficient", "tree_delta", "match")]
        for k, c, r, m in rows:
            text_rows.append(
                (decimal_text(k), decimal_text(c), decimal_text(r), "yes" if m else "NO")
            )
        if fmt == "csv":
            _echo_csv(text_rows)
        else:
            _echo_table(text_rows)
    return 0 if all_match else 2


@cli.command()
@click.argument("expr_text", metavar="EXPR")
@_cap_option
@_format_option
def hist(expr_text: str, max_vertices: int, fmt: str) -> int:
    """Distance histogram of EXPR from the BFS oracle, plus delta."""
    graph = build_expr(parse(expr_text), max_vertices)
    histogram = distance_histogram(graph)
    delta = histogram.transmission()

    if fmt == "json":
        payload = {
            "expr": expr_text,
            "counts": {
                decimal_text(d): decimal_text(c) for d, c in histogram.counts.items()
            },
            "delta": decimal_text(delta),
        }
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)
        return 0
    rows = [("distance", "pairs")]
    for d, c in histogram.counts.items():
        rows.append((decimal_text(d), decimal_text(c)))
    rows.append(("delta", decimal_text(delta)))
    if fmt == "csv":
        _echo_csv(rows)
    else:
        _echo_table(rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; maps error classes to the documented exit codes."""
    try:
        result = cli.main(args=argv, prog_name="transmit", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.NoArgsIsHelpError as exc:
        click.echo(exc.format_message(), file=sys.stdout)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        return 1
    except TopologyParseError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 3
    except TransmitError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


__all__ = ["cli", "main"]
