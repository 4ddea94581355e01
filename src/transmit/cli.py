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
import re
import sys
from fractions import Fraction
from typing import Callable

import click

from . import __version__
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
from .graph import distance_histogram, graph_transmission, root_transmission, transmission
from .metrics import compare_rank, summarize

FORMATS = ("table", "json", "csv")

# Every click.echo below names its stream. Without ``file``, click looks
# sys.stdout/sys.stderr up in a weak-keyed cache that holds the stream as
# its own value, so a stream redirected by an in-process caller (an
# io.StringIO under redirect_stdout) would never be freed. Click's own
# --help and --version echo that way, so they are replaced by the two
# flags below.


def _printing_flag(name: str, description: str, text: Callable[[click.Context], str]):
    """An eager flag that prints ``text(ctx)`` to stdout and exits 0."""

    def callback(ctx: click.Context, _param: click.Parameter, value: bool) -> None:
        if value and not ctx.resilient_parsing:
            click.echo(text(ctx), file=sys.stdout)
            ctx.exit()

    return click.option(name, is_flag=True, expose_value=False, is_eager=True, callback=callback, help=description)


# A command that declares --help gets no help option of click's. This one is
# declared last on each command, so it is listed last, as click's would be.
_help_option = _printing_flag("--help", "Show this message and exit.", click.Context.get_help)
_version_option = _printing_flag(
    "--version", "Show the version and exit.", lambda ctx: f"transmit, version {__version__}"
)

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


#: The exponent of a decimal as Fraction reads it: the text's last token.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

#: A run of digits as Fraction reads one, with underscores between digits.
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def _parse_fraction(text: str, option: str) -> Fraction:
    # Fraction refuses a digit run past the limit the parser applies to integer
    # literals, and multiplies by 10 ** exponent, which runs for minutes on a
    # huge one. So the text is first read with each such run as 1 and an
    # exponent past the limit as 0: a malformed text gets the usual message,
    # and a well-formed one is refused with the limit it passes.
    limit = sys.get_int_max_str_digits()
    short = _DIGIT_RUN.sub(lambda run: "1" if 0 < limit < len(run[0].replace("_", "")) else run[0], text)
    exponent = _EXPONENT.search(short)
    try:
        too_far = bool(limit and exponent and abs(int(exponent[1])) > limit)
        value = Fraction(short[: exponent.start(1)] + "0" if too_far else short)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{option} must be a decimal number, got {text!r}")
    if short != text:
        raise ValidationError(f"{option} must have at most {limit} digits in a row, got {text!r}")
    if too_far:
        raise ValidationError(f"{option} exponent must be at most {limit} in magnitude, got {text!r}")
    if value < 0:
        raise ValidationError(f"{option} must be nonnegative, got {text}")
    return value


#: What a missing value prints as, per format.
_NONE_CELL = {"table": "-", "csv": "", "json": None}


def _cell(value: int | str | Fraction | None, fmt: str) -> str | dict | None:
    """One value as a cell of ``fmt``; integers print in full at any length.

    A rational prints as ``num/den (display)`` in a table, or as plain digits
    when its denominator is 1; as ``num/den`` in CSV; and as a
    ``{"num", "den", "display"}`` object in JSON. The display is read back off
    those digits, in time linear in their length. A ``bool`` is an ``int`` here,
    so callers pass booleans as their own text or JSON value.
    """
    if value is None:
        return _NONE_CELL[fmt]
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return decimal_text(value)
    num, den = decimal_text(value.numerator), decimal_text(value.denominator)
    if fmt == "csv":
        return f"{num}/{den}"
    with decimal.localcontext(_DISPLAY_CONTEXT):
        display = str(decimal.Decimal(num) / decimal.Decimal(den))
    if fmt == "json":
        return {"num": num, "den": den, "display": display}
    return num if den == "1" else f"{num}/{den} ({display})"


def _emit(fmt: str, output) -> None:
    """Print ``output`` in ``fmt``.

    For JSON, ``output`` is the payload, its values already cells. Otherwise it
    is a list of rows of raw values, printed as CSV or as a table: left-aligned
    columns sized to content, trailing spaces trimmed.
    """
    if fmt == "json":
        click.echo(json.dumps(output, indent=2), file=sys.stdout)
        return
    rows = [[_cell(value, fmt) for value in row] for row in output]
    if fmt == "csv":
        buffer = io.StringIO()
        csv_module.writer(buffer, lineterminator="\n").writerows(rows)
        click.echo(buffer.getvalue(), nl=False, file=sys.stdout)
        return
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    click.echo("\n".join(lines), file=sys.stdout)


@click.group()
@_version_option
@_help_option
def cli():
    """Exact transmission calculator for composed network topologies."""


@cli.command(name="eval")
@click.argument("expr_text", metavar="EXPR")
@click.option("--rate", default=None, help="Message rate per device pair (exact decimal).")
@click.option("--time", "time_", default=None, help="Time span (exact decimal).")
@_format_option
@_help_option
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
        output = {name: _cell(value, fmt) for name, value in report.items()}
    elif fmt == "csv":
        output = [report.keys(), report.values()]
    else:
        # The table leaves out the expected message volume when none was asked for.
        if report["expected_messages"] is None:
            del report["expected_messages"]
        output = report.items()
    _emit(fmt, output)
    return 0


@cli.command()
@click.argument("expr_text", metavar="EXPR")
@_cap_option
@_help_option
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
        ("size", closed.size, oracle.size),
        ("delta", closed.delta, oracle.delta),
        ("delta0", closed.delta0, oracle.delta0),
    ]
    _emit("table", rows)
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
@_help_option
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
    fields = [{"rank": rank, **report} for rank, report in enumerate(ranked, 1)]
    if fmt == "json":
        cells = [{name: _cell(value, fmt) for name, value in f.items()} for f in fields]
        output = {"sort": sort_key, "reports": cells}
    else:
        columns = ("rank", "expr", "size", "delta", "delta0", "mean_distinct")
        output = [columns, *([f[name] for name in columns] for f in fields)]
    _emit(fmt, output)
    return 0


@cli.command()
@click.option("--arity", type=int, required=True, help="Tree arity (>= 2).")
@click.option("--terms", type=int, required=True, help="Number of coefficients (>= 1).")
@_format_option
@_help_option
def series(arity: int, terms: int, fmt: str) -> int:
    """Generating-series coefficients vs the tree closed form (self-test)."""
    coefficients = gf_series(arity, terms)
    rows = [(k, c, tree_triple(arity, k + 1).delta) for k, c in enumerate(coefficients.terms)]
    matches = [c == tree_delta for _, c, tree_delta in rows]
    if fmt == "json":
        # "recurrence_delta" holds the tree closed form's delta; the key is kept
        # from when a recurrence computed it, so the JSON bytes stay the same.
        output = {
            "arity": _cell(arity, fmt),
            "terms": [
                {
                    "k": _cell(k, fmt),
                    "coefficient": _cell(c, fmt),
                    "recurrence_delta": _cell(tree_delta, fmt),
                    "match": match,
                }
                for (k, c, tree_delta), match in zip(rows, matches)
            ],
        }
    else:
        output = [("k", "coefficient", "tree_delta", "match")]
        output += [(*row, "yes" if match else "NO") for row, match in zip(rows, matches)]
    _emit(fmt, output)
    return 0 if all(matches) else 2


@cli.command()
@click.argument("expr_text", metavar="EXPR")
@_cap_option
@_format_option
@_help_option
def hist(expr_text: str, max_vertices: int, fmt: str) -> int:
    """Distance histogram of EXPR from the BFS oracle, plus delta."""
    graph = build_expr(parse(expr_text), max_vertices)
    counts = distance_histogram(graph)
    delta = transmission(counts)
    if fmt == "json":
        output = {
            "expr": expr_text,
            "counts": {_cell(d, fmt): _cell(c, fmt) for d, c in enumerate(counts)},
            "delta": _cell(delta, fmt),
        }
    else:
        output = [("distance", "pairs"), *enumerate(counts), ("delta", delta)]
    _emit(fmt, output)
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
    except ResourceLimitError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 3
    except TransmitError as exc:  # parse and validation errors
        click.echo(f"error: {exc}", file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


__all__ = ["cli", "main"]
