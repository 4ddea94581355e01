"""Command-line surface tying the parser, both engines and reporting together.

Exit codes: 0 success (and verify pass), 1 usage/parse/validation error,
2 verification mismatch, 3 resource limit (the vertex cap, or the size
limit of a series, checked by :func:`~transmit.formulas.gf_series`).
Diagnostics go to stderr, data to stdout, and output is byte-identical
across runs for the same input. A stdout that refuses a write, closed or
full, exits 1 with one ``error:`` line.

Each command is one :class:`Command` row of :data:`COMMANDS`: its name,
callback, positional argument, options and help line. The row drives both
the parsing and the help page. :func:`_scan` reads the arguments in one
pass, with one rule wherever a token stands: a first ``--`` ends the
options, and before it a token is an option when it is a known flag, alone
or before ``=``, or when it starts with ``-``, is not ``-`` or a negative
number (``-5``, ``-.5``) and holds no space. Help pages are laid out for
:data:`HELP_WIDTH` columns, whatever the terminal's width.
"""

from __future__ import annotations

import decimal
import io
import os
import re
import sys
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

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
from .formulas import evaluate_expr, gf_series, tree_triple
from .graph import distance_histogram, graph_transmission, root_transmission, transmission
from .metrics import compare_rank, summarize

FORMATS = ("table", "json", "csv")

#: Columns a help page is laid out for.
HELP_WIDTH = 78


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
        import json  # only JSON output needs it

        print(json.dumps(output, indent=2))
        return
    rows = [[_cell(value, fmt) for value in row] for row in output]
    if fmt == "csv":
        import csv  # only CSV output needs it

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        sys.stdout.write(buffer.getvalue())
        return
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print("\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows))


def _eval(expr_text: str, rate: str | None, time_: str | None, fmt: str) -> int:
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


def _verify(expr_text: str, max_vertices: int) -> int:
    expr = parse(expr_text)
    # Building first refuses an over-cap expression before its closed form,
    # which can be a huge power, is evaluated.
    graph = build_expr(expr, max_vertices)
    closed = evaluate_expr(expr)
    # The oracle's numbers are compared as they come: a wrong one is a
    # MISMATCH, not a triple that fails its own checks.
    expected = (closed.size, closed.delta, closed.delta0)
    measured = (graph.vertex_count, graph_transmission(graph), root_transmission(graph))
    rows = [("expr", expr_text, ""), ("", "closed-form", "oracle")]
    rows += zip(("size", "delta", "delta0"), expected, measured)
    _emit("table", rows)
    if expected == measured:
        print("PASS")
        return 0
    print("MISMATCH")
    return 2


def _compare(expr_texts: list[str], sort_key: str, fmt: str) -> int:
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


def _series(arity: int, terms: int, fmt: str) -> int:
    rows = [(k, c, tree_triple(arity, k + 1).delta) for k, c in enumerate(gf_series(arity, terms))]
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


def _hist(expr_text: str, max_vertices: int, fmt: str) -> int:
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


class UsageError(Exception):
    """The arguments do not fit the command's row of :data:`COMMANDS`."""


class Option(
    namedtuple(
        "Option",
        "flag dest help choices integer minimum default required",
        defaults=((), False, None, None, False),
    )
):
    """One ``--flag VALUE`` option, passed to the callback as ``dest``.

    Its value is one of ``choices`` when they are given, else an integer
    (of at least ``minimum``, when that is given) when ``integer`` is set,
    else the text itself. An option left out takes ``default``, which its
    help shows unless it is None.
    """

    __slots__ = ()

    def metavar(self) -> str:
        if self.choices:
            return f"[{'|'.join(self.choices)}]"
        if self.integer:
            return "INTEGER" if self.minimum is None else "INTEGER RANGE"
        return "TEXT"

    def convert(self, text: str):
        if self.choices:
            if text not in self.choices:
                listed = ", ".join(map(repr, self.choices))
                raise UsageError(f"Invalid value for {self.flag!r}: {text!r} is not one of {listed}.")
            return text
        if not self.integer:
            return text
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"Invalid value for {self.flag!r}: {text!r} is not a valid {self.metavar().lower()}.")
        if self.minimum is not None and value < self.minimum:
            raise UsageError(f"Invalid value for {self.flag!r}: {value} is not in the range x>={self.minimum}.")
        return value

    def help_row(self) -> tuple[str, str]:
        notes = [f"default: {self.default}"] if self.default is not None else []
        notes += [f"x>={self.minimum}"] if self.minimum is not None else []
        notes += ["required"] if self.required else []
        return f"{self.flag} {self.metavar()}", f"{self.help}  [{'; '.join(notes)}]" if notes else self.help


_HELP_ROW = ("--help", "Show this message and exit.")

_NO_VALUE = object()


def _page(usage: str, description: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """A help page: usage, description, then each section's rows in two
    columns, the terms padded to the longest and each text wrapped beside it."""
    import textwrap  # only a help page needs it

    lines = [f"Usage: {usage}", "", textwrap.fill(description, HELP_WIDTH, initial_indent="  ", subsequent_indent="  ")]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        column = max(len(term) for term, _ in rows) + 4
        for term, text in rows:
            first, *rest = textwrap.wrap(text, HELP_WIDTH - column)
            lines.append(f"  {term.ljust(column - 4)}  {first}")
            lines += [" " * column + line for line in rest]
    return "\n".join(lines) + "\n"


_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")  # as argparse reads one: a value, not an option


def _scan(args: list[str], flags: list[str], pages: dict[str, Callable[[], str]]):
    """``args`` read once, in order, by the module's rule: each option's text
    by its flag, the other arguments, and the first page flag's page or None.
    A bare option takes the next token unless that is an option or ``--``;
    otherwise it holds ``_NO_VALUE``. An unknown option is refused."""
    known = {*flags, *pages}

    def is_option(arg: str) -> bool:
        return arg.split("=", 1)[0] in known or (
            arg[:1] == "-" and arg != "-" and " " not in arg and not _NEGATIVE_NUMBER.match(arg)
        )

    texts, values, page, unknown = {}, [], None, None
    pending = args[::-1]  # the next token last
    while pending:
        arg = pending.pop()
        if arg == "--":
            values += reversed(pending)
            break
        name, equals, text = arg.partition("=")
        if not is_option(arg):
            values.append(arg)
        elif name in pages:
            if equals:
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            page = page or pages[name]
        elif name not in flags:
            unknown = unknown or name
        elif equals:
            texts[name] = text
        elif pending and not is_option(pending[-1]):
            texts[name] = pending.pop()
        else:
            texts[name] = _NO_VALUE
    if unknown:
        import difflib  # only an unknown option needs it

        close = difflib.get_close_matches(unknown, [*flags, *pages])
        hint = ""
        if len(close) == 1:
            hint = f" Did you mean {close[0]!r}?"
        elif close:
            hint = f" (Did you mean one of: {', '.join(map(repr, close))}?)"
        raise UsageError(f"No such option {unknown!r}.{hint}")
    return texts, values, page


class Command(namedtuple("Command", "name callback help argument options")):
    """One command: its callback gets the positional argument first, if the
    command has one, then each option by its ``dest``. An ``argument`` whose
    name ends in ``...`` takes one or more values, passed as a list."""

    __slots__ = ()

    def help_page(self) -> str:
        usage = f"transmit {self.name} [OPTIONS]" + (f" {self.argument}" if self.argument else "")
        rows = [option.help_row() for option in self.options]
        return _page(usage, self.help, {"Options": [*rows, _HELP_ROW]})

    def run(self, args: list[str]) -> int:
        texts, values, page = _scan(args, [option.flag for option in self.options], {"--help": self.help_page})
        if page:
            sys.stdout.write(page())
            return 0
        given = {}
        for option in self.options:
            text = texts.get(option.flag)
            if text is _NO_VALUE:
                raise UsageError(f"Option {option.flag!r} requires an argument.")
            if text is None and option.required:
                raise UsageError(f"Missing option {option.flag!r}.")
            given[option.dest] = option.default if text is None else option.convert(text)
        if self.argument and not values:
            raise UsageError(f"Missing argument {self.argument!r}.")
        if self.argument is None:
            positional, extra = [], values
        elif self.argument.endswith("..."):
            positional, extra = [values], []
        else:
            positional, extra = values[:1], values[1:]
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
        return self.callback(*positional, **given)


_FORMAT = Option("--format", "fmt", "Output format.", choices=FORMATS, default="table")
_CAP = Option(
    "--max-vertices",
    "max_vertices",
    "Vertex cap for oracle-backed commands.",
    integer=True,
    minimum=1,
    default=DEFAULT_VERTEX_CAP,
)
_SORT = Option(
    "--sort",
    "sort_key",
    "Ranking key (mean = mean distance between different vertices).",
    choices=("mean", "delta", "size"),
    default="mean",
)

COMMANDS = {
    command.name: command
    for command in (
        Command(
            "eval",
            _eval,
            "Evaluate EXPR with the closed-form engine (no size cap).",
            "EXPR",
            (
                Option("--rate", "rate", "Message rate per device pair (exact decimal)."),
                Option("--time", "time_", "Time span (exact decimal)."),
                _FORMAT,
            ),
        ),
        Command("verify", _verify, "Check the closed-form triple of EXPR against the BFS oracle.", "EXPR", (_CAP,)),
        Command(
            "compare",
            _compare,
            "Rank topologies by closed-form indicators, ascending.",
            "EXPR...",
            (_SORT, _FORMAT),
        ),
        Command(
            "series",
            _series,
            "Generating-series coefficients vs the tree closed form (self-test).",
            None,
            (
                Option("--arity", "arity", "Tree arity (>= 2).", integer=True, required=True),
                Option("--terms", "terms", "Number of coefficients (>= 1).", integer=True, required=True),
                _FORMAT,
            ),
        ),
        Command("hist", _hist, "Distance histogram of EXPR from the BFS oracle, plus delta.", "EXPR", (_CAP, _FORMAT)),
    )
}


def _group_help() -> str:
    import textwrap  # only a help page needs it

    names = sorted(COMMANDS)
    # A command's help line is cut short to fit beside the longest name.
    limit = HELP_WIDTH - 6 - max(map(len, names))
    commands = [
        (name, textwrap.shorten(COMMANDS[name].help, limit, placeholder="...", break_on_hyphens=False))
        for name in names
    ]
    options = [("--version", "Show the version and exit."), _HELP_ROW]
    return _page(
        "transmit [OPTIONS] COMMAND [ARGS]...",
        "Exact transmission calculator for composed network topologies.",
        {"Options": options, "Commands": commands},
    )


def _run_group(args: list[str]) -> int:
    """``args`` that do not start with a command's name: the group's options,
    then a command's name, which runs that command with the rest, or what
    should have been one."""
    end = next((i for i, arg in enumerate(args) if not arg.startswith("-")), len(args))
    pages = {"--version": lambda: f"transmit, version {__version__}\n", "--help": _group_help}
    _, values, page = _scan(args[:end], [], pages)
    rest = values + args[end:]
    if rest and not page:
        if rest[0] in COMMANDS:  # after "--"
            return COMMANDS[rest[0]].run(rest[1:])
        raise UsageError(f"No such command {rest[0]!r}.")
    sys.stdout.write((page or _group_help)())
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; maps error classes to the documented exit codes."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        command = COMMANDS.get(args[0]) if args else None
        status = command.run(args[1:]) if command else _run_group(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, TransmitError) as exc:  # usage, parse and validation errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only stdout is written to, so it refused a write
        # the rest goes to the null device, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        closed = isinstance(exc, BrokenPipeError)
        reason = "was closed before all output was written" if closed else f"refused a write: {exc.strerror or exc}"
        print(f"error: stdout {reason}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        sys.stderr.write("\naborted\n")
        return 1


__all__ = ["COMMANDS", "main"]
