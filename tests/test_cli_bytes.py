"""Exact stdout bytes of every command in every format it supports.

The other CLI tests read tables by substring and JSON after ``json.loads``.
These pin what they cannot see: column padding, trailing-space trimming,
JSON key order and indent, CSV quoting of expressions that hold a comma,
and JSON booleans (``bool`` is an ``int`` subclass).
"""

from __future__ import annotations

import pytest

from transmit.cli import main

EVAL_TABLE = """\
expr           tree(2,2)
size           7
delta          96
delta0         10
mean_all       96/49 (1.95918)
mean_distinct  16/7 (2.28571)
"""

EVAL_RATE_TABLE = """\
expr               tree(2,2)
size               7
delta              96
delta0             10
mean_all           96/49 (1.95918)
mean_distinct      16/7 (2.28571)
expected_messages  288
"""

EVAL_SINGLE_VERTEX_TABLE = """\
expr           complete(1)
size           1
delta          0
delta0         0
mean_all       0
mean_distinct  -
"""

EVAL_CSV = """\
expr,size,delta,delta0,mean_all,mean_distinct,expected_messages
"tree(2,2)",7,96,10,96/49,16/7,
"""

EVAL_RATE_CSV = """\
expr,size,delta,delta0,mean_all,mean_distinct,expected_messages
"tree(2,2)",7,96,10,96/49,16/7,288/1
"""

EVAL_JSON_HEAD = """\
{
  "expr": "tree(2,2)",
  "size": "7",
  "delta": "96",
  "delta0": "10",
  "mean_all": {
    "num": "96",
    "den": "49",
    "display": "1.95918"
  },
  "mean_distinct": {
    "num": "16",
    "den": "7",
    "display": "2.28571"
  },
"""

EVAL_JSON = EVAL_JSON_HEAD + """\
  "expected_messages": null
}
"""

EVAL_RATE_JSON = EVAL_JSON_HEAD + """\
  "expected_messages": {
    "num": "288",
    "den": "1",
    "display": "288"
  }
}
"""

RATE = ("--rate", "3/2", "--time", "2")

#: One input per ordering: complete(8) moves with the key, complete(1) has no
#: distinct mean, and mesh(2,3) needs CSV quoting.
COMPARED = ("tree(2,2)", "complete(1)", "mesh(2,3)", "complete(8)")

ORDER = {
    "mean": ("complete(1)", "complete(8)", "mesh(2,3)", "tree(2,2)"),
    "delta": ("complete(1)", "mesh(2,3)", "complete(8)", "tree(2,2)"),
    "size": ("complete(1)", "mesh(2,3)", "tree(2,2)", "complete(8)"),
}

COMPARE_TABLE_ROW = {
    "complete(1)": "complete(1)  1     0      0       -",
    "complete(8)": "complete(8)  8     56     7       1",
    "mesh(2,3)": "mesh(2,3)    6     50     9       5/3 (1.66667)",
    "tree(2,2)": "tree(2,2)    7     96     10      16/7 (2.28571)",
}

COMPARE_CSV_ROW = {
    "complete(1)": "complete(1),1,0,0,",
    "complete(8)": "complete(8),8,56,7,1/1",
    "mesh(2,3)": '"mesh(2,3)",6,50,9,5/3',
    "tree(2,2)": '"tree(2,2)",7,96,10,16/7',
}

#: The lines of one JSON report after its "rank" line, at report indent.
COMPARE_JSON_REPORT = {
    "complete(1)": """\
      "expr": "complete(1)",
      "size": "1",
      "delta": "0",
      "delta0": "0",
      "mean_all": {
        "num": "0",
        "den": "1",
        "display": "0"
      },
      "mean_distinct": null,
      "expected_messages": null
    }""",
    "complete(8)": """\
      "expr": "complete(8)",
      "size": "8",
      "delta": "56",
      "delta0": "7",
      "mean_all": {
        "num": "7",
        "den": "8",
        "display": "0.875"
      },
      "mean_distinct": {
        "num": "1",
        "den": "1",
        "display": "1"
      },
      "expected_messages": null
    }""",
    "mesh(2,3)": """\
      "expr": "mesh(2,3)",
      "size": "6",
      "delta": "50",
      "delta0": "9",
      "mean_all": {
        "num": "25",
        "den": "18",
        "display": "1.38889"
      },
      "mean_distinct": {
        "num": "5",
        "den": "3",
        "display": "1.66667"
      },
      "expected_messages": null
    }""",
    "tree(2,2)": """\
      "expr": "tree(2,2)",
      "size": "7",
      "delta": "96",
      "delta0": "10",
      "mean_all": {
        "num": "96",
        "den": "49",
        "display": "1.95918"
      },
      "mean_distinct": {
        "num": "16",
        "den": "7",
        "display": "2.28571"
      },
      "expected_messages": null
    }""",
}


def compare_table(sort: str) -> str:
    rows = [f"{rank}     {COMPARE_TABLE_ROW[e]}" for rank, e in enumerate(ORDER[sort], 1)]
    return "rank  expr         size  delta  delta0  mean_distinct\n" + "\n".join(rows) + "\n"


def compare_csv(sort: str) -> str:
    rows = [f"{rank},{COMPARE_CSV_ROW[e]}" for rank, e in enumerate(ORDER[sort], 1)]
    return "rank,expr,size,delta,delta0,mean_distinct\n" + "\n".join(rows) + "\n"


def compare_json(sort: str) -> str:
    reports = [
        f'    {{\n      "rank": "{rank}",\n{COMPARE_JSON_REPORT[e]}'
        for rank, e in enumerate(ORDER[sort], 1)
    ]
    return f'{{\n  "sort": "{sort}",\n  "reports": [\n' + ",\n".join(reports) + "\n  ]\n}\n"


SERIES_TABLE = """\
k  coefficient  tree_delta  match
0  8            8           yes
1  96           96          yes
2  736          736         yes
"""

SERIES_CSV = """\
k,coefficient,tree_delta,match
0,8,8,yes
1,96,96,yes
2,736,736,yes
"""

SERIES_JSON = """\
{
  "arity": "2",
  "terms": [
    {
      "k": "0",
      "coefficient": "8",
      "recurrence_delta": "8",
      "match": true
    },
    {
      "k": "1",
      "coefficient": "96",
      "recurrence_delta": "96",
      "match": true
    },
    {
      "k": "2",
      "coefficient": "736",
      "recurrence_delta": "736",
      "match": true
    }
  ]
}
"""

HIST_TABLE = """\
distance  pairs
0         6
1         14
2         12
3         4
delta     50
"""

HIST_CSV = """\
distance,pairs
0,6
1,14
2,12
3,4
delta,50
"""

HIST_JSON = """\
{
  "expr": "mesh(2,3)",
  "counts": {
    "0": "6",
    "1": "14",
    "2": "12",
    "3": "4"
  },
  "delta": "50"
}
"""

VERIFY_TABLE = """\
expr    mesh(2,3)
        closed-form  oracle
size    6            6
delta   50           50
delta0  9            9
PASS
"""

SERIES = ("series", "--arity", "2", "--terms", "3")

CASES = [
    (("eval", "tree(2,2)"), EVAL_TABLE),
    (("eval", "tree(2,2)", "--format", "csv"), EVAL_CSV),
    (("eval", "tree(2,2)", "--format", "json"), EVAL_JSON),
    (("eval", "tree(2,2)", *RATE), EVAL_RATE_TABLE),
    (("eval", "tree(2,2)", *RATE, "--format", "csv"), EVAL_RATE_CSV),
    (("eval", "tree(2,2)", *RATE, "--format", "json"), EVAL_RATE_JSON),
    (("eval", "complete(1)"), EVAL_SINGLE_VERTEX_TABLE),
    *[
        (("compare", *COMPARED, "--sort", sort, "--format", fmt), render(sort))
        for sort in ORDER
        for fmt, render in (("table", compare_table), ("csv", compare_csv), ("json", compare_json))
    ],
    ((*SERIES, "--format", "table"), SERIES_TABLE),
    ((*SERIES, "--format", "csv"), SERIES_CSV),
    ((*SERIES, "--format", "json"), SERIES_JSON),
    (("hist", "mesh(2,3)"), HIST_TABLE),
    (("hist", "mesh(2,3)", "--format", "csv"), HIST_CSV),
    (("hist", "mesh(2,3)", "--format", "json"), HIST_JSON),
    (("verify", "mesh(2,3)"), VERIFY_TABLE),
]


@pytest.mark.parametrize(("argv", "expected"), CASES, ids=[" ".join(a) for a, _ in CASES])
def test_stdout_bytes(capsys, argv, expected):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


GROUP_HELP = """\
Usage: transmit [OPTIONS] COMMAND [ARGS]...

  Exact transmission calculator for composed network topologies.

Options:
  --version  Show the version and exit.
  --help     Show this message and exit.

Commands:
  compare  Rank topologies by closed-form indicators, ascending.
  eval     Evaluate EXPR with the closed-form engine (no size cap).
  hist     Distance histogram of EXPR from the BFS oracle, plus delta.
  series   Generating-series coefficients vs the tree closed form...
  verify   Check the closed-form triple of EXPR against the BFS oracle.
"""

EVAL_HELP = """\
Usage: transmit eval [OPTIONS] EXPR

  Evaluate EXPR with the closed-form engine (no size cap).

Options:
  --rate TEXT                Message rate per device pair (exact decimal).
  --time TEXT                Time span (exact decimal).
  --format [table|json|csv]  Output format.  [default: table]
  --help                     Show this message and exit.
"""

VERIFY_HELP = """\
Usage: transmit verify [OPTIONS] EXPR

  Check the closed-form triple of EXPR against the BFS oracle.

Options:
  --max-vertices INTEGER RANGE  Vertex cap for oracle-backed commands.
                                [default: 100000; x>=1]
  --help                        Show this message and exit.
"""

COMPARE_HELP = """\
Usage: transmit compare [OPTIONS] EXPR...

  Rank topologies by closed-form indicators, ascending.

Options:
  --sort [mean|delta|size]   Ranking key (mean = mean distance between
                             different vertices).  [default: mean]
  --format [table|json|csv]  Output format.  [default: table]
  --help                     Show this message and exit.
"""

SERIES_HELP = """\
Usage: transmit series [OPTIONS]

  Generating-series coefficients vs the tree closed form (self-test).

Options:
  --arity INTEGER            Tree arity (>= 2).  [required]
  --terms INTEGER            Number of coefficients (>= 1).  [required]
  --format [table|json|csv]  Output format.  [default: table]
  --help                     Show this message and exit.
"""

HIST_HELP = """\
Usage: transmit hist [OPTIONS] EXPR

  Distance histogram of EXPR from the BFS oracle, plus delta.

Options:
  --max-vertices INTEGER RANGE  Vertex cap for oracle-backed commands.
                                [default: 100000; x>=1]
  --format [table|json|csv]     Output format.  [default: table]
  --help                        Show this message and exit.
"""

#: Pages are laid out for 78 columns, whatever the terminal's width.
HELP_CASES = [
    ((), GROUP_HELP),
    (("--help",), GROUP_HELP),
    (("--version",), "transmit, version 0.1.0\n"),
    (("eval", "--help"), EVAL_HELP),
    (("eval", "path(2)", "--help", "-5"), EVAL_HELP),
    (("verify", "--help"), VERIFY_HELP),
    (("compare", "--help"), COMPARE_HELP),
    (("series", "--help"), SERIES_HELP),
    (("hist", "--help"), HIST_HELP),
]


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize(("argv", "expected"), HELP_CASES, ids=[" ".join(a) or "(none)" for a, _ in HELP_CASES])
def test_help_bytes(capsys, monkeypatch, columns, argv, expected):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
