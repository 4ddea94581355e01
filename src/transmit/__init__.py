"""Exact transmission of composed network topologies.

Two independent engines compute the same quantities: closed formulas over
expression trees (:mod:`transmit.formulas`) and a brute-force BFS oracle
over materialized graphs (:mod:`transmit.graph`, :mod:`transmit.builders`).
Their exact agreement is the package's correctness argument.
"""

from .builders import DEFAULT_VERTEX_CAP, build_expr
from .dsl import estimated_size, parse, render
from .errors import (
    ConnectivityError,
    InexactDivisionError,
    ResourceLimitError,
    TopologyParseError,
    TransmitError,
    ValidationError,
)
from .formulas import TransmissionTriple, evaluate_expr
from .graph import (
    RootedGraph,
    bfs_levels,
    distance_histogram,
    graph_transmission,
    root_transmission,
)
from .metrics import compare_rank, summarize

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "ConnectivityError",
    "InexactDivisionError",
    "ResourceLimitError",
    "RootedGraph",
    "TopologyParseError",
    "TransmissionTriple",
    "TransmitError",
    "ValidationError",
    "bfs_levels",
    "build_expr",
    "compare_rank",
    "distance_histogram",
    "estimated_size",
    "evaluate_expr",
    "graph_transmission",
    "parse",
    "render",
    "root_transmission",
    "summarize",
    "__version__",
]
