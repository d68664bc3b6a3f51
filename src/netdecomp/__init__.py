"""netdecomp: CONGEST-model simulation and certified network decompositions.

The package provides a round-synchronous message-passing simulator with
bandwidth accounting, a deterministic network-decomposition algorithm for
power graphs, two randomized refinements (ball growing and exponential-shift
ball carving), a shattering-based maximal-independent-set pipeline, sparse
neighborhood covers, and a cover-driven minimum-spanning-tree construction.
Every distributed output is checked against an independent centralized
oracle.
"""

from .graphs import Graph, generate_graph, load_graph

__all__ = ["Graph", "generate_graph", "load_graph"]

__version__ = "0.1.0"
