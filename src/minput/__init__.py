"""Minimum input selection for structural controllability.

Find a smallest set of state variables of a sparse linear system
``xdot = A x`` that, once each is driven by its own dedicated input,
makes the system structurally controllable, while never actuating a
given forbidden subset.  Runs in O(n + m * sqrt(n)).
"""

from .augment import (
    Diagnostics,
    IterationStats,
    augment_on_paths,
    extract_paths,
    layered_bfs,
)
from .errors import (
    BoundExceeded,
    IndexOutOfRange,
    IterationBoundExceeded,
    MinputError,
    NotSquare,
    ParseError,
)
from .flowgraph import build_flow_graph
from .graph import (
    SparseDigraph,
    build_graph,
    induced_subgraph,
    isolated_vertices,
    scc_decompose,
)
from .matching import classify, find_allowed_matching
from .oracle import (
    brute_force_min_cost_allowed_matching,
    brute_force_min_input_set,
    check_structural_controllability,
    numeric_rank_spot_check,
)
from .solver import (
    Problem,
    Solution,
    Unsolvable,
    UnsolvableReason,
    recover_input_set,
    solve,
)

__version__ = "0.1.0"

# The user API.  The other names imported above are the pipeline stages
# that the benchmark's traced replica calls as ``minput.<stage>``.  No
# other name belongs here: tests import internals from the submodules.
__all__ = [
    "BoundExceeded",
    "Diagnostics",
    "IndexOutOfRange",
    "IterationBoundExceeded",
    "IterationStats",
    "MinputError",
    "NotSquare",
    "ParseError",
    "Problem",
    "Solution",
    "SparseDigraph",
    "Unsolvable",
    "UnsolvableReason",
    "brute_force_min_cost_allowed_matching",
    "brute_force_min_input_set",
    "build_graph",
    "check_structural_controllability",
    "numeric_rank_spot_check",
    "solve",
]
