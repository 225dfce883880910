import pytest

from minput import SparseDigraph
from minput.matching import Matching

# Four-vertex running example: two self loops, a 2-cycle on {0, 1} and a
# tail 1 -> 2 -> 3.  Vertices read a, b, c, d in the prose below.
G4_EDGES = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 3)]

# Five-vertex example: 2-cycle {0, 1} fed by the source component
# {2, 3, 4} (c <-> d <-> e with c -> b).
G5_EDGES = [(0, 0), (0, 1), (1, 0), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]


@pytest.fixture
def g4() -> SparseDigraph:
    return SparseDigraph(4, G4_EDGES)


@pytest.fixture
def m1() -> Matching:
    # both self loops plus (2, 3): leaves vertex 2 unmatched, cost 2
    return Matching.from_edges(4, [(0, 0), (1, 1), (2, 3)])


@pytest.fixture
def m1_free() -> Matching:
    # m1 leaves the source component {a, b} fully matched; minimize first
    # frees its lowest member a, which keeps cost 2 and puts the start in N
    return Matching.from_edges(4, [(1, 1), (2, 3)])


@pytest.fixture
def m2() -> Matching:
    # the chain matching: leaves vertex 0 unmatched, cost 1 (optimal)
    return Matching.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def g5() -> SparseDigraph:
    return SparseDigraph(5, G5_EDGES)


@pytest.fixture
def m3() -> Matching:
    # covers {0, 1} through (1, 0) and (2, 1); {2, 3, 4} all unmatched
    return Matching.from_edges(5, [(2, 1), (1, 0)])
