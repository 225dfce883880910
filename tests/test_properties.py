"""Hypothesis properties of ``solve`` on small random instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from minput import Problem, Solution, SparseDigraph, solve

# Bounded and derandomised: the same examples run every time, and no
# per-example deadline can turn a slow machine into a failure.
BOUNDED = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n, unique=True))
    forbidden = draw(st.frozensets(vertex, max_size=n // 2))
    return SparseDigraph(n, edges), forbidden


def _outcome(g, forbidden):
    """The cost of a solved instance, or the reason it is unsolvable."""
    res = solve(Problem(g, forbidden))
    return res.cost if isinstance(res, Solution) else res.reason


@BOUNDED
@given(instances(), st.data())
def test_forbidding_more_never_helps(inst, data):
    g, forbidden = inst
    extra = data.draw(st.integers(0, g.n - 1))
    before = _outcome(g, forbidden)
    after = _outcome(g, forbidden | {extra})
    if isinstance(after, int):
        assert isinstance(before, int), "forbidding a vertex made the instance solvable"
        assert after >= before


@BOUNDED
@given(instances(), st.randoms(use_true_random=False))
def test_relabelling_invariance(inst, rng):
    g, forbidden = inst
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = SparseDigraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert _outcome(relabelled, frozenset(perm[v] for v in forbidden)) == _outcome(g, forbidden)
