"""Hypothesis properties of ``solve``, ``minput --verify`` and the flow
graph's terminal test on small random instances, the same relations of
``solve`` on ER and PA instances up to ``n = 2^14``, and properties of
the file parsers on line soup."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    assignment_min_inputs,
    dump_edge_list,
    greedy_forbidden,
    into_network,
    random_matching,
)
from families import erdos_renyi, preferential
from minput import (
    MinputError,
    Problem,
    Solution,
    SparseDigraph,
    build_flow_graph,
    check_structural_controllability,
    classify,
    cli,
    layered_bfs,
    scc_decompose,
    solve,
)

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


def _relabelled(g, forbidden, rng):
    """``(g, forbidden)`` under a random permutation of the vertex ids."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = SparseDigraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    return relabelled, frozenset(perm[v] for v in forbidden)


def _with_edge(g, u, v):
    return SparseDigraph(g.n, sorted(set(g.edges()) | {(u, v)}))


@BOUNDED
@given(instances(), st.randoms(use_true_random=False))
def test_relabelling_invariance(inst, rng):
    g, forbidden = inst
    assert _outcome(*_relabelled(g, forbidden, rng)) == _outcome(g, forbidden)


@BOUNDED
@given(instances(), st.data())
def test_adding_an_edge_never_raises_the_cost(inst, data):
    """Structural controllability is monotone in the pattern, and an
    added edge leaves every source SCC of the new graph with an allowed
    member: it contains an old source SCC."""
    g, forbidden = inst
    u, v = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
    before = _outcome(g, forbidden)
    after = _outcome(_with_edge(g, u, v), forbidden)
    if isinstance(before, int):
        assert isinstance(after, int), "adding an edge made the instance unsolvable"
        assert after <= before


@pytest.mark.parametrize("family", ["er", "pa"])
@pytest.mark.parametrize("share", [0.0, 0.3])
def test_relations_at_scale(family, share):
    """The three relations above on ER and PA instances of ``2^10`` to
    ``2^14`` vertices, with nothing or a greedy 30% forbidden, where no
    oracle reaches: relabelling keeps the outcome, an added edge never
    raises the cost, and one more forbidden vertex never lowers it."""
    rng = random.Random(f"relations/{family}/{share}")
    for n in (2**10, 2**12, 2**14):
        g = erdos_renyi(n, 3.0 / n, rng) if family == "er" else preferential(n, 3, rng)
        forbidden = greedy_forbidden(g, share, rng)
        base = _outcome(g, forbidden)
        assert isinstance(base, int), (n, base)
        assert _outcome(*_relabelled(g, forbidden, rng)) == base
        for _ in range(3):
            after = _outcome(_with_edge(g, rng.randrange(n), rng.randrange(n)), forbidden)
            assert isinstance(after, int) and after <= base
            extra = rng.choice([v for v in range(n) if v not in forbidden])
            after = _outcome(g, forbidden | {extra})
            assert not isinstance(after, int) or after >= base


@BOUNDED
@given(instances())
def test_checked_solve_is_exact(inst):
    """Per-round validation stays silent, and a solved result is a
    controllable input set that avoids F at the reference cost."""
    g, forbidden = inst
    res = solve(Problem(g, forbidden), check=True)
    want = assignment_min_inputs(g, forbidden)
    if not isinstance(res, Solution):
        assert want is None
        return
    assert res.cost == len(res.input_set) == want
    assert not set(res.input_set) & forbidden
    assert check_structural_controllability(g, res.input_set)


@BOUNDED
@given(instances(), st.randoms(use_true_random=False), st.sampled_from([0.5, 1.0]))
def test_no_edge_into_t_iff_cost_meets_lower_bound(inst, rng, keep):
    """On any matching in N, ``t`` has no in-edge exactly when the cost
    equals the number of source SCCs, the bound every matching's cost
    meets;
    ``layered_bfs`` then returns None.  The materialised view has at
    most ``m + 5n`` edges: each graph edge once, at most ``n`` from
    ``s``, at most one out of each unmatched destination copy, and at
    most ``|c| + 1`` out of the node of each source component ``c``.
    No edge joins two destination copies: a swap inside a component
    passes through its node."""
    g, forbidden = inst
    scc = scc_decompose(g)
    m = into_network(g, random_matching(g, rng, keep))
    cls = classify(scc, m)
    fg = build_flow_graph(g, scc, m, forbidden, cls)
    edges = fg.explicit_edges()
    assert len(edges) <= g.m + 5 * g.n
    assert not any(g.n <= x < 2 * g.n and g.n <= y < 2 * g.n for x, y in edges)
    into_t = [x for x, y in edges if y == fg.t_id]
    assert cls.cost >= len(scc.source_ids)
    assert (not fg.t_in) == (not into_t) == (cls.cost == len(scc.source_ids))
    if not into_t:
        assert layered_bfs(fg) is None


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("verify")


@BOUNDED
@given(instances())
def test_cli_verify_holds(verify_dir, inst):
    """``--verify`` confirms every returned set: exit 0 with ``"verify":
    true``, or exit 2 (no admissible set) with nothing to verify; never
    exit 1."""
    g, forbidden = inst
    graph, forb, out = (verify_dir / name for name in ("g.txt", "f.txt", "out.json"))
    graph.write_text(dump_edge_list(g), encoding="utf-8")
    forb.write_text(" ".join(map(str, sorted(forbidden))) + "\n", encoding="utf-8")
    argv = ["--graph", str(graph), "--forbidden", str(forb), "--verify", "--out", str(out)]
    code = cli.run(argv)
    payload = json.loads(out.read_text(encoding="utf-8"))
    if code == 0:
        assert payload["verify"] is True
    else:
        assert code == 2 and "verify" not in payload

# Line soup for the parsers: a near-valid edge list, Matrix Market file
# or forbidden list with junk lines spliced in.  Sizes stay at most 64,
# so no size line asks for a large allocation.
BANNERS = [
    f"%%MatrixMarket matrix {layout} {field} {symmetry}"
    for layout in ("coordinate", "array")
    for field in ("real", "integer", "pattern", "complex")
    for symmetry in ("general", "symmetric", "hermitian")
]
SUPPORTED = [b for b in BANNERS if not {"array", "complex", "hermitian"} & set(b.split())]
TOKENS = st.one_of(
    st.integers(-2, 64).map(str), st.floats().map(repr), st.sampled_from(["nan", "0x1", "x"])
)
JUNK = st.one_of(
    st.lists(TOKENS | st.sampled_from(["%", "#"]), max_size=4).map(" ".join),
    st.sampled_from(BANNERS + ["% comment", "# comment", "1 2 # trailing", ""]),
)


@st.composite
def soup(draw, kind):
    n = draw(st.integers(0, 64))
    ids = st.integers(-1, n)
    entries = draw(st.lists(st.tuples(ids, ids, TOKENS), max_size=8))
    if kind == "edges":
        lines = [f"{n} {len(entries)}"] + [f"{a} {b}" for a, b, _ in entries]
    elif kind == "mm":
        banner = draw(st.sampled_from(SUPPORTED) | st.sampled_from(BANNERS))
        lines = [banner, f"{n} {draw(st.sampled_from([n, n + 1]))} {len(entries)}"]
        for a, b, value in entries:
            lines.append(f"{a + 1} {b + 1}" + ("" if "pattern" in banner else f" {value}"))
    else:
        lines = [" ".join(str(a) for a, _, _ in entries)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def soup_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("soup")


def _check_soup(soup_dir, text, parse, argv, *args):
    """``parse`` returns or raises a MinputError on ``text``, and
    ``cli.run`` on ``argv`` plus the file exits 0, 1 or 2."""
    path = soup_dir / "soup.txt"
    path.write_text(text, encoding="utf-8")
    try:
        parse(str(path), *args)
    except MinputError:
        pass
    assert cli.run([*argv, str(path), "--out", str(soup_dir / "out.json")]) in (0, 1, 2)


@BOUNDED
@given(soup("edges"))
def test_edge_list_soup(soup_dir, text):
    _check_soup(soup_dir, text, cli.ingest_edge_list, ["--graph"])


@BOUNDED
@given(soup("mm"))
def test_matrix_market_soup(soup_dir, text):
    _check_soup(soup_dir, text, cli.ingest_matrix_market, ["--mm"])


@BOUNDED
@given(soup("ids"), st.integers(0, 8))
def test_forbidden_soup(soup_dir, text, n):
    graph = soup_dir / "graph.txt"
    graph.write_text(f"{n} 0\n", encoding="utf-8")
    _check_soup(soup_dir, text, cli.read_forbidden, ["--graph", str(graph), "--forbidden"], n)
