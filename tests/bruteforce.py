"""Brute-force and reference utilities shared by the test modules.

Everything here favours obviousness over speed.  Only the scipy
assignment reference is meant for instances beyond a few vertices.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from minput import SparseDigraph
from minput.errors import IndexOutOfRange
from minput.flowgraph import FlowGraph
from minput.graph import scc_decompose
from minput.matching import Matching, classify, hopcroft_karp


def closure(g: SparseDigraph) -> list[set[int]]:
    """Reachability sets per vertex by iterated expansion."""
    reach = [set(g.out_adj[v]) | {v} for v in range(g.n)]
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return reach


def scc_partition(g: SparseDigraph) -> set[frozenset[int]]:
    """SCCs via mutual reachability, as a set of frozen vertex sets."""
    reach = closure(g)
    return {
        frozenset(w for w in range(g.n) if v in reach[w] and w in reach[v])
        for v in range(g.n)
    }


def assignment_min_inputs(g: SparseDigraph, forbidden: Collection[int]) -> int | None:
    """Minimum input count as a min-cost assignment, solved by scipy.

    Rows are the destination copies.  Columns are the source copies, at
    cost 0 along each edge; one column per source SCC, at cost 0 for its
    allowed members (the input every source SCC needs anyway, placed on
    an otherwise unmatched member or left unused); and one dedicated
    column per allowed vertex at cost 1.  The optimum is the number of
    source SCCs plus the dedicated columns used.  None when a source SCC
    has no allowed member or no assignment covers every row.  SCCs come
    from scipy, not from ``minput``.
    """
    n = g.n
    if n == 0:
        return 0
    forb = set(forbidden)
    edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    adj = csr_matrix((np.ones(len(edges)), (src, dst)), shape=(n, n))
    _, label = connected_components(adj, directed=True, connection="strong")
    fed = set(label[dst[label[src] != label[dst]]].tolist())
    sources = sorted(set(label.tolist()) - fed)
    members = {c: [] for c in sources}
    for v in range(n):
        if label[v] in members:
            members[label[v]].append(v)
    if any(all(v in forb for v in members[c]) for c in sources):
        return None
    allowed = [v for v in range(n) if v not in forb]
    weight = np.full((n, n + len(sources) + len(allowed)), np.inf)
    weight[dst, src] = 0.0
    for i, c in enumerate(sources):
        for v in members[c]:
            if v not in forb:
                weight[v, n + i] = 0.0
    for i, v in enumerate(allowed):
        weight[v, n + len(sources) + i] = 1.0
    try:
        rows, cols = linear_sum_assignment(weight)
    except ValueError:  # no assignment covers every row
        return None
    return len(sources) + int(weight[rows, cols].sum())


def greedy_allowed_matching(g: SparseDigraph, forbidden: Collection[int]) -> Matching | None:
    """The package's first allowed-matching start, kept as a fixed
    input for the pinned work counters: a Hopcroft-Karp cover of the
    forbidden destinations with the in-neighbour sources on the left,
    then a greedy extension in ascending (source, destination) order.
    """
    n = g.n
    f_list = sorted(set(forbidden))
    if f_list and not (0 <= f_list[0] and f_list[-1] < n):
        raise IndexOutOfRange(f"forbidden vertex outside [0, {n})")
    match = Matching(n)
    if f_list:
        srcs = sorted({u for f in f_list for u in g.in_adj[f]})
        src_index = {u: i for i, u in enumerate(srcs)}
        adj: list[list[int]] = [[] for _ in srcs]
        for fi, f in enumerate(f_list):
            for u in g.in_adj[f]:
                adj[src_index[u]].append(fi)
        _, mate_right = hopcroft_karp(len(srcs), len(f_list), adj)
        if any(side < 0 for side in mate_right):
            return None
        for fi, f in enumerate(f_list):
            match.add(srcs[mate_right[fi]], f)
    mate_src = match.mate_of_src
    mate_dst = match.mate_of_dst
    for u in range(n):
        if mate_src[u] >= 0:
            continue
        for v in g.out_adj[u]:
            if mate_dst[v] < 0:
                match.add(u, v)
                break
    return match


def greedy_forbidden(g: SparseDigraph, share: float, rng) -> frozenset[int]:
    """``share`` of the destinations of a greedy matching taken in a
    seeded edge order; an allowed matching always exists."""
    order = list(g.edges())
    rng.shuffle(order)
    src_used, dst_used, matched = set(), set(), []
    for u, v in order:
        if u not in src_used and v not in dst_used:
            src_used.add(u)
            dst_used.add(v)
            matched.append(v)
    return frozenset(rng.sample(sorted(matched), round(share * len(matched))))


def random_matching(g: SparseDigraph, rng, keep: float) -> Matching:
    """A random matching of the splitting; with ``keep < 1`` often not
    maximal."""
    m = Matching(g.n)
    edges = list(g.edges())
    rng.shuffle(edges)
    for u, v in edges:
        if m.mate_of_src[u] < 0 and m.mate_of_dst[v] < 0 and rng.random() < keep:
            m.add(u, v)
    return m


def stars_and_cycles(rng) -> SparseDigraph:
    """Source-rich graph: 30 stars (hub <-> leaves, which keep all but one
    leaf unmatched and so form slack families), 40 cycles of length 1-5,
    and as many random forward links as vertices."""
    edges = set()
    n = 0
    for _ in range(30):
        k = rng.randint(2, 5)
        for leaf in range(n + 1, n + 1 + k):
            edges.add((n, leaf))
            edges.add((leaf, n))
        n += k + 1
    for _ in range(40):
        k = rng.randint(1, 5)
        for i in range(k):
            edges.add((n + i, n + (i + 1) % k))
        n += k
    for _ in range(n):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return SparseDigraph(n, sorted(edges))


def max_matching_size(n_left: int, n_right: int, adj: list[list[int]]) -> int:
    """Maximum bipartite matching size by full enumeration."""
    best = 0

    def descend(u: int, taken: set[int], size: int) -> None:
        nonlocal best
        if size + (n_left - u) <= best:
            return
        if u == n_left:
            best = max(best, size)
            return
        descend(u + 1, taken, size)
        for v in adj[u]:
            if v not in taken:
                taken.add(v)
                descend(u + 1, taken, size + 1)
                taken.remove(v)

    descend(0, set(), 0)
    return best


def flow_graph(g: SparseDigraph, m: Matching, forbidden: Collection[int] = ()) -> FlowGraph:
    """``FlowGraph`` of ``(g, m)``, with the SCCs and the ``MatchClass``
    it needs computed here."""
    scc = scc_decompose(g)
    return FlowGraph(g, scc, m, forbidden, classify(scc, m))


def dump_edge_list(g: SparseDigraph) -> str:
    """``g`` in the edge-list format that ``minput --graph`` reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


class ExplicitFlow:
    """Flow-graph stand-in with no core nodes and no slack families,
    duck-typed for layered_bfs / extract_paths.

    With ``n = 0`` there is no graph or matching behind the view, so
    every node's edges sit in the ``extra_out`` / ``extra_in`` tables,
    which ``FlowGraph``'s own views read.
    """

    out_view = FlowGraph.out_view
    in_view = FlowGraph.in_view

    def __init__(self, size: int, edges: list[tuple[int, int]], s_id: int, t_id: int):
        self.n = 0
        self.aux_base = size
        self.n_families = 0
        self.slack_offset = [0]
        self.s_id = s_id
        self.t_id = t_id
        self.out_adj: list[list[int]] = []
        self.in_adj: list[list[int]] = []
        self.mate_of_src: list[int] = []
        self.mate_of_dst: list[int] = []
        self.extra_out: dict[int, list[int]] = {x: [] for x in range(size)}
        self.extra_in: dict[int, list[int]] = {x: [] for x in range(size)}
        for a, b in sorted(set(edges)):
            self.extra_out[a].append(b)
            self.extra_in[b].append(a)
        self.build_work = 0


def reference_flow_edges(
    g: SparseDigraph, comp_of: list[int], m, forbidden
) -> tuple[int, set[tuple[int, int]]]:
    """(node count, edge set) of the materialised flow graph, written
    straight from the construction rules in the ``minput.flowgraph``
    docstring.

    ``comp_of`` numbers the SCCs; gateways follow the fully matched
    source components and slack families the source components with two
    or more unmatched members, both in ascending component number.
    """
    n = g.n
    s, t = 2 * n, 2 * n + 1
    forb = set(forbidden)
    ncomp = max(comp_of, default=-1) + 1
    members = [[v for v in range(n) if comp_of[v] == c] for c in range(ncomp)]
    free = [[v for v in members[c] if m.mate_of_dst[v] < 0] for c in range(ncomp)]
    entered = {comp_of[v] for u, v in g.edges() if comp_of[u] != comp_of[v]}
    sources = [c for c in range(ncomp) if c not in entered]

    edges: set[tuple[int, int]] = set()
    for u, v in g.edges():
        edges.add((n + v, u) if m.mate_of_src[u] == v else (u, n + v))
    for u in range(n):
        if m.mate_of_src[u] < 0:
            edges.add((s, u))
    gated = [c for c in sources if not free[c]]
    for i, c in enumerate(gated):
        gate = 2 * n + 2 + i
        edges.add((s, gate))
        edges.update((gate, n + v) for v in members[c] if v not in forb)
    nxt = 2 * n + 2 + len(gated)
    for c in sources:
        if len(free[c]) == 1:
            y = free[c][0]
            edges.update((n + y, n + v) for v in members[c] if v != y and v not in forb)
        elif len(free[c]) >= 2:
            slack = range(nxt, nxt + len(free[c]) - 1)
            nxt += len(slack)
            edges.update((n + v, z) for v in free[c] for z in slack)
            edges.update((z, t) for z in slack)
    for c in range(ncomp):
        if c not in sources:
            edges.update((n + v, t) for v in free[c])
    return nxt, edges


def reference_classify(scc, m) -> tuple[list[int], ...]:
    """The ``MatchClass`` fields, in declaration order, written straight
    from its docstring with one naive pass per component.

    Source components with no unmatched member are ``x_comps``, with
    exactly one are ``y_comps`` (their free vertex in ``y_free``).
    ``unmatched`` holds every unmatched vertex, ascending, and
    ``comp_unmatched`` the unmatched count of each component.
    """
    x_comps, y_comps, y_free = [], [], []
    comp_unmatched = []
    unmatched = []
    for c, members in enumerate(scc.comps):
        free = [v for v in members if m.mate_of_dst[v] < 0]
        comp_unmatched.append(len(free))
        unmatched.extend(free)
        if scc.is_source[c] and not free:
            x_comps.append(c)
        elif scc.is_source[c] and len(free) == 1:
            y_comps.append(c)
            y_free.append(free[0])
    return x_comps, y_comps, y_free, sorted(unmatched), comp_unmatched


def all_shortest_paths(
    adj: list[list[int]], s: int, t: int
) -> tuple[int | None, list[list[int]]]:
    """(distance, every shortest s->t path) by level-respecting DFS."""
    from collections import deque

    dist = {s: 0}
    q = deque([s])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                q.append(y)
    if t not in dist:
        return None, []
    paths: list[list[int]] = []

    def descend(x: int, acc: list[int]) -> None:
        if x == t:
            paths.append(list(acc))
            return
        for y in adj[x]:
            if dist.get(y) == dist[x] + 1 and dist[y] <= dist[t]:
                acc.append(y)
                descend(y, acc)
                acc.pop()

    descend(s, [s])
    return dist[t], paths


def max_disjoint_shortest(paths: list[list[int]]) -> int:
    """Largest number of interior-vertex-disjoint paths from the list."""
    best = 0
    for k in range(len(paths), 0, -1):
        for combo in combinations(paths, k):
            interiors = [set(p[1:-1]) for p in combo]
            if all(
                interiors[i].isdisjoint(interiors[j])
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return k
    return best
