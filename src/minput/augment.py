"""Cost minimisation by augmenting along shortest flow-graph paths.

Every s -> t path in the flow graph of a matching encodes a change of
matching that lowers its cost by exactly one; cycles encode cost-neutral
changes.  The driver below repeatedly extracts a maximal set of
vertex-disjoint shortest s -> t paths and applies them all, mirroring
the phase structure of Hopcroft-Karp; when no path remains the matching
cost is minimum over allowed matchings.  The s -> t distance increases
strictly between rounds, which bounds the number of rounds by
``6 * sqrt(n)``.  As Hopcroft-Karp stops once no free vertex is left,
the terminal round skips its search when no edge enters ``t``: then the
cost equals the number of source SCCs, a lower bound on every
matching's cost, so optimality needs no proof by search.

Slack families stay implicit throughout (see flowgraph): inside this
module each family is a single token node with a path capacity, and
tokens re-expand to distinct materialised slack ids in emitted paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection

from .errors import IterationBoundExceeded
from .flowgraph import FlowGraph, build_flow_graph
from .graph import SccInfo, SparseDigraph
from .matching import MatchClass, Matching, classify

PathSet = list[list[int]]


@dataclass
class IterationStats:
    """One augmentation round: s -> t distance (None when t was
    unreachable), paths applied, matching cost afterwards, and nodes
    plus edges touched."""

    dist: int | None
    paths: int
    cost: int
    work: int


@dataclass
class Diagnostics:
    per_iteration: list[IterationStats] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Rounds run, one per entry of ``per_iteration``."""
        return len(self.per_iteration)

    def distances(self) -> list[int]:
        return [it.dist for it in self.per_iteration if it.dist is not None]

    def total_work(self) -> int:
        return sum(it.work for it in self.per_iteration)


class LayeredDag:
    """Single-use DAG of edges lying on shortest s -> t paths.

    ``dist`` covers the internal node space: flow-graph ids below
    ``aux_base`` plus one token per slack family.  ``useful`` marks
    nodes on at least one shortest s -> t path; ``indeg`` counts useful
    in-edges per useful node and is consumed by ``extract_paths``.
    """

    __slots__ = ("fg", "dist", "dist_t", "useful", "indeg", "work")

    def __init__(self, fg: FlowGraph, dist: list[int], dist_t: int,
                 useful: bytearray, indeg: list[int], work: int):
        self.fg = fg
        self.dist = dist
        self.dist_t = dist_t
        self.useful = useful
        self.indeg = indeg
        self.work = work


def _run_bfs(fg: FlowGraph) -> tuple[LayeredDag | None, int]:
    if not fg.extra_in[fg.t_id]:
        return None, 0
    n = fg.n
    n2 = 2 * n
    size = fg.aux_base + fg.n_families
    s_id, t_id = fg.s_id, fg.t_id
    out_adj, mate_dst, extra_out = fg.out_adj, fg.mate_of_dst, fg.extra_out
    dist = [-1] * size
    dist[s_id] = 0
    frontier = [s_id]
    work = 0
    d = 0
    # The scan is ``fg.out_view`` written inline, as it touches every
    # node and edge once and the view would build a list per source copy.
    while frontier and dist[t_id] < 0:
        d += 1
        nxt: list[int] = []
        for x in frontier:
            if x < n:
                nbrs = out_adj[x]
                work += len(nbrs) + 1
                for v in nbrs:
                    y = n + v
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
                continue
            if x < n2:
                u = mate_dst[x - n]
                if u >= 0:
                    work += 2
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
                    continue
            nbrs = extra_out[x]
            work += len(nbrs) + 1
            for w in nbrs:
                if dist[w] < 0:
                    dist[w] = d
                    if w != t_id:
                        nxt.append(w)
        frontier = nxt
    if dist[t_id] < 0:
        return None, work

    # Backward sweep from t over level edges marks the nodes that can
    # still reach t along a shortest path and counts their useful
    # in-edges.  Candidates at the right level are reachable from s by
    # construction, hence useful themselves.
    in_view = fg.in_view
    useful = bytearray(size)
    indeg = [0] * size
    useful[t_id] = 1
    stack = [t_id]
    while stack:
        x = stack.pop()
        level = dist[x] - 1
        cands = in_view(x)
        work += len(cands) + 1
        count = 0
        for u in cands:
            if dist[u] == level:
                count += 1
                if not useful[u]:
                    useful[u] = 1
                    if u != s_id:
                        stack.append(u)
        indeg[x] = count
    return LayeredDag(fg, dist, dist[t_id], useful, indeg, work), work


def layered_bfs(fg: FlowGraph) -> LayeredDag | None:
    """Layered DAG of shortest s -> t paths, or None when t is unreachable.

    Every s -> t path ends at an entry of ``extra_in[t]``, so when that
    list is empty the search is skipped and costs no work.  It is empty
    exactly when every unmatched vertex is the lone free member of a
    source SCC, that is when the cost equals the number of source SCCs,
    the lower bound every matching meets (each source SCC needs one
    input); the matching is then optimal without a search.
    """
    dag, _ = _run_bfs(fg)
    return dag


def extract_paths(dag: LayeredDag) -> PathSet:
    """Maximal set of vertex-disjoint shortest s -> t paths.

    Paths start from the useful entries of ``extra_in[t]`` in order
    (direct destination copies, then family tokens) and are traced
    backwards, always picking the lowest-id live in-neighbour; used
    vertices die and every node whose useful in-degree drains to zero
    dies with them, so the loop stops exactly when no shortest path
    survives.  A direct copy starts at most one path.  A token starts
    one path per slack id of its family while it lives, each through
    its lowest live useful member and a fresh materialised slack id.
    Consumes the DAG.
    """
    fg = dag.fg
    aux_base = fg.aux_base
    s_id, t_id = fg.s_id, fg.t_id
    extra_in = fg.extra_in
    in_view, out_view = fg.in_view, fg.out_view
    dist = dag.dist
    indeg = dag.indeg
    live = bytearray(dag.useful)  # useful and not yet killed
    work = 0
    paths: PathSet = []

    for head in extra_in[t_id]:
        if not live[head]:
            continue
        if head < aux_base:
            members, prefixes = [head], ([t_id],)
        else:
            members = extra_in[head]
            prefixes = ([t_id, z] for z in fg.slack_ids(head - aux_base))
        # A token whose slack ids run out is left alive, not killed:
        # a kill would cascade and add to ``work``.
        p = 0
        for rev in prefixes:
            if not live[head]:
                break
            while not live[members[p]]:
                p += 1
                work += 1
            cur = members[p]
            rev.append(cur)
            while cur != s_id:
                cands = in_view(cur)
                work += len(cands)
                level = dist[cur] - 1
                best = -1
                for u in cands:
                    if dist[u] == level and live[u] and (best < 0 or u < best):
                        best = u
                cur = best
                rev.append(cur)
            rev.reverse()
            paths.append(rev)

            # kill interior vertices, then cascade useful in-degree drains
            queue: list[int] = []
            for x in rev[1:-1]:
                if x < aux_base:
                    live[x] = 0
                    queue.append(x)
            while queue:
                x = queue.pop()
                dx1 = dist[x] + 1
                nbrs = out_view(x)
                work += len(nbrs) + 1
                for w in nbrs:
                    if w != t_id and dist[w] == dx1 and live[w]:
                        indeg[w] -= 1
                        if indeg[w] == 0:
                            live[w] = 0
                            queue.append(w)
    dag.work += work
    return paths


def augment_on_paths(m: Matching, paths: PathSet) -> Matching:
    """Apply augmenting paths (or cycles) to the matching in place.

    Each destination-to-source edge undoes the matched pair it
    reversed, each source-to-destination edge becomes matched; all
    other edges (super source, gateways, slack nodes, free-vertex
    swaps inside a component) carry no matching change.
    """
    n = m.n
    for path in paths:
        removals: list[tuple[int, int]] = []
        additions: list[tuple[int, int]] = []
        for a, b in zip(path, path[1:]):
            if a < n and n <= b < 2 * n:
                additions.append((a, b - n))
            elif n <= a < 2 * n and b < n:
                removals.append((b, a - n))
        for u, v in removals:
            m.remove(u, v)
        for u, v in additions:
            m.add(u, v)
    return m


def minimize(
    g: SparseDigraph,
    scc: SccInfo,
    forbidden: Collection[int],
    m0: Matching,
    *,
    check: bool = False,
) -> tuple[Matching, MatchClass, Diagnostics]:
    """Drive an allowed matching to minimum cost.

    Returns the optimal matching (``m0`` is left untouched), the
    terminal round's classification of it, and per-round diagnostics.
    With ``check=True`` every round re-validates the matching, its
    allowedness, the exact cost drop, the strict growth of the s -> t
    distance and the conservation laws (matched sources stay matched,
    source components never lose their last unmatched member, components
    at zero or one unmatched members stay that way), and raises
    AssertionError on a breach, also under ``python -O``.

    Rounds are capped at ``6 * sqrt(n)``; exceeding the cap means a bug
    in this package, not an unsolvable instance, and raises
    IterationBoundExceeded.
    """
    diag = Diagnostics()
    n = g.n
    if n == 0:
        return m0.copy(), classify(scc, m0), diag
    forb = frozenset(forbidden)
    cap = int(6 * math.sqrt(n))
    m = m0.copy()
    prev_dist = 0
    while True:
        if len(diag.per_iteration) >= cap:
            raise IterationBoundExceeded(
                f"augmentation still running after {cap} rounds on n={n}"
            )
        cls = classify(scc, m)
        fg = build_flow_graph(g, scc, m, forb, cls)
        dag, bfs_work = _run_bfs(fg)
        if dag is None:
            diag.per_iteration.append(
                IterationStats(None, 0, cls.cost, fg.build_work + bfs_work)
            )
            break
        if check:
            if dag.dist_t < 3:
                raise AssertionError("flow graph distances start at 3")
            if dag.dist_t <= prev_dist:
                raise AssertionError("s->t distance must increase strictly")
        paths = extract_paths(dag)
        pre_mate_src = list(m.mate_of_src) if check else None
        augment_on_paths(m, paths)
        new_cost = cls.cost - len(paths)
        diag.per_iteration.append(
            IterationStats(dag.dist_t, len(paths), new_cost, fg.build_work + dag.work)
        )
        if check:
            m.validate(g)
            if not m.is_allowed(forb):
                raise AssertionError("augmentation lost the forbidden cover")
            post = classify(scc, m)
            if post.cost != new_cost:
                raise AssertionError("each path must lower the cost by one")
            for u in range(n):
                if pre_mate_src[u] >= 0 and m.mate_of_src[u] < 0:
                    raise AssertionError(
                        f"source copy of {u} lost its outgoing matched edge"
                    )
            for c in scc.source_ids:
                if cls.comp_unmatched[c] >= 1 and post.comp_unmatched[c] < 1:
                    raise AssertionError(
                        f"source component {c} lost its last unmatched member"
                    )
                if cls.comp_unmatched[c] <= 1 and post.comp_unmatched[c] > 1:
                    raise AssertionError(
                        f"component {c} went above one unmatched member"
                    )
        prev_dist = dag.dist_t
    return m, cls, diag
