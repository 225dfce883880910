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

Otherwise the terminal round proves that no path is left from whichever
side closes first (Pohl 1971; Beamer et al. 2012).  Next to the level
search from ``s``, a residual search from ``t`` runs while its set of
unexpanded nodes is the smaller and its work stays within the forward
side's; once it meets the forward reach a path exists and it stops.
Either reach running out without the other end proves the cut.  The
forward side is the same level search in every round, so distances,
DAGs and paths do not depend on the backward one.

The search runs in the flow graph's node space (see flowgraph), where
each source SCC has one component node, and emitted paths carry the
same ids.  A component node with ``k >= 2`` unmatched members admits
``k - 1`` paths to ``t`` per round; a swap inside a component with one
unmatched member passes through its node like any other path node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection

from .errors import IterationBoundExceeded
from .flowgraph import FlowGraph, build_flow_graph
from .graph import SccInfo, SparseDigraph
from .matching import MatchClass, Matching, classify, free_source_members

PathSet = list[list[int]]


@dataclass
class IterationStats:
    """One augmentation round: s -> t distance (None when t was
    unreachable), paths applied, matching cost afterwards, and nodes
    plus edges touched, the backward search's among them."""

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

    ``dist`` covers the flow graph's internal node space, ``view_size``
    ids with one component node per source SCC.  ``useful`` marks
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


def _backward_steps(
    fg: FlowGraph, stack: list[int], seen: bytearray, dist: list[int], budget: int, limit: int
) -> tuple[int, bool]:
    """Run the residual search from t until ``stack``, its unexpanded
    nodes, is empty or holds ``limit`` of them, or its next node would
    cost more than ``budget``.

    Returns the work spent and whether the search met the forward reach
    (a node with ``dist`` set, ``s`` among them), after which it stops
    for good.  An empty stack means the reach is closed: no s -> t path
    exists.  The in-neighbours are ``in_view``'s but a destination
    copy's mate, as the matched edge is reversed in the residual graph.
    """
    n = fg.n
    n2, in_view, mate_dst = 2 * n, fg.in_view, fg.mate_of_dst
    work = 0
    while stack and len(stack) < limit:
        x = stack.pop()
        if dist[x] >= 0:
            return work, True
        skip = mate_dst[x - n] if n <= x < n2 else -1
        preds = in_view(x)
        cost = len(preds) + 1
        if work + cost > budget:
            stack.append(x)
            break
        work += cost
        for u in preds:
            if not seen[u] and u != skip:
                if dist[u] >= 0:
                    return work, True
                seen[u] = 1
                stack.append(u)
    return work, False


def _run_bfs(fg: FlowGraph) -> tuple[LayeredDag | None, int]:
    """``layered_bfs`` with the work of both searches and of the sweep."""
    if not fg.t_in:
        return None, 0
    n = fg.n
    n2 = 2 * n
    size = fg.view_size
    s_id, t_id = fg.s_id, fg.t_id
    out_adj, mate_dst, out_view = fg.out_adj, fg.mate_of_dst, fg.out_view
    dist = [-1] * size
    dist[s_id] = 0
    frontier = [s_id]
    work = 0
    d = 0
    # The residual search from t: ``back`` holds its unexpanded nodes and
    # is None once it has met the forward reach.  Before each forward
    # level it catches up while it is the smaller side.
    seen = bytearray(size)
    seen[t_id] = 1
    back: list[int] | None = [t_id]
    back_work = 0
    # The forward scan writes ``fg.out_view`` inline for source copies
    # and matched destination copies, as it touches every node and edge
    # once and the view would build a list per source copy.
    while frontier and dist[t_id] < 0:
        if back is not None and len(back) < len(frontier) and back_work < work:
            spent, met = _backward_steps(fg, back, seen, dist, work - back_work, len(frontier))
            back_work += spent
            if met:
                back = None
            elif not back:
                return None, work + back_work
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
            nbrs = out_view(x)
            work += len(nbrs) + 1
            for w in nbrs:
                if dist[w] < 0:
                    dist[w] = d
                    if w != t_id:
                        nxt.append(w)
        frontier = nxt
    work += back_work
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

    Every s -> t path ends at an entry of ``fg.t_in``, so when that
    list is empty the search is skipped and costs no work.  It is empty
    exactly when every unmatched vertex is the lone free member of a
    source SCC, that is when the cost equals the number of source SCCs,
    the lower bound every matching meets (each source SCC needs one
    input); the matching is then optimal without a search.

    Otherwise a level search from ``s`` alternates with a residual
    search from ``t``, which runs while it has fewer unexpanded nodes
    and at most the forward side's work, and stops for good once it
    meets the forward reach.  None comes from whichever side runs out
    first; the DAG, from the forward side alone, is the same whatever
    the backward one did.  The work counted covers both sides.
    """
    dag, _ = _run_bfs(fg)
    return dag


def extract_paths(dag: LayeredDag) -> PathSet:
    """Maximal set of shortest s -> t paths, vertex-disjoint but for
    family nodes.

    Paths start from the useful entries of ``fg.t_in`` in order
    (direct destination copies, then family nodes) and are traced
    backwards, always picking the lowest-id live in-neighbour; used
    vertices die and every node whose useful in-degree drains to zero
    dies with them, so the loop stops exactly when no shortest path
    survives.  A direct copy starts at most one path.  A family node
    starts up to ``k - 1`` paths while it lives, each through its lowest
    live useful member.  Paths carry the view's ids.  Consumes the DAG.
    """
    fg = dag.fg
    s_id, t_id = fg.s_id, fg.t_id
    in_view, out_view = fg.in_view, fg.out_view
    dist = dag.dist
    indeg = dag.indeg
    live = bytearray(dag.useful)  # useful and not yet killed
    work = 0
    paths: PathSet = []

    for head in fg.t_in:
        if not live[head]:
            continue
        if head > t_id:
            members = in_view(head)
            prefix, cap = [t_id, head], fg.cls.comp_unmatched[head - t_id - 1] - 1
        else:
            members, prefix, cap = [head], [t_id], 1
        # A family node whose cap runs out is left alive, not killed: a
        # kill would cascade and add to ``work``.
        p = 0
        for _ in range(cap):
            if not live[head]:
                break
            while not live[members[p]]:
                p += 1
                work += 1
            cur = members[p]
            trail = [cur]  # internal ids, from the member back to s
            while cur != s_id:
                cands = in_view(cur)
                work += len(cands)
                level = dist[cur] - 1
                best = -1
                for u in cands:
                    if dist[u] == level and live[u] and (best < 0 or u < best):
                        best = u
                if best < 0:
                    raise AssertionError(f"no live in-neighbour one level below node {cur}")
                cur = best
                trail.append(cur)
            rev = prefix + trail
            rev.reverse()
            paths.append(rev)

            # kill interior vertices, then cascade useful in-degree drains
            queue = trail[-2::-1]
            for x in queue:
                live[x] = 0
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
    other edges (those at ``s``, ``t`` and the component nodes) carry
    no matching change.
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
    ``free_source_members`` first moves the start into N; ValueError
    names a source component it cannot free.  With ``check=True`` every
    round re-validates the matching, its allowedness, the exact cost
    drop, the strict growth of the s -> t distance and the conservation
    laws (matched sources stay matched, source components keep an
    unmatched member, those at one stay there), and raises
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
    cls = classify(scc, m)
    blocked = free_source_members(scc, m, cls, forb)
    if blocked >= 0:
        raise ValueError(f"source component {blocked} is entirely forbidden")
    prev_dist = 0
    while True:
        if len(diag.per_iteration) >= cap:
            raise IterationBoundExceeded(
                f"augmentation still running after {cap} rounds on n={n}"
            )
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
        post = classify(scc, m)
        if check:
            m.validate(g)
            if not m.is_allowed(forb):
                raise AssertionError("augmentation lost the forbidden cover")
            if post.cost != new_cost:
                raise AssertionError("each path must lower the cost by one")
            for u in range(n):
                if pre_mate_src[u] >= 0 and m.mate_of_src[u] < 0:
                    raise AssertionError(
                        f"source copy of {u} lost its outgoing matched edge"
                    )
            for c in scc.source_ids:
                if post.comp_unmatched[c] < 1:
                    raise AssertionError(
                        f"source component {c} lost its last unmatched member"
                    )
                if cls.comp_unmatched[c] == 1 and post.comp_unmatched[c] > 1:
                    raise AssertionError(
                        f"component {c} went above one unmatched member"
                    )
        cls = post
        prev_dist = dag.dist_t
    return m, cls, diag
