"""Matchings on the bipartite splitting of a digraph.

The splitting of ``G`` doubles every vertex ``u`` into a source copy
``u_src`` and a destination copy ``u_dst`` and turns each edge
``(u, v)`` into ``(u_src, v_dst)``.  A matching of the splitting pulls
back to a set of edges of ``G`` in which no two edges share a source and
no two share a destination; we store matchings directly in that pulled
back form, as a pair of mate arrays indexed by vertex.

A vertex counts as *unmatched* when its destination copy is not covered.
Given a forbidden vertex set F, a matching is *allowed* when every
unmatched vertex lies outside F.  The cost of a matching is the number
of unmatched vertices plus the number of source SCCs whose members are
all matched, or the unmatched count alone for a flow of the network N
(see flowgraph), which leaves each source SCC an unmatched member;
minimising this cost over allowed matchings is what the rest of the
package is about.

``_allowed_start`` builds the allowed matching that ``solver._start``
moves into N for minimisation to improve: Karp-Sipser, then repair.
The Karp-Sipser rule builds a maximal matching in O(n + m) with nothing
forbidden; then a Hopcroft-Karp search from the forbidden side,
warm-started from that matching, covers the forbidden destinations it
left free.  The closer that start is to optimal, the fewer rounds
remain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection

from .graph import SccInfo, SparseDigraph


class Matching:
    """Mutable matching on a splitting, stored as twin mate arrays.

    ``mate_of_src[u]`` is the destination vertex matched through
    ``u_src`` (-1 when free) and ``mate_of_dst[v]`` the source vertex
    matched through ``v_dst``.  Single-owner: callers that need a
    snapshot must ``copy()``.
    """

    __slots__ = ("n", "mate_of_src", "mate_of_dst")

    def __init__(self, n: int):
        self.n = n
        self.mate_of_src = [-1] * n
        self.mate_of_dst = [-1] * n

    @classmethod
    def from_edges(cls, n: int, pairs: Collection[tuple[int, int]]) -> "Matching":
        m = cls(n)
        for u, v in pairs:
            m.add(u, v)
        return m

    def add(self, u: int, v: int) -> None:
        if self.mate_of_src[u] >= 0 or self.mate_of_dst[v] >= 0:
            raise ValueError(f"cannot add ({u}, {v}): an endpoint is already matched")
        self.mate_of_src[u] = v
        self.mate_of_dst[v] = u

    def remove(self, u: int, v: int) -> None:
        if self.mate_of_src[u] != v:
            raise ValueError(f"cannot remove ({u}, {v}): not in the matching")
        self.mate_of_src[u] = -1
        self.mate_of_dst[v] = -1

    @property
    def size(self) -> int:
        """Number of matched pairs."""
        return self.n - self.mate_of_src.count(-1)

    def edges(self) -> list[tuple[int, int]]:
        """Matched pairs as edges of G, ascending by source."""
        return [(u, v) for u, v in enumerate(self.mate_of_src) if v >= 0]

    def unmatched(self) -> list[int]:
        """Vertices whose destination copy is free, ascending."""
        return [v for v, u in enumerate(self.mate_of_dst) if u < 0]

    def is_allowed(self, forbidden: Collection[int]) -> bool:
        return all(self.mate_of_dst[v] >= 0 for v in forbidden)

    def copy(self) -> "Matching":
        dup = Matching.__new__(Matching)
        dup.n = self.n
        dup.mate_of_src = list(self.mate_of_src)
        dup.mate_of_dst = list(self.mate_of_dst)
        return dup

    def validate(self, g: SparseDigraph) -> None:
        """Raise ValueError unless this is a consistent matching on g's splitting."""
        if self.n != g.n:
            raise ValueError("matching and graph sizes differ")
        for u, v in enumerate(self.mate_of_src):
            if v < 0:
                continue
            if self.mate_of_dst[v] != u:
                raise ValueError(f"mate arrays disagree on ({u}, {v})")
            if v not in g.out_adj[u]:
                raise ValueError(f"matched pair ({u}, {v}) is not an edge")
        for v, u in enumerate(self.mate_of_dst):
            if u >= 0 and self.mate_of_src[u] != v:
                raise ValueError(f"mate arrays disagree on ({u}, {v})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.n == other.n and self.mate_of_src == other.mate_of_src

    def __repr__(self) -> str:
        return f"Matching(n={self.n}, edges={self.edges()!r})"


def hopcroft_karp(
    n_left: int,
    n_right: int,
    adj: list[list[int]],
    mate_left: list[int] | None = None,
    mate_right: list[int] | None = None,
) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph, O(E sqrt(V)).

    Parameters
    ----------
    n_left, n_right : int
        Side sizes; left vertices are ``0 .. n_left-1``.
    adj : list[list[int]]
        Right neighbours of each left vertex.
    mate_left, mate_right : list[int], optional
        A warm start: consistent mate arrays of a matching along ``adj``,
        -1 where free.  Both are given or neither; they are extended in
        place and returned.  Augmenting paths only ever rematch a left
        vertex, so every left vertex matched at the start stays matched.

    Returns
    -------
    (mate_left, mate_right)
        Arrays with the matched partner per vertex, -1 where free.

    The result is deterministic: breadth-first layers grow from free
    left vertices in ascending order and the augmenting search scans
    adjacency lists in the order given.
    """
    if mate_left is None or mate_right is None:
        mate_left = [-1] * n_left
        mate_right = [-1] * n_right
    inf = n_left + n_right + 1
    dist = [inf] * n_left
    queue: deque[int] = deque()
    while True:
        queue.clear()
        for u in range(n_left):
            if mate_left[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        frontier = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= frontier:
                continue
            for v in adj[u]:
                w = mate_right[v]
                if w < 0:
                    if frontier == inf:
                        frontier = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if frontier == inf:
            return mate_left, mate_right
        cursor = [0] * n_left
        for start in range(n_left):
            if mate_left[start] >= 0:
                continue
            stack = [start]
            via: list[int] = []
            while stack:
                u = stack[-1]
                moved = False
                while cursor[u] < len(adj[u]):
                    v = adj[u][cursor[u]]
                    cursor[u] += 1
                    w = mate_right[v]
                    if w < 0:
                        # free destination: augment along the stack
                        via.append(v)
                        for uu, vv in zip(stack, via):
                            mate_left[uu] = vv
                            mate_right[vv] = uu
                            dist[uu] = inf
                        stack.clear()
                        moved = True
                        break
                    if dist[w] == dist[u] + 1:
                        via.append(v)
                        stack.append(w)
                        moved = True
                        break
                if not moved:
                    dist[u] = inf
                    stack.pop()
                    if via:
                        via.pop()


def _karp_sipser(g: SparseDigraph) -> Matching:
    """Maximal matching of the splitting by the Karp-Sipser rule, O(n + m).

    * every free source and free destination keeps the number of its
      free neighbours on the other side;
    * a free vertex with exactly one free neighbour is matched to it.
      Such vertices wait on a stack: the ones present at the start come
      off in ascending order, sources before destinations, and a vertex
      whose count drops to one is pushed when it does, so it comes off
      before every vertex pushed earlier;
    * when the stack holds no such vertex, the lowest free source with
      a free neighbour takes its lowest free destination.

    A degree-one match never shrinks the largest matching still
    reachable, so the result is close to maximum.
    """
    n = g.n
    match = Matching(n)
    out_adj, in_adj = g.out_adj, g.in_adj
    mate_src, mate_dst = match.mate_of_src, match.mate_of_dst
    # Free neighbours of each free source and destination.  A vertex's
    # entry is zeroed when it is matched and only falls from there, so a
    # count of 1 always belongs to a free vertex.
    free_out = list(map(len, out_adj))
    free_in = list(map(len, in_adj))
    # degree-one vertices wait on a stack, a source u as u and a
    # destination v as ~v; the first ones come off in ascending order
    stack = [u for u, count in enumerate(free_out) if count == 1]
    stack += [~v for v, count in enumerate(free_in) if count == 1]
    stack.reverse()
    sources = iter(range(n))  # passed-over sources stay matched or stuck
    while True:
        if stack:
            u = stack.pop()
            if u >= 0:
                if free_out[u] != 1:
                    continue
                for v in out_adj[u]:
                    if mate_dst[v] < 0:
                        break
                dsts, srcs = (), in_adj[v]  # u's other destinations are matched
            else:
                v = ~u
                if free_in[v] != 1:
                    continue
                for u in in_adj[v]:
                    if mate_src[u] < 0:
                        break
                dsts, srcs = out_adj[u], ()  # v's other sources are matched
        else:
            for u in sources:
                if free_out[u] > 0:
                    break
            else:
                break
            for v in out_adj[u]:
                if mate_dst[v] < 0:
                    break
            dsts, srcs = out_adj[u], in_adj[v]
        mate_src[u] = v
        mate_dst[v] = u
        free_out[u] = free_in[v] = 0
        for w in dsts:
            count = free_in[w] - 1
            free_in[w] = count
            if count == 1:
                stack.append(~w)
        for w in srcs:
            count = free_out[w] - 1
            free_out[w] = count
            if count == 1:
                stack.append(w)
    return match


def _allowed_start(g: SparseDigraph, f_list: list[int]) -> Matching | list[int]:
    """Allowed matching to start minimisation from: Karp-Sipser, then
    repair, on the sorted, checked forbidden ids ``f_list``.

    First ``_karp_sipser`` builds a maximal matching with nothing
    forbidden.  Then the forbidden destinations it left free are covered
    by ``hopcroft_karp`` with the forbidden vertices on the left and
    every vertex's source copy on the right, warm-started from the
    Karp-Sipser mates of the forbidden destinations; a source matched to
    an allowed destination counts as free there.  An augmenting path
    runs from a free forbidden destination, through forbidden-matched
    sources, to a source that is either

    * free: the matching grows by one; or
    * matched to an allowed destination, which gives up its mate: the
      size stays.

    No other destination loses its mate, so the result is allowed, and
    every forbidden destination the Karp-Sipser pass covered stays
    covered.  A destination given up may keep a free in-neighbour, so
    the result need not be maximal.  The repair's phases are bounded as
    in Hopcroft-Karp, so the start costs O(n + m) plus O(m sqrt(n)).

    Where the repair leaves a forbidden destination uncovered, its cover
    of F is maximum, and the result is a Hall set ``S`` in place of a
    matching: the lowest uncovered vertex plus every forbidden vertex
    reachable from it by alternating paths (any in-neighbour, then that
    source's forbidden mate).  All of ``S``'s in-neighbours are matched
    into ``S`` minus its start, so ``|N_in(S)| = |S| - 1``: no matching
    covers ``S``.  Sorted.
    """
    match = _karp_sipser(g)
    if not f_list:
        return match
    mate_src, mate_dst = match.mate_of_src, match.mate_of_dst
    mate_f = [mate_dst[f] for f in f_list]
    f_of_src = [-1] * g.n
    for fi, (f, u) in enumerate(zip(f_list, mate_f)):
        if u >= 0:  # the search may move u to another forbidden mate
            f_of_src[u] = fi
            mate_src[u] = mate_dst[f] = -1
    in_f = [g.in_adj[f] for f in f_list]
    hopcroft_karp(len(f_list), g.n, in_f, mate_f, f_of_src)
    if min(mate_f) < 0:
        seen = {mate_f.index(-1)}
        queue = deque(seen)
        while queue:
            for u in in_f[queue.popleft()]:
                fi = f_of_src[u]  # matched, or the cover would not be maximum
                if fi not in seen:
                    seen.add(fi)
                    queue.append(fi)
        return [f_list[fi] for fi in sorted(seen)]
    for f, u in zip(f_list, mate_f):
        v = mate_src[u]
        if v >= 0:  # an allowed destination gives up its mate
            mate_dst[v] = -1
        mate_src[u] = f
        mate_dst[f] = u
    return match


@dataclass
class MatchClass:
    """Classification of unmatched vertices for one matching.

    ``unmatched`` lists every unmatched vertex, ascending, and
    ``comp_unmatched`` holds the unmatched count of every component,
    the one number a component node of the flow graph reads.

    Per round, ``classify`` makes one comprehension over the
    destination mates and allocates one zeroed count per component;
    every other step costs O(1) per unmatched vertex, and no Python loop
    walks all components or a component's members.
    """

    unmatched: list[int]
    comp_unmatched: list[int]

    @property
    def cost(self) -> int:
        """Unmatched vertex count, the cost of a matching in N."""
        return len(self.unmatched)


def classify(scc: SccInfo, m: Matching) -> MatchClass:
    """Count each component's unmatched members; see ``MatchClass``."""
    unmatched = m.unmatched()
    comp_unmatched = [0] * scc.n_comps
    for c in map(scc.comp_id.__getitem__, unmatched):
        comp_unmatched[c] += 1
    return MatchClass(unmatched, comp_unmatched)


def free_source_members(
    scc: SccInfo, m: Matching, cls: MatchClass, forb: Collection[int]
) -> None:
    """Unmatch the lowest allowed member of each source component that
    ``m``, classified as ``cls`` (patched to match), leaves fully matched:
    the cost stays, and an allowed ``m`` becomes an allowed flow of N.
    Every source component must have an allowed member."""
    for c in [c for c in scc.source_ids if cls.comp_unmatched[c] == 0]:
        v = next(v for v in scc.comps[c] if v not in forb)
        m.remove(m.mate_of_dst[v], v)
        cls.comp_unmatched[c] = 1
        cls.unmatched.append(v)
    cls.unmatched.sort()
