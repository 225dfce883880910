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
all matched; minimising this cost over allowed matchings is what the
rest of the package is about.

``find_allowed_matching`` builds the start that minimisation improves:
a Hopcroft-Karp cover of the forbidden destinations, run from the
forbidden side, extended by the Karp-Sipser rule in O(n + m).  The
closer that start is to optimal, the fewer rounds remain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection

from .graph import SccInfo, SparseDigraph, vertex_ids


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
    n_left: int, n_right: int, adj: list[list[int]]
) -> tuple[list[int], list[int]]:
    """Maximum matching in a bipartite graph, O(E sqrt(V)).

    Parameters
    ----------
    n_left, n_right : int
        Side sizes; left vertices are ``0 .. n_left-1``.
    adj : list[list[int]]
        Right neighbours of each left vertex.

    Returns
    -------
    (mate_left, mate_right)
        Arrays with the matched partner per vertex, -1 where free.

    The result is deterministic: breadth-first layers grow from free
    left vertices in ascending order and the augmenting search scans
    adjacency lists in the order given.
    """
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


def _cover_forbidden(
    g: SparseDigraph, f_list: list[int]
) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp from the forbidden side: ``f_list`` is the left
    side and every vertex's source copy the right, so each phase starts
    from at most ``len(f_list)`` free forbidden destinations."""
    return hopcroft_karp(len(f_list), g.n, [g.in_adj[f] for f in f_list])


def find_allowed_matching(g: SparseDigraph, forbidden: Collection[int]) -> Matching | None:
    """Maximal matching whose unmatched vertices all avoid ``forbidden``.

    First covers every forbidden destination by a maximum matching
    between the forbidden destination copies and their in-neighbours'
    source copies, found by Hopcroft-Karp with the forbidden side on
    the left.  If some forbidden vertex cannot be covered there is no
    allowed matching at all and the result is None (``hall_violator``
    says why).  Otherwise the cover is extended by the Karp-Sipser rule
    in O(n + m), never unmatching a forbidden destination:

    * every free source and free destination keeps the number of its
      free neighbours on the other side;
    * a free vertex with exactly one free neighbour is matched to it.
      Such vertices wait on a stack: the ones present after the cover
      come off in ascending order, sources before destinations, and a
      vertex whose count drops to one is pushed when it does, so it
      comes off before every vertex pushed earlier;
    * when the stack holds no such vertex, the lowest free source with
      a free neighbour takes its lowest free destination.

    A degree-one match never shrinks the largest matching still
    reachable, so the start is close to maximum and ``minimize`` has
    few rounds left to run.
    """
    n = g.n
    f_list = vertex_ids(forbidden, n, "forbidden vertex")
    match = Matching(n)
    if f_list:
        mate_f, _ = _cover_forbidden(g, f_list)
        if min(mate_f) < 0:
            return None
        for f, u in zip(f_list, mate_f):
            match.add(u, f)
    out_adj, in_adj = g.out_adj, g.in_adj
    mate_src, mate_dst = match.mate_of_src, match.mate_of_dst
    # Free neighbours of each free source and destination.  A vertex's
    # entry is zeroed when it is matched and only falls from there, so a
    # count of 1 always belongs to a free vertex.
    free_out = list(map(len, out_adj))
    free_in = list(map(len, in_adj))
    for f in f_list:
        u = mate_dst[f]
        free_out[u] = free_in[f] = 0
        for w in in_adj[f]:
            free_out[w] -= 1
        for w in out_adj[u]:
            free_in[w] -= 1
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


def hall_violator(g: SparseDigraph, forbidden: Collection[int]) -> list[int]:
    """Forbidden vertices ``S`` with fewer in-neighbours than members.

    Empty when every forbidden vertex can be covered.  Otherwise ``S``
    holds the lowest forbidden vertex the Hopcroft-Karp cover leaves
    uncovered plus every forbidden vertex reachable from it by
    alternating paths (any in-neighbour, then that source's mate).  All
    of ``S``'s in-neighbours are matched into ``S`` minus its start, so
    ``|N_in(S)| = |S| - 1``: no matching covers ``S``.  Sorted.
    """
    f_list = vertex_ids(forbidden, g.n, "forbidden vertex")
    mate_f, f_of_src = _cover_forbidden(g, f_list)
    if not f_list or min(mate_f) >= 0:
        return []
    seen = {mate_f.index(-1)}
    queue = deque(seen)
    while queue:
        for u in g.in_adj[f_list[queue.popleft()]]:
            fi = f_of_src[u]  # matched, or the cover would not be maximum
            if fi not in seen:
                seen.add(fi)
                queue.append(fi)
    return sorted(f_list[fi] for fi in seen)


@dataclass
class MatchClass:
    """Classification of source SCCs and unmatched vertices for one matching.

    Source components split by their number of unmatched members: none
    (``x_comps``), exactly one (the keys of ``y_free``, which maps each
    to its free vertex), or two and more.  ``unmatched`` lists every
    unmatched vertex and ``comp_unmatched`` holds the unmatched count of
    every component.  Lists and keys ascend.

    Per round, ``classify`` makes one comprehension over the
    destination mates and allocates one zeroed count per component;
    every other step costs O(1) per unmatched vertex or per source
    component, and no Python loop walks all components or a
    component's members.
    """

    x_comps: list[int]
    y_free: dict[int, int]
    unmatched: list[int]
    comp_unmatched: list[int]

    @property
    def cost(self) -> int:
        """Unmatched vertex count plus fully matched source component count."""
        return len(self.unmatched) + len(self.x_comps)


def classify(scc: SccInfo, m: Matching) -> MatchClass:
    """Sort the source components by unmatched count; see ``MatchClass``."""
    unmatched = m.unmatched()
    comps_of_free = list(map(scc.comp_id.__getitem__, unmatched))
    comp_unmatched = [0] * scc.n_comps
    for c in comps_of_free:
        comp_unmatched[c] += 1
    x_comps = [c for c in scc.source_ids if comp_unmatched[c] == 0]
    # the free vertex of a one-free component is the only one stored under it
    free_of = dict(zip(comps_of_free, unmatched))
    y_free = {c: free_of[c] for c in scc.source_ids if comp_unmatched[c] == 1}
    return MatchClass(x_comps, y_free, unmatched, comp_unmatched)
