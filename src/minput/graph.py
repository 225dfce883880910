"""Sparse directed graphs over dense integer ids, with SCC machinery.

The influence graph of a linear system ``xdot = A x`` has one vertex per
state variable and an edge ``i -> j`` whenever entry ``A[j][i]`` is
nonzero, i.e. whenever variable ``i`` appears in the equation for
variable ``j``.  Note the transposition: matrix entries are (row, col)
pairs while edges run from the influencing column to the influenced row.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import IndexOutOfRange

# Largest vertex count a graph may have: a file header can name any
# count, and the adjacency lists are allocated before any edge is read.
# An edge-list header naming 2**21 vertices and no edge already peaks at
# about 1.2 GB through the CLI on 64-bit CPython 3.11, growing linearly
# with the count.
MAX_VERTICES = 2**22


def _plain_int(v: object) -> int | None:
    """``v`` as a plain ``int``; integer types such as ``numpy.int64``
    are accepted, ``bool`` and non-integers give None."""
    if isinstance(v, bool):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def vertex_id(v: object, n: int, what: str) -> int:
    """``v`` as a plain ``int`` in ``[0, n)``, by the ``_plain_int`` rule.

    This is the package's one rule for a vertex id a caller passes in
    (README, "Library use"); anything else raises IndexOutOfRange.
    """
    i = _plain_int(v)
    if i is None or not 0 <= i < n:
        raise IndexOutOfRange(f"{what} {v!r} is not an id in [0, {n})")
    return i


def vertex_ids(values: Iterable[object], n: int, what: str) -> list[int]:
    """The sorted distinct ids in ``values``, each checked by ``vertex_id``."""
    return sorted({vertex_id(v, n, what) for v in values})


def empty_adjacency(n: object) -> tuple[list[list[int]], list[list[int]]]:
    """Empty ``(out_adj, in_adj)`` lists for ``n`` vertices.

    This is the package's one vertex-count check.  ``n`` must be a plain
    or integer-typed int in ``[0, MAX_VERTICES]``; ``bool``, non-integer
    and negative counts, and counts above ``MAX_VERTICES`` (2**22),
    raise IndexOutOfRange before anything is allocated.
    """
    count = _plain_int(n)
    if count is None or count < 0:
        raise IndexOutOfRange(f"vertex count must be a nonnegative integer, got {n!r}")
    if count > MAX_VERTICES:
        raise IndexOutOfRange(f"vertex count {count} exceeds the limit of {MAX_VERTICES}")
    return [[] for _ in range(count)], [[] for _ in range(count)]


class SparseDigraph:
    """Immutable directed graph on vertices ``0 .. n-1``.

    Parallel edges are collapsed; self loops are kept.  Adjacency is
    stored both ways (``out_adj`` and ``in_adj``) as sorted lists, which
    makes every traversal in the package deterministic.  The build
    sorts each out-list in place and replaces only a list that has
    parallel edges; the file readers hand their lists over through
    ``_from_lists`` and give them up.

    Parameters
    ----------
    n : int
        Number of vertices, stored as a plain ``int``; checked by
        ``empty_adjacency``.
    edges : iterable of (int, int)
        Directed edges ``(u, v)`` meaning ``u -> v``.  Integer types such
        as ``numpy.int64`` are stored as plain ``int``; ``bool`` and
        non-integer endpoints raise IndexOutOfRange.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        out_adj, in_adj = empty_adjacency(n)
        n = len(out_adj)
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u = vertex_id(u, n, "edge endpoint")
                v = vertex_id(v, n, "edge endpoint")
            elif not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex range [0, {n})")
            out_adj[u].append(v)
        self._finish(out_adj, in_adj)

    @classmethod
    def _from_lists(cls, out_adj: list[list[int]], in_adj: list[list[int]]) -> SparseDigraph:
        """The graph with an edge ``u -> v`` for each ``v`` in ``out_adj[u]``.

        Both lists come from ``empty_adjacency`` and are taken over, not
        copied: the caller gives them up.  Each out-list is sorted in
        place, and one with parallel edges is replaced by a new list.
        The caller has checked that every id in ``out_adj`` is a plain
        int in ``[0, n)`` and has left ``in_adj`` empty; the file readers
        in ``cli`` check ids as they read them.
        """
        g = cls.__new__(cls)
        g._finish(out_adj, in_adj)
        return g

    def _finish(self, out_adj: list[list[int]], in_adj: list[list[int]]) -> None:
        """Sort each out-list in place, fill ``in_adj`` and count ``m``.

        A sorted list's parallel edges are repeats of the id just before
        them, so the fill spots them without building anything; only a
        list that has one is replaced by its sorted distinct ids.  The
        lists are the caller's, taken over and changed where they lie.
        """
        m = 0
        for u, nbrs in enumerate(out_adj):
            nbrs.sort()
            prev = -1
            for v in nbrs:
                if v == prev:
                    break
                in_adj[v].append(u)
                prev = v
            else:
                m += len(nbrs)
                continue
            # a repeat of prev: the ids up to prev are in in_adj already
            nbrs = sorted(set(nbrs))
            out_adj[u] = nbrs
            m += len(nbrs)
            for v in nbrs:
                if v > prev:
                    in_adj[v].append(u)
        # in_adj ends up sorted because sources are visited in ascending order
        self.n = len(out_adj)
        self.m = m
        self.out_adj = out_adj
        self.in_adj = in_adj

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in ascending (source, destination) order."""
        for u in range(self.n):
            for v in self.out_adj[u]:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u -> v`` is an edge; both ids are checked by ``vertex_id``."""
        u = vertex_id(u, self.n, "edge endpoint")
        return vertex_id(v, self.n, "edge endpoint") in self.out_adj[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseDigraph):
            return NotImplemented
        return self.n == other.n and self.out_adj == other.out_adj

    def __repr__(self) -> str:
        return f"SparseDigraph(n={self.n}, m={self.m})"


def build_graph(n: int, nonzero_entries: Iterable[tuple[int, int]]) -> SparseDigraph:
    """Build the influence graph from the nonzero pattern of ``A``.

    Each entry is a 0-based ``(row, col)`` position; entry ``(j, i)``
    contributes the edge ``i -> j``.
    """
    return SparseDigraph(n, ((c, r) for r, c in nonzero_entries))


# ``solve`` needs neither this nor ``induced_subgraph``; the benchmark's
# traced replica (perfbench/replica.py) still calls both.
def isolated_vertices(g: SparseDigraph) -> list[int]:
    """Vertices with no incident edges at all (a self loop counts as incident)."""
    return [v for v in range(g.n) if not g.out_adj[v] and not g.in_adj[v]]


def induced_subgraph(g: SparseDigraph, keep: list[int]) -> tuple[SparseDigraph, list[int]]:
    """Induced subgraph on ``keep``, plus the new-id -> old-id table.

    ``keep`` must be sorted and duplicate-free; new ids follow its order.
    """
    remap = {old: new for new, old in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u in keep
        for v in g.out_adj[u]
        if v in remap
    ]
    return SparseDigraph(len(keep), edges), list(keep)


@dataclass
class SccInfo:
    """Strongly connected components of a digraph.

    The ``r`` sources, components no edge enters from another, are
    numbered ``0 .. r-1`` by ascending lowest member, then the rest in an
    order left to the algorithm.  The sources' order is also the order in
    which a depth-first search over out-edges, roots from vertex 0 upward,
    finishes them: a source is entered only from its own members, so that
    search first reaches it at a root, its lowest member, and finishes it
    before the next root starts.  Outputs read only the sources' order
    (``source_ids``, the flow graph's component nodes and the
    all-forbidden components that ``solve``'s verdict names); it must
    not depend on the SCC algorithm.

    Attributes
    ----------
    comp_id : list[int]
        Component index per vertex.
    comps : list[list[int]]
        Members of each component, sorted ascending.
    source_ids : range
        ``range(r)``, the indices of the source components.
    """

    comp_id: list[int]
    comps: list[list[int]]
    source_ids: range

    @property
    def n_comps(self) -> int:
        return len(self.comps)


def scc_decompose(g: SparseDigraph) -> SccInfo:
    """A peel of the acyclic in-fringe, then Kosaraju's algorithm on the rest.

    The peel is Kahn's queue over in-degree counts, seeded with the
    in-degree-0 vertices in ascending order: it takes every vertex that
    no unpeeled vertex enters.  Each peeled vertex is a one-member
    component, and a source exactly when it has no in-edge at all.  A
    self loop keeps its vertex's count above 0, so that vertex stays.

    Kosaraju's two searches, iterative so deep graphs cannot overflow
    the stack, run on the unpeeled core.  A depth-first search over
    out-edges records the post-order.  Then, in reverse post-order, each
    unplaced vertex starts a component that floods over in-edges to the
    unplaced vertices reaching it.  That places every component after
    all components with an edge into it, so an in-edge from a placed
    vertex outside it, a peeled one included, makes it no source.

    The core's sources finish in ascending order of lowest member (see
    ``SccInfo``), as the peeled ones are seeded; one sort of the lowest
    members merges the two.  The other components follow, peeled
    vertices in peel order, then the core's in the first search's finish
    order; their order reaches no output, so they are not sorted.
    """
    n = g.n
    out, inn = g.out_adj, g.in_adj
    seen = bytearray(n)
    comp_id = [-1] * n
    # "[] in inn" is one C-level pass: a graph with no in-degree-0 vertex
    # pays nothing more for the peel.
    peeled = [v for v, preds in enumerate(inn) if not preds] if [] in inn else []
    r_peeled = len(peeled)  # the in-degree-0 vertices, ascending: the peeled sources
    if peeled:
        count = list(map(len, inn))
        for c, v in enumerate(peeled):  # grows as counts reach 0
            seen[v] = 1
            comp_id[v] = c
            for w in out[v]:
                count[w] -= 1
                if not count[w]:
                    peeled.append(w)
    comps = [[v] for v in peeled]
    # Kosaraju on the core; peeled vertices are already seen and placed.
    post: list[int] = []
    root = seen.find(0)
    while root >= 0:
        seen[root] = 1
        path, nbrs = [root], [iter(out[root])]  # nbrs[i] walks out[path[i]]
        while nbrs:
            for w in nbrs[-1]:
                if not seen[w]:
                    seen[w] = 1
                    path.append(w)
                    nbrs.append(iter(out[w]))
                    break
            else:
                nbrs.pop()
                post.append(path.pop())
        root = seen.find(0, root + 1)
    placed = others, sources = [], []  # placement order, indexed by "is a source"
    for root in reversed(post):
        if comp_id[root] >= 0:
            continue
        c = len(comps)
        comp_id[root] = c
        members = [root]
        comps.append(members)
        source = True
        for v in members:  # grows as the flood reaches new members
            for u in inn[v]:
                cu = comp_id[u]
                if cu < 0:
                    comp_id[u] = c
                    members.append(u)
                elif cu != c:
                    source = False
        members.sort()
        placed[source].append(c)
    # Sources by lowest member, then peeled vertices, then the core's others.
    heads = peeled[:r_peeled] + [comps[c][0] for c in sources]
    heads.sort()
    order = [comp_id[v] for v in heads]
    order += range(r_peeled, len(peeled))
    order += reversed(others)
    new = [0] * len(order)
    for i, c in enumerate(order):
        new[c] = i
    return SccInfo([new[c] for c in comp_id], [comps[c] for c in order], range(len(heads)))


def reachable_from(g: SparseDigraph, seeds: Iterable[int]) -> set[int]:
    """All vertices reachable from ``seeds`` (seeds included)."""
    seen = bytearray(g.n)
    queue: deque[int] = deque()
    for s in vertex_ids(seeds, g.n, "seed vertex"):
        seen[s] = 1
        queue.append(s)
    out = g.out_adj
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return {v for v in range(g.n) if seen[v]}
