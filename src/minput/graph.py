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
MAX_VERTICES = 2**24


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


class SparseDigraph:
    """Immutable directed graph on vertices ``0 .. n-1``.

    Parallel edges are collapsed; self loops are kept.  Adjacency is
    stored both ways (``out_adj`` and ``in_adj``) as sorted lists, which
    makes every traversal in the package deterministic.

    Parameters
    ----------
    n : int
        Number of vertices, stored as a plain ``int``; ``bool``,
        non-integer and negative counts, and counts above
        ``MAX_VERTICES`` (2**24), raise IndexOutOfRange before anything
        is allocated.
    edges : iterable of (int, int)
        Directed edges ``(u, v)`` meaning ``u -> v``.  Integer types such
        as ``numpy.int64`` are stored as plain ``int``; ``bool`` and
        non-integer endpoints raise IndexOutOfRange.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        count = _plain_int(n)
        if count is None or count < 0:
            raise IndexOutOfRange(f"vertex count must be a nonnegative integer, got {n!r}")
        if count > MAX_VERTICES:
            raise IndexOutOfRange(f"vertex count {count} exceeds the limit of {MAX_VERTICES}")
        n = count
        out_adj: list[list[int]] = [[] for _ in range(n)]
        in_adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u = vertex_id(u, n, "edge endpoint")
                v = vertex_id(v, n, "edge endpoint")
            elif not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex range [0, {n})")
            out_adj[u].append(v)
        m = 0
        for u in range(n):
            nbrs = sorted(set(out_adj[u]))
            out_adj[u] = nbrs
            m += len(nbrs)
            for v in nbrs:
                in_adj[v].append(u)
        # in_adj ends up sorted because sources are visited in ascending order
        self.n = n
        self.m = m
        self.out_adj = out_adj
        self.in_adj = in_adj

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges in ascending (source, destination) order."""
        for u in range(self.n):
            for v in self.out_adj[u]:
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.out_adj[u]

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

    Attributes
    ----------
    comp_id : list[int]
        Component index per vertex.
    comps : list[list[int]]
        Members of each component, sorted ascending.
    is_source : list[bool]
        True for components with no incoming edge from another component.
    source_ids : list[int]
        Indices of source components, ascending.
    """

    comp_id: list[int]
    comps: list[list[int]]
    is_source: list[bool]
    source_ids: list[int]

    @property
    def n_comps(self) -> int:
        return len(self.comps)


def scc_decompose(g: SparseDigraph) -> SccInfo:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the stack.

    Source flags come out of the same scan.  An edge joins two
    components exactly when it is scanned into a component that has
    already closed, or is a tree edge whose child closes its component
    on return; either way the component it enters is not a source.
    """
    n = g.n
    out = g.out_adj
    index = [-1] * n
    low = [0] * n
    comp_id = [-1] * n  # a visited vertex is on the Tarjan stack while this is -1
    comps: list[list[int]] = []
    is_source: list[bool] = []
    tarjan_stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        tarjan_stack.append(root)  # the stack is empty between trees
        # frame: vertex, its adjacency iterator, its position on the Tarjan stack
        work = [(root, iter(out[root]), 0)]
        while work:
            v, nbrs, base = work[-1]
            for w in nbrs:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(out[w]), len(tarjan_stack)))
                    tarjan_stack.append(w)
                    break
                c = comp_id[w]
                if c >= 0:
                    is_source[c] = False
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    c = len(comps)
                    if base == len(tarjan_stack) - 1:
                        # v alone on top: a singleton needs no slice or sort
                        tarjan_stack.pop()
                        comp_id[v] = c
                        comps.append([v])
                    else:
                        members = tarjan_stack[base:]
                        del tarjan_stack[base:]
                        for w in members:
                            comp_id[w] = c
                        members.sort()
                        comps.append(members)
                    is_source.append(not work)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    source_ids = [c for c, flag in enumerate(is_source) if flag]
    return SccInfo(comp_id, comps, is_source, source_ids)


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
