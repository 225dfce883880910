"""Flow graph of a matching, kept as a view of (G, M), whose s -> t paths
are cost-reducing augmentations.

Edges, for a matching M on the splitting of G:

* core nodes are the splitting's source and destination copies; every
  unmatched edge keeps its ``u_src -> v_dst`` direction while every
  matched edge is reversed to ``v_dst -> u_src``;
* a super source ``s`` feeds every source copy with no outgoing matched
  edge;
* for each source SCC with exactly one unmatched member, that member's
  destination copy gains edges to the destination copies of the other
  non-forbidden members (swapping the free vertex inside the component
  is cost neutral);
* for each fully matched source SCC ``X_i`` a gateway node sits between
  ``s`` and the non-forbidden destination copies of ``X_i`` (the
  gateway caps path flow into ``X_i`` at one, since freeing one member
  of ``X_i`` already pays for the component);
* unmatched destination copies outside one-free source components reach
  ``t``: directly when their SCC is not a source, otherwise through a
  family of ``k - 1`` interchangeable slack nodes shared by the ``k``
  unmatched members of their SCC (the component must keep at least one
  unmatched member, so only ``k - 1`` paths may drain it).

Gateways and slack families are two states of one node per source SCC:
the *component node* of component ``c``, with ``k`` its unmatched count.
At ``k == 0`` it is the gateway, with edges from ``s`` and to the
non-forbidden members' destination copies; at ``k >= 2`` it is the family,
with edges from the unmatched members and to ``t``, and at most ``k - 1``
paths of a round may use it.  A family is complete bipartite, Theta(k^2)
edges if materialised; its one node keeps every traversal O(n + m).  SCCs
number their ``r`` sources first, so the node space has ``2n + 2 + r`` ids.

No edge is stored.  ``g.out_adj``, ``g.in_adj``, the mate arrays, the
SCCs and the round's ``MatchClass`` answer every rule, as the residual
graph in Hopcroft-Karp is never stored.  A round builds only the two
lists a search starts from: ``s``'s out-list and ``t``'s in-list.
``FlowGraph.out_view`` and ``FlowGraph.in_view`` state the edge rule
once; ``FlowGraph.explicit_edges`` is the one materialiser, listing
``out_view`` in the same ids, and ``dump`` prints what it returns.  The
view's ids are the only node space: paths and dumps name a component
node ``gate<c>`` or ``family<c>``, never the paper's slack nodes, so a
dump has O(n + m) lines.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .graph import SccInfo, SparseDigraph
from .matching import Matching, MatchClass


class FlowGraph:
    """Flow graph for one (graph, SCC, matching) triple, built from the
    matching's ``MatchClass`` ``cls``, which the caller classifies.

    Internal node ids: source copy of vertex ``u`` is ``u``; destination
    copy of ``v`` is ``n + v``; ``s`` is ``2n``, ``t`` is ``2n + 1``; the
    component node of source component ``c < r`` is ``2n + 2 + c``, so
    the view spans ``view_size = 2n + 2 + r`` ids, at most ``3n + 2``.

    ``s_out`` lists the free source copies, then the component node of
    each fully matched source component.  ``t_in`` lists the unmatched
    destination copies outside source components, then the component
    node of each source component with two or more unmatched members.
    Both ascend.  The rest comes from ``out_adj``, ``in_adj``,
    ``mate_of_src``, ``mate_of_dst``, the SCCs and ``cls``, shared with
    their owners, so the view is valid only until the matching changes.

    ``out_view`` and ``in_view`` keep the matched edge in its forward
    direction too; a level check drops it, as a matched source copy's
    only in-neighbour, its mate's destination copy, sits one BFS level
    below it.  ``explicit_edges``, the only materialiser, drops that edge.
    ``augment`` writes ``out_view`` inline in the BFS forward scan for
    source copies and matched destination copies: that scan reaches
    every node, and the view would build a list per source copy.

    A build makes one comprehension over ``mate_of_src`` (``s_out``) and
    otherwise costs O(1) per unmatched vertex and per source component.
    """

    def __init__(
        self,
        g: SparseDigraph,
        scc: SccInfo,
        m: Matching,
        forbidden: Collection[int],
        cls: MatchClass,
    ):
        n = g.n
        t_id = 2 * n + 1
        comp_id, r = scc.comp_id, len(scc.source_ids)
        s_out = [u for u, v in enumerate(m.mate_of_src) if v < 0]
        s_out += [t_id + 1 + c for c in cls.x_comps]
        t_in = [n + v for v in cls.unmatched if comp_id[v] >= r]
        t_in += [t_id + 1 + c for c in scc.source_ids if cls.comp_unmatched[c] >= 2]

        self.n = n
        self.s_id = 2 * n
        self.t_id = t_id
        self.r = r
        self.view_size = t_id + 1 + r
        self.out_adj = g.out_adj
        self.in_adj = g.in_adj
        self.mate_of_src = m.mate_of_src
        self.mate_of_dst = m.mate_of_dst
        self.scc = scc
        self.cls = cls
        self.forbidden = frozenset(forbidden)
        self.s_out = s_out
        self.t_in = t_in
        self.build_work = n + len(cls.x_comps) + len(cls.unmatched) + r

    def node_count(self) -> int:
        """Ids in the view, ``view_size``; at most 3n + 2."""
        return self.view_size

    def _allowed(self, c: int, skip: int = -1) -> list[int]:
        """Destination copies of the non-forbidden members of ``c`` but ``skip``."""
        n, forb = self.n, self.forbidden
        return [n + v for v in self.scc.comps[c] if v != skip and v not in forb]

    def out_view(self, x: int) -> Sequence[int]:
        """Out-neighbours of ``x`` in the internal node space; for a
        source copy this includes its matched destination copy."""
        n = self.n
        if x < n:
            return [n + v for v in self.out_adj[x]]
        if x < 2 * n:
            v = x - n
            u = self.mate_of_dst[v]
            if u >= 0:
                return [u]
            c = self.scc.comp_id[v]
            if c >= self.r:
                return [self.t_id]
            if self.cls.comp_unmatched[c] >= 2:
                return [self.t_id + 1 + c]
            return self._allowed(c, v)
        if x == self.s_id:
            return self.s_out
        c = x - self.t_id - 1
        if c >= 0:
            k = self.cls.comp_unmatched[c]
            if k == 0:
                return self._allowed(c)
            if k >= 2:
                return [self.t_id]
        return ()

    def in_view(self, x: int) -> Sequence[int]:
        """In-neighbours of ``x`` in the internal node space; for a
        destination copy this includes its matched source copy."""
        n = self.n
        if x < n:
            v = self.mate_of_src[x]
            return [self.s_id] if v < 0 else [n + v]
        if x < 2 * n:
            v = x - n
            cands = self.in_adj[v]
            c = self.scc.comp_id[v]
            if c >= self.r or v in self.forbidden:
                return cands
            k = self.cls.comp_unmatched[c]
            if k == 0:
                return cands + [self.t_id + 1 + c]
            if k == 1 and self.cls.y_free[c] != v:
                return cands + [n + self.cls.y_free[c]]
            return cands
        if x == self.t_id:
            return self.t_in
        c = x - self.t_id - 1
        if c >= 0:
            k = self.cls.comp_unmatched[c]
            if k == 0:
                return [self.s_id]
            if k >= 2:
                mate_dst = self.mate_of_dst
                return [n + v for v in self.scc.comps[c] if mate_dst[v] < 0]
        return ()

    def explicit_edges(self) -> list[tuple[int, int]]:
        """Every edge of the view: ``out_view`` of each id without a
        source copy's forward matched edge."""
        n = self.n
        edges = []
        for x in range(self.view_size):
            mate = self.mate_of_src[x] if x < n else -1
            matched = n + mate if mate >= 0 else -1
            edges.extend((x, y) for y in self.out_view(x) if y != matched)
        return edges

    def node_name(self, x: int, labels: list[str] | None = None) -> str:
        """Name of id ``x``: ``a.src``, ``a.dst``, ``s``, ``t``, or
        ``gate<c>`` / ``family<c>`` for the node of source component
        ``c`` (``family<c>`` also at ``k == 1``, where it has no edges)."""
        n = self.n
        if x < n:
            return f"{labels[x] if labels else x}.src"
        if x < 2 * n:
            v = x - n
            return f"{labels[v] if labels else v}.dst"
        if x == self.s_id:
            return "s"
        if x == self.t_id:
            return "t"
        c = x - self.t_id - 1
        return f"{'family' if self.cls.comp_unmatched[c] else 'gate'}{c}"

    def dump(self, labels: list[str] | None = None) -> str:
        """Edge list of the materialised view, one ``a -> b`` line, sorted."""
        lines = sorted(
            f"{self.node_name(x, labels)} -> {self.node_name(y, labels)}"
            for x, y in self.explicit_edges()
        )
        return "\n".join(lines)


build_flow_graph = FlowGraph
