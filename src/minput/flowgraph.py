"""Flow graph of a matching, kept as a view of (G, M), whose s -> t paths
are cost-reducing augmentations.

The view is the residual graph, for a matching M on the splitting of G,
of one fixed network N, whose edges have capacity 1 unless stated:

* ``s -> u_src`` for every vertex ``u`` and ``u_src -> v_dst`` for
  every edge ``u -> v`` of G;
* ``v_dst -> t`` when ``v`` lies in no source SCC, else
  ``v_dst -> D_c -> t`` for its source SCC ``c``, where ``D_c -> t`` has
  capacity ``|c| - 1`` (each source SCC keeps an unmatched member, its
  input) and a forbidden ``v_dst`` carries a lower bound of 1.

A matched pair ``(u, v)`` is one unit along ``s -> u_src -> v_dst`` and
on to ``t``, so M is a flow of N when it leaves each source SCC an
unmatched member, and its cost is then ``n`` minus its value.  An
unmatched edge keeps ``u_src -> v_dst`` and a matched one is reversed;
``s`` reaches the free source copies (edges into ``s`` or out of ``t``
lie on no s -> t path and are left out); an unmatched destination copy
reaches ``t``, or ``D_c`` inside source SCC ``c``; and ``D_c``, the
*component node*, reaches the matched members' copies but the forbidden
ones (the lower bound leaves them no reverse capacity), and reaches
``t`` while ``|c| - 1 - covered = k - 1`` is positive, ``k`` being the
unmatched count.  ``D_c`` stands for the paper's ``k - 1`` slack nodes
and for its swap edges: ``y_dst -> D_c -> x_dst`` moves a one-free
component's free member from ``y`` to ``x`` at no cost.

The s -> t distance grows strictly between rounds by Dinic's (1970)
shortest-augmenting-path argument: a round augments a maximal set of
shortest paths, after which the view differs only by reversed path
edges and deleted edges (a used ``s`` or ``t`` edge, ``D_c -> t`` once
``k`` is 1), so no new path is as short.  The ``6 sqrt(n)`` round cap
holds as in Hopcroft-Karp: nodes but ``s``, ``t`` and the ``D_c`` pass
one unit each, and a residual path holds two of them before its first
``D_c`` and between any two, so at distance ``d`` the missing flow is
at most ``4n / (d - 1)`` such paths; ``d`` starts at 3 and grows each
round, so ``2 sqrt(n)`` rounds leave fewer than ``2 sqrt(n)`` to run.

No edge is stored: the graph's adjacency, the mate arrays, the source
components and the round's ``MatchClass`` answer every rule, as
Hopcroft-Karp never stores its residual graph, and a round builds only
``s``'s out-list and ``t``'s in-list.  ``FlowGraph.out_view`` and
``FlowGraph.in_view`` state the rule once; ``FlowGraph.explicit_edges``,
the one materialiser, lists ``out_view`` in the same ids and ``dump``
prints it, naming component ``c``'s node ``comp<c>``, so a dump has
O(n + m) lines.
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

    A destination copy's rules read only its mate and its component.
    Only the component node reads ``k``: its in-neighbours are the
    unmatched members' copies, its out-neighbours the matched,
    non-forbidden members' copies plus ``t`` at ``k >= 2``.

    ``s_out`` lists the free source copies.  ``t_in`` lists the
    unmatched destination copies outside source components, then the
    component node of each source component with two or more unmatched
    members.  Both ascend.  The rest comes from ``out_adj``, ``in_adj``,
    ``mate_of_src``, ``mate_of_dst``, the source components and ``cls``,
    shared with their owners, so the view is valid only until the
    matching changes.

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
        self.s_out = [u for u, v in enumerate(m.mate_of_src) if v < 0]
        self.t_in = t_in
        self.build_work = n + len(cls.unmatched) + r

    def node_count(self) -> int:
        """Ids in the view, ``view_size``; at most 3n + 2."""
        return self.view_size

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
            return [self.t_id] if c >= self.r else [self.t_id + 1 + c]
        if x == self.s_id:
            return self.s_out
        c = x - self.t_id - 1
        if c < 0:
            return ()
        mate_dst, forb = self.mate_of_dst, self.forbidden
        out = [n + v for v in self.scc.comps[c] if mate_dst[v] >= 0 and v not in forb]
        if self.cls.comp_unmatched[c] >= 2:
            out.append(self.t_id)
        return out

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
            if c >= self.r or self.mate_of_dst[v] < 0 or v in self.forbidden:
                return cands
            return cands + [self.t_id + 1 + c]
        if x == self.t_id:
            return self.t_in
        c = x - self.t_id - 1
        if c < 0:
            return ()
        mate_dst = self.mate_of_dst
        return [n + v for v in self.scc.comps[c] if mate_dst[v] < 0]

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
        ``comp<c>`` for the node of source component ``c``."""
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
        return f"comp{x - self.t_id - 1}"

    def dump(self, labels: list[str] | None = None) -> str:
        """Edge list of the materialised view, one ``a -> b`` line, sorted."""
        lines = sorted(
            f"{self.node_name(x, labels)} -> {self.node_name(y, labels)}"
            for x, y in self.explicit_edges()
        )
        return "\n".join(lines)


build_flow_graph = FlowGraph
