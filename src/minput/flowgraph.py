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
  ``t``: directly when their SCC is not a source (the build reads these
  from the round's ``MatchClass.unmatched``), otherwise through a
  family of ``k - 1`` interchangeable slack nodes shared by the ``k``
  unmatched members of their SCC (the component must keep at least one
  unmatched member, so only ``k - 1`` paths may drain it).

The core edges are never stored: ``g.out_adj``, ``g.in_adj`` and the
mate arrays answer them, as the residual graph in Hopcroft-Karp is never
stored.  A round only tabulates the other edges, which touch ``s``,
``t``, the gateways and the unmatched destination copies, in the tables
``extra_out`` and ``extra_in`` of the internal node space, where each
slack family is a single token node ``aux_base + f`` with edges
``member -> token -> t``.  Slack families are complete bipartite and
would cost Theta(k^2) edges if materialised; the token keeps every
traversal O(n + m).  ``FlowGraph.out_view`` and ``FlowGraph.in_view``
state the edge rule of that space once; ``FlowGraph.explicit_edges`` is
the one materialiser, expanding ``out_view`` into the paper's graph, and
``dump`` prints what it returns.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Collection, Sequence

from .graph import SccInfo, SparseDigraph
from .matching import Matching, MatchClass


class FlowGraph:
    """Flow graph for one (graph, SCC, matching) triple, built from the
    matching's ``MatchClass`` ``cls``, which the caller classifies.

    Node ids: source copy of vertex ``u`` is ``u``; destination copy of
    ``v`` is ``n + v``; ``s`` is ``2n``, ``t`` is ``2n + 1``; the ``r``
    gateways, one per fully matched source SCC, start at ``2n + 2``;
    materialised slack nodes follow from ``aux_base = 2n + 2 + r``
    onwards, grouped by family.

    ``extra_out[x]`` lists the non-core out-neighbours of ``x`` in the
    internal node space.  Every unmatched destination copy, ``s``, each
    gateway and each family token has an entry (an empty tuple for the
    free member of a singleton one-free component, which has nothing to
    swap with); matched destination copies and ``t`` have none.
    ``extra_in[x]`` does the same for in-neighbours of gateways, tokens,
    ``t`` and the destination copies a swap or a gateway enters;
    ``extra_in[t]`` ascends, direct destination copies before tokens,
    and ``extra_in[token]`` lists the family's members.  Family ``f``
    owns one slack id fewer than its members, from ``aux_base +
    slack_offset[f]`` up to ``aux_base + slack_offset[f + 1]``.  The
    core edges come from ``out_adj``, ``in_adj``, ``mate_of_src`` and
    ``mate_of_dst``, shared with the graph and the matching, so the view
    is valid only until the matching changes.

    ``out_view`` and ``in_view`` return one token per family and keep
    the matched edge in its forward direction too; a level check drops
    it, as a matched source copy's only in-neighbour, its mate's
    destination copy, sits one BFS level below it.  ``explicit_edges``,
    the only materialiser, drops that edge and expands tokens into slack
    ids.  ``augment`` writes ``out_view`` inline in the BFS forward scan
    only: that scan reaches every node, and the view would build a list
    per source copy.

    A build makes one comprehension over ``mate_of_src`` (the edges
    out of ``s``); the rest costs O(1) per unmatched vertex and per
    source component, plus the members of each component that gets
    swap, gateway or slack edges.
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
        forb = frozenset(forbidden)
        mate_src = m.mate_of_src
        mate_dst = m.mate_of_dst
        comps = scc.comps
        r = len(cls.x_comps)
        s_id = 2 * n
        t_id = 2 * n + 1
        aux_base = 2 * n + 2 + r
        y_sizes = [len(comps[c]) for c in cls.y_comps]
        work = sum(y_sizes)
        # Every one-free member gets an entry; a singleton component has
        # no swap target, so only the others get a list and a loop body.
        extra_out: dict[int, Sequence[int]] = dict.fromkeys([n + v for v in cls.y_free], ())
        extra_in: dict[int, Sequence[int]] = {}
        swaps = [(c, v) for c, v, k in zip(cls.y_comps, cls.y_free, y_sizes) if k > 1]
        for c, yfree in swaps:
            x = n + yfree
            targets = [n + v for v in comps[c] if v != yfree and v not in forb]
            extra_out[x] = targets
            via = [x]
            for y in targets:
                extra_in[y] = via

        from_s = [s_id]
        gates = list(range(s_id + 2, aux_base))
        for gate, c in zip(gates, cls.x_comps):
            targets = [n + v for v in comps[c] if v not in forb]
            extra_out[gate] = targets
            extra_in[gate] = from_s
            via = [gate]
            for y in targets:
                extra_in[y] = via
            work += len(comps[c])

        to_t = [t_id]
        tokens: list[int] = []
        slack_offset = [0]
        comp_unmatched = cls.comp_unmatched
        for c in [c for c in scc.source_ids if comp_unmatched[c] >= 2]:
            members = [n + v for v in comps[c] if mate_dst[v] < 0]
            token = aux_base + len(tokens)
            via = [token]
            for x in members:
                extra_out[x] = via
            extra_out[token] = to_t
            extra_in[token] = members
            tokens.append(token)
            slack_offset.append(slack_offset[-1] + len(members) - 1)
            work += len(comps[c])
        work += len(scc.source_ids)

        comp_id = scc.comp_id
        is_source = scc.is_source
        direct = [n + v for v in cls.unmatched if not is_source[comp_id[v]]]
        extra_out.update(dict.fromkeys(direct, to_t))
        # unmatched vertices outside one-free components, as each
        # one-free component holds exactly one
        work += len(cls.unmatched) - len(cls.y_comps)
        extra_in[t_id] = direct + tokens

        s_out = [u for u, v in enumerate(mate_src) if v < 0]
        s_out.extend(gates)
        extra_out[s_id] = s_out
        work += n + r

        self.n = n
        self.s_id = s_id
        self.t_id = t_id
        self.aux_base = aux_base
        self.out_adj = g.out_adj
        self.in_adj = g.in_adj
        self.mate_of_src = mate_src
        self.mate_of_dst = mate_dst
        self.extra_out = extra_out
        self.extra_in = extra_in
        self.n_families = len(tokens)
        self.slack_offset = slack_offset
        self.build_work = work

    def node_count(self) -> int:
        """Total nodes in the materialised view; at most 3n + 2."""
        return self.aux_base + self.slack_offset[-1]

    def slack_ids(self, f: int) -> range:
        base = self.aux_base
        return range(base + self.slack_offset[f], base + self.slack_offset[f + 1])

    def _slack_family(self, x: int) -> tuple[int, int]:
        """(family, slot) of a materialised slack node id."""
        rel = x - self.aux_base
        f = bisect_right(self.slack_offset, rel) - 1
        return f, rel - self.slack_offset[f]

    def out_view(self, x: int) -> Sequence[int]:
        """Out-neighbours of ``x`` in the internal node space; for a
        source copy this includes its matched destination copy."""
        n = self.n
        if x < n:
            return [n + v for v in self.out_adj[x]]
        if x < 2 * n:
            u = self.mate_of_dst[x - n]
            if u >= 0:
                return [u]
        return self.extra_out.get(x, ())

    def in_view(self, x: int) -> Sequence[int]:
        """In-neighbours of ``x`` in the internal node space; for a
        destination copy this includes its matched source copy."""
        n = self.n
        if x < n:
            v = self.mate_of_src[x]
            return [self.s_id] if v < 0 else [n + v]
        if x < 2 * n:
            cands = self.in_adj[x - n]
            extra = self.extra_in.get(x)
            return cands + extra if extra else cands
        return self.extra_in.get(x, ())

    def explicit_edges(self) -> list[tuple[int, int]]:
        """Every edge of the materialised view: ``out_view`` of each node
        below ``aux_base`` without a source copy's forward matched edge,
        each family token expanded into its slack ids, then each slack
        id's edge to ``t``."""
        n = self.n
        aux_base = self.aux_base
        edges = []
        for x in range(aux_base):
            mate = self.mate_of_src[x] if x < n else -1
            matched = n + mate if mate >= 0 else -1
            for y in self.out_view(x):
                if y >= aux_base:
                    edges.extend((x, z) for z in self.slack_ids(y - aux_base))
                elif y != matched:
                    edges.append((x, y))
        edges.extend((x, self.t_id) for x in range(aux_base, self.node_count()))
        return edges

    def node_name(self, x: int, labels: list[str] | None = None) -> str:
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
        if x < self.aux_base:
            return f"gate{x - self.s_id - 1}"
        f, j = self._slack_family(x)
        return f"slack{f + 1}.{j + 1}"

    def dump(self, labels: list[str] | None = None) -> str:
        """Edge list of the materialised view, one ``a -> b`` line, sorted."""
        lines = sorted(
            f"{self.node_name(x, labels)} -> {self.node_name(y, labels)}"
            for x, y in self.explicit_edges()
        )
        return "\n".join(lines)


build_flow_graph = FlowGraph
