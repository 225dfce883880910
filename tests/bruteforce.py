"""Brute-force and reference utilities shared by the test modules.

Everything here favours obviousness over speed.  Only the scipy
assignment reference is meant for instances beyond a few vertices.
"""

from __future__ import annotations

import math
from typing import Collection

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from minput import SparseDigraph, build_graph
from minput.augment import LayeredDag
from minput.errors import IndexOutOfRange, NotSquare, ParseError
from minput.flowgraph import FlowGraph
from minput.graph import SccInfo
from minput.matching import MatchClass, Matching, classify, free_source_members, hopcroft_karp

try:
    from minput.graph import source_components
except ImportError:  # outputs_digest.py digests older trees with these helpers too
    from minput.graph import scc_decompose as source_components


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


def reference_scc(g: SparseDigraph) -> SccInfo:
    """SCCs by Tarjan's algorithm, iterative: source components first,
    then the others, each in the order the depth-first search over
    out-edges, roots from vertex 0 upward, finishes them.  For the
    sources that is the ascending lowest-member order ``SccInfo`` fixes.
    The full decomposition is kept: ``source_components`` lists only the
    sources and puts every other vertex in one bucket, so the tests
    compare it with the first ``r`` components here.

    A component is not a source when an edge is scanned into a
    component that has already closed, or when it is entered by a tree
    edge whose child closes that component on return.
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
        tarjan_stack.append(root)
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
                    members = tarjan_stack[base:]
                    del tarjan_stack[base:]
                    for w in members:
                        comp_id[w] = c
                    comps.append(sorted(members))
                    is_source.append(not work)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    order = [c for c in range(len(comps)) if is_source[c]]
    order += [c for c in range(len(comps)) if not is_source[c]]
    new = {c: i for i, c in enumerate(order)}
    return SccInfo([new[c] for c in comp_id], [comps[c] for c in order],
                   range(is_source.count(True)))


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
    input for the pinned work counters and for the coverage sweeps that
    need non-optimal starts: a Hopcroft-Karp cover of the forbidden
    destinations with the in-neighbour sources on the left, then a
    greedy extension in ascending (source, destination) order.
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
    scc = source_components(g)
    return FlowGraph(g, scc, m, forbidden, classify(scc, m))


def into_network(g: SparseDigraph, m: Matching) -> Matching:
    """``m``, changed in place, with the lowest member of each source SCC
    it leaves fully matched unmatched: the last step of ``solve``'s
    start with nothing forbidden, which puts any matching in N at the
    same cost."""
    scc = source_components(g)
    for c in scc.source_ids:
        members = scc.comps[c]
        if all(m.mate_of_dst[v] >= 0 for v in members):
            m.remove(m.mate_of_dst[members[0]], members[0])
    return m


def network_start(
    scc: SccInfo, forbidden: Collection[int], m0: Matching
) -> tuple[SccInfo, Matching, frozenset[int], MatchClass]:
    """A start for ``minimize`` from any allowed matching ``m0``: a copy,
    classified and moved into N by ``free_source_members``, in the shape
    ``solver._start`` returns, so ``minimize(g, *network_start(...))``
    drives it.  Every source SCC must keep an allowed member."""
    forb = frozenset(forbidden)
    m = m0.copy()
    cls = classify(scc, m)
    free_source_members(scc, m, cls, forb)
    return scc, m, forb, cls


def component_nodes(fg: FlowGraph) -> list[int]:
    """The slack family nodes of ``fg``, in its internal ids: the
    component nodes at the end of ``t_in``."""
    return [x for x in fg.t_in if x > fg.t_id]


def dump_edge_list(g: SparseDigraph) -> str:
    """``g`` in the edge-list format that ``minput --graph`` reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def reference_edge_list(path: str) -> SparseDigraph:
    """The edge-list reader as one loop over the file: entries are
    collected as pairs and handed to ``SparseDigraph(n, edges)``, which
    checks them again and applies the vertex cap last.  The reference
    that ``minput.cli.ingest_edge_list`` is compared against."""
    n = None
    declared = 0
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                what = "header 'n <edge-count>'" if n is None else "edge line 'i j'"
                raise ParseError(f"expected {what}, got {text!r}", lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"expected two integers, got {text!r}", lineno) from None
            if n is None:
                if a < 0 or b < 0:
                    raise ParseError("header fields must be nonnegative", lineno)
                n, declared = a, b
                continue
            if not (0 <= a < n and 0 <= b < n):
                raise ParseError(f"edge ({a}, {b}) outside vertex range [0, {n})", lineno)
            edges.append((a, b))
    if n is None:
        raise ParseError("no header line found")
    if declared != len(edges):
        raise ParseError(f"header declared {declared} edges, file has {len(edges)}")
    return SparseDigraph(n, edges)


def reference_matrix_market(path: str, zero_tol: float = 0.0) -> SparseDigraph:
    """The Matrix Market reader as one loop over the file: entries are
    collected as ``(row, col)`` pairs and handed to ``build_graph``, and
    the vertex cap is applied last.  The reference that
    ``minput.cli.ingest_matrix_market`` is compared against."""
    if not 0.0 <= zero_tol < math.inf:
        raise ParseError(f"zero tolerance must be finite and >= 0, got {zero_tol!r}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        banner = fh.readline()
        fields = banner.split()
        if len(fields) < 5 or fields[0] != "%%MatrixMarket":
            raise ParseError("missing '%%MatrixMarket matrix coordinate ...' banner", 1)
        if fields[1].lower() != "matrix" or fields[2].lower() != "coordinate":
            raise ParseError("only 'matrix coordinate' files are supported", 1)
        value_kind = fields[3].lower()
        symmetry = fields[4].lower()
        if value_kind not in ("real", "integer", "pattern"):
            raise ParseError(f"unsupported value field {value_kind!r}", 1)
        if symmetry not in ("general", "symmetric"):
            raise ParseError(f"unsupported symmetry {symmetry!r}", 1)
        dims = None
        seen = 0
        entries: list[tuple[int, int]] = []
        for lineno, raw in enumerate(fh, start=2):
            text = raw.strip()
            if not text or text.startswith("%"):
                continue
            parts = text.split()
            if dims is None:
                if len(parts) != 3:
                    raise ParseError("expected size line 'rows cols nnz'", lineno)
                try:
                    rows, cols, nnz = (int(p) for p in parts)
                except ValueError:
                    raise ParseError("size line must be three integers", lineno) from None
                if rows != cols:
                    raise NotSquare(f"matrix is {rows}x{cols}, need square")
                dims = (rows, nnz)
                continue
            want = 2 if value_kind == "pattern" else 3
            if len(parts) != want:
                raise ParseError(f"expected {want} fields per entry", lineno)
            try:
                r, c = int(parts[0]), int(parts[1])
                value = math.inf if value_kind == "pattern" else float(parts[2])
            except ValueError:
                raise ParseError(f"malformed entry {text!r}", lineno) from None
            if not (1 <= r <= dims[0] and 1 <= c <= dims[0]):
                raise ParseError(f"entry ({r}, {c}) outside matrix", lineno)
            seen += 1
            if abs(value) > zero_tol:
                entries.append((r - 1, c - 1))
                if symmetry == "symmetric" and r != c:
                    entries.append((c - 1, r - 1))
            elif value != value:
                raise ParseError(f"entry ({r}, {c}) is NaN", lineno)
    if dims is None:
        raise ParseError("size line missing")
    if seen != dims[1]:
        raise ParseError(f"size line declared {dims[1]} entries, file has {seen}")
    return build_graph(dims[0], entries)


def _file_text(rng, lines: list[list[str]], comment: str) -> str:
    """``lines`` of fields as file text, with seeded variation the readers
    must ignore: field separators, leading and trailing blanks, blank,
    whitespace-only and comment lines, CRLF ends and a missing final
    newline."""
    out = []
    for fields in lines:
        while rng.random() < 0.15:
            out.append(rng.choice(["", "  ", "\t", f"{comment} note", f"{comment}note 1 2",
                                   f"  {comment}\tnote 1 2"]))
        text = rng.choice([" ", " ", "\t", "  ", " \t "]).join(fields)
        if rng.random() < 0.1:
            text = rng.choice([" ", "\t"]) + text + rng.choice([" ", "\t", ""])
        out.append(text)
    end = rng.choice(["\n", "\n", "\r\n"])
    text = end.join(out)
    return text + end if out and rng.random() < 0.9 else text


def random_edge_list_file(rng) -> tuple[str, int | None]:
    """A small seeded edge-list file and the vertex count its header
    declares (None when the header line is missing or malformed).

    About half the files carry one fault: a wrong edge count, a negative
    header, a wrong field count, a non-integer or out-of-range id, a
    ``%`` line (not a comment in this format) or no header at all (an
    empty file among them).
    Duplicate edges and self loops come from drawing ids at random;
    ``#`` comments sit between lines and after fields.
    """
    n = rng.randint(0, 8)
    edges = [[str(rng.randrange(n)), str(rng.randrange(n))] for _ in range(rng.randint(0, 3 * n))]
    header = [str(n), str(len(edges))]
    lines = [header, *edges]
    count: int | None = n
    fault = rng.choice(["none"] * 8 + ["count", "negative", "fields", "nonint", "range",
                                       "percent", "noheader"])
    if fault == "count":
        header[1] = str(len(edges) + rng.choice([-1, 1]))
    elif fault == "negative":
        header[rng.randrange(2)] = "-1"
        count = int(header[0])
    elif fault == "fields":
        at = rng.randrange(len(lines))
        lines[at] = lines[at][:1] if rng.random() < 0.5 else [*lines[at], "1"]
        count = None if at == 0 else count
    elif fault == "nonint":
        at = rng.randrange(len(lines))
        lines[at][rng.randrange(2)] = rng.choice(["x", "1.5", "1e3", "--1", "0x1", "2a"])
        count = None if at == 0 else count
    elif fault == "range" and edges:
        rng.choice(edges)[rng.randrange(2)] = str(rng.choice([-1, n, n + 5]))
    elif fault == "percent":
        lines.insert(rng.randint(0, len(lines)), ["%", "comment"])
        count = None if lines[0][0] == "%" else count
    elif fault == "noheader":
        lines, count = rng.choice([[], [["#", "note"]]]), None
    for fields in lines:
        if rng.random() < 0.1:
            fields.append(rng.choice(["#", "# note", "#1 2"]))
    return _file_text(rng, lines, "#"), count


def random_matrix_market_file(rng) -> tuple[str, int | None]:
    """A small seeded Matrix Market file and the vertex count its size
    line declares (None when the banner or size line is missing or
    malformed).

    Files are real, integer or pattern, general or symmetric, with
    explicit zeros, ``inf`` values, duplicate entries and self loops.
    About half carry one fault: a wrong entry count, a non-square or
    negative size, a malformed size line, a wrong field count (an inline
    ``%`` comment among them), a non-integer id or value, an
    out-of-range id, a NaN value, a ``#`` line (not a comment in this
    format), an unsupported or missing banner, no size line, or an empty
    file.
    """
    kind = rng.choice(["real", "integer", "pattern"])
    symmetry = rng.choice(["general", "symmetric"])
    banner = f"%%MatrixMarket matrix coordinate {kind} {symmetry}"
    if rng.random() < 0.1:
        banner = f"%%MatrixMarket Matrix COORDINATE {kind.title()} {symmetry.upper()}"
    n = rng.randint(0, 8)
    values = {"real": ["1", "-2.5", "0", "0.0", "-0", "1e-12", "0.4", "3e2", "inf", "-inf"],
              "integer": ["1", "-3", "0", "7"], "pattern": [None]}[kind]
    entries = []
    for _ in range(rng.randint(0, 3 * n)):
        value = rng.choice(values)
        entries.append([str(rng.randint(1, n)), str(rng.randint(1, n))]
                       + ([] if value is None else [value]))
    size = [str(n), str(n), str(len(entries))]
    lines = [size, *entries]
    count: int | None = n
    fault = rng.choice(["none"] * 10 + ["count", "square", "negative", "size", "fields",
                                        "nonint", "range", "nan", "hash", "banner",
                                        "nosize", "empty"])
    if fault == "count":
        size[2] = str(len(entries) + rng.choice([-1, 1]))
    elif fault == "square":
        size[1] = str(n + 1)
        count = None
    elif fault == "negative":
        size[0] = size[1] = "-1"
        count = -1
    elif fault == "size":
        lines[0] = rng.choice([size[:2], [*size, "1"], [size[0], "x", size[2]]])
        count = None
    elif fault == "fields" and entries:
        entry = rng.choice(entries)
        entry[:] = rng.choice([entry[:-1], [*entry, "1"], [*entry, "%", "note"]])
    elif fault == "nonint" and entries:
        entry = rng.choice(entries)
        entry[rng.randrange(len(entry))] = rng.choice(["x", "1.0", "abc"])
    elif fault == "range" and entries:
        rng.choice(entries)[rng.randrange(2)] = str(rng.choice([0, -1, n + 1]))
    elif fault == "nan" and kind == "real" and entries:
        rng.choice(entries)[2] = rng.choice(["nan", "-nan", "NaN"])
    elif fault == "hash":
        lines.insert(rng.randint(1, len(lines)), ["#", "comment"])
    elif fault == "banner":
        banner = rng.choice(["%%MatrixMarket matrix array real general",
                             "%%MatrixMarket matrix coordinate complex general",
                             "%%MatrixMarket matrix coordinate real hermitian",
                             "%%matrixmarket matrix coordinate real general",
                             "%%MatrixMarket matrix coordinate", ""])
        count = None
    elif fault == "nosize":
        lines, count = rng.choice([[], [["%", "note"]]]), None
    elif fault == "empty":
        return "", None
    return banner + "\n" + _file_text(rng, lines, "%"), count


class ExplicitFlow:
    """Flow-graph stand-in with no core nodes and no component nodes,
    duck-typed for layered_bfs / extract_paths: with ``n == 0``, empty
    adjacency and mate arrays and no SCC, every node reads its edges from
    ``out_view`` and ``in_view``, which serve plain adjacency dicts,
    ascending."""

    def __init__(self, size: int, edges: list[tuple[int, int]], s_id: int, t_id: int):
        self.n = 0
        self.view_size = size
        self.s_id = s_id
        self.t_id = t_id
        self.r = 0
        self.scc = SccInfo([], [], range(0))
        self.out_adj: list[list[int]] = []
        self.in_adj: list[list[int]] = []
        self.mate_of_src: list[int] = []
        self.mate_of_dst: list[int] = []
        self.out: dict[int, list[int]] = {x: [] for x in range(size)}
        self.into: dict[int, list[int]] = {x: [] for x in range(size)}
        for a, b in sorted(set(edges)):
            self.out[a].append(b)
            self.into[b].append(a)
        self.t_in = self.into[t_id]
        self.build_work = 0

    def out_view(self, x: int) -> list[int]:
        return self.out[x]

    def in_view(self, x: int) -> list[int]:
        return self.into[x]


def forward_layered_bfs(fg) -> tuple[LayeredDag | None, int]:
    """``layered_bfs`` by the level search from ``s`` alone, with its
    work: the reference for the package's search, which adds a residual
    search from ``t`` beside the same level search.  None when ``t`` is
    unreachable; an empty ``t_in`` skips the search."""
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
    # ``out_view`` inline for source copies and matched destination
    # copies; a source copy's matched edge fails the level check
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
            nbrs = out_view(x)
            work += len(nbrs) + 1
            for w in nbrs:
                if dist[w] < 0:
                    dist[w] = d
                    if w != t_id:
                        nxt.append(w)
        frontier = nxt
    if dist[t_id] < 0:
        return None, work

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


def reference_flow_edges(
    g: SparseDigraph, comp_of: list[int], m, forbidden
) -> tuple[int, set[tuple[int, int]]]:
    """(node count, edge set) of the paper's flow graph, with its swap
    edges and its families of ``k - 1`` slack nodes, written straight
    from the paper's construction, for a matching that leaves each
    source component an unmatched member.

    ``comp_of`` numbers the SCCs; slack families follow the source
    components with two or more unmatched members, in ascending
    component number, in the paper's numbering: slack ids from
    ``2n + 2`` on.
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
    nxt = 2 * n + 2
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


def reference_residual_edges(
    g: SparseDigraph, comp_of: list[int], m, forbidden
) -> tuple[int, set[tuple[int, int]]]:
    """(node count, edge set) of the residual graph of the fixed network
    N for the flow that ``m`` sends, written straight from N's
    definition.

    N's nodes are ``u_src = u``, ``v_dst = n + v``, ``s = 2n``,
    ``t = 2n + 1`` and ``D_c = 2n + 2 + i`` for the ``i``-th source SCC
    in ascending component number.  Its arcs, with (lower bound,
    capacity): ``s -> u_src`` (0, 1); ``u_src -> v_dst`` (0, 1) for each
    edge; ``v_dst -> t`` (0, 1) outside source SCCs; inside source SCC
    ``c``, ``v_dst -> D_c`` (1 for a forbidden ``v``, else 0; 1) and
    ``D_c -> t`` (0, ``|c| - 1``).  Each matched pair sends one unit
    along ``s -> u_src -> v_dst`` and on to ``t``.  An arc below its
    capacity gives a forward residual edge and one above its lower bound
    a reverse edge; edges into ``s`` or out of ``t`` lie on no s -> t
    path and are dropped.  A source SCC whose members are all matched
    overfills ``D_c -> t``, which then has no forward edge.
    """
    n = g.n
    s, t = 2 * n, 2 * n + 1
    forb = set(forbidden)
    ncomp = max(comp_of, default=-1) + 1
    entered = {comp_of[v] for u, v in g.edges() if comp_of[u] != comp_of[v]}
    sources = [c for c in range(ncomp) if c not in entered]
    d_node = {c: 2 * n + 2 + i for i, c in enumerate(sources)}
    covered = [int(m.mate_of_dst[v] >= 0) for v in range(n)]

    arcs = []  # (tail, head, lower bound, capacity, flow)
    arcs += [(s, u, 0, 1, int(m.mate_of_src[u] >= 0)) for u in range(n)]
    arcs += [(u, n + v, 0, 1, int(m.mate_of_src[u] == v)) for u, v in g.edges()]
    for v in range(n):
        c = comp_of[v]
        if c in d_node:
            arcs.append((n + v, d_node[c], int(v in forb), 1, covered[v]))
        else:
            arcs.append((n + v, t, 0, 1, covered[v]))
    for c in sources:
        members = [v for v in range(n) if comp_of[v] == c]
        arcs.append((d_node[c], t, 0, len(members) - 1, sum(covered[v] for v in members)))
    edges: set[tuple[int, int]] = set()
    for a, b, low, cap, flow in arcs:
        if flow < cap:
            edges.add((a, b))
        if flow > low:
            edges.add((b, a))
    return 2 * n + 2 + len(sources), {(a, b) for a, b in edges if b != s and a != t}


def reference_classify(scc, m) -> tuple:
    """The ``MatchClass`` fields, in declaration order, written straight
    from its docstring with one naive pass per source component.

    ``unmatched`` holds every unmatched vertex, ascending, and
    ``comp_unmatched`` the unmatched count of each source component, then
    that of the vertices in no source component.
    """
    comp_unmatched = []
    unmatched = []
    for members in scc.comps:
        free = [v for v in members if m.mate_of_dst[v] < 0]
        comp_unmatched.append(len(free))
        unmatched.extend(free)
    in_source = {v for members in scc.comps for v in members}
    free = [v for v in range(m.n) if v not in in_source and m.mate_of_dst[v] < 0]
    comp_unmatched.append(len(free))
    unmatched.extend(free)
    return sorted(unmatched), comp_unmatched


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
