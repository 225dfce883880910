"""Traced replica of ``minput.solve``, built from its public functions.

The replica calls the same functions as ``solve``, in the same order, and
records a span around each call.  Spans live in memory as
``[trace, id, parent, name, start_ns, end_ns, gc_ns, gc_count]`` lists;
``trace`` is shared by all spans of one instance, and garbage-collector
pauses (taken through ``gc.callbacks``) are added to the innermost span
open when they happen.  ``run.py`` writes the spans out at the end.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from time import perf_counter_ns

# Spans named here are the benchmark's own bookkeeping, not the program's.
BENCH_SPANS = ("bench.count",)


class Tracer:
    """In-memory span recorder with GC pause attribution."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = -1
        self._stack: list[list] = []
        self._gc_start = 0

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._stack:
            top = self._stack[-1]
            top[6] += perf_counter_ns() - self._gc_start
            top[7] += 1

    def begin(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        rec = [self.trace_id, len(self.spans), parent, name, 0, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[4] = perf_counter_ns()
        return rec

    def end(self, rec: list) -> None:
        rec[5] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        rec = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(rec)


def traced_cli_run(minput, argv: list[str], tracer: Tracer):
    """``cli.run(argv)`` under a ``cli.run`` span, with spans around the
    ingest, graph build and solve calls it makes through the ``cli``
    module's globals.  Returns the exit code and the ingested graph."""
    cli = minput.cli
    saved = cli.ingest_matrix_market, cli.build_graph, cli.solve
    graphs = []

    def ingest(*args, **kwargs):
        graphs.append(tracer.call("cli.ingest", saved[0], *args, **kwargs))
        return graphs[-1]

    cli.ingest_matrix_market = ingest
    cli.build_graph = lambda *args: tracer.call("graph.build", saved[1], *args)
    cli.solve = lambda *args, **kwargs: tracer.call("cli.solve", saved[2], *args, **kwargs)
    try:
        code = tracer.call("cli.run", cli.run, argv)
    finally:
        cli.ingest_matrix_market, cli.build_graph, cli.solve = saved
    return code, graphs[0] if graphs else None


@dataclass
class ReplicaResult:
    """What the replica computed, for comparison with ``solve``."""

    input_set: list[int] | None
    dists: list[int | None] = field(default_factory=list)
    paths: list[int] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def traced_solve(minput, g, forbidden: frozenset[int], tracer: Tracer) -> ReplicaResult:
    """Reproduce ``solve(Problem(g, forbidden))`` under one root span.

    Returns ``input_set=None`` where ``solve`` would return Unsolvable.
    """
    call = tracer.call
    n = g.n
    counts = {"graph.n": n, "graph.m": g.m, "matching.forbidden": len(forbidden),
              "flowgraph.nodes": 0, "flowgraph.build_work": 0,
              "augment.reached": 0, "augment.useful": 0}
    res = ReplicaResult(None, counts=counts)
    root = tracer.begin("solver.solve")
    try:
        iso = call("graph.compact", minput.isolated_vertices, g)
        counts["graph.isolated"] = len(iso)
        iso_set = set(iso)
        if iso_set & forbidden:
            return res
        if len(iso) == n:
            res.input_set = list(iso)
            return res
        if iso:
            keep = [v for v in range(n) if v not in iso_set]
            sub, old_ids = call("graph.compact", minput.induced_subgraph, g, keep)
            sub_forb = frozenset(i for i, v in enumerate(keep) if v in forbidden)
        else:
            sub, old_ids, sub_forb = g, None, forbidden

        scc = call("graph.scc", minput.scc_decompose, sub)
        counts["graph.sccs"] = scc.n_comps
        counts["graph.source_sccs"] = len(scc.source_ids)
        for c in scc.source_ids:
            if all(v in sub_forb for v in scc.comps[c]):
                return res
        m = call("matching.init", minput.find_allowed_matching, sub, sub_forb)
        if m is None:
            return res
        counts["matching.init_unmatched"] = sub.n - m.size

        # minimize() works on a copy of the initial matching
        m = m.copy()
        cap = int(6 * math.sqrt(sub.n))
        while True:
            if len(res.dists) >= cap:
                raise RuntimeError(f"replica still running after {cap} rounds")
            cls = call("matching.classify", minput.classify, scc, m)
            fg = call("flowgraph.build", minput.build_flow_graph, sub, scc, m, sub_forb, cls)
            dag = call("augment.bfs", minput.layered_bfs, fg)
            rec = tracer.begin("bench.count")
            counts["flowgraph.nodes"] += fg.node_count()
            counts["flowgraph.build_work"] += fg.build_work
            if dag is not None:
                counts["augment.reached"] += sum(1 for d in dag.dist if d >= 0)
                counts["augment.useful"] += sum(dag.useful)
            tracer.end(rec)
            if dag is None:
                res.dists.append(None)
                res.paths.append(0)
                break
            paths = call("augment.extract", minput.extract_paths, dag)
            call("augment.apply", minput.augment_on_paths, m, paths)
            res.dists.append(dag.dist_t)
            res.paths.append(len(paths))

        inner = call("solver.recover", minput.recover_input_set, scc, m, sub_forb)
        if old_ids is not None:
            inner = [old_ids[v] for v in inner]
        res.input_set = sorted(iso + inner)
        return res
    finally:
        tracer.end(root)
