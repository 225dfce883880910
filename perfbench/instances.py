"""Seeded instance generators for the benchmark workloads.

The generators are the benchmark's own code, not ``minput.families``, so a
change to the program cannot change a workload.  Every random choice comes
from a ``random.Random`` seeded with a string that names the workload, the
seed argument and the instance index; Python keeps that stream stable
across versions and platforms, so a seed always yields the same inputs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass


@dataclass
class Instance:
    """One generated input and everything the checks need to judge it.

    ``edges`` is the digraph the program should see (``u -> v``), with no
    duplicates.  CLI instances also carry the Matrix Market file handed to
    the CLI and the ``--zero-tol`` to pass with it; ``edges`` then excludes
    the couplings the file stores as explicit zeros.
    """

    label: str
    n: int
    edges: list[tuple[int, int]]
    forbidden: frozenset[int]
    mm_path: str | None = None
    zero_tol: float = 0.0


def erdos_renyi_edges(n: int, mean_degree: float, rng: random.Random) -> list[tuple[int, int]]:
    """Directed G(n, p) over all n*n ordered pairs (self loops included),
    with p = mean_degree / n, by geometric skipping between present cells."""
    log_q = math.log1p(-mean_degree / n)
    total = n * n
    edges = []
    cell = -1
    while True:
        cell += int(math.log(1.0 - rng.random()) / log_q) + 1
        if cell >= total:
            return edges
        edges.append(divmod(cell, n))


def preferential_edges(n: int, out_degree: int, rng: random.Random) -> list[tuple[int, int]]:
    """Growing network: vertex v links to up to ``out_degree`` distinct
    earlier vertices, drawn with probability proportional to in-degree + 1.
    Every edge points to an older vertex, so all SCCs are singletons."""
    edges = []
    pool = [0]
    for v in range(1, n):
        chosen = {pool[int(rng.random() * len(pool))] for _ in range(min(out_degree, v))}
        for t in sorted(chosen):
            edges.append((v, t))
            pool.append(t)
        pool.append(v)
    return edges


def greedy_forbidden(n: int, edges: list[tuple[int, int]], share: float,
                     rng: random.Random) -> frozenset[int]:
    """Forbid ``share`` of the destinations of a greedy matching taken in a
    seeded edge order.

    The greedy matching covers every forbidden vertex, so an allowed
    matching exists, and each forbidden vertex has an in-edge, so none is
    an in-degree-0 source: the instance is solvable by construction.
    """
    order = list(edges)
    rng.shuffle(order)
    src_used = bytearray(n)
    dst_used = bytearray(n)
    matched = []
    for u, v in order:
        if not src_used[u] and not dst_used[v]:
            src_used[u] = dst_used[v] = 1
            matched.append(v)
    matched.sort()
    return frozenset(rng.sample(matched, round(share * len(matched))))


def grid_matrix_market(side: int, zero_share: float, zero_tol: float,
                       rng: random.Random) -> tuple[int, str, list[tuple[int, int]]]:
    """Symmetric real Matrix Market text of a ``side`` x ``side`` 5-point
    stencil, with ``zero_share`` of its couplings stored as explicit zeros
    (|value| < zero_tol / 2).

    Zeros are drawn only from vertical couplings off column 0, so the
    horizontal rows plus column 0 keep the grid connected: the graph is
    one SCC, and the nonzero diagonal gives it a perfect matching.
    Returns ``(n, text, edges)`` with ``edges`` the graph the nonzeros
    induce.
    """
    n = side * side
    couplings = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                couplings.append((v, v + 1))
            if r + 1 < side:
                couplings.append((v, v + side))
    candidates = [(a, b) for a, b in couplings if b == a + side and a % side != 0]
    zeros = set(rng.sample(candidates, round(zero_share * len(couplings))))
    lines = [
        "%%MatrixMarket matrix coordinate real symmetric",
        "% 5-point stencil with explicit zeros, generated by perfbench",
        f"{n} {n} {n + len(couplings)}",
    ]
    edges = [(v, v) for v in range(n)]
    for v in range(n):
        lines.append(f"{v + 1} {v + 1} {4.0 + rng.random():.10e}")
    for a, b in couplings:
        if (a, b) in zeros:
            value = (rng.random() - 0.5) * zero_tol
        else:
            value = -1.0 - rng.random()
            edges.append((a, b))
            edges.append((b, a))
        lines.append(f"{b + 1} {a + 1} {value:.10e}")
    return n, "\n".join(lines) + "\n", edges


def make_instance(workload: str, params: dict, seed: int, index: int, out_dir: str) -> Instance:
    """Instance ``index`` of a workload for one seed; a CLI instance's file
    is written to ``out_dir``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    label = f"{workload}/{seed}/{index}"
    if workload == "er-rounds":
        n = params["n"]
        return Instance(label, n, erdos_renyi_edges(n, params["mean_degree"], rng), frozenset())
    if workload == "pa-forbidden":
        n = params["n"]
        edges = preferential_edges(n, params["out_degree"], rng)
        forbidden = greedy_forbidden(n, edges, params["forbidden_share"], rng)
        return Instance(label, n, edges, forbidden)
    if workload == "cli-grid-mm":
        tol = params["zero_tol"]
        n, text, edges = grid_matrix_market(params["side"], params["zero_share"], tol, rng)
        path = os.path.join(out_dir, f"grid-{index}.mtx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return Instance(label, n, edges, frozenset(), path, tol)
    raise ValueError(f"unknown workload {workload!r}")
