"""Graph families for the randomised test corpora and the outputs digest.

All generators take an explicit ``random.Random`` so corpora are
reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from random import Random

from minput import SparseDigraph


def erdos_renyi(n: int, p: float, rng: Random) -> SparseDigraph:
    """G(n, p) over all n*n ordered pairs, self loops included.

    Samples gaps between present cells geometrically, so the cost is
    proportional to the number of edges rather than n^2.
    """
    if n == 0 or p <= 0.0:
        return SparseDigraph(n, [])
    if p >= 1.0:
        return SparseDigraph(n, [(u, v) for u in range(n) for v in range(n)])
    edges = []
    total = n * n
    log_q = math.log1p(-p)
    cell = -1
    while True:
        gap = int(math.log(1.0 - rng.random()) / log_q)
        cell += gap + 1
        if cell >= total:
            break
        edges.append(divmod(cell, n))
    return SparseDigraph(n, edges)


def preferential(n: int, out_degree: int, rng: Random) -> SparseDigraph:
    """Growing network; each new vertex links to earlier vertices drawn
    with probability proportional to in-degree plus one."""
    edges = []
    pool = [0]
    for v in range(1, n):
        chosen = set()
        for _ in range(min(out_degree, v)):
            chosen.add(pool[rng.randrange(len(pool))])
        for t in sorted(chosen):
            edges.append((v, t))
            pool.append(t)
        pool.append(v)
    return SparseDigraph(n, edges)


def diagonal(n: int) -> SparseDigraph:
    """A self loop on every vertex and nothing else."""
    return SparseDigraph(n, [(v, v) for v in range(n)])


def chain(n: int) -> SparseDigraph:
    """The path 0 -> 1 -> ... -> n-1."""
    return SparseDigraph(n, [(v, v + 1) for v in range(n - 1)])


def random_forbidden(n: int, prob: float, rng: Random) -> frozenset[int]:
    """Each vertex forbidden independently with the given probability."""
    return frozenset(v for v in range(n) if rng.random() < prob)
