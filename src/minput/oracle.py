"""Ground-truth checks for solver validation.

The checks are written against the textbook definitions, not the
solver's matching and flow-graph machinery, so agreement between the
two is meaningful evidence.  They share two of the solver's building
blocks, ``scc_decompose`` and ``hopcroft_karp``; ``tests/test_networkx.py``
checks both against networkx.  The brute-force searches refuse
instances above small size bounds instead of silently taking forever.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection

from .errors import BoundExceeded
from .graph import SparseDigraph, reachable_from, scc_decompose, vertex_ids
from .matching import hopcroft_karp


def check_structural_controllability(g: SparseDigraph, input_set: Collection[int]) -> bool:
    """Classical two-part test for a diagonal input pattern.

    The system is structurally controllable iff every state is
    reachable from some input vertex and the partitioned bipartite
    graph (state and input sources on the left, state destinations on
    the right, each input feeding only its own state) has a matching
    covering every state.
    """
    n = g.n
    iset = vertex_ids(input_set, n, "input vertex")
    if n == 0:
        return True
    if not iset:
        return False
    if len(reachable_from(g, iset)) != n:
        return False
    adj = g.out_adj + [[i] for i in iset]
    _, mate_right = hopcroft_karp(n + len(iset), n, adj)
    return all(u >= 0 for u in mate_right)


def brute_force_min_cost_allowed_matching(
    g: SparseDigraph, forbidden: Collection[int], *, max_n: int = 10
) -> int | None:
    """Minimum cost over allowed matchings by exhaustive enumeration.

    Walks destinations in order, at each either matching through a free
    in-neighbour or (for non-forbidden vertices) leaving it unmatched.
    The running unmatched count lower-bounds the final cost, which
    prunes most of the tree.  None when no allowed matching exists.
    """
    n = g.n
    if n > max_n:
        raise BoundExceeded(f"matching enumeration capped at n={max_n}, got {n}")
    forb = frozenset(vertex_ids(forbidden, n, "forbidden vertex"))
    scc = scc_decompose(g)
    comp_id = scc.comp_id
    sources = scc.source_ids
    in_adj = g.in_adj
    used = bytearray(n)
    mate = [-1] * n
    best: int | None = None

    def final_cost() -> int:
        unmatched_in = [0] * scc.n_comps
        free = 0
        for v in range(n):
            if mate[v] < 0:
                free += 1
                unmatched_in[comp_id[v]] += 1
        return free + sum(1 for c in sources if unmatched_in[c] == 0)

    def descend(v: int, free: int) -> None:
        nonlocal best
        if best is not None and free >= best:
            return
        if v == n:
            c = final_cost()
            if best is None or c < best:
                best = c
            return
        for u in in_adj[v]:
            if not used[u]:
                used[u] = 1
                mate[v] = u
                descend(v + 1, free)
                used[u] = 0
                mate[v] = -1
        if v not in forb:
            descend(v + 1, free + 1)

    descend(0, 0)
    return best


def brute_force_min_input_set(
    g: SparseDigraph, forbidden: Collection[int], *, max_n: int = 6
) -> tuple[int, list[int]] | None:
    """Smallest admissible input set by subset sweep in size order.

    Controllability is monotone in the input set, so if even the full
    allowed vertex set fails there is nothing to sweep and the result
    is None.  The witness is the lexicographically first minimum set.
    """
    n = g.n
    if n > max_n:
        raise BoundExceeded(f"subset sweep capped at n={max_n}, got {n}")
    forb = frozenset(vertex_ids(forbidden, n, "forbidden vertex"))
    allowed = [v for v in range(n) if v not in forb]
    if not check_structural_controllability(g, allowed):
        return None
    for k in range(len(allowed) + 1):
        for combo in combinations(allowed, k):
            if check_structural_controllability(g, combo):
                return k, list(combo)
    return None


def numeric_rank_spot_check(
    g: SparseDigraph,
    input_set: Collection[int],
    trials: int = 5,
    seed: int = 0,
) -> bool:
    """Kalman rank test on random realisations of the sparsity pattern.

    Draws every nonzero of A and B(I) uniformly from [0.5, 1.5], stacks
    [B, AB, ..., A^(n-1) B] and counts singular values above
    ``n * machine_eps * sigma_max``.  True as soon as one trial reaches
    full rank, which certifies structural controllability; best kept to
    small n where conditioning cannot mask the generic rank.
    """
    import numpy as np  # only this checker needs numpy

    n = g.n
    iset = vertex_ids(input_set, n, "input vertex")
    if n == 0:
        return True
    if not iset:
        return False
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    edges = list(g.edges())
    for _ in range(trials):
        a = np.zeros((n, n))
        for u, v in edges:
            a[v, u] = rng.uniform(0.5, 1.5)
        b = np.zeros((n, len(iset)))
        for col, v in enumerate(iset):
            b[v, col] = rng.uniform(0.5, 1.5)
        blocks = [b]
        cur = b
        for _ in range(n - 1):
            cur = a @ cur
            blocks.append(cur)
        svals = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        if svals.size and svals[0] > 0:
            rank = int(np.count_nonzero(svals > n * eps * svals[0]))
            if rank == n:
                return True
    return False
