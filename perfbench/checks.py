"""Correctness gate applied to every answer, outside the timed region.

The matching number and the strongly connected components come from
``scipy.sparse.csgraph``, not from ``minput``, so the cost bracket
``n - nu <= cost <= n - nu + #source SCCs`` is an independent check.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching


def reference_bounds(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """``(n - nu, n - nu + source SCC count)`` from scipy.

    The lower end holds for any input set; the upper end is met by any
    maximum matching with one extra input per fully matched source SCC.
    """
    if not edges:
        return n, 2 * n
    arr = np.asarray(edges, dtype=np.int32)
    adj = csr_matrix((np.ones(len(arr), dtype=np.int8), (arr[:, 0], arr[:, 1])), shape=(n, n))
    nu = int(np.count_nonzero(maximum_bipartite_matching(adj, perm_type="column") >= 0))
    n_comps, labels = connected_components(adj, directed=True, connection="strong")
    src, dst = labels[arr[:, 0]], labels[arr[:, 1]]
    has_in_edge = np.zeros(n_comps, dtype=bool)
    has_in_edge[dst[src != dst]] = True
    sources = int(n_comps - np.count_nonzero(has_in_edge))
    return n - nu, n - nu + sources


def check_answer(minput, inst, input_set: list[int], cost: int,
                 expected_cost: int | None) -> list[str]:
    """Problems with one answer; an empty list means it passed."""
    problems = []
    if len(input_set) != cost or len(set(input_set)) != cost:
        problems.append(f"input set of {len(input_set)} entries does not match cost {cost}")
    hit = sorted(set(input_set) & inst.forbidden)
    if hit:
        problems.append(f"input set uses forbidden vertices {hit[:5]}")
    g = minput.SparseDigraph(inst.n, inst.edges)
    if not minput.check_structural_controllability(g, input_set):
        problems.append("input set does not make the system structurally controllable")
    lo, hi = reference_bounds(inst.n, inst.edges)
    if not lo <= cost <= hi:
        problems.append(f"cost {cost} outside the reference bracket [{lo}, {hi}]")
    if expected_cost is not None and cost != expected_cost:
        problems.append(f"cost {cost} differs from the recorded {expected_cost}")
    return problems
