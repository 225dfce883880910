"""End-to-end pipeline: minimum input set for structural controllability.

Given the influence graph of ``xdot = A x`` and a forbidden vertex set
F, find a smallest set I of non-forbidden state variables such that
attaching one dedicated input to each member of I (a diagonal B
pattern) makes the system structurally controllable.  The minimum size
equals the minimum cost over allowed matchings; the optimal matching's
unmatched vertices, plus one allowed representative per fully matched
source SCC, realise it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection

from .augment import Diagnostics, minimize
from .errors import IndexOutOfRange
from .graph import (
    SccInfo,
    SparseDigraph,
    induced_subgraph,
    isolated_vertices,
    scc_decompose,
)
from .matching import Matching, find_allowed_matching


@dataclass
class Problem:
    """An instance: influence graph, forbidden vertices, display labels."""

    graph: SparseDigraph
    forbidden: frozenset[int] = frozenset()
    labels: list[str] | None = None


class UnsolvableReason(str, Enum):
    ISOLATED_FORBIDDEN = "IsolatedForbidden"
    SOURCE_SCC_ALL_FORBIDDEN = "SourceSccAllForbidden"
    NO_ALLOWED_MATCHING = "NoAllowedMatching"


@dataclass
class Unsolvable:
    """No admissible input set exists; ``reason`` says which gate failed."""

    reason: UnsolvableReason
    detail: str = ""


@dataclass
class Solution:
    """A minimum input set with its matching certificate.

    ``input_set`` is sorted; ``cost`` is its size.  ``certificate``
    holds the matched edges of the optimal matching in original vertex
    ids, and ``b_pattern`` the diagonal nonzero positions of B(I).
    """

    input_set: list[int]
    cost: int
    certificate: list[tuple[int, int]]
    b_pattern: list[tuple[int, int]]
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def recover_input_set(
    scc: SccInfo, m_opt: Matching, forbidden: Collection[int]
) -> list[int]:
    """Input set realised by an optimal matching.

    All unmatched vertices, plus for every source component with no
    unmatched member its lowest-id non-forbidden vertex.  Requires each
    source component to intersect the allowed set (the solver gates on
    that before ever minimising).
    """
    forb = frozenset(forbidden)
    unmatched_in = [0] * scc.n_comps
    for v, u in enumerate(m_opt.mate_of_dst):
        if u < 0:
            unmatched_in[scc.comp_id[v]] += 1
    picks: list[int] = []
    for c in scc.source_ids:
        if unmatched_in[c]:
            continue
        rep = -1
        for v in scc.comps[c]:
            if v not in forb:
                rep = v
                break
        if rep < 0:
            raise ValueError(f"source component {c} is entirely forbidden")
        picks.append(rep)
    return sorted(m_opt.unmatched() + picks)


def _vertex_id(v: object, n: int) -> int:
    """``v`` as a plain ``int`` in ``[0, n)``; integer types such as
    ``numpy.int64`` are accepted, ``bool`` and non-integers are not."""
    if not isinstance(v, bool):
        try:
            i = operator.index(v)
        except TypeError:
            pass
        else:
            if 0 <= i < n:
                return i
    raise IndexOutOfRange(f"forbidden vertex {v!r} is not an id in [0, {n})")


def solve(problem: Problem, *, check: bool = False) -> Solution | Unsolvable:
    """Solve an instance; ``check=True`` turns on per-round validation.

    Pipeline: vertices with no incident edge need their own input (and
    make the instance unsolvable when forbidden); the remainder is
    compacted, gated on every source SCC containing an allowed vertex,
    seeded with an allowed matching, minimised, and read back out.
    """
    g = problem.graph
    n = g.n
    forb = frozenset(_vertex_id(v, n) for v in problem.forbidden)

    iso = isolated_vertices(g)
    iso_set = set(iso)
    blocked = sorted(iso_set & forb)
    if blocked:
        return Unsolvable(
            UnsolvableReason.ISOLATED_FORBIDDEN,
            f"isolated vertices {blocked} are forbidden but need their own input",
        )
    if len(iso) == n:
        return Solution(list(iso), n, [], [(v, v) for v in iso])

    if iso:
        keep = [v for v in range(n) if v not in iso_set]
        sub, old_ids = induced_subgraph(g, keep)
        sub_forb = frozenset(i for i, v in enumerate(keep) if v in forb)
    else:
        sub, old_ids = g, None
        sub_forb = forb

    scc = scc_decompose(sub)
    for c in scc.source_ids:
        if all(v in sub_forb for v in scc.comps[c]):
            members = scc.comps[c] if old_ids is None else [old_ids[v] for v in scc.comps[c]]
            return Unsolvable(
                UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN,
                f"source component {members} has no allowed vertex",
            )

    m0 = find_allowed_matching(sub, sub_forb)
    if m0 is None:
        return Unsolvable(
            UnsolvableReason.NO_ALLOWED_MATCHING,
            "some forbidden vertex cannot be covered by any matching",
        )

    m_opt, diag = minimize(sub, scc, sub_forb, m0, check=check)
    for it in diag.per_iteration:  # report costs of the whole instance
        it.cost += len(iso)
    inner = recover_input_set(scc, m_opt, sub_forb)
    if old_ids is None:
        input_set = sorted(iso + inner)
        certificate = m_opt.edges()
    else:
        input_set = sorted(iso + [old_ids[v] for v in inner])
        certificate = [(old_ids[u], old_ids[v]) for u, v in m_opt.edges()]
    return Solution(
        input_set,
        len(input_set),
        certificate,
        [(v, v) for v in input_set],
        diag,
    )
