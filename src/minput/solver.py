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

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection

from .augment import Diagnostics, minimize
from .graph import SccInfo, SparseDigraph, scc_decompose, vertex_id
from .matching import Matching, classify, find_allowed_matching, hall_violator


@dataclass
class Problem:
    """An instance: influence graph and forbidden vertices."""

    graph: SparseDigraph
    forbidden: frozenset[int] = frozenset()


class UnsolvableReason(str, Enum):
    ISOLATED_FORBIDDEN = "IsolatedForbidden"
    SOURCE_SCC_ALL_FORBIDDEN = "SourceSccAllForbidden"
    NO_ALLOWED_MATCHING = "NoAllowedMatching"


@dataclass
class Unsolvable:
    """No admissible input set exists; ``reason`` says which gate failed.

    ``witness`` is the sorted vertex set that proves it: the forbidden
    isolated vertices (``IsolatedForbidden``), the members of an
    all-forbidden source component (``SourceSccAllForbidden``), or
    forbidden vertices with fewer in-neighbours than members, so that no
    matching covers them (``NoAllowedMatching``).
    """

    reason: UnsolvableReason
    detail: str = ""
    witness: list[int] = field(default_factory=list)


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
    cls = classify(scc, m_opt)
    picks: list[int] = []
    for c in cls.x_comps:
        rep = -1
        for v in scc.comps[c]:
            if v not in forb:
                rep = v
                break
        if rep < 0:
            raise ValueError(f"source component {c} is entirely forbidden")
        picks.append(rep)
    return sorted(cls.unmatched + picks)


def solve(problem: Problem, *, check: bool = False) -> Solution | Unsolvable:
    """Solve an instance; ``check=True`` turns on per-round validation.

    Pipeline: forbidden ids are checked; a forbidden vertex with no
    incident edge makes the instance unsolvable at once; every source
    SCC must contain an allowed vertex; an allowed matching is seeded,
    minimised and read back out.  A vertex with no incident edge needs
    no special handling past the first gate: it is a singleton source
    SCC that stays unmatched, so the cost charges it one input.
    """
    g = problem.graph
    n = g.n
    forb = frozenset(vertex_id(v, n, "forbidden vertex") for v in problem.forbidden)

    blocked = sorted(v for v in forb if not g.out_adj[v] and not g.in_adj[v])
    if blocked:
        return Unsolvable(
            UnsolvableReason.ISOLATED_FORBIDDEN,
            f"isolated vertices {blocked} are forbidden but need their own input",
            blocked,
        )

    scc = scc_decompose(g)
    for c in scc.source_ids:
        if forb.issuperset(scc.comps[c]):
            return Unsolvable(
                UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN,
                f"source component {scc.comps[c]} has no allowed vertex",
                list(scc.comps[c]),
            )

    m0 = find_allowed_matching(g, forb)
    if m0 is None:
        hall = hall_violator(g, forb)
        return Unsolvable(
            UnsolvableReason.NO_ALLOWED_MATCHING,
            f"forbidden vertices {hall} have fewer distinct in-neighbours "
            "than members, so no matching covers them all",
            hall,
        )

    m_opt, diag = minimize(g, scc, forb, m0, check=check)
    input_set = recover_input_set(scc, m_opt, forb)
    return Solution(
        input_set,
        len(input_set),
        m_opt.edges(),
        [(v, v) for v in input_set],
        diag,
    )
