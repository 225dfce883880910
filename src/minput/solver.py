"""End-to-end pipeline: minimum input set for structural controllability.

Given the influence graph of ``xdot = A x`` and a forbidden vertex set
F, find a smallest set I of non-forbidden state variables such that
attaching one dedicated input to each member of I (a diagonal B
pattern) makes the system structurally controllable.  The minimum size
equals the minimum cost over allowed matchings; the unmatched vertices
of the optimal matching that ``minimize`` returns, which leaves every
source SCC an unmatched member, realise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection

from .augment import Diagnostics, minimize
from .graph import SccInfo, SparseDigraph, source_components, vertex_ids
from .matching import MatchClass, Matching, _allowed_start, classify, free_source_members


@dataclass
class Problem:
    """An instance: influence graph and forbidden vertices."""

    graph: SparseDigraph
    forbidden: frozenset[int] = frozenset()


class UnsolvableReason(str, Enum):
    SOURCE_SCC_ALL_FORBIDDEN = "SourceSccAllForbidden"
    NO_ALLOWED_MATCHING = "NoAllowedMatching"


@dataclass
class Unsolvable:
    """No admissible input set exists; ``reason`` says which gate failed.

    ``witness`` is the sorted vertex set that proves it: the members of
    every source component with no allowed vertex, an isolated forbidden
    vertex among them (``SourceSccAllForbidden``), or forbidden vertices
    ``S`` with one in-neighbour fewer than members (``|N_in(S)| = |S| - 1``),
    so that no matching covers them (``NoAllowedMatching``).
    """

    reason: UnsolvableReason
    detail: str = ""
    witness: list[int] = field(default_factory=list)


@dataclass
class Solution:
    """A minimum input set with its matching certificate.

    ``input_set`` is sorted; ``cost`` is its size.  ``certificate``
    holds the matched edges of the optimal matching in original vertex
    ids; the vertices it leaves unmatched are exactly ``input_set``.
    ``b_pattern`` holds the diagonal nonzero positions of B(I).
    """

    input_set: list[int]
    cost: int
    certificate: list[tuple[int, int]]
    b_pattern: list[tuple[int, int]]
    diagnostics: Diagnostics = field(default_factory=Diagnostics)


def recover_input_set(
    scc: SccInfo, m_opt: Matching, forbidden: Collection[int]
) -> list[int]:
    """Input set of an optimal matching from ``minimize``: its unmatched
    vertices.  ``forbidden`` is not read."""
    return classify(scc, m_opt).unmatched


def _start(
    problem: Problem,
) -> Unsolvable | tuple[SccInfo, Matching, frozenset[int], MatchClass]:
    """The allowed flow of N that ``minimize`` drives, as ``(scc, m,
    forbidden, cls)``, or the verdict that the instance is unsolvable.

    Forbidden ids are checked once, then every source SCC must hold an
    allowed vertex and ``_allowed_start`` must cover F; these are the
    only two ways an instance can be unsolvable, and each verdict names
    its witness.  ``free_source_members`` moves the start into N.  A
    vertex with no incident edge is a singleton source SCC: a forbidden
    one fails the first gate, an allowed one stays unmatched.
    """
    g = problem.graph
    f_list = vertex_ids(problem.forbidden, g.n, "forbidden vertex")
    forb = frozenset(f_list)

    scc = source_components(g)
    comp_id, comps, r = scc.comp_id, scc.comps, len(scc.source_ids)
    hits: dict[int, int] = {}  # forbidden members per source component
    for c in map(comp_id.__getitem__, f_list):
        if c < r:
            hits[c] = hits.get(c, 0) + 1
    blocked = [comps[c] for c in sorted(hits) if hits[c] == len(comps[c])]
    if blocked:
        return Unsolvable(
            UnsolvableReason.SOURCE_SCC_ALL_FORBIDDEN,
            f"source components {blocked} have no allowed vertex",
            sorted(v for members in blocked for v in members),
        )

    m0 = _allowed_start(g, f_list)
    if not isinstance(m0, Matching):
        return Unsolvable(
            UnsolvableReason.NO_ALLOWED_MATCHING,
            f"forbidden vertices {m0} have fewer distinct in-neighbours "
            "than members, so no matching covers them all",
            m0,
        )
    cls = classify(scc, m0)
    free_source_members(scc, m0, cls, forb)
    return scc, m0, forb, cls


def find_allowed_matching(g: SparseDigraph, forbidden: Collection[int]) -> Matching | None:
    """The allowed flow of N that ``solve`` starts from (see
    ``_allowed_start``), or None when the instance is unsolvable."""
    start = _start(Problem(g, forbidden))
    return None if isinstance(start, Unsolvable) else start[1]


def solve(problem: Problem, *, check: bool = False) -> Solution | Unsolvable:
    """Solve an instance: ``minimize`` drives ``_start``'s flow, and its
    unmatched vertices are the input set.  ``check=True`` validates the
    start and every round."""
    return _solve_from(problem.graph, _start(problem), check=check)


def _solve_from(
    g: SparseDigraph,
    start: Unsolvable | tuple[SccInfo, Matching, frozenset[int], MatchClass],
    *,
    check: bool = False,
) -> Solution | Unsolvable:
    """``solve`` from ``_start``'s result for ``g``, which ``minimize``
    changes in place; ``cli`` dumps the start's flow graph first."""
    if isinstance(start, Unsolvable):
        return start
    m_opt, cls, diag = minimize(g, *start, check=check)
    input_set = cls.unmatched
    return Solution(
        input_set,
        len(input_set),
        m_opt.edges(),
        [(v, v) for v in input_set],
        diag,
    )
