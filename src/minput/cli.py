"""Command line front end: solve instances from files and verify the result.

Exit codes: 0 solved, 2 no admissible input set exists, 1 anything
else (bad flags, malformed files, oracle bound exceeded, running out
of memory, internal verification failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import MinputError, NotSquare, ParseError
from .flowgraph import build_flow_graph
# Nothing here calls build_graph; the benchmark's traced run
# (perfbench/replica.py) patches cli.build_graph, so the name must resolve.
from .graph import SparseDigraph, build_graph, empty_adjacency, scc_decompose  # noqa: F401
from .matching import Matching, _allowed_start, classify, free_source_members
from .oracle import brute_force_min_input_set, check_structural_controllability
from .solver import Problem, Solution, solve


def _utf8_input(parse):
    """Report a file that is not UTF-8 text as a ParseError."""

    @functools.wraps(parse)
    def wrapper(path, *args, **kwargs):
        try:
            return parse(path, *args, **kwargs)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None

    return wrapper


def _edge_list_pairs(fh):
    """``(lineno, a, b)`` for each significant line of an edge-list file,
    the header first; a line that is not two integers is a ParseError."""
    what = "header 'n <edge-count>'"
    for lineno, raw in enumerate(fh, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected {what}, got {text!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {text!r}", lineno) from None
        yield lineno, a, b
        what = "edge line 'i j'"


@_utf8_input
def ingest_edge_list(path: str) -> SparseDigraph:
    """Parse the plain edge-list format.

    The first significant line is ``n <edge-count>``; every following
    line is one ``i j`` pair meaning edge i -> j (0-based).  ``#``
    starts a comment, blank lines are skipped, and the declared edge
    count must match the number of edge lines.  A header over the
    vertex cap is reported before any edge line is read; each edge goes
    straight into its source's adjacency list.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        pairs = _edge_list_pairs(fh)
        lineno, n, declared = next(pairs, (None, None, None))
        if lineno is None:
            raise ParseError("no header line found")
        if n < 0 or declared < 0:
            raise ParseError("header fields must be nonnegative", lineno)
        out_adj, in_adj = empty_adjacency(n)
        count = 0
        for lineno, u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u}, {v}) outside vertex range [0, {n})", lineno)
            out_adj[u].append(v)
            count += 1
    if declared != count:
        raise ParseError(f"header declared {declared} edges, file has {count}")
    return SparseDigraph._from_lists(out_adj, in_adj)


@_utf8_input
def ingest_matrix_market(path: str, zero_tol: float = 0.0) -> SparseDigraph:
    """Matrix Market coordinate ingestion.

    A stored entry (row, col, value) with ``|value| > zero_tol``, or any
    pattern entry, means the matrix couples state ``col`` into state
    ``row``: edge col -> row after shifting the 1-based indices down.
    Accepts real, integer and pattern fields, general or symmetric.  A
    NaN entry value, or a ``zero_tol`` that is NaN, infinite or
    negative, is a ParseError: NaN is neither zero nor a coupling.  A
    size line over the vertex cap is reported before any entry is read;
    each entry goes straight into its column's adjacency list.
    """
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
        pattern = value_kind == "pattern"
        mirror = symmetry == "symmetric"
        want = 2 if pattern else 3
        # a line whose first field starts with '%' is a comment
        lines = enumerate(fh, start=2)
        for lineno, raw in lines:
            parts = raw.split()
            if not parts or parts[0][0] == "%":
                continue
            if len(parts) != 3:
                raise ParseError("expected size line 'rows cols nnz'", lineno)
            try:
                n, cols, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError("size line must be three integers", lineno) from None
            if n != cols:
                raise NotSquare(f"matrix is {n}x{cols}, need square")
            break
        else:
            raise ParseError("size line missing")
        out_adj, in_adj = empty_adjacency(n)
        seen = 0
        for lineno, raw in lines:
            parts = raw.split()
            if not parts or parts[0][0] == "%":
                continue
            if len(parts) != want:
                raise ParseError(f"expected {want} fields per entry", lineno)
            try:
                r, c = int(parts[0]), int(parts[1])
                value = math.inf if pattern else float(parts[2])
            except ValueError:
                raise ParseError(f"malformed entry {raw.strip()!r}", lineno) from None
            if not (0 < r <= n and 0 < c <= n):
                raise ParseError(f"entry ({r}, {c}) outside matrix", lineno)
            seen += 1
            if abs(value) > zero_tol:
                out_adj[c - 1].append(r - 1)
                if mirror and r != c:
                    out_adj[r - 1].append(c - 1)
            elif value != value:
                raise ParseError(f"entry ({r}, {c}) is NaN", lineno)
    if seen != nnz:
        raise ParseError(f"size line declared {nnz} entries, file has {seen}")
    return SparseDigraph._from_lists(out_adj, in_adj)


@_utf8_input
def read_forbidden(path: str, n: int) -> frozenset[int]:
    """Whitespace-separated forbidden vertex ids; ``#`` comments allowed."""
    forbidden = set()
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            for token in text.split():
                try:
                    v = int(token)
                except ValueError:
                    raise ParseError(f"expected vertex id, got {token!r}", lineno) from None
                if not (0 <= v < n):
                    raise ParseError(f"forbidden vertex {v} outside [0, {n})", lineno)
                forbidden.add(v)
    return frozenset(forbidden)


def _flow_dump(problem: Problem) -> str:
    """The flow graph ``solve`` searches first, every vertex included."""
    g, forb = problem.graph, problem.forbidden
    scc = scc_decompose(g)
    m0 = _allowed_start(g, sorted(forb))
    if isinstance(m0, Matching):
        cls = classify(scc, m0)
        if free_source_members(scc, m0, cls, forb) < 0:
            return build_flow_graph(g, scc, m0, forb, cls).dump() + "\n"
    return "# no allowed matching, flow graph undefined\n"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="minput",
        description="Minimum input selection for structural controllability.",
    )
    p.add_argument("--graph", metavar="PATH", help="edge-list instance file")
    p.add_argument("--mm", metavar="PATH", help="Matrix Market coordinate instance file")
    p.add_argument("--forbidden", metavar="PATH", help="file of forbidden vertex ids")
    p.add_argument("--zero-tol", type=float, default=0.0,
                   help="treat Matrix Market values with |v| <= this as zero")
    p.add_argument("--verify", action="store_true",
                   help="re-check the result with the independent controllability test")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (small instances only)")
    p.add_argument("--out", metavar="PATH", help="write the JSON result to this file")
    p.add_argument("--dump-flow", metavar="PATH",
                   help="write the first-round flow graph as a text edge list")
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.graph and args.mm:
            print("error: --graph and --mm are mutually exclusive", file=sys.stderr)
            return 1
        if args.zero_tol != 0.0 and not args.mm:
            print("error: --zero-tol applies only to --mm", file=sys.stderr)
            return 1
        if args.graph:
            g = ingest_edge_list(args.graph)
        elif args.mm:
            g = ingest_matrix_market(args.mm, zero_tol=args.zero_tol)
        else:
            print("error: one of --graph or --mm is required", file=sys.stderr)
            return 1
        forb = read_forbidden(args.forbidden, g.n) if args.forbidden else frozenset()
        problem = Problem(g, forb)
        if args.dump_flow:
            with open(args.dump_flow, "w", encoding="utf-8") as fh:
                fh.write(_flow_dump(problem))
        result = solve(problem)
        solved = isinstance(result, Solution)
        if solved:
            payload = {"solvable": True}
            input_set, cost = result.input_set, result.cost
            rounds = result.diagnostics.per_iteration
        else:
            payload = {"solvable": False, "reason": result.reason.value,
                       "witness": result.witness}
            input_set, cost, rounds = [], None, []
        payload.update({
            "input_set": input_set,
            "cost": cost,
            "iterations": len(rounds),
            "per_iteration": [
                {"dist": it.dist, "paths": it.paths, "cost": it.cost} for it in rounds
            ],
        })
        code = 0 if solved else 2
        if args.verify and solved:
            payload["verify"] = check_structural_controllability(g, input_set)
            if not payload["verify"]:
                print("error: verification failed on the returned set", file=sys.stderr)
                code = 1
        if args.oracle:
            answer = brute_force_min_input_set(g, forb)
            payload["oracle_cost"] = None if answer is None else answer[0]
            if payload["oracle_cost"] != payload["cost"]:
                print("error: oracle disagrees with the solver", file=sys.stderr)
                code = 1
        text = json.dumps(payload, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (MinputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
