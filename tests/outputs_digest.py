"""Digest of what minput outputs on a fixed set of seeded instances.

Solves 3000 seeded instances (Erdos-Renyi, preferential attachment and
star/cycle mixes; no, 10% or 30% forbidden, drawn at random or from a
greedy matching; every third solve with ``check=True``) and prints one
SHA-256 per output category plus coverage counts.  Two source trees
that produce the same outputs print the same digests, so this is the
check that a refactor changed nothing users or the tests can observe.
The instances, their edge-list files and the flow-graph builds come
from the helpers beside this file, so every tree sees the same stream:

    python3 tests/outputs_digest.py              # the package beside tests/
    python3 tests/outputs_digest.py OTHER/src    # another checkout's src/
    python3 tests/outputs_digest.py --against OTHER/src   # compare the two

With ``--against``, both trees are digested side by side, each in its
own process; the command marks each category ``same`` or ``DIFFERS``,
the coverage line included, and exits 1 naming every one that differs.

Categories:

* ``solution``: input set, cost, certificate and ``b_pattern``;
* ``cost``: each instance's cost, or its unsolvable reason.  An input
  set can change at the same cost, so a change to the start or the
  loop moves ``solution`` and should leave this alone;
* ``rounds``: every round's ``(dist, paths, cost)``;
* ``work``: every round's ``work`` counter, the scans of the residual
  search from ``t`` included, and the first round's ``build_work``,
  apart from ``rounds`` and ``flow`` so that a change to the counters
  shows apart from a change to results;
* ``unsolvable``: reason, detail and witness;
* ``flow``: the first round's ``node_count`` (the view's size),
  ``explicit_edges`` in the view's ids, and ``dump()``;
* ``cli``: exit code, stdout, stderr, ``--out`` and ``--dump-flow``
  bytes of ``--graph`` and ``--mm`` runs, with and without
  ``--verify``, and with ``--oracle`` at ``n <= 6``.
* ``files``: exit code, stdout and stderr of ``--graph`` and ``--mm``
  runs on 2000 seeded small files per format from ``bruteforce``'s
  generators: general and symmetric, real, integer and pattern, and
  every kind of layout variation and malformed line the readers report.
  Matrix Market files with a negative size line are left out: the
  reader reports that size before any later malformed line, which the
  one-loop reader kept in ``bruteforce`` as a reference does not, so
  trees with either reader may differ on them.
* ``graph``: ``n``, ``m``, ``out_adj`` and ``in_adj`` of a
  ``SparseDigraph`` built from each instance's edges with seeded
  parallel edges added and the list shuffled.
* ``scc``: each instance's component count and the members of its
  source components in ``source_ids`` order.  Only the order of the
  sources reaches an output, so this does not depend on how the other
  components are numbered, and it moves with any change to that order.
* ``loop``: every round's ``(dist, paths, cost)`` and the final cost of
  ``minimize(check=True)`` on 3000 seeded instances, each from a random
  allowed start: a random matching, with the forbidden set drawn among
  its matched destinations but the lowest member of each source SCC, so
  that ``minimize`` can free a member of each one it leaves fully
  matched.  Neither ``solve``'s start nor the greedy
  one leaves a shortest path through a swap inside a component, so only
  this category sees a change to how the loop searches there.

The coverage line counts solved instances, each unsolvable reason and
what the other categories exercised.  The first line names the package
imported and differs between trees.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

INSTANCES = 3000
FILES = 2000
LOOPS = 3000


def _instance(rng: random.Random):
    """One seeded (graph, forbidden) pair."""
    from bruteforce import greedy_forbidden, stars_and_cycles
    from families import erdos_renyi, preferential, random_forbidden

    kind = rng.randrange(6)
    if kind == 5:
        g = stars_and_cycles(rng)
    else:
        n = rng.randint(2, 6) if rng.random() < 0.2 else rng.randint(2, 120)
        if kind < 3:
            g = erdos_renyi(n, rng.choice([0.5, 1.0, 2.0, 3.0]) / n, rng)
        else:
            g = preferential(n, rng.randint(1, 3), rng)
    share = rng.choice([0.0, 0.1, 0.3])
    if rng.random() < 0.5:
        forbidden = greedy_forbidden(g, share, rng)
    else:
        forbidden = random_forbidden(g.n, share, rng)
    return g, forbidden


def _matrix_market(g, rng: random.Random) -> str:
    """``g`` as a real general Matrix Market file: edge ``u -> v`` is
    entry ``(v + 1, u + 1)``, with a few explicit zeros mixed in."""
    entries = [(v + 1, u + 1, rng.choice(["1", "-2.5", "0.75"])) for u, v in g.edges()]
    for _ in range(rng.randint(0, 2)):
        entries.append((rng.randint(1, g.n), rng.randint(1, g.n), "0"))
    lines = ["%%MatrixMarket matrix coordinate real general", f"{g.n} {g.n} {len(entries)}"]
    lines += [f"{r} {c} {value}" for r, c, value in entries]
    return "\n".join(lines) + "\n"


def _run_cli(cli, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr, ``--out`` and ``--dump-flow`` bytes."""
    files = [Path("out.json"), Path("flow.txt")]
    for path in files:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return (code, out.getvalue(), err.getvalue(),
            *(path.read_bytes() if path.exists() else None for path in files))


def _file_run(cli, name: str, text: str, argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of a run on ``text`` written to ``name``."""
    Path(name).write_text(text, encoding="utf-8", newline="")
    return _run_cli(cli, argv)[:3]


def main(src: Path) -> None:
    sys.path.insert(0, str(src))
    import minput
    from bruteforce import (component_nodes, dump_edge_list, flow_graph, random_edge_list_file,
                            random_matching, random_matrix_market_file)
    from minput import Problem, Solution, SparseDigraph, cli, solve
    from minput.augment import minimize
    from minput.graph import scc_decompose
    from minput.matching import find_allowed_matching

    digests = {k: hashlib.sha256()
               for k in ("solution", "cost", "rounds", "work", "unsolvable", "flow", "cli", "files",
                         "graph", "scc", "loop")}
    seen = dict.fromkeys(["solved", "unsolvable", "slack", "checked", "oracle",
                          "files", "file_errors", "loops"], 0)
    reasons: collections.Counter[str] = collections.Counter()

    def record(category: str, *fields) -> None:
        digests[category].update(repr(fields).encode() + b"\n")

    print(f"package {Path(minput.__file__).resolve().parent}")
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for i in range(INSTANCES):
                rng = random.Random(i)
                g, forbidden = _instance(rng)
                check = i % 3 == 0
                seen["checked"] += check
                res = solve(Problem(g, forbidden), check=check)
                if isinstance(res, Solution):
                    seen["solved"] += 1
                    record("solution", i, res.input_set, res.cost, res.certificate, res.b_pattern)
                    record("cost", i, res.cost)
                    rounds = res.diagnostics.per_iteration
                    record("rounds", i, [(it.dist, it.paths, it.cost) for it in rounds])
                    record("work", i, [it.work for it in rounds])
                else:
                    seen["unsolvable"] += 1
                    reasons[res.reason.value] += 1
                    record("unsolvable", i, res.reason.value, res.detail, res.witness)
                    record("cost", i, res.reason.value)

                m0 = find_allowed_matching(g, forbidden)
                if m0 is not None:
                    fg = flow_graph(g, m0, forbidden)
                    seen["slack"] += len(component_nodes(fg)) > 0
                    record("work", i, fg.build_work)
                    record("flow", i, fg.node_count(), fg.explicit_edges(), fg.dump())

                edges = list(g.edges())
                extra = random.Random(f"graph/{i}")
                edges += extra.choices(edges, k=extra.randint(0, len(edges))) if edges else []
                extra.shuffle(edges)
                h = SparseDigraph(g.n, edges)
                record("graph", i, h.n, h.m, h.out_adj, h.in_adj)
                scc = scc_decompose(g)
                record("scc", i, scc.n_comps, [scc.comps[c] for c in scc.source_ids])

                Path("g.txt").write_text(dump_edge_list(g), encoding="utf-8")
                Path("g.mtx").write_text(_matrix_market(g, rng), encoding="utf-8")
                Path("f.txt").write_text(" ".join(map(str, sorted(forbidden))) + "\n", encoding="utf-8")
                calls = [
                    ["--graph", "g.txt", "--forbidden", "f.txt", "--dump-flow", "flow.txt"],
                    ["--graph", "g.txt", "--forbidden", "f.txt", "--verify", "--out", "out.json"],
                    ["--mm", "g.mtx", "--forbidden", "f.txt", "--out", "out.json",
                     "--dump-flow", "flow.txt"],
                    ["--mm", "g.mtx", "--forbidden", "f.txt", "--verify"],
                ]
                if g.n <= 6:
                    seen["oracle"] += 1
                    calls.append(["--graph", "g.txt", "--forbidden", "f.txt", "--oracle",
                                  "--verify", "--out", "out.json"])
                record("cli", i, [_run_cli(cli, argv) for argv in calls])

            for i in range(FILES):
                rng = random.Random(f"files/{i}")
                text, _ = random_edge_list_file(rng)
                runs = [_file_run(cli, "g.txt", text, ["--graph", "g.txt"])]
                text, count = random_matrix_market_file(rng)
                if count is None or count >= 0:
                    tol = rng.choice(["0", "1e-9", "0.5", "2"])
                    runs.append(_file_run(cli, "g.mtx", text, ["--mm", "g.mtx", "--zero-tol", tol]))
                seen["files"] += len(runs)
                seen["file_errors"] += sum(run[0] == 1 for run in runs)
                record("files", i, runs)
        finally:
            os.chdir(home)

    for i in range(LOOPS):
        rng = random.Random(f"loop/{i}")
        g, _ = _instance(rng)
        scc = scc_decompose(g)
        m0 = random_matching(g, rng, rng.choice([0.5, 0.8, 1.0]))
        lowest = {scc.comps[c][0] for c in scc.source_ids}
        matched = [v for v in range(g.n) if m0.mate_of_dst[v] >= 0 and v not in lowest]
        forbidden = rng.sample(matched, round(rng.choice([0.0, 0.1, 0.3]) * len(matched)))
        _, cls, diag = minimize(g, scc, forbidden, m0, check=True)
        seen["loops"] += 1
        record("loop", i, [(it.dist, it.paths, it.cost) for it in diag.per_iteration], cls.cost)

    for category, digest in digests.items():
        print(f"{category:<11} {digest.hexdigest()}")
    print("coverage    instances", INSTANCES, *(f"{k} {v}" for k, v in seen.items()),
          *(f"{k} {v}" for k, v in sorted(reasons.items())))


def _digest_lines(src: Path) -> dict[str, str]:
    """This script's output for ``src``, run in a fresh interpreter, keyed by
    the first word of each line."""
    out = subprocess.run([sys.executable, __file__, str(src)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return dict(line.split(maxsplit=1) for line in out.splitlines())


def compare(src: Path, other: Path) -> int:
    """Digest both trees side by side; 1 if any category or the coverage differs."""
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        mine, theirs = pool.map(_digest_lines, (src, other))
    print(f"package {mine.pop('package')}")
    print(f"against {theirs.pop('package')}")
    differ = [k for k in mine if mine[k] != theirs.get(k)]
    for k, line in mine.items():
        print(f"{k:<11} {'DIFFERS' if k in differ else 'same   '} {line}")
    if differ:
        print("differ:", ", ".join(differ))
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="the src/ directory to digest (default: the one beside tests/)")
    parser.add_argument("--against", type=Path, metavar="OTHER/src",
                        help="digest this tree too and exit 1 if any category differs")
    args = parser.parse_args()
    if args.against is None:
        main(args.src.resolve())
    else:
        sys.exit(compare(args.src.resolve(), args.against.resolve()))
