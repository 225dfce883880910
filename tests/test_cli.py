import json
import os
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

import minput
from bruteforce import (
    dump_edge_list,
    random_edge_list_file,
    random_matrix_market_file,
    reference_edge_list,
    reference_matrix_market,
)
from families import chain, erdos_renyi
from minput import (IndexOutOfRange, MinputError, NotSquare, ParseError, Problem, SparseDigraph,
                    solve)
from minput.cli import ingest_edge_list, ingest_matrix_market, read_forbidden, run
from minput.flowgraph import FlowGraph
from minput.graph import source_components
from minput.solver import _start


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


CHAIN3 = "3 2\n0 1\n1 2\n"


class TestEdgeList:
    def test_basic(self, tmp_path):
        g = ingest_edge_list(_write(tmp_path / "g.txt", CHAIN3))
        assert g == chain(3)

    def test_comments_and_blanks(self, tmp_path):
        text = "# instance\n\n2 1  # header\n0 1\n"
        g = ingest_edge_list(_write(tmp_path / "g.txt", text))
        assert g.n == 2 and list(g.edges()) == [(0, 1)]

    def test_round_trip(self, tmp_path, g4):
        path = _write(tmp_path / "g.txt", dump_edge_list(g4))
        assert ingest_edge_list(path) == g4

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_edge_list(_write(tmp_path / "g.txt", "2 1 junk\n0 1\n"))
        assert err.value.line == 1

    def test_non_integer_edge(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_edge_list(_write(tmp_path / "g.txt", "2 1\n0 x\n"))
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_edge_out_of_range(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_edge_list(_write(tmp_path / "g.txt", "2 1\n\n0 5\n"))
        assert err.value.line == 3

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_edge_list(_write(tmp_path / "g.txt", "# nothing\n"))
        assert err.value.line is None

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_edge_list(_write(tmp_path / "g.txt", "3 5\n0 1\n"))
        assert "declared 5" in str(err.value)


MM_GENERAL = """%%MatrixMarket matrix coordinate real general
3 3 3
1 1 2.0
2 1 1.0
3 2 -0.5
"""


# Cost 1 with both couplings kept (0 -> 1 -> 0 is one source SCC), cost 2
# when both are dropped.
MM_NAN_TOL = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 1.0\n1 2 -1.0\n"


class TestMatrixMarket:
    def test_general_real(self, tmp_path):
        g = ingest_matrix_market(_write(tmp_path / "a.mtx", MM_GENERAL))
        # stored entry (row, col) couples col into row
        assert sorted(g.edges()) == [(0, 0), (0, 1), (1, 2)]

    def test_pattern(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 2\n"
        g = ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert sorted(g.edges()) == [(1, 0), (1, 1)]

    def test_symmetric_mirrors_off_diagonal(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n2 1 1.0\n3 3 4.0\n"
        )
        g = ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert sorted(g.edges()) == [(0, 1), (1, 0), (2, 2)]

    def test_zero_tol_drops_small_values(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.05\n2 1 3.0\n"
        path = _write(tmp_path / "a.mtx", text)
        assert sorted(ingest_matrix_market(path).edges()) == [(0, 0), (0, 1)]
        assert sorted(ingest_matrix_market(path, zero_tol=0.1).edges()) == [(0, 1)]

    def test_not_square(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
        with pytest.raises(NotSquare):
            ingest_matrix_market(_write(tmp_path / "a.mtx", text))

    def test_bad_banner(self, tmp_path):
        with pytest.raises(ParseError) as err:
            ingest_matrix_market(_write(tmp_path / "a.mtx", "3 3 0\n"))
        assert err.value.line == 1

    def test_unsupported_symmetry(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate complex hermitian\n1 1 0\n"
        with pytest.raises(ParseError):
            ingest_matrix_market(_write(tmp_path / "a.mtx", text))

    def test_comment_lines_skipped(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% produced by hand\n1 1 1\n1 1 1.5\n"
        )
        g = ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert list(g.edges()) == [(0, 0)]

    def test_entry_count_mismatch(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        with pytest.raises(ParseError) as err:
            ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert "declared 3" in str(err.value)

    def test_entry_outside_matrix(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(ParseError) as err:
            ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert err.value.line == 3

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.5])
    def test_rejects_bad_zero_tol(self, tmp_path, tol):
        path = _write(tmp_path / "a.mtx", MM_NAN_TOL)
        with pytest.raises(ParseError):
            ingest_matrix_market(path, zero_tol=tol)

    @pytest.mark.parametrize("value", ["nan", "-nan", "NaN"])
    def test_rejects_nan_entry(self, tmp_path, value):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 {value}\n"
        with pytest.raises(ParseError) as err:
            ingest_matrix_market(_write(tmp_path / "a.mtx", text))
        assert err.value.line == 4

    def test_infinite_entry_is_a_coupling(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -inf\n"
        assert list(ingest_matrix_market(_write(tmp_path / "a.mtx", text)).edges()) == [(0, 1)]

    @pytest.mark.parametrize("symmetry,edges", [
        ("general", [(0, 1), (1, 2)]),
        ("symmetric", [(0, 1), (1, 0), (1, 2), (2, 1)]),
    ])
    def test_pattern_entry_is_a_coupling_at_any_zero_tol(self, tmp_path, symmetry, edges):
        text = f"%%MatrixMarket matrix coordinate pattern {symmetry}\n3 3 2\n2 1\n3 2\n"
        path = _write(tmp_path / "a.mtx", text)
        for read in (ingest_matrix_market, reference_matrix_market):
            for tol in (0.0, 1.0, 2.0):
                assert sorted(read(path, tol).edges()) == edges, (read, tol)


def _outcome(read, path, *args):
    """The graph a reader builds, or the type, message and line of the error it raises."""
    try:
        g = read(path, *args)
    except MinputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, g.m, g.out_adj, g.in_adj


# Every message each reader can give, as a pattern; the corpus must reach
# all of them, and a valid graph, for the comparison to cover the reader.
READER_MESSAGES = {
    "graph": [
        "expected header", "expected edge line", "expected two integers",
        "header fields must be nonnegative", "outside vertex range",
        "no header line found", "header declared", "vertex count .* exceeds",
    ],
    "mm": [
        "missing '%%MatrixMarket", "only 'matrix coordinate'", "unsupported value field",
        "unsupported symmetry", "expected size line", "size line must be three integers",
        "need square", "vertex count must be a nonnegative", "vertex count .* exceeds",
        "expected 2 fields", "expected 3 fields", "malformed entry", "outside matrix",
        "is NaN", "size line declared", "size line missing",
    ],
}


class TestReadersAgainstReference:
    """Both readers against the one-loop readers in ``bruteforce``, on 2000
    seeded files per format, valid and malformed, under a vertex cap of 7.

    Each file gives an equal graph (``n``, ``m``, ``out_adj`` and
    ``in_adj``) or the same error type, message and line.  The one allowed
    difference: a vertex count over the cap or negative is reported from
    its header or size line, where the reference reported an error found
    later in the file first.
    """

    CAP = 7
    FILES = 2000

    @pytest.mark.parametrize("fmt", ["graph", "mm"])
    def test_same_graph_or_error(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr("minput.graph.MAX_VERTICES", self.CAP)
        make, read, reference = {
            "graph": (random_edge_list_file, ingest_edge_list, reference_edge_list),
            "mm": (random_matrix_market_file, ingest_matrix_market, reference_matrix_market),
        }[fmt]
        path = tmp_path / "instance"
        seen = Counter()
        for i in range(self.FILES):
            rng = random.Random(i)
            text, count = make(rng)
            args = (rng.choice([0.0, 0.0, 1e-9, 0.5, 2.0]),) if fmt == "mm" else ()
            path.write_text(text, encoding="utf-8", newline="")
            got = _outcome(read, str(path), *args)
            want = _outcome(reference, str(path), *args)
            if got == want:
                seen["same"] += 1
            else:
                assert count is not None and not 0 <= count <= self.CAP, (i, text, got, want)
                assert got[0] is IndexOutOfRange and got[1].startswith("vertex count"), (i, got)
                assert isinstance(want[0], type), (i, want)
                seen["size reported first"] += 1
            if isinstance(got[0], type):
                seen[next((p for p in READER_MESSAGES[fmt] if re.search(p, got[1])), got[1])] += 1
            else:
                seen["graph with edges" if got[1] else "graph without edges"] += 1
        expected = {*READER_MESSAGES[fmt], "graph with edges", "graph without edges",
                    "size reported first"}
        assert set(seen) - {"same"} == expected, seen
        assert seen["graph with edges"] >= self.FILES // 4, seen


@pytest.mark.parametrize("readers,text,args", [
    ((ingest_edge_list, reference_edge_list), CHAIN3, ()),
    ((ingest_matrix_market, reference_matrix_market), MM_GENERAL, ()),
    ((read_forbidden,), "0 2  # pinned\n3\n", (5,)),
], ids=["graph", "mm", "forbidden"])
def test_byte_order_mark_is_skipped(tmp_path, readers, text, args):
    plain = _write(tmp_path / "plain", text)
    marked = _write(tmp_path / "marked", "\ufeff" + text)
    for read in readers:
        assert read(marked, *args) == read(plain, *args), read


class TestReadForbidden:
    def test_ids_and_comments(self, tmp_path):
        path = _write(tmp_path / "f.txt", "0 2  # pinned\n\n3\n")
        assert read_forbidden(path, 5) == frozenset({0, 2, 3})

    def test_out_of_range(self, tmp_path):
        with pytest.raises(ParseError) as err:
            read_forbidden(_write(tmp_path / "f.txt", "0\n9\n"), 5)
        assert err.value.line == 2

    def test_not_an_integer(self, tmp_path):
        with pytest.raises(ParseError):
            read_forbidden(_write(tmp_path / "f.txt", "zero\n"), 5)


class TestRunSolve:
    def test_solved_json(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", CHAIN3)
        assert run(["--graph", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvable"] is True
        assert payload["input_set"] == [0]
        assert payload["cost"] == 1
        assert payload["iterations"] >= 1
        assert {"dist", "paths", "cost"} <= set(payload["per_iteration"][0])

    def test_python_dash_m(self, tmp_path):
        path = _write(tmp_path / "g.txt", CHAIN3)
        src = str(pathlib.Path(minput.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "minput", "--graph", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cost"] == 1

    def test_unsolvable_exit_2(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", "2 1\n0 1\n")
        fpath = _write(tmp_path / "f.txt", "0\n")
        assert run(["--graph", gpath, "--forbidden", fpath]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvable"] is False
        assert payload["reason"] == "SourceSccAllForbidden"
        assert payload["witness"] == [0]
        assert payload["cost"] is None

    def test_unsolvable_witness(self, tmp_path, capsys):
        cases = [
            # one source cannot cover two forbidden destinations
            ("3 2\n0 1\n0 2\n", "1 2\n", "NoAllowedMatching", [1, 2]),
            # two forbidden isolated vertices, each a source component
            ("3 0\n", "0 2\n", "SourceSccAllForbidden", [0, 2]),
        ]
        for graph, forbidden, reason, witness in cases:
            gpath = _write(tmp_path / "g.txt", graph)
            fpath = _write(tmp_path / "f.txt", forbidden)
            assert run(["--graph", gpath, "--forbidden", fpath]) == 2
            payload = json.loads(capsys.readouterr().out)
            assert payload["reason"] == reason
            assert payload["witness"] == witness

    def test_verify_flag(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", CHAIN3)
        assert run(["--graph", path, "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["verify"] is True

    def test_oracle_flag_agrees(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", CHAIN3)
        assert run(["--graph", path, "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_cost"] == payload["cost"] == 1

    def test_oracle_flag_on_unsolvable(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", "2 1\n0 1\n")
        fpath = _write(tmp_path / "f.txt", "0\n")
        assert run(["--graph", gpath, "--forbidden", fpath, "--oracle"]) == 2
        assert json.loads(capsys.readouterr().out)["oracle_cost"] is None

    def test_oracle_flag_over_budget(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", dump_edge_list(chain(7)))
        assert run(["--graph", path, "--oracle"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", CHAIN3)
        dest = tmp_path / "result.json"
        assert run(["--graph", gpath, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["input_set"] == [0]

    def test_mm_input(self, tmp_path, capsys):
        path = _write(tmp_path / "a.mtx", MM_GENERAL)
        assert run(["--mm", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvable"] is True

    def test_dump_flow(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", "2 1\n0 1\n")
        dest = tmp_path / "flow.txt"
        assert run(["--graph", gpath, "--dump-flow", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_text() == "0.dst -> comp0\n1.dst -> 0.src\ns -> 1.src\n"

    def test_dump_flow_is_linear_on_a_star(self, tmp_path, capsys):
        # A bidirected star is one source SCC that any matching leaves
        # with n - 2 unmatched members: in the paper's graph a family of
        # n - 3 slack nodes, each fed by every one of them.
        n = 300
        edges = [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
        gpath = _write(tmp_path / "g.txt", dump_edge_list(SparseDigraph(n, edges)))
        dest = tmp_path / "flow.txt"
        assert run(["--graph", gpath, "--dump-flow", str(dest)]) == 0
        capsys.readouterr()
        assert len(dest.read_text().splitlines()) <= len(edges) + 5 * n

    def test_dump_flow_lists_isolated_vertices(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", "3 1\n1 2\n")
        dest = tmp_path / "flow.txt"
        assert run(["--graph", gpath, "--dump-flow", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_text() == "0.dst -> comp0\n1.dst -> comp1\n2.dst -> 1.src\ns -> 0.src\ns -> 2.src\n"

    def test_dump_flow_frees_a_fully_matched_source(self, tmp_path, capsys):
        # the start matches the 2-cycle fully; solve's first round, and
        # the dump, start from it with vertex 0 freed
        gpath = _write(tmp_path / "g.txt", "2 2\n0 1\n1 0\n")
        dest = tmp_path / "flow.txt"
        assert run(["--graph", gpath, "--dump-flow", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_text() == (
            "0.dst -> comp0\n1.dst -> 0.src\n1.src -> 0.dst\ncomp0 -> 1.dst\ns -> 1.src\n"
        )

    def test_dump_flow_runs_the_start_once(self, tmp_path, capsys, monkeypatch):
        # one source_components call for the dump and the solve, and the
        # dump shows the start, taken before the loop's path round
        # changes its matching
        g = erdos_renyi(40, 3 / 40, random.Random(4))
        gpath = _write(tmp_path / "g.txt", dump_edge_list(g))
        want = FlowGraph(g, *_start(Problem(g))).dump() + "\n"
        calls = []

        def counted(h):
            calls.append(h)
            return source_components(h)

        monkeypatch.setattr(minput.solver, "source_components", counted)
        dest = tmp_path / "flow.txt"
        assert run(["--graph", gpath, "--dump-flow", str(dest)]) == 0
        assert len(calls) == 1
        assert dest.read_text() == want
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] > 1 and payload["cost"] == solve(Problem(g)).cost

    def test_dump_flow_entirely_forbidden_source(self, tmp_path, capsys):
        # the 2-cycle matching covers both vertices, so the dump names the
        # gate that fails, not a missing matching
        gpath = _write(tmp_path / "g.txt", "2 2\n0 1\n1 0\n")
        fpath = _write(tmp_path / "f.txt", "0 1\n")
        dest = tmp_path / "flow.txt"
        code = run(["--graph", gpath, "--forbidden", fpath, "--dump-flow", str(dest)])
        assert code == 2
        capsys.readouterr()
        assert dest.read_text() == "# unsolvable (SourceSccAllForbidden), flow graph undefined\n"

    def test_dump_flow_without_matching(self, tmp_path, capsys):
        gpath = _write(tmp_path / "g.txt", "3 2\n0 1\n0 2\n")
        fpath = _write(tmp_path / "f.txt", "1 2\n")
        dest = tmp_path / "flow.txt"
        code = run(["--graph", gpath, "--forbidden", fpath, "--dump-flow", str(dest)])
        assert code == 2
        capsys.readouterr()
        assert dest.read_text() == "# unsolvable (NoAllowedMatching), flow graph undefined\n"


class TestRunErrors:
    def test_no_input_selected(self, capsys):
        assert run([]) == 1
        assert "required" in capsys.readouterr().err

    def test_both_inputs_selected(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", CHAIN3)
        assert run(["--graph", path, "--mm", path]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["--graph", "/nonexistent/instance.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = _write(tmp_path / "g.txt", "not a header\n")
        assert run(["--graph", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr("minput.cli.ingest_edge_list", exhausted)
        path = _write(tmp_path / "g.txt", CHAIN3)
        assert run(["--graph", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(b"3 2\n0 1\n1 \xff\n")
        assert run(["--graph", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        with pytest.raises(ParseError):
            ingest_edge_list(str(path))

    def test_non_utf8_matrix_market(self, tmp_path, capsys):
        path = tmp_path / "a.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate pattern general\n% \xfe\n2 2 1\n1 2\n")
        assert run(["--mm", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_forbidden(self, tmp_path, capsys):
        graph = _write(tmp_path / "g.txt", CHAIN3)
        forb = tmp_path / "f.txt"
        forb.write_bytes(b"1 \xc3\n")
        assert run(["--graph", graph, "--forbidden", str(forb)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_zero_tol(self, tmp_path, capsys):
        path = _write(tmp_path / "a.mtx", MM_NAN_TOL)
        assert run(["--mm", path]) == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 1
        gpath = _write(tmp_path / "g.txt", CHAIN3)
        for argv in (["--mm", path], ["--graph", gpath]):
            assert run([*argv, "--zero-tol", "nan"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "error:" in captured.err

    def test_nan_entry(self, tmp_path, capsys):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 nan\n1 2 -1.0\n"
        path = _write(tmp_path / "a.mtx", text)
        assert run(["--mm", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "line 3" in captured.err and "error:" in captured.err

    def test_vertex_count_over_cap(self, tmp_path, capsys, monkeypatch):
        """The count is checked at its header or size line, before any
        entry is read, so a malformed entry after it is never reached."""
        monkeypatch.setattr("minput.graph.MAX_VERTICES", 4)
        banner = "%%MatrixMarket matrix coordinate pattern general\n"
        over = "error: vertex count 5 exceeds"
        negative = "error: vertex count must be a nonnegative integer, got -1"
        cases = [
            ("g.txt", "5 0\n", over),
            ("a.mtx", banner + "5 5 0\n", over),
            ("g.txt", "5 1\n0 x\n", over),
            ("a.mtx", banner + "5 5 1\n1 x\n", over),
            ("a.mtx", banner + "-1 -1 1\n1 x\n", negative),
            ("g.txt", "-1 1\n0 x\n", "error: line 1: header fields must be nonnegative"),
        ]
        for name, text, message in cases:
            path = _write(tmp_path / name, text)
            assert run(["--mm" if name.endswith(".mtx") else "--graph", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(message), text
        assert run(["--graph", _write(tmp_path / "ok.txt", "4 0\n")]) == 0

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "minput" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        for argv in (["--frobnicate"], ["--bench", "chain,4,4,1"], ["--seed", "3"]):
            assert run(argv) == 1, argv
        capsys.readouterr()
