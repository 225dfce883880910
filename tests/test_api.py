"""The package surface: the user API in ``__all__``, every name the
benchmark code under ``perfbench/`` reads off the package, and what
importing the package loads.

The surface is read in a fresh interpreter that runs only ``import
minput, minput.cli``, as the benchmark and the ``minput`` command do, so
what other test modules import first cannot change the result.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minput

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(minput.__file__).resolve().parent

USER_API = {
    "Problem", "Solution", "Unsolvable", "UnsolvableReason", "solve",
    "SparseDigraph", "build_graph", "Diagnostics", "IterationStats",
    "MinputError", "BoundExceeded", "IndexOutOfRange", "IterationBoundExceeded",
    "NotSquare", "ParseError",
    "brute_force_min_cost_allowed_matching", "brute_force_min_input_set",
    "check_structural_controllability", "numeric_rank_spot_check",
}

# Run in a fresh interpreter with the chains to resolve as argv[1].
SURFACE = """\
import json, sys, types
import minput, minput.cli

def resolves(chain):
    obj = minput
    for part in chain:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True

attrs = vars(minput)
print(json.dumps({
    "numpy_loaded": "numpy" in sys.modules,
    "all": minput.__all__,
    "modules": sorted(k for k, v in attrs.items() if isinstance(v, types.ModuleType)),
    "public": sorted(k for k, v in attrs.items()
                     if not k.startswith("_") and not isinstance(v, types.ModuleType)),
    "missing": [chain for chain in json.loads(sys.argv[1]) if not resolves(chain)],
}))
"""


def _chain(node) -> list[str] | None:
    """``["minput", "a", "b"]`` for the expression ``minput.a.b``, and
    likewise for any name; None for an expression that is not a dotted
    name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _perfbench_chains() -> list[list[str]]:
    """Every attribute chain ``minput.a.b`` in the code of
    ``perfbench/*.py``, as ``["a", "b"]``; docstrings and comments are not
    code, so a prose mention of a name is not read.  A name bound by
    ``name = minput.a`` in a file stands for ``minput.a`` throughout that
    file, so ``cli = minput.cli; cli.build_graph`` reads
    ``["cli", "build_graph"]``."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots = {"minput": []}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                chain = _chain(node.value)
                if chain and chain[0] == "minput" and len(chain) > 1:
                    roots[node.targets[0].id] = chain[1:]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _chain(node)
                if chain and chain[0] in roots:
                    chains.add((*roots[chain[0]], *chain[1:]))
    return [list(chain) for chain in sorted(chains)]


@pytest.fixture(scope="module")
def surface():
    src = str(Path(minput.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    chains = _perfbench_chains()
    proc = subprocess.run(
        [sys.executable, "-c", SURFACE, json.dumps(chains)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return chains, json.loads(proc.stdout)


def test_all_is_the_user_api():
    assert sorted(minput.__all__) == sorted(USER_API)
    assert all(hasattr(minput, name) for name in minput.__all__)


def test_perfbench_names_resolve(surface):
    """The traced replica calls pipeline stages as ``minput.<name>``; a
    name dropped from the package would break it only at benchmark time."""
    chains, found = surface
    assert ["solve"] in chains and ["cli", "run"] in chains
    # read through the alias ``cli = minput.cli`` in perfbench/replica.py
    assert ["cli", "build_graph"] in chains
    assert found["missing"] == []


def test_public_names_are_user_api_and_perfbench_names(surface):
    """Besides its submodules, the package exposes ``__all__`` and the
    names benchmark code reads, and nothing else: a name only tests use
    is imported from its submodule, and a stage the benchmark stops
    reading leaves the package with it."""
    chains, found = surface
    read = {chain[0] for chain in chains}
    read -= {name for name in read if name.startswith("_") or name in found["modules"]}
    assert set(found["public"]) == set(found["all"]) | read


def test_import_does_not_load_numpy(surface):
    """Only the numeric rank checker uses numpy, so importing the package
    and its CLI, as every ``minput`` invocation does, must not load it."""
    assert surface[1]["numpy_loaded"] is False


def test_only_graph_raises_index_out_of_range():
    """``graph.vertex_id`` is the one vertex-id rule: every other module
    checks the ids it is handed through it, not by a range test of its own."""
    raisers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "IndexOutOfRange":
                raisers.add(path.name)
    assert raisers == {"graph.py"}


# Imported names a module keeps without reading them, with the reason.
UNREAD_IMPORTS = {
    # the benchmark's traced CLI run patches ``cli.build_graph`` and
    # ``cli.solve``; ``cli.run`` solves through ``solver._solve_from``
    ("cli.py", "build_graph"),
    ("cli.py", "solve"),
}


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module of the package imports is read in its code.
    ``__init__.py`` is left out: its imports are the package surface,
    which the tests above pin name by name."""
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread.update((path.name, name) for name in bound - read)
    assert unread == UNREAD_IMPORTS
