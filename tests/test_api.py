"""The package surface: the user API in ``__all__``, every name the
benchmark scripts under ``perfbench/`` read off the package, and what
importing the package loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import minput
import minput.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

USER_API = {
    "Problem", "Solution", "Unsolvable", "UnsolvableReason", "solve",
    "SparseDigraph", "build_graph", "Diagnostics", "IterationStats",
    "MinputError", "BoundExceeded", "IndexOutOfRange", "IterationBoundExceeded",
    "NotSquare", "ParseError",
    "brute_force_min_cost_allowed_matching", "brute_force_min_input_set",
    "check_structural_controllability", "numeric_rank_spot_check",
}


def test_all_is_the_user_api():
    assert sorted(minput.__all__) == sorted(USER_API)
    assert all(hasattr(minput, name) for name in minput.__all__)


def test_perfbench_names_resolve():
    """The traced replica calls pipeline stages as ``minput.<name>``; a
    name dropped from the package would break it only at benchmark time."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        chains.update(re.findall(r"\bminput((?:\.\w+)+)", path.read_text(encoding="utf-8")))
    assert chains
    missing = []
    for chain in sorted(chains):
        obj = minput
        for part in chain[1:].split("."):
            if not hasattr(obj, part):
                missing.append("minput" + chain)
                break
            obj = getattr(obj, part)
    assert not missing


def test_import_does_not_load_numpy():
    """Only the numeric rank checker uses numpy, so importing the package
    and its CLI, as every ``minput`` invocation does, must not load it."""
    src = str(Path(minput.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, minput, minput.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
