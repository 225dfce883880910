"""Benchmark for minput: what users run, end to end, and where the time goes.

    python3 perfbench/run.py --workload er-rounds --seed 0 --seconds 35 --trace 0

    for w in er-rounds pa-forbidden cli-grid-mm; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 35 --trace $t
    done; done

Run from the root of a checkout; ``minput`` is imported from its ``src``.
Each workload runs in its own process, so its peak RSS is its own.
Workloads, their generator parameters and the costs recorded for the
default seed live in ``perfbench/workloads.json``.

Load is one closed-loop caller in this process, with no extra threads.
Before the loop, the run generates a pool of ``pool`` instances from
``(workload, seed, index)``; the loop then calls them round-robin, timing
each call, and checks every instance's first answer outside the timed
region (a repeat must give the same answer).  It stops before an
iteration would end past ``--seconds``.  Every timed call starts from a
collected heap, so no call pays for the last one's garbage; the
collector stays on inside the call.

``--trace 0`` times the user's path: ``SparseDigraph(n, edges)`` then
``solve`` on library workloads, and ``cli.run(["--mm", ...])`` from the
file to the written JSON on the CLI workload, whose ``ingest_s`` and
``solve_s`` come from separate untraced ``ingest_matrix_market`` and
``solve`` calls on the same file.  Each call is preceded by one run of a
fixed reference loop (``speed.py``), and a reported time is the median
over the run's calls of each call's time times ``REF_S / reference time``
(see ``end_to_end_metrics``): the machine is shared, and its speed moves
too much from run to run for raw times to repeat.  The raw means and
medians are printed beside the scaled times.
``setup_s`` is the median time to import ``minput`` in a fresh interpreter
(nine in a row, before the loop) plus the pool size times the median time
to generate one instance and write its file, each step scaled by the
reference loop run just before it.

``--trace 1`` makes the same untraced call, then runs ``replica.py``'s
traced copy of ``solve`` on the same graph and reports per-layer medians.
Counts come from the first ``traced`` instances, which every traced run
processes, so they repeat exactly for a seed.

A failed check is counted and makes the command exit 1.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a result file stamped with the machine and the code, holding
every metric, the raw samples and the spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
IMPORT_SAMPLES = 9
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import minput, minput.cli; print(time.perf_counter() - t)")

sys.path.insert(0, HERE)
from instances import make_instance  # noqa: E402
from replica import BENCH_SPANS, Tracer, traced_cli_run, traced_solve  # noqa: E402
from speed import REF_S, reference_seconds  # noqa: E402

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = SPEC["workloads"]

# name -> unit, for every metric the benchmark prints
UNITS = {
    "total_s": "s", "total_cpu_s": "s", "solve_s": "s", "ingest_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio", "samples": "count",
    "graph.build_s": "s", "graph.scc_s": "s", "graph.compact_s": "s",
    "matching.init_s": "s", "matching.classify_s": "s", "flowgraph.build_s": "s",
    "augment.bfs_s": "s", "augment.extract_s": "s", "augment.apply_s": "s",
    "solver.recover_s": "s", "solver.self_s": "s", "cli.parse_s": "s", "cli.rest_s": "s",
    "gc.pause_s": "s", "tracing.overhead_s": "s",
    "graph.n": "count", "graph.m": "count", "graph.sccs": "count",
    "graph.source_sccs": "count", "graph.isolated": "count",
    "matching.forbidden": "count", "matching.init_unmatched": "count",
    "flowgraph.nodes": "count", "flowgraph.build_work": "count",
    "augment.rounds": "count", "augment.paths": "count", "augment.work": "count",
    "augment.reached": "count", "augment.useful_ratio": "ratio",
    "solver.cost": "count", "gc.collections": "count",
    "total_s.median": "s", "total_cpu_s.median": "s", "solve_s.median": "s",
    "ingest_s.median": "s", "total_s.raw": "s", "total_cpu_s.raw": "s", "solve_s.raw": "s",
    "ingest_s.raw": "s", "setup_s.raw": "s", "machine.ref_s": "s",
    "machine.ref_cpu_s": "s",
}

# replica span name -> per-layer metric
LAYER_SPANS = {
    "graph.compact": "graph.compact_s", "graph.scc": "graph.scc_s",
    "matching.init": "matching.init_s", "matching.classify": "matching.classify_s",
    "flowgraph.build": "flowgraph.build_s", "augment.bfs": "augment.bfs_s",
    "augment.extract": "augment.extract_s", "augment.apply": "augment.apply_s",
    "solver.recover": "solver.recover_s",
}
TRACED_TIMES = (*LAYER_SPANS.values(), "graph.build_s", "cli.parse_s", "cli.rest_s",
                "solver.self_s", "gc.pause_s", "gc.collections", "tracing.overhead_s")
E2E_TIMES = ("total_s", "total_cpu_s", "solve_s", "ingest_s")
COUNTS = ("graph.n", "graph.m", "graph.sccs", "graph.source_sccs", "graph.isolated",
          "matching.forbidden", "matching.init_unmatched", "flowgraph.nodes",
          "flowgraph.build_work", "augment.rounds", "augment.paths", "augment.work",
          "solver.cost")


def load_minput():
    """Import ``minput`` from this checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, SRC)
    import minput
    import minput.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(minput.__file__))) != SRC:
        raise ImportError(f"minput imported from {minput.__file__}, not from {SRC}")
    return minput


def import_seconds() -> list[tuple[float, float]]:
    """Time ``import minput`` in fresh interpreters, one after another, so
    the set-up's import part is a median and not a single sample.  Returns
    ``(import time, time of the reference loop run just before)`` pairs."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        ref_s = reference_seconds()[0]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(proc.stdout), ref_s))
    return samples


def stamp() -> dict:
    """Machine, interpreter and code identity for the result file."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    git = os.path.join(ROOT, ".git")
    if os.path.isfile(os.path.join(git, "HEAD")):
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            commit = fh.read().strip()
        ref = os.path.join(git, commit[5:]) if commit.startswith("ref: ") else ""
        if os.path.isfile(ref):
            with open(ref, encoding="utf-8") as fh:
                commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "minput")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "minput_commit": commit,
        "minput_src_sha256": digest.hexdigest(),
    }


def answer_of(result) -> dict:
    """The parts of a ``solve`` result the checks compare.  The input set
    is kept as an array, which the garbage collector does not scan."""
    if not hasattr(result, "input_set"):
        return {"solvable": False, "reason": result.reason.value}
    diag = result.diagnostics
    return {
        "solvable": True,
        "input_set": array.array("q", result.input_set),
        "cost": result.cost,
        "iterations": diag.iterations,
        "dists": [it.dist for it in diag.per_iteration],
        "paths": [it.paths for it in diag.per_iteration],
        "work": diag.total_work(),
    }


def call_library(minput, inst, _out_json=None) -> dict:
    """One timed user call: build the graph from the edge list, then solve."""
    gc.collect()
    c0 = process_time()
    t0 = perf_counter()
    g = minput.SparseDigraph(inst.n, inst.edges)
    t1 = perf_counter()
    result = minput.solve(minput.Problem(g, inst.forbidden))
    t2 = perf_counter()
    c2 = process_time()
    return {"total_s": t2 - t0, "total_cpu_s": c2 - c0, "ingest_s": t1 - t0,
            "solve_s": t2 - t1, "answer": answer_of(result)}


def cli_argv(inst, out_json: str) -> list[str]:
    return ["--mm", inst.mm_path, "--zero-tol", repr(inst.zero_tol), "--out", out_json]


def call_cli(minput, inst, out_json: str) -> dict:
    """One timed ``cli.run`` from the file to the JSON, then separate
    untraced ingest and solve calls on the same file."""
    argv = cli_argv(inst, out_json)
    gc.collect()
    c0 = process_time()
    t0 = perf_counter()
    code = minput.cli.run(argv)
    t1 = perf_counter()
    c1 = process_time()
    gc.collect()
    t2 = perf_counter()
    g = minput.cli.ingest_matrix_market(inst.mm_path, zero_tol=inst.zero_tol)
    t3 = perf_counter()
    gc.collect()
    t4 = perf_counter()
    result = minput.solve(minput.Problem(g))
    t5 = perf_counter()
    with open(out_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {"total_s": t1 - t0, "total_cpu_s": c1 - c0, "ingest_s": t3 - t2,
            "solve_s": t5 - t4, "answer": answer_of(result),
            "cli": {"code": code, "solvable": payload.get("solvable"),
                    "input_set": payload.get("input_set"), "cost": payload.get("cost")}}


def compare_replica(ans: dict, rep) -> list[str]:
    if not ans["solvable"]:
        return [] if rep.input_set is None else ["replica solved an instance solve rejected"]
    problems = []
    if rep.input_set != list(ans["input_set"]):
        problems.append("input set differs from solve")
    if len(rep.dists) != ans["iterations"]:
        problems.append(f"{len(rep.dists)} rounds, solve reported {ans['iterations']}")
    if rep.dists != ans["dists"] or rep.paths != ans["paths"]:
        problems.append("per-round dist/paths differ from solve")
    return problems


def traced_step(call, minput, inst, out_json, tracer) -> dict:
    """The untraced user call, then the traced graph build (inside a traced
    ``cli.run`` on the CLI workload) and the replica on that graph."""
    s = call(minput, inst, out_json)
    tracer.trace_id += 1
    s["trace"] = tracer.trace_id
    mismatch = []
    gc.collect()
    if inst.mm_path is not None:
        code, g = traced_cli_run(minput, cli_argv(inst, out_json), tracer)
        if code != 0:
            mismatch.append(f"traced cli.run exited {code}")
    else:
        g = tracer.call("graph.build", minput.SparseDigraph, inst.n, inst.edges)
    gc.collect()
    rep = traced_solve(minput, g, inst.forbidden, tracer)
    s["replica_mismatch"] = mismatch + compare_replica(s["answer"], rep)
    s["counts"] = dict(rep.counts, **{
        "augment.rounds": len(rep.dists), "augment.paths": sum(rep.paths),
        "augment.work": s["answer"].get("work", 0), "solver.cost": s["answer"].get("cost", 0)})
    return s


def check_sample(minput, inst, s, expected_cost, first=None) -> list[str]:
    """Problems with one iteration's answers; empty when all checks pass.
    A repeated instance must give its ``first`` (already checked) answer."""
    from checks import check_answer

    if "error" in s:
        return ["raised: " + s["error"].strip().splitlines()[-1]]
    ans = s["answer"]
    if not ans["solvable"]:
        return [f"reported unsolvable ({ans['reason']}), instance is solvable by construction"]
    if first is None:
        problems = check_answer(minput, inst, ans["input_set"], ans["cost"], expected_cost)
    elif (ans["input_set"], ans["cost"]) != (first["answer"]["input_set"], first["answer"]["cost"]):
        problems = ["answer differs from the first solve of this instance"]
    else:
        problems = []
    cli = s.get("cli")
    if cli is not None:
        if cli["code"] != 0 or cli["solvable"] is not True:
            problems.append(f"cli.run exit {cli['code']}, solvable={cli['solvable']}")
        elif (cli["input_set"], cli["cost"]) != (list(ans["input_set"]), ans["cost"]):
            problems.append("cli JSON answer differs from solve on the ingested graph")
    problems += ["replica: " + msg for msg in s.get("replica_mismatch", [])]
    return problems


def span_metrics(spans: list[list], trace: int) -> dict:
    """Per-layer seconds for one traced instance.

    A span's self time is its duration minus its direct children's; the
    replica (root ``solver.solve``) is recorded last, so its spans are
    those from the root on.
    """
    mine = [sp for sp in spans if sp[0] == trace]
    dur = {sp[1]: (sp[5] - sp[4]) / 1e9 for sp in mine}
    child = dict.fromkeys(dur, 0.0)
    for sp in mine:
        if sp[2] is not None:
            child[sp[2]] += dur[sp[1]]
    root = next(sp for sp in mine if sp[3] == "solver.solve")
    out = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    out.update({"graph.build_s": 0.0, "cli.parse_s": 0.0, "cli.rest_s": 0.0})
    for sp in mine:
        name, d = sp[3], dur[sp[1]]
        if name == "graph.build":
            out["graph.build_s"] += d
        elif name == "cli.ingest":
            out["cli.parse_s"] += d - child[sp[1]]
        elif name == "cli.run":
            out["cli.rest_s"] += d - child[sp[1]]
        elif sp[2] == root[1] and name in LAYER_SPANS:
            out[LAYER_SPANS[name]] += d
        elif sp[2] == root[1] and name not in BENCH_SPANS:
            raise ValueError(f"unexpected span {name} in the replica")
    out["solver.self_s"] = dur[root[1]] - child[root[1]]
    out["replica_s"] = dur[root[1]]
    in_replica = mine[mine.index(root):]
    out["gc.pause_s"] = sum(sp[6] for sp in in_replica) / 1e9
    out["gc.collections"] = sum(sp[7] for sp in in_replica)
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(good: list[dict]) -> dict:
    """Medians over the run's calls of each call's time scaled to the
    reference speed (see ``speed.py``), with the raw means and medians
    beside them.

    A call is scaled by the mean of the reference loops run just before
    and just after it, so both samples of the machine's speed are close in
    time to the call; CPU times are scaled by the loops' CPU times, which,
    like the call's, leave out the time the machine gave to other tenants.
    """
    metrics = {}
    for name in E2E_TIMES:
        ref = "ref_cpu_s" if name == "total_cpu_s" else "ref_s"
        values = [s[name] for s in good]
        around = [(a[ref] + b[ref]) / 2 for a, b in zip(good, good[1:] + good[-1:])]
        metrics[name + ".raw"] = statistics.fmean(values) if values else 0.0
        metrics[name + ".median"] = median(values)
        metrics[name] = REF_S * median([v / r for v, r in zip(values, around)])
    return metrics


def traced_metrics(good: list[dict], spans: list[list], n_counted: int) -> dict:
    per = []
    for s in good:
        m = span_metrics(spans, s["trace"])
        m["tracing.overhead_s"] = m["replica_s"] - s["solve_s"]
        per.append(m)
    metrics = {name: median([m[name] for m in per]) for name in TRACED_TIMES}
    firsts = {}
    for s in good:
        if s["instance"] < n_counted:
            firsts.setdefault(s["instance"], s["counts"])
    counts = list(firsts.values())
    for name in COUNTS:
        metrics[name] = statistics.median_low([c.get(name, 0) for c in counts]) if counts else 0
    reached = sum(c["augment.reached"] for c in counts)
    metrics["augment.reached"] = reached
    metrics["augment.useful_ratio"] = (
        sum(c["augment.useful"] for c in counts) / reached if reached else 0.0)
    return metrics


def guarded(fn, *args) -> dict:
    """Run one iteration's calls; an exception becomes a failed sample."""
    try:
        return fn(*args)
    except Exception:  # a raising solve is a counted failure, not a crash
        return {"error": traceback.format_exc(limit=3)}


def run_workload(minput, workload: str, seed: int, seconds: float, trace: bool,
                 params: dict | None = None,
                 imports: list[tuple[float, float]] = ()) -> dict:
    """Generate, time and check instances for ``seconds``; returns the
    full result record."""
    spec = WORKLOADS[workload]
    params = dict(spec["params"], **(params or {}))
    expected = spec["expected_costs_default_seed"]
    if seed != SPEC["default_seed"] or params != spec["params"]:
        expected = []
    call = call_cli if workload == "cli-grid-mm" else call_library
    work_dir = os.path.join(OUT, f"{workload}-seed{seed}-pid{os.getpid()}")
    out_json = os.path.join(work_dir, "result.json")
    os.makedirs(work_dir, exist_ok=True)
    tracer = Tracer()
    pool_size = params["pool"]
    # Every pool instance is timed at least once; a traced run also
    # processes the first ``traced`` of them for the counts.
    min_calls = max(pool_size, params["traced"] if trace else 0)
    pool, gen_s, firsts = [], [], {}
    samples, failures = [], []
    try:
        for i in range(pool_size):
            ref_s = reference_seconds()[0]
            t_gen = perf_counter()
            pool.append(make_instance(workload, params, seed, i, work_dir))
            gen_s.append((perf_counter() - t_gen, ref_s))
        import checks  # noqa: F401  (scipy, for the checks; loaded before the freeze)

        # The benchmark's own objects (the pool, scipy) move to the
        # permanent generation, so a full collection inside a timed call
        # scans what the program allocated, as it would in a user's process.
        gc.collect()
        gc.freeze()
        with tracer if trace else contextlib.nullcontext():
            t_end = perf_counter() + seconds
            while True:
                t_iter = perf_counter()
                i = len(samples) % pool_size
                inst, first = pool[i], firsts.get(i)
                ref_s, ref_cpu_s = reference_seconds()
                if trace:
                    s = guarded(traced_step, call, minput, inst, out_json, tracer)
                else:
                    s = guarded(call, minput, inst, out_json)
                s["instance"] = i
                s["ref_s"], s["ref_cpu_s"] = ref_s, ref_cpu_s
                problems = check_sample(minput, inst, s,
                                        expected[i] if i < len(expected) else None, first)
                if problems:
                    failures.append(f"{inst.label}: " + "; ".join(problems))
                if first is None and "answer" in s:
                    firsts[i] = s
                    if inst.mm_path is not None:
                        inst.edges = None  # only the first check needs them; the file stays
                elif first is not None:
                    s.pop("answer", None)  # checked equal to the first; keeps the heap small
                    s.pop("cli", None)
                samples.append(s)
                now = perf_counter()
                if len(samples) >= min_calls and now + (now - t_iter) > t_end:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        gc.unfreeze()
        shutil.rmtree(work_dir, ignore_errors=True)

    good = [s for s in samples if "error" not in s]
    if trace:
        metrics = traced_metrics(good, tracer.spans, params["traced"])
    else:
        metrics = end_to_end_metrics(good)
    metrics["peak_rss_mb"] = peak_rss_mb
    # Like a call, each set-up step is scaled by the reference loop run
    # just before it.
    metrics["setup_s.raw"] = (median([t for t, _ in imports])
                              + pool_size * median([t for t, _ in gen_s]))
    metrics["setup_s"] = REF_S * (median([t / r for t, r in imports])
                                  + pool_size * median([t / r for t, r in gen_s]))
    metrics["machine.ref_s"] = median([s["ref_s"] for s in samples])
    metrics["machine.ref_cpu_s"] = median([s["ref_cpu_s"] for s in samples])
    metrics["samples"] = len(samples)
    metrics["fail_ratio"] = len(failures) / len(samples)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": params, "setup": {"import_s": list(imports), "generate_s": gen_s},
        "attempted": len(samples), "failed": len(failures), "failures": failures,
        "metrics": metrics, "samples": samples, "spans": tracer.spans,
    }


def summary(result: dict) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` lists for the
    run's mode (``per_layer`` when traced, else ``end_to_end``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": UNITS[m["name"]]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        minput = load_minput()
    except ImportError as exc:
        print(f"error: cannot import minput from this checkout: {exc}", file=sys.stderr)
        return 2
    first_import_s = perf_counter() - PROCESS_START
    imports = import_seconds()

    result = run_workload(minput, args.workload, args.seed, args.seconds,
                          bool(args.trace), imports=imports)
    result["setup"]["first_import_s"] = first_import_s
    result["stamp"] = stamp()
    metrics = result["metrics"]
    for name in sorted(metrics):
        print(f"{args.workload:12s} {name:24s} {metrics[name]:.6g} {UNITS[name]}")
    print(f"{args.workload:12s} timings over {result['attempted']} calls; "
          f"fail_ratio = failed / {result['attempted']} instances attempted")
    for msg in result["failures"]:
        print(f"FAIL {msg}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=list)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary(result)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
