"""Whole-run benchmark of the QuickSand reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement is a fresh process
(``worker.py``) that builds the workload's inputs, runs its timed phase
once and checks its outputs.  The run starts such processes one after
another until ``--seconds`` is spent (at least one), then adds set-up
only processes until it holds three set-up samples, and reports medians
over its processes.  With ``--trace 1`` it alternates traced and
untraced processes and reports per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary goes to
stderr.  Exits non-zero, printing no result, when the program's source
is missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("circuits", "month_trace", "serve_follow", "population")
SETUP_SAMPLES = 3
#: a process that has not finished by then is killed and the run fails
PROCESS_TIMEOUT = 150.0
#: the run starts no process after this many seconds (the limit is 180)
HARD_BUDGET = 120.0

#: per-layer metrics of a traced run: name, unit, better.  Every traced run
#: prints all of them; a layer a workload never enters reads 0 there.
PER_LAYER = [
    ("tor.self_s", "s", "lower"),
    ("asgraph.self_s", "s", "lower"),
    ("bgpsim.self_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("gc.collections_gen2", "count", "lower"),
    ("span.other_s", "s", "lower"),
    ("span.overhead_s", "s", "lower"),
    ("host.ref_loop_ms", "ms", "lower"),
    ("tor.guard_fill_s", "s", "lower"),
    ("tor.build_circuit_s", "s", "lower"),
    ("tor.build_circuit_p50_ms", "ms", "lower"),
    ("tor.pick_calls", "count", "lower"),
    ("tor.pick_s", "s", "lower"),
    ("tor.circuits_per_pick", "ratio", "higher"),
    ("tor.position_weight_calls", "count", "lower"),
    ("tor.position_weight_s", "s", "lower"),
    ("tor.consensus_series_s", "s", "lower"),
    ("asgraph.engine_queries", "count", "lower"),
    ("asgraph.engine_misses", "count", "lower"),
    ("asgraph.engine_compute_s", "s", "lower"),
    ("asgraph.outcomes_many_s", "s", "lower"),
    ("asgraph.sessions_opened", "count", "lower"),
    ("asgraph.session_open_s", "s", "lower"),
    ("bgpsim.open_stream_s", "s", "lower"),
    ("bgpsim.replay_s", "s", "lower"),
    ("bgpsim.reset_removal_s", "s", "lower"),
    ("bgpsim.route_cache_hits", "count", "higher"),
    ("bgpsim.route_cache_misses", "count", "lower"),
    ("bgpsim.route_cache_evictions", "count", "lower"),
    ("bgpsim.session_hits", "count", "higher"),
    ("bgpsim.session_misses", "count", "lower"),
    ("bgpsim.session_evictions", "count", "lower"),
    ("bgpsim.session_repairs", "count", "lower"),
    ("bgpsim.records", "count", "lower"),
    ("bgpsim.windows", "count", "lower"),
    ("bgpsim.events", "count", "lower"),
    ("analysis.path_changes_s", "s", "lower"),
    ("analysis.extra_as_s", "s", "lower"),
    ("core.compromised_by_s", "s", "lower"),
    ("core.client_exposure_s", "s", "lower"),
    ("core.exposure_table_s", "s", "lower"),
    ("core.population_s", "s", "lower"),
    ("core.user_days_per_s", "1/s", "higher"),
    ("runner.trials", "count", "lower"),
    ("runner.trial_s", "s", "lower"),
    ("serve.batch_p50_ms", "ms", "lower"),
    ("serve.batch_p99_ms", "ms", "lower"),
    ("serve.path_batch_p50_ms", "ms", "lower"),
    ("serve.exposure_batch_p50_ms", "ms", "lower"),
    ("serve.hijack_batch_p50_ms", "ms", "lower"),
    ("serve.apply_p50_ms", "ms", "lower"),
    ("serve.pool_hits", "count", "higher"),
    ("serve.pool_misses", "count", "lower"),
    ("serve.pool_evictions", "count", "lower"),
    ("serve.pool_repairs", "count", "lower"),
    ("serve.pool_hit_ratio", "ratio", "higher"),
    ("serve.engine_sessions", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.invalidated", "count", "lower"),
]


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: the host-speed control."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    return (time.perf_counter() - t0) * 1e3


class Fail(Exception):
    pass


def spawn(root: str, args, *, trace: bool, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Fail(f"{args.workload} process timed out after {PROCESS_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        last = stderr.decode(errors="replace").strip().splitlines()[-15:]
        raise Fail(f"{args.workload} process exited with {proc.returncode}:\n" + "\n".join(last))
    doc = json.loads(stdout.decode().strip().splitlines()[-1])
    doc["setup_s"] = doc["timed_start"] - spawned
    doc["elapsed_s"] = time.monotonic() - spawned
    return doc


def measure(root: str, args) -> dict:
    started = time.monotonic()
    full, setups, refs = [], [], [ref_loop_ms()]
    trace_turn = bool(args.trace)
    while True:
        doc = spawn(root, args, trace=trace_turn)
        refs.append(ref_loop_ms())
        full.append(doc)
        setups.append(doc["setup_s"])
        if args.trace:
            trace_turn = not trace_turn
        elapsed = time.monotonic() - started
        longest = max(d["elapsed_s"] for d in full)
        need_pair = args.trace and not any(not d["traced"] for d in full)
        if need_pair and elapsed + longest < HARD_BUDGET:
            continue
        if elapsed + longest > min(args.seconds, HARD_BUDGET):
            break
    while len(setups) < SETUP_SAMPLES:
        doc = spawn(root, args, trace=False, setup_only=True)
        setups.append(doc["setup_s"])
    refs.append(ref_loop_ms())
    return {"full": full, "setups": setups, "refs": refs, "elapsed_s": time.monotonic() - started}


def summarise(args, m: dict) -> dict:
    full = m["full"]
    problems = [f"{args.workload}: {p}" for d in full for p in d["problems"]]
    counts = [json.dumps(d["counts"], sort_keys=True) for d in full]
    if len(set(counts)) != 1:
        problems.append(f"work counts differ between processes: {sorted(set(counts))}")
    per_child = {(d["attempted"], d["failed"]) for d in full}
    if len(per_child) != 1:
        problems.append(f"attempted/failed differ between processes: {sorted(per_child)}")
    attempted = sum(d["attempted"] for d in full)
    failed = sum(d["failed"] for d in full)
    untraced = [d for d in full if not d["traced"]]
    traced = [d for d in full if d["traced"]]
    run_s = statistics.median(d["run_s"] for d in untraced)
    metrics = {}
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(m["setups"]), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in untraced), "MB"),
        }
    else:
        derived = {
            "span.overhead_s": statistics.median(d["run_s"] for d in traced) - run_s,
            "host.ref_loop_ms": statistics.median(m["refs"]),
        }
        for name, unit, _better in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                value = statistics.median(d["layers"].get(name, 0) for d in traced)
            metrics[name] = (value, unit)
        absent = sorted({a for d in traced for a in d["layers"].get("absent", [])})
        if absent:
            print(f"absent entry points: {', '.join(absent)}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run.py: no program source at ./src/repro; run from a checkout root", file=sys.stderr)
        return 2
    try:
        m = measure(root, args)
    except Fail as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = summarise(args, m)
    for problem in result.pop("problems"):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(m['full'])} processes "
        f"in {m['elapsed_s']:.1f} s, "
        f"setup samples {[round(s, 3) for s in m['setups']]}, "
        f"run_s {[round(d['run_s'], 3) for d in m['full']]}, "
        f"host.ref_loop_ms {[round(r, 1) for r in m['refs']]}",
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
