#!/usr/bin/env python
"""Tracked experiment-runner benchmark -> ``results/BENCH_runner.json``.

Runs the resilience sweep (one :mod:`repro.runner` trial per guard
origin) over ``--jobs`` values and emits a machine-readable document so
the sharded backend's scaling is pinned from this PR onward (see
``docs/benchmarks.md`` for the schema).  Every run also cross-checks the
reports value-for-value across jobs values — identical results at any
``jobs`` is the runner's core guarantee — and exits non-zero on any
divergence; the CI smoke job runs a tiny sweep purely for that gate.

The acceptance criterion (>= 2.5x wall-clock at ``--jobs 4``) is only
enforced when the machine actually has >= 4 CPUs: process-pool sharding
cannot beat serial execution on fewer cores than shards, so on smaller
machines the document records the honest measurement and the gate is
reported as skipped (mirroring how ``--smoke`` skips the kernel gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke    # CI gate

A full run writes ``results/BENCH_runner.json`` unless ``--out`` says
otherwise; a ``--smoke`` run leaves it alone and writes its document only
to an explicit ``--out``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.asgraph import RoutingEngine, TopologyConfig, generate_topology  # noqa: E402
from repro.core.resilience import resilience_spec  # noqa: E402
from repro.runner import run_experiment  # noqa: E402
from _report import write_document  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_JOBS = [1, 2, 4]
SPEEDUP_TARGET = 2.5
SPEEDUP_AT_JOBS = 4


def _build_world(num_ases: int, num_origins: int, num_attackers: int, seed: int):
    config = TopologyConfig(
        num_ases=num_ases,
        num_tier1=8,
        num_tier2=max(20, num_ases // 10),
        seed=seed,
    )
    graph = generate_topology(config)
    rng = random.Random(seed)
    ases = sorted(graph.ases)
    client = ases[0]
    pool = [asn for asn in ases if asn != client]
    origins = rng.sample(pool, num_origins)
    attackers = rng.sample(pool, num_attackers)
    return graph, client, origins, attackers


def _timed_run(graph, client, origins, attackers, seed, jobs, repeats):
    """Best-of-N wall time for the sweep at one jobs value.

    Each repeat gets a fresh private engine (``jobs=1``) or fresh worker
    processes (``jobs>1``), so no run is flattered by a warm route cache.
    """
    samples = []
    report = None
    for _ in range(repeats):
        spec = resilience_spec(
            graph, client, origins, attackers, seed=seed,
            engine=RoutingEngine() if jobs == 1 else None,
        )
        t0 = time.perf_counter()
        report = run_experiment(spec, jobs=jobs)
        samples.append(time.perf_counter() - t0)
    return {
        "seconds_best": min(samples),
        "seconds_mean": sum(samples) / len(samples),
        "repeats": repeats,
    }, report


def run_suite(
    num_ases: int,
    num_origins: int,
    num_attackers: int,
    jobs_values: List[int],
    repeats: int,
    seed: int,
) -> Dict:
    graph, client, origins, attackers = _build_world(
        num_ases, num_origins, num_attackers, seed
    )
    results: List[Dict] = []
    defects: List[str] = []
    reports: Dict[int, List] = {}
    for jobs in jobs_values:
        row = {
            "workload": "resilience_sweep",
            "jobs": jobs,
            "trials": len(origins),
            "num_ases": num_ases,
            "attackers": num_attackers,
        }
        timing, report = _timed_run(
            graph, client, origins, attackers, seed, jobs, repeats
        )
        row.update(timing)
        results.append(row)
        reports[jobs] = report.results()
        print(
            f"  n={num_ases:>6} trials={len(origins):<4} jobs={jobs}"
            f" best {row['seconds_best']:8.3f} s"
        )

    baseline = reports[jobs_values[0]]
    for jobs in jobs_values[1:]:
        if reports[jobs] != baseline:
            differing = [
                i for i, (a, b) in enumerate(zip(baseline, reports[jobs]))
                if a != b
            ][:5]
            defects.append(
                f"jobs={jobs} report differs from jobs={jobs_values[0]}"
                f" at trial indices {differing}"
            )

    serial = next(r["seconds_best"] for r in results if r["jobs"] == 1)
    speedups = [
        {
            "jobs": r["jobs"],
            "speedup": serial / r["seconds_best"] if r["seconds_best"] else None,
        }
        for r in results
    ]

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "runner",
        "generated_by": "benchmarks/bench_runner.py",
        "config": {
            "num_ases": num_ases,
            "origins": num_origins,
            "attackers": num_attackers,
            "jobs": jobs_values,
            "repeats": repeats,
            "seed": seed,
        },
        "cpu_count": os.cpu_count(),
        "equivalent": not defects,
        "defects": defects,
        "results": results,
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-ases", type=int, default=2000)
    parser.add_argument("--origins", type=int, default=48)
    parser.add_argument("--attackers", type=int, default=30)
    parser.add_argument("--jobs", type=int, nargs="+", default=DEFAULT_JOBS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        help="where to write the JSON document; a full run defaults to "
             "results/, a --smoke run writes only to an explicit --out",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sweep, one repeat (the CI jobs-equivalence gate)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        num_ases, num_origins, num_attackers, repeats = 500, 12, 10, 1
    else:
        num_ases, num_origins, num_attackers, repeats = (
            args.num_ases, args.origins, args.attackers, args.repeats
        )
    jobs_values = sorted(set(args.jobs))
    if 1 not in jobs_values:
        jobs_values = [1] + jobs_values

    document = run_suite(
        num_ases, num_origins, num_attackers, jobs_values, repeats, args.seed
    )

    write_document(document, "BENCH_runner.json", args.out, args.smoke)

    for entry in document["speedups"]:
        print(f"speedup jobs={entry['jobs']} {entry['speedup']:.2f}x")
    if not document["equivalent"]:
        print("JOBS DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        return 1

    cpus = os.cpu_count() or 1
    gate_jobs = max(j for j in jobs_values)
    if args.smoke or gate_jobs < SPEEDUP_AT_JOBS:
        return 0
    speedup = next(
        e["speedup"] for e in document["speedups"] if e["jobs"] == SPEEDUP_AT_JOBS
    )
    if cpus < SPEEDUP_AT_JOBS:
        print(
            f"speedup gate skipped: {cpus} CPU(s) < {SPEEDUP_AT_JOBS} shards"
            f" (measured {speedup:.2f}x at jobs={SPEEDUP_AT_JOBS})",
            file=sys.stderr,
        )
        return 0
    if speedup < SPEEDUP_TARGET:
        print(
            f"acceptance criterion FAILED: jobs={SPEEDUP_AT_JOBS} speedup"
            f" {speedup:.2f}x < {SPEEDUP_TARGET}x on {cpus} CPUs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
