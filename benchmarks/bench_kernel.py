#!/usr/bin/env python
"""Tracked routing-kernel benchmark suite -> ``results/BENCH_kernel.json``.

Sweeps graph sizes x workloads x kernels and emits a machine-readable
document so the perf trajectory of the routing kernel is pinned (see
``docs/benchmarks.md`` for the schema).  Every run also cross-checks
:func:`compute_routes_fast`, the engine and every multi-origin batch row
against the path-tuple reference kernel in ``tests/oracle/routing.py``,
outcome for outcome, and exits non-zero on any divergence — the CI smoke
job runs the smallest sweep size purely for that gate.

Workloads, per graph size and per kernel (``oracle`` | ``fast``):

- ``full_route``      one origin announcing, every AS routed (the §3.2
                      capture-set shape; the acceptance criterion's 3x
                      target applies here at the largest size);
- ``targeted_query``  single (src, dst) path queries with the early exit
                      (the trace engine's vantage-point shape);
- ``paths_many``      clients x guards pairs grouped by destination, one
                      targeted run per destination: a cold engine for
                      ``fast``, the same grouping by hand for ``oracle``
                      (the resilience-table shape);
- ``multi_origin``    100 origins routed in one shared propagation
                      (``compute_routes_many``, kernel ``batch``) vs. a
                      loop of ``compute_routes_fast`` runs (kernel
                      ``fast``) — the resilience/surveillance sweep
                      substrate; the acceptance criterion's 5x target
                      applies at the largest size, and every batch row is
                      checked bit-for-bit against its per-origin run and
                      route for route against the oracle.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke    # CI gate

A full sweep writes ``results/BENCH_kernel.json`` unless ``--out`` says
otherwise; a ``--smoke`` run leaves ``results/`` alone and writes its
document only to an explicit ``--out``.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.asgraph import (  # noqa: E402
    RoutingEngine,
    TopologyConfig,
    compute_routes_fast,
    compute_routes_many,
    generate_topology,
)
from repro.asgraph.index import graph_index  # noqa: E402
from repro.serve.api import PathBatch  # noqa: E402
from tests.oracle.routing import compute_routes  # noqa: E402
from _report import write_document  # noqa: E402

SCHEMA_VERSION = 3
DEFAULT_SIZES = [500, 1500, 4000]
KERNELS: Dict[str, Callable] = {"oracle": compute_routes, "fast": compute_routes_fast}


def _oracle_paths_many(graph, pairs) -> Dict[Tuple[int, int], object]:
    """What a cold engine does for ``paths_many``, on the oracle: one
    targeted run per destination with the merged sources as targets."""
    by_dst: Dict[int, set] = {}
    for src, dst in pairs:
        by_dst.setdefault(dst, set()).add(src)
    outcomes = {
        dst: compute_routes(graph, [dst], targets=frozenset(srcs))
        for dst, srcs in sorted(by_dst.items())
    }
    return {(src, dst): outcomes[dst].path(src) for src, dst in pairs}


def _time(fn: Callable[[], object], repeats: int) -> Dict[str, float]:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "seconds_best": min(samples),
        "seconds_mean": sum(samples) / len(samples),
        "repeats": repeats,
    }


def _build_world(num_ases: int, seed: int):
    config = TopologyConfig(
        num_ases=num_ases,
        num_tier1=8,
        num_tier2=max(20, num_ases // 10),
        seed=seed,
    )
    graph = generate_topology(config)
    t0 = time.perf_counter()
    graph_index(graph)  # steady state for the fast kernel: compiled once
    compile_seconds = time.perf_counter() - t0
    rng = random.Random(seed)
    ases = sorted(graph.ases)
    origin = ases[-1]
    queries = [tuple(rng.sample(ases, 2)) for _ in range(20)]
    clients = rng.sample(ases, 30)
    guards = rng.sample(ases, 6)
    pairs = [(c, g) for c in clients for g in guards]
    batch_origins = rng.sample(ases, min(100, len(ases)))
    meta = {
        "num_ases": num_ases,
        "num_links": graph.num_links(),
        "seed": seed,
        "index_compile_seconds": compile_seconds,
    }
    return graph, meta, origin, queries, pairs, batch_origins


def _check_equivalence(graph, origin, queries, pairs) -> List[str]:
    """Equivalence with the oracle on this size's workloads; returns defects."""
    defects: List[str] = []
    oracle_full = compute_routes(graph, [origin])
    fast_full = compute_routes_fast(graph, [origin])
    if dict(oracle_full.items()) != dict(fast_full.items()):
        defects.append(f"full_route outcome diverges for origin {origin}")
    for src, dst in queries:
        a = compute_routes(graph, [dst], targets=frozenset((src,))).path(src)
        b = compute_routes_fast(graph, [dst], targets=frozenset((src,))).path(src)
        if a != b:
            defects.append(f"targeted_query path diverges for ({src}, {dst}): {a} != {b}")
    oracle_paths = _oracle_paths_many(graph, pairs)
    fast_paths = RoutingEngine().paths_many(graph, PathBatch.of(pairs)).mapping()
    if oracle_paths != fast_paths:
        bad = [k for k in oracle_paths if oracle_paths[k] != fast_paths[k]][:5]
        defects.append(f"paths_many diverges on {len(bad)}+ pairs, e.g. {bad}")
    return defects


def _check_batch_equivalence(graph, batch_origins) -> List[str]:
    """Bit-for-bit per-origin equivalence of the multi-origin batch kernel
    (lengths, parents, kinds; seeds at routed nodes — single-seed batch
    rows share one all-zeros seed array, never read for unrouted nodes),
    and route-for-route equivalence of every row with the oracle."""
    defects: List[str] = []
    batch = compute_routes_many(graph, [(o,) for o in batch_origins])
    for row, origin in enumerate(batch_origins):
        fast = compute_routes_fast(graph, (origin,))
        got = batch.outcome(row)
        if dict(got.items()) != dict(compute_routes(graph, [origin]).items()):
            defects.append(
                f"multi_origin row {row} (origin {origin}) diverges from the oracle"
            )
        for i in range(len(fast._plen)):
            if (
                int(got._plen[i]) != fast._plen[i]
                or int(got._parent[i]) != fast._parent[i]
                or int(got._kind[i]) != fast._kind[i]
                or (fast._plen[i] and int(got._seed[i]) != fast._seed[i])
            ):
                defects.append(
                    f"multi_origin row {row} (origin {origin}) diverges"
                    f" from compute_routes_fast at node index {i}"
                )
                break
    return defects


def run_suite(sizes: List[int], repeats: int, seed: int) -> Dict:
    results: List[Dict] = []
    defects: List[str] = []
    for num_ases in sizes:
        graph, meta, origin, queries, pairs, batch_origins = _build_world(
            num_ases, seed
        )
        size_defects = _check_equivalence(graph, origin, queries, pairs)
        size_defects += _check_batch_equivalence(graph, batch_origins)
        defects.extend(size_defects)
        for kernel_name, kernel in KERNELS.items():
            workloads = {
                "full_route": lambda k=kernel: k(graph, [origin]),
                "targeted_query": lambda k=kernel: [
                    k(graph, [dst], targets=frozenset((src,))).path(src)
                    for src, dst in queries
                ],
                "paths_many": (
                    (lambda: _oracle_paths_many(graph, pairs))
                    if kernel is compute_routes
                    else lambda: RoutingEngine().paths_many(graph, PathBatch.of(pairs))
                ),
            }
            for workload, fn in workloads.items():
                row = {
                    "graph": meta,
                    "workload": workload,
                    "kernel": kernel_name,
                    "queries": {
                        "full_route": 1,
                        "targeted_query": len(queries),
                        "paths_many": len(pairs),
                    }[workload],
                }
                row.update(_time(fn, repeats))
                results.append(row)
                print(
                    f"  n={num_ases:>6} {workload:<16} {kernel_name:<7}"
                    f" best {row['seconds_best'] * 1000:8.2f} ms"
                )
        # multi_origin pits the batch kernel against a loop of fast runs
        # (the oracle is not in this race; "fast" is the baseline).
        for impl_name, fn in (
            (
                "fast",
                lambda: [
                    compute_routes_fast(graph, (o,)) for o in batch_origins
                ],
            ),
            (
                "batch",
                lambda: compute_routes_many(
                    graph, [(o,) for o in batch_origins]
                ).outcomes(),
            ),
        ):
            row = {
                "graph": meta,
                "workload": "multi_origin",
                "kernel": impl_name,
                "queries": len(batch_origins),
            }
            row.update(_time(fn, repeats))
            results.append(row)
            print(
                f"  n={num_ases:>6} {'multi_origin':<16} {impl_name:<7}"
                f" best {row['seconds_best'] * 1000:8.2f} ms"
            )

    speedups = []
    for num_ases in sizes:
        for workload in ("full_route", "targeted_query", "paths_many"):
            pair = {
                r["kernel"]: r["seconds_best"]
                for r in results
                if r["graph"]["num_ases"] == num_ases and r["workload"] == workload
            }
            speedups.append(
                {
                    "num_ases": num_ases,
                    "workload": workload,
                    "speedup": pair["oracle"] / pair["fast"] if pair["fast"] else None,
                }
            )
        pair = {
            r["kernel"]: r["seconds_best"]
            for r in results
            if r["graph"]["num_ases"] == num_ases
            and r["workload"] == "multi_origin"
        }
        speedups.append(
            {
                "num_ases": num_ases,
                "workload": "multi_origin",
                "speedup": pair["fast"] / pair["batch"] if pair["batch"] else None,
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "kernel",
        "generated_by": "benchmarks/bench_kernel.py",
        "config": {"sizes": sizes, "repeats": repeats, "seed": seed},
        "equivalent": not defects,
        "defects": defects,
        "results": results,
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
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
        help="smallest size only, one repeat (the CI equivalence gate)",
    )
    args = parser.parse_args(argv)

    sizes = [min(args.sizes)] if args.smoke else sorted(args.sizes)
    repeats = 1 if args.smoke else args.repeats
    document = run_suite(sizes, repeats, args.seed)

    write_document(document, "BENCH_kernel.json", args.out, args.smoke)

    for entry in document["speedups"]:
        print(
            f"speedup n={entry['num_ases']:>6} {entry['workload']:<16}"
            f" {entry['speedup']:.2f}x"
        )
    if not document["equivalent"]:
        print("KERNEL DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        return 1
    largest = max(sizes)
    full = next(
        e["speedup"]
        for e in document["speedups"]
        if e["num_ases"] == largest and e["workload"] == "full_route"
    )
    if not args.smoke and full < 3.0:
        print(
            f"acceptance criterion FAILED: full_route speedup {full:.2f}x < 3x"
            f" at n={largest}",
            file=sys.stderr,
        )
        return 1
    multi = next(
        e["speedup"]
        for e in document["speedups"]
        if e["num_ases"] == largest and e["workload"] == "multi_origin"
    )
    if not args.smoke and multi < 5.0:
        print(
            f"acceptance criterion FAILED: multi_origin speedup {multi:.2f}x"
            f" < 5x at n={largest}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
