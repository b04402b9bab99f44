#!/usr/bin/env python
"""Incremental-session benchmark suite -> ``results/BENCH_incremental.json``.

Replays churn-event schedules (link fail/restore + vantage path queries,
the ``MonthTrace`` shape) against a stateful
:class:`~repro.asgraph.incremental.DynamicRoutingSession` and against a
fresh targeted :func:`compute_routes_fast` per event, at graph sizes x
churn modes, and emits a machine-readable document (see
``docs/benchmarks.md`` for the schema).  Every run also cross-checks the
session's per-event vantage paths against the fresh kernel, exiting
non-zero on any divergence; the CI smoke job runs the smallest size purely
for that gate.

Churn modes:

- ``low``   each link failure is repaired before the next one strikes (the
            dominant single-outage flap pattern; the acceptance criterion's
            5x target applies here at the largest size);
- ``high``  failures accumulate and repairs pick random old outages, so
            exclusion sets grow and restores regularly miss the undo log.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke   # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.asgraph import (  # noqa: E402
    DynamicRoutingSession,
    TopologyConfig,
    compute_routes_fast,
    generate_topology,
)
from repro.asgraph.index import graph_index  # noqa: E402

SCHEMA_VERSION = 2
DEFAULT_SIZES = [1000, 4000]
DEFAULT_EVENTS = 300
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results",
    "BENCH_incremental.json",
)


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
    graph_index(graph)  # steady state: the index is compiled once per graph
    rng = random.Random(seed)
    ases = sorted(graph.ases)
    origin = rng.choice(ases)
    vantages = rng.sample(ases, 16)
    links = sorted((frozenset((a, b)) for a, b, _rel in graph.links()), key=sorted)
    meta = {"num_ases": num_ases, "num_links": len(links), "seed": seed}
    return graph, meta, origin, vantages, links, rng


def _schedule(
    churn: str, links, num_events: int, rng: random.Random
) -> List[Tuple[str, frozenset]]:
    """A deterministic exclude/restore event schedule."""
    events: List[Tuple[str, frozenset]] = []
    if churn == "low":
        while len(events) < num_events:
            link = rng.choice(links)
            events.append(("exclude", link))
            events.append(("restore", link))
    else:
        down: List[frozenset] = []
        while len(events) < num_events:
            if down and rng.random() < 0.45:
                link = down.pop(rng.randrange(len(down)))
                events.append(("restore", link))
            else:
                link = rng.choice(links)
                if link not in down:
                    down.append(link)
                    events.append(("exclude", link))
    return events[:num_events]


def _replay_incremental(graph, origin, vantages, events) -> None:
    session = DynamicRoutingSession(graph, [origin])
    for op, link in events:
        if op == "exclude":
            session.exclude_link(link)
        else:
            session.restore_link(link)
        for v in vantages:
            session.path(v)


def _replay_full(graph, origin, vantages, events) -> None:
    targets = frozenset(vantages)
    excluded: set = set()
    for op, link in events:
        if op == "exclude":
            excluded.add(link)
        else:
            excluded.discard(link)
        outcome = compute_routes_fast(
            graph, [origin], excluded_links=frozenset(excluded), targets=targets
        )
        for v in vantages:
            outcome.path(v)


def _check_replay_equivalence(graph, origin, vantages, events) -> List[str]:
    """Per-event vantage paths: session vs fresh full compute."""
    defects: List[str] = []
    session = DynamicRoutingSession(graph, [origin])
    excluded: set = set()
    for i, (op, link) in enumerate(events):
        if op == "exclude":
            session.exclude_link(link)
            excluded.add(link)
        else:
            session.restore_link(link)
            excluded.discard(link)
        fresh = compute_routes_fast(
            graph, [origin], excluded_links=frozenset(excluded)
        )
        for v in vantages:
            got, want = session.path(v), fresh.path(v)
            if got != want:
                defects.append(
                    f"event {i} ({op} {sorted(link)}): path({v}) {got} != {want}"
                )
                if len(defects) > 5:
                    return defects
    return defects


def run_suite(sizes: List[int], num_events: int, repeats: int, seed: int) -> Dict:
    results: List[Dict] = []
    defects: List[str] = []
    for num_ases in sizes:
        for churn in ("low", "high"):
            graph, meta, origin, vantages, links, rng = _build_world(num_ases, seed)
            events = _schedule(churn, links, num_events, rng)
            defects.extend(
                _check_replay_equivalence(graph, origin, vantages, events)
            )
            for mode, fn in (
                ("incremental", lambda: _replay_incremental(graph, origin, vantages, events)),
                ("full", lambda: _replay_full(graph, origin, vantages, events)),
            ):
                row = {
                    "graph": meta,
                    "workload": "event_replay",
                    "churn": churn,
                    "mode": mode,
                    "events": len(events),
                }
                row.update(_time(fn, repeats))
                results.append(row)
                print(
                    f"  n={num_ases:>6} churn={churn:<4} {mode:<11}"
                    f" best {row['seconds_best'] * 1000:9.2f} ms"
                )

    speedups = []
    for num_ases in sizes:
        for churn in ("low", "high"):
            pair = {
                r["mode"]: r["seconds_best"]
                for r in results
                if r["graph"]["num_ases"] == num_ases and r["churn"] == churn
            }
            speedups.append(
                {
                    "num_ases": num_ases,
                    "churn": churn,
                    "speedup": pair["full"] / pair["incremental"]
                    if pair["incremental"]
                    else None,
                }
            )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "incremental",
        "generated_by": "benchmarks/bench_incremental.py",
        "config": {
            "sizes": sizes,
            "events": num_events,
            "repeats": repeats,
            "seed": seed,
        },
        "equivalent": not defects,
        "defects": defects,
        "results": results,
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest size, fewer events, one repeat (the CI equivalence gate)",
    )
    args = parser.parse_args(argv)

    sizes = [min(args.sizes)] if args.smoke else sorted(args.sizes)
    num_events = min(args.events, 80) if args.smoke else args.events
    repeats = 1 if args.smoke else args.repeats
    document = run_suite(sizes, num_events, repeats, args.seed)

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    for entry in document["speedups"]:
        print(
            f"speedup n={entry['num_ases']:>6} churn={entry['churn']:<4}"
            f" {entry['speedup']:.2f}x"
        )
    if not document["equivalent"]:
        print("INCREMENTAL DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        return 1
    largest = max(sizes)
    low = next(
        e["speedup"]
        for e in document["speedups"]
        if e["num_ases"] == largest and e["churn"] == "low"
    )
    if not args.smoke and low < 5.0:
        print(
            f"acceptance criterion FAILED: low-churn event-replay speedup"
            f" {low:.2f}x < 5x at n={largest}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
