#!/usr/bin/env python
"""Serving-tier benchmark suite -> ``results/BENCH_serve.json``.

Starts a :class:`~repro.serve.daemon.RoutingDaemon` on an ephemeral port
and measures the unified query API over the wire (see
``docs/benchmarks.md`` for the document schema):

- **cold vs warm throughput** — the same batch workload answered by an
  empty result cache (engine computes every answer) and again once every
  answer is cached; the acceptance criterion requires warm >= 5x cold;
- **latency under concurrency** — per-request p50/p99 for 1, 4, and 16
  concurrent clients hammering single-query batches against a warm cache;
- **bit-identical gate** — every daemon response is compared, in wire
  form, against a direct in-process :class:`QueryFacade` call; any
  divergence fails the run (this is the acceptance criterion the CI
  serve-smoke job also enforces);
- **churn workload** — interleaved ``apply-events`` batches and query
  batches against the live daemon (the
  :class:`~repro.asgraph.routecache.LiveRoutes` path, epoch by epoch)
  versus a cold facade rebuilt per epoch on a fresh engine with that
  epoch's exclusion set; warm must be >= 5x cold and every epoch's
  responses must be bit-identical to the cold recompute.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI gate

A full run writes ``results/BENCH_serve.json`` unless ``--out`` says
otherwise; a ``--smoke`` run leaves it alone and writes its document only
to an explicit ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import sys
import threading
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.asgraph import RoutingEngine, TopologyConfig, generate_topology  # noqa: E402
from repro.serve.api import (  # noqa: E402
    BatchRequest,
    ExposureQuery,
    HijackQuery,
    PathQuery,
    QueryError,
    encode,
)
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.daemon import RoutingDaemon, ServeConfig  # noqa: E402
from repro.serve.facade import QueryFacade  # noqa: E402
from _report import write_document  # noqa: E402

SCHEMA_VERSION = 3


class DaemonHandle:
    """A daemon on a background thread; ``stop()`` shuts it down cleanly."""

    def __init__(
        self,
        graph,
        cache_entries: int = ServeConfig.cache_entries,
        pool_entries: int = ServeConfig.pool_entries,
    ) -> None:
        self.daemon = RoutingDaemon(
            graph,
            engine=RoutingEngine(),
            config=ServeConfig(
                port=0, cache_entries=cache_entries, pool_entries=pool_entries
            ),
        )
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.host = self.port = None

    def _run(self) -> None:
        async def main() -> None:
            self.host, self.port = await self.daemon.start()
            self._started.set()
            await self.daemon.wait_stopped()

        asyncio.run(main())

    def start(self) -> "DaemonHandle":
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("daemon failed to start")
        return self

    def connect(self) -> ServeClient:
        return ServeClient.connect(self.host, self.port)

    def stop(self) -> None:
        try:
            with self.connect() as client:
                client.shutdown()
        except (ConnectionError, OSError):
            pass
        self._thread.join(30)


def _build_world(num_ases: int, seed: int):
    graph = generate_topology(
        TopologyConfig(
            num_ases=num_ases,
            num_tier1=max(4, num_ases // 125),
            num_tier2=max(15, num_ases // 10),
            seed=seed,
        )
    )
    return graph


def _workload(graph, num_queries: int, seed: int) -> List[object]:
    """A deterministic mixed-kind query list (~60/20/20 path/hijack/exposure)."""
    rng = random.Random(seed)
    ases = sorted(graph.ases)
    queries: List[object] = []
    while len(queries) < num_queries:
        roll = rng.random()
        if roll < 0.6:
            src, dst = rng.sample(ases, 2)
            queries.append(PathQuery(src=src, dst=dst))
        elif roll < 0.8:
            victim, attacker, client = rng.sample(ases, 3)
            queries.append(
                HijackQuery(victim=victim, attacker=attacker, clients=(client,))
            )
        else:
            client, guard, exit_asn, dest, adv = rng.sample(ases, 5)
            queries.append(
                ExposureQuery(
                    client=client,
                    guard=guard,
                    exit=exit_asn,
                    dest=dest,
                    adversaries=(adv,),
                )
            )
    return queries


def _chunks(items: List[object], size: int) -> List[Tuple[object, ...]]:
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]


def _run_batches(client: ServeClient, batches) -> List[object]:
    results: List[object] = []
    for i, chunk in enumerate(batches):
        response = client.batch(chunk, request_id=f"bench-{i}")
        results.extend(response.results)
    return results


def _throughput(handle: DaemonHandle, batches, num_queries: int) -> Dict[str, Dict]:
    """Cold pass then warm pass over the same batches, one connection each."""
    out: Dict[str, Dict] = {}
    remote: List[object] = []
    for phase in ("cold", "warm"):
        with handle.connect() as client:
            t0 = time.perf_counter()
            results = _run_batches(client, batches)
            elapsed = time.perf_counter() - t0
        if phase == "cold":
            remote = results
        out[phase] = {
            "seconds": elapsed,
            "queries": num_queries,
            "qps": num_queries / elapsed if elapsed else None,
        }
    out["remote_results"] = remote
    return out


def _bit_identical_gate(graph, queries, remote_results) -> List[str]:
    """Daemon answers must equal a direct facade's, in wire form."""
    facade = QueryFacade(graph, engine=RoutingEngine())
    defects: List[str] = []
    local = []
    for chunk in _chunks(list(queries), 32):
        local.extend(facade.execute_batch(BatchRequest(queries=chunk)).results)
    for i, (mine, theirs) in enumerate(zip(local, remote_results)):
        if encode(mine) != encode(theirs):
            defects.append(
                f"query {i}: daemon={encode(theirs)} facade={encode(mine)}"
            )
            if len(defects) > 5:
                break
    if len(local) != len(remote_results):
        defects.append(
            f"result count mismatch: facade {len(local)}, daemon {len(remote_results)}"
        )
    return defects


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _latency_under_concurrency(
    handle: DaemonHandle, queries, clients: int, requests_per_client: int
) -> Dict:
    """Warm-cache single-query batches from ``clients`` threads at once."""
    lock = threading.Lock()
    latencies: List[float] = []
    failures: List[str] = []
    start_barrier = threading.Barrier(clients)

    def worker(worker_id: int) -> None:
        rng = random.Random(1000 + worker_id)
        try:
            with handle.connect() as client:
                start_barrier.wait(timeout=30)
                for _ in range(requests_per_client):
                    query = rng.choice(queries)
                    t0 = time.perf_counter()
                    client.batch((query,))
                    dt = time.perf_counter() - t0
                    with lock:
                        latencies.append(dt)
        except Exception as exc:  # noqa: BLE001 — reported in the document
            with lock:
                failures.append(f"client {worker_id}: {exc!r}")

    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return {
        "clients": clients,
        "requests": len(latencies),
        "failures": failures,
        "qps": len(latencies) / elapsed if elapsed else None,
        "p50_ms": _percentile(latencies, 0.50) * 1000 if latencies else None,
        "p99_ms": _percentile(latencies, 0.99) * 1000 if latencies else None,
    }


def _core_links(graph, count: int, seed: int) -> List[Tuple[int, int]]:
    """Deterministic sample of well-connected links (churn that bites).

    Random links on a large topology are mostly stub tails whose failure
    repairs nothing; sampling among the best-connected endpoint pairs
    makes each epoch's event batch actually move routes.
    """
    degree = {asn: len(graph.neighbours(asn)) for asn in graph.ases}
    links = sorted(
        (tuple(sorted((a, b))) for a, b, _r in graph.links()),
        key=lambda l: (-(min(degree[l[0]], degree[l[1]])), l),
    )
    pool_size = max(count, len(links) // 10)
    rng = random.Random(seed)
    return rng.sample(links[:pool_size], min(count, pool_size))


def run_churn_suite(
    num_ases: int,
    num_queries: int,
    batch_size: int,
    num_epochs: int,
    seed: int,
) -> Dict:
    """Interleaved churn + queries: live route cache vs per-epoch cold.

    Epoch ``i`` fails core link ``i`` and restores link ``i - 1``, then
    answers the same mixed workload.  The warm side is the serving
    configuration — ``apply_events`` + live route trees + epoch-versioned
    cache; the cold side rebuilds a facade on a fresh engine with the
    epoch's exclusion set and recomputes everything.  Both sides are
    timed in-process through the same ``QueryFacade`` execution path, so
    the ratio measures the live routes, not JSON framing.  A live daemon
    rides along (untimed) answering the same events and batches over the
    wire; its responses must match the cold recompute at every epoch —
    the bit-identical acceptance gate.

    The route cache is sized to hold the workload's distinct-origin
    working set and warmed with one untimed pass first — this measures
    steady-state serving under churn, not the one-off tree builds (which
    the main suite's cold pass already covers).
    """
    from repro.asgraph.routecache import LiveRoutes
    from repro.serve.facade import ResultCache

    graph = _build_world(num_ases, seed)
    queries = _workload(graph, num_queries, seed + 1)
    batches = _chunks(queries, batch_size)
    links = _core_links(graph, num_epochs, seed + 2)

    live = LiveRoutes(graph, cap=8 * num_queries)
    warm = QueryFacade(
        graph, engine=RoutingEngine(), cache=ResultCache(), live=live
    )
    for chunk in batches:  # warm the route trees + cache, untimed
        warm.execute_batch(BatchRequest(queries=chunk))

    epochs: List[Dict] = []
    defects: List[str] = []
    warm_total = 0.0
    cold_total = 0.0
    handle = DaemonHandle(graph, pool_entries=8 * num_queries).start()
    try:
        print(f"  churn daemon on {handle.host}:{handle.port}, n={num_ases}")
        with handle.connect() as client:
            _run_batches(client, batches)  # warm the daemon's trees too
            excluded: set = set()
            for i in range(num_epochs):
                events = [("down", links[i])]
                if i > 0:
                    events.append(("up", links[i - 1]))
                excluded.add(frozenset(links[i]))
                if i > 0:
                    excluded.discard(frozenset(links[i - 1]))

                t0 = time.perf_counter()
                report = warm.apply_events(events)
                warm_results: List[object] = []
                for chunk in batches:
                    warm_results.extend(
                        warm.execute_batch(BatchRequest(queries=chunk)).results
                    )
                warm_seconds = time.perf_counter() - t0

                t0 = time.perf_counter()
                cold = QueryFacade(
                    graph, engine=RoutingEngine(), excluded_links=excluded
                )
                cold_results: List[object] = []
                for chunk in batches:
                    cold_results.extend(
                        cold.execute_batch(BatchRequest(queries=chunk)).results
                    )
                cold_seconds = time.perf_counter() - t0

                # the live daemon sees the same epoch, untimed
                wire_report = client.apply_events(events)
                wire_results = _run_batches(client, batches)
                wire_excluded = sorted(sorted(link) for link in excluded)
                if wire_report["excluded"] != wire_excluded:
                    defects.append(
                        f"epoch {wire_report['epoch']}: daemon exclusion set "
                        f"{wire_report['excluded']} != expected {wire_excluded}"
                    )
                for j, (served, reference) in enumerate(
                    zip(warm_results, cold_results)
                ):
                    if encode(served) != encode(reference):
                        defects.append(
                            f"epoch {report.epoch} query {j}: "
                            f"live={encode(served)} cold={encode(reference)}"
                        )
                        if len(defects) > 5:
                            break
                for j, (theirs, reference) in enumerate(
                    zip(wire_results, cold_results)
                ):
                    if encode(theirs) != encode(reference):
                        defects.append(
                            f"epoch {report.epoch} query {j}: "
                            f"daemon={encode(theirs)} cold={encode(reference)}"
                        )
                        if len(defects) > 5:
                            break

                warm_total += warm_seconds
                cold_total += cold_seconds
                epochs.append(
                    {
                        "epoch": report.epoch,
                        "events": report.events,
                        "repaired": len(report.repaired_keys),
                        "proven": len(report.proven_keys),
                        "invalidated": report.invalidated,
                        "warm_seconds": warm_seconds,
                        "cold_seconds": cold_seconds,
                    }
                )
                print(
                    f"  epoch {report.epoch}: warm {warm_seconds:.3f}s"
                    f"  cold {cold_seconds:.3f}s"
                    f"  (repaired {len(report.repaired_keys)},"
                    f" proven {len(report.proven_keys)},"
                    f" invalidated {report.invalidated})"
                )
    finally:
        handle.stop()

    stats = live.stats()
    speedup = cold_total / warm_total if warm_total else None
    return {
        "config": {
            "num_ases": num_ases,
            "num_queries": num_queries,
            "batch_size": batch_size,
            "num_epochs": num_epochs,
            "seed": seed,
        },
        "bit_identical": not defects,
        "defects": defects,
        "warm_seconds": warm_total,
        "cold_seconds": cold_total,
        "speedup": speedup,
        "epochs": epochs,
        "routes": {
            "epoch": stats.epoch,
            "trees": stats.trees,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "repairs": stats.repairs,
            "excluded": sorted(
                sorted(link) for link in live.excluded_links
            ),
        },
    }


def run_suite(
    num_ases: int,
    num_queries: int,
    batch_size: int,
    concurrency_levels: List[int],
    requests_per_client: int,
    seed: int,
) -> Dict:
    graph = _build_world(num_ases, seed)
    queries = _workload(graph, num_queries, seed + 1)
    batches = _chunks(queries, batch_size)

    handle = DaemonHandle(graph).start()
    try:
        print(f"  daemon on {handle.host}:{handle.port}, n={num_ases}")
        throughput = _throughput(handle, batches, num_queries)
        remote_results = throughput.pop("remote_results")
        for phase in ("cold", "warm"):
            row = throughput[phase]
            print(f"  {phase:<4} {row['qps']:10.1f} qps ({row['seconds']:.3f}s)")

        defects = _bit_identical_gate(graph, queries, remote_results)
        errored = sum(1 for r in remote_results if isinstance(r, QueryError))

        latency = []
        for clients in concurrency_levels:
            row = _latency_under_concurrency(
                handle, queries, clients, requests_per_client
            )
            defects.extend(row["failures"])
            latency.append(row)
            print(
                f"  {clients:>3} client(s): p50 {row['p50_ms']:7.3f} ms"
                f"  p99 {row['p99_ms']:7.3f} ms  {row['qps']:8.1f} qps"
            )
    finally:
        handle.stop()

    warm_speedup = (
        throughput["warm"]["qps"] / throughput["cold"]["qps"]
        if throughput["cold"]["qps"]
        else None
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "serve",
        "generated_by": "benchmarks/bench_serve.py",
        "config": {
            "num_ases": num_ases,
            "num_queries": num_queries,
            "batch_size": batch_size,
            "concurrency_levels": concurrency_levels,
            "requests_per_client": requests_per_client,
            "seed": seed,
        },
        "bit_identical": not defects,
        "defects": defects,
        "query_errors": errored,
        "throughput": {
            "cold": throughput["cold"],
            "warm": throughput["warm"],
            "warm_speedup": warm_speedup,
        },
        "latency": latency,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-ases", type=int, default=500)
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--clients", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--requests-per-client", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        help="where to write the JSON document; a full run defaults to "
             "results/, a --smoke run writes only to an explicit --out",
    )
    parser.add_argument(
        "--churn-ases", type=int, default=4000,
        help="world size for the churn workload (the n=4000 gate)",
    )
    parser.add_argument("--churn-epochs", type=int, default=6)
    parser.add_argument("--churn-queries", type=int, default=256)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small world, short workload (the CI bit-identical gate)",
    )
    args = parser.parse_args(argv)

    num_ases = min(args.num_ases, 120) if args.smoke else args.num_ases
    num_queries = min(args.queries, 64) if args.smoke else args.queries
    clients = [c for c in args.clients if c <= 4] if args.smoke else args.clients
    requests = min(args.requests_per_client, 10) if args.smoke else args.requests_per_client
    churn_ases = min(args.churn_ases, 120) if args.smoke else args.churn_ases
    churn_epochs = min(args.churn_epochs, 3) if args.smoke else args.churn_epochs
    churn_queries = min(args.churn_queries, 32) if args.smoke else args.churn_queries

    document = run_suite(
        num_ases, num_queries, args.batch_size, clients, requests, args.seed
    )
    document["churn"] = run_churn_suite(
        churn_ases, churn_queries, args.batch_size, churn_epochs, args.seed
    )

    write_document(document, "BENCH_serve.json", args.out, args.smoke)

    failed = False
    if not document["bit_identical"]:
        print("DAEMON/FACADE DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        failed = True
    if not document["churn"]["bit_identical"]:
        print("CHURN EPOCH DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["churn"]["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    speedup = document["throughput"]["warm_speedup"]
    print(f"warm vs cold: {speedup:.2f}x")
    churn_speedup = document["churn"]["speedup"]
    print(f"churn live routes vs cold recompute: {churn_speedup:.2f}x")
    if not args.smoke and speedup < 5.0:
        print(
            f"acceptance criterion FAILED: warm-cache throughput"
            f" {speedup:.2f}x < 5x cold",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and churn_speedup < 5.0:
        print(
            f"acceptance criterion FAILED: churn workload live routes"
            f" {churn_speedup:.2f}x < 5x cold recompute",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
