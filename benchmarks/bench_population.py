#!/usr/bin/env python
"""Tracked population-kernel benchmark -> ``results/BENCH_population.json``.

Races the struct-of-arrays population kernel
(:mod:`repro.core.population`) against the per-user pure-python
reference in ``tests/oracle/population.py``, gates bit-for-bit
equivalence with that reference across shardings and for the
``simulate_user_population`` wrapper, and records the headline
population-scale number: 1M users x a month of relay churn end-to-end on
one machine, with throughput in user-days/sec (see
``docs/benchmarks.md`` for the schema).

Workloads:

- ``reference_loop``  the per-user reference at the race size — the
                      baseline the 10x criterion applies to;
- ``soa_vector``      the numpy struct-of-arrays kernel, same inputs;
- ``scale_month``     1M users x 30 days of churn (full mode only).

Usage::

    PYTHONPATH=src python benchmarks/bench_population.py          # full
    PYTHONPATH=src python benchmarks/bench_population.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.core.population import simulate_population  # noqa: E402
from repro.core.usermetrics import simulate_user_population  # noqa: E402
from repro.scenario import Scenario, ScenarioConfig  # noqa: E402
from repro.tor.churn import ChurnConfig, evolve_consensus  # noqa: E402
from repro.tor.clientdist import ClientASDistribution  # noqa: E402
from tests.oracle.population import loop_tier  # noqa: E402

SCHEMA_VERSION = 2
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results",
    "BENCH_population.json",
)
RACE_USERS = 50_000
SCALE_USERS = 1_000_000
SCALE_DAYS = 30
EQUIV_USERS = 600


def _build_world(seed: int):
    scenario = Scenario(ScenarioConfig.small(seed=seed))
    client_pool = scenario.client_ases(40)
    dests = scenario.destination_ases(6)
    adversaries = frozenset(
        {scenario.adversary_as()}
        | set(sorted(scenario.graph.tier1_ases())[:2])
    )
    return scenario, client_pool, dests, adversaries


def _simulate(scenario, consensus, clients, dests, adversaries, **kwargs):
    """One run of the shipped kernel."""
    return simulate_population(
        scenario.graph,
        consensus,
        scenario.relay_asn,
        clients,
        dests,
        adversaries,
        engine=scenario.engine,
        **kwargs,
    )


def _simulate_reference(*args, **kwargs):
    """One run of the per-user reference, in this process."""
    with loop_tier():
        return _simulate(*args, **kwargs)


def _percentile_fingerprint(report) -> Dict[str, object]:
    """The aggregate-percentile surface the equivalence gate compares."""
    return {
        "curve": report.fraction_compromised_by_day(),
        "fraction": report.fraction_compromised,
        "median": report.median_days_to_compromise(),
        "ttc": [
            report.time_to_compromise_percentile(q)
            for q in (0.1, 0.25, 0.5, 0.75, 0.9)
        ],
        "rate": [
            report.compromise_rate_percentile(q)
            for q in (0.1, 0.25, 0.5, 0.75, 0.9)
        ],
        "first_day_hist": list(report.aggregate.first_day_hist),
        "comp_count_hist": list(report.aggregate.comp_count_hist),
    }


def _check_equivalence(scenario, client_pool, dests, adversaries, days, seed) -> List[str]:
    """SoA == per-user reference at small N, bit for bit."""
    defects: List[str] = []
    roster = [client_pool[i % len(client_pool)] for i in range(EQUIV_USERS)]
    kwargs = dict(days=days, circuits_per_day=6, seed=seed, keep_outcomes=True)
    reference = _simulate_reference(
        scenario, scenario.consensus, roster, dests, adversaries, **kwargs
    )
    for label, report in (
        (
            "sharded vector run (2 jobs)",
            _simulate(
                scenario, scenario.consensus, roster, dests, adversaries,
                block_size=101, jobs=2, **kwargs
            ),
        ),
        (
            "vector run",
            _simulate(
                scenario, scenario.consensus, roster, dests, adversaries,
                block_size=77, **kwargs
            ),
        ),
    ):
        if report.outcomes != reference.outcomes:
            defects.append(
                f"{label}'s per-user first-compromise days diverge from the "
                "per-user reference"
            )
        if _percentile_fingerprint(report) != _percentile_fingerprint(reference):
            defects.append(
                f"{label}'s aggregate percentiles diverge from the per-user "
                "reference"
            )
    wrapper = simulate_user_population(
        scenario.graph, scenario.consensus, scenario.relay_asn,
        roster, dests, adversaries,
        days=days, circuits_per_day=6, seed=seed, engine=scenario.engine,
    )
    if wrapper.outcomes != reference.outcomes:
        defects.append(
            "simulate_user_population wrapper diverges from the per-user "
            "reference"
        )
    dist = ClientASDistribution.zipf(client_pool, exponent=1.0)
    skew_kwargs = dict(kwargs, num_users=EQUIV_USERS)
    skew_reference = _simulate_reference(
        scenario, scenario.consensus, dist, dests, adversaries, **skew_kwargs
    )
    skew_vector = _simulate(
        scenario, scenario.consensus, dist, dests, adversaries,
        block_size=53, **skew_kwargs
    )
    if skew_vector.outcomes != skew_reference.outcomes:
        defects.append("skewed-roster run diverges from the per-user reference")
    return defects


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_suite(smoke: bool, seed: int) -> Dict:
    scenario, client_pool, dests, adversaries = _build_world(seed)
    race_days = 5 if smoke else SCALE_DAYS
    equiv_days = 6 if smoke else 10
    results: List[Dict] = []

    print(f"equivalence gate: {EQUIV_USERS} users x {equiv_days} days ...")
    defects = _check_equivalence(
        scenario, client_pool, dests, adversaries, equiv_days, seed
    )

    dist = ClientASDistribution.zipf(client_pool, exponent=1.0)
    race_kwargs = dict(
        num_users=RACE_USERS, days=race_days, circuits_per_day=6,
        seed=seed, keep_outcomes=False,
    )
    print(f"racing {RACE_USERS} users x {race_days} days, per-user reference ...")
    loop_report, loop_seconds = _timed(
        lambda: _simulate_reference(
            scenario, scenario.consensus, dist, dests, adversaries,
            **race_kwargs
        )
    )
    results.append({
        "workload": "reference_loop",
        "users": RACE_USERS,
        "days": race_days,
        "seconds": loop_seconds,
        "user_days_per_sec": RACE_USERS * race_days / loop_seconds,
        "fraction_compromised": loop_report.fraction_compromised,
    })
    print(
        f"  loop   {loop_seconds:8.2f} s"
        f"  ({RACE_USERS * race_days / loop_seconds:12,.0f} user-days/sec)"
    )

    vector_report, vector_seconds = _timed(
        lambda: _simulate(
            scenario, scenario.consensus, dist, dests, adversaries,
            **race_kwargs
        )
    )
    results.append({
        "workload": "soa_vector",
        "users": RACE_USERS,
        "days": race_days,
        "seconds": vector_seconds,
        "user_days_per_sec": RACE_USERS * race_days / vector_seconds,
        "fraction_compromised": vector_report.fraction_compromised,
    })
    print(
        f"  vector {vector_seconds:8.2f} s"
        f"  ({RACE_USERS * race_days / vector_seconds:12,.0f} user-days/sec)"
    )
    if vector_report.aggregate != loop_report.aggregate:
        defects.append(
            f"race aggregates diverge from the per-user reference at "
            f"{RACE_USERS} users"
        )
    speedup = loop_seconds / vector_seconds if vector_seconds else None

    if not smoke:
        print(
            f"scale workload: {SCALE_USERS} users x {SCALE_DAYS} days of "
            "relay churn ..."
        )
        series = evolve_consensus(
            scenario.consensus, SCALE_DAYS, ChurnConfig(seed=seed)
        )
        scale_report, scale_seconds = _timed(
            lambda: _simulate(
                scenario, series, dist, dests, adversaries,
                num_users=SCALE_USERS, days=SCALE_DAYS, circuits_per_day=6,
                seed=seed, keep_outcomes=False,
            )
        )
        results.append({
            "workload": "scale_month",
            "users": SCALE_USERS,
            "days": SCALE_DAYS,
            "churn": True,
            "seconds": scale_seconds,
            "user_days_per_sec": SCALE_USERS * SCALE_DAYS / scale_seconds,
            "fraction_compromised": scale_report.fraction_compromised,
            "median_days": scale_report.median_days_to_compromise(),
        })
        print(
            f"  scale  {scale_seconds:8.2f} s"
            f"  ({SCALE_USERS * SCALE_DAYS / scale_seconds:12,.0f} user-days/sec)"
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "population",
        "generated_by": "benchmarks/bench_population.py",
        "config": {
            "seed": seed,
            "smoke": smoke,
            "equiv_users": EQUIV_USERS,
            "race_users": RACE_USERS,
            "race_days": race_days,
            "scale_users": None if smoke else SCALE_USERS,
            "scale_days": None if smoke else SCALE_DAYS,
        },
        "equivalent": not defects,
        "defects": defects,
        "results": results,
        "speedups": [
            {
                "workload": "population_race",
                "users": RACE_USERS,
                "days": race_days,
                "speedup": speedup,
            }
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI gate: equivalence + the 50k-user race at reduced days, "
             "no 1M scale workload",
    )
    args = parser.parse_args(argv)

    document = run_suite(args.smoke, args.seed)

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not document["equivalent"]:
        print("POPULATION KERNEL DIVERGENCE DETECTED:", file=sys.stderr)
        for defect in document["defects"]:
            print(f"  - {defect}", file=sys.stderr)
        return 1
    speedup = document["speedups"][0]["speedup"]
    if speedup is not None:
        print(
            f"speedup vector vs per-user reference at {RACE_USERS} users: "
            f"{speedup:.2f}x"
        )
    if speedup is None or speedup < 10.0:
        print(
            f"acceptance criterion FAILED: SoA speedup "
            f"{speedup if speedup is not None else 0:.2f}x < 10x at "
            f"{RACE_USERS} users",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
