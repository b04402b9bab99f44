"""E13 (extension) — user-level metrics (the Johnson et al. lens).

The related work §6 credits Johnson et al. with "user-understandable
metrics for anonymity"; applied to this paper's AS-level adversary, the
question becomes: over a month of normal Tor use, what fraction of users
has at least one circuit whose both ends a colluding AS pair can observe
— and how fast?  The asymmetric (EITHER-direction) observation model of
§3.3 is compared against the conventional forward-only model to price the
TCP-ACK side channel in user terms.
"""

import pytest

from benchmarks._report import report
from repro.core.population import simulate_population
from repro.core.surveillance import ObservationMode

DAYS = 31
CIRCUITS_PER_DAY = 6


def test_e13_time_to_first_compromise(benchmark, paper_scenario):
    clients = paper_scenario.client_ases(20)
    dests = paper_scenario.destination_ases(8)
    adversaries = {0, paper_scenario.adversary_as()}  # tier-1 + transit colluding

    def run():
        either = simulate_population(
            paper_scenario.graph,
            paper_scenario.consensus,
            paper_scenario.relay_asn,
            clients,
            dests,
            adversaries,
            days=DAYS,
            circuits_per_day=CIRCUITS_PER_DAY,
            mode=ObservationMode.EITHER,
            seed=1,
            keep_outcomes=True,
        )
        forward = simulate_population(
            paper_scenario.graph,
            paper_scenario.consensus,
            paper_scenario.relay_asn,
            clients,
            dests,
            adversaries,
            days=DAYS,
            circuits_per_day=CIRCUITS_PER_DAY,
            mode=ObservationMode.FORWARD,
            seed=1,
            keep_outcomes=True,
        )
        return either, forward

    either, forward = benchmark.pedantic(run, rounds=1, iterations=1)

    curve = either.fraction_compromised_by_day()
    median = either.median_days_to_compromise()
    lines = [
        f"population: {len(clients)} clients x {DAYS} days x "
        f"{CIRCUITS_PER_DAY} circuits/day; adversary: ASes {sorted(adversaries)}",
        "",
        "day    fraction of users compromised (EITHER mode)",
    ] + [f"{d:4d}   {curve[d-1]:6.1%}" for d in (1, 3, 7, 14, 21, 31)]
    lines += [
        "",
        f"users compromised within the month (asymmetric obs): "
        f"{either.fraction_compromised:.0%}",
        f"users compromised within the month (forward-only):   "
        f"{forward.fraction_compromised:.0%}",
        f"median days to first compromise: "
        + (f"{median:.0f}" if median is not None else ">31 (under half hit)"),
        f"per-circuit compromise rate: {either.mean_circuit_compromise_rate:.2%}",
    ]
    report("E13_usermetrics", lines)

    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert either.fraction_compromised >= forward.fraction_compromised
    assert either.fraction_compromised > 0, "adversary never saw anything"
