"""User-understandable anonymity metrics (Johnson et al., CCS 2013).

The paper's related work singles out "Users get routed": instead of
per-circuit probabilities, report what a *user* experiences — how long
until the first compromised circuit, and what fraction of users are
compromised within an observation window.  §3.1's point sharpens in these
terms: guard pinning was meant to stretch the time-to-first-compromise,
but AS-level adversaries sit under the guard and get re-rolled by BGP
every time the user builds a circuit.

:func:`simulate_user_population` is the small-population reference path:
it keeps its historical signature and report shape but delegates to the
struct-of-arrays kernel in :mod:`repro.core.population` (with per-user
``outcomes`` always retained), so the same seed gives the same per-user
first-compromise days as a direct :func:`simulate_population` call at
any scale or sharding.  The relay-level per-user-object sweep
(:func:`user_population_spec`) is kept as the legacy path for
consumers that need relay-granular circuit construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.population import (
    PopulationReport,
    UserOutcome,
    simulate_population,
)
from repro.core.surveillance import ObservationMode, SurveillanceModel
from repro.runner import ExperimentSpec, TransientFields, Trial, run_experiment
from repro.tor.client import TorClient
from repro.tor.consensus import Consensus

__all__ = [
    "UserOutcome",
    "PopulationReport",
    "simulate_user_population",
    "user_population_spec",
]

_DAY = 86_400.0


@dataclass(frozen=True)
class _UserContext(TransientFields):
    """Shared world for per-client user-month trials (legacy path).

    ``relay_asns`` is the relay→AS mapping materialised as a plain dict
    (callables bound to live scenarios would not pickle); ``engine`` is
    process-local and rebuilt from :func:`shared_engine` in workers.
    """

    graph: object
    consensus: Consensus
    relay_asns: Dict[str, int]
    destination_asns: Tuple[int, ...]
    adversaries: frozenset
    days: int
    circuits_per_day: int
    mode: ObservationMode
    root_seed: int
    num_guards: int
    engine: object = None

    _transient = ("engine",)


def _user_month_trial(ctx: _UserContext, trial: Trial) -> UserOutcome:
    """One user's month of circuits against the colluding adversary.

    Destination draws come from ``trial.rng()`` — a fresh per-trial
    generator — so a client's destinations are independent of every
    other client and of how the sweep is sharded.
    """
    client_asn = trial.params
    model = SurveillanceModel(ctx.graph, engine=ctx.engine)
    dest_rng = trial.rng()
    client = TorClient(
        client_asn,
        ctx.consensus,
        rng=random.Random(ctx.root_seed * 100_003 + client_asn),
        num_guards=ctx.num_guards,
    )
    built = hit = 0
    first_day: Optional[int] = None
    for day in range(1, ctx.days + 1):
        now = (day - 1) * _DAY
        for _ in range(ctx.circuits_per_day):
            circuit = client.build_circuit(now)
            if circuit is None:
                continue
            built += 1
            dest = dest_rng.choice(ctx.destination_asns)
            compromised = model.compromised_by(
                ctx.adversaries,
                client_asn,
                ctx.relay_asns[circuit.guard.fingerprint],
                ctx.relay_asns[circuit.exit.fingerprint],
                dest,
                ctx.mode,
            )
            if compromised:
                hit += 1
                if first_day is None:
                    first_day = day
    return UserOutcome(
        client_asn=client_asn,
        circuits_built=built,
        compromised_circuits=hit,
        first_compromise_day=first_day,
    )


def _encode_outcome(outcome: UserOutcome) -> dict:
    return {
        "client_asn": outcome.client_asn,
        "circuits_built": outcome.circuits_built,
        "compromised_circuits": outcome.compromised_circuits,
        "first_compromise_day": outcome.first_compromise_day,
    }


def _decode_outcome(encoded: dict) -> UserOutcome:
    return UserOutcome(**encoded)


def user_population_spec(
    graph,
    consensus: Consensus,
    relay_asn: Callable[[str], int],
    client_asns: Sequence[int],
    destination_asns: Sequence[int],
    adversaries: Iterable[int],
    days: int = 31,
    circuits_per_day: int = 6,
    mode: ObservationMode = ObservationMode.EITHER,
    seed: int = 0,
    num_guards: int = 3,
    *,
    engine=None,
) -> ExperimentSpec:
    """The legacy relay-level sweep as a runner experiment: one trial per
    client, each building circuits through concrete relays.  ``relay_asn``
    is evaluated over the consensus here so the shipped context carries a
    plain dict instead of a callable."""
    relay_asns = {
        relay.fingerprint: relay_asn(relay.fingerprint)
        for relay in consensus.relays
    }
    return ExperimentSpec(
        name="user-population",
        seed=seed,
        trial_fn=_user_month_trial,
        trials=tuple(
            (f"client-{i}-{asn}", asn) for i, asn in enumerate(client_asns)
        ),
        context=_UserContext(
            graph=graph,
            consensus=consensus,
            relay_asns=relay_asns,
            destination_asns=tuple(destination_asns),
            adversaries=frozenset(adversaries),
            days=days,
            circuits_per_day=circuits_per_day,
            mode=mode,
            root_seed=seed,
            num_guards=num_guards,
            engine=engine,
        ),
        params={
            "clients": len(client_asns),
            "days": days,
            "circuits_per_day": circuits_per_day,
            "mode": mode.value,
        },
        encode_result=_encode_outcome,
        decode_result=_decode_outcome,
    )


def simulate_user_population(
    graph,
    consensus: Consensus,
    relay_asn: Callable[[str], int],
    client_asns: Sequence[int],
    destination_asns: Sequence[int],
    adversaries: Iterable[int],
    days: int = 31,
    circuits_per_day: int = 6,
    mode: ObservationMode = ObservationMode.EITHER,
    seed: int = 0,
    num_guards: int = 3,
    *,
    engine=None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> PopulationReport:
    """Run the month for every client; returns the population report.

    Each client keeps a persistent guard set (rotating on Tor's schedule)
    and builds ``circuits_per_day`` circuits to random monitored
    destinations; a circuit is compromised when some colluding adversary
    AS observes both of its end segments under ``mode``.

    This is the reference wrapper over
    :func:`repro.core.population.simulate_population`: the explicit
    client roster maps one user per entry, per-user ``outcomes`` are
    always retained, and results are bit-identical to a direct kernel
    call with the same arguments — at any ``jobs`` value or block size.

    ``engine`` (keyword-only) is the
    :class:`~repro.asgraph.engine.RoutingEngine` the underlying
    :class:`SurveillanceModel` routes through; default the shared one.
    """
    if days < 1 or circuits_per_day < 1:
        raise ValueError("days and circuits_per_day must be positive")
    if not client_asns or not destination_asns:
        raise ValueError("need clients and destinations")
    adversary_set = frozenset(adversaries)
    if not adversary_set:
        raise ValueError("need at least one adversary AS")

    with obs.span(
        "users.simulate",
        clients=len(client_asns),
        days=days,
        circuits_per_day=circuits_per_day,
    ) as sim_span:
        report = simulate_population(
            graph,
            consensus,
            relay_asn,
            tuple(client_asns),
            destination_asns,
            adversary_set,
            days=days,
            circuits_per_day=circuits_per_day,
            num_guards=num_guards,
            mode=mode,
            seed=seed,
            keep_outcomes=True,
            engine=engine,
            jobs=jobs,
            checkpoint=checkpoint,
            resume=resume,
        )
        aggregate = report.aggregate
        sim_span.set(
            circuits_built=aggregate.circuits_built,
            compromised=aggregate.compromised_circuits,
        )
        obs.add("users.circuits_built", aggregate.circuits_built)
        obs.add("users.circuits_compromised", aggregate.compromised_circuits)
    return report
