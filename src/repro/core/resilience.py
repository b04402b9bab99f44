"""Hijack-resilience-aware guard selection.

§5 proposes favouring guards with short AS paths because stealthy hijacks
only win over ASes with longer legitimate routes.  The follow-up
literature (Counter-RAPTOR, Sun et al. 2017) generalises this into a
*resilience* metric: for a client and a candidate guard, the probability
that a randomly placed same-prefix hijacker fails to capture the client's
route to that guard.  Clients then blend resilience with bandwidth when
sampling guards, trading a little load-balancing for a lot of hijack
robustness.

This module computes the metric on the Gao-Rexford model, provides the
blended selection weights, and evaluates the trade-off (expected capture
probability vs. bandwidth-weight distortion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.asgraph.engine import RoutingEngine, shared_engine
from repro.asgraph.topology import ASGraph
from repro.runner import ExperimentSpec, TransientFields, Trial, run_experiment
from repro.tor.consensus import Consensus, Position
from repro.tor.index import relay_index
from repro.tor.relay import Relay

__all__ = [
    "ResilienceTable",
    "compute_resilience",
    "resilience_spec",
    "blended_guard_weights",
    "evaluate_selection",
]


@dataclass(frozen=True)
class ResilienceTable:
    """Per-guard hijack resilience for one client AS.

    ``resilience[fingerprint]`` is the fraction of sampled attacker ASes
    whose same-prefix hijack of the guard's prefix does *not* capture the
    client (i.e. the client keeps routing to the true origin).
    """

    client_asn: int
    resilience: Mapping[str, float]
    attacker_sample: Tuple[int, ...]

    def of(self, relay: Relay) -> float:
        return self.resilience[relay.fingerprint]


@dataclass(frozen=True)
class _ResilienceContext(TransientFields):
    """Shared world for resilience trials (engine is process-local)."""

    graph: ASGraph
    client_asn: int
    attackers: Tuple[int, ...]
    engine: Optional[RoutingEngine] = None

    _transient = ("engine",)


def _resilience_trial(
    ctx: _ResilienceContext, trial: Trial
) -> Tuple[int, int, int]:
    """One guard origin vs. the whole attacker sample.

    Returns ``(origin, survived, trials)``; pure in (context, params), so
    the sweep shards freely.
    """
    from repro.serve.api import OutcomeBatch

    origin = trial.params
    eng = ctx.engine if ctx.engine is not None else shared_engine()
    attackers = [
        a for a in ctx.attackers if a != origin and a != ctx.client_asn
    ]
    # One shared propagation for the whole attacker sample: warm
    # (origin, attacker) pairs come from the engine LRU, the rest route
    # together through the batch kernel.  The client survives a hijack
    # when its selected route still ends at the true origin.
    outcomes = eng.outcomes_many(
        ctx.graph, OutcomeBatch.of([(origin, a) for a in attackers])
    )
    survived = 0
    for outcome in outcomes:
        path = outcome.path(ctx.client_asn)
        if path is not None and path[-1] == origin:
            survived += 1
    return (origin, survived, len(attackers))


def resilience_spec(
    graph: ASGraph,
    client_asn: int,
    origins: Iterable[int],
    attackers: Sequence[int],
    seed: int = 0,
    *,
    engine: Optional[RoutingEngine] = None,
) -> ExperimentSpec:
    """The resilience sweep as a runner experiment: one trial per origin."""
    return ExperimentSpec(
        name="resilience",
        seed=seed,
        trial_fn=_resilience_trial,
        trials=tuple((f"origin-{o}", o) for o in sorted(set(origins))),
        context=_ResilienceContext(
            graph=graph,
            client_asn=client_asn,
            attackers=tuple(attackers),
            engine=engine,
        ),
        params={"client_asn": client_asn, "attackers": len(attackers)},
        encode_result=list,
        decode_result=tuple,
    )


def compute_resilience(
    graph: ASGraph,
    client_asn: int,
    guards: Sequence[Relay],
    guard_asn: Callable[[Relay], int],
    attacker_sample: Optional[Sequence[int]] = None,
    num_attackers: int = 40,
    seed: int = 0,
    *,
    engine: Optional[RoutingEngine] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> ResilienceTable:
    """Compute the client's hijack resilience for each candidate guard.

    For every (guard origin, attacker) pair, run the multi-origin
    Gao-Rexford computation and check whether the client ends up in the
    attacker's capture set.  Guards sharing an origin AS share results, so
    the cost is ``O(distinct origins x attackers)`` route computations —
    and those go through ``engine`` (default: the shared one), so
    resilience tables for *different clients* over the same guard/attacker
    population are nearly free after the first.

    ``attacker_sample`` defaults to a seeded uniform sample of ASes — the
    "randomly located adversary" of the resilience literature.

    The sweep runs on :mod:`repro.runner` with one trial per distinct
    guard origin: ``jobs`` shards it over a process pool, ``checkpoint``
    streams finished origins to disk, and ``resume`` skips origins already
    recorded there.  Results are identical at any ``jobs`` value.
    """
    if client_asn not in graph:
        raise ValueError(f"client AS{client_asn} not in topology")
    if not guards:
        raise ValueError("no candidate guards")
    if attacker_sample is None:
        rng = random.Random(seed)
        pool = sorted(graph.ases - {client_asn})
        attacker_sample = rng.sample(pool, min(num_attackers, len(pool)))
    attackers = tuple(attacker_sample)
    for attacker in attackers:
        if attacker not in graph:
            raise ValueError(f"attacker AS{attacker} not in topology")

    origins = {guard_asn(g) for g in guards}
    spec = resilience_spec(
        graph, client_asn, origins, attackers, seed=seed, engine=engine
    )
    with obs.span(
        "resilience.compute",
        client_asn=client_asn,
        origins=len(origins),
        attackers=len(attackers),
    ):
        report = run_experiment(
            spec, jobs=jobs, checkpoint=checkpoint, resume=resume
        )
    survived: Dict[int, int] = {}
    trials: Dict[int, int] = {}
    for origin, origin_survived, origin_trials in report.results():
        survived[origin] = origin_survived
        trials[origin] = origin_trials

    table = {
        g.fingerprint: (
            survived[guard_asn(g)] / trials[guard_asn(g)]
            if trials[guard_asn(g)]
            else 0.0
        )
        for g in guards
    }
    return ResilienceTable(
        client_asn=client_asn, resilience=table, attacker_sample=attackers
    )


def _guard_weights(consensus: Consensus, guards: Sequence[Relay]) -> Dict[str, float]:
    """Each guard's guard-position weight by fingerprint, in ``guards``
    order, read from the consensus's relay index; the guards are relays of
    ``consensus``."""
    index = relay_index(consensus)
    weight = {
        relay.fingerprint: w
        for relay, w in zip(index.relays, index.weights(Position.GUARD))
    }
    return {g.fingerprint: weight[g.fingerprint] for g in guards}


def blended_guard_weights(
    consensus: Consensus,
    table: ResilienceTable,
    guards: Sequence[Relay],
    alpha: float = 0.5,
) -> Dict[str, float]:
    """Counter-RAPTOR-style blend: ``alpha*resilience + (1-alpha)*bw_norm``.

    ``alpha=0`` is vanilla bandwidth weighting; ``alpha=1`` ignores
    bandwidth entirely (bad for load balancing).  The returned weights are
    multiplicative sampling weights over the given guards.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    bw = _guard_weights(consensus, guards)
    max_bw = max(bw.values()) if bw else 0.0
    weights: Dict[str, float] = {}
    for g in guards:
        bw_norm = bw[g.fingerprint] / max_bw if max_bw > 0 else 0.0
        weights[g.fingerprint] = alpha * table.of(g) + (1 - alpha) * bw_norm
    return weights


@dataclass(frozen=True)
class SelectionEvaluation:
    """Outcome of :func:`evaluate_selection` for one alpha."""

    alpha: float
    #: E[client captured | random sampled attacker hijacks chosen guard]
    expected_capture: float
    #: total-variation distance from the pure bandwidth distribution —
    #: the load-balancing cost of deviating from Tor's weighting
    bandwidth_distortion: float


def evaluate_selection(
    consensus: Consensus,
    table: ResilienceTable,
    guards: Sequence[Relay],
    alphas: Iterable[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> List[SelectionEvaluation]:
    """Sweep the blend parameter: capture risk vs. load distortion.

    Expected capture for a guard is ``1 - resilience``; the sweep shows the
    paper's §5 trade-off quantitatively ("the client should balance this
    strategy with the need to limit...").
    """
    bw = _guard_weights(consensus, guards)
    bw_total = sum(bw.values())
    if bw_total <= 0:
        raise ValueError("guards carry no bandwidth weight")
    bw_dist = {fp: w / bw_total for fp, w in bw.items()}

    results = []
    for alpha in alphas:
        weights = blended_guard_weights(consensus, table, guards, alpha)
        total = sum(weights.values())
        if total <= 0:
            raise ValueError(f"alpha={alpha} produced all-zero weights")
        dist = {fp: w / total for fp, w in weights.items()}
        capture = sum(
            dist[g.fingerprint] * (1.0 - table.of(g)) for g in guards
        )
        distortion = 0.5 * sum(
            abs(dist[fp] - bw_dist[fp]) for fp in dist
        )
        results.append(
            SelectionEvaluation(
                alpha=alpha,
                expected_capture=capture,
                bandwidth_distortion=distortion,
            )
        )
    return results
