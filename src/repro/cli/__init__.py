"""Command-line interface: quick access to the main pipelines.

Usage (after ``pip install -e .``)::

    python -m repro.cli info                 # build a world, dataset stats
    python -m repro.cli trace                # month of BGP churn, Figure 3 stats
    python -m repro.cli attack               # hijack/interception sweep
    python -m repro.cli transfer             # circuit download, Figure 2 right
    python -m repro.cli --scale paper trace  # full §4 scale (slower)

Every command is seeded and deterministic; ``--seed`` changes the world.

Commands are thin drivers: each ``_cmd_*`` returns its result once, as
the payload ``--json`` prints (a dict of JSON values, keys in print
order), and :data:`_COMMANDS` names the :mod:`repro.cli.render` formatter
that turns the same payload into the human text.  ``--obs-out FILE``
streams the run's span tree, metrics, and manifest as JSONL (plus a
``FILE.manifest.json`` sibling); ``--obs-summary`` prints an end-of-run
summary table to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.cli.render import (
    render_attack,
    render_info,
    render_population,
    render_resilience,
    render_rov,
    render_serve,
    render_stream_trace,
    render_trace,
    render_transfer,
    render_users,
)
from repro.persist import CheckpointError
from repro.scenario import Scenario, ScenarioConfig

__all__ = ["SCHEMA_VERSION", "main"]

#: bump when any payload shape changes incompatibly
SCHEMA_VERSION = 1

#: a command's ``--json`` payload, and beside it any data only its text
#: rendering reads (the transfer's capture taps, for ``--plot``)
Output = Tuple[Dict[str, Any], Any]


def _build_scenario(args: argparse.Namespace) -> Scenario:
    if args.scale == "paper":
        config = ScenarioConfig.paper(seed=args.seed)
    else:
        config = ScenarioConfig.small(seed=args.seed)
    print(f"building {args.scale} scenario (seed={args.seed})...", file=sys.stderr)
    return Scenario(config)


def _cmd_info(args: argparse.Namespace) -> Output:
    scenario = _build_scenario(args)
    consensus = scenario.consensus
    graph = scenario.graph
    w = consensus.weights
    return {
        "ases": {
            "total": len(graph),
            "tier1": len(graph.tier1_ases()),
            "stubs": len(graph.stub_ases()),
            "links": graph.num_links(),
        },
        "relays": {
            "total": len(consensus),
            "guards": len(consensus.guards()),
            "exits": len(consensus.exits()),
            "guard_and_exit": len(consensus.guard_and_exit()),
        },
        "prefixes": {
            "tor": len(scenario.tor_prefixes),
            "hosting_ases": len(set(scenario.tor.prefix_origins.values())),
            "background": len(scenario.background_origins),
        },
        "weights": {"Wgg": w.Wgg, "Wgd": w.Wgd, "Wee": w.Wee, "Wed": w.Wed},
    }, None


def _streams(args: argparse.Namespace) -> bool:
    """Whether ``trace`` runs as the streaming replay (``trace-stream``)."""
    return (
        args.stream
        or args.year
        or args.days is not None
        or args.collectors is not None
        or args.rfd_vendor is not None
        or args.window_days is not None
        or args.checkpoint is not None
    )


def _cmd_trace(args: argparse.Namespace) -> Output:
    from repro.analysis.exposure import extra_as_samples
    from repro.analysis.pathchanges import tor_ratio_samples
    from repro.analysis.stats import Ccdf
    from repro.bgpsim.resets import remove_reset_artifacts

    scenario = _build_scenario(args)
    print("running the month-long trace...", file=sys.stderr)
    trace = scenario.run_trace()
    with obs.span("trace.analysis"):
        streams = [
            remove_reset_artifacts(trace.streams[s]) for s in trace.collector_sessions
        ]
        total = sum(len(s) for s in streams)
        ratios = tor_ratio_samples(streams, trace.tor_prefixes)
        ccdf = Ccdf.from_samples(ratios)
        extras = extra_as_samples(streams, trace.tor_prefixes, trace.duration)
        eccdf = Ccdf.from_samples(extras)
    return {
        "sessions": len(streams),
        "records_after_reset_removal": total,
        "path_change_ratio": {
            "p_greater_1": ccdf.fraction_greater(1.0),
            "max": max(ratios),
            "ccdf": [[x, y] for x, y in ccdf.points],
        },
        "extra_ases": {
            "p_at_least_2": eccdf.fraction_at_least(2),
            "p_greater_5": eccdf.fraction_greater(5),
            "median": eccdf.median(),
            "ccdf": [[x, y] for x, y in eccdf.points],
        },
    }, None


def _cmd_trace_stream(args: argparse.Namespace) -> Output:
    """Bounded-memory streaming replay: exposed-AS growth, optional RFD.

    Never materializes the trace: the engine's event stream is replayed
    window-by-window through an exposure consumer, checkpointing after
    every completed window when asked — a year over ten collectors runs
    in one day's footprint and resumes mid-year.
    """
    from repro.bgpsim.rfd import ExposureConsumer, RfdFilter, VENDORS
    from repro.bgpsim.stream import DAY, replay

    config = (
        ScenarioConfig.paper(seed=args.seed)
        if args.scale == "paper"
        else ScenarioConfig.small(seed=args.seed)
    )
    overrides = {}
    if args.year:
        overrides["duration_days"] = 365.0
    elif args.days is not None:
        overrides["duration_days"] = float(args.days)
    if args.collectors is not None:
        overrides["collector_names"] = tuple(
            f"rrc{i:02d}" for i in range(args.collectors)
        )
    if args.window_days is not None:
        overrides["window_seconds"] = float(args.window_days) * DAY
    trace_cfg = (
        dataclasses.replace(config.trace, **overrides) if overrides else config.trace
    )
    config = dataclasses.replace(config, trace=trace_cfg)
    print(f"building {args.scale} scenario (seed={args.seed})...", file=sys.stderr)
    scenario = Scenario(config)

    vendor = args.rfd_vendor if args.rfd_vendor not in (None, "none") else None
    print(
        f"streaming {trace_cfg.duration_days:g} days over "
        f"{len(trace_cfg.collector_names)} collectors "
        f"(RFD: {vendor or 'off'})...",
        file=sys.stderr,
    )
    stream = scenario.open_trace_stream()
    rfd = RfdFilter(VENDORS[vendor]) if vendor else None
    consumer = ExposureConsumer(stream.tor_prefixes, rfd=rfd)
    report = replay(
        stream,
        consumer,
        window_seconds=trace_cfg.window_seconds,
        max_window_events=trace_cfg.max_window_events,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    return {
        "duration_days": trace_cfg.duration_days,
        "collectors": len(trace_cfg.collector_names),
        "sessions": len(stream.sessions),
        "rfd_vendor": vendor,
        "replay": {
            "windows": report.windows + report.resumed_windows,
            "window_days": trace_cfg.window_seconds / DAY,
            "records": report.records,
            "peak_window_events": report.peak_window_events,
            "resumed_windows": report.resumed_windows,
            "checkpoint": args.checkpoint,
        },
        "rfd": {
            "suppressed_records": rfd.suppressed_records if rfd else 0,
            "suppression_episodes": rfd.suppressions if rfd else 0,
        },
        "exposure": {
            "final_exposed_ases": len(consumer.qualified),
            "curve": [[end / DAY, count] for end, count in consumer.samples],
        },
    }, None


def _cmd_attack(args: argparse.Namespace) -> Output:
    from repro.bgpsim.attacks import AttackKind
    from repro.core.interception import AttackPlanner
    from repro.tor.consensus import Position

    scenario = _build_scenario(args)
    planner = AttackPlanner(scenario.graph, scenario.tor, engine=scenario.engine)
    attacker = scenario.adversary_as()
    targets = [
        {
            "prefix": str(t.prefix),
            "origin_asn": t.origin_asn,
            "selection_probability": t.selection_probability,
        }
        for t in planner.rank_targets(Position.GUARD).top(args.top)
    ]
    sweeps = []
    for kind in (AttackKind.SAME_PREFIX, AttackKind.INTERCEPTION, AttackKind.COMMUNITY_SCOPED):
        # One checkpoint file per attack kind, derived from the base path.
        kind_checkpoint = (
            f"{args.checkpoint}.{kind.value}" if args.checkpoint else None
        )
        outcomes = planner.sweep(
            attacker,
            Position.GUARD,
            args.top,
            kind,
            jobs=args.jobs,
            checkpoint=kind_checkpoint,
            resume=args.resume,
        )
        fracs = [o.hijack.capture_fraction for o in outcomes]
        sweeps.append(
            {
                "kind": kind.value,
                "mean_capture_fraction": sum(fracs) / len(fracs) if fracs else 0.0,
                "interception_feasible": sum(
                    o.hijack.interception_feasible for o in outcomes
                ),
                "targets": len(outcomes),
            }
        )
    coverage = planner.surveillance_coverage(attacker, args.top, args.top)
    return {
        "attacker_asn": attacker,
        "top_k": args.top,
        "top_guard_targets": targets,
        "sweeps": sweeps,
        "surveillance_coverage": {
            "guard": coverage["guard_coverage"],
            "exit": coverage["exit_coverage"],
            "circuit": coverage["circuit_coverage"],
        },
    }, None


def _cmd_transfer(args: argparse.Namespace) -> Output:
    from repro.core.asymmetric import correlate_segments
    from repro.traffic.circuitsim import CircuitTransfer, TransferConfig

    sim = CircuitTransfer(TransferConfig(file_size=args.size)).run()
    taps = sim.taps.all()
    times = [sim.duration * i / 10 for i in range(1, 11)]
    return {
        "bytes_delivered": sim.bytes_delivered,
        "duration_seconds": sim.duration,
        "throughput_bytes_per_second": sim.throughput,
        "cells_forwarded": sim.cells_forwarded,
        "sendmes": sim.sendmes,
        "cumulative_bytes": [
            {"time": t, "segments": {c.name: c.cumulative_at(t) for c in taps}}
            for t in times
        ],
        "correlations": [
            {"a": a, "b": b, "r": r}
            for (a, b), r in correlate_segments(sim.taps).items()
        ],
    }, sim.taps


def _cmd_rov(args: argparse.Namespace) -> Output:
    from repro.bgpsim.rpki import RpkiRegistry, adoption_sweep
    from repro.core.interception import AttackPlanner
    from repro.tor.consensus import Position

    scenario = _build_scenario(args)
    planner = AttackPlanner(scenario.graph, scenario.tor, engine=scenario.engine)
    attacker = scenario.adversary_as()
    target = next(
        t for t in planner.rank_targets(Position.GUARD).targets
        if t.origin_asn != attacker
    )
    registry = RpkiRegistry.for_prefixes(scenario.tor.prefix_origins)
    # Two sweeps, two checkpoint files derived from the one base path.
    honest = adoption_sweep(
        scenario.graph, registry, target.prefix, target.origin_asn, attacker,
        seed=1, jobs=args.jobs, checkpoint=args.checkpoint,
        resume=args.resume,
    )
    forged = adoption_sweep(
        scenario.graph, registry, target.prefix, target.origin_asn, attacker,
        seed=1, forge_origin=True, jobs=args.jobs,
        checkpoint=f"{args.checkpoint}.forged" if args.checkpoint else None,
        resume=args.resume,
    )
    return {
        "prefix": str(target.prefix),
        "origin_asn": target.origin_asn,
        "attacker_asn": attacker,
        "adoption_sweep": [
            {
                "adoption": rate,
                "capture_invalid_origin": cap_h,
                "capture_forged_origin": cap_f,
            }
            for (rate, cap_h), (_r, cap_f) in zip(honest, forged)
        ],
    }, None


def _cmd_users(args: argparse.Namespace) -> Output:
    from repro.core.population import simulate_population
    from repro.core.surveillance import ObservationMode

    scenario = _build_scenario(args)
    clients = scenario.client_ases(args.clients)
    dests = scenario.destination_ases(max(2, args.clients // 2))
    adversaries = {0, scenario.adversary_as()}
    print(f"simulating {len(clients)} users x {args.days} days "
          f"vs colluding ASes {sorted(adversaries)}...", file=sys.stderr)
    report = simulate_population(
        scenario.graph,
        scenario.consensus,
        scenario.relay_asn,
        clients,
        dests,
        adversaries,
        days=args.days,
        mode=ObservationMode.EITHER,
        keep_outcomes=True,
        engine=scenario.engine,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    return {
        "clients": len(clients),
        "days": args.days,
        "adversaries": sorted(adversaries),
        "fraction_compromised_by_day": list(report.fraction_compromised_by_day()),
        "fraction_compromised": report.fraction_compromised,
        "median_days_to_compromise": report.median_days_to_compromise(),
    }, None


def _cmd_population(args: argparse.Namespace) -> Output:
    from repro.core.population import simulate_population
    from repro.core.surveillance import ObservationMode
    from repro.tor.churn import ChurnConfig, evolve_consensus
    from repro.tor.clientdist import ClientASDistribution

    scenario = _build_scenario(args)
    client_pool = scenario.client_ases(args.client_ases)
    if args.skew == "zipf":
        distribution = ClientASDistribution.zipf(
            client_pool, exponent=args.zipf_exponent
        )
    else:
        distribution = ClientASDistribution.uniform(client_pool)
    dests = scenario.destination_ases(max(2, len(client_pool) // 4))
    adversaries = {0, scenario.adversary_as()}
    consensus = scenario.consensus
    if args.churn:
        consensus = evolve_consensus(
            consensus, args.days, ChurnConfig(seed=args.seed)
        )
    print(
        f"simulating {args.users} users over {len(client_pool)} client ASes "
        f"x {args.days} days vs colluding ASes {sorted(adversaries)}...",
        file=sys.stderr,
    )
    started = time.perf_counter()
    report = simulate_population(
        scenario.graph,
        consensus,
        scenario.relay_asn,
        distribution,
        dests,
        adversaries,
        num_users=args.users,
        days=args.days,
        circuits_per_day=args.circuits_per_day,
        num_guards=args.guards,
        rotation_days=args.rotation_days,
        mode=ObservationMode.EITHER,
        seed=args.seed,
        engine=scenario.engine,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    elapsed = time.perf_counter() - started
    quantiles = (0.25, 0.5, 0.9)
    return {
        "users": report.num_users,
        "client_ases": len(client_pool),
        "days": args.days,
        "circuits_per_day": args.circuits_per_day,
        "num_guards": args.guards,
        "skew": args.skew,
        "churn": args.churn,
        "adversaries": sorted(adversaries),
        "fraction_compromised_by_day": list(report.fraction_compromised_by_day()),
        "fraction_compromised": report.fraction_compromised,
        "median_days_to_compromise": report.median_days_to_compromise(),
        "time_to_compromise_days": [
            {"q": q, "day": report.time_to_compromise_percentile(q)}
            for q in quantiles
        ],
        "compromise_rate_percentiles": [
            {"q": q, "rate": report.compromise_rate_percentile(q)}
            for q in quantiles
        ],
        "user_days_per_sec": (
            report.num_users * args.days / elapsed if elapsed > 0 else 0.0
        ),
    }, None


def _cmd_resilience(args: argparse.Namespace) -> Output:
    from repro.core.resilience import compute_resilience, evaluate_selection

    scenario = _build_scenario(args)
    guards = scenario.consensus.guards()
    client = scenario.client_ases(1)[0]
    print(
        f"computing resilience of {len(guards)} guards for client AS{client} "
        f"vs {args.attackers} sampled attackers...",
        file=sys.stderr,
    )

    def guard_asn(relay):
        return scenario.relay_asn(relay.fingerprint)

    table = compute_resilience(
        scenario.graph,
        client,
        guards,
        guard_asn,
        num_attackers=args.attackers,
        seed=args.seed,
        engine=scenario.engine,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    values = [table.of(g) for g in guards]
    by_origin = sorted(
        {(guard_asn(g), table.of(g)) for g in guards},
        key=lambda item: (-item[1], item[0]),
    )
    return {
        "client_asn": client,
        "guards": len(guards),
        "attackers": len(table.attacker_sample),
        "resilience": {
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
        },
        "top_guards": [
            {"origin_asn": asn, "resilience": res} for asn, res in by_origin[: args.top]
        ],
        "selection_tradeoff": [
            {
                "alpha": e.alpha,
                "expected_capture": e.expected_capture,
                "bandwidth_distortion": e.bandwidth_distortion,
            }
            for e in evaluate_selection(scenario.consensus, table, guards)
        ],
    }, None


def _follow_churn_events(scenario, follow_days: float):
    """Link deltas for ``serve --follow``: the scenario's trace churn.

    Rebuilds the scenario's trace engine with the requested duration and
    pulls the ground-truth schedule (``TraceStream.events`` is materialised
    by ``open_stream`` without draining the update iterator), then keeps
    only the core fail/recover deltas.
    """
    from repro.bgpsim.trace import TraceEngine
    from repro.serve.follow import link_events

    trace_cfg = dataclasses.replace(scenario.config.trace, duration_days=follow_days)
    engine = TraceEngine(
        scenario.graph,
        scenario.prefix_origins,
        scenario.tor_prefixes,
        trace_cfg,
    )
    return link_events(engine.open_stream().events)


def _cmd_serve(args: argparse.Namespace) -> Output:
    import asyncio
    import threading

    from repro.serve.daemon import RoutingDaemon, ServeConfig

    scenario = _build_scenario(args)
    daemon = RoutingDaemon(
        scenario.graph,
        engine=scenario.engine,
        config=ServeConfig(
            host=args.host,
            port=args.port,
            cache_entries=args.cache_entries,
            pool_entries=args.pool_entries,
        ),
    )

    bound = {"host": args.host, "port": args.port}
    churn = {"windows": 0, "events": 0}
    follow_thread = None
    if args.follow is not None:
        if args.follow <= 0:
            raise SystemExit("--follow expects a positive number of days")
        from repro.bgpsim.stream import DAY
        from repro.serve.follow import facade_apply, follow

        events = _follow_churn_events(scenario, args.follow)
        print(
            f"following {args.follow:g} trace days "
            f"({len(events)} link events)",
            file=sys.stderr,
        )

        def _feed() -> None:
            report, feed = follow(
                events,
                facade_apply(daemon.facade),
                window_seconds=args.follow_window_days * DAY,
                duration=args.follow * DAY,
            )
            churn["windows"] = feed.windows
            churn["events"] = feed.events
            print(
                f"churn replay done: {feed.windows} windows, "
                f"{feed.events} events, epoch {feed.epoch}",
                file=sys.stderr,
            )

        follow_thread = threading.Thread(
            target=_feed, name="serve-follow", daemon=True
        )

    async def _run() -> None:
        host, port = await daemon.start()
        bound["host"], bound["port"] = host, port
        if args.restore:
            restored = daemon.cache.restore(
                args.restore, daemon.engine.fingerprint(daemon.graph)
            )
            print(
                f"restored {restored} cached results from {args.restore}",
                file=sys.stderr,
            )
        print(f"serving on {host}:{port}", file=sys.stderr)
        if follow_thread is not None:
            follow_thread.start()
        if args.ready_file:
            # Written only once the socket accepts connections, so a
            # supervisor can poll the file instead of the port.
            with open(args.ready_file, "w", encoding="utf-8") as fh:
                fh.write(f"{host}:{port}\n")
        await daemon.wait_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if follow_thread is not None:
        follow_thread.join(timeout=30.0)
    stats = dataclasses.asdict(daemon.stats())
    return {
        "address": bound,
        "world": {"ases": len(scenario.graph)},
        "traffic": {
            key: stats[key]
            for key in ("connections", "requests", "batches", "queries", "errors")
        },
        "cache": {key: stats[f"cache_{key}"] for key in ("entries", "hits", "misses")},
        "pool": {
            "epoch": stats["epoch"],
            **{
                key: stats[f"pool_{key}"]
                for key in ("sessions", "hits", "misses", "evictions", "repairs")
            },
        },
        "follow": churn,
    }, None


def _add_global_args(
    parser: argparse.ArgumentParser, *, top_level: bool = False
) -> None:
    """Flags accepted both before and after the subcommand.

    Subparser copies use ``SUPPRESS`` defaults so that an unset
    subcommand-level flag never clobbers a value parsed at the top level
    (``repro --seed 5 trace`` keeps seed 5).
    """

    def dflt(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument("--seed", type=int, default=dflt(0), help="world seed")
    parser.add_argument(
        "--scale", choices=("small", "paper"), default=dflt("small"),
        help="world size: 'small' (~1/10, seconds) or 'paper' (§4 scale, minutes)",
    )
    parser.add_argument(
        "--json", action="store_true", default=dflt(False),
        help="emit the command's result as a JSON document on stdout",
    )
    parser.add_argument(
        "--obs-out", metavar="FILE", default=dflt(None),
        help="stream spans/metrics/manifest as JSONL to FILE "
             "(also writes FILE.manifest.json)",
    )
    parser.add_argument(
        "--obs-summary", action="store_true", default=dflt(False),
        help="print an end-of-run span/metric summary table to stderr",
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Flags for commands whose sweeps run on :mod:`repro.runner`."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the sweep over N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="stream each completed trial to FILE (JSONL); commands that "
             "run several sweeps derive sibling files from this base path",
    )
    parser.add_argument(
        "--resume", action="store_true", default=False,
        help="skip trials already recorded in --checkpoint",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BGP-vs-Tor paper reproduction toolkit"
    )
    _add_global_args(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="build a world and print dataset statistics")
    trace = sub.add_parser(
        "trace",
        help="run the month-long BGP trace, print Figure 3 stats "
             "(streaming flags switch to the bounded-memory replay)",
    )
    trace.add_argument("--plot", action="store_true", help="render ASCII CCDF plots")
    trace.add_argument(
        "--stream", action="store_true", default=False,
        help="replay the trace as a bounded-memory stream (exposed-AS growth) "
             "instead of materializing Figure 3 stats",
    )
    trace.add_argument(
        "--year", action="store_true", default=False,
        help="stream a full 365-day trace (implies --stream)",
    )
    trace.add_argument(
        "--days", type=float, default=None, metavar="D",
        help="trace duration in days (implies --stream)",
    )
    trace.add_argument(
        "--collectors", type=int, default=None, metavar="N",
        help="number of route collectors (implies --stream)",
    )
    trace.add_argument(
        "--rfd-vendor", choices=("cisco", "juniper", "none"), default=None,
        help="damp the stream with this vendor's route-flap-damping defaults "
             "(implies --stream; 'none' streams undamped)",
    )
    trace.add_argument(
        "--window-days", type=float, default=None, metavar="W",
        help="replay window width in days (default: 1; implies --stream)",
    )
    trace.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="record replay state after every window (implies --stream)",
    )
    trace.add_argument(
        "--resume", action="store_true", default=False,
        help="resume the replay from --checkpoint (fingerprint-validated)",
    )
    attack = sub.add_parser("attack", help="run the §3.2 attack sweep")
    attack.add_argument("--top", type=int, default=10, help="top-k target prefixes")
    transfer = sub.add_parser("transfer", help="run a circuit download (Figure 2 right)")
    transfer.add_argument("--size", type=int, default=10_000_000, help="bytes to download")
    transfer.add_argument("--plot", action="store_true", help="render ASCII byte curves")
    rov = sub.add_parser("rov", help="RPKI adoption sweep against a guard-prefix hijack")
    users = sub.add_parser("users", help="user-level time-to-compromise simulation")
    users.add_argument("--clients", type=int, default=10)
    users.add_argument("--days", type=int, default=31)
    population = sub.add_parser(
        "population",
        help="population-scale compromise simulation (struct-of-arrays kernel)",
    )
    population.add_argument(
        "--users", type=int, default=100_000, help="simulated Tor clients"
    )
    population.add_argument(
        "--client-ases", type=int, default=40,
        help="distinct client ASes the users are drawn from",
    )
    population.add_argument("--days", type=int, default=30)
    population.add_argument("--circuits-per-day", type=int, default=6)
    population.add_argument(
        "--guards", type=int, default=3, help="guard slots per user"
    )
    population.add_argument(
        "--rotation-days", type=float, default=30.0,
        help="guard rotation period (staggered per slot)",
    )
    population.add_argument(
        "--skew", choices=("uniform", "zipf"), default="zipf",
        help="client-AS popularity skew (default: zipf)",
    )
    population.add_argument(
        "--zipf-exponent", type=float, default=1.0,
        help="skew exponent for --skew zipf (0 = uniform)",
    )
    population.add_argument(
        "--churn", action="store_true", default=False,
        help="evolve the consensus daily with relay churn",
    )
    resilience = sub.add_parser(
        "resilience", help="hijack-resilience-aware guard selection (§5)"
    )
    resilience.add_argument(
        "--attackers", type=int, default=40, help="sampled attacker ASes"
    )
    resilience.add_argument(
        "--top", type=int, default=10, help="guard origins to list"
    )
    serve = sub.add_parser(
        "serve", help="start the routing daemon (JSONL query socket)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0, an ephemeral port)",
    )
    serve.add_argument(
        "--ready-file", metavar="FILE", default=None,
        help="write 'host:port' to FILE once the daemon accepts connections",
    )
    serve.add_argument(
        "--restore", metavar="FILE", default=None,
        help="load a result-cache snapshot before serving",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=65536,
        help="result-cache capacity (default: 65536)",
    )
    serve.add_argument(
        "--pool-entries", type=int, default=1024,
        help="live route cache capacity in route trees (default: 1024)",
    )
    serve.add_argument(
        "--follow", type=float, metavar="DAYS", default=None,
        help="replay DAYS of the scenario's trace churn into the live "
             "daemon (one epoch per window)",
    )
    serve.add_argument(
        "--follow-window-days", type=float, metavar="DAYS", default=1.0,
        help="replay window width in trace days (default: 1.0)",
    )
    for command in (attack, rov, users, population, resilience):
        _add_runner_args(command)
    for command in (
        info, trace, attack, transfer, rov, users, population, resilience,
        serve,
    ):
        _add_global_args(command)
    return parser


#: command name -> (handler, renderer); streaming ``trace`` runs and
#: reports as ``trace-stream``
_COMMANDS: Dict[str, Tuple[Callable[[argparse.Namespace], Output], Callable[..., str]]] = {
    "info": (_cmd_info, render_info),
    "trace": (_cmd_trace, render_trace),
    "trace-stream": (_cmd_trace_stream, render_stream_trace),
    "attack": (_cmd_attack, render_attack),
    "transfer": (_cmd_transfer, render_transfer),
    "rov": (_cmd_rov, render_rov),
    "users": (_cmd_users, render_users),
    "population": (_cmd_population, render_population),
    "resilience": (_cmd_resilience, render_resilience),
    "serve": (_cmd_serve, render_serve),
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = (
        "trace-stream" if args.command == "trace" and _streams(args) else args.command
    )
    handler, renderer = _COMMANDS[command]

    summary = args.obs_summary
    sinks: List[obs.Sink] = []
    if args.obs_out:
        sinks.append(obs.JsonlSink(args.obs_out))
    if summary:
        sinks.append(obs.SummarySink(sys.stderr))

    recorder = obs.Recorder(sinks=sinks)
    previous = obs.set_recorder(recorder)
    started_at = time.time()
    t0 = time.perf_counter()
    try:
        with recorder.span(
            f"cli.{args.command}",
            command=args.command,
            seed=args.seed,
            scale=args.scale,
        ):
            payload, aside = handler(args)
        if args.json:
            document = {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "seed": args.seed,
                "scale": args.scale,
                "result": payload,
            }
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(renderer(payload, getattr(args, "plot", False), aside))
        return 0
    except CheckpointError as exc:
        # A checkpoint that cannot be resumed is the user's file, not a
        # program fault: say what is wrong with it, without a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    finally:
        from repro.asgraph.engine import shared_engine

        recorder.absorb_engine_stats(shared_engine().stats())
        manifest = obs.RunManifest.collect(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            params={k: v for k, v in vars(args).items() if k != "command"},
            started_at=started_at,
            wall_seconds=time.perf_counter() - t0,
        )
        recorder.finish(manifest)
        if args.obs_out:
            manifest.write(args.obs_out + ".manifest.json")
        obs.set_recorder(previous)


if __name__ == "__main__":
    raise SystemExit(main())
