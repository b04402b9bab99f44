"""Human rendering of :mod:`repro.cli.results` objects.

One formatter per result type, all returning the exact text the commands
have always printed — the typed results changed where the numbers live,
not what the terminal shows.  ``--plot`` variants append ASCII plots built
from the data carried on the result.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cli.results import (
    AttackResult,
    CommandResult,
    InfoResult,
    PopulationResult,
    ResilienceResult,
    RovResult,
    ServeResult,
    StreamTraceResult,
    TraceResult,
    TransferResult,
    UsersResult,
)

__all__ = ["render"]


def render_info(result: InfoResult, plot: bool = False) -> str:
    w = result.weights
    return "\n".join(
        [
            f"ASes:            {result.num_ases} ({result.num_tier1} tier-1, "
            f"{result.num_stubs} stubs, {result.num_links} links)",
            f"relays:          {result.num_relays}",
            f"  guards:        {result.num_guards}",
            f"  exits:         {result.num_exits}",
            f"  guard+exit:    {result.num_guard_and_exit}",
            f"tor prefixes:    {result.num_tor_prefixes}",
            f"hosting ASes:    {result.num_hosting_ases}",
            f"bg prefixes:     {result.num_background_prefixes}",
            f"weights:         Wgg={w['Wgg']:.2f} Wgd={w['Wgd']:.2f} "
            f"Wee={w['Wee']:.2f} Wed={w['Wed']:.2f}",
        ]
    )


def render_trace(result: TraceResult, plot: bool = False) -> str:
    lines = [
        f"sessions: {result.num_sessions}, records after reset removal: {result.num_records}",
        "",
        "Figure 3 (left) — path-change ratio of Tor prefixes:",
        f"  P[ratio > 1]  = {result.ratio_p_gt_1:.1%}  (paper: >50%)",
        f"  max ratio     = {result.ratio_max:.0f}x     (paper: >2000x outlier)",
        "",
        "Figure 3 (right) — extra ASes (>=5 min) per Tor prefix:",
        f"  P[extra >= 2] = {result.extra_p_ge_2:.1%}  (paper: 50%)",
        f"  P[extra > 5]  = {result.extra_p_gt_5:.1%}  (paper: ~8%)",
        f"  median        = {result.extra_median:.0f}",
    ]
    if plot:
        from repro.analysis.asciiplot import plot_ccdf

        positive = [(max(x, 0.01), y) for x, y in result.ratio_ccdf]
        lines += [
            "",
            plot_ccdf(positive, title="Figure 3 (left): tor pfx change ratio / session median"),
            "",
            plot_ccdf(
                [(max(x, 0.5), y) for x, y in result.extra_ccdf],
                title="Figure 3 (right): extra ASes (>=5 min) per tor prefix",
            ),
        ]
    return "\n".join(lines)


def render_stream_trace(result: StreamTraceResult, plot: bool = False) -> str:
    vendor = result.rfd_vendor if result.rfd_vendor else "off"
    lines = [
        f"streamed {result.duration_days:.0f} days over {result.num_collectors} "
        f"collectors ({result.num_sessions} sessions), RFD: {vendor}",
        f"replay:   {result.windows} windows x {result.window_days:g} days, "
        f"{result.records} records, peak window {result.peak_window_events} events"
        + (
            f" (resumed past {result.resumed_windows} windows)"
            if result.resumed_windows
            else ""
        ),
    ]
    if result.rfd_vendor:
        lines.append(
            f"damping:  {result.suppressed_records} updates absorbed in "
            f"{result.suppression_episodes} suppression episodes"
        )
    lines += [
        "",
        f"exposed ASes (dwell-qualified, cumulative): {result.final_exposed_ases}",
    ]
    curve = result.exposure_curve
    if curve:
        step = max(1, len(curve) // 10)
        lines.append("  day   exposed ASes")
        for day, count in curve[:: step]:
            lines.append(f"  {day:5.0f}  {count:6d}")
        if (len(curve) - 1) % step:
            day, count = curve[-1]
            lines.append(f"  {day:5.0f}  {count:6d}")
    return "\n".join(lines)


def render_attack(result: AttackResult, plot: bool = False) -> str:
    lines = [f"attacker: AS{result.attacker_asn}", ""]
    lines.append("top guard-prefix targets:")
    for target in result.top_targets:
        lines.append(
            f"  {target.prefix:20s} AS{target.origin_asn:<6d} "
            f"p(select)={target.selection_probability:.3f}"
        )
    lines.append("")
    for sweep in result.sweeps:
        lines.append(
            f"{sweep.kind:26s} mean capture {sweep.mean_capture:6.1%}, "
            f"intercept-feasible {sweep.interception_feasible}/{sweep.num_targets}"
        )
    lines.append(
        f"\nsurveillance coverage (top-{result.top_k} guard+exit interception): "
        f"{result.circuit_coverage:.2%} of circuits correlatable"
    )
    return "\n".join(lines)


def render_transfer(result: TransferResult, plot: bool = False) -> str:
    lines = [
        f"transferred {result.bytes_delivered/1e6:.1f} MB in {result.duration:.1f}s "
        f"({result.throughput/1000:.0f} KB/s), cells={result.cells_forwarded}, "
        f"sendmes={result.sendmes}",
        "",
        "cumulative MB over time (Figure 2, right):",
    ]
    names = list(result.samples[0][1]) if result.samples else []
    lines.append("  t(s)   " + "  ".join(f"{name:>16s}" for name in names))
    for t, row in result.samples:
        lines.append(f"  {t:5.1f}  " + "  ".join(f"{row[name]/1e6:16.2f}" for name in names))
    lines.append("\ncorrelations (any direction pair works, §3.3):")
    for a, b, r in result.correlations:
        lines.append(f"  {a:15s} vs {b:15s}: {r:+.3f}")

    if plot and result.taps is not None:
        from repro.analysis.asciiplot import plot_series

        series = []
        labels = []
        for cap in result.taps.all():
            times, mbs = cap.curve()
            series.append(list(zip(times, mbs))[:: max(1, len(times) // 200)])
            labels.append(cap.name)
        lines += [
            "",
            plot_series(
                series,
                labels=labels,
                title="Figure 2 (right): cumulative MB per segment",
                xlabel="time (s)",
                ylabel="MB",
            ),
        ]
    return "\n".join(lines)


def render_rov(result: RovResult, plot: bool = False) -> str:
    lines = [
        f"hijack of {result.prefix} (AS{result.origin_asn}) by AS{result.attacker_asn}",
        "",
        "ROV adoption   capture (invalid origin)   capture (forged origin)",
    ]
    for rate, honest, forged in result.rows:
        lines.append(f"{rate:10.0%}     {honest:12.1%}            {forged:12.1%}")
    lines += [
        "",
        "Origin validation kills the classic hijack; the forged-origin",
        "variant (what interception uses) is untouched — §7's outlook.",
    ]
    return "\n".join(lines)


def render_users(result: UsersResult, plot: bool = False) -> str:
    lines = ["day   users compromised so far"]
    step = max(1, result.days // 8)
    for day in range(1, result.days + 1, step):
        lines.append(f"{day:4d}  {result.curve[day-1]:6.1%}")
    median = result.median_days
    lines.append(
        f"\nwithin {result.days} days: {result.fraction_compromised:.0%} of users; "
        f"median time to first compromise: "
        + (f"{median:.0f} days" if median is not None else f">{result.days} days")
    )
    return "\n".join(lines)


def render_population(result: PopulationResult, plot: bool = False) -> str:
    lines = [
        f"{result.num_users} users over {result.num_client_ases} client ASes "
        f"({result.skew} skew), {result.days} days x "
        f"{result.circuits_per_day} circuits, {result.num_guards} guards"
        + (", daily relay churn" if result.churn else ""),
        "",
        "day   users compromised so far",
    ]
    step = max(1, result.days // 8)
    for day in range(1, result.days + 1, step):
        lines.append(f"{day:4d}  {result.curve[day-1]:6.1%}")
    median = result.median_days
    lines.append(
        f"\nwithin {result.days} days: {result.fraction_compromised:.1%} of "
        f"users; median time to first compromise: "
        + (f"{median:.0f} days" if median is not None else f">{result.days} days")
    )
    ttc = "  ".join(
        f"p{int(q * 100)}: " + (f"day {day}" if day is not None else "never")
        for q, day in result.time_to_compromise
    )
    rates = "  ".join(
        f"p{int(q * 100)}: {rate:.1%}" for q, rate in result.rate_percentiles
    )
    lines += [
        f"time to compromise    {ttc}",
        f"per-user circuit rate {rates}",
        f"throughput: {result.user_days_per_sec:,.0f} user-days/sec",
    ]
    return "\n".join(lines)


def render_resilience(result: ResilienceResult, plot: bool = False) -> str:
    lines = [
        f"client AS{result.client_asn} vs {result.num_attackers} sampled "
        f"attackers over {result.num_guards} guards",
        "",
        f"resilience: mean {result.mean_resilience:.1%}, "
        f"min {result.min_resilience:.1%}, max {result.max_resilience:.1%}",
        "",
        "most resilient guard origins:",
    ]
    for asn, res in result.top_guards:
        lines.append(f"  AS{asn:<6d} {res:6.1%}")
    lines += ["", "alpha   E[capture]   bandwidth distortion"]
    for alpha, capture, distortion in result.selection:
        lines.append(f"{alpha:5.2f}   {capture:8.1%}   {distortion:10.1%}")
    lines += [
        "",
        "alpha blends resilience into guard weights (0 = vanilla Tor);",
        "capture falls as load-balancing distortion rises — §5's trade-off.",
    ]
    return "\n".join(lines)


def render_serve(result: ServeResult, plot: bool = False) -> str:
    return "\n".join(
        [
            f"served {result.num_ases} ASes on "
            f"{result.host}:{result.port} (now stopped)",
            f"connections:     {result.connections}",
            f"requests:        {result.requests} "
            f"({result.batches} batches, {result.queries} queries, "
            f"{result.errors} errors)",
            f"result cache:    {result.cache_entries} entries, "
            f"{result.cache_hits} hits, {result.cache_misses} misses",
            f"route cache:     epoch {result.epoch}, "
            f"{result.pool_sessions} trees, "
            f"{result.pool_hits} hits, {result.pool_misses} misses, "
            f"{result.pool_evictions} evictions, {result.pool_repairs} repairs",
            f"churn replay:    {result.follow_windows} windows, "
            f"{result.follow_events} link events",
        ]
    )


_RENDERERS: Dict[type, Callable[..., str]] = {
    InfoResult: render_info,
    TraceResult: render_trace,
    StreamTraceResult: render_stream_trace,
    AttackResult: render_attack,
    TransferResult: render_transfer,
    RovResult: render_rov,
    UsersResult: render_users,
    PopulationResult: render_population,
    ResilienceResult: render_resilience,
    ServeResult: render_serve,
}


def render(result: CommandResult, plot: bool = False) -> str:
    """Dispatch to the formatter for this result type."""
    try:
        renderer = _RENDERERS[type(result)]
    except KeyError:
        raise TypeError(f"no renderer for {type(result).__name__}") from None
    return renderer(result, plot=plot)
