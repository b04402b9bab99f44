"""Human rendering of the CLI's ``--json`` payloads.

One formatter per command, each reading the payload its handler returned
(the dict ``--json`` prints as ``result``) and returning the text the
command prints.  A formatter also gets ``--plot`` and the plot-only data
its handler kept beside the payload (the transfer's capture taps), which
the JSON leaves out.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "render_info",
    "render_trace",
    "render_stream_trace",
    "render_attack",
    "render_transfer",
    "render_rov",
    "render_users",
    "render_population",
    "render_resilience",
    "render_serve",
]

Payload = Dict[str, Any]


def render_info(r: Payload, plot: bool = False, aside: object = None) -> str:
    ases, relays, prefixes, w = r["ases"], r["relays"], r["prefixes"], r["weights"]
    return "\n".join(
        [
            f"ASes:            {ases['total']} ({ases['tier1']} tier-1, "
            f"{ases['stubs']} stubs, {ases['links']} links)",
            f"relays:          {relays['total']}",
            f"  guards:        {relays['guards']}",
            f"  exits:         {relays['exits']}",
            f"  guard+exit:    {relays['guard_and_exit']}",
            f"tor prefixes:    {prefixes['tor']}",
            f"hosting ASes:    {prefixes['hosting_ases']}",
            f"bg prefixes:     {prefixes['background']}",
            f"weights:         Wgg={w['Wgg']:.2f} Wgd={w['Wgd']:.2f} "
            f"Wee={w['Wee']:.2f} Wed={w['Wed']:.2f}",
        ]
    )


def render_trace(r: Payload, plot: bool = False, aside: object = None) -> str:
    ratio, extra = r["path_change_ratio"], r["extra_ases"]
    lines = [
        f"sessions: {r['sessions']}, records after reset removal: "
        f"{r['records_after_reset_removal']}",
        "",
        "Figure 3 (left) — path-change ratio of Tor prefixes:",
        f"  P[ratio > 1]  = {ratio['p_greater_1']:.1%}  (paper: >50%)",
        f"  max ratio     = {ratio['max']:.0f}x     (paper: >2000x outlier)",
        "",
        "Figure 3 (right) — extra ASes (>=5 min) per Tor prefix:",
        f"  P[extra >= 2] = {extra['p_at_least_2']:.1%}  (paper: 50%)",
        f"  P[extra > 5]  = {extra['p_greater_5']:.1%}  (paper: ~8%)",
        f"  median        = {extra['median']:.0f}",
    ]
    if plot:
        from repro.analysis.asciiplot import plot_ccdf

        positive = [(max(x, 0.01), y) for x, y in ratio["ccdf"]]
        lines += [
            "",
            plot_ccdf(positive, title="Figure 3 (left): tor pfx change ratio / session median"),
            "",
            plot_ccdf(
                [(max(x, 0.5), y) for x, y in extra["ccdf"]],
                title="Figure 3 (right): extra ASes (>=5 min) per tor prefix",
            ),
        ]
    return "\n".join(lines)


def render_stream_trace(r: Payload, plot: bool = False, aside: object = None) -> str:
    replay, rfd = r["replay"], r["rfd"]
    lines = [
        f"streamed {r['duration_days']:.0f} days over {r['collectors']} "
        f"collectors ({r['sessions']} sessions), RFD: {r['rfd_vendor'] or 'off'}",
        f"replay:   {replay['windows']} windows x {replay['window_days']:g} days, "
        f"{replay['records']} records, peak window {replay['peak_window_events']} events"
        + (
            f" (resumed past {replay['resumed_windows']} windows)"
            if replay["resumed_windows"]
            else ""
        ),
    ]
    if r["rfd_vendor"]:
        lines.append(
            f"damping:  {rfd['suppressed_records']} updates absorbed in "
            f"{rfd['suppression_episodes']} suppression episodes"
        )
    lines += [
        "",
        f"exposed ASes (dwell-qualified, cumulative): "
        f"{r['exposure']['final_exposed_ases']}",
    ]
    curve = r["exposure"]["curve"]
    if curve:
        step = max(1, len(curve) // 10)
        lines.append("  day   exposed ASes")
        for day, count in curve[:: step]:
            lines.append(f"  {day:5.0f}  {count:6d}")
        if (len(curve) - 1) % step:
            day, count = curve[-1]
            lines.append(f"  {day:5.0f}  {count:6d}")
    return "\n".join(lines)


def render_attack(r: Payload, plot: bool = False, aside: object = None) -> str:
    lines = [f"attacker: AS{r['attacker_asn']}", ""]
    lines.append("top guard-prefix targets:")
    for target in r["top_guard_targets"]:
        lines.append(
            f"  {target['prefix']:20s} AS{target['origin_asn']:<6d} "
            f"p(select)={target['selection_probability']:.3f}"
        )
    lines.append("")
    for sweep in r["sweeps"]:
        lines.append(
            f"{sweep['kind']:26s} mean capture {sweep['mean_capture_fraction']:6.1%}, "
            f"intercept-feasible {sweep['interception_feasible']}/{sweep['targets']}"
        )
    lines.append(
        f"\nsurveillance coverage (top-{r['top_k']} guard+exit interception): "
        f"{r['surveillance_coverage']['circuit']:.2%} of circuits correlatable"
    )
    return "\n".join(lines)


def render_transfer(r: Payload, plot: bool = False, aside: object = None) -> str:
    """``aside`` holds the transfer's capture taps, read only for ``--plot``."""
    lines = [
        f"transferred {r['bytes_delivered']/1e6:.1f} MB in {r['duration_seconds']:.1f}s "
        f"({r['throughput_bytes_per_second']/1000:.0f} KB/s), "
        f"cells={r['cells_forwarded']}, sendmes={r['sendmes']}",
        "",
        "cumulative MB over time (Figure 2, right):",
    ]
    samples = r["cumulative_bytes"]
    names = list(samples[0]["segments"]) if samples else []
    lines.append("  t(s)   " + "  ".join(f"{name:>16s}" for name in names))
    for sample in samples:
        row = sample["segments"]
        lines.append(
            f"  {sample['time']:5.1f}  "
            + "  ".join(f"{row[name]/1e6:16.2f}" for name in names)
        )
    lines.append("\ncorrelations (any direction pair works, §3.3):")
    for c in r["correlations"]:
        lines.append(f"  {c['a']:15s} vs {c['b']:15s}: {c['r']:+.3f}")

    if plot and aside is not None:
        from repro.analysis.asciiplot import plot_series

        series = []
        labels = []
        for cap in aside.all():
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


def render_rov(r: Payload, plot: bool = False, aside: object = None) -> str:
    lines = [
        f"hijack of {r['prefix']} (AS{r['origin_asn']}) by AS{r['attacker_asn']}",
        "",
        "ROV adoption   capture (invalid origin)   capture (forged origin)",
    ]
    for row in r["adoption_sweep"]:
        lines.append(
            f"{row['adoption']:10.0%}     {row['capture_invalid_origin']:12.1%}"
            f"            {row['capture_forged_origin']:12.1%}"
        )
    lines += [
        "",
        "Origin validation kills the classic hijack; the forged-origin",
        "variant (what interception uses) is untouched — §7's outlook.",
    ]
    return "\n".join(lines)


def _compromise_curve(r: Payload):
    """The day table both user simulations print, every ``days // 8`` days."""
    days, curve = r["days"], r["fraction_compromised_by_day"]
    step = max(1, days // 8)
    return [f"{day:4d}  {curve[day-1]:6.1%}" for day in range(1, days + 1, step)]


def _median_days(r: Payload) -> str:
    median = r["median_days_to_compromise"]
    return f"{median:.0f} days" if median is not None else f">{r['days']} days"


def render_users(r: Payload, plot: bool = False, aside: object = None) -> str:
    lines = ["day   users compromised so far", *_compromise_curve(r)]
    lines.append(
        f"\nwithin {r['days']} days: {r['fraction_compromised']:.0%} of users; "
        f"median time to first compromise: " + _median_days(r)
    )
    return "\n".join(lines)


def render_population(r: Payload, plot: bool = False, aside: object = None) -> str:
    lines = [
        f"{r['users']} users over {r['client_ases']} client ASes "
        f"({r['skew']} skew), {r['days']} days x "
        f"{r['circuits_per_day']} circuits, {r['num_guards']} guards"
        + (", daily relay churn" if r["churn"] else ""),
        "",
        "day   users compromised so far",
        *_compromise_curve(r),
    ]
    lines.append(
        f"\nwithin {r['days']} days: {r['fraction_compromised']:.1%} of "
        f"users; median time to first compromise: " + _median_days(r)
    )
    ttc = "  ".join(
        f"p{int(t['q'] * 100)}: " + (f"day {t['day']}" if t["day"] is not None else "never")
        for t in r["time_to_compromise_days"]
    )
    rates = "  ".join(
        f"p{int(p['q'] * 100)}: {p['rate']:.1%}" for p in r["compromise_rate_percentiles"]
    )
    lines += [
        f"time to compromise    {ttc}",
        f"per-user circuit rate {rates}",
        f"throughput: {r['user_days_per_sec']:,.0f} user-days/sec",
    ]
    return "\n".join(lines)


def render_resilience(r: Payload, plot: bool = False, aside: object = None) -> str:
    res = r["resilience"]
    lines = [
        f"client AS{r['client_asn']} vs {r['attackers']} sampled "
        f"attackers over {r['guards']} guards",
        "",
        f"resilience: mean {res['mean']:.1%}, "
        f"min {res['min']:.1%}, max {res['max']:.1%}",
        "",
        "most resilient guard origins:",
    ]
    for guard in r["top_guards"]:
        lines.append(f"  AS{guard['origin_asn']:<6d} {guard['resilience']:6.1%}")
    lines += ["", "alpha   E[capture]   bandwidth distortion"]
    for e in r["selection_tradeoff"]:
        lines.append(
            f"{e['alpha']:5.2f}   {e['expected_capture']:8.1%}   "
            f"{e['bandwidth_distortion']:10.1%}"
        )
    lines += [
        "",
        "alpha blends resilience into guard weights (0 = vanilla Tor);",
        "capture falls as load-balancing distortion rises — §5's trade-off.",
    ]
    return "\n".join(lines)


def render_serve(r: Payload, plot: bool = False, aside: object = None) -> str:
    traffic, cache, pool, follow = r["traffic"], r["cache"], r["pool"], r["follow"]
    return "\n".join(
        [
            f"served {r['world']['ases']} ASes on "
            f"{r['address']['host']}:{r['address']['port']} (now stopped)",
            f"connections:     {traffic['connections']}",
            f"requests:        {traffic['requests']} "
            f"({traffic['batches']} batches, {traffic['queries']} queries, "
            f"{traffic['errors']} errors)",
            f"result cache:    {cache['entries']} entries, "
            f"{cache['hits']} hits, {cache['misses']} misses",
            f"route cache:     epoch {pool['epoch']}, "
            f"{pool['sessions']} trees, "
            f"{pool['hits']} hits, {pool['misses']} misses, "
            f"{pool['evictions']} evictions, {pool['repairs']} repairs",
            f"churn replay:    {follow['windows']} windows, "
            f"{follow['events']} link events",
        ]
    )
