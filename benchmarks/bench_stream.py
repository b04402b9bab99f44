#!/usr/bin/env python
"""Streaming-trace benchmark suite -> ``results/BENCH_stream.json``.

Gates the stream-first refactor of the trace pipeline (see
``docs/benchmarks.md`` for the document schema):

- **month equivalence** — the windowed ``TraceEngine.run``, with its
  batched per-epoch look-ahead, must produce a ``MonthTrace``
  bit-identical to the un-batched materialize-then-sort reference
  (``tests/oracle/trace.py``), record for record, session for session;
- **resume equivalence** — an :class:`ExposureConsumer` replay
  interrupted mid-run and resumed from its checkpoint must end in exactly
  the state of an uninterrupted replay (same samples, same qualified set,
  same damping state);
- **year scale** — 12 months over 10 collectors streamed through
  :func:`repro.bgpsim.stream.replay`; the acceptance criterion is that
  peak window memory (``peak_window_events``) stays flat as the trace
  grows from one month to a year while total records grow ~linearly;
- **RFD comparison** — dwell-qualified exposed-AS growth with damping
  off vs the Cisco and Juniper vendor defaults; the full run's 30-day
  table is ``results/E15_rfd.txt``, a ``--smoke`` run only prints its
  10-day table.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_stream.py --smoke   # CI gate

A full run writes ``results/BENCH_stream.json`` unless ``--out`` says
otherwise, and ``results/E15_rfd.txt`` whatever ``--out`` says; a
``--smoke`` run leaves ``results/`` alone and writes its document only to
an explicit ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.bgpsim.rfd import ExposureConsumer, RfdFilter, VENDORS  # noqa: E402
from repro.bgpsim.stream import DAY, replay  # noqa: E402
from repro.scenario import Scenario, ScenarioConfig  # noqa: E402
from tests.oracle.trace import ReferenceTraceEngine  # noqa: E402

from _report import report, write_document  # noqa: E402

SCHEMA_VERSION = 1


def _scenario(
    seed: int,
    duration_days: float,
    collectors: int,
    sessions_per_collector: int,
    **trace_overrides,
) -> Scenario:
    cfg = ScenarioConfig.small(seed=seed)
    cfg = dataclasses.replace(
        cfg,
        trace=dataclasses.replace(
            cfg.trace,
            duration_days=duration_days,
            collector_names=tuple(f"rrc{i:02d}" for i in range(collectors)),
            sessions_per_collector=sessions_per_collector,
            **trace_overrides,
        ),
    )
    return Scenario(cfg)


# -- gate 1: streamed MonthTrace == materialized MonthTrace ------------------


def month_equivalence(seed: int, duration_days: float) -> Dict:
    scenario = _scenario(seed, duration_days, collectors=4, sessions_per_collector=4)

    t0 = time.perf_counter()
    streamed = scenario.build_trace_engine().run()
    streamed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    materialized = ReferenceTraceEngine(
        scenario.graph,
        scenario.prefix_origins,
        scenario.tor_prefixes,
        scenario.config.trace,
    ).run_materialized()
    materialized_seconds = time.perf_counter() - t0

    defects: List[str] = []
    if streamed.sessions != materialized.sessions:
        defects.append("session rosters differ")
    if streamed.events != materialized.events:
        defects.append("ground-truth event logs differ")
    if streamed.session_prefixes != materialized.session_prefixes:
        defects.append("session prefix tables differ")
    records = 0
    for session in streamed.sessions:
        a = [
            (r.time, r.prefix, r.as_path, r.from_reset)
            for r in streamed.streams[session]
        ]
        b = [
            (r.time, r.prefix, r.as_path, r.from_reset)
            for r in materialized.streams[session]
        ]
        records += len(a)
        if a != b:
            defects.append(f"session {session}: record streams differ")
            if len(defects) > 5:
                break
    return {
        "duration_days": duration_days,
        "records": records,
        "sessions": len(streamed.sessions),
        "streamed_seconds": streamed_seconds,
        "materialized_seconds": materialized_seconds,
        "bit_identical": not defects,
        "defects": defects,
    }


# -- gate 2: checkpoint-resumed replay == uninterrupted ----------------------


class _InterruptAfter:
    """Aborts a replay after N consumed windows (simulated crash)."""

    class Interrupted(Exception):
        pass

    def __init__(self, inner, windows: int) -> None:
        self.inner = inner
        self.windows = windows
        self.consumed = 0

    def consume(self, window) -> None:
        if self.consumed >= self.windows:
            raise self.Interrupted
        self.inner.consume(window)
        self.consumed += 1

    def state(self) -> dict:
        return self.inner.state()

    def restore(self, state: dict) -> None:
        self.inner.restore(state)


def resume_equivalence(
    seed: int, duration_days: float, interrupt_after: int, checkpoint: str
) -> Dict:
    def consumer(scenario):
        stream = scenario.open_trace_stream()
        return stream, ExposureConsumer(
            stream.tor_prefixes, rfd=RfdFilter(VENDORS["cisco"])
        )

    scenario = _scenario(seed, duration_days, collectors=2, sessions_per_collector=4)
    stream, straight = consumer(scenario)
    replay(stream, straight, window_seconds=DAY)

    stream, partial = consumer(scenario)
    try:
        replay(
            stream,
            _InterruptAfter(partial, interrupt_after),
            window_seconds=DAY,
            checkpoint=checkpoint,
        )
        raise RuntimeError("interrupt never fired; shorten interrupt_after")
    except _InterruptAfter.Interrupted:
        pass

    stream, resumed = consumer(scenario)
    resumed_report = replay(
        stream, resumed, window_seconds=DAY, checkpoint=checkpoint, resume=True
    )

    identical = straight.state() == resumed.state()
    return {
        "duration_days": duration_days,
        "interrupted_after_windows": interrupt_after,
        "resumed_windows": resumed_report.resumed_windows,
        "replayed_windows": resumed_report.windows,
        "final_exposed_ases": len(resumed.qualified),
        "bit_identical": identical,
        "defects": [] if identical else ["resumed state differs from uninterrupted"],
    }


# -- gate 3: year-scale replay with flat window memory -----------------------


def year_scale(
    seed: int,
    month_days: float,
    months: List[int],
    collectors: int,
    sessions_per_collector: int,
    flatness_bound: float,
) -> Dict:
    rows = []
    for num_months in months:
        duration_days = month_days * num_months
        scenario = _scenario(seed, duration_days, collectors, sessions_per_collector)
        stream = scenario.open_trace_stream()
        consumer = ExposureConsumer(stream.tor_prefixes)
        t0 = time.perf_counter()
        rep = replay(stream, consumer, window_seconds=DAY)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "months": num_months,
                "duration_days": duration_days,
                "windows": rep.windows,
                "records": rep.records,
                "peak_window_events": rep.peak_window_events,
                "seconds": elapsed,
                "records_per_second": rep.records / elapsed if elapsed else None,
            }
        )
        print(
            f"  {num_months:>2} month(s): {rep.records:>9,} records in "
            f"{rep.windows} windows, peak window {rep.peak_window_events:,} "
            f"events, {elapsed:.1f}s"
        )

    peaks = [row["peak_window_events"] for row in rows]
    ratio = max(peaks) / min(peaks) if min(peaks) else float("inf")
    growth = rows[-1]["records"] / rows[0]["records"]
    flat = ratio <= flatness_bound
    return {
        "collectors": collectors,
        "sessions_per_collector": sessions_per_collector,
        "rows": rows,
        "peak_ratio": ratio,
        "records_growth": growth,
        "flatness_bound": flatness_bound,
        "flat": flat,
        "defects": []
        if flat
        else [
            f"peak window events grew {ratio:.2f}x across a {growth:.1f}x "
            f"longer trace (bound {flatness_bound}x)"
        ],
    }


# -- experiment: exposed-AS growth with and without RFD ----------------------


def rfd_comparison(
    seed: int,
    duration_days: float,
    collectors: int,
    sessions_per_collector: int,
    tor_flaps_median: float,
    write_e15: bool,
) -> Dict:
    # The Tor flap median is raised to the heavy-flapper regime of
    # Figure 3's tail — damping only engages on dense flap bursts, and
    # those prefixes are exactly where RFD could plausibly blunt the
    # paper's exposure growth.
    variants: Dict[str, Optional[str]] = {
        "undamped": None,
        "cisco": "cisco",
        "juniper": "juniper",
    }
    curves: Dict[str, List] = {}
    stats: Dict[str, Dict] = {}
    for name, vendor in variants.items():
        scenario = _scenario(
            seed,
            duration_days,
            collectors,
            sessions_per_collector,
            tor_flaps_median=tor_flaps_median,
        )
        stream = scenario.open_trace_stream()
        rfd = RfdFilter(VENDORS[vendor]) if vendor else None
        consumer = ExposureConsumer(stream.tor_prefixes, rfd=rfd)
        replay(stream, consumer, window_seconds=DAY)
        curves[name] = [[end / DAY, count] for end, count in consumer.samples]
        stats[name] = {
            "final_exposed_ases": len(consumer.qualified),
            "records_observed": consumer.records,
            "suppressed_records": rfd.suppressed_records if rfd else 0,
            "suppression_episodes": rfd.suppressions if rfd else 0,
        }

    lines = [
        f"E15: exposed-AS growth with and without route-flap damping",
        f"(small world seed {seed}, {duration_days:.0f} days, {collectors} "
        f"collectors x {sessions_per_collector} sessions, dwell >= 5 min, "
        f"tor flap median {tor_flaps_median:g}x — Figure 3's heavy-flap tail)",
        "",
        f"{'variant':<10} {'exposed ASes':>12} {'records seen':>13} "
        f"{'suppressed':>11} {'episodes':>9}",
    ]
    for name in variants:
        s = stats[name]
        lines.append(
            f"{name:<10} {s['final_exposed_ases']:>12,} "
            f"{s['records_observed']:>13,} {s['suppressed_records']:>11,} "
            f"{s['suppression_episodes']:>9,}"
        )
    lines += [
        "",
        "growth curves (day -> cumulative dwell-qualified exposed ASes):",
    ]
    days = [int(point[0]) for point in curves["undamped"]]
    step = max(1, len(days) // 12)
    lines.append(
        f"{'day':>5} " + " ".join(f"{name:>9}" for name in variants)
    )
    for i in range(0, len(days), step):
        lines.append(
            f"{days[i]:>5} "
            + " ".join(f"{int(curves[name][i][1]):>9,}" for name in variants)
        )
    undamped = stats["undamped"]["final_exposed_ases"]
    for vendor in ("cisco", "juniper"):
        kept = stats[vendor]["final_exposed_ases"] / undamped if undamped else 1.0
        lines.append(
            f"\n{vendor}: damping absorbs "
            f"{stats[vendor]['suppressed_records']:,} updates yet "
            f"{kept:.0%} of the undamped exposure remains"
        )
    if write_e15:
        report("E15_rfd", lines)
    else:
        print("\n".join(lines))

    defects: List[str] = []
    for vendor in ("cisco", "juniper"):
        s = stats[vendor]
        # Each suppression episode absorbs its records but may add up to
        # two synthetic events (the withdrawal on entry, the re-announce
        # on release) — that is the only way damping can add records.
        ceiling = (
            stats["undamped"]["records_observed"]
            - s["suppressed_records"]
            + 2 * s["suppression_episodes"]
        )
        if s["records_observed"] > ceiling:
            defects.append(
                f"{vendor} observed {s['records_observed']} records, above the "
                f"absorb/synthesize ceiling {ceiling}"
            )
        if s["final_exposed_ases"] > stats["undamped"]["final_exposed_ases"]:
            defects.append(f"{vendor} exposure exceeds undamped exposure")
    return {
        "duration_days": duration_days,
        "collectors": collectors,
        "stats": stats,
        "curves": curves,
        "defects": defects,
    }


def run_suite(args) -> Dict:
    if args.smoke:
        month_days = 5.0
        months = [1, 2]
        equivalence_days = 5.0
        resume_days = 4.0
        rfd_days, rfd_flaps = 10.0, 20.0
        collectors, sessions = 4, 2
        flatness_bound = 2.0
    else:
        month_days = 30.0
        months = [1, 6, 12]
        equivalence_days = 30.0
        resume_days = 20.0
        rfd_days, rfd_flaps = 30.0, 20.0
        collectors, sessions = 10, 2
        flatness_bound = 1.5

    print("month equivalence (streamed vs materialized)...")
    equivalence = month_equivalence(args.seed, equivalence_days)
    print(
        f"  {equivalence['records']:,} records over "
        f"{equivalence['sessions']} sessions: "
        f"{'bit-identical' if equivalence['bit_identical'] else 'DIVERGED'} "
        f"(streamed {equivalence['streamed_seconds']:.1f}s, "
        f"materialized {equivalence['materialized_seconds']:.1f}s)"
    )

    print("resume equivalence (checkpointed replay)...")
    with tempfile.TemporaryDirectory() as tmpdir:
        resume = resume_equivalence(
            args.seed,
            resume_days,
            interrupt_after=2,
            checkpoint=os.path.join(tmpdir, "bench_stream.ckpt"),
        )
    print(
        f"  resumed past {resume['resumed_windows']} windows, replayed "
        f"{resume['replayed_windows']}: "
        f"{'bit-identical' if resume['bit_identical'] else 'DIVERGED'}"
    )

    print(f"year scale ({months} month(s) x {collectors} collectors)...")
    scale = year_scale(
        args.seed, month_days, months, collectors, sessions, flatness_bound
    )
    print(
        f"  peak window ratio {scale['peak_ratio']:.2f}x across "
        f"{scale['records_growth']:.1f}x more records "
        f"(bound {flatness_bound}x: {'pass' if scale['flat'] else 'FAIL'})"
    )

    print("RFD comparison (undamped vs cisco vs juniper)...")
    rfd = rfd_comparison(
        args.seed,
        rfd_days,
        collectors=4,
        sessions_per_collector=2,
        tor_flaps_median=rfd_flaps,
        write_e15=not args.smoke,
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "stream",
        "generated_by": "benchmarks/bench_stream.py",
        "mode": "smoke" if args.smoke else "full",
        "config": {"seed": args.seed},
        "month_equivalence": equivalence,
        "resume_equivalence": resume,
        "year_scale": scale,
        "rfd_comparison": rfd,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        help="where to write the JSON document; a full run defaults to "
             "results/, a --smoke run writes only to an explicit --out",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short durations, small fan-out (the CI equivalence gate)",
    )
    args = parser.parse_args(argv)

    document = run_suite(args)

    write_document(document, "BENCH_stream.json", args.out, args.smoke)

    defects = (
        document["month_equivalence"]["defects"]
        + document["resume_equivalence"]["defects"]
        + document["year_scale"]["defects"]
        + document["rfd_comparison"]["defects"]
    )
    if defects:
        print("STREAMING GATES FAILED:", file=sys.stderr)
        for defect in defects:
            print(f"  - {defect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
