"""One run of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Builds the workload's inputs, runs its timed phase once, checks its
outputs, and prints one JSON object on stdout.  ``run.py`` starts this
process several times per benchmark run; the parent measures set-up time
from the moment it started the process to ``timed_start`` (both on the
system-wide monotonic clock).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the traced pass's layers must account for its wall time within this share
ATTRIBUTION_TOLERANCE = 0.05
LAYERS = ("tor", "asgraph", "bgpsim", "analysis", "core", "serve", "other")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, tracer)
    out = {"workload": args.workload, "seed": args.seed, "traced": args.trace}
    try:
        if args.trace:
            workload.instrument()
        workload.setup()
        gc.collect()  # every timed phase starts from a collected heap
        if args.trace:
            tracer.start_run()
            tracer.watch_gc()
            tracer.enter("run")
        out["timed_start"] = time.monotonic()
        if args.setup_only:
            print(json.dumps(out))
            return 0
        t0 = time.perf_counter()
        workload.run()
        run_s = time.perf_counter() - t0
        if args.trace:
            tracer.exit()
            tracer.unwatch_gc()
            tracer.unwrap_all()
        workload.close()
        rss_mb = workload.peak_rss_mb()
        problems = workload.check()
        out.update(
            run_s=run_s,
            attempted=workload.attempted,
            failed=workload.failed,
            counts=workload.counts,
            peak_rss_mb=rss_mb,
            problems=problems,
        )
        if args.trace:
            out["layers"] = _layer_report(workload, tracer, run_s)
            out["problems"] = problems + out["layers"].pop("problems")
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def _layer_report(workload, tracer: Tracer, run_s: float) -> dict:
    layers = tracer.layer_self("run")
    report = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    report["span.other_s"] = report.pop("other.self_s")
    report["gc.pause_s"] = tracer.gc_pause_s
    report["gc.collections_gen2"] = tracer.gc_collections[2]
    report.update(workload.layer_metrics())
    attributed = sum(layers.values())
    problems = []
    if abs(attributed - run_s) > ATTRIBUTION_TOLERANCE * run_s:
        problems.append(
            f"layer self times sum to {attributed:.3f} s of a {run_s:.3f} s traced run"
        )
    if any(v < -1e-6 for k, v in report.items() if k.endswith("self_s")):
        problems.append("a layer has negative self time")
    report["absent"] = list(tracer.absent)
    report["problems"] = problems
    return report


if __name__ == "__main__":
    sys.exit(main())
