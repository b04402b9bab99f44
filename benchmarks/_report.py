"""Shared reporting for the benchmark harness.

Each experiment prints the rows/series the paper reports and also writes
them to ``results/<experiment>.txt`` so EXPERIMENTS.md can quote measured
values from a reproducible artefact.  The ``bench_*.py`` scripts write
their JSON documents through :func:`write_document`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Mapping, Optional

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def report(experiment: str, lines: Iterable[str]) -> None:
    """Print an experiment's result block and persist it to results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    banner = f"\n===== {experiment} ====="
    print(banner)
    print(text)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as fh:
        fh.write(text + "\n")


def write_document(
    document: Mapping[str, object], name: str, out: Optional[str], smoke: bool
) -> None:
    """Write a benchmark's JSON document.

    A full run writes ``results/<name>`` unless ``out`` names another
    file.  A smoke run leaves ``results/`` alone and writes only to an
    explicit ``out``.  ``out`` may be a bare file name.
    """
    if out is None:
        if smoke:
            print("smoke run: no document written (pass --out to keep one)")
            return
        out = os.path.join(RESULTS_DIR, name)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
