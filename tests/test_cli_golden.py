"""Golden files pinning the CLI's text and ``--json`` output.

``repro users`` runs end to end.  The ``--json`` documents of ``attack``,
``rov`` and ``serve`` and the text of ``trace`` are built from fixed
result objects, so they do not depend on a replayed month trace.

JSON is compared after parsing: floats with ``math.isclose(rel_tol=1e-12)``
(builtin ``sum`` is compensated from Python 3.12 on), everything else,
key order included, exactly.  Text is compared exactly.

After a deliberate output change, rewrite the files with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from typing import Dict

import pytest

from repro.cli import main
from repro.cli.render import render_trace
from repro.cli.results import (
    AttackResult,
    RovResult,
    ServeResult,
    SweepInfo,
    TargetInfo,
    TraceResult,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: name -> argv of the live runs
COMMANDS = {
    "users": ["users", "--clients", "3", "--days", "4"],
    "users_seed3": ["--seed", "3", "users", "--clients", "6", "--days", "8"],
}

FIXED = {
    "attack": AttackResult(
        attacker_asn=21,
        top_targets=(
            TargetInfo("10.1.0.0/16", 4201, 0.0731234567891),
            TargetInfo("10.7.128.0/17", 317, 1 / 3),
        ),
        sweeps=(
            SweepInfo("hijack", 0.5123456789, 2, 2),
            SweepInfo("interception", 0.1, 1, 2),
        ),
        guard_coverage=0.25,
        exit_coverage=2 / 7,
        circuit_coverage=0.0714285714,
        top_k=2,
    ),
    "rov": RovResult(
        prefix="10.1.0.0/16",
        origin_asn=4201,
        attacker_asn=21,
        rows=((0.0, 0.6, 0.6), (0.5, 0.2999999999999999, 0.6), (1.0, 0.0, 0.6)),
    ),
    "serve": ServeResult(
        host="127.0.0.1",
        port=48211,
        num_ases=120,
        connections=3,
        requests=17,
        batches=9,
        queries=211,
        errors=1,
        cache_entries=40,
        cache_hits=150,
        cache_misses=61,
        epoch=16,
        pool_sessions=12,
        pool_hits=88,
        pool_misses=23,
        pool_evictions=2,
        pool_repairs=5,
        follow_windows=16,
        follow_events=31,
    ),
}

TRACE = TraceResult(
    num_sessions=24,
    num_records=18_233,
    ratio_p_gt_1=0.5833333333333334,
    ratio_max=2417.5,
    extra_p_ge_2=0.5,
    extra_p_gt_5=0.0833333333333333,
    extra_median=2.0,
    ratio_ccdf=((0.25, 0.9), (1.0, 0.58), (3.0, 0.2), (2417.5, 0.0)),
    extra_ccdf=((0.0, 0.75), (2.0, 0.5), (6.0, 0.08), (9.0, 0.0)),
)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def outputs() -> Dict[str, str]:
    """Every pinned output, keyed by its golden file name."""
    docs = {}
    for name, argv in COMMANDS.items():
        docs[f"{name}.txt"] = _cli(argv)
        docs[f"{name}.json"] = _cli(argv + ["--json"])
    for name, result in FIXED.items():
        document = result.document(seed=3, scale="small")
        docs[f"{name}.json"] = json.dumps(document, indent=2) + "\n"
    docs["trace.txt"] = render_trace(TRACE) + "\n"
    docs["trace_plot.txt"] = render_trace(TRACE, plot=True) + "\n"
    return docs


def assert_same(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "name",
    sorted(
        [f"{n}.{ext}" for n in COMMANDS for ext in ("txt", "json")]
        + [f"{n}.json" for n in FIXED]
        + ["trace.txt", "trace_plot.txt"]
    ),
)
def test_output_matches_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        want = fh.read()
    got = outputs()[name]
    if name.endswith(".json"):
        assert_same(json.loads(got), json.loads(want))
    else:
        assert got == want


def test_float_comparison_is_relative():
    assert_same({"a": [1.0, None]}, {"a": [1.0 + 1e-15, None]})
    with pytest.raises(AssertionError):
        assert_same({"a": 1.0}, {"a": 1.0 + 1e-9})
    with pytest.raises(AssertionError):
        assert_same({"a": 1}, {"a": 1.0})
    with pytest.raises(AssertionError):
        assert_same({"a": 1, "b": 2}, {"b": 2, "a": 1})


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in outputs().items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
            fh.write(text)
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}")
