"""Golden files pinning the CLI's text and ``--json`` output.

Every command but ``trace`` runs end to end: ``serve`` as a subprocess
that a client stops with ``shutdown``, the others in process.  ``trace``
and ``trace --stream`` text is rendered from fixed payloads, because a
month trace can replay differently on another interpreter.  Values that differ
from run to run are masked before comparison: ``serve``'s port and
``population``'s throughput.

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
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import pytest

from repro.cli import main
from repro.cli.render import render_stream_trace, render_trace
from repro.serve.client import ServeClient

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: what a masked run-dependent value reads as
MASK = "<masked>"

#: name -> argv of the live in-process runs, each pinned as text and JSON
COMMANDS = {
    "info": ["info"],
    "attack": ["attack", "--top", "2"],
    "transfer": ["transfer", "--size", "500000"],
    "rov": ["rov"],
    "population": [
        "population", "--users", "200", "--client-ases", "8",
        "--days", "5", "--circuits-per-day", "3",
    ],
    "resilience": ["resilience", "--attackers", "10", "--top", "3"],
    "users": ["users", "--clients", "3", "--days", "4"],
    "users_seed3": ["--seed", "3", "users", "--clients", "6", "--days", "8"],
}

#: name -> extra argv of the ``serve`` runs, each pinned as text and JSON
SERVE = {
    "serve": [],
    "serve_follow": ["--follow", "2", "--follow-window-days", "0.5"],
}

#: name -> argv of live runs pinned as text only
TEXT_COMMANDS = {
    "transfer_plot": ["transfer", "--size", "500000", "--plot"],
}

#: a fixed ``trace`` payload
TRACE = {
    "sessions": 24,
    "records_after_reset_removal": 18_233,
    "path_change_ratio": {
        "p_greater_1": 0.5833333333333334,
        "max": 2417.5,
        "ccdf": [[0.25, 0.9], [1.0, 0.58], [3.0, 0.2], [2417.5, 0.0]],
    },
    "extra_ases": {
        "p_at_least_2": 0.5,
        "p_greater_5": 0.0833333333333333,
        "median": 2.0,
        "ccdf": [[0.0, 0.75], [2.0, 0.5], [6.0, 0.08], [9.0, 0.0]],
    },
}


#: name -> a fixed ``trace-stream`` payload: RFD off, RFD on, resumed windows
STREAMS = {
    "trace_stream": {
        "duration_days": 30.0,
        "collectors": 2,
        "sessions": 6,
        "rfd_vendor": None,
        "replay": {
            "windows": 30,
            "window_days": 1.0,
            "records": 48_213,
            "peak_window_events": 2_917,
            "resumed_windows": 0,
            "checkpoint": None,
        },
        "rfd": {"suppressed_records": 0, "suppression_episodes": 0},
        "exposure": {
            "final_exposed_ases": 97,
            "curve": [[float(d), 40 + 2 * d - d // 7] for d in range(1, 31)],
        },
    },
    "trace_stream_rfd": {
        "duration_days": 3.5,
        "collectors": 1,
        "sessions": 3,
        "rfd_vendor": "cisco",
        "replay": {
            "windows": 7,
            "window_days": 0.5,
            "records": 5_120,
            "peak_window_events": 911,
            "resumed_windows": 0,
            "checkpoint": None,
        },
        "rfd": {"suppressed_records": 1_404, "suppression_episodes": 37},
        "exposure": {
            "final_exposed_ases": 41,
            "curve": [
                [0.5, 12], [1.0, 19], [1.5, 25], [2.0, 30], [2.5, 34], [3.0, 38], [3.5, 41],
            ],
        },
    },
    "trace_stream_resumed": {
        "duration_days": 12.0,
        "collectors": 3,
        "sessions": 9,
        "rfd_vendor": "juniper",
        "replay": {
            "windows": 12,
            "window_days": 1.0,
            "records": 20_007,
            "peak_window_events": 2_250,
            "resumed_windows": 5,
            "checkpoint": "trace.ckpt",
        },
        "rfd": {"suppressed_records": 96, "suppression_episodes": 4},
        "exposure": {
            "final_exposed_ases": 66,
            "curve": [[float(d), 30 + 3 * d] for d in range(1, 13)],
        },
    },
}


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _serve(extra: List[str]) -> Tuple[str, str]:
    """Run ``repro serve`` until a client sends ``shutdown``: (stdout, port)."""
    with tempfile.TemporaryDirectory() as tmp:
        ready = os.path.join(tmp, "ready")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--ready-file", ready, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        try:
            deadline = time.monotonic() + 120.0
            while True:
                if os.path.exists(ready):
                    with open(ready) as fh:
                        address = fh.read()
                    if address.endswith("\n"):
                        break
                assert proc.poll() is None, f"serve exited with {proc.returncode}"
                assert time.monotonic() < deadline, "serve not ready after 120 s"
                time.sleep(0.01)
            host, port = address.strip().rsplit(":", 1)
            with ServeClient.connect(host, int(port)) as client:
                assert client.shutdown()
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert proc.returncode == 0
    return out, port


def _masked_json(text: str, *path: str) -> str:
    """``text``'s JSON document with the value at ``path`` masked."""
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = MASK
    return json.dumps(doc, indent=2) + "\n"


@functools.lru_cache(maxsize=None)
def outputs() -> Dict[str, str]:
    """Every pinned output, keyed by its golden file name."""
    docs = {}
    for name, argv in COMMANDS.items():
        docs[f"{name}.txt"] = _cli(argv)
        docs[f"{name}.json"] = _cli(argv + ["--json"])
    for name, argv in TEXT_COMMANDS.items():
        docs[f"{name}.txt"] = _cli(argv)

    docs["population.txt"] = "".join(
        f"throughput: {MASK}\n" if line.startswith("throughput: ") else line
        for line in docs["population.txt"].splitlines(keepends=True)
    )
    docs["population.json"] = _masked_json(
        docs["population.json"], "result", "user_days_per_sec"
    )

    for name, extra in SERVE.items():
        text, port = _serve(extra)
        docs[f"{name}.txt"] = text.replace(f":{port} ", f":{MASK} ")
        text, _port = _serve(extra + ["--json"])
        docs[f"{name}.json"] = _masked_json(text, "result", "address", "port")

    docs["trace.txt"] = render_trace(TRACE) + "\n"
    docs["trace_plot.txt"] = render_trace(TRACE, plot=True) + "\n"
    for name, payload in STREAMS.items():
        docs[f"{name}.txt"] = render_stream_trace(payload) + "\n"
    return docs


def golden_names() -> List[str]:
    return sorted(
        [f"{n}.{ext}" for n in COMMANDS for ext in ("txt", "json")]
        + [f"{n}.txt" for n in TEXT_COMMANDS]
        + [f"{n}.{ext}" for n in SERVE for ext in ("txt", "json")]
        + ["trace.txt", "trace_plot.txt"]
        + [f"{n}.txt" for n in STREAMS]
    )


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


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        want = fh.read()
    got = outputs()[name]
    if name.endswith(".json"):
        assert_same(json.loads(got), json.loads(want))
    else:
        assert got == want


def test_every_golden_file_is_pinned():
    assert sorted(os.listdir(GOLDEN_DIR)) == golden_names()


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
