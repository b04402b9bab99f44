"""Event-driven BGP simulation, route collectors, traces, and attacks.

Two complementary engines live here:

- :mod:`repro.bgpsim.simulator` — a message-level, event-driven BGP
  simulator (per-AS RIBs, policy import/export, per-link delays).  It
  reproduces *convergence behaviour*: path exploration, transient routes,
  and the dynamics of hijack propagation.  Use it for small and medium
  topologies.
- :mod:`repro.bgpsim.trace` — a month-scale trace engine that recomputes
  stable Gao-Rexford outcomes around injected events and emits the
  resulting update streams at RIPE-style collectors.  It trades message
  fidelity for the ability to simulate a month of churn over thousands of
  prefixes in seconds, and is what the Figure 3 reproductions run on.

:mod:`repro.bgpsim.attacks` implements §3.2's prefix hijack, more-specific
hijack, interception and community-scoped stealth attacks on the
Gao-Rexford model.
"""

from repro.bgpsim.messages import Announcement, UpdateMessage, Withdrawal
from repro.bgpsim.rib import AdjRibIn, LocRib, decision_process
from repro.bgpsim.simulator import BGPSimulator, SimulatorConfig
from repro.bgpsim.collector import (
    Collector,
    CollectorSession,
    IterSource,
    RecordTables,
    StreamEvent,
    UpdateRecord,
    UpdateSource,
    UpdateStream,
    merge_sources,
    merge_streams,
)
from repro.bgpsim.stream import (
    ReplayReport,
    Window,
    WindowOverflowError,
    iter_windows,
    replay,
)
from repro.bgpsim.trace import (
    MonthTrace,
    MonthTraceBuilder,
    TraceConfig,
    TraceEngine,
    TraceStream,
)
from repro.bgpsim.rfd import ExposureConsumer, RfdConfig, RfdFilter, VENDORS
from repro.bgpsim.attacks import (
    AttackKind,
    HijackResult,
    simulate_hijack,
    simulate_interception,
)
from repro.bgpsim.resets import (
    ResetDetectionConfig,
    detect_resets,
    remove_reset_artifacts,
)
from repro.bgpsim.mrt import iter_records, write_records
from repro.bgpsim.rpki import Roa, RpkiRegistry, simulate_hijack_with_rov, adoption_sweep

__all__ = [
    "Announcement",
    "Withdrawal",
    "UpdateMessage",
    "AdjRibIn",
    "LocRib",
    "decision_process",
    "BGPSimulator",
    "SimulatorConfig",
    "Collector",
    "CollectorSession",
    "IterSource",
    "RecordTables",
    "StreamEvent",
    "UpdateRecord",
    "UpdateSource",
    "UpdateStream",
    "merge_sources",
    "merge_streams",
    "ReplayReport",
    "Window",
    "WindowOverflowError",
    "iter_windows",
    "replay",
    "TraceConfig",
    "TraceEngine",
    "TraceStream",
    "MonthTrace",
    "MonthTraceBuilder",
    "RfdConfig",
    "RfdFilter",
    "ExposureConsumer",
    "VENDORS",
    "AttackKind",
    "HijackResult",
    "simulate_hijack",
    "simulate_interception",
    "ResetDetectionConfig",
    "detect_resets",
    "remove_reset_artifacts",
    "iter_records",
    "write_records",
    "Roa",
    "RpkiRegistry",
    "simulate_hijack_with_rov",
    "adoption_sweep",
]
