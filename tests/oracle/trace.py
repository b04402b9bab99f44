"""Reference month trace: no look-ahead, materialized then sorted.

:class:`repro.bgpsim.trace.TraceEngine` streams its records through a
heap and, before each core epoch, resolves the epoch's routes in batched
kernel runs.  :class:`ReferenceTraceEngine` does neither: its look-ahead
does nothing, so every route-cache miss is one ``compute_routes_fast``
run at the moment the replay asks, and :meth:`run_materialized` collects
every pending record in one list, sorts it and builds the streams.  Both
consume the trace RNG identically, so a streamed run must equal this one
record for record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.prefixes import Prefix
from repro.bgpsim.collector import SessionId, UpdateRecord, UpdateStream
from repro.bgpsim.trace import MonthTrace, TraceEngine

__all__ = ["ReferenceTraceEngine"]


class ReferenceTraceEngine(TraceEngine):
    """A :class:`TraceEngine` that resolves every route when it is asked for."""

    def _look_ahead(self, reroutes, excluded_core, current_path) -> None:
        """Resolve nothing ahead: each miss is computed on its own."""

    def run_materialized(self) -> MonthTrace:
        """The whole trace: every record collected, sorted, then split by session."""
        cfg = self.config
        pending: List[Tuple[float, Prefix, Optional[Tuple[int, ...]], bool, SessionId]] = []
        prep = self._prepare(pending)
        for time, kind, detail in prep.schedule:
            self._apply_event(time, kind, detail, prep, pending)

        streams: Dict[SessionId, UpdateStream] = {
            s: UpdateStream(s) for s in prep.sessions
        }
        pending.sort(key=lambda item: item[0])
        for emit_time, prefix, path, from_reset, session in pending:
            if emit_time > cfg.duration:
                continue
            streams[session].append(UpdateRecord(emit_time, prefix, path, from_reset))
        return MonthTrace(
            streams=streams,
            collectors=prep.collectors,
            prefix_origins=dict(self.prefix_origins),
            tor_prefixes=self.tor_prefixes,
            duration=cfg.duration,
            events=prep.events_gt,
            session_prefixes=prep.session_prefixes,
            observer_sessions=prep.observer_sessions,
        )
