"""Constant-memory run telemetry: online verification + streaming metrics.

The subsystem behind ``metrics_detail="telemetry"`` (see
:class:`repro.simulation.metrics.MetricsCollector`): big streamed runs keep
zero per-request/critical-section records yet still report

* real ``safety_ok``/``liveness_ok`` verdicts — checked online, at every CS
  enter/exit and request grant (:mod:`repro.telemetry.online`),
* p50/p90/p99 + mean/max of waiting time, CS hold time and
  messages-per-request from deterministic log-histogram sketches
  (:mod:`repro.telemetry.sketches`), and
* per-node fairness figures — Jain's index over grant counts, grant shares,
  max per-node starvation gap — from a bounded O(n) census riding the
  liveness watchdog's event stream (:mod:`repro.telemetry.fairness`), and
* an optional compact time series of engine progress, agenda size,
  in-flight messages and token location (:mod:`repro.telemetry.series`), and
* optional causal traces of deterministically head-sampled requests —
  issue → REQUEST hops → token hops → grant → exit — exportable as Chrome
  trace-event JSON (:mod:`repro.telemetry.tracing`).

:class:`RunTelemetry` (:mod:`repro.telemetry.collector`) is the per-run hub
that fans the metric hooks out to all of the above; :class:`TelemetryOptions`
is its JSON-serialisable configuration, carried declaratively by
:class:`repro.scenarios.ScenarioSpec`'s ``telemetry`` field.
"""

from repro.telemetry.collector import RunTelemetry, TelemetryOptions
from repro.telemetry.fairness import FairnessTracker
from repro.telemetry.online import OnlineLivenessWatchdog, OnlineSafetyChecker
from repro.telemetry.series import SERIES_COLUMNS, SeriesSampler
from repro.telemetry.sketches import LogHistogram
from repro.telemetry.tracing import (
    RequestTraceRecorder,
    chrome_trace_events,
    sample_request,
    trace_id_for,
)

__all__ = [
    "RunTelemetry",
    "TelemetryOptions",
    "OnlineSafetyChecker",
    "OnlineLivenessWatchdog",
    "FairnessTracker",
    "SeriesSampler",
    "SERIES_COLUMNS",
    "LogHistogram",
    "RequestTraceRecorder",
    "chrome_trace_events",
    "sample_request",
    "trace_id_for",
]
