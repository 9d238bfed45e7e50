"""Metrics collection for simulation runs.

The paper's quantitative claims are *message counts*: messages per request in
the failure-free case, extra messages per failure in the fault-tolerant case.
The :class:`MetricsCollector` therefore counts every send (classified by
message type and by sender), records every critical-section entry/exit,
every request issue/grant pair, and every injected failure, so the experiment
harness can compute those quantities without instrumenting the algorithms
themselves.

Detail modes
------------

Every mode counts a send with the same three integer counters
(``messages_by_kind``, ``messages_by_sender``, the global total); no mode
keeps a record per message, so memory never grows with the message count.

``MetricsCollector(detail="full")`` (the default) keeps one
:class:`RequestRecord` per request and one :class:`CriticalSectionInterval`
per critical-section entry — memory O(requests) — and is the mode the
record-based safety/liveness analysis (:mod:`repro.verification`) runs on.

``detail="counters"`` keeps exactly the same records as full mode, so every
aggregate in :meth:`MetricsCollector.summary` — totals, per-kind breakdown,
per-request message attribution, waiting times — is identical; the only
difference is that :func:`repro.experiments.runner.run_workload` *skips* the
record-based safety/liveness analysis in this mode and reports
``safety_ok/liveness_ok/analysis_ok = None`` ("not analysed", never a hollow
``True``).

``detail="telemetry"`` is the constant-memory scale mode: no
:class:`RequestRecord` or :class:`CriticalSectionInterval` lists at all.
Instead the collector owns a :class:`~repro.telemetry.collector.RunTelemetry`
hub that checks safety/liveness *online* (every CS enter/exit and grant) and
folds waiting time, CS hold time and messages-per-request into streaming
quantile sketches — so scale runs report real ``safety_ok``/``liveness_ok``
booleans and p50/p90/p99 distributions in O(1) memory per metric.
:meth:`summary` stays aggregate-identical to the other modes; the
record-returning helpers (``requests``, ``satisfied_requests()``,
``messages_per_request()``) return empty containers, by design.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.telemetry.collector import RunTelemetry, TelemetryOptions

__all__ = [
    "CriticalSectionInterval",
    "RequestRecord",
    "MetricsCollector",
]


@dataclass(slots=True)
class CriticalSectionInterval:
    """One critical-section occupancy interval of a node."""

    node: int
    entered_at: float
    exited_at: float | None = None


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one critical-section request.

    ``slots=True`` because scale runs keep one of these per request — at
    524k requests the per-instance ``__dict__`` alone is worth ~100 MB of
    the sweep's RSS high-water mark.

    """

    request_id: int
    node: int
    issued_at: float
    granted_at: float | None = None
    released_at: float | None = None
    messages_at_issue: int = 0
    messages_at_grant: int | None = None

    @property
    def satisfied(self) -> bool:
        """Whether the request was eventually granted."""
        return self.granted_at is not None

    @property
    def waiting_time(self) -> float | None:
        """Time between issuing the request and entering the CS."""
        if self.granted_at is None:
            return None
        return self.granted_at - self.issued_at


class MetricsCollector:
    """Accumulates counters and per-request records during a run.

    Args:
        detail: ``"full"`` and ``"counters"`` keep the per-request and
            critical-section records (memory O(requests)) and differ only in
            whether the run is analysed afterwards; ``"telemetry"`` also
            drops those records and streams everything through a
            :class:`~repro.telemetry.collector.RunTelemetry` hub (see the
            module docstring).
        telemetry_options: configuration of the telemetry hub
            (:class:`~repro.telemetry.collector.TelemetryOptions` or its
            dict form); only valid with ``detail="telemetry"``.
    """

    def __init__(
        self,
        detail: str = "full",
        *,
        telemetry_options: TelemetryOptions | Mapping[str, Any] | None = None,
    ) -> None:
        if detail not in ("full", "counters", "telemetry"):
            raise ConfigurationError(
                f"detail must be 'full', 'counters' or 'telemetry', got {detail!r}"
            )
        if telemetry_options is not None and detail != "telemetry":
            raise ConfigurationError(
                f"telemetry_options only apply to detail='telemetry', got {detail!r}"
            )
        self.detail = detail
        self._total_sent: int = 0
        #: Always empty: sends are only counted, never recorded one by one.
        #: Kept because benchmark drivers still read its length.
        self.sent_messages: list[Any] = []
        self.messages_by_kind: Counter[str] = Counter()
        self.messages_by_sender: Counter[int] = Counter()
        self.dropped_messages: int = 0
        #: Adversarial network-fault tallies (``repro.simulation.network
        #: .NetworkFaults``): messages eaten by loss, extra deliveries
        #: injected by duplication, messages severed by an active partition.
        #: Maintained by the cluster's fault-aware send path in every detail
        #: mode; ``network_faults_active`` gates their appearance in
        #: :meth:`summary` so fault-free summaries (and the golden digests
        #: computed over them) are byte-identical to the pre-fault engine.
        self.lost_messages: int = 0
        self.duplicated_messages: int = 0
        self.blocked_messages: int = 0
        self.network_faults_active: bool = False
        self.cs_intervals: list[CriticalSectionInterval] = []
        self.requests: dict[int, RequestRecord] = {}
        self.requests_issued_count: int = 0
        self.requests_granted_count: int = 0
        self.failures: list[tuple[float, int]] = []
        self.recoveries: list[tuple[float, int]] = []
        self.custom: dict[str, Any] = {}
        self._open_cs: dict[int, CriticalSectionInterval] = {}
        #: The online-telemetry hub; ``None`` outside telemetry mode.
        self.telemetry: RunTelemetry | None = None
        if detail == "telemetry":
            self.telemetry = RunTelemetry(telemetry_options)
            # Shadow the per-request/CS hooks so the hot path pays no
            # per-call mode branch: telemetry variants keep no records and
            # feed the hub instead.
            self.record_request_issued = self._record_request_issued_telemetry  # type: ignore[method-assign]
            self.record_request_granted = self._record_request_granted_telemetry  # type: ignore[method-assign]
            self.record_request_released = self._record_request_released_telemetry  # type: ignore[method-assign]
            self.record_cs_enter = self._record_cs_enter_telemetry  # type: ignore[method-assign]
            self.record_cs_exit = self._record_cs_exit_telemetry  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Recording hooks (called by the simulator / cluster)
    # ------------------------------------------------------------------
    def record_send(
        self, time: float, sender: int, dest: int, kind: str, dropped: bool = False
    ) -> None:
        """Count a message send; ``dropped`` marks sends to failed nodes.

        NOTE: simulated sends do NOT go through this method — the cluster
        inlines the same counter updates into its one send function
        (``SimulatedCluster._make_send``; each node sends through a
        ``partial`` of it) to avoid a per-message frame.  A new or changed
        counter must be mirrored there.
        """
        self._total_sent += 1
        self.messages_by_kind[kind] += 1
        self.messages_by_sender[sender] += 1
        if dropped:
            self.dropped_messages += 1

    def record_request_issued(self, request_id: int, node: int, time: float) -> None:
        """Record the moment a node asks to enter the critical section."""
        self.requests_issued_count += 1
        self.requests[request_id] = RequestRecord(
            request_id=request_id,
            node=node,
            issued_at=time,
            messages_at_issue=self._total_sent,
        )

    def _record_request_issued_telemetry(self, request_id: int, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_issued`: hub only, no record."""
        self.requests_issued_count += 1
        self.telemetry.on_issue(request_id, node, time, self._total_sent)

    def record_request_granted(self, request_id: int, time: float) -> None:
        """Record the moment the corresponding critical section is entered."""
        record = self.requests.get(request_id)
        if record is None:
            return
        if record.granted_at is None:
            self.requests_granted_count += 1
        record.granted_at = time
        record.messages_at_grant = self._total_sent

    def _record_request_granted_telemetry(self, request_id: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_granted`."""
        if self.telemetry.on_grant(request_id, time):
            self.requests_granted_count += 1

    def record_request_released(self, request_id: int, time: float) -> None:
        """Record the moment the corresponding critical section is left."""
        record = self.requests.get(request_id)
        if record is not None:
            record.released_at = time

    def _record_request_released_telemetry(self, request_id: int, time: float) -> None:
        """Telemetry-mode :meth:`record_request_released`: nothing to keep —
        hold times are measured at the CS enter/exit hooks."""

    def record_cs_enter(self, node: int, time: float) -> None:
        """Record a critical-section entry (for the safety checker)."""
        interval = CriticalSectionInterval(node=node, entered_at=time)
        self.cs_intervals.append(interval)
        self._open_cs[node] = interval

    def _record_cs_enter_telemetry(self, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_cs_enter`: online safety check."""
        self.telemetry.on_cs_enter(node, time)

    def record_cs_exit(self, node: int, time: float) -> None:
        """Record a critical-section exit."""
        interval = self._open_cs.pop(node, None)
        if interval is not None:
            interval.exited_at = time

    def _record_cs_exit_telemetry(self, node: int, time: float) -> None:
        """Telemetry-mode :meth:`record_cs_exit`."""
        self.telemetry.on_cs_exit(node, time)

    def record_failure(self, node: int, time: float) -> None:
        """Record an injected fail-stop failure."""
        self.failures.append((time, node))
        if self.telemetry is not None:
            self.telemetry.on_failure(node, time)

    def record_recovery(self, node: int, time: float) -> None:
        """Record a node recovery."""
        self.recoveries.append((time, node))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def total_messages(self, *, include_dropped: bool = True) -> int:
        """Total number of messages sent so far."""
        if include_dropped:
            return self._total_sent
        return self._total_sent - self.dropped_messages

    def messages_of_kinds(self, kinds: set[str] | frozenset[str]) -> int:
        """Total number of messages whose kind is in ``kinds``."""
        return sum(count for kind, count in self.messages_by_kind.items() if kind in kinds)

    def satisfied_requests(self) -> list[RequestRecord]:
        """Return the requests that were granted, ordered by grant time."""
        granted = [r for r in self.requests.values() if r.granted_at is not None]
        granted.sort(key=lambda r: r.granted_at)
        return granted

    def unsatisfied_requests(self) -> list[RequestRecord]:
        """Return the requests never granted during the run."""
        return [r for r in self.requests.values() if r.granted_at is None]

    def messages_per_request(self) -> list[int]:
        """Messages attributable to each request, in issue order.

        For *serial* workloads (at most one outstanding request at a time,
        spaced widely enough that all traffic of a request — including the
        possible token-return message after the critical section — settles
        before the next request is issued) this is exact: request ``k`` is
        charged every message sent between its issue and the next issue (or
        the end of the run for the last request).  For concurrent workloads
        use :meth:`mean_messages_per_request`, which divides the total
        traffic by the number of grants instead.
        """
        ordered = sorted(self.requests.values(), key=lambda r: r.issued_at)
        counts: list[int] = []
        for record, successor in zip(ordered, ordered[1:]):
            counts.append(successor.messages_at_issue - record.messages_at_issue)
        if ordered:
            counts.append(self.total_messages() - ordered[-1].messages_at_issue)
        return counts

    def mean_messages_per_request(self) -> float:
        """Total messages divided by the number of granted requests."""
        if not self.requests_granted_count:
            return 0.0
        return self.total_messages() / self.requests_granted_count

    def mean_waiting_time(self) -> float:
        """Average time between issuing a request and entering the CS.

        In telemetry mode this comes from the streaming sketch's exact
        running sum — same additions in the same (grant) order as the
        record-based computation, so the value is identical.
        """
        if self.telemetry is not None:
            return self.telemetry.waiting_time.mean
        waits = [r.waiting_time for r in self.satisfied_requests() if r.waiting_time is not None]
        if not waits:
            return 0.0
        return sum(waits) / len(waits)

    def per_node_request_counts(self) -> dict[int, int]:
        """Number of requests issued by each node."""
        counts: dict[int, int] = defaultdict(int)
        for record in self.requests.values():
            counts[record.node] += 1
        return dict(counts)

    def summary(self) -> dict[str, Any]:
        """Return a dictionary summary convenient for table printing.

        Aggregate-identical across all three detail modes (pinned by the
        equivalence tests): telemetry mode answers from its counters and
        sketches, the record modes from their per-request records.
        """
        if self.telemetry is not None:
            max_per_request = self.telemetry.live_max_messages_per_request(self._total_sent)
        else:
            per_request = self.messages_per_request()
            max_per_request = max(per_request) if per_request else 0
        summary = {
            "total_messages": self.total_messages(),
            "dropped_messages": self.dropped_messages,
            "messages_by_kind": dict(self.messages_by_kind),
            "requests_issued": self.requests_issued_count,
            "requests_granted": self.requests_granted_count,
            "mean_messages_per_request": self.mean_messages_per_request(),
            "max_messages_per_request": max_per_request,
            "mean_waiting_time": self.mean_waiting_time(),
            "failures": len(self.failures),
            "recoveries": len(self.recoveries),
        }
        if self.network_faults_active:
            # Only when a fault layer is configured: fault-free summaries
            # must stay byte-identical (the golden determinism digests hash
            # this dictionary).
            summary["lost_messages"] = self.lost_messages
            summary["duplicated_messages"] = self.duplicated_messages
            summary["blocked_messages"] = self.blocked_messages
        return summary

    def finalize_telemetry(self, end_time: float) -> dict[str, Any] | None:
        """Close the telemetry hub (idempotent) and return its report.

        Returns ``None`` outside telemetry mode.  Call with the simulation
        end time once the run is quiescent; the hub then charges the last
        request its message tail, classifies leftover pending requests as
        starvation, and takes the final series sample.
        """
        if self.telemetry is None:
            return None
        self.telemetry.finalize(end_time, self._total_sent)
        return self.telemetry.report()
