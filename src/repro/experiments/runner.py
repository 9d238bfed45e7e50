"""Generic experiment runner: workload + algorithm + (optional) failures.

The benchmark scripts are thin wrappers around the functions here; keeping
the logic in the library makes it unit-testable and reusable from the
examples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.baselines.registry import build_cluster
from repro.exceptions import ConfigurationError
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.failures import FailureSchedule
from repro.simulation.network import DelayModel, NetworkFaults, UniformDelay
from repro.verification.liveness import analyse_liveness
from repro.verification.online import replay_online
from repro.verification.safety import crashed_in_critical_section, find_overlaps
from repro.workload.arrivals import ArrivalStream, Workload

__all__ = ["RunResult", "run_workload", "LIVENESS_THRESHOLD_KEYS"]

#: The declarative stall/fairness gates a run can carry (the
#: ``liveness_thresholds`` block of :class:`repro.scenarios.ScenarioSpec` /
#: ``FailureSpec``).  Any breach turns ``liveness_ok`` into ``False`` with a
#: detail record naming the offending node and observed value:
#:
#: * ``max_grant_gap`` — largest event-time gap between consecutive grants
#:   anywhere while requests were pending (the watchdog's global
#:   no-progress figure; a protocol that stalls-but-recovers breaches it).
#: * ``max_node_starvation_gap`` — largest stretch a single node spent
#:   waiting without *it* being granted (per-node: hotspot starvation that
#:   global progress hides).
#: * ``min_jain_index`` — lower bound on Jain's fairness index over the
#:   per-node grant counts.
LIVENESS_THRESHOLD_KEYS = frozenset(
    {"max_grant_gap", "max_node_starvation_gap", "min_jain_index"}
)


def _threshold_breaches(
    thresholds: Mapping[str, float],
    liveness_report: Mapping[str, Any],
    fairness_report: Mapping[str, Any] | None,
) -> list[dict[str, Any]]:
    """Evaluate the declarative gates against one run's verdict blocks.

    Returns one JSON-ready record per breached threshold, each naming the
    offending node where one is attributable (the global ``max_grant_gap``
    is attributed to the worst per-node waiter when fairness data exists).
    """
    breaches: list[dict[str, Any]] = []
    worst_starvation = (fairness_report or {}).get("max_node_starvation")
    limit = thresholds.get("max_grant_gap")
    if limit is not None and liveness_report["max_grant_gap"] > limit:
        breach: dict[str, Any] = {
            "threshold": "max_grant_gap",
            "limit": limit,
            "observed": liveness_report["max_grant_gap"],
            "pending": liveness_report["max_grant_gap_pending"],
        }
        if worst_starvation is not None:
            breach["node"] = worst_starvation["node"]
        breaches.append(breach)
    limit = thresholds.get("max_node_starvation_gap")
    if limit is not None and worst_starvation is not None and worst_starvation["gap"] > limit:
        breaches.append(
            {
                "threshold": "max_node_starvation_gap",
                "limit": limit,
                "observed": worst_starvation["gap"],
                "node": worst_starvation["node"],
            }
        )
    limit = thresholds.get("min_jain_index")
    if limit is not None and fairness_report is not None:
        observed = fairness_report["jain_index"]
        if observed < limit:
            breach = {
                "threshold": "min_jain_index",
                "limit": limit,
                "observed": observed,
            }
            min_share = fairness_report.get("min_share")
            if min_share is not None:
                breach["node"] = min_share["node"]
            breaches.append(breach)
    return breaches


def _validate_thresholds(
    thresholds: Mapping[str, float] | None, metrics_detail: str
) -> dict[str, float]:
    """Reject unknown keys and un-analysable modes up front."""
    if not thresholds:
        return {}
    unknown = set(thresholds) - LIVENESS_THRESHOLD_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown liveness threshold(s) {sorted(unknown)}; "
            f"known: {', '.join(sorted(LIVENESS_THRESHOLD_KEYS))}"
        )
    if metrics_detail == "counters":
        raise ConfigurationError(
            "liveness_thresholds need an analysed run: use "
            "metrics_detail='telemetry' (online) or 'full' (record replay), "
            "not the unanalysed 'counters' mode"
        )
    return dict(thresholds)

#: Message kinds that only exist because of the fault-tolerance machinery.
FT_MESSAGE_KINDS = frozenset(
    {
        "TestMessage",
        "AnswerMessage",
        "EnquiryMessage",
        "EnquiryReply",
        "AnomalyMessage",
        "PingMessage",
        "PingReply",
        "RootClaimMessage",
        "RootClaimReject",
        "RequestMessage+regenerated",
        "TokenMessage+regenerated",
    }
)


@dataclass
class RunResult:
    """Everything an experiment needs to know about one run."""

    algorithm: str
    n: int
    workload_name: str
    cluster: SimulatedCluster = field(repr=False)
    requests_issued: int = 0
    requests_granted: int = 0
    total_messages: int = 0
    messages_per_request: list[int] = field(default_factory=list)
    mean_messages_per_request: float = 0.0
    max_messages_per_request: int = 0
    mean_waiting_time: float = 0.0
    overhead_messages: int = 0
    failures: int = 0
    #: ``True``/``False`` when the record-based analysis ran, ``None`` when
    #: it was skipped (streaming ``metrics_detail="counters"`` runs).
    safety_ok: bool | None = True
    liveness_ok: bool | None = True
    #: ``None`` marks "analysis skipped", mirroring the per-property fields.
    analysis_ok: bool | None = True
    end_time: float = 0.0
    #: Cluster construction wall time; workload (and failure-schedule)
    #: scheduling cost is reported separately as :attr:`feed_s`.
    setup_s: float = 0.0
    #: Wall time spent scheduling the workload (+ failure schedule) before
    #: the run: the full O(requests) ``Workload`` scheduling cost for eager
    #: runs, only the window priming for streamed runs (the rest of the
    #: stream is generated incrementally inside ``run_s``).
    feed_s: float = 0.0
    run_s: float = 0.0
    events: int = 0
    #: Agenda (heap) size high-water mark — O(requests) for eager workload
    #: scheduling, O(active + window) for streamed runs.
    agenda_peak: int = 0
    #: Whether the workload was fed lazily through the bounded-window feeder.
    streamed: bool = False
    #: Telemetry-mode distribution summaries (waiting_time / cs_hold /
    #: messages_per_request, each with count/mean/min/max/p50/p90/p99);
    #: ``None`` outside ``metrics_detail="telemetry"``.
    quantiles: dict[str, Any] | None = None
    #: Telemetry-mode time series block (only when the scenario enabled the
    #: series sampler); ``None`` otherwise.
    series: dict[str, Any] | None = None
    #: Sampled causal traces block (only when the scenario enabled
    #: ``trace_sample``); ``None`` otherwise.
    traces: dict[str, Any] | None = None
    #: The online safety/liveness verdict detail blocks backing
    #: ``safety_ok``/``liveness_ok`` in telemetry mode (and in full mode when
    #: ``liveness_thresholds`` forced a record replay); ``None`` otherwise.
    online_checks: dict[str, Any] | None = None
    #: Per-node fairness block (Jain index, grant shares, max per-node
    #: starvation gap); populated whenever the fairness census ran.
    fairness: dict[str, Any] | None = None

    def as_row(self) -> dict[str, Any]:
        """Flatten into a dictionary usable as a table row."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "requests": self.requests_granted,
            "total_messages": self.total_messages,
            "mean_msgs_per_request": self.mean_messages_per_request,
            "max_msgs_per_request": self.max_messages_per_request,
            "mean_waiting_time": self.mean_waiting_time,
            "failures": self.failures,
            "overhead_messages": self.overhead_messages,
            "safety_ok": self.safety_ok,
            "liveness_ok": self.liveness_ok,
            "analysis_ok": self.analysis_ok,
        }


def run_workload(
    algorithm: str,
    n: int,
    workload: Workload | ArrivalStream,
    *,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    fifo: bool = False,
    failure_schedule: FailureSchedule | None = None,
    network_faults: NetworkFaults | None = None,
    trace: bool = False,
    serial: bool = False,
    metrics_detail: str | None = None,
    max_events: int | None = 5_000_000,
    node_options: Mapping[str, Any] | None = None,
    cluster_kwargs: Mapping[str, Any] | None = None,
    stream: bool | None = None,
    feed_window: int = 64,
    telemetry: Mapping[str, Any] | None = None,
    liveness_thresholds: Mapping[str, float] | None = None,
) -> RunResult:
    """Run ``workload`` under ``algorithm`` on ``n`` simulated nodes.

    This is the single-run execution engine: the declarative layer in
    :mod:`repro.scenarios` expands sweeps into calls to this function.

    Args:
        workload: an eager :class:`Workload` or a lazy
            :class:`~repro.workload.arrivals.ArrivalStream`.
        serial: set to ``True`` for workloads guaranteed to have at most one
            outstanding request at a time; per-request message counts are
            then exact (difference of the global counter around each
            request) rather than an average.
        failure_schedule: optional fail-stop crash/recovery schedule.
        network_faults: optional adversarial message-fault layer
            (:class:`~repro.simulation.network.NetworkFaults`: seeded loss,
            duplication, partition windows).  ``None`` (or a disabled
            instance) keeps the exact reliable-channel fast path.
        metrics_detail: ``"full"`` (the default) keeps per-message records
            and runs the record-based safety/liveness analysis;
            ``"counters"`` streams aggregates only — the analysis is then
            *skipped* and ``safety_ok``/``liveness_ok``/``analysis_ok`` are
            ``None``; ``"telemetry"`` streams aggregates *and* checks
            safety/liveness online, so the verdicts are real booleans again
            and :attr:`RunResult.quantiles` carries the waiting-time /
            hold-time / messages-per-request distributions.  May also arrive
            via ``cluster_kwargs`` (legacy call sites); passing both with
            different values is an error.
        node_options: algorithm-specific factory options (e.g. a custom
            ``tree`` or ``enquiry_enabled``), forwarded through the registry.
        cluster_kwargs: extra :class:`SimulatedCluster` keyword arguments.
        stream: feed the workload lazily through the cluster's
            bounded-window feeder (agenda stays O(active + window)) instead
            of scheduling every arrival up front.  Default (``None``):
            stream exactly when ``workload`` is an :class:`ArrivalStream`.
        feed_window: feeder lookahead window for streamed runs.
        telemetry: telemetry-hub options
            (:class:`~repro.telemetry.TelemetryOptions` or its dict form);
            only valid with ``metrics_detail="telemetry"``.
        liveness_thresholds: declarative stall/fairness gates (see
            :data:`LIVENESS_THRESHOLD_KEYS`).  A breach turns ``liveness_ok``
            into ``False`` and records a ``threshold_breaches`` detail (node,
            limit, observed) on the liveness verdict block.  In telemetry
            mode the gates run against the online checkers; in full mode the
            records are replayed through them
            (:func:`repro.verification.replay_online`); the unanalysed
            ``counters`` mode rejects thresholds outright.
    """
    kwargs = dict(cluster_kwargs or {})
    kwargs_detail = kwargs.pop("metrics_detail", None)
    if metrics_detail is None:
        metrics_detail = kwargs_detail if kwargs_detail is not None else "full"
    elif kwargs_detail is not None and kwargs_detail != metrics_detail:
        raise ConfigurationError(
            f"conflicting metrics_detail: {metrics_detail!r} as argument but "
            f"{kwargs_detail!r} in cluster_kwargs"
        )
    if telemetry is not None:
        if "telemetry_options" in kwargs and kwargs["telemetry_options"] != telemetry:
            raise ConfigurationError(
                "conflicting telemetry options: passed both as the telemetry "
                "argument and in cluster_kwargs['telemetry_options']"
            )
        kwargs["telemetry_options"] = telemetry
    if network_faults is not None:
        if "network_faults" in kwargs and kwargs["network_faults"] is not network_faults:
            raise ConfigurationError(
                "conflicting network faults: passed both as the network_faults "
                "argument and in cluster_kwargs['network_faults']"
            )
        kwargs["network_faults"] = network_faults
    thresholds = _validate_thresholds(liveness_thresholds, metrics_detail)
    if thresholds and metrics_detail == "telemetry":
        options = dict(kwargs.get("telemetry_options") or {})
        if "max_grant_gap" in thresholds:
            # The global stall gate is enforced by the watchdog itself, so
            # thread it into the hub's options (the declarative threshold and
            # an explicitly configured watchdog gap must agree, not fight).
            configured = options.get("max_grant_gap")
            if configured is not None and configured != thresholds["max_grant_gap"]:
                raise ConfigurationError(
                    f"conflicting max_grant_gap: {thresholds['max_grant_gap']} in "
                    f"liveness_thresholds but {configured} in the telemetry options"
                )
            options["max_grant_gap"] = thresholds["max_grant_gap"]
        if options.get("fairness") is False and (
            "max_node_starvation_gap" in thresholds or "min_jain_index" in thresholds
        ):
            raise ConfigurationError(
                "per-node liveness thresholds need the fairness census: "
                "remove fairness=False from the telemetry options"
            )
        kwargs["telemetry_options"] = options
    if stream is None:
        stream = isinstance(workload, ArrivalStream)
    setup_start = time.perf_counter()
    cluster = build_cluster(
        algorithm,
        n,
        node_options=node_options,
        delay_model=delay_model or UniformDelay(),
        fifo=fifo,
        seed=seed,
        trace=trace,
        metrics_detail=metrics_detail,
        **kwargs,
    )
    setup_s = time.perf_counter() - setup_start
    feed_start = time.perf_counter()
    if stream:
        cluster.feed_workload(workload, window=feed_window)
    elif isinstance(workload, ArrivalStream):
        workload.materialise().schedule(cluster)
    else:
        # Counting apply: nobody here reads the per-request id list, so do
        # not build an O(requests) one just to drop it.
        workload.schedule(cluster)
    if failure_schedule is not None:
        failure_schedule.apply(cluster)
    feed_s = time.perf_counter() - feed_start
    run_start = time.perf_counter()
    cluster.run_until_quiescent(max_events=max_events)
    run_s = time.perf_counter() - run_start

    metrics = cluster.metrics
    quantiles: dict[str, Any] | None = None
    series: dict[str, Any] | None = None
    traces: dict[str, Any] | None = None
    online_checks: dict[str, Any] | None = None
    fairness: dict[str, Any] | None = None
    if metrics_detail == "telemetry":
        # Constant-memory mode: the online checkers watched every CS
        # enter/exit and grant as they happened, so the verdicts are real —
        # no record replay needed (and none possible).
        report = metrics.finalize_telemetry(cluster.now)
        safety_ok = report["safety"]["ok"]
        liveness_ok = report["liveness"]["ok"]
        quantiles = report["quantiles"]
        series = report.get("series")
        traces = report.get("traces")
        fairness = report.get("fairness")
        if thresholds:
            breaches = _threshold_breaches(thresholds, report["liveness"], fairness)
            if breaches:
                report["liveness"]["threshold_breaches"] = breaches
                liveness_ok = False
        analysis_ok = safety_ok and liveness_ok
        online_checks = {"safety": report["safety"], "liveness": report["liveness"]}
    elif metrics_detail == "counters":
        # Streaming counters keep no per-message records; the record-based
        # safety/liveness verdicts would be vacuous, so mark them as
        # "not analysed" instead of reporting a hollow True.
        safety_ok = liveness_ok = analysis_ok = None
    else:
        crashed_in_cs = crashed_in_critical_section(metrics)
        overlaps = find_overlaps(
            metrics, end_of_time=cluster.now, exclude_nodes=sorted(crashed_in_cs)
        )
        liveness = analyse_liveness(metrics)
        safety_ok = not overlaps
        liveness_ok = liveness.ok
        if thresholds:
            # Full mode keeps records, not live checkers: replay them through
            # the online pair (with the fairness census attached) so the same
            # gates run on the same observation stream telemetry mode sees.
            verdicts = replay_online(
                metrics,
                end_of_time=cluster.now,
                max_grant_gap=thresholds.get("max_grant_gap"),
                fairness=True,
            )
            fairness = verdicts.fairness.report()
            liveness_block = verdicts.liveness.report()
            breaches = _threshold_breaches(thresholds, liveness_block, fairness)
            if breaches:
                liveness_block["threshold_breaches"] = breaches
            liveness_ok = liveness_ok and verdicts.liveness.ok and not breaches
            online_checks = {
                "safety": verdicts.safety.report(),
                "liveness": liveness_block,
            }
        analysis_ok = safety_ok and liveness_ok
    per_request = metrics.messages_per_request() if serial else []
    if serial and metrics.telemetry is not None:
        # No records to difference in telemetry mode, but the hub tracked the
        # identical issue-order attribution in its sketch: the running sum
        # telescopes to the same total and the max is tracked exactly, so
        # serial telemetry rows report the same mean/max a full run would.
        mean_per_request = metrics.telemetry.request_messages.mean
        max_per_request = metrics.telemetry.live_max_messages_per_request(
            metrics._total_sent
        )
    else:
        mean_per_request = (
            (sum(per_request) / len(per_request))
            if per_request
            else metrics.mean_messages_per_request()
        )
        max_per_request = max(per_request) if per_request else 0
    overhead = metrics.messages_of_kinds(FT_MESSAGE_KINDS)

    result = RunResult(
        algorithm=algorithm,
        n=n,
        workload_name=workload.name,
        cluster=cluster,
        requests_issued=metrics.requests_issued_count,
        requests_granted=metrics.requests_granted_count,
        total_messages=metrics.total_messages(),
        messages_per_request=per_request,
        mean_messages_per_request=mean_per_request,
        max_messages_per_request=max_per_request,
        mean_waiting_time=metrics.mean_waiting_time(),
        overhead_messages=overhead,
        failures=len(metrics.failures),
        safety_ok=safety_ok,
        liveness_ok=liveness_ok,
        analysis_ok=analysis_ok,
        end_time=cluster.now,
        setup_s=setup_s,
        feed_s=feed_s,
        run_s=run_s,
        events=cluster.simulator.processed_events,
        agenda_peak=cluster.simulator.peak_pending,
        streamed=stream,
        quantiles=quantiles,
        series=series,
        traces=traces,
        online_checks=online_checks,
        fairness=fairness,
    )
    return result
