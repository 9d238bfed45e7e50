"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single place where one simulated experiment
cell is declared: *algorithm × n × workload × delay model × FIFO flag ×
seed × failure schedule × metrics detail × algorithm options*.  Specs are
plain data — JSON-serialisable via :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` — so sweeps can expand parameter grids,
ship cells to ``multiprocessing`` workers, and record each result row next
to the spec that produced it.

Execution delegates to the single-run engine
:func:`repro.experiments.runner.run_workload`; the sweep orchestration
lives in :mod:`repro.scenarios.sweep`.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.exceptions import ConfigurationError
from repro.experiments.runner import RunResult, run_workload
from repro.simulation.failures import FailurePlanner, FailureSchedule
from repro.simulation.network import (
    ConstantDelay,
    DelayModel,
    NetworkFaults,
    ParetoDelay,
    PartitionWindow,
    PerHopDelay,
    UniformDelay,
)
from repro.workload.arrivals import (
    ArrivalStream,
    Workload,
    burst_stream,
    hotspot_stream,
    poisson_stream,
    serial_random_stream,
    serial_round_robin_stream,
    single_requester_stream,
)

__all__ = [
    "WorkloadSpec",
    "DelaySpec",
    "FailureSpec",
    "PartitionSpec",
    "NetworkFaultSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "WORKLOAD_KINDS",
    "DELAY_KINDS",
]

#: Workload generator registry: every factory takes ``n`` first, then
#: keyword parameters, and returns a lazy
#: :class:`~repro.workload.arrivals.ArrivalStream` (see
#: :mod:`repro.workload.arrivals`).  :meth:`WorkloadSpec.build` materialises
#: it into an eager :class:`Workload`; :meth:`WorkloadSpec.build_stream`
#: hands the stream through untouched for feeder-based runs.
WORKLOAD_KINDS: dict[str, Callable[..., ArrivalStream]] = {
    "serial_round_robin": serial_round_robin_stream,
    "serial_random": serial_random_stream,
    "single_requester": single_requester_stream,
    "poisson": poisson_stream,
    "hotspot": hotspot_stream,
    "bursts": burst_stream,
}

DELAY_KINDS: dict[str, Callable[..., DelayModel]] = {
    "constant": ConstantDelay,
    "uniform": UniformDelay,
    "per_hop": PerHopDelay,
    "pareto": ParetoDelay,
}


def _frozen_params(params: Mapping[str, Any] | None) -> dict[str, Any]:
    return dict(params or {})


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative request-arrival pattern: generator ``kind`` + parameters.

    ``params`` (like every dict field of the spec dataclasses) is excluded
    from the generated ``__hash__`` so specs stay usable in sets/dict keys;
    equality still compares every field.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {sorted(WORKLOAD_KINDS)}"
            )

    def build_stream(self, n: int) -> ArrivalStream:
        """Build the lazy arrival stream for an ``n``-node cluster."""
        return WORKLOAD_KINDS[self.kind](n, **self.params)

    def build(self, n: int) -> Workload:
        """Materialise the workload for an ``n``-node cluster."""
        return self.build_stream(n).materialise()

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(kind=data["kind"], params=_frozen_params(data.get("params")))


@dataclass(frozen=True)
class DelaySpec:
    """Declarative message delay model: model ``kind`` + parameters."""

    kind: str = "uniform"
    params: dict[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.kind not in DELAY_KINDS:
            raise ConfigurationError(
                f"unknown delay kind {self.kind!r}; choose from {sorted(DELAY_KINDS)}"
            )

    def build(self) -> DelayModel:
        return DELAY_KINDS[self.kind](**self.params)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DelaySpec":
        return cls(kind=data["kind"], params=_frozen_params(data.get("params")))


#: FailureSpec modes and the :class:`FailurePlanner` method each maps to.
_FAILURE_MODES = ("periodic", "burst", "targeted", "single")


@dataclass(frozen=True)
class FailureSpec:
    """Declarative fail-stop schedule, built through :class:`FailurePlanner`.

    ``mode`` selects the planner method (``periodic_failures``,
    ``burst_failures``, ``targeted_failures`` or ``single_failure``) and
    ``params`` are its keyword arguments; ``seed``/``protected_nodes``
    configure the planner itself.

    ``liveness_thresholds`` declares the stall gates this failure class is
    calibrated for (see
    :data:`repro.experiments.runner.LIVENESS_THRESHOLD_KEYS`): a schedule
    that crashes the token holder is expected to stall *briefly* — the
    threshold is the bound on "briefly", and a breach turns the run's
    ``liveness_ok`` into ``False``.  Spec-level thresholds override
    same-named failure-level ones.
    """

    mode: str
    params: dict[str, Any] = field(default_factory=dict, hash=False)
    seed: int = 0
    protected_nodes: tuple[int, ...] = ()
    liveness_thresholds: dict[str, float] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.mode not in _FAILURE_MODES:
            raise ConfigurationError(
                f"unknown failure mode {self.mode!r}; choose from {sorted(_FAILURE_MODES)}"
            )

    def build(self, n: int) -> FailureSchedule:
        planner = FailurePlanner(n, seed=self.seed, protected_nodes=self.protected_nodes)
        method = {
            "periodic": planner.periodic_failures,
            "burst": planner.burst_failures,
            "targeted": planner.targeted_failures,
            "single": planner.single_failure,
        }[self.mode]
        return method(**self.params)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "params": dict(self.params),
            "seed": self.seed,
            "protected_nodes": list(self.protected_nodes),
            "liveness_thresholds": dict(self.liveness_thresholds),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureSpec":
        return cls(
            mode=data["mode"],
            params=_frozen_params(data.get("params")),
            seed=data.get("seed", 0),
            protected_nodes=tuple(data.get("protected_nodes", ())),
            liveness_thresholds=_frozen_params(data.get("liveness_thresholds")),
        )


@dataclass(frozen=True)
class PartitionSpec:
    """Declarative partition window: ``nodes`` cut off during ``[start, heal)``.

    ``heal=None`` declares a partition that never heals (JSON has no
    ``inf``); it maps to ``math.inf`` in the built
    :class:`~repro.simulation.network.PartitionWindow`.
    """

    start: float
    heal: float | None
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("a partition spec needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(
                f"partition spec names duplicate nodes: {list(self.nodes)}"
            )

    def build(self) -> PartitionWindow:
        heal = float("inf") if self.heal is None else self.heal
        return PartitionWindow(start=self.start, heal=heal, nodes=frozenset(self.nodes))

    def to_dict(self) -> dict[str, Any]:
        return {"start": self.start, "heal": self.heal, "nodes": list(self.nodes)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionSpec":
        return cls(
            start=data["start"],
            heal=data.get("heal"),
            nodes=tuple(data["nodes"]),
        )


@dataclass(frozen=True)
class NetworkFaultSpec:
    """Declarative adversarial message faults: loss, duplication, partitions.

    The declarative face of :class:`~repro.simulation.network.NetworkFaults`
    — the behaviours the paper's reliable-channel model rules out.  Kept as
    a sibling of :class:`FailureSpec` (not folded into it) so a scenario
    states explicitly whether it stays inside the paper's fail-stop model or
    steps outside it; the fuzzer's oracle keys off that distinction.

    :meth:`build` returns a *fresh* :class:`NetworkFaults` (fresh fault RNG)
    each call, so every repetition of a cell replays the same fault
    sequence.
    """

    loss_rate: float = 0.0
    dup_rate: float = 0.0
    partitions: tuple[PartitionSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Rate bounds are validated by NetworkFaults; build one eagerly so a
        # malformed spec fails at declaration time, not inside a worker.
        self.build()

    @property
    def enabled(self) -> bool:
        return bool(self.loss_rate or self.dup_rate or self.partitions)

    def build(self) -> NetworkFaults:
        return NetworkFaults(
            loss_rate=self.loss_rate,
            dup_rate=self.dup_rate,
            partitions=tuple(p.build() for p in self.partitions),
            seed=self.seed,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "loss_rate": self.loss_rate,
            "dup_rate": self.dup_rate,
            "partitions": [p.to_dict() for p in self.partitions],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkFaultSpec":
        return cls(
            loss_rate=data.get("loss_rate", 0.0),
            dup_rate=data.get("dup_rate", 0.0),
            partitions=tuple(
                PartitionSpec.from_dict(p) for p in data.get("partitions", ())
            ),
            seed=data.get("seed", 0),
        )


def _peak_rss_mb() -> float:
    """Process RSS high-water mark (monotone within one process).

    ``ru_maxrss`` never goes down, so in a serial sweep every cell run after
    the biggest one reports the biggest one's footprint.  Callers that want
    per-cell attribution must sample before *and* after the cell and report
    the delta (see :class:`ScenarioResult`): the delta is this cell's own
    growth of the high-water mark — ``0.0`` for a cell that fits inside an
    earlier cell's footprint, honest for the cell that sets a new record.
    On the multiprocessing sweep path each cell runs in a pool worker, so
    both figures are *per-worker*: the peak only accumulates over the cells
    that particular worker has executed, not over the whole sweep.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux container
        return round(usage / (1024 * 1024), 1)
    return round(usage / 1024, 1)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declared experiment cell; see the module docstring.

    Args:
        algorithm: a name from :data:`repro.baselines.registry.ALGORITHMS`.
        n: number of nodes.
        workload: the request-arrival pattern.
        delay: the message delay model (default: the paper's uniform model).
        fifo: FIFO channels (the paper's default is out-of-order delivery).
        seed: simulator RNG seed (delays).
        failures: optional fail-stop crash/recovery schedule.
        network: optional adversarial message-fault layer (seeded loss,
            duplication, partition windows — :class:`NetworkFaultSpec`).
            ``None`` or a disabled spec keeps the exact reliable-channel
            code path, bit-identical to a cell without the field.
        metrics_detail: ``"full"``, the unanalysed ``"counters"`` mode, or
            ``"telemetry"``.
        trace: enable trace collection (off for scale runs).
        serial: declare the workload serial so per-request message counts
            are exact (see :func:`repro.experiments.runner.run_workload`).
        repeats: run the cell this many times (identical seed, identical
            event sequence) and keep the fastest — wall-clock noise on a
            shared machine only ever makes a run slower.
        max_events: simulator event budget per run.
        node_options: algorithm-specific factory options (``tree``,
            ``enquiry_enabled``, ``coordinator``, ...), forwarded through
            the registry to the node factory.
        cluster_options: extra :class:`SimulatedCluster` keyword arguments
            (``cs_duration``, ...).
        stream: feed the workload lazily through the cluster's
            bounded-window feeder instead of scheduling every arrival up
            front — the agenda stays O(active + window) instead of
            O(requests); the scale benchmark runs its big cells this way.
        feed_window: feeder lookahead window for streamed cells.
        telemetry: options of the telemetry hub (the dict form of
            :class:`~repro.telemetry.TelemetryOptions`: ``sketch_growth``,
            ``series_cadence``, ``series_max_samples``, ``max_grant_gap``,
            ``fairness``); only meaningful with ``metrics_detail="telemetry"``.
        liveness_thresholds: declarative stall/fairness gates for this cell
            (:data:`repro.experiments.runner.LIVENESS_THRESHOLD_KEYS`:
            ``max_grant_gap``, ``max_node_starvation_gap``,
            ``min_jain_index``).  Merged over the failure schedule's own
            ``liveness_thresholds`` (cell-level wins per key); a breach turns
            the row's ``liveness_ok`` into ``False`` with a detail naming the
            node and gap.
        label: optional human-readable cell label carried into the row.
    """

    algorithm: str
    n: int
    workload: WorkloadSpec
    delay: DelaySpec = field(default_factory=DelaySpec)
    fifo: bool = False
    seed: int = 0
    failures: FailureSpec | None = None
    network: NetworkFaultSpec | None = None
    metrics_detail: str = "full"
    trace: bool = False
    serial: bool = False
    repeats: int = 1
    max_events: int | None = 5_000_000
    node_options: dict[str, Any] = field(default_factory=dict, hash=False)
    cluster_options: dict[str, Any] = field(default_factory=dict, hash=False)
    stream: bool = False
    feed_window: int = 64
    telemetry: dict[str, Any] = field(default_factory=dict, hash=False)
    liveness_thresholds: dict[str, float] = field(default_factory=dict, hash=False)
    label: str | None = None

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_(self, **changes: Any) -> "ScenarioSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "workload": self.workload.to_dict(),
            "delay": self.delay.to_dict(),
            "fifo": self.fifo,
            "seed": self.seed,
            "failures": self.failures.to_dict() if self.failures else None,
            "network": self.network.to_dict() if self.network else None,
            "metrics_detail": self.metrics_detail,
            "trace": self.trace,
            "serial": self.serial,
            "repeats": self.repeats,
            "max_events": self.max_events,
            "node_options": dict(self.node_options),
            "cluster_options": dict(self.cluster_options),
            "stream": self.stream,
            "feed_window": self.feed_window,
            "telemetry": dict(self.telemetry),
            "liveness_thresholds": dict(self.liveness_thresholds),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if data.get("shards", 0):
            # Documents written while the sharded single-run engine existed
            # carry shards/shard_by/shard_window; a serial cell (shards=0)
            # still loads, a sharded one must not silently run serially.
            raise ConfigurationError(
                f"spec asks for shards={data['shards']!r}, but the sharded "
                "single-run engine was removed; drop the key (or set "
                "shards=0) to run the cell on the serial engine"
            )
        failures = data.get("failures")
        network = data.get("network")
        return cls(
            algorithm=data["algorithm"],
            n=data["n"],
            workload=WorkloadSpec.from_dict(data["workload"]),
            delay=DelaySpec.from_dict(data.get("delay") or {"kind": "uniform"}),
            fifo=data.get("fifo", False),
            seed=data.get("seed", 0),
            failures=FailureSpec.from_dict(failures) if failures else None,
            network=NetworkFaultSpec.from_dict(network) if network else None,
            metrics_detail=data.get("metrics_detail", "full"),
            trace=data.get("trace", False),
            serial=data.get("serial", False),
            repeats=data.get("repeats", 1),
            max_events=data.get("max_events", 5_000_000),
            node_options=_frozen_params(data.get("node_options")),
            cluster_options=_frozen_params(data.get("cluster_options")),
            stream=data.get("stream", False),
            feed_window=data.get("feed_window", 64),
            telemetry=_frozen_params(data.get("telemetry")),
            liveness_thresholds=_frozen_params(data.get("liveness_thresholds")),
            label=data.get("label"),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def effective_liveness_thresholds(self) -> dict[str, float]:
        """The cell's stall gates: failure-class defaults under cell overrides."""
        merged: dict[str, float] = {}
        if self.failures is not None:
            merged.update(self.failures.liveness_thresholds)
        merged.update(self.liveness_thresholds)
        return merged

    def run(self) -> "ScenarioResult":
        """Run the cell ``repeats`` times and keep the fastest repetition."""
        thresholds = self.effective_liveness_thresholds()
        best: RunResult | None = None
        rss_before_mb = _peak_rss_mb()
        for _ in range(max(1, self.repeats)):
            workload = (
                self.workload.build_stream(self.n)
                if self.stream
                else self.workload.build(self.n)
            )
            result = run_workload(
                self.algorithm,
                self.n,
                workload,
                seed=self.seed,
                delay_model=self.delay.build(),
                fifo=self.fifo,
                failure_schedule=self.failures.build(self.n) if self.failures else None,
                # Rebuilt inside the repeats loop on purpose: each repetition
                # gets a fresh fault RNG and replays the same fault sequence.
                network_faults=self.network.build() if self.network else None,
                trace=self.trace,
                serial=self.serial,
                metrics_detail=self.metrics_detail,
                max_events=self.max_events,
                node_options=self.node_options,
                cluster_kwargs=self.cluster_options,
                stream=self.stream,
                feed_window=self.feed_window,
                telemetry=self.telemetry or None,
                liveness_thresholds=thresholds or None,
            )
            if best is None or result.run_s < best.run_s:
                best = result
        return ScenarioResult(
            spec=self,
            result=best,
            rss_before_mb=rss_before_mb,
            peak_rss_mb=_peak_rss_mb(),
        )


@dataclass
class ScenarioResult:
    """A spec together with the (best-of-repeats) run it produced.

    ``rss_before_mb``/``peak_rss_mb`` bracket the cell's execution with the
    process RSS high-water mark (see :func:`_peak_rss_mb` for the monotone
    and per-worker semantics).  Both default to a fresh sample so results
    constructed directly in tests still carry plausible figures.
    """

    spec: ScenarioSpec
    result: RunResult
    rss_before_mb: float = field(default_factory=_peak_rss_mb)
    peak_rss_mb: float = field(default_factory=_peak_rss_mb)

    def row(self) -> dict[str, Any]:
        """Flatten into one JSON-serialisable sweep row."""
        spec, result = self.spec, self.result
        metrics = result.cluster.metrics
        run_s = result.run_s
        row: dict[str, Any] = {
            "algorithm": spec.algorithm,
            "n": spec.n,
            "metrics_detail": spec.metrics_detail,
            "workload": result.workload_name,
            "delay": spec.delay.kind,
            "fifo": spec.fifo,
            "seed": spec.seed,
            "requests": result.requests_issued,
            "requests_granted": result.requests_granted,
            "total_messages": result.total_messages,
            "messages_per_request": (
                round(result.total_messages / result.requests_granted, 3)
                if result.requests_granted
                else 0.0
            ),
            "mean_waiting_time": round(result.mean_waiting_time, 4),
            "failures": result.failures,
            "overhead_messages": result.overhead_messages,
            "safety_ok": result.safety_ok,
            "liveness_ok": result.liveness_ok,
            "analysis_ok": result.analysis_ok,
            "events": result.events,
            "repeats": spec.repeats,
            "setup_s": round(result.setup_s, 4),
            "feed_s": round(result.feed_s, 4),
            "run_s": round(run_s, 4),
            "events_per_sec": round(result.events / run_s, 1) if run_s > 0 else 0.0,
            "agenda_peak": result.agenda_peak,
            "streamed": result.streamed,
            "feed_window": spec.feed_window if result.streamed else None,
            # Process high-water mark (monotone: later rows inherit earlier
            # cells' footprint) next to this cell's own growth of it.
            "peak_rss_mb": self.peak_rss_mb,
            "rss_delta_mb": round(max(0.0, self.peak_rss_mb - self.rss_before_mb), 1),
        }
        if result.quantiles is not None:
            waiting = result.quantiles["waiting_time"]
            # Headline waiting-time quantiles as flat columns for tables and
            # the bench JSON diffing convention; the full three-distribution
            # block rides along under "quantiles".
            row["waiting_p50"] = waiting["p50"]
            row["waiting_p90"] = waiting["p90"]
            row["waiting_p99"] = waiting["p99"]
            row["quantiles"] = result.quantiles
        if result.online_checks is not None:
            row["online_checks"] = {
                "safety_violations": result.online_checks["safety"]["violations"],
                "max_concurrency": result.online_checks["safety"]["max_concurrency"],
                "starved": result.online_checks["liveness"]["starved"],
                "excused": result.online_checks["liveness"]["excused"],
                "max_grant_gap": result.online_checks["liveness"]["max_grant_gap"],
                "last_grant_at": result.online_checks["liveness"].get("last_grant_at"),
            }
            breaches = result.online_checks["liveness"].get("threshold_breaches")
            if breaches:
                row["online_checks"]["threshold_breaches"] = breaches
        if result.fairness is not None:
            # Headline fairness columns as flat fields (same convention as
            # the waiting-time quantiles); the full block rides along.
            row["jain_index"] = result.fairness["jain_index"]
            worst = result.fairness.get("max_node_starvation")
            row["max_node_starvation_gap"] = worst["gap"] if worst else 0.0
            row["fairness"] = result.fairness
        if spec.network is not None and spec.network.enabled:
            # Adversarial cells carry the fault knobs as flat columns (for
            # tables/diffs) plus the full declarative block and the observed
            # fault counters; clean rows stay byte-identical to before.
            row["loss_rate"] = spec.network.loss_rate
            row["dup_rate"] = spec.network.dup_rate
            row["network"] = spec.network.to_dict()
            row["lost_messages"] = metrics.lost_messages
            row["duplicated_messages"] = metrics.duplicated_messages
            row["blocked_messages"] = metrics.blocked_messages
        thresholds = spec.effective_liveness_thresholds()
        if thresholds:
            row["liveness_thresholds"] = thresholds
        if result.series is not None:
            row["series"] = result.series
        if result.traces is not None:
            row["traces"] = result.traces
        if spec.serial:
            row["max_messages_per_request"] = result.max_messages_per_request
        if spec.label is not None:
            row["label"] = spec.label
        return row
