"""The benchmark's workloads, driven through the program's public calls.

One repetition (``rep.py``, one fresh process) runs a slice of a workload's
*cells* in order and returns ``{"cells": [...]}``; each
cell is a flat dict of raw figures (``wall_s``, ``setup_s``, counts,
waits, ...) that ``run.py`` aggregates.

* The simulator workloads run a *suite* of independent cells, one
  :meth:`ScenarioSpec.run` each on the serial engine (``shards=0``), with
  cell seeds derived from the benchmark seed.  A suite averages over many
  arrival and failure patterns, so two benchmark seeds measure the same
  workload rather than two different draws of it.  Keys in ``DETERMINISTIC``
  must be identical wherever a cell runs again.
* The service workload is one cell: eight in-process ``LockServer``\\ s on
  loopback TCP, started with :func:`start_servers` and driven by two
  closed-loop :class:`LockClient`\\ s for ``SERVICE_REP_S`` seconds.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import statistics
import time
from typing import Any, Callable

from repro.exceptions import ReproError
from repro.scenarios.spec import DelaySpec, FailureSpec, ScenarioSpec, WorkloadSpec
from repro.verification import (
    analyse_liveness,
    crashed_in_critical_section,
    find_overlaps,
    replay_online,
)

SIM_WORKLOADS = ("sim-steady", "sim-failover")
SERVICE_WORKLOAD = "service-lock"
WORKLOADS = SIM_WORKLOADS + (SERVICE_WORKLOAD,)

#: Cells in a workload's suite, per repetition (process), and per traced
#: repetition (the suite's first ones).
SUITE_CELLS = {"sim-steady": 3, "sim-failover": 128, SERVICE_WORKLOAD: 1}
CHUNK_CELLS = {"sim-steady": 1, "sim-failover": 16, SERVICE_WORKLOAD: 1}
TRACE_CELLS = {"sim-steady": 1, "sim-failover": 8, SERVICE_WORKLOAD: 1}

#: Cell figures that must repeat exactly wherever a cell runs again.
DETERMINISTIC = (
    "attempted",
    "issued",
    "granted",
    "messages",
    "events",
    "agenda_peak",
    "ft_messages",
    "failures",
    "records",
    "wait_p50",
    "wait_p99",
    "wait_samples",
    "outage_max",
    "safety_violations",
    "starved",
    "budget_exceeded",
    "bound_exceeded",
)

# sim-steady: the paper's failure-free hot path at scale (open loop).
STEADY_N = 16384
STEADY_REQUESTS = 32768
STEADY_RATE = 0.2
STEADY_HOLD = 0.1
#: Quantile sketch resolution: 1 % buckets instead of the default 5 %, so a
#: shift of a few percent in the waiting time shows.
STEADY_SKETCH_GROWTH = 1.01

# sim-failover: one cell is the EXP-FAIL shape of repro.experiments.failures
# (open loop).
FAILOVER_N = 64
FAILOVER_FAILURES = 200
FAILOVER_REQUESTS = max(4 * FAILOVER_N, 6 * FAILOVER_FAILURES)
FAILOVER_RATE = 0.02
FAILOVER_HOLD = 0.3
FAILOVER_SPACING = 250.0
FAILOVER_RECOVER_AFTER = 100.0
#: Event budget of one cell.  Cells that quiesce need at most ~80k events
#: (200 probed seeds); a cell still running after 500k has livelocked.
FAILOVER_MAX_EVENTS = 500_000

# service-lock: closed loop, two clients homed on two different servers.
SERVICE_N = 8
#: Fixed homes: the token's path between them sets the messages per grant
#: (log2 8 + 1 = 4 for these two), so every seed measures the same shape.
SERVICE_HOMES = (1, 8)
#: The message-delay bound the servers report to their nodes
#: (``start_servers``' default).
SERVICE_MAX_DELAY_S = 0.05
SERVICE_CS_ESTIMATE_S = 0.01
SERVICE_ACQUIRE_TIMEOUT_S = 10.0
#: Acquire phase of one service repetition, in wall seconds.
SERVICE_REP_S = 3.0
#: ``start_servers`` calls per repetition; ``setup_s`` is their median.
SERVICE_SETUPS = 5

#: A repetition's hook around its measured calls: ``hook(name, layer)``
#: returns a context manager.  Plain repetitions pass none.
Hook = Callable[[str, str], Any]


def _no_hook(name: str, layer: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark from its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """This process's RSS high-water mark since :func:`reset_peak_rss` (VmHWM, KiB).

    Not ``ru_maxrss``: that also keeps the high-water mark of the process
    image replaced at exec, which for a child started by vfork is the
    parent's.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def cell_seed(workload: str, seed: int, index: int) -> int:
    """The seed of a suite's cell ``index``; the suites of two seeds never overlap."""
    return seed * SUITE_CELLS[workload] + index


def sim_spec(workload: str, seed: int) -> ScenarioSpec:
    """The declared cell of a simulator workload; every input comes from ``seed``."""
    if workload == "sim-steady":
        return ScenarioSpec(
            algorithm="open-cube",
            n=STEADY_N,
            workload=WorkloadSpec(
                "poisson",
                {"count": STEADY_REQUESTS, "rate": STEADY_RATE, "hold": STEADY_HOLD, "seed": seed},
            ),
            delay=DelaySpec("uniform", {"low": 0.5, "high": 1.0}),
            seed=seed,
            metrics_detail="telemetry",
            telemetry={"sketch_growth": STEADY_SKETCH_GROWTH},
            stream=True,
        )
    if workload == "sim-failover":
        # Seeds wired as in measure_failure_overhead: workload and delays
        # use ``seed``, the failure planner ``seed + 1``.
        return ScenarioSpec(
            algorithm="open-cube-ft",
            n=FAILOVER_N,
            workload=WorkloadSpec(
                "poisson",
                {
                    "count": FAILOVER_REQUESTS,
                    "rate": FAILOVER_RATE,
                    "hold": FAILOVER_HOLD,
                    "seed": seed,
                },
            ),
            delay=DelaySpec("constant", {"delay": 1.0}),
            seed=seed,
            failures=FailureSpec(
                "periodic",
                {
                    "count": FAILOVER_FAILURES,
                    "start": 20.0,
                    "spacing": FAILOVER_SPACING,
                    "recover_after": FAILOVER_RECOVER_AFTER,
                },
                seed=seed + 1,
            ),
            metrics_detail="full",
            max_events=FAILOVER_MAX_EVENTS,
        )
    raise ValueError(f"not a simulator workload: {workload!r}")


def run_sim_cell(workload: str, seed: int, hook: Hook = _no_hook) -> dict[str, Any]:
    """One spec -> row cell of a simulator workload.

    ``wall_s`` times :meth:`ScenarioSpec.run` plus :meth:`ScenarioResult.row`
    (build + feed + run + analyse), each inside ``hook``; the output checks
    after them are untimed.
    """
    spec = sim_spec(workload, seed)
    delta = spec.delay.build().max_delay
    figures: dict[str, Any] = {
        "seed": seed,
        "attempted": spec.workload.params["count"],
        "budget_exceeded": False,
        "bound_exceeded": False,
        "error": None,
    }
    start = time.perf_counter()
    try:
        with hook("ScenarioSpec.run", "scenarios"):
            scenario = spec.run()
        with hook("ScenarioResult.row", "scenarios"):
            scenario.row()
    except ReproError as exc:
        # A cell that is not quiescent within its event budget (or fails in
        # any other way) fails every request it was given.
        figures.update(
            wall_s=time.perf_counter() - start,
            budget_exceeded="event budget" in str(exc),
            error=f"{type(exc).__name__}: {exc}",
        )
        return figures
    wall = time.perf_counter() - start
    result = scenario.result
    cluster = result.cluster
    metrics = cluster.metrics
    granted = result.requests_granted
    figures.update(
        wall_s=wall,
        setup_s=result.setup_s,
        feed_s=result.feed_s,
        run_s=result.run_s,
        issued=result.requests_issued,
        granted=granted,
        messages=result.total_messages,
        events=result.events,
        agenda_peak=result.agenda_peak,
        ft_messages=result.overhead_messages,
        failures=result.failures,
        records=len(metrics.sent_messages) + len(metrics.requests) + len(metrics.cs_intervals),
    )
    if result.online_checks is not None:
        # Telemetry mode: the online checkers watched the run.
        waits = result.quantiles["waiting_time"]
        figures.update(
            wait_p50=waits["p50"] / delta,
            wait_p99=waits["p99"] / delta,
            wait_samples=waits["count"],
            safety_violations=result.online_checks["safety"]["violations"],
            starved=result.online_checks["liveness"]["starved"],
            outage_max=result.online_checks["liveness"]["max_grant_gap"] / delta,
        )
    else:
        # Full mode: analyse the kept records.
        ordered = sorted(
            record.granted_at - record.issued_at
            for record in metrics.requests.values()
            if record.granted_at is not None
        )
        overlaps = find_overlaps(
            metrics,
            end_of_time=cluster.now,
            exclude_nodes=sorted(crashed_in_critical_section(metrics)),
        )
        verdicts = replay_online(metrics, end_of_time=cluster.now)
        figures.update(
            wait_p50=quantile(ordered, 0.50) / delta if ordered else 0.0,
            wait_p99=quantile(ordered, 0.99) / delta if ordered else 0.0,
            wait_samples=len(ordered),
            safety_violations=len(overlaps),
            starved=len(analyse_liveness(metrics).starved),
            outage_max=verdicts.liveness.report()["max_grant_gap"] / delta,
        )
    if not result.failures and granted:
        # The paper's failure-free bound: at most log2 n + 1 messages/request.
        figures["bound_exceeded"] = result.total_messages / granted > math.log2(spec.n) + 1
    return figures


def sim_failed(figures: dict[str, Any]) -> int:
    """Requests a simulator cell failed (see the README's failed_share)."""
    attempted = figures["attempted"]
    if figures["error"] is not None or figures["bound_exceeded"]:
        return attempted
    return min(attempted, figures["safety_violations"] + figures["starved"])


async def _start_service(monitor: Any) -> tuple[dict[int, Any], float]:
    from repro.core.builders import build_fault_tolerant_nodes
    from repro.runtime import start_servers

    nodes = build_fault_tolerant_nodes(SERVICE_N, cs_duration_estimate=SERVICE_CS_ESTIMATE_S)
    start = time.perf_counter()
    servers = await start_servers(nodes, monitor=monitor.address, max_delay=SERVICE_MAX_DELAY_S)
    return servers, time.perf_counter() - start


async def _stop_service(servers: dict[int, Any]) -> None:
    # Concurrently: stopped one by one, each server waits out its peers' links.
    await asyncio.gather(*(server.stop() for server in servers.values()))


async def _service_cell(seed: int, hook: Hook) -> dict[str, Any]:
    # Imported here so the simulator repetitions do not load the runtime.
    from repro.runtime import LockClient, LockServiceError, SLOMonitor

    # The seed's only input here: the clients' retry-jitter generators.
    rng = random.Random(seed)
    client_seeds = [rng.randrange(2**31) for _ in SERVICE_HOMES]
    setups: list[float] = []
    # Throwaway set-ups first (each with its own monitor, so their events
    # stay out of the measured one); the last set-up serves the clients.
    for _ in range(SERVICE_SETUPS - 1):
        scratch = SLOMonitor()
        await scratch.start()
        servers, setup_s = await _start_service(scratch)
        setups.append(setup_s)
        await _stop_service(servers)
        await scratch.close()
    monitor = SLOMonitor()
    await monitor.start()
    with hook("start_servers", "service"):
        servers, setup_s = await _start_service(monitor)
    setups.append(setup_s)

    latencies: list[float] = []
    errors: list[str] = []
    clients = [
        LockClient(servers[home].address, client_id=home, seed=client_seed)
        for home, client_seed in zip(SERVICE_HOMES, client_seeds)
    ]
    deadline = time.perf_counter() + SERVICE_REP_S

    async def closed_loop(client: LockClient) -> None:
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            try:
                rid = await client.acquire(timeout=SERVICE_ACQUIRE_TIMEOUT_S)
            except LockServiceError as exc:
                errors.append(type(exc).__name__)
                continue
            latencies.append(time.perf_counter() - started)
            await client.release(rid)

    acquire_start = time.perf_counter()
    try:
        with hook("acquire-phase", "workload"):
            await asyncio.gather(*(closed_loop(client) for client in clients))
    finally:
        acquire_wall = time.perf_counter() - acquire_start
        for client in clients:
            await client.close()
    await asyncio.sleep(0.3)  # let the trailing events reach the monitor
    monitor.finalize()
    with hook("SLOMonitor.report", "monitor"):
        report = monitor.report()
    with hook("LockServer.status", "service"):
        statuses = [server.status() for server in servers.values()]
    await _stop_service(servers)
    await monitor.close()

    latencies.sort()
    grants = len(latencies)
    p50_s = quantile(latencies, 0.50) if latencies else 0.0
    p99_s = quantile(latencies, 0.99) if latencies else 0.0
    peer_frames = sum(link["sent"] for status in statuses for link in status["links"].values())
    # The service's message delay: acquire-phase wall time per peer-link
    # frame.  Waits in these units keep the latency's shape but not the
    # machine's speed of the moment, which grants_per_s already carries.
    delta_s = acquire_wall / peer_frames if peer_frames else 0.0
    return {
        "seed": seed,
        "error": None,
        "wall_s": acquire_wall,
        "setup_s": statistics.median(setups),
        "attempted": grants + len(errors),
        "granted": grants,
        "errors": errors,
        "acquire_p50_s": p50_s,
        "acquire_p99_s": p99_s,
        "wait_p50": p50_s / delta_s if delta_s else 0.0,
        "wait_p99": p99_s / delta_s if delta_s else 0.0,
        "wait_samples": grants,
        "peer_frames": peer_frames,
        "retransmits": sum(status["retransmits"] for status in statuses),
        "duplicates_dropped": sum(status["duplicates_dropped"] for status in statuses),
        "monitor_events": report["events"]["received"],
        "safety_violations": report["safety"]["violations"],
        "reconnects": sum(client.reconnects for client in clients),
    }


def run_service_cell(seed: int, hook: Hook = _no_hook) -> dict[str, Any]:
    """service-lock: set up, closed-loop acquire phase, tear down."""
    try:
        return asyncio.run(_service_cell(seed, hook))
    except ReproError as exc:
        # Set-up or tear-down failed: the cell counts as one failed acquire.
        error = f"{type(exc).__name__}: {exc}"
        return {"seed": seed, "error": error, "attempted": 1, "errors": ["set-up"]}


def service_failed(figures: dict[str, Any]) -> int:
    """Acquires a service cell failed: timeouts/errors + safety violations."""
    failed = len(figures["errors"]) + figures.get("safety_violations", 0)
    return min(figures["attempted"], failed)


def failed_requests(workload: str, figures: dict[str, Any]) -> int:
    if workload == SERVICE_WORKLOAD:
        return service_failed(figures)
    return sim_failed(figures)


def run_repetition(
    workload: str, seed: int, cells: range, hook: Hook = _no_hook
) -> dict[str, Any]:
    """Cells ``cells`` (indices into ``workload``'s suite), in order.

    Each cell records its own ``peak_rss_mb``: the high-water mark is reset
    before it, so a heavy cell does not raise the figures of those after it.
    """
    results = []
    for index in (range(1) if workload == SERVICE_WORKLOAD else cells):
        # The last cell's cluster is cyclic garbage until a full collection.
        gc.collect()
        reset_peak_rss()
        if workload == SERVICE_WORKLOAD:
            figures = run_service_cell(seed, hook)
        else:
            figures = run_sim_cell(workload, cell_seed(workload, seed, index), hook)
        figures["peak_rss_mb"] = peak_rss_mb()
        results.append(figures)
    return {"cells": results}
