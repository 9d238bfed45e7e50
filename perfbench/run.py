"""The repository's benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload sim-steady --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` repeats the workload's suite of cells, each repetition in a
fresh process (``rep.py``), for ``--seconds`` seconds and reports medians
of the end-to-end metrics.  ``--trace 1`` alternates plain and span-traced
repetitions of the suite's first cells for ``--seconds``, adds one
profiled repetition and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it print every metric by name, with
its unit and sample count.  Names and units come from ``BENCHMARK.json``;
``README.md`` next to this file says what each metric measures.

A non-zero exit status prints no result line: the program is not importable
from ``src/`` (not a checkout), or a repetition crashed or timed out.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads  # noqa: E402  (imports the program from src/)
except ModuleNotFoundError as exc:
    # Not a checkout: exit non-zero before measuring anything.
    raise SystemExit(f"perfbench: {exc}; run it from a checkout of this repository") from exc

#: No repetition starts unless the previous one's duration still fits
#: before this many seconds into the run (the run must end within 180 s).
REP_CAP_S = 120.0
#: Hard limit on any one repetition process.
REP_TIMEOUT_S = 170.0
#: Where traced runs write their spans (inside the checkout, git-ignored).
OUT_DIR = ROOT / ".perfbench_out"
#: Figures reported as the largest over a repetition's cells, not the sum.
MAXIMA = ("agenda_peak", "outage_max", "peak_rss_mb")
#: The calibration loop's rounds and object-graph size, and the loop's time
#: on the reference machine: a 2-vCPU shared VM (Intel Xeon) whose speed
#: drifts by 30-60 % over tens of minutes.
CALIBRATION_ROUNDS = 150_000
CALIBRATION_OBJECTS = 1 << 16
CALIBRATION_REFERENCE_S = 0.3


class _Vertex:
    __slots__ = ("value", "table", "peers")

    def __init__(self, value: int) -> None:
        self.value = value
        self.table: dict[int, int] = {}
        self.peers: list[_Vertex] = []


@functools.cache
def _calibration_graph() -> tuple[list[_Vertex], list[int]]:
    rng = random.Random(7)
    vertices = [_Vertex(i) for i in range(CALIBRATION_OBJECTS)]
    for vertex in vertices:
        vertex.peers = [vertices[rng.randrange(CALIBRATION_OBJECTS)] for _ in range(4)]
    return vertices, [rng.randrange(CALIBRATION_OBJECTS) for _ in range(4096)]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: pointer chasing, dict and heap work.

    The loop is the benchmark's own and never changes with the program, so
    its time measures the machine's speed of the moment.  Its object graph
    (tens of MB, built once per run) is larger than the caches, like the
    simulator's: a loop that fits in the caches tracked the program's
    slow spells only half as well.  It runs in this process, between
    repetitions, so it adds neither time nor memory to a repetition.
    """
    vertices, hops = _calibration_graph()
    mask = CALIBRATION_OBJECTS - 1
    heap: list[tuple[int, int]] = []
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        vertex = vertices[hops[i & 4095] ^ (i & mask)]
        vertex.peers[i & 3].table[i & 7] = vertex.value
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - start


class RepetitionFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


def run_rep(
    workload: str,
    seed: int,
    mode: str,
    cells: range,
    deadline: float,
    before: float | None = None,
) -> dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its figures.

    ``before`` is a calibration time taken just before, if the caller has
    one (the previous repetition's closing one); otherwise it is taken here.
    """
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--mode", mode, "--cells", f"{cells.start}:{cells.stop}"]
    if mode == "spans":
        command += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.json")]
    # A fixed hash seed: set iteration order, and so every count, repeats.
    env = dict(os.environ, PYTHONHASHSEED="0")
    if before is None:
        before = calibrate()
    timeout = max(1.0, min(REP_TIMEOUT_S, deadline - time.monotonic()))
    started = time.monotonic()
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RepetitionFailed(f"{workload} {mode} repetition exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise RepetitionFailed(f"{workload} {mode} repetition exited {done.returncode}:\n{tail}")
    figures = json.loads(lines[-1])
    figures["rep_s"] = time.monotonic() - started
    figures["calibration_s"] = [before, calibrate()]
    return figures


def repeat(
    workload: str, seed: int, modes: tuple[str, ...], chunks: list[range], seconds: float
) -> list[list[dict[str, Any]]]:
    """Run the chunks in turn, cycling, each once per mode, for ``seconds``.

    Every chunk runs at least once.  After that no further chunk starts that
    the last one's duration says would end past ``seconds`` (or past
    :data:`REP_CAP_S`).  Returns one list of repetitions per mode.
    """
    started = time.monotonic()
    deadline = started + REP_TIMEOUT_S
    reps: list[list[dict[str, Any]]] = [[] for _ in modes]
    step_s = 0.0
    last: dict[str, Any] | None = None
    for step in itertools.count():
        elapsed = time.monotonic() - started
        if step >= len(chunks) and elapsed + step_s > min(seconds, REP_CAP_S):
            break
        step_start = time.monotonic()
        for mode, done in zip(modes, reps):
            before = last["calibration_s"][1] if last else None
            last = run_rep(workload, seed, mode, chunks[step % len(chunks)], deadline, before)
            done.append(last)
        step_s = time.monotonic() - step_start
    return reps


def executions(reps: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [cell for rep in reps for cell in rep["cells"]]


def completed(cells: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [cell for cell in cells if cell.get("error") is None]


def distinct(workload: str, reps: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The first execution of every simulator cell; every service execution."""
    if workload == workloads.SERVICE_WORKLOAD:
        return executions(reps)
    first: dict[int, dict[str, Any]] = {}
    for cell in executions(reps):
        first.setdefault(cell["seed"], cell)
    return list(first.values())


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def calibration(reps: list[dict[str, Any]]) -> float:
    """The run's median calibration time (see :func:`calibrate`)."""
    return median([sample for rep in reps for sample in rep["calibration_s"]])


def speed(rep: dict[str, Any]) -> float:
    """Reference seconds per wall second: how fast the machine ran around ``rep``.

    The mean of the calibrations just before and just after the repetition.
    Its wall times are multiplied by it (rates divided), so that the
    machine's drift does not read as a change of the program.
    """
    return CALIBRATION_REFERENCE_S / statistics.fmean(rep["calibration_s"])


def messages(cell: dict[str, Any]) -> float:
    """Protocol messages of a cell: sends (simulator) or peer-link frames (service)."""
    return cell.get("messages", cell.get("peer_frames", 0))


def determinism_errors(workload: str, reps: list[dict[str, Any]]) -> list[str]:
    """Deterministic figures that differ between two executions of one cell."""
    if workload == workloads.SERVICE_WORKLOAD:
        return []
    by_seed: dict[int, list[dict[str, Any]]] = {}
    for cell in executions(reps):
        by_seed.setdefault(cell["seed"], []).append(cell)
    errors = []
    for seed, runs in sorted(by_seed.items()):
        for key in workloads.DETERMINISTIC:
            values = {repr(run.get(key)) for run in runs}
            if len(values) > 1:
                errors.append(f"cell {seed}: {key} differs across executions: {sorted(values)}")
    return errors


def end_to_end(
    workload: str, reps: list[dict[str, Any]]
) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics over a run's repetitions, with their sample notes.

    Every metric is a median.  Times are taken over every cell execution;
    the simulator's deterministic figures once per distinct cell, so how
    often a cell happened to repeat does not weigh in.
    """
    runs = completed(executions(reps))
    timed = [(cell, speed(rep)) for rep in reps for cell in completed(rep["cells"])]
    cells = completed(distinct(workload, reps))
    wall_grants_per_s = median([ratio(cell["granted"], cell["wall_s"]) for cell in runs])
    wall_setup_s = median([cell["setup_s"] for cell in runs])
    values = {
        "grants_per_s": median(
            [ratio(cell["granted"], cell["wall_s"]) / scale for cell, scale in timed]
        ),
        "setup_s": median([cell["setup_s"] * scale for cell, scale in timed]),
        "peak_rss_mb": median([cell["peak_rss_mb"] for cell in executions(reps)]),
        "msgs_per_grant": median([ratio(messages(cell), cell["granted"]) for cell in cells]),
        "wait_p50": median([cell["wait_p50"] for cell in cells]),
        "wait_p99": median([cell["wait_p99"] for cell in cells]),
    }
    waits = int(median([cell["wait_samples"] for cell in cells]))
    notes = {
        "grants_per_s": f"median over {len(runs)} cell runs ({wall_grants_per_s:.6g} per wall s)",
        "setup_s": f"median over {len(runs)} cell runs ({wall_setup_s:.6g} wall s)",
        "peak_rss_mb": f"median over {len(executions(reps))} cell runs",
        "msgs_per_grant": f"median over {len(cells)} cells",
        "wait_p50": f"median over {len(cells)} cells of ~{waits} waits each",
        "wait_p99": f"median over {len(cells)} cells of ~{waits} waits each",
    }
    return values, notes


def totals(rep: dict[str, Any]) -> dict[str, float]:
    """A repetition's numeric figures, summed over its completed cells (maxima for MAXIMA)."""
    summed: dict[str, float] = {}
    for cell in completed(rep["cells"]):
        for key, value in cell.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if key in MAXIMA:
                summed[key] = max(summed.get(key, 0.0), value)
            else:
                summed[key] = summed.get(key, 0.0) + value
    return summed


def per_layer(
    plain_reps: list[dict[str, Any]], span_reps: list[dict[str, Any]], profiled: dict[str, Any]
) -> dict[str, float]:
    """Per-layer metrics of one traced run (README.md says what each one is).

    Counts and times are totals over the traced cells, medians over the
    plain (untraced) repetitions; span times come from the span-traced
    repetitions, calls and self shares from the profiled one.
    """
    import layers

    plain = [totals(rep) for rep in plain_reps]

    def value(key: str) -> float:
        return median([figures.get(key, 0.0) for figures in plain])

    def seconds(key: str) -> float:
        """A time figure in reference seconds."""
        return median(
            [figures.get(key, 0.0) * speed(rep) for figures, rep in zip(plain, plain_reps)]
        )

    def wall_per_grant(reps: list[dict[str, Any]]) -> float:
        """Reference seconds per grant."""
        summed = [(totals(rep), speed(rep)) for rep in reps]
        return median(
            [ratio(each["wall_s"] * scale, each.get("granted", 0)) for each, scale in summed]
        )

    events = value("events")
    granted = value("granted")
    profile = profiled["profile"]
    values: dict[str, float] = {}
    for layer in layers.LAYERS:
        stats = profile["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.self_share"] = ratio(stats["self_s"], profile["self_s"])
        values[f"{layer}.calls_per_event"] = ratio(stats["calls"], events)
    simulated = events > 0
    failures = value("failures")
    plain_per_grant = wall_per_grant(plain_reps)
    values.update(
        {
            "simulator.events": events,
            "simulator.run_s": seconds("run_s"),
            "simulator.events_per_s": ratio(events, seconds("run_s")),
            "simulator.agenda_peak": value("agenda_peak"),
            "ft_node.ft_messages": value("ft_messages"),
            "ft_node.msgs_per_failure": ratio(value("ft_messages"), failures),
            "ft_node.outage_max": value("outage_max") if failures else 0.0,
            "metrics.records": value("records"),
            "verification.analyse_s": median(
                [rep["verification_span_s"] * speed(rep) for rep in span_reps]
            ),
            "registry.build_s": seconds("setup_s") if simulated else 0.0,
            "arrivals.feed_s": seconds("feed_s"),
            "client.acquire_calls": 0.0 if simulated else value("attempted"),
            "client.reconnects": value("reconnects"),
            "wire.frames_per_grant": ratio(
                profile["function_calls"].get("wire.encode_frame", 0),
                totals(profiled).get("granted", 0),
            ),
            "transport.peer_frames_per_grant": ratio(value("peer_frames"), granted),
            "service.retransmits": value("retransmits"),
            "service.duplicates_dropped": value("duplicates_dropped"),
            "monitor.events_per_grant": ratio(value("monitor_events"), granted),
            "trace.overhead_ratio": ratio(wall_per_grant(span_reps), plain_per_grant),
            "trace.profile_ratio": ratio(wall_per_grant([profiled]), plain_per_grant),
            "machine.calibration_s": calibration(plain_reps + span_reps + [profiled]),
        }
    )
    return values


def failed_requests(workload: str, reps: list[dict[str, Any]]) -> tuple[int, int]:
    """Requests attempted and failed, once per distinct cell.

    A simulator suite's cells are fixed by the seed, and every one runs at
    least once; counting each once, however often the time allowed it to
    repeat, makes both numbers a function of the seed alone.
    """
    cells = distinct(workload, reps)
    attempted = sum(cell.get("attempted", 0) for cell in cells)
    failed = sum(workloads.failed_requests(workload, cell) for cell in cells)
    return attempted, failed


def named_figures(workload: str, reps: list[dict[str, Any]]) -> list[tuple[str, str, str]]:
    """Workload-specific figures, printed by name for people (not in the JSON line)."""
    cells = completed(distinct(workload, reps))
    attempted, failed = failed_requests(workload, reps)
    rows = [("failed_share", f"{ratio(failed, attempted):.6g}", f"({failed}/{attempted} requests)")]
    if workload == workloads.SERVICE_WORKLOAD:
        for quantile in ("p50", "p99"):
            value = median([cell[f"acquire_{quantile}_s"] for cell in cells]) * 1000
            rows.append((f"acquire_{quantile}_ms", f"{value:.4f}", "ms (client acquire latency)"))
        return rows
    suite = distinct(workload, reps)
    rows.append(
        (
            "cells",
            str(len(suite)),
            f"({sum(cell['budget_exceeded'] for cell in suite)} over the event budget, "
            f"{sum(bool(cell.get('safety_violations')) for cell in suite)} with a CS overlap)",
        )
    )
    for key in ("wait_p50", "wait_p99"):
        rows.append((f"sim_{key}", f"{median([cell[key] for cell in cells]):.6g}", "sim time"))
    failures = sum(cell["failures"] for cell in cells)
    if failures:
        ft_messages = sum(cell["ft_messages"] for cell in cells)
        rows.append(
            (
                "ft_msgs_per_failure",
                f"{ft_messages / failures:.6g}",
                f"msgs ({ft_messages} FT msgs / {failures} failures; paper: 9.75 at N=64)",
            )
        )
        outages = [cell["outage_max"] for cell in cells]
        rows.append(
            (
                "sim_outage_max",
                f"{median(outages):.6g}",
                f"sim time (median per cell; max {max(outages):.6g})",
            )
        )
    return rows


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, declared: dict[str, Any]
) -> dict[str, Any]:
    started = time.monotonic()
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cells = range(workloads.TRACE_CELLS[workload])
        # The profile is slow and needs no repeating (its counts repeat
        # exactly); plain and span-traced repetitions alternate before it.
        plain_reps, span_reps = repeat(workload, seed, ("plain", "spans"), [cells], seconds)
        profiled = run_rep(workload, seed, "profile", cells, started + REP_TIMEOUT_S)
        reps = plain_reps + span_reps + [profiled]
        values, notes = per_layer(plain_reps, span_reps, profiled), {}
        counts = (
            f"{len(plain_reps)} plain + {len(span_reps)} span-traced + 1 profiled reps "
            f"of {len(cells)} cell(s)"
        )
        section = declared["per_layer"]
    else:
        size, chunk = workloads.SUITE_CELLS[workload], workloads.CHUNK_CELLS[workload]
        chunks = [range(start, min(start + chunk, size)) for start in range(0, size, chunk)]
        (reps,) = repeat(workload, seed, ("plain",), chunks, seconds)
        values, notes = end_to_end(workload, reps)
        counts = f"{len(reps)} reps over a suite of {size} cell(s)"
        if len(reps) == len(chunks) and workload != workloads.SERVICE_WORKLOAD:
            # One pass over the suite: run its first cell again, for the
            # determinism check only.
            reps.append(run_rep(workload, seed, "plain", range(1), started + REP_TIMEOUT_S))
            counts += " + a determinism re-run of its first cell"
        section = declared["end_to_end"]
    errors = determinism_errors(workload, reps)
    attempted, failed = failed_requests(workload, reps)
    metrics = {}
    lines = [
        f"perfbench workload={workload} seed={seed} trace={int(trace)} "
        f"nproc={os.cpu_count()} {counts} wall={time.monotonic() - started:.1f}s "
        f"calibration={calibration(reps):.4f}s"
    ]
    for metric in section:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = notes.get(name, "")
        lines.append(f"  {name:<34} {values[name]:>14.6g} {unit:<12} {note}".rstrip())
    for name, value, unit in named_figures(workload, reps):
        lines.append(f"  {name:<34} {value:>14} {unit}")
    lines.extend(f"  DETERMINISM ERROR: {error}" for error in errors)
    print("\n".join(lines), flush=True)
    return {
        "correct": not errors,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in names:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), declared)
            print(json.dumps(result), flush=True)
    except RepetitionFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
