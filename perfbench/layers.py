"""Per-layer measurement for traced repetitions: spans and a folded profile.

Nothing here is imported by an untraced repetition.

* :class:`SpanRecorder` keeps spans (name, layer, start, end, parent, run
  id) in memory and writes them out at the end.  :meth:`SpanRecorder.wrap`
  installs spans around the program's public calls that the benchmark
  reaches only through :meth:`ScenarioSpec.run` or the lock client.
* :func:`fold_profile` folds a :mod:`cProfile` run by source file into the
  layers below: Python-level calls per layer and each layer's share of the
  profiled self time.  Built-in functions have no source file; their time
  goes to the layers that called them, in proportion to the calls.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import functools
import inspect
import itertools
import json
import pstats
import sysconfig
import time
from pathlib import Path
from typing import Any, Iterator

#: Layer name -> the source files (relative to ``src/repro/``, or to the
#: standard library under ``<stdlib>/``) whose functions belong to it.
LAYER_FILES: dict[str, tuple[str, ...]] = {
    "simulator": ("simulation/simulator.py", "simulation/events.py"),
    "node": ("core/node.py",),
    "ft_node": ("core/fault_tolerant_node.py",),
    "cluster": ("simulation/cluster.py",),
    "network": ("simulation/network.py",),
    "telemetry": ("telemetry/",),
    "metrics": ("simulation/metrics.py",),
    "verification": ("verification/",),
    "registry": (
        "baselines/registry.py",
        "core/builders.py",
        "core/topology.py",
        "core/opencube.py",
    ),
    "arrivals": ("workload/arrivals.py",),
    "client": ("runtime/client.py",),
    "wire": ("runtime/wire.py", "<stdlib>/json/"),
    "transport": ("runtime/transport.py",),
    "service": ("runtime/service.py",),
    "monitor": ("runtime/monitor.py",),
    "asyncio": ("<stdlib>/asyncio/", "<stdlib>/selectors.py"),
}
LAYERS = tuple(LAYER_FILES)
_STDLIB = sysconfig.get_paths()["stdlib"]


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or ``None``."""
    marker = filename.rfind("/repro/")
    if marker >= 0:
        relative = filename[marker + len("/repro/") :]
    elif filename.startswith(_STDLIB + "/"):
        relative = "<stdlib>" + filename[len(_STDLIB) :]
    else:
        return None
    for layer, prefixes in LAYER_FILES.items():
        if any(relative.startswith(prefix) for prefix in prefixes):
            return layer
    return None


class CellProfiler:
    """A :mod:`cProfile` profile per cell, over the calls the cell's hook wraps.

    A cell opens with ``ScenarioSpec.run`` (the service's one cell with its
    first hook).  :meth:`fold` leaves out the cells that failed: a cell that
    ran out of its event budget would otherwise swamp the layer split with
    its livelock.
    """

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []

    @contextlib.contextmanager
    def hook(self, name: str, layer: str) -> Iterator[None]:
        if name == "ScenarioSpec.run" or not self.profiles:
            self.profiles.append(cProfile.Profile())
        profile = self.profiles[-1]
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    def fold(self, cells: list[dict[str, Any]]) -> dict[str, Any]:
        kept = [profile for profile, cell in zip(self.profiles, cells) if cell["error"] is None]
        if not kept:
            return {"layers": {}, "self_s": 0.0, "function_calls": {}}
        stats = pstats.Stats(kept[0])
        for profile in kept[1:]:
            stats.add(profile)
        return fold_profile(stats)


def fold_profile(stats: pstats.Stats) -> dict[str, Any]:
    """Fold a profile by layer.

    Returns ``layers`` (per layer: ``calls``, the Python-level calls into
    its files, and ``self_s``), ``self_s`` (all profiled self time) and
    ``function_calls`` (``"<layer>.<function>"`` -> calls).
    """
    folded = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    total = 0.0
    function_calls: dict[str, int] = {}
    builtins: list[tuple[float, dict]] = []
    for (filename, _line, name), (_cc, calls, self_s, _cum, callers) in stats.stats.items():
        total += self_s
        if filename == "~":
            builtins.append((self_s, callers))
            continue
        layer = layer_of(filename)
        if layer is not None:
            folded[layer]["calls"] += calls
            folded[layer]["self_s"] += self_s
            key = f"{layer}.{name}"
            function_calls[key] = function_calls.get(key, 0) + calls
    for self_s, callers in builtins:
        weights: dict[str, int] = {}
        for (filename, _line, _name), caller_stats in callers.items():
            layer = layer_of(filename)
            if layer is not None:
                weights[layer] = weights.get(layer, 0) + caller_stats[1]
        for layer, weight in weights.items():
            folded[layer]["self_s"] += self_s * weight / sum(weights.values())
    return {"layers": folded, "self_s": total, "function_calls": function_calls}


class SpanRecorder:
    """In-memory spans of one traced repetition, sharing one run id.

    The current span lives in a context variable, so concurrent asyncio
    tasks (one per lock client) each keep their own parent chain.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "span", default=None
        )
        self._patches: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "run": self.run_id,
                }
            )

    def wrap(self, owner: Any, attribute: str, layer: str) -> None:
        """Record a span around every call of ``owner.attribute`` until :meth:`unwrap`."""
        function = getattr(owner, attribute)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, layer):
                    return await function(*args, **kwargs)

        else:

            @functools.wraps(function)
            def traced(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, layer):
                    return function(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, function))

    def unwrap(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def durations(self, layer: str) -> float:
        """Summed duration of the outermost spans of ``layer`` (nested ones not re-counted)."""
        by_id = {span["id"]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span["layer"] != layer:
                continue
            parent = by_id.get(span["parent"])
            if parent is not None and parent["layer"] == layer:
                continue
            total += span["end"] - span["start"]
        return total

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by its child spans."""
        children: dict[int | None, float] = {}
        for span in self.spans:
            children[span["parent"]] = children.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run": self.run_id,
            "spans": self.spans,
            "self_s": self.self_times(),
        }
        path.write_text(json.dumps(document) + "\n")


def wrap_program(recorder: SpanRecorder) -> None:
    """Install spans around the public calls a repetition reaches indirectly."""
    from repro.experiments import runner
    from repro.runtime import LockClient
    from repro.simulation.cluster import SimulatedCluster
    from repro.simulation.failures import FailureSchedule
    from repro.simulation.metrics import MetricsCollector
    from repro.workload.arrivals import Workload

    # run_workload calls these through its own module namespace.
    recorder.wrap(runner, "build_cluster", "registry")
    for analyser in (
        "find_overlaps",
        "crashed_in_critical_section",
        "analyse_liveness",
        "replay_online",
    ):
        recorder.wrap(runner, analyser, "verification")
    recorder.wrap(SimulatedCluster, "feed_workload", "arrivals")
    recorder.wrap(Workload, "schedule", "arrivals")
    recorder.wrap(FailureSchedule, "apply", "arrivals")
    recorder.wrap(SimulatedCluster, "run_until_quiescent", "simulator")
    recorder.wrap(MetricsCollector, "finalize_telemetry", "telemetry")
    recorder.wrap(LockClient, "acquire", "client")
    recorder.wrap(LockClient, "release", "client")
