"""Deterministic memory figure of a full-mode run's metrics.

A full-mode run keeps one record per request and one per critical-section
entry, never one per message: sends only bump counters.  The number of
GC-tracked objects reachable from ``cluster.metrics`` is the noise-free
figure for that, so it must stay O(requests) on a protocol that sends many
messages per request.
"""

from __future__ import annotations

import gc
import itertools
from types import ModuleType

from repro.baselines.registry import build_cluster
from repro.core import messages
from repro.workload.arrivals import poisson_arrivals

#: Tracked objects a request may add: today its RequestRecord and its
#: CriticalSectionInterval.
MAX_TRACKED_PER_REQUEST = 3
#: The collector's own containers (counters, record lists and dicts).
FIXED_OVERHEAD = 64


def tracked_reachable(root):
    """Count the GC-tracked objects reachable from ``root``.

    Classes and modules are not followed: they lead to the whole program.
    """
    seen: set[int] = set()
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


def full_run(requests):
    """A quiescent full-mode Ricart-Agrawala run: 2(n-1) messages a request."""
    messages._request_counter = itertools.count(1)
    cluster = build_cluster("ricart-agrawala", 16, seed=3, trace=False)
    poisson_arrivals(16, requests, rate=0.5, seed=4, hold=0.1).apply(cluster)
    cluster.run_until_quiescent()
    return cluster


class TestFullModeFootprint:
    def test_metrics_keep_o_requests_objects(self):
        requests = 200
        metrics = full_run(requests).metrics
        assert metrics.detail == "full"
        assert metrics.requests_granted_count == requests
        assert metrics.total_messages() > 10 * requests
        reachable = tracked_reachable(metrics)
        assert reachable <= MAX_TRACKED_PER_REQUEST * requests + FIXED_OVERHEAD, (
            f"{reachable} tracked objects for {requests} requests and "
            f"{metrics.total_messages()} messages"
        )

    def test_full_mode_keeps_no_message_records(self):
        metrics = full_run(20).metrics
        assert metrics.total_messages() > 0
        assert metrics.sent_messages == []
