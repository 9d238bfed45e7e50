"""``crashed_in_critical_section`` against its nested-loop definition.

The checker groups crash times by node; the reference below is the original
definition — every failure checked against every interval — kept here so
the two can be compared on seeded random histories and on the boundary
cases where a crash coincides with an entry or an exit.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.registry import build_cluster
from repro.simulation.metrics import CriticalSectionInterval, MetricsCollector
from repro.verification import crashed_in_critical_section
from repro.workload.arrivals import poisson_arrivals


def reference_crashed_in_cs(metrics):
    """The definition: a crash at ``t`` with ``entered_at <= t < exited_at``."""
    crashed = set()
    for crash_time, node in metrics.failures:
        for interval in metrics.cs_intervals:
            if (
                interval.node == node
                and interval.entered_at <= crash_time
                and (interval.exited_at is None or interval.exited_at > crash_time)
            ):
                crashed.add(node)
    return crashed


def history(intervals, failures):
    """A collector holding exactly the given intervals and failures."""
    metrics = MetricsCollector()
    metrics.cs_intervals = [
        CriticalSectionInterval(node, entered, exited) for node, entered, exited in intervals
    ]
    metrics.failures = list(failures)
    return metrics


def random_history(rng, nodes=6, intervals=40, failures=12):
    """Back-to-back CS intervals on an integer clock plus random crashes.

    Integer times make crashes land exactly on entries and exits often;
    some intervals never exit, some nodes crash several times, and a node
    may enter again after a crash (a recovered node re-entering).  The
    failures are shuffled: the checker may not rely on their order.
    """
    records = []
    clock = 0
    for _ in range(intervals):
        clock += rng.randint(0, 2)
        node = rng.randint(1, nodes)
        hold = rng.randint(0, 3)
        exited = None if rng.random() < 0.15 else clock + hold
        records.append((node, clock, exited))
        clock += hold
    crashes = [(rng.randint(0, clock + 1), rng.randint(1, nodes)) for _ in range(failures)]
    rng.shuffle(crashes)
    return history(records, crashes)


class TestCrashScanParity:
    def test_random_histories_match_the_definition(self):
        for seed in range(300):
            rng = random.Random(seed)
            metrics = random_history(
                rng,
                nodes=rng.randint(1, 8),
                intervals=rng.randint(0, 60),
                failures=rng.randint(0, 20),
            )
            expected = reference_crashed_in_cs(metrics)
            assert crashed_in_critical_section(metrics) == expected, f"seed {seed}"

    @pytest.mark.parametrize(
        "intervals,failures,expected",
        [
            # The crash instant is the entry instant: inside.
            ([(1, 5.0, 7.0)], [(5.0, 1)], {1}),
            # The crash instant is the exit instant: already out.
            ([(1, 5.0, 7.0)], [(7.0, 1)], set()),
            # A zero-length interval never contains its own instant.
            ([(1, 5.0, 5.0)], [(5.0, 1)], set()),
            # Never exited: any crash at or after the entry is inside.
            ([(1, 5.0, None)], [(100.0, 1)], {1}),
            ([(1, 5.0, None)], [(4.0, 1)], set()),
            # Another node's crash does not count.
            ([(1, 5.0, 7.0)], [(6.0, 2)], set()),
            # Crashed outside, recovered, re-entered, crashed inside.
            ([(1, 1.0, 2.0), (1, 10.0, 12.0)], [(3.0, 1), (11.0, 1)], {1}),
            # Several crashes of one node, all between its intervals.
            ([(1, 1.0, 2.0), (1, 10.0, 12.0)], [(2.0, 1), (5.0, 1), (9.5, 1)], set()),
            # Several crashes, listed out of order, the last one inside.
            ([(1, 1.0, 2.0), (1, 10.0, None)], [(30.0, 1), (5.0, 1)], {1}),
            # No failures, no intervals.
            ([(1, 1.0, 2.0)], [], set()),
            ([], [(1.0, 1)], set()),
        ],
    )
    def test_boundary_cases(self, intervals, failures, expected):
        metrics = history(intervals, failures)
        assert reference_crashed_in_cs(metrics) == expected
        assert crashed_in_critical_section(metrics) == expected

    @pytest.mark.parametrize("seed,crash_in_cs", [(1, False), (2, True), (4, True)])
    def test_simulated_run_with_repeated_crashes(self, seed, crash_in_cs):
        """A real fault-tolerant run where nodes crash, recover and re-enter."""
        cluster = build_cluster("open-cube-ft", 8, seed=seed, trace=False)
        poisson_arrivals(8, 60, rate=0.5, seed=seed + 10, hold=10.0).apply(cluster)
        rng = random.Random(seed)
        for round_start in (10.0, 60.0, 110.0, 160.0):
            for node in rng.sample(range(1, 9), 2):
                down = round_start + rng.uniform(0.0, 20.0)
                cluster.fail_node(node, at=down)
                cluster.recover_node(node, at=down + 15.0)
        cluster.run_until_quiescent()
        metrics = cluster.metrics
        assert len(metrics.failures) == 8
        crashed = crashed_in_critical_section(metrics)
        assert bool(crashed) == crash_in_cs
        assert crashed == reference_crashed_in_cs(metrics)
