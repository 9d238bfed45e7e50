"""Tests of the simulated cluster plumbing and failure injection."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.registry import build_cluster
from repro.core.builders import build_fault_tolerant_cluster, build_opencube_cluster
from repro.core.messages import RequestMessage
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.cluster import SimulatedCluster
from repro.simulation.failures import FailurePlanner, FailureSchedule
from repro.simulation.network import ConstantDelay, NetworkFaults, PartitionWindow
from repro.simulation.trace import TraceCategory
from repro.workload.arrivals import poisson_arrivals


class TestClusterBasics:
    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            SimulatedCluster({})

    def test_unknown_request_target_rejected(self):
        cluster = build_opencube_cluster(4)
        with pytest.raises(SimulationError):
            cluster.request_cs(9)

    def test_send_to_unknown_node_rejected(self):
        cluster = build_opencube_cluster(4)
        with pytest.raises(SimulationError):
            cluster.environment(1).send(99, object())

    def test_auto_release_after_hold(self):
        cluster = build_opencube_cluster(4, delay_model=ConstantDelay(1.0))
        cluster.request_cs(1, at=1.0, hold=2.0)
        cluster.run_until_quiescent()
        record = next(iter(cluster.metrics.requests.values()))
        assert record.released_at == pytest.approx(record.granted_at + 2.0)

    def test_manual_release(self):
        cluster = build_opencube_cluster(4, delay_model=ConstantDelay(1.0))
        cluster.request_cs(1, at=1.0, auto_release=False)
        cluster.run_until_quiescent()
        assert cluster.node(1).in_critical_section
        cluster.release_cs(1)
        cluster.run_until_quiescent()
        assert not cluster.node(1).in_critical_section

    def test_grant_listener_invoked(self):
        cluster = build_opencube_cluster(4, delay_model=ConstantDelay(1.0))
        grants = []
        cluster.add_grant_listener(lambda node, time: grants.append((node, time)))
        cluster.request_cs(3, at=1.0, hold=0.5)
        cluster.run_until_quiescent()
        assert grants and grants[0][0] == 3

    def test_trace_contains_full_request_lifecycle(self):
        cluster = build_opencube_cluster(8, delay_model=ConstantDelay(1.0))
        cluster.request_cs(6, at=1.0, hold=0.5)
        cluster.run_until_quiescent()
        categories = {record.category for record in cluster.tracer}
        assert {
            TraceCategory.REQUEST,
            TraceCategory.SEND,
            TraceCategory.DELIVER,
            TraceCategory.CS_ENTER,
            TraceCategory.CS_EXIT,
        } <= categories

    def test_grant_to_node_that_never_issued(self):
        # The node acquires behind the cluster's back: the grant is still
        # recorded, matched to no request id, and nothing is auto-released.
        cluster = build_opencube_cluster(4, delay_model=ConstantDelay(1.0))
        grants = []
        cluster.add_grant_listener(lambda node, time: grants.append(node))
        cluster.node(3).acquire()
        cluster.run_until_quiescent()
        assert grants == [3]
        assert cluster.node(3).in_critical_section
        assert cluster.metrics.requests == {}

    def test_father_map_and_snapshots(self):
        cluster = build_opencube_cluster(8)
        fathers = cluster.father_map()
        assert fathers[1] is None and fathers[8] == 7
        assert set(cluster.snapshots()) == set(range(1, 9))


def traced_sends_by_sender(cluster):
    """Per-sender count of SEND trace records, injected duplicates excluded."""
    return Counter(
        record.node
        for record in cluster.tracer.by_category(TraceCategory.SEND)
        if record.details.get("fault") != "duplicate"
    )


class TestSharedSendPath:
    """Every node sends through one cluster-wide function; the sender must
    still be attributed per node, on both the fault-free and the
    adversarial variant, in both the record-keeping and counters modes."""

    @pytest.mark.parametrize("detail", ["full", "counters"])
    def test_fault_free_sends_attributed_to_sender(self, detail):
        cluster = build_cluster("open-cube", 16, seed=3, trace=True, metrics_detail=detail)
        poisson_arrivals(16, 48, rate=0.5, seed=4, hold=0.2).apply(cluster)
        cluster.run_until_quiescent()
        traced = traced_sends_by_sender(cluster)
        assert len(traced) > 1
        assert cluster.metrics.messages_by_sender == traced

    @pytest.mark.parametrize("detail", ["full", "counters"])
    def test_adversarial_sends_attributed_to_sender(self, detail):
        faults = NetworkFaults(
            loss_rate=0.05,
            dup_rate=0.1,
            partitions=[PartitionWindow(start=5.0, heal=15.0, nodes=frozenset({3, 4}))],
            seed=5,
        )
        cluster = build_cluster(
            "open-cube-ft", 16, seed=3, trace=True, metrics_detail=detail,
            network_faults=faults,
        )
        poisson_arrivals(16, 48, rate=0.5, seed=4, hold=0.2).apply(cluster)
        cluster.run_until_quiescent()
        metrics = cluster.metrics
        assert metrics.lost_messages > 0
        assert metrics.duplicated_messages > 0
        assert metrics.blocked_messages > 0
        assert metrics.messages_by_sender == traced_sends_by_sender(cluster)

    def test_crashed_sender_is_ignored_and_not_counted(self):
        cluster = build_cluster("open-cube", 16, seed=3, trace=True)
        cluster.environment(2).send(1, RequestMessage(2, 2))
        cluster.fail_node(5)
        cluster.environment(5).send(1, RequestMessage(5, 5))
        assert cluster.metrics.messages_by_sender == Counter({2: 1})
        assert traced_sends_by_sender(cluster) == Counter({2: 1})
        assert cluster.simulator.pending_events == 1


class TestFailureInjection:
    def test_messages_to_failed_node_are_dropped(self):
        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        cluster.fail_node(5, at=0.5)
        cluster.request_cs(6, at=1.0, hold=0.5)  # father of 6 is 5
        cluster.run(until=3.0)
        assert cluster.metrics.dropped_messages >= 1

    def test_drops_are_accounted_at_delivery_not_at_send(self):
        """Fail-stop loses messages in transit: the send itself is counted
        as a normal send, and the drop counter moves only when the delivery
        reaches the crashed node."""
        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        cluster.fail_node(5, at=0.5)
        cluster.request_cs(6, at=1.0, hold=0.5)  # father of 6 is 5
        cluster.run(until=1.5)  # request sent at t=1.0, arrives at t=2.0
        metrics = cluster.metrics
        sent = metrics.total_messages()
        assert sent >= 1
        assert metrics.dropped_messages == 0
        assert metrics.total_messages(include_dropped=False) == sent
        assert cluster.simulator.step()  # exactly the doomed delivery
        assert cluster.now == 2.0
        # Dropping the delivery sends nothing and counts one drop.
        assert metrics.total_messages() == sent
        assert metrics.dropped_messages == 1
        assert metrics.total_messages(include_dropped=False) == sent - 1

    def test_failed_node_ignores_timers_and_requests(self):
        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        cluster.request_cs(5, at=1.0, hold=50.0)
        cluster.run(until=10.0)
        cluster.fail_node(5)
        assert not cluster.node(5).in_critical_section
        cluster.run_until_quiescent()
        assert cluster.is_failed(5)

    def test_recover_unfailed_node_is_noop(self):
        cluster = build_fault_tolerant_cluster(8)
        cluster.recover_node(3)
        assert not cluster.is_failed(3)
        assert cluster.metrics.recoveries == []

    def test_double_failure_is_idempotent(self):
        cluster = build_fault_tolerant_cluster(8)
        cluster.fail_node(3)
        cluster.fail_node(3)
        assert len(cluster.metrics.failures) == 1

    def test_requests_issued_by_failed_node_are_skipped(self):
        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        cluster.fail_node(6, at=0.5)
        cluster.request_cs(6, at=1.0, hold=0.5)
        cluster.run_until_quiescent()
        assert len(cluster.metrics.requests) == 0


class TestFailurePlanner:
    def test_periodic_failures_never_repeat_consecutively(self):
        planner = FailurePlanner(16, seed=3)
        schedule = planner.periodic_failures(20, start=10.0, spacing=5.0, recover_after=2.0)
        nodes = [event.node for event in schedule]
        assert all(a != b for a, b in zip(nodes, nodes[1:]))
        assert len(schedule) == 20

    def test_protected_nodes_are_never_failed(self):
        planner = FailurePlanner(8, seed=1, protected_nodes=(1, 2))
        schedule = planner.periodic_failures(30, start=1.0, spacing=1.0, recover_after=0.5)
        assert not ({1, 2} & schedule.nodes())

    def test_periodic_without_recovery_never_recrashes_a_down_node(self):
        planner = FailurePlanner(16, seed=3)
        schedule = planner.periodic_failures(15, start=10.0, spacing=5.0)
        # Without recoveries every crashed node stays down, so all 15 crash
        # targets must be distinct — and the schedule validates cleanly.
        assert len(schedule.nodes()) == 15
        schedule.validate()

    def test_periodic_without_recovery_runs_out_of_live_nodes(self):
        planner = FailurePlanner(16, seed=3)
        with pytest.raises(ConfigurationError, match="no node left to fail"):
            planner.periodic_failures(17, start=10.0, spacing=5.0)

    def test_burst_failures_are_distinct(self):
        planner = FailurePlanner(16, seed=5)
        schedule = planner.burst_failures(4, at=10.0, recover_after=5.0)
        assert len(schedule.nodes()) == 4
        assert all(event.recover_at == pytest.approx(event.fail_at + 5.0) for event in schedule)

    def test_targeted_failures_validate_nodes(self):
        planner = FailurePlanner(8, seed=0)
        with pytest.raises(ConfigurationError):
            planner.targeted_failures([9], start=1.0, spacing=1.0)

    def test_cannot_protect_everyone(self):
        with pytest.raises(ConfigurationError):
            FailurePlanner(4, protected_nodes=(1, 2, 3, 4))

    def test_schedule_apply_registers_failures(self):
        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        schedule = FailureSchedule()
        planner = FailurePlanner(8, seed=2)
        schedule = planner.single_failure(4, fail_at=1.0, recover_at=5.0)
        schedule.apply(cluster)
        cluster.run_until_quiescent()
        assert cluster.metrics.failures == [(1.0, 4)]
        assert cluster.metrics.recoveries == [(5.0, 4)]
        assert schedule.last_event_time() == 5.0


class TestScheduleValidation:
    def test_recovery_at_or_before_crash_rejected(self):
        from repro.simulation.failures import FailureEvent

        with pytest.raises(ConfigurationError, match="node 4"):
            FailureEvent(node=4, fail_at=10.0, recover_at=10.0)
        with pytest.raises(ConfigurationError, match="node 4"):
            FailureEvent(node=4, fail_at=10.0, recover_at=3.0)

    def test_negative_fail_time_rejected(self):
        from repro.simulation.failures import FailureEvent

        with pytest.raises(ConfigurationError, match="node 2"):
            FailureEvent(node=2, fail_at=-1.0)

    def test_duplicate_crash_while_down_rejected(self):
        from repro.simulation.failures import FailureEvent

        schedule = FailureSchedule([
            FailureEvent(node=3, fail_at=5.0, recover_at=20.0),
            FailureEvent(node=3, fail_at=10.0, recover_at=30.0),
        ])
        with pytest.raises(ConfigurationError, match="node 3"):
            schedule.validate()

    def test_recrash_of_permanently_down_node_rejected(self):
        from repro.simulation.failures import FailureEvent

        schedule = FailureSchedule([
            FailureEvent(node=7, fail_at=5.0),
            FailureEvent(node=7, fail_at=50.0),
        ])
        with pytest.raises(ConfigurationError, match="down until forever"):
            schedule.validate()

    def test_malformed_schedule_is_rejected_at_apply_time(self):
        from repro.simulation.failures import FailureEvent

        cluster = build_fault_tolerant_cluster(8, delay_model=ConstantDelay(1.0))
        schedule = FailureSchedule([
            FailureEvent(node=3, fail_at=5.0, recover_at=20.0),
            FailureEvent(node=3, fail_at=10.0),
        ])
        with pytest.raises(ConfigurationError, match="node 3"):
            schedule.apply(cluster)
        # Nothing was scheduled: validation runs before any injection.
        assert cluster.metrics.failures == []

    def test_crash_at_recovery_instant_allowed(self):
        from repro.simulation.failures import FailureEvent

        schedule = FailureSchedule([
            FailureEvent(node=3, fail_at=5.0, recover_at=20.0),
            FailureEvent(node=3, fail_at=20.0, recover_at=35.0),
        ])
        schedule.validate()
