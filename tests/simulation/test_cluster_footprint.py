"""Deterministic build-cost figure of the simulated cluster layer.

A cluster build's wall time at n=16384 is dominated by the garbage
collector walking every tracked object the build creates, so the count of
GC-tracked objects per node is the noise-free figure for it.  The cluster
keeps that count small by building one send function for all its nodes
(each node's ``env.send`` is a ``functools.partial`` of it) and by sharing
or deferring its other per-node bookkeeping.
"""

from __future__ import annotations

import functools
import gc

from repro.baselines.registry import build_cluster

#: GC-tracked objects a cluster build may add per node: today the node, the
#: node's own queue of deferred requests, its environment and that
#: environment's partial.
MAX_TRACKED_PER_NODE = 5


def build(n):
    return build_cluster("open-cube", n, metrics_detail="telemetry", trace=False)


def tracked_objects_added_by_build(n):
    """Return the cluster built on ``n`` nodes and the tracked objects it added."""
    gc.collect()
    before = len(gc.get_objects())
    cluster = build(n)
    gc.collect()
    return cluster, len(gc.get_objects()) - before


class TestClusterFootprint:
    def test_tracked_objects_per_node(self):
        _, added_small = tracked_objects_added_by_build(256)
        _, added_large = tracked_objects_added_by_build(1024)
        slope = (added_large - added_small) / (1024 - 256)
        assert slope <= MAX_TRACKED_PER_NODE, (
            f"a cluster build adds {slope:.2f} GC-tracked objects per node"
        )

    def test_every_node_sends_through_one_function(self):
        cluster = build(64)
        sends = [cluster.environment(node_id).send for node_id in cluster.nodes]
        assert all(isinstance(send, functools.partial) for send in sends)
        assert {id(send.func) for send in sends} == {id(sends[0].func)}
        assert [send.args for send in sends] == [(node_id,) for node_id in cluster.nodes]
        assert all(not send.keywords for send in sends)

    def test_nodes_share_one_grant_callback(self):
        cluster = build(64)
        callbacks = {id(node._granted_callback) for node in cluster.nodes.values()}
        assert len(callbacks) == 1

    def test_environment_has_no_instance_dict(self):
        assert not hasattr(build(4).environment(1), "__dict__")
