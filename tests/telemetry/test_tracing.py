"""Unit tests of the causal request/token tracer.

The contract under test: sampling is a pure function of
``(seed, request_id)`` (no RNG state anywhere), the recorder reconstructs
issue → REQUEST hops → token hops → grant → exit from the hook stream it
passively observes, memory stays bounded, the state pickles, and the
Chrome trace-event export is valid.
"""

from __future__ import annotations

import itertools
import json
import pickle

import pytest

from repro.baselines.registry import algorithm_names, build_cluster
from repro.core import messages
from repro.core.messages import RequestMessage, TokenMessage
from repro.exceptions import ConfigurationError
from repro.telemetry import RunTelemetry, TelemetryOptions
from repro.telemetry.tracing import (
    RequestTraceRecorder,
    chrome_trace_events,
    sample_request,
    trace_id_for,
)
from repro.workload.arrivals import poisson_arrivals


class TestSamplingContract:
    def test_sampling_is_pure_and_stable(self):
        decisions = [sample_request(7, rid, 0.3) for rid in range(1, 200)]
        assert decisions == [sample_request(7, rid, 0.3) for rid in range(1, 200)]
        assert any(decisions) and not all(decisions)

    def test_rate_one_samples_everything(self):
        assert all(sample_request(0, rid, 1.0) for rid in range(1, 100))

    def test_different_seeds_sample_different_sets(self):
        a = {rid for rid in range(1, 500) if sample_request(1, rid, 0.2)}
        b = {rid for rid in range(1, 500) if sample_request(2, rid, 0.2)}
        assert a != b

    def test_rate_is_roughly_honoured(self):
        hits = sum(sample_request(3, rid, 0.25) for rid in range(1, 2001))
        assert 350 < hits < 650  # 500 expected; SplitMix64 is well mixed

    @pytest.mark.parametrize("rate", [0.05, 0.5, 0.9])
    def test_every_rate_is_roughly_honoured(self, rate):
        hits = sum(sample_request(17, rid, rate) for rid in range(1, 4001))
        assert abs(hits / 4000 - rate) < 0.03

    def test_trace_ids_depend_on_the_seed(self):
        assert trace_id_for(1, 7) != trace_id_for(2, 7)

    def test_trace_ids_are_stable_hex_and_distinct(self):
        ids = {trace_id_for(5, rid) for rid in range(1, 50)}
        assert len(ids) == 49
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)
        assert trace_id_for(5, 7) == trace_id_for(5, 7)

    def test_invalid_rate_and_limit_rejected(self):
        for rate in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                RequestTraceRecorder(rate)
        with pytest.raises(ConfigurationError):
            RequestTraceRecorder(0.5, limit=0)


class TestRecorderLifecycle:
    def recorder(self, **kwargs):
        recorder = RequestTraceRecorder(1.0, **kwargs)
        recorder.bind_seed(11)
        return recorder

    def test_full_journey_is_reconstructed(self):
        recorder = self.recorder()
        request = RequestMessage(requester=2, source=2)
        token = TokenMessage(lender=1)
        recorder.on_issue(1, 2, 1.0)
        recorder.on_send(1.0, 2, 1, request)
        recorder.on_deliver(1.4, 2, 1, request)
        recorder.on_send(1.5, 1, 2, token)
        recorder.on_deliver(2.0, 1, 2, token)
        recorder.on_grant(1, 2.0)
        recorder.on_cs_exit(2, 2.5)
        recorder.finalize(3.0)
        block = recorder.block()
        assert block["sampled"] == 1 and block["retained"] == 1
        trace = block["traces"][0]
        assert trace["issued_at"] == 1.0
        assert trace["granted_at"] == 2.0
        assert trace["exited_at"] == 2.5
        categories = [hop["category"] for hop in trace["hops"]]
        assert categories == ["request", "token"]
        assert trace["hops"][0]["delivered_at"] == 1.4
        assert trace["hops"][1]["to"] == 2

    def test_dropped_hop_is_marked_not_delivered(self):
        recorder = self.recorder()
        request = RequestMessage(requester=4, source=4)
        recorder.on_issue(1, 4, 0.5)
        recorder.on_send(0.6, 4, 3, request)
        recorder.on_drop(0.6, 4, 3, request, "loss")
        recorder.finalize(5.0)
        hop = recorder.block()["traces"][0]["hops"][0]
        assert hop["dropped"] == "loss"
        assert hop["delivered_at"] is None

    def test_unsampled_traffic_is_ignored(self):
        recorder = RequestTraceRecorder(1e-12)
        recorder.bind_seed(1)
        recorder.on_issue(1, 2, 1.0)
        recorder.on_send(1.0, 2, 1, RequestMessage(requester=2, source=2))
        recorder.on_grant(1, 2.0)
        recorder.on_cs_exit(2, 2.5)
        recorder.finalize(3.0)
        block = recorder.block()
        assert block["sampled"] == 0
        assert block["traces"] == []

    def test_retained_traces_are_capped_and_overflow_counted(self):
        recorder = self.recorder(limit=2)
        for rid in range(1, 6):
            node = rid
            recorder.on_issue(rid, node, float(rid))
            recorder.on_grant(rid, rid + 0.5)
            recorder.on_cs_exit(node, rid + 0.7)
        recorder.finalize(10.0)
        block = recorder.block()
        assert block["sampled"] == 5
        assert block["retained"] == 2
        assert block["truncated"] == 3

    def test_hops_per_trace_are_capped(self):
        recorder = self.recorder(max_hops=3)
        recorder.on_issue(1, 2, 1.0)
        request = RequestMessage(requester=2, source=2)
        for step in range(6):
            recorder.on_send(1.0 + step, 2, 3, request)
        recorder.on_grant(1, 9.0)
        recorder.on_cs_exit(2, 9.5)
        recorder.finalize(10.0)
        trace = recorder.block()["traces"][0]
        assert len(trace["hops"]) == 3
        assert trace["hops_truncated"] == 3

    def test_failure_closes_trace_unfinished(self):
        recorder = self.recorder()
        recorder.on_issue(1, 2, 1.0)
        recorder.on_failure(2, 1.5)
        recorder.finalize(2.0)
        trace = recorder.block()["traces"][0]
        assert trace["failed_at"] == 1.5
        assert trace["granted_at"] is None

    def test_open_trace_is_closed_at_finalize(self):
        recorder = self.recorder()
        recorder.on_issue(1, 2, 1.0)
        recorder.finalize(4.0)
        trace = recorder.block()["traces"][0]
        assert trace["open_at_end"] == 4.0

    def test_recorder_pickles_through_the_fork_pipe(self):
        recorder = self.recorder()
        recorder.on_issue(1, 2, 1.0)
        recorder.on_send(1.0, 2, 1, RequestMessage(requester=2, source=2))
        clone = pickle.loads(pickle.dumps(recorder))
        clone.on_deliver(1.5, 2, 1, RequestMessage(requester=2, source=2))
        clone.on_grant(1, 2.0)
        clone.on_cs_exit(2, 2.5)
        clone.finalize(3.0)
        trace = clone.block()["traces"][0]
        assert trace["hops"][0]["delivered_at"] == 1.5


class TestEveryAlgorithmIsTraced:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_full_sample_traces_every_request_in_causal_order(self, algorithm):
        from repro.experiments.runner import run_workload

        messages._request_counter = itertools.count(1)
        result = run_workload(
            algorithm,
            16,
            poisson_arrivals(16, 40, rate=0.6, seed=9, hold=0.2),
            seed=13,
            metrics_detail="telemetry",
            telemetry={"trace_sample": 1.0, "trace_limit": 64},
        )
        block = result.traces
        assert block["sampled"] == block["retained"] == 40
        assert block["truncated"] == 0
        for trace in block["traces"]:
            assert trace["issued_at"] <= trace["granted_at"] <= trace["exited_at"]
            for hop in trace["hops"]:
                assert hop["delivered_at"] is not None
                assert hop["sent_at"] <= hop["delivered_at"] <= trace["exited_at"]
        assert any(hop["category"] == "token" for t in block["traces"] for hop in t["hops"])


class TestHubIntegration:
    def test_options_round_trip_and_validation(self):
        options = TelemetryOptions.from_dict({"trace_sample": 0.5, "trace_limit": 4})
        assert options.trace_sample == 0.5
        clone = TelemetryOptions.from_dict(options.to_dict())
        assert clone == options
        with pytest.raises(ConfigurationError):
            RunTelemetry({"trace_sample": 2.0})

    def test_hub_without_tracing_has_no_traces_block(self):
        hub = RunTelemetry()
        assert hub.tracing is None
        hub.finalize(1.0, 0)
        assert "traces" not in hub.report()

    def test_hub_report_carries_traces_block(self):
        hub = RunTelemetry({"trace_sample": 1.0})
        hub.tracing.bind_seed(3)
        hub.on_issue(1, 2, 1.0, total_sent=0)
        hub.on_grant(1, 2.0)
        hub.on_cs_enter(2, 2.0)
        hub.on_cs_exit(2, 2.5)
        hub.finalize(3.0, 4)
        block = hub.report()["traces"]
        assert block["sampled"] == 1
        assert block["traces"][0]["granted_at"] == 2.0


class TestChromeExport:
    def run_block(self):
        messages._request_counter = itertools.count(1)
        cluster = build_cluster(
            "open-cube",
            8,
            seed=7,
            trace=False,
            metrics_detail="telemetry",
            telemetry_options={"trace_sample": 1.0},
        )
        poisson_arrivals(8, 24, rate=2.0, seed=3).apply(cluster)
        cluster.run_until_quiescent()
        cluster.metrics.finalize_telemetry(cluster.now)
        return cluster.metrics.telemetry.tracing.block()

    def test_chrome_export_is_valid_and_complete(self):
        block = self.run_block()
        document = chrome_trace_events(block)
        payload = json.loads(json.dumps(document))  # JSON-serialisable
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            assert "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Spans reconstruct a full journey: wait + cs + request/token hops
        # + grant/exit instants for at least one sampled request.
        by_name = {event["name"] for event in events}
        assert {"wait", "cs", "grant", "exit", "process_name"} <= by_name
        categories = {event.get("cat") for event in events}
        assert {"request", "token", "cs"} <= categories

    def test_recorder_chrome_trace_matches_module_exporter(self):
        block = self.run_block()
        recorder = RequestTraceRecorder(1.0)
        recorder.bind_seed(block["seed"])
        assert chrome_trace_events(block) == chrome_trace_events(
            json.loads(json.dumps(block))
        )
