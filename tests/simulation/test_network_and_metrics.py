"""Tests for delay models, channel ordering, metrics and tracing."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import (
    ChannelState,
    ConstantDelay,
    DelayModel,
    ParetoDelay,
    PerHopDelay,
    UniformDelay,
)
from repro.simulation.trace import NullTracer, TraceCategory, Tracer


class TestDelayModels:
    def test_constant_delay(self):
        model = ConstantDelay(2.5)
        rng = random.Random(0)
        assert model.sample(1, 2, rng) == 2.5
        assert model.max_delay == 2.5

    def test_constant_delay_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConstantDelay(0.0)

    def test_uniform_delay_within_bounds(self):
        model = UniformDelay(0.5, 2.0)
        rng = random.Random(1)
        samples = [model.sample(1, 2, rng) for _ in range(200)]
        assert all(0.5 <= s <= 2.0 for s in samples)
        assert model.max_delay == 2.0

    def test_uniform_delay_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformDelay(-1.0, 1.0)

    def test_per_hop_delay_respects_bound(self):
        model = PerHopDelay(base=0.2, jitter=0.1, dimensions=5)
        rng = random.Random(2)
        for sender in range(1, 33):
            sample = model.sample(sender, 33 - sender, rng)
            assert 0 < sample <= model.max_delay

    def test_per_hop_delay_grows_with_hamming_distance(self):
        model = PerHopDelay(base=1.0, jitter=0.0, dimensions=5)
        rng = random.Random(0)
        near = model.sample(1, 2, rng)  # 1 bit apart
        far = model.sample(1, 32, rng)  # 5 bits apart
        assert far > near

    def test_per_hop_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            PerHopDelay(base=0.0)


#: One configured instance of every delay model, keyed for readable test ids.
DELAY_MODELS = {
    "constant": lambda: ConstantDelay(1.5),
    "uniform": lambda: UniformDelay(0.5, 1.0),
    "per-hop": lambda: PerHopDelay(base=0.2, jitter=0.1, dimensions=5),
    "pareto": lambda: ParetoDelay(alpha=1.1, scale=0.2, cap=4.0),
}


class TestDelayModelContract:
    @pytest.mark.parametrize("kind", sorted(DELAY_MODELS))
    def test_bound_sampler_draws_exactly_like_sample(self, kind):
        """``bind`` is a speed-up only: same stream, same RNG consumption."""
        model = DELAY_MODELS[kind]()
        pairs = [(s, d) for s in range(1, 33) for d in (1, 7, 32) if s != d]
        rng_a, rng_b = random.Random(5), random.Random(5)
        bound = model.bind(rng_b)
        assert [model.sample(s, d, rng_a) for s, d in pairs] == [bound(s, d) for s, d in pairs]
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("kind", sorted(DELAY_MODELS))
    def test_samples_are_positive_and_never_exceed_delta(self, kind):
        model = DELAY_MODELS[kind]()
        sampler = model.bind(random.Random(11))
        samples = [sampler(s, 33 - s) for s in range(1, 33) for _ in range(40)]
        assert min(samples) > 0
        assert max(samples) <= model.max_delay

    def test_validate_rejects_a_non_positive_delta(self):
        class Broken(DelayModel):
            max_delay = 0.0

            def sample(self, sender, dest, rng):
                return 0.0

        with pytest.raises(ConfigurationError, match="max_delay must be positive"):
            Broken().validate()

    @pytest.mark.parametrize(
        "params",
        [
            {"alpha": 0.0},
            {"scale": 0.0},
            {"scale": 2.0, "cap": 2.0},
        ],
        ids=["alpha", "scale", "cap"],
    )
    def test_pareto_invalid_configuration(self, params):
        with pytest.raises(ConfigurationError):
            ParetoDelay(**params)

    @pytest.mark.parametrize(
        "params", [{"jitter": -0.1}, {"dimensions": 0}], ids=["jitter", "dimensions"]
    )
    def test_per_hop_invalid_jitter_and_dimensions(self, params):
        with pytest.raises(ConfigurationError):
            PerHopDelay(**params)

    def test_pareto_tail_is_heavy_but_capped(self):
        model = ParetoDelay(alpha=1.1, scale=0.2, cap=4.0)
        rng = random.Random(3)
        samples = sorted(model.sample(1, 2, rng) for _ in range(4000))
        assert samples[0] >= model.scale
        assert samples[len(samples) // 2] < 2 * model.scale
        assert samples[-1] == model.cap  # the cap is hit, never exceeded


class TestChannelState:
    def test_non_fifo_allows_overtaking(self):
        channel = ChannelState(fifo=False)
        first = channel.delivery_time(1, 2, send_time=0.0, delay=5.0)
        second = channel.delivery_time(1, 2, send_time=1.0, delay=1.0)
        assert second < first

    def test_fifo_prevents_overtaking(self):
        channel = ChannelState(fifo=True)
        first = channel.delivery_time(1, 2, send_time=0.0, delay=5.0)
        second = channel.delivery_time(1, 2, send_time=1.0, delay=1.0)
        assert second >= first

    def test_fifo_is_per_ordered_pair(self):
        channel = ChannelState(fifo=True)
        channel.delivery_time(1, 2, send_time=0.0, delay=5.0)
        other_direction = channel.delivery_time(2, 1, send_time=1.0, delay=1.0)
        assert other_direction == 2.0

    def test_reset_clears_history(self):
        channel = ChannelState(fifo=True)
        channel.delivery_time(1, 2, send_time=0.0, delay=5.0)
        channel.reset()
        assert channel.delivery_time(1, 2, send_time=0.0, delay=1.0) == 1.0


class TestMetricsCollector:
    def test_send_counting_by_kind_and_sender(self):
        metrics = MetricsCollector()
        metrics.record_send(1.0, 1, 2, "RequestMessage")
        metrics.record_send(2.0, 1, 3, "TokenMessage")
        metrics.record_send(3.0, 2, 1, "RequestMessage")
        assert metrics.total_messages() == 3
        assert metrics.messages_by_kind["RequestMessage"] == 2
        assert metrics.messages_by_sender[1] == 2
        assert metrics.messages_of_kinds({"TokenMessage"}) == 1

    def test_request_lifecycle(self):
        metrics = MetricsCollector()
        metrics.record_request_issued(1, node=5, time=1.0)
        metrics.record_send(1.5, 5, 1, "RequestMessage")
        metrics.record_request_granted(1, time=3.0)
        metrics.record_request_released(1, time=4.0)
        record = metrics.requests[1]
        assert record.satisfied
        assert record.waiting_time == 2.0
        assert metrics.satisfied_requests() == [record]
        assert metrics.unsatisfied_requests() == []

    def test_messages_per_request_serial_attribution(self):
        metrics = MetricsCollector()
        metrics.record_request_issued(1, node=2, time=1.0)
        metrics.record_send(1.1, 2, 1, "RequestMessage")
        metrics.record_send(1.2, 1, 2, "TokenMessage")
        metrics.record_request_granted(1, time=1.3)
        metrics.record_send(1.9, 2, 1, "TokenMessage")  # return after CS
        metrics.record_request_issued(2, node=3, time=10.0)
        metrics.record_send(10.1, 3, 1, "RequestMessage")
        metrics.record_request_granted(2, time=10.5)
        assert metrics.messages_per_request() == [3, 1]

    def test_mean_messages_and_waiting(self):
        metrics = MetricsCollector()
        metrics.record_request_issued(1, node=2, time=0.0)
        metrics.record_send(0.5, 2, 1, "RequestMessage")
        metrics.record_request_granted(1, time=2.0)
        assert metrics.mean_messages_per_request() == 1.0
        assert metrics.mean_waiting_time() == 2.0

    def test_cs_interval_tracking(self):
        metrics = MetricsCollector()
        metrics.record_cs_enter(4, 1.0)
        metrics.record_cs_exit(4, 2.0)
        assert metrics.cs_intervals[0].exited_at == 2.0

    def test_failures_and_summary(self):
        metrics = MetricsCollector()
        metrics.record_failure(3, 1.0)
        metrics.record_recovery(3, 2.0)
        summary = metrics.summary()
        assert summary["failures"] == 1
        assert summary["recoveries"] == 1

    def test_per_node_request_counts(self):
        metrics = MetricsCollector()
        metrics.record_request_issued(1, node=2, time=0.0)
        metrics.record_request_issued(2, node=2, time=1.0)
        metrics.record_request_issued(3, node=7, time=2.0)
        assert metrics.per_node_request_counts() == {2: 2, 7: 1}

    def test_counters_mode_counts_without_records(self):
        metrics = MetricsCollector(detail="counters")
        metrics.record_send(1.0, 1, 2, "RequestMessage")
        metrics.record_send(2.0, 1, 3, "TokenMessage", dropped=True)
        assert metrics.sent_messages == []
        assert metrics.total_messages() == 2
        assert metrics.total_messages(include_dropped=False) == 1
        assert metrics.messages_by_kind["RequestMessage"] == 1
        assert metrics.messages_by_sender[1] == 2
        assert metrics.dropped_messages == 1

    def test_counters_mode_per_request_attribution_matches_full(self):
        tallies = {}
        for detail in ("full", "counters"):
            metrics = MetricsCollector(detail=detail)
            metrics.record_request_issued(1, node=2, time=1.0)
            metrics.record_send(1.1, 2, 1, "RequestMessage")
            metrics.record_send(1.2, 1, 2, "TokenMessage")
            metrics.record_request_granted(1, time=1.3)
            metrics.record_send(1.9, 2, 1, "TokenMessage")
            metrics.record_request_issued(2, node=3, time=10.0)
            metrics.record_send(10.1, 3, 1, "RequestMessage")
            metrics.record_request_granted(2, time=10.5)
            tallies[detail] = (metrics.messages_per_request(), metrics.summary())
        assert tallies["counters"] == tallies["full"]

    def test_invalid_detail_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsCollector(detail="everything")


class TestTracer:
    def test_records_and_filters(self):
        tracer = Tracer()
        tracer.emit(1.0, TraceCategory.SEND, 1, dest=2)
        tracer.emit(2.0, TraceCategory.CS_ENTER, 3)
        assert len(tracer) == 2
        assert len(tracer.by_category(TraceCategory.SEND)) == 1
        assert len(tracer.for_node(3)) == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(1.0, TraceCategory.SEND, 1)
        assert len(tracer) == 0

    def test_max_records_truncation(self):
        tracer = Tracer(max_records=2)
        for i in range(5):
            tracer.emit(float(i), TraceCategory.INFO, None)
        assert len(tracer) == 2
        assert tracer.truncated

    def test_format_renders_every_record(self):
        tracer = Tracer()
        tracer.emit(1.0, TraceCategory.SEND, 1, dest=2, kind="RequestMessage")
        text = tracer.format()
        assert "send" in text and "dest=2" in text

    def test_null_tracer_keeps_the_read_api(self):
        tracer = NullTracer()
        tracer.emit(1.0, TraceCategory.SEND, 1, dest=2)
        assert len(tracer) == 0
        assert not tracer.enabled
        assert tracer.by_category(TraceCategory.SEND) == []
        assert tracer.format() == ""
