"""Integration: detail="telemetry" through metrics, runner and scenarios."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines.registry import build_cluster
from repro.core import messages
from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_workload
from repro.scenarios import ScenarioSpec, WorkloadSpec
from repro.simulation.metrics import MetricsCollector
from repro.telemetry import TelemetryOptions
from repro.workload.arrivals import poisson_arrivals, poisson_stream


def seeded_run(detail: str, **cluster_kwargs):
    messages._request_counter = itertools.count(1)
    cluster = build_cluster(
        "open-cube", 32, seed=11, trace=False, metrics_detail=detail, **cluster_kwargs
    )
    workload = poisson_arrivals(32, 200, rate=1.0, seed=9, hold=0.2)
    workload.apply(cluster)
    cluster.run_until_quiescent()
    return cluster


class TestTelemetryMetricsMode:
    def test_rejects_unknown_detail_and_misplaced_options(self):
        with pytest.raises(ConfigurationError):
            MetricsCollector(detail="bogus")
        with pytest.raises(ConfigurationError):
            MetricsCollector(detail="counters", telemetry_options={"sketch_growth": 1.1})
        with pytest.raises(ConfigurationError):
            TelemetryOptions.from_dict({"no_such_option": 1})

    def test_summary_matches_full_mode(self):
        """The three detail modes must agree on every summary aggregate."""
        summaries = {
            detail: seeded_run(detail).metrics.summary()
            for detail in ("full", "counters", "telemetry")
        }
        assert summaries["telemetry"] == summaries["full"]
        assert summaries["counters"] == summaries["full"]

    def test_keeps_no_records_at_all(self):
        cluster = seeded_run("telemetry")
        metrics = cluster.metrics
        assert metrics.total_messages() > 500
        assert metrics.sent_messages == []
        assert metrics.requests == {}
        assert metrics.cs_intervals == []
        assert metrics.requests_issued_count == 200
        assert metrics.requests_granted_count == 200

    def test_constant_memory_for_telemetry_state(self):
        """Sketch buckets + open-request maps, never O(requests) lists."""
        cluster = seeded_run("telemetry")
        hub = cluster.metrics.telemetry
        assert hub.waiting_time.count == 200
        assert hub.waiting_time.bucket_count < 200
        assert hub.liveness.pending == 0  # everything drained
        assert hub.safety.occupancy == 0

    def test_quantile_sketch_tracks_the_record_based_distribution(self):
        full = seeded_run("full").metrics
        waits = sorted(
            r.waiting_time for r in full.satisfied_requests() if r.waiting_time is not None
        )
        hub = seeded_run("telemetry").metrics.telemetry
        sketch = hub.waiting_time
        assert sketch.count == len(waits)
        assert sketch.min_value == pytest.approx(waits[0])
        assert sketch.max_value == pytest.approx(waits[-1])
        import math

        for q in (0.5, 0.9, 0.99):
            exact = waits[max(1, math.ceil(q * len(waits))) - 1]
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.03)


class TestRunnerIntegration:
    def test_run_workload_reports_real_verdicts_and_quantiles(self):
        result = run_workload(
            "open-cube",
            32,
            poisson_stream(32, 300, rate=1.0, seed=5, hold=0.2),
            seed=3,
            metrics_detail="telemetry",
        )
        assert result.safety_ok is True
        assert result.liveness_ok is True
        assert result.analysis_ok is True
        assert result.streamed is True
        assert result.requests_granted == 300
        quantiles = result.quantiles
        assert set(quantiles) == {"waiting_time", "cs_hold", "messages_per_request"}
        waiting = quantiles["waiting_time"]
        assert waiting["count"] == 300
        assert 0 < waiting["p50"] <= waiting["p90"] <= waiting["p99"] <= waiting["max"]
        assert result.series is None  # series is opt-in
        assert result.online_checks["safety"]["violations"] == 0

    def test_counters_mode_still_reports_not_analysed(self):
        result = run_workload(
            "open-cube",
            16,
            poisson_arrivals(16, 50, rate=1.0, seed=2, hold=0.2),
            metrics_detail="counters",
        )
        assert result.safety_ok is None
        assert result.liveness_ok is None
        assert result.analysis_ok is None
        assert result.quantiles is None

    def test_series_threads_through_run_workload(self):
        result = run_workload(
            "open-cube",
            16,
            poisson_arrivals(16, 100, rate=1.0, seed=2, hold=0.2),
            metrics_detail="telemetry",
            telemetry={"series_cadence": 10.0, "series_max_samples": 16},
        )
        series = result.series
        assert series is not None
        assert len(series["samples"]) <= 16
        assert series["columns"][0] == "t"
        # Final sample is taken at finalize: event time of the last row
        # reaches the end of the run.
        assert series["samples"][-1][0] == pytest.approx(result.end_time)

    def test_serial_telemetry_reports_real_per_request_stats(self):
        """Serial + telemetry must match full mode's mean/max per request."""
        from repro.workload.arrivals import serial_random

        workload = serial_random(16, 48, seed=7, spacing=60.0, hold=0.25)
        results = {}
        for detail in ("full", "telemetry"):
            messages._request_counter = itertools.count(1)
            results[detail] = run_workload(
                "open-cube", 16, workload, seed=7, serial=True, metrics_detail=detail
            )
        assert results["telemetry"].max_messages_per_request == (
            results["full"].max_messages_per_request
        )
        assert results["telemetry"].max_messages_per_request > 0
        assert results["telemetry"].mean_messages_per_request == pytest.approx(
            results["full"].mean_messages_per_request
        )

    def test_telemetry_options_rejected_outside_telemetry_mode(self):
        with pytest.raises(ConfigurationError):
            run_workload(
                "open-cube",
                8,
                poisson_arrivals(8, 10, rate=1.0, seed=1),
                metrics_detail="full",
                telemetry={"series_cadence": 5.0},
            )


class TestScenarioIntegration:
    def spec(self, **overrides):
        base = dict(
            algorithm="open-cube",
            n=16,
            workload=WorkloadSpec("poisson", {"count": 80, "rate": 1.0, "seed": 4, "hold": 0.2}),
            metrics_detail="telemetry",
            telemetry={"series_cadence": 25.0, "series_max_samples": 8},
            stream=True,
            feed_window=16,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_spec_round_trips_telemetry_options(self):
        spec = self.spec()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.telemetry == {"series_cadence": 25.0, "series_max_samples": 8}

    def test_row_carries_quantiles_series_and_verdicts(self):
        row = self.spec().run().row()
        assert row["safety_ok"] is True
        assert row["liveness_ok"] is True
        assert row["analysis_ok"] is True
        assert row["waiting_p50"] <= row["waiting_p90"] <= row["waiting_p99"]
        assert row["quantiles"]["messages_per_request"]["count"] == 80
        assert len(row["series"]["samples"]) <= 8
        assert row["online_checks"]["starved"] == 0

    def test_row_without_telemetry_has_no_quantile_columns(self):
        row = self.spec(metrics_detail="counters", telemetry={}).run().row()
        assert "waiting_p50" not in row
        assert "quantiles" not in row
        assert "series" not in row
        assert row["safety_ok"] is None
