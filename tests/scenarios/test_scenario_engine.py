"""Tests for the declarative scenario engine (specs, grids, sweeps)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_workload
from repro.scenarios import (
    DelaySpec,
    FailureSpec,
    ScenarioSpec,
    SweepRunner,
    WorkloadSpec,
    expand_grid,
    run_scenario,
)


def poisson_spec(**overrides):
    base = dict(
        algorithm="open-cube",
        n=16,
        workload=WorkloadSpec("poisson", {"count": 60, "rate": 1.0, "seed": 3, "hold": 0.2}),
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecValidation:
    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("no-such-workload")

    def test_unknown_delay_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DelaySpec("warp")

    def test_unknown_failure_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSpec("meteor")


class TestSpecSerialisation:
    def test_round_trip_minimal(self):
        spec = poisson_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # Documents from before the sharded engine's removal still load as
        # serial cells; a sharded one is refused, never run serially.
        legacy = dict(spec.to_dict(), shards=0, shard_by="range", shard_window="seam")
        assert ScenarioSpec.from_dict(legacy) == spec
        with pytest.raises(ConfigurationError, match="sharded single-run engine was removed"):
            ScenarioSpec.from_dict(dict(legacy, shards=2))

    @pytest.mark.parametrize(
        "legacy_keys",
        [
            {"shards": 0},
            {"shard_by": "cube"},
            {"shard_window": "classic"},
            {"shards": 0, "shard_by": "range", "shard_window": "seam"},
        ],
        ids=["count-zero", "partition", "window", "all-three"],
    )
    def test_legacy_engine_keys_load_as_a_serial_cell(self, legacy_keys):
        spec = poisson_spec(metrics_detail="telemetry", label="legacy")
        loaded = ScenarioSpec.from_dict(dict(spec.to_dict(), **legacy_keys))
        assert loaded == spec
        assert not any(key.startswith("shard") for key in loaded.to_dict())

    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_legacy_sharded_cell_is_refused_by_name(self, count):
        document = dict(poisson_spec().to_dict(), shards=count, shard_by="range")
        with pytest.raises(ConfigurationError, match=f"shards={count}.*was removed"):
            ScenarioSpec.from_dict(document)

    def test_round_trip_full(self):
        spec = poisson_spec(
            algorithm="open-cube-ft",
            delay=DelaySpec("constant", {"delay": 1.0}),
            fifo=True,
            failures=FailureSpec(
                "periodic",
                {"count": 2, "start": 30.0, "spacing": 40.0, "recover_after": 15.0},
                seed=5,
                protected_nodes=(1,),
                liveness_thresholds={"max_grant_gap": 300.0},
            ),
            metrics_detail="counters",
            serial=False,
            repeats=2,
            node_options={"enquiry_enabled": False},
            cluster_options={"cs_duration": 0.3},
            liveness_thresholds={"max_grant_gap": 120.0, "min_jain_index": 0.1},
            label="ft-cell",
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        # And the dict itself must be JSON-serialisable as-is.
        json.dumps(spec.to_dict())

    def test_effective_thresholds_merge_failure_class_under_cell(self):
        failure = FailureSpec(
            "single", {"node": 2, "fail_at": 10.0},
            liveness_thresholds={"max_grant_gap": 300.0, "min_jain_index": 0.2},
        )
        spec = poisson_spec(failures=failure, liveness_thresholds={"max_grant_gap": 90.0})
        assert spec.effective_liveness_thresholds() == {
            "max_grant_gap": 90.0,  # cell-level wins per key
            "min_jain_index": 0.2,  # failure-class default survives
        }
        assert poisson_spec().effective_liveness_thresholds() == {}

    def test_specs_are_hashable_for_dedup(self):
        a, b, c = poisson_spec(), poisson_spec(), poisson_spec(seed=99)
        assert len({a, b, c}) == 2
        assert hash(a) == hash(b)

    def test_with_replaces_fields(self):
        spec = poisson_spec()
        counters = spec.with_(metrics_detail="counters")
        assert counters.metrics_detail == "counters"
        assert counters.n == spec.n


class TestScenarioExecution:
    def test_row_matches_direct_run_workload(self):
        spec = poisson_spec()
        row = run_scenario(spec)
        direct = run_workload(
            spec.algorithm,
            spec.n,
            spec.workload.build(spec.n),
            seed=spec.seed,
            delay_model=spec.delay.build(),
        )
        assert row["total_messages"] == direct.total_messages
        assert row["requests_granted"] == direct.requests_granted
        assert row["events"] == direct.events
        assert row["safety_ok"] is True and row["liveness_ok"] is True
        # peak_rss_mb is the monotone process high-water mark; rss_delta_mb
        # is this cell's own growth of it.
        assert row["rss_delta_mb"] >= 0.0
        assert row["peak_rss_mb"] >= row["rss_delta_mb"]

    def test_counters_cell_skips_analysis(self):
        row = run_scenario(poisson_spec(metrics_detail="counters"))
        assert row["safety_ok"] is None
        assert row["liveness_ok"] is None
        assert row["analysis_ok"] is None
        assert row["total_messages"] > 0

    def test_failure_schedule_flows_into_the_run(self):
        spec = poisson_spec(
            algorithm="open-cube-ft",
            workload=WorkloadSpec(
                "poisson", {"count": 30, "rate": 0.3, "seed": 5, "hold": 0.4}
            ),
            failures=FailureSpec(
                "periodic", {"count": 2, "start": 25.0, "spacing": 50.0, "recover_after": 20.0}
            ),
            max_events=2_000_000,
        )
        row = run_scenario(spec)
        assert row["failures"] == 2
        assert row["overhead_messages"] > 0

    def test_node_options_flow_through_spec(self):
        spec = poisson_spec(algorithm="open-cube-ft", node_options={"enquiry_enabled": False})
        result = spec.run()
        cluster = result.result.cluster
        assert all(not node.enquiry_enabled for node in cluster.nodes.values())

    def test_serial_spec_reports_exact_per_request_counts(self):
        spec = ScenarioSpec(
            algorithm="open-cube",
            n=8,
            workload=WorkloadSpec("serial_round_robin", {"rounds": 1}),
            delay=DelaySpec("constant", {"delay": 1.0}),
            serial=True,
        )
        row = run_scenario(spec)
        assert row["max_messages_per_request"] >= 1
        assert row["requests_granted"] == 8


class TestGridAndSweep:
    def test_expand_grid_product_and_callable_workloads(self):
        specs = expand_grid(
            algorithms=["open-cube", "raymond"],
            sizes=[8, 16],
            workloads=[lambda n: WorkloadSpec("poisson", {"count": n, "rate": 1.0})],
            seeds=[0, 1],
            repeats=2,
        )
        assert len(specs) == 8
        assert all(spec.repeats == 2 for spec in specs)
        by_n = {spec.n: spec.workload.params["count"] for spec in specs}
        assert by_n == {8: 8, 16: 16}

    def test_sweep_rows_preserve_spec_order(self):
        specs = expand_grid(
            algorithms=["open-cube", "central"],
            sizes=[8],
            workloads=[WorkloadSpec("poisson", {"count": 12, "rate": 1.0})],
        )
        rows = SweepRunner(specs=specs).run()
        assert [row["algorithm"] for row in rows] == ["open-cube", "central"]

    def test_parallel_sweep_matches_serial_aggregates(self):
        specs = expand_grid(
            algorithms=["open-cube", "raymond", "central"],
            sizes=[8, 16],
            workloads=[lambda n: WorkloadSpec("poisson", {"count": 2 * n, "rate": 1.0})],
        )
        serial = SweepRunner(specs=specs, processes=1).run()
        parallel = SweepRunner(specs=specs, processes=2).run()
        keys = ("algorithm", "n", "total_messages", "requests_granted", "events")
        assert [{k: r[k] for k in keys} for r in serial] == [
            {k: r[k] for k in keys} for r in parallel
        ]

    def test_invalid_process_count_rejected(self):
        runner = SweepRunner(specs=[poisson_spec()], processes=0)
        with pytest.raises(ConfigurationError):
            runner.run()

    def test_write_rows_emits_json_lines(self, tmp_path):
        rows = SweepRunner(specs=[poisson_spec()]).run()
        target = tmp_path / "rows.jsonl"
        SweepRunner().write_rows(rows, target)
        lines = target.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["algorithm"] == "open-cube"


class TestStreamingSink:
    def specs(self):
        return expand_grid(
            algorithms=["open-cube", "central"],
            sizes=[8],
            workloads=[WorkloadSpec("poisson", {"count": 12, "rate": 1.0})],
            seeds=[0, 1],
        )

    def test_serial_sink_streams_one_row_per_cell(self, tmp_path):
        target = tmp_path / "sweep.jsonl"
        rows = SweepRunner(specs=self.specs()).run(sink=target)
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines == rows
        assert len(lines) == 4

    def test_parallel_sink_matches_serial_rows(self, tmp_path):
        serial_target = tmp_path / "serial.jsonl"
        parallel_target = tmp_path / "parallel.jsonl"
        SweepRunner(specs=self.specs()).run(sink=serial_target)
        SweepRunner(specs=self.specs(), processes=2).run(sink=parallel_target)
        keys = ("algorithm", "n", "seed", "total_messages", "requests_granted", "events")
        pick = lambda path: [
            {k: row[k] for k in keys}
            for row in map(json.loads, path.read_text().splitlines())
        ]
        assert pick(parallel_target) == pick(serial_target)

    def test_sink_rows_see_on_row_enrichment(self, tmp_path):
        target = tmp_path / "tagged.jsonl"

        def tag(row):
            row["tagged"] = True

        SweepRunner(specs=self.specs()[:1]).run(on_row=tag, sink=target)
        [line] = target.read_text().splitlines()
        assert json.loads(line)["tagged"] is True

    def test_open_handle_sink_is_left_open(self, tmp_path):
        target = tmp_path / "handle.jsonl"
        with target.open("w", encoding="utf-8") as handle:
            SweepRunner(specs=self.specs()[:1]).run(sink=handle)
            assert not handle.closed
            SweepRunner(specs=self.specs()[:1]).run(sink=handle)  # appends
        assert len(target.read_text().splitlines()) == 2

    def test_collect_false_streams_without_accumulating(self, tmp_path):
        target = tmp_path / "stream-only.jsonl"
        rows = SweepRunner(specs=self.specs()).run(sink=target, collect=False)
        assert rows == []
        assert len(target.read_text().splitlines()) == 4

    def test_collect_false_without_receiver_rejected(self):
        with pytest.raises(ConfigurationError, match="collect=False"):
            SweepRunner(specs=self.specs()).run(collect=False)

    def test_rows_hit_disk_as_cells_complete_not_at_the_end(self, tmp_path):
        target = tmp_path / "incremental.jsonl"
        seen: list[int] = []
        with target.open("w", encoding="utf-8") as handle:

            def count_lines(row):
                handle.flush()
                seen.append(len(target.read_text().splitlines()))

            # on_row runs BEFORE the sink write: after cell k the file holds
            # exactly k-1 earlier rows — proof the stream is per-cell.
            SweepRunner(specs=self.specs()).run(on_row=count_lines, sink=handle)
        assert seen == [0, 1, 2, 3]
        assert len(target.read_text().splitlines()) == 4


class TestThresholdRows:
    def test_breaching_cell_reports_false_liveness_and_named_breach(self):
        spec = poisson_spec(
            n=16,
            workload=WorkloadSpec(
                "hotspot",
                {"count": 60, "hotspot_nodes": [1], "hotspot_fraction": 0.9,
                 "rate": 1.0, "seed": 3, "hold": 0.2},
            ),
            metrics_detail="telemetry",
            stream=True,
            liveness_thresholds={"max_node_starvation_gap": 0.25},
        )
        row = run_scenario(spec)
        assert row["liveness_ok"] is False
        assert row["analysis_ok"] is False
        assert row["liveness_thresholds"] == {"max_node_starvation_gap": 0.25}
        [breach] = row["online_checks"]["threshold_breaches"]
        assert breach["threshold"] == "max_node_starvation_gap"
        assert isinstance(breach["node"], int)
        assert breach["observed"] > breach["limit"]
        json.dumps(row)  # the enriched row must stay JSON-serialisable

    def test_fairness_columns_on_telemetry_rows(self):
        row = run_scenario(poisson_spec(metrics_detail="telemetry"))
        assert 0.0 < row["jain_index"] <= 1.0
        assert row["max_node_starvation_gap"] >= 0.0
        assert row["fairness"]["participants"] > 0
        assert "liveness_thresholds" not in row  # none declared, none echoed
