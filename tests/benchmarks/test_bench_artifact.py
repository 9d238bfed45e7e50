"""Bench-artifact sanity: the scale harness cannot silently lose columns.

CI uploads ``BENCH_scale.json``/``.jsonl`` as artifacts; a refactor of the
scenario engine or the row schema that drops a column would poison every
downstream comparison while the smoke job still exits 0.  This suite runs the
real harness end-to-end at a tiny size (n=64, a couple of seconds) and
schema-checks what came out, then checks the long-run (n=16384) matrix
*structurally* — the cells it would declare — without paying for the run.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.core import messages
from repro.scenarios import ScenarioSpec, WorkloadSpec, run_scenario

BENCH_PATH = Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_scale.py"

_spec = importlib.util.spec_from_file_location("bench_scale", BENCH_PATH)
bench_scale = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_scale", bench_scale)
_spec.loader.exec_module(bench_scale)

#: Columns every result row must carry (bench-scale/v4 core schema).
ROW_COLUMNS = {
    "algorithm", "n", "metrics_detail", "workload", "seed", "requests",
    "requests_granted", "total_messages", "messages_per_request",
    "mean_waiting_time", "safety_ok", "liveness_ok", "analysis_ok", "events",
    "setup_s", "feed_s", "run_s", "events_per_sec", "sent_messages_records",
    "agenda_peak", "streamed", "feed_window", "peak_rss_mb",
}

#: Extra columns every telemetry-mode row must carry since v4.
TELEMETRY_COLUMNS = {
    "waiting_p50", "waiting_p90", "waiting_p99", "quantiles", "online_checks",
    "jain_index", "max_node_starvation_gap", "fairness",
}


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    """One real harness run at n=64 with every gate enabled."""
    messages._request_counter = itertools.count(1)
    output = tmp_path_factory.mktemp("bench") / "BENCH_scale.json"
    rc = bench_scale.main(
        [
            "--sizes", "64",
            "--output", str(output),
            "--check-agenda", "--check-safety", "--check-fairness",
        ]
    )
    assert rc == 0, "the smoke sweep must pass its own gates"
    return {
        "document": json.loads(output.read_text()),
        "jsonl": output.with_suffix(".jsonl"),
    }


class TestSmokeArtifactSchema:
    def test_schema_version_and_config(self, smoke_document):
        document = smoke_document["document"]
        assert document["schema"] == "bench-scale/v8"
        assert document["config"]["lossy_network"]["loss_rate"] == (
            bench_scale.LOSSY_LOSS_RATE
        )
        config = document["config"]
        assert (
            config["liveness_thresholds"]["poisson"]
            == bench_scale.LIVENESS_THRESHOLDS["poisson"]
        )
        assert config["fairness_floors"] == bench_scale.FAIRNESS_FLOORS
        assert config["jsonl"] == smoke_document["jsonl"].name
        assert document["complexity"], "complexity section must not vanish"

    def test_every_row_carries_the_core_columns(self, smoke_document):
        for row in smoke_document["document"]["results"]:
            missing = ROW_COLUMNS - row.keys()
            assert not missing, (row["algorithm"], sorted(missing))

    def test_telemetry_rows_carry_fairness_and_quantiles(self, smoke_document):
        rows = [
            r for r in smoke_document["document"]["results"]
            if r["metrics_detail"] == "telemetry"
        ]
        assert rows, "the sweep must contain telemetry cells"
        for row in rows:
            missing = TELEMETRY_COLUMNS - row.keys()
            assert not missing, (row["algorithm"], sorted(missing))
            assert 0.0 < row["jain_index"] <= 1.0
            assert row["fairness"]["participants"] > 0
            assert row["safety_ok"] is True and row["liveness_ok"] is True

    def test_hotspot_and_failure_cells_present_with_thresholds(self, smoke_document):
        rows = smoke_document["document"]["results"]
        [hotspot] = [r for r in rows if r.get("label") == "hotspot"]
        assert hotspot["workload"].startswith("hotspot(")
        assert hotspot["liveness_thresholds"] == bench_scale.hotspot_thresholds(
            hotspot["n"], hotspot["requests"]
        )
        assert hotspot["streamed"] is True
        # Deliberately skewed: measurably less fair than the poisson cells.
        poisson_jain = min(
            r["jain_index"] for r in rows
            if r["metrics_detail"] == "telemetry" and r.get("label") is None
        )
        assert hotspot["jain_index"] < poisson_jain

        [failure] = [r for r in rows if r.get("label") == "failure-schedule"]
        assert failure["algorithm"] == "open-cube-ft"
        assert failure["failures"] == 3
        assert failure["liveness_thresholds"] == bench_scale.failure_thresholds(
            failure["n"]
        )

    def test_lossy_network_cell_present_with_fault_columns(self, smoke_document):
        """The v5 cell: open-cube-ft absorbing 1% message loss inside the
        gates, with the loss_rate column and exact fault counters."""
        rows = smoke_document["document"]["results"]
        [lossy] = [r for r in rows if r.get("label") == "lossy-network"]
        assert lossy["algorithm"] == "open-cube-ft"
        assert lossy["n"] == bench_scale.LOSSY_N
        assert lossy["loss_rate"] == bench_scale.LOSSY_LOSS_RATE
        assert lossy["lost_messages"] > 0
        assert lossy["duplicated_messages"] == 0
        assert lossy["blocked_messages"] == 0
        assert lossy["network"]["loss_rate"] == bench_scale.LOSSY_LOSS_RATE
        # The whole point of the cell: loss absorbed, verdicts still true
        # (the smoke fixture's --check-safety/--check-fairness already gate
        # this; the asserts keep the intent readable here).
        assert lossy["safety_ok"] is True and lossy["liveness_ok"] is True
        assert lossy["liveness_thresholds"] == bench_scale.lossy_thresholds(
            lossy["n"]
        )

    def test_streamed_cells_keep_zero_message_records(self, smoke_document):
        for row in smoke_document["document"]["results"]:
            if row["streamed"]:
                assert row["sent_messages_records"] == 0, row["algorithm"]

    def test_jsonl_stream_matches_results_array(self, smoke_document):
        lines = smoke_document["jsonl"].read_text().splitlines()
        results = smoke_document["document"]["results"]
        assert len(lines) == len(results)
        for line, row in zip(lines, results):
            assert json.loads(line) == row


class TestLongRunMatrixStructure:
    """The n=16384 cells, checked declaratively (no 25-second run in CI)."""

    @pytest.fixture(scope="class")
    def long_specs(self):
        return bench_scale.build_specs([16384])

    def test_counters_control_row_still_declared(self, long_specs):
        [control] = [s for s in long_specs if s.label == "pr3-counters-control"]
        assert control.metrics_detail == "counters"
        assert control.stream is True
        assert control.repeats == 1  # the historical configuration, verbatim

    def test_long_telemetry_cell_has_poisson_thresholds_and_series(self, long_specs):
        [cell] = [
            s for s in long_specs
            if s.algorithm == "open-cube" and s.metrics_detail == "telemetry"
            and s.label is None
        ]
        assert cell.liveness_thresholds == bench_scale.LIVENESS_THRESHOLDS["poisson"]
        assert cell.telemetry.get("series_cadence") == bench_scale.SERIES_CADENCE
        assert cell.workload.params["count"] == 32 * 16384

    def test_hotspot_cell_scales_with_n(self, long_specs):
        [hotspot] = [s for s in long_specs if s.label == "hotspot"]
        assert hotspot.n == 16384
        assert len(hotspot.workload.params["hotspot_nodes"]) == 16384 // 64

    def test_failure_cell_absent_at_long_run_sizes(self, long_specs):
        assert not [s for s in long_specs if s.label == "failure-schedule"]

    def test_lossy_cell_stays_pinned_at_small_n(self, long_specs):
        """The lossy cell never scales with the sweep: larger n under the
        same loss rate breaks safety (fuzzer territory, not a bench gate)."""
        [lossy] = [s for s in long_specs if s.label == "lossy-network"]
        assert lossy.n == bench_scale.LOSSY_N
        assert lossy.network is not None
        assert lossy.network.loss_rate == bench_scale.LOSSY_LOSS_RATE


class TestFairnessGate:
    """check_fairness() catches what the acceptance criteria demand."""

    def starved_hotspot_row(self):
        """A real deliberately-starved hotspot run, gated by a tight bound."""
        messages._request_counter = itertools.count(1)
        spec = ScenarioSpec(
            algorithm="open-cube",
            n=16,
            workload=WorkloadSpec(
                "hotspot",
                {"count": 80, "hotspot_nodes": [1, 2], "hotspot_fraction": 0.95,
                 "rate": 1.0, "seed": 3, "hold": 0.2},
            ),
            metrics_detail="telemetry",
            liveness_thresholds={"max_node_starvation_gap": 0.5},
        )
        return run_scenario(spec)

    def test_starved_hotspot_row_fails_the_gate_by_name(self):
        row = self.starved_hotspot_row()
        assert row["liveness_ok"] is False
        problems = bench_scale.check_fairness([row])
        assert len(problems) == 1
        breach_node = row["online_checks"]["threshold_breaches"][0]["node"]
        assert f"node {breach_node}" in problems[0]
        assert "max_node_starvation_gap" in problems[0]
        # ... and the safety gate flags the flipped liveness verdict too.
        assert any("liveness_ok=False" in p for p in bench_scale.check_safety([row]))

    def test_missing_fairness_columns_fail_the_gate(self):
        row = self.starved_hotspot_row()
        row.pop("jain_index")
        row.pop("online_checks")  # only the missing-columns problem remains
        [problem] = bench_scale.check_fairness([row])
        assert "fairness columns missing" in problem

    def test_jain_floor_breach_names_the_least_served_node(self):
        row = {
            "algorithm": "open-cube", "n": 64, "metrics_detail": "telemetry",
            "workload": "poisson(n=64, count=256, rate=2.0)", "requests": 256,
            "requests_granted": 256, "failures": 0,
            "jain_index": 0.05, "max_node_starvation_gap": 1.0,
            "fairness": {"jain_index": 0.05,
                         "min_share": {"node": 9, "share": 0.001}},
        }
        [problem] = bench_scale.check_fairness([row])
        assert "jain_index=0.05" in problem and "node 9" in problem

    def test_counters_rows_are_exempt(self):
        assert bench_scale.check_fairness(
            [{"metrics_detail": "counters", "algorithm": "open-cube", "n": 4096,
              "workload": "poisson", "label": "pr3-counters-control"}]
        ) == []
