"""Tests for the analysis formulas and the experiment harness."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stats, tables, theory
from repro.exceptions import ConfigurationError
from repro.experiments import (
    adaptivity_experiment,
    b_transformation_report,
    behaviour_rule_ablation,
    branch_bound_report,
    compare_algorithms,
    figure2_tables,
    hypercube_subset_report,
    measure_complexity_from_initial,
    run_workload,
    single_failure_probe_cost,
)
from repro.simulation.network import NetworkFaults
from repro.workload.arrivals import serial_round_robin


class TestTheory:
    def test_alpha_recurrence_matches_paper_base_case(self):
        assert theory.alpha_recurrence(1) == 2
        assert theory.alpha_recurrence(2) == 2 * 2 + 3 * 1 + 1  # 8

    def test_alpha_approximation_tracks_recurrence(self):
        for p in range(4, 11):
            exact = theory.alpha_recurrence(p)
            approx = theory.alpha_closed_form_approx(p)
            assert abs(exact - approx) / exact < 0.15

    def test_average_closed_form_values(self):
        assert theory.average_messages_closed_form(16) == pytest.approx(4.25)
        assert theory.average_messages_closed_form(64) == pytest.approx(5.75)

    def test_average_exact_from_recurrence(self):
        assert theory.average_messages_exact(4) == pytest.approx(2.0)
        assert theory.average_messages_exact(16) == pytest.approx(63 / 16)

    def test_worst_case_bounds(self):
        assert theory.worst_case_messages(32) == 6
        assert theory.worst_case_messages_counted(32) == 7
        assert theory.worst_case_messages_counted(2) == 2

    def test_baseline_reference_complexities(self):
        assert theory.centralized_messages() == 3
        assert theory.ricart_agrawala_messages(16) == 30
        assert theory.suzuki_kasami_worst_case(16) == 16
        assert theory.naimi_trehel_worst_case(16) == 16
        assert theory.raymond_worst_case(16) == 16  # 2*d with d=2*log2N

    def test_search_father_worst_probes(self):
        assert theory.search_father_worst_probes(16) == 15
        assert theory.search_father_worst_probes(16, start_phase=3) == 12
        with pytest.raises(ConfigurationError):
            theory.search_father_worst_probes(16, start_phase=9)

    def test_nodes_at_distance_count(self):
        assert theory.expected_nodes_at_distance(4) == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(Exception):
            theory.average_messages_closed_form(12)

    @given(p=st.integers(1, 16))
    @settings(max_examples=30)
    def test_alpha_recurrence_is_increasing_and_superlinear(self, p):
        if p >= 2:
            assert theory.alpha_recurrence(p) > 2 * theory.alpha_recurrence(p - 1)


class TestStatsAndTables:
    def test_summary_of_known_sample(self):
        summary = stats.summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.median == 3
        assert summary.minimum == 1 and summary.maximum == 5

    def test_empty_sample(self):
        assert stats.summarize([]).count == 0
        assert stats.mean([]) == 0.0
        assert stats.median([]) == 0.0

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 95) == 95
        assert stats.percentile(values, 0) == 1

    def test_stdev(self):
        assert stats.stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.138, abs=1e-3)
        assert stats.stdev([1]) == 0.0

    def test_render_table_alignment_and_title(self):
        text = tables.render_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_empty(self):
        assert "(no data)" in tables.render_table([])

    def test_render_series(self):
        text = tables.render_series([2, 4], {"measured": [1.0, 2.0], "paper": [1.1, 2.1]}, x_label="n")
        assert "measured" in text and "paper" in text


class TestStructureExperiments:
    def test_figure2_tables_are_valid_structures(self):
        rows = figure2_tables()
        assert [row["n"] for row in rows] == [2, 4, 8, 16]
        assert all(row["valid"] for row in rows)
        sixteen = rows[-1]
        assert sixteen["powers"][1] == 4 and sixteen["powers"][9] == 3

    def test_hypercube_subset_report(self):
        rows = hypercube_subset_report((8, 16))
        assert all(row["is_subset"] for row in rows)
        assert rows[0]["tree_edges"] == 7 and rows[0]["hypercube_edges"] == 12

    def test_b_transformation_report_theorem_holds(self):
        report = b_transformation_report(16)
        assert report["theorem_holds"]
        assert report["boundary_edges"] + report["non_boundary_edges"] == 15

    def test_branch_bound_report(self):
        rows = branch_bound_report((16, 32))
        assert all(row["bound_holds"] for row in rows)


class TestQuantitativeExperiments:
    def test_average_matches_alpha_recurrence_exactly(self):
        """EXP-AVG: the measured mean equals alpha_p / 2**p."""
        for n in (4, 8, 16):
            point = measure_complexity_from_initial(n)
            assert point.measured_mean == pytest.approx(point.predicted_mean_exact)

    def test_worst_case_within_counted_bound(self):
        """EXP-WC: measured maxima stay within log2(N)+2 (all messages counted)."""
        point = measure_complexity_from_initial(16)
        assert point.measured_max <= theory.worst_case_messages_counted(16)
        assert point.measured_max >= theory.worst_case_messages(16)

    def test_comparison_shape_matches_the_introduction(self):
        """EXP-CMP: open-cube beats Raymond and the broadcast algorithms."""
        rows = {row.algorithm: row for row in compare_algorithms(16, requests=32, seed=3)}
        assert rows["open-cube"].mean_messages < rows["raymond"].mean_messages
        assert rows["open-cube"].mean_messages < rows["ricart-agrawala"].mean_messages
        assert rows["open-cube"].mean_messages < rows["suzuki-kasami"].mean_messages
        assert rows["open-cube"].max_messages <= theory.worst_case_messages_counted(16)
        # Naimi-Trehel averages O(log n) too: same ballpark as the open-cube.
        assert rows["naimi-trehel"].mean_messages < rows["raymond"].mean_messages

    def test_adaptivity_experiment_shows_cheaper_steady_state(self):
        result = adaptivity_experiment(16, requests=8, seed=1)
        assert result["open-cube_steady_state"] < result["open-cube_first_request"]
        assert result["open-cube_steady_state"] == 0.0
        assert result["raymond_steady_state"] >= result["open-cube_steady_state"]

    def test_single_failure_probe_cost_within_bounds(self):
        report = single_failure_probe_cost(16, failed_node=9, requester=10)
        assert report["granted"] == 1
        assert 0 < report["test_messages"] <= report["worst_case_probes"]

    def test_behaviour_rule_ablation_is_safe_for_every_rule(self):
        rows = behaviour_rule_ablation(8, requests=16, seed=2)
        assert {row["policy"] for row in rows} == {
            "open-cube",
            "always-transit",
            "always-proxy",
            "raymond-like",
        }
        assert all(row["safety_ok"] and row["liveness_ok"] for row in rows)

    def test_run_workload_serial_flag_controls_attribution(self):
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        result = run_workload("open-cube", 8, workload, serial=True)
        assert len(result.messages_per_request) == 8
        assert result.safety_ok and result.liveness_ok

    def test_run_workload_counters_mode_skips_record_based_analysis(self):
        # Regression: the streaming metrics mode keeps no per-message
        # records, so the record-based safety/liveness verdicts must be
        # explicitly "not analysed" (None), never a hollow True/False.
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        result = run_workload("open-cube", 8, workload, metrics_detail="counters")
        assert result.safety_ok is None
        assert result.liveness_ok is None
        assert result.analysis_ok is None
        assert result.as_row()["analysis_ok"] is None
        assert result.total_messages > 0
        assert result.cluster.metrics.sent_messages == []

    def test_run_workload_counters_mode_via_cluster_kwargs(self):
        # Back-compat: callers that passed metrics_detail through
        # cluster_kwargs get the same skip-with-marker behaviour.
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        result = run_workload(
            "open-cube", 8, workload, cluster_kwargs={"metrics_detail": "counters"}
        )
        assert result.analysis_ok is None
        assert result.cluster.metrics.detail == "counters"

    def test_run_workload_conflicting_metrics_detail_rejected(self):
        from repro.exceptions import ConfigurationError

        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        with pytest.raises(ConfigurationError, match="conflicting metrics_detail"):
            run_workload(
                "open-cube",
                8,
                workload,
                metrics_detail="full",
                cluster_kwargs={"metrics_detail": "counters"},
            )

    def test_run_workload_agreeing_duplicate_options_are_accepted(self):
        faults = NetworkFaults()
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        result = run_workload(
            "open-cube",
            8,
            workload,
            metrics_detail="telemetry",
            telemetry={"trace_sample": 0.5},
            network_faults=faults,
            cluster_kwargs={
                "metrics_detail": "telemetry",
                "telemetry_options": {"trace_sample": 0.5},
                "network_faults": faults,
            },
        )
        assert result.cluster.metrics.detail == "telemetry"
        assert result.traces is not None and result.traces["sample_rate"] == 0.5

    @pytest.mark.parametrize(
        "make_kwargs, message",
        [
            (
                lambda: {
                    "metrics_detail": "telemetry",
                    "telemetry": {"trace_sample": 0.5},
                    "cluster_kwargs": {"telemetry_options": {"trace_sample": 1.0}},
                },
                "conflicting telemetry options",
            ),
            (
                lambda: {
                    "network_faults": NetworkFaults(loss_rate=0.1),
                    "cluster_kwargs": {"network_faults": NetworkFaults(loss_rate=0.1)},
                },
                "conflicting network faults",
            ),
            (
                lambda: {
                    "metrics_detail": "counters",
                    "liveness_thresholds": {"max_grant_gap": 5.0},
                },
                "need an analysed run",
            ),
        ],
        ids=["telemetry-options", "network-faults", "thresholds-on-counters"],
    )
    def test_run_workload_rejects_conflicting_or_unanalysable_options(
        self, make_kwargs, message
    ):
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        with pytest.raises(ConfigurationError, match=message):
            run_workload("open-cube", 8, workload, **make_kwargs())

    def test_run_workload_full_mode_reports_real_booleans(self):
        workload = serial_round_robin(8, spacing=50.0, hold=0.25)
        result = run_workload("open-cube", 8, workload)
        assert result.safety_ok is True
        assert result.liveness_ok is True
        assert result.analysis_ok is True
        assert result.events > 0
        assert result.run_s >= 0.0 and result.setup_s >= 0.0
