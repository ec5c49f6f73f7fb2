import csv
import json
from decimal import Decimal

import pytest

from trustgate.bench import (
    SCENARIO_ORG_MISSING_CATEGORY,
    SCENARIO_ORG_MISSING_PROPERTIES,
    SCENARIO_USER_VIOLATIONS,
    SCENARIO_USER_WITHOUT_DUA,
    SCENARIOS,
    BenchError,
    TrajectoryReport,
    emit_report,
    run_latency,
    run_trajectory,
)
from trustgate.middleware import STAGES


class TestLatencyHarness:
    def test_small_run_shape(self):
        report = run_latency(sizes=[50, 200], transactions=25, seed=3, warmup=2)
        assert report.sizes == (50, 200)
        assert report.transaction_count == 25
        for size in report.sizes:
            for stage in STAGES:
                stats = report.stats[size][stage]
                assert set(stats) == {"mean", "p50", "p95"}
                assert stats["mean"] >= 0.0
                assert stats["p50"] <= stats["p95"] or stats["p95"] == 0.0

    def test_retrieval_grows_with_size(self):
        report = run_latency(sizes=[50, 1000], transactions=30, seed=3, warmup=2)
        small = report.stats[50]["dataRetrieval"]["mean"]
        large = report.stats[1000]["dataRetrieval"]["mean"]
        assert large > small

    def test_single_transaction_degenerate(self):
        report = run_latency(sizes=[20], transactions=1, seed=3, warmup=0)
        stats = report.stats[20]["dataRetrieval"]
        assert stats["mean"] == stats["p50"] == stats["p95"]

    def test_stage_sum_bounded_by_wall_clock(self):
        import time

        start = time.perf_counter()
        report = run_latency(sizes=[100], transactions=20, seed=3, warmup=0)
        elapsed = time.perf_counter() - start
        total_staged = sum(
            report.stats[100][stage]["mean"] * report.transaction_count for stage in STAGES
        )
        assert total_staged <= elapsed

    def test_supplied_datasets_used_and_missing_sizes_fall_back(self, caplog):
        import logging

        from trustgate.ontology import bootstrap_vocabulary
        from trustgate.store import Graph
        from trustgate.synth import GeneratorSpec, generate_dataset

        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(GeneratorSpec(seed=3, patient_count=40), into=graph)
        with caplog.at_level(logging.WARNING, logger="trustgate.bench"):
            report = run_latency(
                sizes=[40, 80], transactions=3, seed=3, warmup=0, datasets={40: graph}
            )
        assert set(report.stats) == {40, 80}
        assert any("no dataset supplied" in r.message for r in caplog.records)


class TestTrajectoryHarness:
    def test_zero_probability_stays_flat(self):
        report = run_trajectory(
            violation_prob=0.0, runs=2, seed=5, cap=40,
            scenarios=[SCENARIO_USER_VIOLATIONS],
        )
        for run in report.scenarios[SCENARIO_USER_VIOLATIONS]:
            assert run.series == ((0, "1.0"),)
            assert run.transactions_to_zero is None

    def test_certain_violation_terminates_in_exact_steps(self):
        report = run_trajectory(
            violation_prob=1.0, runs=2, seed=5,
            scenarios=[SCENARIO_USER_VIOLATIONS, SCENARIO_USER_WITHOUT_DUA],
        )
        for run in report.scenarios[SCENARIO_USER_VIOLATIONS]:
            assert run.transactions_to_zero == 100  # 0.01 steps from 1.0
        for run in report.scenarios[SCENARIO_USER_WITHOUT_DUA]:
            assert run.transactions_to_zero == 50   # 0.02 steps from 1.0

    def test_series_non_increasing_and_exact_zero(self):
        report = run_trajectory(violation_prob=0.5, runs=3, seed=6)
        for scenario in SCENARIOS:
            for run in report.scenarios[scenario]:
                assert run.non_increasing()
                assert run.transactions_to_zero is not None
                assert run.final_score() == "0.0"
                assert Decimal(run.final_score()) == Decimal(0)

    def test_org_scenarios_penalize_custodian_only_on_draws(self):
        report = run_trajectory(
            violation_prob=1.0, runs=1, seed=7,
            scenarios=[SCENARIO_ORG_MISSING_CATEGORY, SCENARIO_ORG_MISSING_PROPERTIES],
        )
        assert report.scenarios[SCENARIO_ORG_MISSING_CATEGORY][0].transactions_to_zero == 50
        assert report.scenarios[SCENARIO_ORG_MISSING_PROPERTIES][0].transactions_to_zero == 100

    def test_means_near_analytic_expectation_small_sample(self):
        # negative-binomial oracle: 100 deductions at success rate 0.3
        report = run_trajectory(
            violation_prob=0.3, runs=40, seed=8,
            scenarios=[SCENARIO_USER_VIOLATIONS, SCENARIO_USER_WITHOUT_DUA],
        )
        with_dua = report.mean_transactions_to_zero(SCENARIO_USER_VIOLATIONS)
        without = report.mean_transactions_to_zero(SCENARIO_USER_WITHOUT_DUA)
        assert with_dua == pytest.approx(100 / 0.3, rel=0.10)
        assert without == pytest.approx(50 / 0.3, rel=0.10)

    def test_determinism_across_calls(self):
        a = run_trajectory(violation_prob=0.3, runs=3, seed=9,
                           scenarios=[SCENARIO_USER_VIOLATIONS])
        b = run_trajectory(violation_prob=0.3, runs=3, seed=9,
                           scenarios=[SCENARIO_USER_VIOLATIONS])
        assert a.scenarios == b.scenarios

    def test_series_equal_closed_form_over_same_draws(self):
        # analytic oracle: replay the per-run draw stream and apply the
        # deduction arithmetic directly; fixed-point scores must match the
        # harness series exactly
        import random

        seed, prob, runs = 13, 0.3, 4
        report = run_trajectory(violation_prob=prob, runs=runs, seed=seed,
                                scenarios=[SCENARIO_USER_VIOLATIONS])
        for run_index, run in enumerate(report.scenarios[SCENARIO_USER_VIOLATIONS]):
            rng = random.Random(f"{seed}:{SCENARIO_USER_VIOLATIONS}:{run_index}")
            score = Decimal("1.0")
            expected = [(0, "1.0")]
            txn = 0
            while score > 0:
                txn += 1
                if rng.random() < prob:
                    score -= Decimal("0.01")
                    text = format(score.normalize(), "f")
                    expected.append((txn, text if "." in text else text + ".0"))
            assert run.series == tuple(expected)
            assert run.transactions_to_zero == txn


class TestReports:
    def latency_report(self):
        return run_latency(sizes=[30, 60], transactions=5, seed=4, warmup=0)

    def test_latency_csv_layout(self, tmp_path):
        report = self.latency_report()
        path = emit_report(report, "csv", tmp_path / "latency.csv")
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["stage", "metric", "30", "60"]
        stage_rows = [r for r in rows if r[1] == "mean"]
        assert [r[0] for r in stage_rows] == [
            "Recipient policy check",
            "Data credibility check",
            "Trust score update",
            "Data retrieval",
        ]
        assert rows[-2][:2] == ["peak RSS", "MB"]
        assert all(float(value) > 0 for value in rows[-2][2:])
        assert rows[-1][:2] == ["transactions", "count"]

    def test_latency_formats_carry_identical_numbers(self, tmp_path):
        report = self.latency_report()
        csv_path = emit_report(report, "csv", tmp_path / "latency.csv")
        json_path = emit_report(report, "json", tmp_path / "latency.json")
        payload = json.loads(json_path.read_text())
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        for row in rows[1:-2]:
            stage_label, metric, *values = row
            for size, value in zip(report.sizes, values):
                assert payload["stats"][str(size)][stage_label][metric] == value
        assert rows[-2][2:] == [payload["peakRssMb"][str(size)] for size in report.sizes]

    def test_trajectory_csv_and_json_match(self, tmp_path):
        report = run_trajectory(violation_prob=0.5, runs=2, seed=4,
                                scenarios=[SCENARIO_USER_VIOLATIONS])
        csv_path = emit_report(report, "csv", tmp_path / "traj.csv")
        json_path = emit_report(report, "json", tmp_path / "traj.json")
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        payload = json.loads(json_path.read_text())
        assert rows[0] == ["scenario", "run", "transaction_index", "score"]
        json_points = [
            [scenario, str(i), str(txn), score]
            for scenario, runs in payload["scenarios"].items()
            for i, run in enumerate(runs)
            for txn, score in run["series"]
        ]
        assert rows[1:] == json_points

    def test_empty_trajectory_report_is_header_only(self, tmp_path):
        report = TrajectoryReport(violation_prob=0.3, seed=1, cap=10, scenarios={})
        path = emit_report(report, "csv", tmp_path / "empty.csv")
        assert path.read_text() == "scenario,run,transaction_index,score\n"

    def test_unknown_format_rejected(self, tmp_path):
        report = TrajectoryReport(violation_prob=0.3, seed=1, cap=10, scenarios={})
        with pytest.raises(BenchError):
            emit_report(report, "yaml", tmp_path / "nope.yaml")

    def test_unwritable_path_raises_io_error(self, tmp_path):
        report = TrajectoryReport(violation_prob=0.3, seed=1, cap=10, scenarios={})
        with pytest.raises(OSError):
            emit_report(report, "csv", tmp_path / "missing-dir" / "out.csv")
