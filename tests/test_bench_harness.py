"""Tests for the experiment harness: builders, runner, report, experiments."""

from functools import partial

import pytest

from repro.bench.builders import build_system, make_multi_dc_topology, make_single_dc_topology, scaled_cpu_model
from repro.bench.experiments import table1_latency_matrix
from repro.bench.report import format_results, format_table
from repro.bench.runner import ExperimentProfile, find_max_throughput, run_rate_point
from repro.sim.engine import Simulator
from repro.sim.latencies import EC2_REGIONS, latency_ms


TINY = ExperimentProfile(
    warmup_s=0.05,
    measure_s=0.15,
    cooldown_s=0.02,
    client_processes=12,
    rate_ladder=(1500, 3000),
    latency_threshold_s=0.05,
    seed=3,
)


class TestBuilders:
    def test_every_system_builds_on_single_dc(self):
        for name in ("canopus", "zkcanopus", "epaxos", "zookeeper"):
            topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
            sut = build_system(name, topology)
            assert len(sut.server_ids()) == 9
            sut.start()
            sut.stop()

    def test_unknown_system_rejected(self):
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
        with pytest.raises(ValueError):
            build_system("viewstamped-replication", topology)

    def test_zkcanopus_attaches_a_store_per_node(self):
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
        sut = build_system("zkcanopus", topology)
        assert set(sut.stores) == set(topology.server_hosts)

    def test_multi_dc_topology_builder(self):
        topology = make_multi_dc_topology(Simulator(seed=1), datacenters=3)
        assert len(topology.datacenters) == 3
        assert len(topology.server_hosts) == 9

    def test_scaled_cpu_model_is_slower_than_default(self):
        assert scaled_cpu_model().per_message_s > 4e-6


class TestRunner:
    def test_run_rate_point_produces_summary(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        point = run_rate_point("canopus", factory, rate_hz=1500, write_ratio=0.2, profile=TINY)
        assert point.node_count == 9
        assert point.summary.requests_completed > 0
        assert point.throughput_rps > 0
        assert point.median_completion_ms >= 0

    def test_rate_point_as_dict_has_expected_columns(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        point = run_rate_point("zookeeper", factory, rate_hz=1500, write_ratio=0.2, profile=TINY)
        data = point.as_dict()
        for column in ("system", "offered_rate_hz", "throughput_rps", "median_completion_ms"):
            assert column in data

    def test_find_max_throughput_returns_best_and_all_points(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        best, points = find_max_throughput("canopus", factory, write_ratio=0.2, profile=TINY)
        assert 1 <= len(points) <= len(TINY.rate_ladder)
        assert best in points
        assert best.throughput_rps == max(
            p.throughput_rps
            for p in points
            if p.summary.median_completion_s <= TINY.latency_threshold_s
            or p is points[-1]
        )

    def test_profiles_exist(self):
        assert ExperimentProfile.quick().measure_s <= ExperimentProfile.full().measure_s
        assert ExperimentProfile.wan().latency_threshold_s > ExperimentProfile.quick().latency_threshold_s


class TestPerfTrackingPoints:
    def test_engine_microbench_digest_is_deterministic(self):
        from dataclasses import replace

        from repro.bench.runner import PERF_POINTS, run_perf_tracking

        point = replace(PERF_POINTS["engine-microbench"], engine_ops=2000, repeats=1)
        first = run_perf_tracking(point)
        second = run_perf_tracking(point)
        assert first["commit_log_sha256"]
        assert first["commit_log_sha256"] == second["commit_log_sha256"]
        assert first["events"] == second["events"] > 2000

    def test_asyncio_smoke_point_answers_requests(self):
        from dataclasses import replace

        from repro.bench.runner import PERF_POINTS, run_perf_tracking

        point = replace(PERF_POINTS["asyncio-smoke"], asyncio_ops=6, repeats=1)
        result = run_perf_tracking(point)
        assert result["requests_completed"] == 6
        # Real concurrency: no digest, so the CI digest gate is skipped.
        assert result["commit_log_sha256"] == ""
        assert result["wall_s"] > 0

    def test_empty_digest_skips_the_digest_gate(self, tmp_path):
        from repro.bench.runner import update_perf_report

        path = str(tmp_path / "report.json")
        base = {"wall_s": 1.0, "events_per_s": 100, "commit_log_sha256": ""}
        update_perf_report(path, "p", dict(base), set_baseline=True)
        entry = update_perf_report(path, "p", dict(base, events_per_s=90))
        assert "commit_logs_match_baseline" not in entry

    @staticmethod
    def _measurement(wall_s, events, calibration):
        return {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": round(events / wall_s),
            "calibration_ops_per_s": calibration,
            "commit_log_sha256": "d",
        }

    def test_calibrated_wall_speedup_equals_calibrated_events_ratio(self, tmp_path):
        from repro.bench.runner import update_perf_report

        path = str(tmp_path / "report.json")
        events = 400_000
        base = self._measurement(2.0, events, 1_000_000)
        current = self._measurement(3.0, events, 900_000)
        update_perf_report(path, "p", base, set_baseline=True)
        entry = update_perf_report(path, "p", current)
        # The figure the gate used while it counted events, unrounded.
        events_ratio = (events / 3.0 / 900_000) / (events / 2.0 / 1_000_000)
        assert entry["calibrated_wall_speedup_vs_baseline"] == round(events_ratio, 3) == 0.741
        assert "events_per_s_ratio_vs_baseline" not in entry
        assert "calibrated_events_per_s_ratio_vs_baseline" not in entry

    def test_twice_as_slow_at_same_calibration_reads_half(self, tmp_path):
        from repro.bench.runner import update_perf_report

        path = str(tmp_path / "report.json")
        update_perf_report(path, "p", self._measurement(1.5, 90_000, 1_200_000), set_baseline=True)
        entry = update_perf_report(path, "p", self._measurement(3.0, 90_000, 1_200_000))
        assert entry["calibrated_wall_speedup_vs_baseline"] == 0.5
        assert entry["wall_clock_speedup_vs_baseline"] == 0.5

    def test_profile_perf_point_records_top_functions(self, tmp_path):
        import json
        from dataclasses import replace

        from repro.bench.runner import PERF_POINTS, profile_perf_point

        path = str(tmp_path / "report.json")
        point = replace(PERF_POINTS["engine-microbench"], engine_ops=2000)
        rows = profile_perf_point(point, "engine-microbench", path, top_n=5)
        assert 1 <= len(rows) <= 5
        assert all("cumtime_s" in row for row in rows)
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert "engine-microbench" in report["profiles"]
        # Profiled wall-clock is inflated: it must not create a baseline.
        assert "engine-microbench" not in report.get("points", {})


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or "-" in line for line in lines[1:2])

    def test_format_results_selects_columns(self):
        rows = [{"system": "canopus", "throughput_rps": 1234.5678, "extra": "hidden"}]
        text = format_results(rows, ["system", "throughput_rps"])
        assert "canopus" in text
        assert "1234.57" in text
        assert "hidden" not in text


class TestExperimentDefinitions:
    def test_table1_matrix_matches_latency_module(self):
        rows = table1_latency_matrix()
        assert len(rows) == len(EC2_REGIONS)
        by_region = {row["region"]: row for row in rows}
        assert by_region["IR"]["CA"] == latency_ms("IR", "CA")
        assert by_region["SY"]["FF"] == 322.0

    def test_table1_matrix_is_symmetric(self):
        rows = table1_latency_matrix()
        by_region = {row["region"]: row for row in rows}
        for a in EC2_REGIONS:
            for b in EC2_REGIONS:
                assert by_region[a][b] == by_region[b][a]
