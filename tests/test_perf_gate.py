"""Unit tests for the perf-trajectory regression gate.

The acceptance pair the gate exists for: an injected 50 % slowdown must
fail the comparison, and the *real* recorded trajectories shipped in
``benchmarks/results/`` must pass it.  Around that: threshold edges in
both directions, the median baseline with fewer rows than the window,
missing-metric tolerance, the no-baseline first run, workload-scale
matching, atomic trajectory appends, and repo-root commit resolution.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.perf import (
    append_run,
    comparable_history,
    compare_run,
    git_commit,
    host_fingerprint,
    infer_metric_specs,
    load_trajectory,
    render_trends,
    trajectory_path,
    trend_table,
    update_experiments,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def rows(values, metric="elapsed_seconds", **extra):
    return [{"timestamp": "t", "commit": "c", metric: v, **extra} for v in values]


class TestInferMetricSpecs:
    def test_directions_follow_the_naming_convention(self):
        metrics = {
            "elapsed_seconds": 1.0,
            "object_seconds": 2.0,
            "speedup": 5.0,
            "compiled_speedup": 9.0,
            "savings_factor": 12.0,
            "samples": 30,  # a knob, not a gated metric
            "benchmark": "x",  # non-numeric
            "converged": True,  # bools never gate
            "per_circuit": {"a": 1},  # nested diagnostics
        }
        specs = {s.name: s.direction for s in infer_metric_specs(metrics)}
        assert specs == {
            "elapsed_seconds": "lower",
            "object_seconds": "lower",
            "speedup": "higher",
            "compiled_speedup": "higher",
            "savings_factor": "higher",
        }


class TestCompareRun:
    def test_wall_clock_regression_beyond_threshold_fails(self):
        result = compare_run(
            {"elapsed_seconds": 1.5}, rows([1.0, 1.0, 1.0]), benchmark="b"
        )
        assert not result.passed
        assert result.failures[0].metric == "elapsed_seconds"
        assert result.failures[0].change == pytest.approx(0.5)

    def test_wall_clock_within_threshold_passes(self):
        assert compare_run({"elapsed_seconds": 1.39}, rows([1.0, 1.0, 1.0])).passed

    def test_speedup_loss_beyond_threshold_fails(self):
        result = compare_run(
            {"speedup": 4.0}, rows([10.0, 10.0, 10.0], metric="speedup")
        )
        assert not result.passed

    def test_speedup_loss_within_threshold_passes(self):
        assert compare_run(
            {"speedup": 6.1}, rows([10.0, 10.0, 10.0], metric="speedup")
        ).passed

    def test_custom_threshold(self):
        history = rows([1.0, 1.0, 1.0])
        assert not compare_run(
            {"elapsed_seconds": 1.2}, history, wall_threshold=0.10
        ).passed
        assert compare_run(
            {"elapsed_seconds": 1.2}, history, wall_threshold=0.30
        ).passed

    def test_median_is_robust_to_one_noisy_run(self):
        # One 10x outlier in the window must not move the baseline.
        history = rows([1.0, 1.0, 10.0, 1.0, 1.0])
        result = compare_run({"elapsed_seconds": 1.1}, history)
        assert result.passed
        assert result.verdicts[0].baseline == pytest.approx(1.0)

    def test_median_with_fewer_rows_than_the_window(self):
        result = compare_run({"elapsed_seconds": 1.0}, rows([2.0, 4.0]), window=5)
        assert result.verdicts[0].baseline == pytest.approx(3.0)
        assert result.verdicts[0].baseline_count == 2

    def test_window_caps_the_history(self):
        history = rows([100.0, 100.0, 1.0, 1.0, 1.0])
        result = compare_run({"elapsed_seconds": 1.0}, history, window=3)
        assert result.verdicts[0].baseline == pytest.approx(1.0)

    def test_missing_metric_rows_are_tolerated(self):
        history = rows([1.0, 1.0]) + [{"timestamp": "t", "commit": "c"}]
        result = compare_run({"elapsed_seconds": 1.0}, history)
        assert result.passed
        assert result.verdicts[0].baseline_count == 2

    def test_first_run_has_no_baseline_and_passes(self):
        result = compare_run({"elapsed_seconds": 1.0, "speedup": 5.0}, [])
        assert result.passed
        assert {v.status for v in result.verdicts} == {"no-baseline"}

    def test_new_metric_on_old_history_passes(self):
        history = rows([1.0, 1.0])
        result = compare_run(
            {"elapsed_seconds": 1.0, "compiled_speedup": 3.0}, history
        )
        assert result.passed
        by_name = {v.metric: v.status for v in result.verdicts}
        assert by_name["compiled_speedup"] == "no-baseline"

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            compare_run({"elapsed_seconds": 1.0}, [], window=0)


class TestScaleMatching:
    def test_rows_at_a_different_scale_are_excluded(self):
        # A --samples 30 run must not be gated against --samples 6 rows:
        # the wall clock tripled because the workload did, not the code.
        history = rows([0.1, 0.1, 0.1], samples=6)
        current = {"elapsed_seconds": 0.5, "samples": 30}
        assert comparable_history(current, history) == []
        result = compare_run(current, history)
        assert result.passed
        assert result.verdicts[0].status == "no-baseline"

    def test_rows_at_the_same_scale_still_gate(self):
        history = rows([0.1, 0.1], samples=6) + rows([0.5, 0.5], samples=30)
        result = compare_run({"elapsed_seconds": 1.0, "samples": 30}, history)
        assert not result.passed
        assert result.failures[0].baseline == pytest.approx(0.5)

    def test_rows_without_the_key_stay_comparable(self):
        history = rows([1.0, 1.0])  # recorded before the knob existed
        assert len(comparable_history({"samples": 30}, history)) == 2

    def test_scale_keys_none_disables_matching(self):
        history = rows([0.1], samples=6)
        result = compare_run(
            {"elapsed_seconds": 0.5, "samples": 30}, history, scale_keys=None
        )
        assert not result.passed


class TestHostMatching:
    HOST_A = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
              "compiled_backend": "cext"}
    HOST_B = {"nproc": 4, "python": "3.12.3", "numpy": "2.1.0",
              "compiled_backend": None}

    def test_wall_clock_skips_rows_from_another_host(self):
        # Seconds from a slower machine neither fail nor pass this one.
        history = rows([0.1, 0.1], host=self.HOST_A)
        result = compare_run({"elapsed_seconds": 1.0, "host": self.HOST_B},
                             history)
        assert result.passed
        assert result.verdicts[0].status == "no-baseline"
        result = compare_run({"elapsed_seconds": 1.0, "host": self.HOST_A},
                             history)
        assert not result.passed

    def test_ratios_gate_across_hosts(self):
        history = rows([2.0, 2.0], metric="compiled_vs_vectorized_speedup",
                       host=self.HOST_A)
        result = compare_run(
            {"compiled_vs_vectorized_speedup": 0.9, "host": self.HOST_B},
            history,
        )
        assert [v.metric for v in result.failures] == [
            "compiled_vs_vectorized_speedup"
        ]

    def test_fingerprint_names_the_machine_facts(self):
        host = host_fingerprint()
        assert set(host) == {"nproc", "python", "numpy", "compiled_backend"}
        assert host["nproc"] >= 1

    def test_rows_without_a_host_stay_comparable(self):
        history = rows([0.1, 0.1])  # recorded before rows carried a host
        result = compare_run({"elapsed_seconds": 1.0, "host": self.HOST_A},
                             history)
        assert not result.passed


class TestRealTrajectories:
    """The acceptance pair, against the actual shipped BENCH files."""

    def trajectories(self):
        paths = sorted(RESULTS_DIR.glob("BENCH_*.json"))
        assert paths, "no recorded trajectories shipped"
        return paths

    def test_every_shipped_trajectory_passes_last_vs_rest(self):
        for path in self.trajectories():
            runs = load_trajectory(path)["runs"]
            assert runs, f"{path.name} has no runs"
            result = compare_run(
                runs[-1], runs[:-1], benchmark=path.stem.removeprefix("BENCH_")
            )
            assert result.passed, f"{path.name}:\n{result.render()}"

    def test_injected_50_percent_slowdown_fails(self):
        runs = load_trajectory(RESULTS_DIR / "BENCH_boolean.json")["runs"]
        clean = compare_run(runs[-1], runs[:-1])
        gated = [
            v for v in clean.verdicts
            if v.status == "ok" and v.direction == "lower"
        ]
        assert gated, "boolean trajectory has no baselined wall-clock metric"
        slowed = dict(runs[-1])
        for verdict in gated:
            slowed[verdict.metric] = slowed[verdict.metric] * 1.5
        result = compare_run(slowed, runs[:-1], benchmark="boolean")
        assert not result.passed
        assert {v.metric for v in result.failures} == {v.metric for v in gated}

    def test_every_shipped_row_records_its_host(self):
        for path in self.trajectories():
            for row in load_trajectory(path)["runs"]:
                assert set(row["host"]) == {
                    "nproc", "python", "numpy", "compiled_backend",
                }, path.name

    def test_compiled_behind_vectorized_fails_from_any_host(self):
        # 0.56 is vectorized / compiled seconds that the corpus suite
        # measured (2 cores, C backend) while the compiled EA kernel ran
        # Kuhn's O(V*E) matching: compiled 1.8x slower than vectorized.
        runs = load_trajectory(RESULTS_DIR / "BENCH_corpus.json")["runs"]
        regressed = dict(runs[-1])
        regressed["compiled_vs_vectorized_speedup"] = 0.56
        regressed["host"] = {"nproc": 64, "python": "3.13.0",
                             "numpy": "2.0.0", "compiled_backend": "numba"}
        result = compare_run(regressed, runs[:-1], benchmark="corpus")
        assert "compiled_vs_vectorized_speedup" in {
            v.metric for v in result.failures
        }
        # ...while its seconds have no same-host baseline to fail against.
        assert all(
            v.status == "no-baseline"
            for v in result.verdicts if v.direction == "lower"
        )

    def test_injected_speedup_collapse_fails(self):
        runs = load_trajectory(RESULTS_DIR / "BENCH_vectorized.json")["runs"]
        collapsed = dict(runs[-1])
        collapsed["speedup"] = collapsed["speedup"] / 2.0
        result = compare_run(collapsed, runs[:-1])
        assert any(v.metric == "speedup" for v in result.failures)


class TestTrajectoryFiles:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = trajectory_path(tmp_path, "demo")
        assert path.name == "BENCH_demo.json"
        append_run(path, {"elapsed_seconds": 1.0, "samples": 4}, commit="abc")
        append_run(path, {"elapsed_seconds": 1.1, "samples": 4}, commit="def")
        payload = load_trajectory(path)
        assert payload["benchmark"] == "demo"
        assert [row["commit"] for row in payload["runs"]] == ["abc", "def"]
        assert all("timestamp" in row for row in payload["runs"])

    def test_append_leaves_no_temp_files(self, tmp_path):
        path = trajectory_path(tmp_path, "demo")
        append_run(path, {"elapsed_seconds": 1.0})
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    def test_missing_file_is_an_empty_trajectory(self, tmp_path):
        payload = load_trajectory(tmp_path / "BENCH_new.json")
        assert payload == {"benchmark": "new", "runs": []}

    def test_corrupt_file_raises_instead_of_passing_vacuously(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{truncated")
        with pytest.raises(ValueError, match="unreadable"):
            load_trajectory(path)
        path.write_text(json.dumps({"runs": "not-a-list"}))
        with pytest.raises(ValueError, match="runs"):
            load_trajectory(path)

    def test_git_commit_resolves_the_repo_root(self):
        expected = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert git_commit(REPO_ROOT) == expected
        # ...and from a subdirectory, the way run_all.py calls it.
        assert git_commit(REPO_ROOT / "benchmarks") == expected

    def test_git_commit_outside_git_is_unknown(self, tmp_path):
        assert git_commit(tmp_path) == "unknown"


class TestTrendReport:
    def test_trend_table_shows_gated_metrics(self):
        payload = {
            "benchmark": "demo",
            "runs": [
                {"timestamp": "2026-08-08T00:00:00+00:00", "commit": "abc",
                 "elapsed_seconds": 1.2345, "speedup": 7.0, "samples": 4},
            ],
        }
        table = trend_table(payload)
        assert "`demo`" in table
        assert "elapsed_seconds" in table and "speedup" in table
        assert "2026-08-08" in table and "`abc`" in table
        assert "1.234" in table

    def test_empty_trajectory_renders_nothing(self):
        assert trend_table({"benchmark": "demo", "runs": []}) == ""

    def test_update_experiments_is_idempotent(self, tmp_path):
        results = tmp_path / "results"
        append_run(
            trajectory_path(results, "demo"),
            {"elapsed_seconds": 1.0, "samples": 4},
            commit="abc",
        )
        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text("# Experiment notes\n\nprose stays\n")
        assert update_experiments(experiments, results)
        text = experiments.read_text()
        assert "prose stays" in text
        assert "perf-trend:begin" in text and "`demo`" in text
        assert not update_experiments(experiments, results)
        # A new row regenerates the block in place, once.
        append_run(
            trajectory_path(results, "demo"),
            {"elapsed_seconds": 1.1, "samples": 4},
            commit="def",
        )
        assert update_experiments(experiments, results)
        assert experiments.read_text().count("perf-trend:begin") == 1

    def test_render_trends_without_results(self, tmp_path):
        assert "No recorded runs" in render_trends(tmp_path)
