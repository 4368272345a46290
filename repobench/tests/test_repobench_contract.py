"""The benchmark's metric declarations and its correctness checks."""

from __future__ import annotations

import copy
import json

import pytest

from repobench import harness
from repobench.local import best_pass, check_result, summarize, suites

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == harness.PER_LAYER


def test_emit_refuses_an_incomplete_metric_set(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    metrics = dict.fromkeys(harness.END_TO_END, 1.0)
    del metrics["pass_s"]
    with pytest.raises(harness.BenchError, match="pass_s"):
        harness.emit(
            workload="table2", seed=0, trace=False, metrics=metrics,
            checks=harness.Checks(), record={},
        )


def test_emit_prints_the_result_line_and_fails_on_a_failed_check(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    checks = harness.Checks()
    checks.record(True, "fine")
    checks.record(False, "wrong statistic")
    code = harness.emit(
        workload="table2", seed=3, trace=False,
        metrics=dict.fromkeys(harness.END_TO_END, 1.5),
        checks=checks, record={"host": {}},
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 2, 1)
    assert last["metrics"]["cached_ms"] == {"value": 1.5, "unit": "ms"}


@pytest.fixture(scope="module")
def rd53_default():
    """The default-seed Table II pass's cheapest scenario, run for real."""
    from repro.api.runner import run_scenario

    scenario = suites("table2", None)[0].scenario("rd53")
    return scenario, run_scenario(scenario, workers=1, engine="vectorized")


def test_default_seed_statistics_match_expected(rd53_default):
    scenario, result = rd53_default
    checks = harness.Checks()
    expected = harness.load_expected()["table2"]
    checks.record(summarize(result) == expected["rd53"], "rd53 differs")
    check_result(checks, scenario, result)
    assert checks.failed == 0


def test_a_perturbed_statistic_is_flagged(rd53_default, monkeypatch):
    _, result = rd53_default
    expected = harness.load_expected()
    perturbed = copy.deepcopy(expected)
    outcome = perturbed["table2"]["rd53"]["rows"][0]["outcomes"]["hybrid"]
    outcome["successes"] += 1
    monkeypatch.setattr(harness, "load_expected", lambda: perturbed)
    summaries = {name: stats for name, stats in expected["table2"].items()}
    summaries["rd53"] = summarize(result)
    checks = harness.Checks()
    harness.compare_expected(checks, "table2", summaries)
    assert checks.failed == 1
    assert "rd53" in checks.messages[0]


def test_invalid_mappings_and_short_samples_are_flagged(rd53_default):
    scenario, result = rd53_default
    broken = copy.deepcopy(result)
    outcomes = broken.rows[0]["monte_carlo"]["outcomes"]
    outcomes["exact"]["invalid_mappings"] = 1
    checks = harness.Checks()
    check_result(checks, scenario, broken)
    outcomes["exact"]["invalid_mappings"] = 0
    outcomes["hybrid"]["samples"] -= 1
    check_result(checks, scenario, broken)
    assert (checks.attempted, checks.failed) == (2, 2)


def test_a_percentile_needs_ten_values_beyond_it():
    few = [float(i) for i in range(39)]
    assert harness.tail(few, 75) == 19.0  # nine beyond p75: the median
    many = [float(i) for i in range(40)]
    assert harness.tail(many, 75) == pytest.approx(29.75)


def test_best_pass_sums_each_scenarios_fastest_reading():
    walls = {"alu4": [0.9, 0.7, 0.8], "rd53": [0.02, 0.03, 0.01]}
    assert best_pass(walls) == pytest.approx(0.71)


def test_drift_verdict_compares_the_run_halves():
    steady = harness.drift_verdict([0.020, 0.021, 0.019, 0.020, 0.021, 0.020])
    assert steady["comparable"]
    slowed = harness.drift_verdict([0.015, 0.016, 0.015, 0.025, 0.026, 0.024])
    assert not slowed["comparable"]
    assert slowed["reference_drift"] == pytest.approx(0.025 / 0.015 - 1)
