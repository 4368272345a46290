"""The in-process workloads: ``table2`` and ``multilevel``.

A pass runs the workload's scenario suites cold through
:func:`repro.api.runner.run_scenario` into a fresh artifact store (what
``repro run`` does).  Pass ``k`` draws its root seed from the
workload seed and ``k``, so no in-process memo can answer a repeat.  One
process does all the work (``workers=1``).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

from repro.api.artifacts import ArtifactStore
from repro.api.runner import run_scenario
from repro.engines import resolve_mapping_engine
from repro.experiments import figure6, table2, tradeoff

from repobench import layers
from repobench.harness import (
    BootSampler,
    Checks,
    Tracer,
    compare_expected,
    pass_seed,
    reference_loop_s,
    self_peak_rss_mb,
    self_time_by_name,
    time_local_boot,
)

#: Samples per Table II circuit.  The paper uses 200, which takes about
#: two minutes per pass while ``auto`` picks the compiled EA kernel.
TABLE2_SAMPLES = 4

#: Fewest passes a run makes, however long each takes.
MIN_PASSES = 4

#: Resubmissions of the suite after each pass, each to a freshly opened store.
RESUBMITS = 5

#: Rounds of pass + untraced replay + traced replay per traced run; the
#: metrics are medians over rounds, except that span totals come from
#: the last traced replay.
REPLAY_ROUNDS = 3


def suites(workload: str, seed: int | None) -> list:
    """The workload's suites at root ``seed`` (``None``: their own defaults)."""
    if workload == "table2":
        kwargs = {} if seed is None else {"seed": seed}
        return [table2.paper_suite(sample_size=TABLE2_SAMPLES, **kwargs)]
    if workload == "multilevel":
        if seed is None:
            return [figure6.paper_suite(), tradeoff.paper_suite()]
        return [
            figure6.paper_suite(figure6.Figure6Config(seed=seed)),
            tradeoff.paper_suite(seed=seed),
        ]
    raise ValueError(f"not a local workload: {workload!r}")


def scenarios(suite_list: list) -> list:
    return [scenario for suite in suite_list for scenario in suite]


def summarize(result) -> dict:
    """Compact counting statistics of one scenario result (for expected.json)."""
    stats = result.counting_statistics()
    if result.scenario.protocol != "area":
        return stats
    rows = stats["rows"]
    return {
        "samples": len(rows),
        "multi_level_wins": sum(r["multi_level_cost"] < r["two_level_cost"] for r in rows),
        "gates": sum(r["gate_count"] for r in rows),
        "sha256": hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest(),
    }


def check_result(checks: Checks, scenario, result) -> None:
    """Sample totals and zero invalid mappings, for every pass."""
    if scenario.protocol == "area":
        indices = [row["index"] for row in result.rows]
        checks.record(
            indices == list(range(scenario.samples)),
            f"{scenario.name}: area rows {len(indices)} != {scenario.samples} samples",
        )
        return
    stats = result.counting_statistics()["rows"]
    ok = len(stats) == len(scenario.redundancy)
    for row in stats:
        ok &= sorted(row["outcomes"]) == sorted(scenario.mappers)
        for outcome in row["outcomes"].values():
            ok &= outcome["samples"] == scenario.samples
            ok &= outcome["invalid_mappings"] == 0
    checks.record(ok, f"{scenario.name}: bad sample totals or invalid mappings {stats}")


def cold_pass(scenario_list: list, store: ArtifactStore) -> tuple[float, dict, dict]:
    """Run every scenario cold; returns (wall, results, per-scenario wall)."""
    results, walls = {}, {}
    start = time.perf_counter()
    for scenario in scenario_list:
        began = time.perf_counter()
        results[scenario.name] = run_scenario(
            scenario, workers=1, engine="auto", store=store
        )
        walls[scenario.name] = time.perf_counter() - began
    return time.perf_counter() - start, results, walls


def cached_pass(scenario_list: list, path: Path) -> tuple[float, dict]:
    """Resubmit every scenario; the store should answer each one.

    Like a new ``repro run`` invocation, the resubmission opens the
    store afresh, so it reads the file instead of an in-memory index.
    """
    start = time.perf_counter()
    store = ArtifactStore(path)
    results = {
        scenario.name: run_scenario(scenario, workers=1, engine="auto", store=store)
        for scenario in scenario_list
    }
    return time.perf_counter() - start, results


def default_pass(workload: str, workdir: Path, checks: Checks) -> None:
    """The pass at the suites' own seeds, checked against expected.json.

    It also warms every lazy cache before timing starts.
    """
    scenario_list = scenarios(suites(workload, None))
    _, results, _ = cold_pass(scenario_list, ArtifactStore(workdir / "default.jsonl"))
    for scenario in scenario_list:
        check_result(checks, scenario, results[scenario.name])
    compare_expected(
        checks, workload, {name: summarize(r) for name, r in results.items()}
    )


def best_pass(scenario_walls: dict[str, list[float]]) -> float:
    """A pass with every scenario at its fastest reading in the run.

    Each scenario of the suite runs once per pass at a fresh seed; the
    minimum over passes is the reading least disturbed by the host (a
    slow spell of a few seconds inflates a whole pass, but rarely every
    pass's run of one scenario).
    """
    return sum(min(walls) for walls in scenario_walls.values())


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple:
    """Closed loop of whole cold passes for a ``seconds``-long window.

    After each pass, outside its time, the pass's suites are resubmitted
    :data:`RESUBMITS` times, each to a freshly opened store, which must
    answer every scenario: what re-running ``repro run`` on the same
    spec does.
    """
    checks = Checks()
    time_local_boot()  # warm-up boot: byte-compiles and builds the kernels
    sampler = BootSampler(time_local_boot, seconds)
    default_pass(workload, workdir, checks)
    reference = [reference_loop_s()]
    passes, cached = [], []
    scenario_walls: dict[str, list[float]] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        sampler.poll(time.perf_counter() - start)
        scenario_list = scenarios(suites(workload, pass_seed(workload, seed, len(passes))))
        path = workdir / f"pass{len(passes)}.jsonl"
        wall, results, walls = cold_pass(scenario_list, ArtifactStore(path))
        passes.append(wall)
        for name, scenario_wall in walls.items():
            scenario_walls.setdefault(name, []).append(scenario_wall)
        for scenario in scenario_list:
            check_result(checks, scenario, results[scenario.name])
        for _ in range(RESUBMITS):
            wall, again = cached_pass(scenario_list, path)
            cached.append(wall)
            for name, hit in again.items():
                checks.record(
                    hit.cached
                    and hit.counting_statistics() == results[name].counting_statistics(),
                    f"{name}: resubmission not answered from the store",
                )
        path.unlink()
    sampler.finish()
    reference.append(reference_loop_s())
    # The cold job of a local workload is the whole pass.
    best = best_pass(scenario_walls)
    metrics = {
        "setup_s": statistics.median(sampler.samples),
        "pass_s": best,
        "cold_s": best,
        "cached_ms": min(cached) * 1e3,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    record = {
        "passes": len(passes),
        "pass_wall_s": passes,
        "cached_requests": len(cached),
        "boots": len(sampler.samples),
        "samples_per_table2_circuit": TABLE2_SAMPLES,
        "reference_loop_s": reference[:1] + sampler.reference + reference[1:],
    }
    return metrics, checks, record


def replay(scenario_list, results, tracer: Tracer, engine: str, store_path: Path, calls):
    """Replay one pass layer by layer; returns per-scenario statistics."""
    store = ArtifactStore(store_path)
    stats = {}
    for scenario in scenario_list:
        with tracer.span("scenario"):
            if scenario.protocol == "area":
                stats[scenario.name] = layers.replay_area(scenario, tracer)
            else:
                stats[scenario.name] = layers.replay_mapping(
                    scenario, tracer, engine, calls
                )
            result = results[scenario.name]
            spec_hash = scenario.content_hash()
            with tracer.span("api.artifact_write"):
                store.begin(spec_hash, scenario.to_dict())
                for index, row in enumerate(result.rows):
                    store.append_row(spec_hash, row.get("index", index), row)
                store.finish(spec_hash, rows=len(result.rows), elapsed_seconds=0.0)
            with tracer.span("api.artifact_read"):
                ArtifactStore(store.path).load(spec_hash)
    return stats


def run_traced(workload: str, seed: int, workdir: Path, load_s: float) -> tuple:
    """Rounds of one end-to-end pass followed by its untraced and traced replay."""
    checks = Checks()
    time_local_boot()
    default_pass(workload, workdir, checks)
    scenario_list = scenarios(suites(workload, pass_seed(workload, seed, 0)))
    engine = resolve_mapping_engine("auto")
    run_id = f"{workload}-{seed}"
    walls_replay = {False: [], True: []}
    pass_walls, multi_walls, overheads = [], [], []
    for round_index in range(REPLAY_ROUNDS):
        _, results, walls = cold_pass(
            scenario_list, ArtifactStore(workdir / f"pass-{round_index}.jsonl")
        )
        pass_walls.append(sum(walls.values()))
        multi_walls.append(
            sum(wall for name, wall in walls.items() if name.endswith("-multi-level"))
        )
        for scenario in scenario_list:
            check_result(checks, scenario, results[scenario.name])
        # Alternate which replay goes first, so order effects cancel.
        for enabled in (False, True) if round_index % 2 == 0 else (True, False):
            tracer = Tracer(run_id, enabled=enabled)
            calls: list = []
            store_path = workdir / f"replay-{round_index}-{int(enabled)}.jsonl"
            start = time.perf_counter()
            with tracer.span("replay"):
                stats = replay(scenario_list, results, tracer, engine, store_path, calls)
            walls_replay[enabled].append(time.perf_counter() - start)
            if enabled:
                traced_tracer, traced_calls = tracer, calls
            for scenario in scenario_list:
                checks.record(
                    stats[scenario.name] == results[scenario.name].counting_statistics(),
                    f"{scenario.name}: replay statistics differ from the pass "
                    f"(traced={enabled})",
                )
        covered = layers.covered_time(self_time_by_name(traced_tracer.spans))
        overheads.append((pass_walls[-1] - covered) / pass_walls[-1])
    untraced = statistics.median(walls_replay[False])
    traced = statistics.median(walls_replay[True])
    tracer = traced_tracer
    with tracer.span("engines"):
        tiers = layers.race_tiers(traced_calls, tracer, engine)
    by_name = self_time_by_name(tracer.spans)
    metrics = dict.fromkeys(
        [
            "service.execute_chunk_s", "service.execute_chunk_s.max",
            "service.chunks", "service.checkpoint_write_s",
            "service.checkpoint_read_s", "service.checkpoint_bytes",
            "service.merge_s", "service.http_ms", "service.cache_hit_frac",
            "service.retries", "service.quarantined",
        ],
        0,
    )
    metrics.update(layers.mapping_metrics(tracer, by_name))
    metrics.update(tiers)
    metrics.update(
        {
            "compiled.load_s": load_s,
            "boolean.random_function_s": by_name.get("boolean.random_function", 0.0),
            "boolean.minimize_s": by_name.get("boolean.minimize", 0.0),
            "boolean.minimize_calls": tracer.counts.get("boolean.minimize_calls", 0),
            "synth.tech_map_s": by_name.get("synth.tech_map", 0.0),
            "synth.area_s": by_name.get("synth.area", 0.0),
            "synth.gates": tracer.counts.get("synth.gates", 0),
            "multilevel.stage_plan_s": by_name.get("multilevel.stage_plan", 0.0),
            "multilevel.scenario_s": statistics.median(multi_walls),
            "api.run_scenario_s": statistics.median(pass_walls),
            "api.overhead_frac": statistics.median(overheads),
            "api.artifact_write_s": by_name.get("api.artifact_write", 0.0),
            "api.artifact_read_s": by_name.get("api.artifact_read", 0.0),
            "trace.overhead_frac": (traced - untraced) / untraced,
        }
    )
    checks.record(metrics["mapping.invalid"] == 0, "replay found invalid mappings")
    record = {
        "replay_wall_s": {"untraced": walls_replay[False], "traced": walls_replay[True]},
        "spans": len(tracer.spans),
        "samples_per_table2_circuit": TABLE2_SAMPLES,
    }
    return metrics, checks, record, tracer
