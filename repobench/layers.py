"""Replay a pass's work as direct calls into each layer's public functions.

Each helper mirrors the calls the program makes for one scenario —
:func:`repro.api.runner.run_scenario` for the local workloads, the
service's chunk jobs for ``serve`` — and wraps every call into a layer
in a span named after that layer.  The replay returns the same
counting statistics as ``ScenarioResult.counting_statistics()``, so a
run can check that it replayed exactly the work it timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api.batch import BatchRunner, chunk_ranges
from repro.api.registry import resolve_mappers
from repro.api.seeding import derive_seed
from repro.boolean.function import BooleanFunction
from repro.boolean.minimize import minimize_cover
from repro.boolean.random_functions import random_single_output_function
from repro.crossbar.two_level import two_level_area_cost
from repro.defects.batch import DefectBatch
from repro.experiments.monte_carlo import VECTORIZED_MIN_CHUNK
from repro.mapping.batch_kernel import (
    DECISION_COMPILED,
    DECISION_KERNEL,
    map_sample_batch,
    mapper_kind,
)
from repro.mapping.function_matrix import FunctionMatrix
from repro.multilevel import stage_plan_for
from repro.synth.area import multilevel_area_report
from repro.synth.tech_map import MappingOptions, technology_map

from repobench.harness import BenchError, Tracer

#: The mapping tiers whose speed ``engines.*`` compares.
TIERS = ("compiled", "vectorized")


@dataclass(frozen=True)
class MappingCall:
    """One ``map_sample_batch`` call of the replay, kept for the tier race."""

    matrix: object
    name: str
    mapper: object
    batch: DefectBatch
    validate: bool

    def run(self, engine: str):
        return map_sample_batch(
            self.matrix,
            {self.name: self.mapper},
            None,
            rows=self.batch.rows,
            columns=self.batch.columns,
            start=self.batch.start,
            stop=self.batch.stop,
            validate=self.validate,
            batch=self.batch,
            engine=engine,
        ).outcomes[self.name]


def local_chunks(samples: int) -> list[range]:
    """The chunk plan ``run_scenario(workers=1)`` uses on a batched engine."""
    plan = BatchRunner(1).plan(samples, None, min_chunk_size=VECTORIZED_MIN_CHUNK)
    return chunk_ranges(samples, plan.chunk_size)


def _zero_counts() -> dict:
    return {"successes": 0, "samples": 0, "total_backtracks": 0, "invalid_mappings": 0}


def _map(tracer: Tracer, call: MappingCall, engine: str, calls: list) -> object:
    """Time one mapper over one batch and fold its decision codes."""
    with tracer.span(f"mapping.{call.name}"):
        outcome = call.run(engine)
    calls.append(call)
    tracer.add("mapping.pairs", outcome.samples)
    tracer.add("mapping.settled", outcome.decided())
    tracer.add(
        "mapping.kernel_samples",
        int(np.isin(outcome.decision, (DECISION_KERNEL, DECISION_COMPILED)).sum()),
    )
    tracer.add("mapping.invalid", int(outcome.invalid.sum()))
    return outcome


def _accumulate(total: dict, outcome) -> None:
    for key, value in outcome.counting_statistics().items():
        total[key] += value


def fold_stages(succ: np.ndarray, bt: np.ndarray, inval: np.ndarray) -> dict:
    """The multi-level early-stop rule over ``(stages, samples)`` arrays.

    A sample survives when every stage maps; otherwise its walk stops
    at the first failing stage, counting backtracks through that stage
    and an invalid mapping when that stage's failure was a validation
    reject.
    """
    num_stages, count = succ.shape
    fail = ~succ
    stopped = fail.any(axis=0)
    first = np.where(stopped, fail.argmax(axis=0), num_stages - 1)
    attempted = np.arange(num_stages)[:, None] <= first[None, :]
    return {
        "successes": int((~stopped).sum()),
        "samples": count,
        "total_backtracks": int((bt * attempted).sum()),
        "invalid_mappings": int((stopped & inval[first, np.arange(count)]).sum()),
    }


def replay_mapping(
    scenario,
    tracer: Tracer,
    engine: str,
    calls: list,
    *,
    chunks_per_row: list[list[range]] | None = None,
) -> dict:
    """Replay a mapping scenario; returns its counting statistics.

    ``chunks_per_row`` gives each redundancy row's sample ranges (the
    service's chunk plan); by default the local runner's plan is used.
    Every ``map_sample_batch`` call is appended to ``calls``.
    """
    with tracer.span("circuits.build"):
        function = scenario.source.build(seed=scenario.seed)
    model = scenario.resolved_defect_model()
    mappers = resolve_mappers(scenario.mappers)
    validate = scenario.options.get("validate", True)
    spec = scenario.multilevel_spec()
    rows_out = []
    for row_index, (extra_rows, extra_columns) in enumerate(scenario.redundancy):
        if spec is None:
            with tracer.span("mapping.function_matrix"):
                matrix = FunctionMatrix(function)
            rows = matrix.num_rows + extra_rows
            columns = matrix.num_columns + extra_columns
            required = matrix.num_columns
        else:
            with tracer.span("multilevel.stage_plan"):
                plan = stage_plan_for(function, spec)
            rows = plan.physical_rows(extra_rows)
            columns = plan.num_columns + extra_columns
            required = plan.num_columns
        chunks = (
            chunks_per_row[row_index]
            if chunks_per_row is not None
            else local_chunks(scenario.samples)
        )
        totals = {name: _zero_counts() for name in mappers}
        for chunk in chunks:
            with tracer.span("defects.generate"):
                batch = DefectBatch.generate(
                    model,
                    rows,
                    columns,
                    seed=scenario.seed,
                    start=chunk.start,
                    stop=chunk.stop,
                    required_columns=required,
                )
            tracer.add("defects.crosspoints", len(chunk) * rows * columns)
            if spec is None:
                for name, mapper in mappers.items():
                    outcome = _map(
                        tracer, MappingCall(matrix, name, mapper, batch, validate),
                        engine, calls,
                    )
                    _accumulate(totals[name], outcome)
            else:
                _replay_stages(
                    tracer, function, spec, rows, batch, mappers, validate,
                    engine, calls, totals,
                )
        rows_out.append(
            {"redundancy": [extra_rows, extra_columns], "outcomes": totals}
        )
    return {"rows": rows_out}


def _replay_stages(
    tracer, function, spec, rows, full, mappers, validate, engine, calls, totals
) -> None:
    """One multi-level chunk: per-bank slices of one full-array batch."""
    # The chunk executor rebuilds the stage plan per chunk; so does this.
    with tracer.span("multilevel.stage_plan"):
        plan = stage_plan_for(function, spec)
    banks = plan.bank_bounds(plan.extra_rows_for(rows))
    count = full.stop - full.start
    for name, mapper in mappers.items():
        succ = np.zeros((plan.num_stages, count), dtype=bool)
        bt = np.zeros((plan.num_stages, count), dtype=np.int64)
        inval = np.zeros((plan.num_stages, count), dtype=bool)
        for k, (stage, (lo, hi)) in enumerate(zip(plan.stages, banks)):
            sub = DefectBatch(
                start=full.start,
                stop=full.stop,
                rows=hi - lo,
                columns=full.columns,
                maps=[None] * count,
                functional=full.functional[:, lo:hi, :],
                closed_rows=full.closed_rows[:, lo:hi],
                closed_columns=full.closed_columns,
                dropped=full.dropped,
            )
            outcome = _map(
                tracer, MappingCall(stage.matrix, name, mapper, sub, validate),
                engine, calls,
            )
            succ[k], bt[k], inval[k] = outcome.success, outcome.backtracks, outcome.invalid
        for key, value in fold_stages(succ, bt, inval).items():
            totals[name][key] += value


def replay_area(scenario, tracer: Tracer) -> dict:
    """Replay a Fig. 6 area scenario sample by sample; returns its rows."""
    if scenario.source.kind != "random":
        raise BenchError(f"area scenario {scenario.name!r} has no random source")
    spec = scenario.source.random_spec()
    minimize = scenario.options.get("minimize_before_synthesis", True)
    rows = []
    for index in range(scenario.samples):
        with tracer.span("boolean.random_function"):
            function = random_single_output_function(
                spec, seed=derive_seed(scenario.seed, "random-function", index)
            )
        candidate = function
        if minimize:
            with tracer.span("boolean.minimize"):
                cover = minimize_cover(function.cover_for_output(0))
            tracer.add("boolean.minimize_calls")
            candidate = BooleanFunction.single_output(
                cover, input_names=function.input_names, name=function.name
            )
        with tracer.span("synth.tech_map"):
            network = technology_map(candidate, options=MappingOptions(strategy="best"))
        with tracer.span("synth.area"):
            area = multilevel_area_report(network).area
        gates = network.gate_count()
        tracer.add("synth.gates", gates)
        rows.append(
            {
                "index": index,
                "num_products": function.num_products,
                "two_level_cost": two_level_area_cost(
                    function.num_inputs, 1, function.num_products
                ),
                "multi_level_cost": area,
                "gate_count": gates,
            }
        )
    return {"rows": rows}


def race_tiers(calls: list[MappingCall], tracer: Tracer, auto: str) -> dict[str, float]:
    """Time every replayed mapping call under each tier.

    Returns ``engines.<kind>_s.<tier>`` totals and ``engines.auto_vs_best``:
    the time of the tier ``auto`` picks over the time of the fastest tier
    per mapper kind.
    """
    times = {(kind, tier): 0.0 for kind in ("exact", "hybrid") for tier in TIERS}
    for call in calls:
        kind = mapper_kind(call.mapper)
        for tier in TIERS:
            start = time.perf_counter()
            with tracer.span(f"engines.{kind}.{tier}"):
                call.run(tier)
            times[(kind, tier)] += time.perf_counter() - start
    metrics = {f"engines.{kind}_s.{tier}": t for (kind, tier), t in times.items()}
    used = [kind for kind in ("exact", "hybrid") if times[(kind, TIERS[0])] > 0]
    best = sum(min(times[(kind, tier)] for tier in TIERS) for kind in used)
    picked = sum(times[(kind, auto)] for kind in used)
    metrics["engines.auto_vs_best"] = picked / best if best > 0 else 0.0
    return metrics


def mapping_metrics(tracer: Tracer, spans_by_name: dict[str, float]) -> dict[str, float]:
    """The ``defects.*`` and ``mapping.*`` metrics of one traced replay."""
    counts = tracer.counts
    crosspoints = counts.get("defects.crosspoints", 0)
    generate = spans_by_name.get("defects.generate", 0.0)
    pairs = counts.get("mapping.pairs", 0)
    return {
        "defects.generate_s": generate,
        "defects.crosspoints": crosspoints,
        "defects.ns_per_crosspoint": generate / crosspoints * 1e9 if crosspoints else 0.0,
        "mapping.function_matrix_s": spans_by_name.get("mapping.function_matrix", 0.0),
        "mapping.hybrid_s": spans_by_name.get("mapping.hybrid", 0.0),
        "mapping.exact_s": spans_by_name.get("mapping.exact", 0.0),
        "mapping.prescreen_settled_frac": (
            counts.get("mapping.settled", 0) / pairs if pairs else 0.0
        ),
        "mapping.kernel_samples": counts.get("mapping.kernel_samples", 0),
        "mapping.invalid": counts.get("mapping.invalid", 0),
        "circuits.build_s": spans_by_name.get("circuits.build", 0.0),
    }


#: Spans that time a call into a layer of the program (the rest are the
#: benchmark's own grouping spans).
LAYER_SPANS = (
    "circuits.build",
    "defects.generate",
    "mapping.function_matrix",
    "mapping.hybrid",
    "mapping.exact",
    "multilevel.stage_plan",
    "boolean.random_function",
    "boolean.minimize",
    "synth.tech_map",
    "synth.area",
    "api.artifact_write",
    "api.artifact_read",
)


def covered_time(spans_by_name: dict[str, float]) -> float:
    """Replayed time inside layer calls (what ``run_scenario`` adds is the rest)."""
    return sum(spans_by_name.get(name, 0.0) for name in LAYER_SPANS)
