"""Tests for the compiled kernel tier, ``auto`` resolution and merging.

Covers the ISSUE 8 acceptance matrix:

* the engine registry — ``"packed"`` alias folding, registry-style
  rejection of unknown names, and the ``auto`` → compiled →
  vectorized fallback chain (simulated backend absence via a
  monkeypatched probe and the ``REPRO_COMPILED`` kill switch);
* kernel-level differentials — the portable kernels in
  :mod:`repro.compiled._kernels_py` (the Numba jit target doubles as a
  pure-Python oracle) against the NumPy replicas, and the loaded C/Numba
  backend against that oracle;
* end-to-end parity — compiled vs vectorized vs reference counting
  statistics, including multilevel and redundancy sweeps, and the
  packed Boolean minimiser with ``compiled`` merge passes;
* cross-engine merging — ``MonteCarloResult.merge`` accepts results
  from different engines (recording ``engine="mixed"``) while still
  rejecting genuine statistics-contract conflicts, and round-trips
  through ``CheckpointStore`` resume;
* CLI alias acceptance on every subcommand (run / analyze / serve).
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

from repro import compiled
from repro.api.runner import run_scenario
from repro.api.scenarios import FunctionSource, Scenario
from repro.boolean.cover import Cover
from repro.boolean.minimize import (
    BOOLEAN_ENGINES,
    minimize_cover,
    resolve_boolean_engine,
)
from repro.boolean.packed import _merge_distance_one_values
from repro.boolean.random_functions import RandomFunctionSpec, random_cover
from repro.circuits import get_benchmark
from repro.cli import build_parser, main
from repro.compiled import _kernels_py as kernels_py
from repro.engines import (
    ENGINE_CHOICES,
    MAPPING_ENGINES,
    canonical_engine,
    resolve_mapping_engine,
)
from repro.exceptions import ExperimentError
from repro.experiments.monte_carlo import (
    ENGINES,
    MonteCarloResult,
    run_mapping_monte_carlo,
)
from repro.mapping.batch_kernel import _replica_exact, _replica_hybrid
from repro.service.jobs import ChunkJob, execute_chunk, merge_mapping_chunks, plan_chunks
from repro.service.orchestrator import Orchestrator
from repro.service.store import CheckpointStore

requires_backend = pytest.mark.skipif(
    not compiled.compiled_available(),
    reason="no compiled backend (Numba or a C compiler) on this machine",
)


@pytest.fixture
def clean_backend(monkeypatch):
    """Reset the probed-backend cache after a test that tampers with it."""
    yield monkeypatch
    compiled.reset_compiled_backend()


def counting(result: MonteCarloResult) -> dict:
    return {
        name: (o.successes, o.samples, o.total_backtracks, o.invalid_mappings)
        for name, o in result.outcomes.items()
    }


# ----------------------------------------------------------------------
# Engine registry: aliasing, rejection, auto resolution
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_choice_lists_are_consistent(self):
        assert MAPPING_ENGINES == ("auto", "compiled", "vectorized", "reference")
        assert ENGINE_CHOICES == (
            "auto", "compiled", "vectorized", "packed", "reference",
        )
        # The concrete (post-resolution) engines the Monte-Carlo layer runs.
        assert ENGINES == ("compiled", "vectorized", "reference")

    def test_packed_alias_folds_to_vectorized(self):
        assert canonical_engine("packed") == "vectorized"
        for name in MAPPING_ENGINES:
            assert canonical_engine(name) == name

    def test_unknown_engine_rejected_naming_choices(self):
        with pytest.raises(ExperimentError, match="'warp'") as excinfo:
            canonical_engine("warp")
        message = str(excinfo.value)
        for choice in ENGINE_CHOICES:
            assert choice in message

    def test_resolution_is_always_concrete(self):
        assert resolve_mapping_engine("vectorized") == "vectorized"
        assert resolve_mapping_engine("reference") == "reference"
        assert resolve_mapping_engine("packed") == "vectorized"
        for name in ("auto", "compiled"):
            assert resolve_mapping_engine(name) in ("compiled", "vectorized")

    @requires_backend
    def test_auto_selects_compiled_when_available(self):
        assert compiled.compiled_backend() in ("numba", "cext")
        assert resolve_mapping_engine("auto") == "compiled"
        assert resolve_mapping_engine("compiled") == "compiled"
        assert resolve_boolean_engine("auto", 5) == "compiled"

    def test_auto_degrades_without_any_backend(self, clean_backend):
        clean_backend.setattr(compiled, "_probe", lambda: (None, None))
        compiled.reset_compiled_backend()
        assert not compiled.compiled_available()
        assert compiled.compiled_backend() is None
        assert compiled.get_kernels() is None
        # compiled -> vectorized -> (explicit) reference fallback chain.
        assert resolve_mapping_engine("auto") == "vectorized"
        assert resolve_mapping_engine("compiled") == "vectorized"
        assert resolve_mapping_engine("reference") == "reference"
        # The Boolean side degrades compiled -> packed -> object.
        assert resolve_boolean_engine("auto", 5) == "packed"
        assert resolve_boolean_engine("compiled", 5) == "packed"
        assert resolve_boolean_engine("auto", 25) == "object"

    def test_kill_switch_disables_the_tier(self, clean_backend):
        clean_backend.setenv("REPRO_COMPILED", "off")
        compiled.reset_compiled_backend()
        assert not compiled.compiled_available()
        assert resolve_mapping_engine("auto") == "vectorized"

    def test_numba_restriction_without_numba(self, clean_backend):
        # The container has no Numba, so restricting the probe to the
        # Numba backend must behave exactly like a machine without it:
        # auto falls back to the vectorized tier.
        if kernels_py.NUMBA_AVAILABLE:  # pragma: no cover - numba machines
            pytest.skip("numba is importable here")
        clean_backend.setenv("REPRO_COMPILED", "numba")
        compiled.reset_compiled_backend()
        assert not compiled.compiled_available()
        assert resolve_mapping_engine("auto") == "vectorized"

    def test_auto_run_records_resolved_engine(self, clean_backend):
        clean_backend.setattr(compiled, "_probe", lambda: (None, None))
        compiled.reset_compiled_backend()
        result = run_mapping_monte_carlo(
            get_benchmark("rd53"), sample_size=4, seed=3,
            algorithms=("hybrid",), workers=1, engine="auto",
        )
        assert result.engine == "vectorized"

    def test_boolean_engine_names(self):
        assert BOOLEAN_ENGINES == ("auto", "compiled", "packed", "object")


# ----------------------------------------------------------------------
# Kernel differentials: portable kernels vs the NumPy replicas
# ----------------------------------------------------------------------
def random_instance(rng: np.random.Generator):
    num_minterms = int(rng.integers(1, 7))
    num_outputs = int(rng.integers(0, 3))
    num_fm_rows = num_minterms + num_outputs
    num_rows = int(rng.integers(1, num_fm_rows + 4))
    num_samples = int(rng.integers(1, 6))
    density = rng.uniform(0.2, 0.9)
    compat = (
        rng.random((num_samples, num_fm_rows, num_rows)) < density
    ).astype(np.uint8)
    closed = (rng.random((num_samples, num_rows)) < 0.25).astype(np.uint8)
    # map_sample_batch zeroes closed rows out of the compatibility
    # tensor before the kernels see it; mirror that here.
    compat &= 1 - closed[:, None, :]
    return compat, closed, num_minterms


def staircase(size: int, rng: np.random.Generator) -> np.ndarray:
    """A square staircase, rows and columns permuted at random.

    Row ``i`` of the unpermuted matrix sees columns ``0..size-1-i``, so a
    perfect matching exists, but greedy first fit leaves rows unmatched
    and Hopcroft-Karp needs many phases of long augmenting paths (at
    size 200: 23 free rows, 14 phases, paths through 110 rows).
    """
    adj = np.tril(np.ones((size, size), dtype=np.uint8))[::-1]
    return adj[rng.permutation(size)][:, rng.permutation(size)].copy()


def single(adj: np.ndarray, closed=None):
    """One-sample batch ``(compat, closed)`` of a biadjacency matrix."""
    if closed is None:
        closed = np.zeros(adj.shape[1], dtype=np.uint8)
    return adj[None].astype(np.uint8), np.asarray(closed, np.uint8)[None]


def exact_cases():
    """Fixed exact-mode instances: label, (compat, closed), saturating."""
    rng = np.random.default_rng(31)
    cases = []
    for size in (8, 33, 64, 200):
        adj = staircase(size, rng)
        cases.append((f"staircase-{size}", single(adj), True))
        # Dropping the column only the widest row reaches leaves every
        # row with degree >= 1 but `size` rows on `size - 1` columns.
        hall = adj.copy()
        hall[:, np.argmin(adj.sum(axis=0))] = 0
        assert hall.sum(axis=1).min() >= 1
        cases.append((f"staircase-{size}-hall", single(hall), False))
    # Hall violation: four rows share three columns; the rest are easy.
    adj = (rng.random((12, 16)) < 0.5).astype(np.uint8)
    adj[:4] = 0
    adj[:4, [2, 7, 11]] = 1
    adj[4:, [2, 7, 11]] = 0
    adj[4:, 0] = 1
    assert adj.sum(axis=1).min() >= 1
    cases.append(("shared-columns-hall", single(adj), False))
    cases.append(
        ("more-fm-rows", single(np.ones((12, 8), dtype=np.uint8)), False)
    )
    cases.append(
        ("no-fm-rows", single(np.zeros((0, 5), dtype=np.uint8)), True)
    )
    # Near the matching threshold at ~200 x 200: a sparse random graph
    # over a planted permutation, plus stuck-closed rows.
    for seed in range(3):
        local = np.random.default_rng(seed)
        adj = (local.random((200, 210)) < 0.015).astype(np.uint8)
        adj[np.arange(200), local.permutation(210)[:200]] = 1
        closed = (local.random(210) < 0.03).astype(np.uint8)
        adj &= 1 - closed[None, :]
        cases.append((f"sparse-200-{seed}", single(adj, closed), None))
    return cases


def output_stage_cases():
    """Fixed HBA instances whose output stage the minterms crowd out."""
    rng = np.random.default_rng(37)
    cases = []
    # Three minterms fill rows 0-2; both outputs then compete for row 3
    # (fails) or reach rows 3 and 4 (succeeds).
    for label, second_output, mapped in (
        ("outputs-crowded-out", [1, 3], False),
        ("outputs-fit", [1, 4], True),
    ):
        adj = np.zeros((5, 6), dtype=np.uint8)
        adj[:3, :3] = 1
        adj[3, [0, 3]] = 1
        adj[4, second_output] = 1
        cases.append((label, single(adj), 3, mapped))
    # One minterm on row 0, then a permuted staircase of outputs over
    # the remaining rows and the minterm's own row.
    for size in (17, 120):
        adj = np.zeros((size + 1, size + 1), dtype=np.uint8)
        adj[0, 0] = 1
        adj[1:, 1:] = staircase(size, rng)
        adj[1:, 0] = 1
        cases.append((f"output-staircase-{size}", single(adj), 1, True))
    return cases


def assert_exact_matches(map_exact, cases):
    """``map_exact(compat, closed)`` against ``_replica_exact``."""
    for label, (compat, closed), expected in cases:
        success, backtracks, valid = map_exact(compat, closed)
        assert not backtracks.any(), label
        assert valid.all(), label
        for s in range(compat.shape[0]):
            usable = np.flatnonzero(closed[s] == 0)
            ok, _, _ = _replica_exact(compat[s], usable)
            if expected is not None:
                assert ok == expected, label
            assert bool(success[s]) == ok, label


def assert_output_stage_matches(map_first_fit, cases):
    """``map_first_fit(compat, closed, num_minterms, mode)`` vs HBA."""
    for label, (compat, closed), num_minterms, expected in cases:
        for mode, backtracking in (
            (kernels_py.MODE_GREEDY, False),
            (kernels_py.MODE_HYBRID, True),
        ):
            success, backtracks, valid = map_first_fit(
                compat, closed, num_minterms, mode
            )
            usable = np.flatnonzero(closed[0] == 0)
            ok, bt, good = _replica_hybrid(
                compat[0], usable, num_minterms,
                backtracking=backtracking, check_validity=True,
            )
            assert ok == expected, label
            assert bool(success[0]) == ok, label
            assert int(backtracks[0]) == bt, label
            if ok:
                assert good and valid[0] == 1, label


class TestKernelOracle:
    """`_kernels_py` (pure Python) against the NumPy replicas."""

    @pytest.mark.parametrize(
        "mode,backtracking",
        [(kernels_py.MODE_GREEDY, False), (kernels_py.MODE_HYBRID, True)],
    )
    def test_first_fit_modes_match_replica(self, mode, backtracking):
        rng = np.random.default_rng(2024 + mode)
        for _ in range(60):
            compat, closed, num_minterms = random_instance(rng)
            success, backtracks, valid = kernels_py.map_builtin_batch(
                compat, closed, num_minterms, mode, 1
            )
            for s in range(compat.shape[0]):
                usable = np.flatnonzero(closed[s] == 0)
                ok, bt, good = _replica_hybrid(
                    compat[s], usable, num_minterms,
                    backtracking=backtracking, check_validity=True,
                )
                assert bool(success[s]) == ok
                assert int(backtracks[s]) == bt
                if ok:
                    assert bool(valid[s]) == good

    def test_exact_mode_matches_replica(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            compat, closed, num_minterms = random_instance(rng)
            success, backtracks, _ = kernels_py.map_builtin_batch(
                compat, closed, compat.shape[1], kernels_py.MODE_EXACT, 0
            )
            assert not backtracks.any()  # the exact mapper never backtracks
            for s in range(compat.shape[0]):
                usable = np.flatnonzero(closed[s] == 0)
                ok, _, _ = _replica_exact(compat[s], usable)
                assert bool(success[s]) == ok

    def test_exact_mode_on_adversarial_instances(self):
        assert_exact_matches(
            lambda compat, closed: kernels_py.map_builtin_batch(
                compat, closed, compat.shape[1], kernels_py.MODE_EXACT, 1
            ),
            exact_cases(),
        )

    def test_output_stage_on_adversarial_instances(self):
        assert_output_stage_matches(
            lambda compat, closed, num_minterms, mode:
                kernels_py.map_builtin_batch(
                    compat, closed, num_minterms, mode, 1
                ),
            output_stage_cases(),
        )

    def test_merge_pass_matches_replica(self):
        rng = random.Random(99)
        for trial in range(40):
            num_inputs = rng.randint(2, 8)
            num_cubes = rng.randint(0, 12)
            values = np.array(
                [
                    [rng.choice((0, 1, 2)) for _ in range(num_inputs)]
                    for _ in range(num_cubes)
                ],
                dtype=np.uint8,
            ).reshape(num_cubes, num_inputs)
            expected = _merge_distance_one_values(values, compiled=False)
            from repro.boolean.packed import (
                _dedupe_values,
                _without_contained_values,
            )

            merged = kernels_py.merge_distance_one(values)
            actual = _without_contained_values(_dedupe_values(merged))
            assert np.array_equal(actual, expected), f"trial {trial}"


@requires_backend
class TestLoadedBackend:
    """The loaded backend (C or Numba) against the pure-Python oracle."""

    def test_map_builtin_batch_matches_oracle(self):
        kernels = compiled.get_kernels()
        rng = np.random.default_rng(7)
        modes = {
            "exact": kernels_py.MODE_EXACT,
            "greedy": kernels_py.MODE_GREEDY,
            "hybrid": kernels_py.MODE_HYBRID,
        }
        for _ in range(40):
            compat, closed, num_minterms = random_instance(rng)
            for kind, mode in modes.items():
                got = kernels.map_builtin_batch(
                    compat, closed, num_minterms, kind=kind,
                    check_validity=True,
                )
                want = kernels_py.map_builtin_batch(
                    compat, closed, num_minterms, mode, 1
                )
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), kind

    def test_exact_mode_on_adversarial_instances(self):
        kernels = compiled.get_kernels()
        assert_exact_matches(
            lambda compat, closed: kernels.map_builtin_batch(
                compat, closed, compat.shape[1], kind="exact",
                check_validity=True,
            ),
            exact_cases(),
        )

    def test_output_stage_on_adversarial_instances(self):
        kernels = compiled.get_kernels()
        kinds = {kernels_py.MODE_GREEDY: "greedy",
                 kernels_py.MODE_HYBRID: "hybrid"}
        assert_output_stage_matches(
            lambda compat, closed, num_minterms, mode:
                kernels.map_builtin_batch(
                    compat, closed, num_minterms, kind=kinds[mode],
                    check_validity=True,
                ),
            output_stage_cases(),
        )

    def test_merge_distance_one_matches_oracle(self):
        kernels = compiled.get_kernels()
        rng = random.Random(5)
        for _ in range(40):
            num_inputs = rng.randint(2, 10)
            num_cubes = rng.randint(0, 10)
            values = np.array(
                [
                    [rng.choice((0, 1, 2)) for _ in range(num_inputs)]
                    for _ in range(num_cubes)
                ],
                dtype=np.uint8,
            ).reshape(num_cubes, num_inputs)
            assert np.array_equal(
                kernels.merge_distance_one(values),
                kernels_py.merge_distance_one(values),
            )


# ----------------------------------------------------------------------
# End-to-end parity: compiled vs vectorized vs reference
# ----------------------------------------------------------------------
@requires_backend
class TestCompiledEngineParity:
    @pytest.mark.parametrize("rate", [0.05, 0.15])
    def test_counting_statistics_match_across_engines(self, rate):
        function = get_benchmark("rd53")
        kwargs = dict(
            defect_rate=rate, sample_size=30, seed=17,
            algorithms=("hybrid", "exact", "greedy"), workers=1,
        )
        results = {
            engine: run_mapping_monte_carlo(function, engine=engine, **kwargs)
            for engine in ("compiled", "vectorized", "reference")
        }
        assert counting(results["compiled"]) == counting(results["vectorized"])
        assert counting(results["compiled"]) == counting(results["reference"])
        assert results["compiled"].engine == "compiled"

    def test_redundancy_parity(self):
        function = get_benchmark("rd53")
        for extra_rows, extra_columns in [(1, 0), (2, 2)]:
            kwargs = dict(
                defect_rate=0.15, sample_size=16, seed=5,
                extra_rows=extra_rows, extra_columns=extra_columns,
                workers=1,
            )
            com = run_mapping_monte_carlo(function, engine="compiled", **kwargs)
            vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
            assert counting(com) == counting(vec)

    def test_multilevel_parity(self):
        function = get_benchmark("rd53")
        kwargs = dict(
            defect_rate=0.10, sample_size=12, seed=9,
            algorithms=("hybrid",), workers=1,
            multilevel={"strategy": "best"},
        )
        com = run_mapping_monte_carlo(function, engine="compiled", **kwargs)
        vec = run_mapping_monte_carlo(function, engine="vectorized", **kwargs)
        assert counting(com) == counting(vec)

    def test_boolean_minimize_parity(self):
        for num_inputs in (3, 5, 8):
            for seed in range(4):
                rng = random.Random(1000 * num_inputs + seed)
                spec = RandomFunctionSpec(
                    num_inputs=num_inputs, min_products=1,
                    max_products=3 * num_inputs,
                )
                cover = random_cover(spec, rng, engine="object")
                strings = {
                    engine: minimize_cover(cover, engine=engine).to_strings()
                    for engine in ("object", "packed", "compiled")
                }
                assert strings["compiled"] == strings["packed"]
                assert strings["compiled"] == strings["object"]

    def test_minimize_empty_and_tautology(self):
        assert minimize_cover(Cover.zero(4), engine="compiled").is_empty()
        tautology = Cover.from_strings(3, ["0--", "1--"])
        assert minimize_cover(tautology, engine="compiled").is_tautology()


# ----------------------------------------------------------------------
# Cross-engine merge (the satellite bugfix)
# ----------------------------------------------------------------------
class TestCrossEngineMerge:
    @staticmethod
    def run_slice(engine: str, offset: int, size: int, **overrides):
        kwargs = dict(
            defect_rate=0.10, sample_size=size, seed=23,
            algorithms=("hybrid", "exact"), workers=1,
            sample_offset=offset, engine=engine,
        )
        kwargs.update(overrides)
        return run_mapping_monte_carlo(get_benchmark("rd53"), **kwargs)

    def test_cross_engine_merge_matches_single_run(self):
        first = self.run_slice("vectorized", 0, 12)
        second = self.run_slice("reference", 12, 12)
        first.merge(second)
        assert first.engine == "mixed"
        assert first.sample_ranges == [[0, 24]]
        single = self.run_slice("vectorized", 0, 24)
        assert counting(first) == counting(single)

    def test_same_engine_merge_keeps_the_name(self):
        first = self.run_slice("vectorized", 0, 8)
        first.merge(self.run_slice("vectorized", 8, 8))
        assert first.engine == "vectorized"

    def test_mixed_engine_round_trips_serialization(self):
        first = self.run_slice("vectorized", 0, 8)
        first.merge(self.run_slice("reference", 8, 8))
        rebuilt = MonteCarloResult.from_dict(first.to_dict())
        assert rebuilt.engine == "mixed"
        assert counting(rebuilt) == counting(first)
        # and a mixed result merges onward without complaint
        rebuilt.merge(self.run_slice("vectorized", 16, 8))
        assert rebuilt.engine == "mixed"
        assert rebuilt.sample_ranges == [[0, 24]]

    def test_contract_conflicts_still_raise(self):
        base = self.run_slice("vectorized", 0, 8)
        with pytest.raises(ExperimentError):
            base.merge(self.run_slice("reference", 8, 8, defect_rate=0.2))
        with pytest.raises(ExperimentError, match="overlap"):
            base.merge(self.run_slice("reference", 4, 8))


# ----------------------------------------------------------------------
# Cross-engine checkpoint resume (service layer)
# ----------------------------------------------------------------------
def tiny_scenario(**overrides) -> Scenario:
    spec = {
        "name": "compiled-svc",
        "source": FunctionSource.benchmark("rd53"),
        "mappers": ("hybrid",),
        "samples": 32,
        "seed": 6,
    }
    spec.update(overrides)
    return Scenario(**spec)


class TestCrossEngineCheckpointResume:
    def test_chunks_from_different_engines_merge(self, tmp_path):
        scenario = tiny_scenario()
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        plan = plan_chunks(scenario, 8)
        engines = ["vectorized", "reference", "auto", "vectorized"]
        for chunk, engine in zip(plan, engines):
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine=engine,
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)
        # Reload from disk — the resume path — and merge across engines.
        restored = [
            checkpoints.read_chunk(spec_hash, chunk.key) for chunk in plan
        ]
        assert all(restored)
        merged = merge_mapping_chunks(restored)
        assert merged.engine == "mixed"
        assert merged.sample_ranges == [[0, 32]]
        direct = run_scenario(scenario, workers=1).monte_carlo()
        assert merged.counting_statistics() == direct.counting_statistics()

    def test_orchestrator_resumes_over_foreign_engine_chunks(self, tmp_path):
        # A campaign checkpointed on a reference-engine machine must
        # resume cleanly on a machine whose `auto` resolves differently.
        scenario = tiny_scenario(samples=40)
        checkpoints = CheckpointStore(tmp_path / "ckpt")
        spec_hash = scenario.content_hash()
        plan = plan_chunks(scenario, 8)
        for chunk in plan[:2]:
            payload = execute_chunk(
                ChunkJob(
                    spec_hash=spec_hash,
                    scenario_payload=scenario.to_dict(),
                    chunk=chunk,
                    engine="reference",
                )
            )
            checkpoints.write_chunk(spec_hash, chunk.key, payload)

        async def resume():
            orchestrator = Orchestrator(
                checkpoints, workers=1, chunk_size=8, engine="auto"
            )
            job = await orchestrator.submit(scenario)
            await orchestrator.wait(job.job_id)
            orchestrator.shutdown()
            return job

        job = asyncio.run(resume())
        assert job.status == "done", job.error
        assert job.loaded_chunks == 2
        assert job.executed_chunks == len(plan) - 2
        direct = run_scenario(scenario, workers=1)
        assert job.result.counting_statistics() == direct.counting_statistics()


# ----------------------------------------------------------------------
# CLI alias acceptance on every subcommand
# ----------------------------------------------------------------------
class TestCLIEngineAliases:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(tiny_scenario(samples=3).to_json())
        return path

    @pytest.mark.parametrize("spelling", ENGINE_CHOICES)
    def test_every_subcommand_parses_every_spelling(self, spelling):
        parser = build_parser()
        for argv in (
            ["run", "sweep", "--engine", spelling],
            ["analyze", "yield", "--engine", spelling],
            ["serve", "--engine", spelling],
        ):
            args = parser.parse_args(argv)
            assert canonical_engine(args.engine) in MAPPING_ENGINES

    def test_unknown_engine_rejected_at_parse_time(self, capsys):
        parser = build_parser()
        for argv in (
            ["run", "sweep", "--engine", "warp"],
            ["analyze", "yield", "--engine", "warp"],
            ["serve", "--engine", "warp"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        capsys.readouterr()

    def test_run_accepts_packed_alias(self, scenario_file, tmp_path, capsys):
        code = main(
            [
                "run", str(scenario_file), "--workers", "1",
                "--jsonl", str(tmp_path / "artifacts.jsonl"),
                "--engine", "packed",
            ]
        )
        assert code == 0
        assert "Psucc[hybrid]" in capsys.readouterr().out

    def test_analyze_accepts_packed_alias(self, tmp_path, capsys):
        code = main(
            [
                "analyze", "yield", "--tolerance", "0.2",
                "--max-samples", "8",
                "--jsonl", str(tmp_path / "artifacts.jsonl"),
                "--engine", "packed",
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_serve_runtime_folds_the_alias(self, tmp_path):
        orchestrator = Orchestrator(
            CheckpointStore(tmp_path / "ckpt"), workers=1, engine="packed"
        )
        assert orchestrator.engine == "vectorized"
        orchestrator.shutdown()

    def test_serve_rejects_unknown_engine(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown engine"):
            Orchestrator(CheckpointStore(tmp_path / "ckpt"), engine="warp")
