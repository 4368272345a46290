"""The ``serve`` workload: one client in a closed loop against ``repro serve``.

The service runs as a child process with its default worker count on an
ephemeral port; its checkpoints and artifact store live in the run's
scratch directory.  Each cycle submits a cold job — the same mid-size
Table II circuit with HBA and EA at a fresh seed, spanning three of the
service's 32-sample chunks — waits for it, fetches the result, then
resubmits the same spec a fixed number of times.  Uniform job cost
makes the latencies measure the service, not the job mix.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.artifacts import ArtifactStore
from repro.api.runner import ScenarioResult, run_scenario
from repro.engines import resolve_mapping_engine
from repro.exceptions import ExperimentError
from repro.experiments import table2
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import ChunkJob, assemble_rows, execute_chunk, plan_chunks
from repro.service.store import CheckpointStore

from repobench import layers
from repobench.harness import (
    ROOT,
    BenchError,
    BootSampler,
    Checks,
    Tracer,
    compare_expected,
    max_duration,
    pass_seed,
    process_tree,
    reference_loop_s,
    self_time_by_name,
    tail,
    tree_peak_rss_mb,
    wait_or_kill,
)
from repobench.local import REPLAY_ROUNDS, check_result, summarize

SERVE_CIRCUIT = "clip"
#: Three of the service's 32-sample chunks per job.
SERVE_SAMPLES = 96
#: Resubmissions of each cold job (the cached path).
RESUBMITS = 10
#: Client poll interval; the client's 50 ms default would quantise cold_s.
POLL_S = 0.005
#: Fewest cycles a run makes: ten cold jobs beyond the recorded 75th percentile.
MIN_CYCLES = 40


def scenario_for(seed: int | None):
    """The serve job at root ``seed`` (``None``: the suite's default seed)."""
    kwargs = {} if seed is None else {"seed": seed}
    suite = table2.paper_suite([SERVE_CIRCUIT], sample_size=SERVE_SAMPLES, **kwargs)
    return suite.scenario(SERVE_CIRCUIT)


def _gone(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return True
    return "State:\tZ" in status


class ServiceProcess:
    """One ``repro serve`` child; stopping it also ends its worker pool."""

    def __init__(self, root: Path, *, env: dict | None = None):
        self.root = root
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def __enter__(self) -> "ServiceProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    def start(self) -> float:
        """Launch and wait for the first healthy ``GET /healthz``; returns seconds."""
        self.root.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--checkpoints", str(self.checkpoints),
                "--jsonl", str(self.root / "artifacts.jsonl"),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            env=self.env,
        )
        match = re.search(r"http://\S+", self.proc.stdout.readline())
        if match is None:
            raise BenchError("repro serve did not report its address")
        self.client = ServiceClient(match.group(0), timeout=60.0, retries=0)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.health()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise BenchError("repro serve never became healthy") from None
                time.sleep(0.001)
        return time.perf_counter() - start

    def pids(self) -> list[int]:
        """The server and its live descendants (the worker pool)."""
        return process_tree(self.proc.pid) if self.proc is not None else []

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every pool process ended."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        members = [pid for pid in process_tree(proc.pid) if pid != proc.pid]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        wait_or_kill(proc, 30)
        proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in members:
            while not _gone(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)


def time_serve_boot(workdir: Path) -> float:
    """Process launch → first healthy ``GET /healthz`` of a fresh server."""
    with ServiceProcess(Path(tempfile.mkdtemp(prefix="boot-", dir=workdir))) as server:
        elapsed = server.start()
        server.proc.kill()  # no job ran, so there is nothing to drain
    return elapsed


@dataclass
class Cycle:
    """One cold job and its resubmissions, as the client saw them."""

    cold_s: float
    cached_s: list[float]
    status: dict
    answers: list[dict]
    result: object

    @property
    def wall_s(self) -> float:
        return self.cold_s + sum(self.cached_s)


def _chunk_files(server: ServiceProcess, job_id: str) -> list[str]:
    chunks = server.checkpoints / job_id / "chunks"
    return sorted(os.listdir(chunks)) if chunks.is_dir() else []


def cycle(server: ServiceProcess, scenario, checks: Checks) -> Cycle:
    """Submit cold, wait, fetch; then resubmit and fetch :data:`RESUBMITS` times."""
    client = server.client
    start = time.perf_counter()
    status = client.submit(scenario)
    if status["status"] != "done":
        status = client.wait(status["job_id"], poll=POLL_S, timeout=120)
    result = client.result(status["job_id"])
    cold_s = time.perf_counter() - start
    before = _chunk_files(server, status["job_id"])
    cached_s, answers = [], []
    for _ in range(RESUBMITS):
        began = time.perf_counter()
        answer = client.submit(scenario)
        again = client.result(answer["job_id"]) if answer["status"] == "done" else None
        cached_s.append(time.perf_counter() - began)
        answers.append(answer)
        checks.record(
            again is not None
            and answer["executed_chunks"] == status["executed_chunks"]
            and again.counting_statistics() == result.counting_statistics(),
            f"{scenario.name}: resubmission was not answered from the finished job",
        )
    checks.record(
        _chunk_files(server, status["job_id"]) == before,
        f"{scenario.name}: resubmission added chunk checkpoints",
    )
    return Cycle(cold_s, cached_s, status, answers, result)


def verify(checks: Checks, scenario, served) -> None:
    """A served result must equal an in-process run of the same spec."""
    check_result(checks, scenario, served)
    local = run_scenario(scenario, workers=1, engine="vectorized")
    checks.record(
        served.counting_statistics() == local.counting_statistics(),
        f"{scenario.name}: served statistics differ from in-process run_scenario",
    )


def _default_job(server: ServiceProcess, checks: Checks) -> None:
    """The default-seed job: warms the pool, checked against expected.json."""
    scenario = scenario_for(None)
    default = cycle(server, scenario, checks)
    verify(checks, scenario, default.result)
    compare_expected(checks, "serve", {scenario.name: summarize(default.result)})


def run_untraced(seed: int, seconds: float, workdir: Path) -> tuple:
    """Closed loop of cycles (and their verification) for a ``seconds``-long window."""
    checks = Checks()
    time_serve_boot(workdir)  # warm-up boot: byte-compiles, never timed
    sampler = BootSampler(lambda: time_serve_boot(workdir), seconds)
    reference = [reference_loop_s()]
    cycles: list[Cycle] = []
    with ServiceProcess(workdir / "server") as server:
        server.start()
        _default_job(server, checks)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(cycles) < MIN_CYCLES:
            sampler.poll(time.perf_counter() - start)
            scenario = scenario_for(pass_seed("serve", seed, len(cycles)))
            try:
                done = cycle(server, scenario, checks)
            except ExperimentError as error:  # a failed job or an HTTP error
                raise BenchError(f"serve job failed: {error}") from None
            cycles.append(done)
            verify(checks, scenario, done.result)
        peak_rss = tree_peak_rss_mb(server.proc.pid)
    sampler.finish()
    reference.append(reference_loop_s())
    cold = [c.cold_s for c in cycles]
    cached = [t for c in cycles for t in c.cached_s]
    metrics = {
        "setup_s": statistics.median(sampler.samples),
        "pass_s": min(c.wall_s for c in cycles),
        "cold_s": min(cold),
        "cached_ms": min(cached) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    record = {
        "cycles": len(cycles),
        "cold_jobs": len(cold),
        "cached_requests": len(cached),
        # The client's latency distribution, recorded beside the metrics:
        # medians and tails move with the host's slow spells.
        "cold_s": {"p50": statistics.median(cold), "p75": tail(cold, 75)},
        "cached_ms": {
            "p50": statistics.median(cached) * 1e3,
            "p90": tail(cached, 90) * 1e3,
        },
        "boots": len(sampler.samples),
        "circuit": SERVE_CIRCUIT,
        "samples_per_job": SERVE_SAMPLES,
        "retries": sum(c.status["retries"] for c in cycles),
        "reference_loop_s": reference[:1] + sampler.reference + reference[1:],
    }
    return metrics, checks, record


def _replay(scenario, spec_hash, settings, tracer, workdir, calls) -> tuple:
    """The cold job's chunk work through the service's public functions.

    Then the same chunks once more as defect-generation and mapping
    calls, which break ``service.execute_chunk`` down by layer.
    """
    root = Path(tempfile.mkdtemp(prefix="replay-", dir=workdir))
    checkpoints = CheckpointStore(root / "checkpoints")
    artifacts = ArtifactStore(root / "artifacts.jsonl")
    plan = plan_chunks(scenario, settings["chunk_size"])
    payloads = {}
    for chunk in plan:
        job = ChunkJob(spec_hash, scenario.to_dict(), chunk, engine=settings["engine"])
        with tracer.span("service.execute_chunk"):
            payload = execute_chunk(job)
        with tracer.span("service.checkpoint_write"):
            checkpoints.write_chunk(spec_hash, chunk.key, payload)
        tracer.add("service.chunks")
        tracer.add(
            "service.checkpoint_bytes",
            checkpoints.chunk_path(spec_hash, chunk.key).stat().st_size,
        )
        with tracer.span("service.checkpoint_read"):
            payloads[chunk] = checkpoints.read_chunk(spec_hash, chunk.key)
    with tracer.span("service.merge"):
        rows = assemble_rows(scenario, plan, payloads)
    with tracer.span("api.artifact_write"):
        artifacts.write_block(spec_hash, scenario.to_dict(), rows)
    with tracer.span("api.artifact_read"):
        artifacts.load(spec_hash)
    chunks_per_row = [
        [range(c.start, c.stop) for c in plan if c.row_index == row]
        for row in range(len(scenario.redundancy))
    ]
    breakdown = layers.replay_mapping(
        scenario,
        tracer,
        resolve_mapping_engine(settings["engine"]),
        calls,
        chunks_per_row=chunks_per_row,
    )
    return rows, breakdown


def run_traced(seed: int, workdir: Path, load_s: float) -> tuple:
    """One cycle end to end, then rounds of an in-process run of its cold
    job plus an untraced and a traced replay of that job."""
    checks = Checks()
    time_serve_boot(workdir)
    scenario = scenario_for(pass_seed("serve", seed, 0))
    with ServiceProcess(workdir / "server") as server:
        server.start()
        _default_job(server, checks)
        done = cycle(server, scenario, checks)
        http = []
        for _ in range(30):
            began = time.perf_counter()
            server.client.health()
            http.append(time.perf_counter() - began)
        settings = CheckpointStore(server.checkpoints).read_spec(done.status["job_id"])
    verify(checks, scenario, done.result)
    expected = done.result.counting_statistics()
    spec_hash = done.status["job_id"]
    walls = {False: [], True: []}
    local_walls, overheads = [], []
    for round_index in range(REPLAY_ROUNDS):
        began = time.perf_counter()
        local = run_scenario(
            scenario,
            workers=1,
            engine="auto",
            store=ArtifactStore(workdir / f"local-{round_index}.jsonl"),
        )
        local_walls.append(time.perf_counter() - began)
        checks.record(
            local.counting_statistics() == expected, "auto-engine run_scenario differs"
        )
        # Alternate which replay goes first, so order effects cancel.
        for enabled in (False, True) if round_index % 2 == 0 else (True, False):
            tracer = Tracer(f"serve-{seed}", enabled=enabled)
            calls: list = []
            start = time.perf_counter()
            with tracer.span("replay"):
                rows, breakdown = _replay(
                    scenario, spec_hash, settings, tracer, workdir, calls
                )
            walls[enabled].append(time.perf_counter() - start)
            if enabled:
                traced_tracer, traced_calls = tracer, calls
            served = ScenarioResult(scenario=scenario, spec_hash=spec_hash, rows=rows)
            checks.record(
                served.counting_statistics() == expected and breakdown == expected,
                f"{scenario.name}: replayed statistics differ (traced={enabled})",
            )
        covered = layers.covered_time(self_time_by_name(traced_tracer.spans))
        overheads.append((local_walls[-1] - covered) / local_walls[-1])
    untraced = statistics.median(walls[False])
    traced = statistics.median(walls[True])
    tracer = traced_tracer
    with tracer.span("engines"):
        tiers = layers.race_tiers(
            traced_calls, tracer, resolve_mapping_engine(settings["engine"])
        )
    by_name = self_time_by_name(tracer.spans)
    submissions = [done.status] + done.answers
    hits = sum(
        answer["status"] == "done"
        and answer["executed_chunks"] == done.status["executed_chunks"]
        for answer in done.answers
    )
    metrics = dict.fromkeys(
        [
            "boolean.random_function_s", "boolean.minimize_s",
            "boolean.minimize_calls", "synth.tech_map_s", "synth.area_s",
            "synth.gates", "multilevel.stage_plan_s", "multilevel.scenario_s",
        ],
        0,
    )
    metrics.update(layers.mapping_metrics(tracer, by_name))
    metrics.update(tiers)
    metrics.update(
        {
            "compiled.load_s": load_s,
            "api.run_scenario_s": statistics.median(local_walls),
            "api.overhead_frac": statistics.median(overheads),
            "api.artifact_write_s": by_name.get("api.artifact_write", 0.0),
            "api.artifact_read_s": by_name.get("api.artifact_read", 0.0),
            "service.execute_chunk_s": by_name.get("service.execute_chunk", 0.0),
            "service.execute_chunk_s.max": max_duration(
                tracer.spans, "service.execute_chunk"
            ),
            "service.chunks": tracer.counts.get("service.chunks", 0),
            "service.checkpoint_write_s": by_name.get("service.checkpoint_write", 0.0),
            "service.checkpoint_read_s": by_name.get("service.checkpoint_read", 0.0),
            "service.checkpoint_bytes": tracer.counts.get("service.checkpoint_bytes", 0),
            "service.merge_s": by_name.get("service.merge", 0.0),
            "service.http_ms": statistics.median(http) * 1e3,
            "service.cache_hit_frac": hits / len(submissions),
            "service.retries": sum(s["retries"] for s in submissions),
            "service.quarantined": sum(len(s["quarantined"]) for s in submissions),
            "trace.overhead_frac": (traced - untraced) / untraced,
        }
    )
    checks.record(metrics["mapping.invalid"] == 0, "replay found invalid mappings")
    record = {
        "replay_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "spans": len(tracer.spans),
        "circuit": SERVE_CIRCUIT,
        "samples_per_job": SERVE_SAMPLES,
        "chunk_size": settings["chunk_size"],
    }
    return metrics, checks, record, tracer

