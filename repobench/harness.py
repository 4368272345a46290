"""Shared machinery of the benchmark: environment, boots, spans, statistics.

Nothing here imports NumPy or :mod:`repro` at module level, so
:func:`pin_environment` can pin the BLAS/OpenMP thread counts before
either is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Build cache of the compiled kernel library (``REPRO_COMPILED_CACHE``).
CACHE_DIR = BENCH_DIR / ".cache"
#: Parent of the per-run scratch directories (stores, checkpoints, TMPDIR).
WORK_DIR = BENCH_DIR / ".work"
#: Host records and span dumps, one file per run.
OUT_DIR = BENCH_DIR / ".out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Fresh boots timed per run for ``setup_s``, after one discarded warm-up.
BOOTS = 15

#: Fewest values a percentile metric needs beyond it.
TAIL_VALUES = 10

#: Change of the reference loop between a run's halves beyond which the
#: record marks the run as not comparable.
DRIFT_LIMIT = 0.2

#: End-to-end metrics and their units; every untraced run reports all.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cold_s": "s",
    "cached_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units; every traced run reports all.  A
#: layer the workload never calls reads 0.
PER_LAYER = {
    "compiled.load_s": "s",
    "circuits.build_s": "s",
    "defects.generate_s": "s",
    "defects.crosspoints": "count",
    "defects.ns_per_crosspoint": "ns",
    "mapping.function_matrix_s": "s",
    "mapping.hybrid_s": "s",
    "mapping.exact_s": "s",
    "mapping.prescreen_settled_frac": "ratio",
    "mapping.kernel_samples": "count",
    "mapping.invalid": "count",
    "engines.exact_s.compiled": "s",
    "engines.exact_s.vectorized": "s",
    "engines.hybrid_s.compiled": "s",
    "engines.hybrid_s.vectorized": "s",
    "engines.auto_vs_best": "ratio",
    "boolean.random_function_s": "s",
    "boolean.minimize_s": "s",
    "boolean.minimize_calls": "count",
    "synth.tech_map_s": "s",
    "synth.area_s": "s",
    "synth.gates": "count",
    "multilevel.stage_plan_s": "s",
    "multilevel.scenario_s": "s",
    "api.run_scenario_s": "s",
    "api.overhead_frac": "ratio",
    "api.artifact_write_s": "s",
    "api.artifact_read_s": "s",
    "service.execute_chunk_s": "s",
    "service.execute_chunk_s.max": "s",
    "service.chunks": "count",
    "service.checkpoint_write_s": "s",
    "service.checkpoint_read_s": "s",
    "service.checkpoint_bytes": "bytes",
    "service.merge_s": "s",
    "service.http_ms": "ms",
    "service.cache_hit_frac": "ratio",
    "service.retries": "count",
    "service.quarantined": "count",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong statistic)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def pin_environment(run_name: str) -> Path:
    """Pin threads, point every cache and temp file into the benchmark dir.

    Returns the run's scratch directory (removed by :func:`cleanup`).
    Child processes inherit the environment, so fresh boots and the
    service's pool see the same settings.
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"
    os.environ["REPRO_COMPILED_CACHE"] = str(CACHE_DIR)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{run_name}-", dir=WORK_DIR))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    return workdir


def cleanup(workdir: Path) -> None:
    """Remove one run's scratch directory."""
    shutil.rmtree(workdir, ignore_errors=True)


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Root seed of pass ``index``: fresh per pass, fixed by the workload seed."""
    digest = hashlib.blake2b(
        f"{workload}:{seed}:{index}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big") >> 1


# ----------------------------------------------------------------------
# Fresh boots (setup_s)
# ----------------------------------------------------------------------
#: What a local boot does before it counts as ready to run.
READY_CODE = (
    "import repro, repro.compiled, repro.engines\n"
    "repro.compiled.get_kernels()\n"
    "repro.engines.resolve_mapping_engine('auto')\n"
    "print('ready', flush=True)\n"
)


def wait_or_kill(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc``; kill it if it outlives ``timeout``."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=30)


def time_local_boot() -> float:
    """New interpreter → ``import repro``, kernels loaded, engine resolved."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", READY_CODE],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = wait_or_kill(proc, 60)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"local boot failed (exit {code}, said {line!r})")
    return elapsed


def time_kernel_load() -> float:
    """Median over three fresh processes of the first ``get_kernels()`` call."""
    code = (
        "import time, repro.compiled\n"
        "start = time.perf_counter()\n"
        "repro.compiled.get_kernels()\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def reference_loop_s() -> float:
    """Time a fixed pure-Python loop: a host-speed sentinel, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise BenchError("unreachable")
    return elapsed


class BootSampler:
    """Spread :data:`BOOTS` fresh boots over a measuring window.

    ``poll(elapsed)`` is called between passes with the part of the
    window spent so far; it boots whenever the next evenly spaced point is reached,
    and times the reference loop beside each boot so host drift shows
    up next to the numbers.
    """

    def __init__(self, boot, window: float):
        self.boot = boot
        self.window = window
        self.samples: list[float] = []
        self.reference: list[float] = []

    def poll(self, elapsed: float) -> None:
        while (
            len(self.samples) < BOOTS
            and elapsed >= len(self.samples) * self.window / BOOTS
        ):
            self._one()

    def finish(self) -> None:
        while len(self.samples) < BOOTS:
            self._one()

    def _one(self) -> None:
        self.reference.append(reference_loop_s())
        self.samples.append(self.boot())


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: name, interval, parent span and run id."""

    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start



class _Scope:
    __slots__ = ("tracer", "name", "start", "span_id", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            Span(self.name, self.start, end, self.span_id, self.parent, tracer.run_id)
        )


_NO_SCOPE = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder plus counters.

    With ``enabled=False`` spans cost one attribute test and nothing is
    recorded; counters are kept either way, because the replay's
    correctness checks read them.
    """

    def __init__(self, run_id: str, *, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        return _Scope(self, name) if self.enabled else _NO_SCOPE

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def max_duration(spans: list[Span], name: str) -> float:
    """Longest single span of one name (0 when there is none)."""
    return max((s.duration for s in spans if s.name == name), default=0.0)


# ----------------------------------------------------------------------
# Statistics and host record
# ----------------------------------------------------------------------
def tail(values: list[float], percent: int) -> float:
    """The ``percent``-th percentile (``statistics.quantiles``, exclusive),
    or the median when fewer than :data:`TAIL_VALUES` values lie beyond it."""
    if len(values) * (100 - percent) < TAIL_VALUES * 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[percent - 1]


def drift_verdict(reference: list[float]) -> dict:
    """Did the host change speed during the run?

    Compares the median reference-loop time of the run's second half
    with that of its first half.
    """
    half = len(reference) // 2
    change = statistics.median(reference[-half:]) / statistics.median(reference[:half]) - 1
    return {"reference_drift": change, "comparable": abs(change) <= DRIFT_LIMIT}


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return found


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, from ``/proc``."""
    tree, queue = [], [pid]
    while queue:
        current = queue.pop()
        tree.append(current)
        queue += _proc_children(current)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of a process and its descendants, MB."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def host_record() -> dict:
    """Fingerprint of the host and of the tiers ``auto`` resolves to."""
    import numpy
    import scipy

    from repro import compiled, engines
    from repro.boolean.minimize import resolve_boolean_engine

    mapping = engines.resolve_mapping_engine("auto")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiled_backend": compiled.compiled_backend(),
        "auto_engine": {
            "hybrid": mapping,
            "exact": mapping,
            "boolean": resolve_boolean_engine("auto", 10),
        },
    }


# ----------------------------------------------------------------------
# Correctness bookkeeping and the result line
# ----------------------------------------------------------------------
class Checks:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def compare_expected(checks: Checks, workload: str, summaries: dict[str, dict]) -> None:
    """Check a default-seed pass against the committed statistics."""
    expected = load_expected()[workload]
    checks.record(
        sorted(summaries) == sorted(expected),
        f"{workload}: scenarios {sorted(summaries)} != expected {sorted(expected)}",
    )
    for name, summary in summaries.items():
        checks.record(
            expected.get(name) == summary,
            f"{workload}/{name}: statistics {summary} != expected {expected.get(name)}",
        )


def emit(
    *,
    workload: str,
    seed: int,
    trace: bool,
    metrics: dict[str, float],
    checks: Checks,
    record: dict,
    tracer: Tracer | None = None,
) -> int:
    """Write the run's record and spans, print the result line.

    Returns the process exit code: non-zero when any check failed.
    """
    declared = PER_LAYER if trace else END_TO_END
    if sorted(metrics) != sorted(declared):
        raise BenchError(
            f"metric set mismatch: missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}"
        )
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(record, failures=checks.messages)
    (OUT_DIR / f"{stem}-record.json").write_text(json.dumps(record, indent=2))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared
                },
            }
        ),
        flush=True,
    )
    return 0 if checks.failed == 0 else 1
